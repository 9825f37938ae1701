"""Runtime invariant battery behind the ``validate`` subcommand.

Every library-level invariant has a named check here: operator algebra,
propagator exactness, protocol reductions, figure-of-merit identities,
closed-form consistency, optimizer guarantees, and CLI determinism. Checks
are pure and deterministic (randomized batteries use fixed seeds); the
runner prints one PASS or FAIL line per check and reports failure through
the exit code. A check raising is reported as FAIL with the exception.
"""

from __future__ import annotations

import tempfile
from functools import partial
from math import e, exp, sqrt
from pathlib import Path

import numpy as np

from .bosonic_limit import (
    FockSpace,
    closed_form,
    closed_form_c_small_twist,
    closed_form_optimum,
    enhancement_ratio,
    fock_mode,
    fock_simulate,
)
from .errors import BracketingError
from .metrology import closed_form_Bprime, moment_oracle, qfi, relative_difference
from .protocols import SCHEMES, run_pipeline, spin_mode
from .spin_core import (
    BandedOperator,
    DickeSpace,
    StateVector,
    collective_operators,
    fidelity,
    initial_state,
    plus_state,
    propagate,
    propagate_with_derivative,
    variance,
)
from .sweep_optimize import (
    BENCHMARK_MARGIN,
    evaluate_point,
    find_threshold,
    optimize_t,
)

FD_STEP = 1e-5


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """(raw + raw^dag) / 2 for a complex Gaussian raw: exactly Hermitian."""
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2.0


def banded(matrix: np.ndarray) -> BandedOperator:
    """The operator with the diagonal and the nonzero upper bands of a
    Hermitian matrix; it equals the matrix."""
    dim = len(matrix)
    upper = {k: np.diag(matrix, k) for k in range(1, dim) if np.diag(matrix, k).any()}
    return BandedOperator.hermitian(dim, upper, np.diag(matrix))


def random_banded_hermitian(rng: np.random.Generator, dim: int) -> BandedOperator:
    """A Gaussian real diagonal and one complex Gaussian band at a random
    offset 1 <= b < dim: the shape of operator a propagation accepts."""
    b = int(rng.integers(1, dim))
    band = rng.standard_normal(dim - b) + 1j * rng.standard_normal(dim - b)
    return BandedOperator.hermitian(dim, {b: band}, rng.standard_normal(dim))


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(raw / np.linalg.norm(raw))


def richardson_derivative(f, h: float = FD_STEP) -> np.ndarray:
    """Fourth-order central difference of a vector- or scalar-valued f at 0."""
    return (8.0 * (f(h) - f(-h)) - (f(2.0 * h) - f(-2.0 * h))) / (12.0 * h)


def dense_propagator(generator: np.ndarray, angle: float) -> np.ndarray:
    """exp(-i angle H) of a dense Hermitian H, as V exp(-i angle Lambda) V^dag."""
    values, vectors = np.linalg.eigh(generator)
    return (vectors * np.exp(-1j * angle * values)) @ vectors.conj().T


def reference_generators(lowering: np.ndarray, norm: float) -> dict:
    """Dense field, tat and oat generators from the band of a lowering
    operator L (J- with norm N, or a with norm 1): i (L - L^dag) / (2
    sqrt(norm)), i (L^2 - L^dag^2) / norm and X X / norm, X = (L + L^dag) / 2."""
    L = np.diag(lowering.astype(complex), 1)
    Ld, X = L.conj().T, (L + L.conj().T) / 2.0
    return {
        "field": 1j * (L - Ld) / (2.0 * sqrt(norm)),
        "tat": 1j * (L @ L - Ld @ Ld) / norm,
        "oat": X @ X / norm,
    }


def reference_state(lowering, norm, scheme, x, s, w) -> np.ndarray:
    """One scheme's final state at field w from dense matrices, written from
    the definitions in the ``protocols`` docstring (tau = 1), not from the
    pipeline: the first basis vector turned by the propagators, right to left."""
    gen = reference_generators(lowering, norm)
    G, tat, oat, U = gen["field"], gen["tat"], gen["oat"], dense_propagator
    psi0, t = np.eye(len(G))[0], (1.0 - s) / 2.0
    products = {
        "A": lambda: U(G, w) @ psi0,
        "B": lambda: U(G, w * s) @ U(tat, x * (1.0 - s)) @ psi0,
        "C": lambda: U(G, w * s) @ U(x * tat + w * G, 1.0 - s) @ psi0,
        "Bprime": lambda: U(oat, -x * t) @ U(G, w * s) @ U(oat, x * t) @ psi0,
        "Cprime": lambda: U(w * G - x * oat, t) @ U(G, w * s)
        @ U(w * G + x * oat, t) @ psi0,
    }
    return products[scheme]()


def reference_gaps(scheme, n_spins, twist, s) -> tuple[float, float]:
    """max |psi - psi_ref| of ``run_pipeline`` at zero field, and its
    |dpsi - fd| / max(|dpsi|, 1) against the reference's finite difference
    in the field. ``n_spins`` None is a 160-level Fock mode."""
    if n_spins is None:
        mode, lowering, norm = fock_mode(FockSpace(160)), np.sqrt(np.arange(1, 160)), 1
    else:
        space = DickeSpace(n_spins)
        mode, lowering, norm = spin_mode(space), space.ladder_elements(), n_spins
    state = run_pipeline(mode, scheme, twist, s)
    dpsi = state.dpsi.amplitudes
    ref = partial(reference_state, lowering, norm, scheme, twist, s)
    fd = richardson_derivative(ref)
    return (
        np.abs(state.psi.amplitudes - ref(0.0)).max(),
        np.linalg.norm(dpsi - fd) / max(np.linalg.norm(dpsi), 1.0),
    )


def check_su2_commutators() -> str:
    worst = 0.0
    for n in range(1, 51):
        ops = collective_operators(DickeSpace(n))
        jx, jy, jz = ops.Jx.matrix, ops.Jy.matrix, ops.Jz.matrix
        for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
            worst = max(worst, np.abs(a @ b - b @ a - 1j * c).max())
    if worst > 1e-12:
        return f"commutator defect {worst:.3e} exceeds 1e-12"
    return ""


def check_casimir() -> str:
    worst = 0.0
    for n in range(1, 51):
        space = DickeSpace(n)
        ops = collective_operators(space)
        total = (
            ops.Jx.matrix @ ops.Jx.matrix
            + ops.Jy.matrix @ ops.Jy.matrix
            + ops.Jz.matrix @ ops.Jz.matrix
        )
        expected = space.j * (space.j + 1) * np.eye(space.dim)
        worst = max(worst, np.abs(total - expected).max())
    if worst > 1e-10:
        return f"Casimir defect {worst:.3e} exceeds 1e-10"
    return ""


def check_propagator_unitarity() -> str:
    rng = np.random.default_rng(20240311)
    worst = 0.0
    for _ in range(25):
        dim = int(rng.integers(2, 31))
        H = random_banded_hermitian(rng, dim)
        psi = random_state(rng, dim)
        duration = float(rng.uniform(-3.0, 3.0))
        worst = max(worst, abs(propagate(H, duration, psi).norm - 1.0))
    if worst > 1e-10:
        return f"propagated norm drifts by {worst:.3e} > 1e-10"
    return ""


def check_propagator_composition() -> str:
    rng = np.random.default_rng(987)
    worst = 0.0
    for _ in range(15):
        dim = int(rng.integers(2, 25))
        H = random_banded_hermitian(rng, dim)
        psi = random_state(rng, dim)
        t1 = float(rng.uniform(0.0, 2.0))
        t2 = float(rng.uniform(0.0, 2.0))
        joint = propagate(H, t1 + t2, psi)
        stepped = propagate(H, t2, propagate(H, t1, psi))
        worst = max(worst, np.abs(joint.amplitudes - stepped.amplitudes).max())
    if worst > 1e-9:
        return f"composition defect {worst:.3e} exceeds 1e-9"
    return ""


def check_derivative_vs_finite_difference() -> str:
    # Two seeded draws: (seed, cases, dimension range, duration range).
    worst = 0.0
    for seed, cases, dims, durations in (
        (1234, 20, (3, 22), (0.2, 1.5)),
        (2026, 50, (2, 22), (0.1, 2.0)),
    ):
        rng = np.random.default_rng(seed)
        for _ in range(cases):
            dim = int(rng.integers(*dims))
            H0 = random_banded_hermitian(rng, dim)
            G = banded(random_hermitian(rng, dim))
            psi = random_state(rng, dim)
            duration = float(rng.uniform(*durations))
            _, along_angle = propagate_with_derivative(H0, G, duration, psi)
            # That derivative is along the field angle w * duration.
            dphi = duration * along_angle.amplitudes

            fd = richardson_derivative(
                lambda w: dense_propagator(H0.matrix + w * G.matrix, duration)
                @ psi.amplitudes
            )
            err = np.linalg.norm(dphi - fd) / max(np.linalg.norm(dphi), 1.0)
            worst = max(worst, err)
    if worst > 1e-6:
        return f"derivative vs finite difference error {worst:.3e} > 1e-6"
    return ""


def check_mirror_split() -> str:
    # A chain of a Dicke generator that is its own mirror image is solved and
    # kept as two halves, a half or chain with a zero diagonal (two-axis
    # twisting) through its bipartite SVD, any other by one eigh: each must
    # reproduce a dense eigh of the same real tridiagonal matrix. The Fock
    # chains have no mirror symmetry, so they are kept whole and their
    # twisting chains take the SVD whole. The vectors are read as
    # synthesize of the identity, phases included, so the folded and the
    # whole chains are checked alike.
    kinds = ("tat", "oat", "field")
    generators = [
        (f"N={n} {kind}", spin_mode(DickeSpace(n)).generators[kind])
        for n in (1, 2, 3, 4, 5, 8, 9, 40, 41, 201, 600)
        for kind in kinds
    ] + [
        (f"Fock 400 {kind}", fock_mode(FockSpace(400)).generators[kind])
        for kind in kinds
    ]
    for name, H in generators:
        eig = BandedOperator(H.dim, H.bands).eigensystem
        diagonal = H.bands[0].real if 0 in H.bands else np.zeros(H.dim)
        for r in range(eig.stride):
            chain = eig.chain(r)
            off = np.abs(H.bands[eig.stride][r :: eig.stride])
            tridiagonal = np.diag(diagonal[r :: eig.stride])
            i = np.arange(len(off))
            tridiagonal[i, i + 1] = tridiagonal[i + 1, i] = off
            dense = np.linalg.eigh(tridiagonal)[0]
            values = chain.values
            vectors = chain.synthesize(np.eye(len(values)))
            where = f"{name} chain {r}"
            gap = np.abs(np.sort(values) - dense).max()
            if gap > 1e-12 * np.abs(dense).max():
                return f"{where}: eigenvalues differ from eigh by {gap:.3e}"
            block = H.block(r, r, eig.stride)
            residual = np.abs(block @ vectors - vectors * values).max()
            if residual > 1e-12:
                return f"{where}: max |HV - V Lambda| = {residual:.3e}"
            defect = np.abs(vectors.conj().T @ vectors - np.eye(len(values))).max()
            if defect > 1e-12:
                return f"{where}: max |V^dag V - I| = {defect:.3e}"
    return ""


def check_full_sensing_reduction() -> str:
    for n in (1, 2, 10, 50):
        mode = spin_mode(DickeSpace(n))
        ref = run_pipeline(mode, "A", 0.0, 1.0)
        for scheme in ("B", "C"):
            for twist in (0.7, 2.0):
                state = run_pipeline(mode, scheme, twist, 1.0)
                if fidelity(state.psi, ref.psi) < 1.0 - 1e-10:
                    return f"{scheme} at full sensing differs from A (N={n})"
                dev = np.abs(state.dpsi.amplitudes - ref.dpsi.amplitudes).max()
                if dev > 1e-9:
                    return (
                        f"{scheme} derivative at full sensing differs from A "
                        f"(N={n}, dev={dev:.3e})"
                    )
    return ""


def check_zero_twist_reduction() -> str:
    for n in (1, 2, 10, 50):
        mode = spin_mode(DickeSpace(n))
        ref = run_pipeline(mode, "A", 0.0, 1.0)
        for scheme in ("B", "C", "Bprime", "Cprime"):
            for s in (0.0, 0.3, 0.4, 0.8, 1.0):
                state = run_pipeline(mode, scheme, 0.0, s)
                if fidelity(state.psi, ref.psi) < 1.0 - 1e-10:
                    return f"{scheme} at zero twist differs from A (N={n}, s={s})"
    return ""


def check_single_spin_degeneracy() -> str:
    # One spin never twists (tat = 0, oat = I/4): C and Cprime sense for the
    # whole budget as A does, B and Bprime give (psi0, -i s G psi0).
    space = DickeSpace(1)
    mode = spin_mode(space)
    psi0 = initial_state(space).amplitudes
    kick = -1j * mode.generators["field"].matvec(psi0)
    ref = run_pipeline(mode, "A", 0.0, 1.0)
    whole = (ref.psi.amplitudes, ref.dpsi.amplitudes)
    for scheme in ("C", "Cprime", "B", "Bprime"):
        for s in (0.0, 0.4, 1.0):
            state = run_pipeline(mode, scheme, 3.0, s)
            got = (state.psi.amplitudes, state.dpsi.amplitudes)
            expected = whole if "C" in scheme else (psi0, s * kick)
            dev = max(np.abs(a - b).max() for a, b in zip(got, expected))
            if dev > 1e-10:
                return f"{scheme} on a single spin deviates by {dev:.3e} (s={s})"
    return ""


def check_echo_cancellation() -> str:
    for n in (2, 10, 60):
        mode = spin_mode(DickeSpace(n))
        psi0 = mode.initial
        for twist in (5.0, 50.0):
            for s in (0.0, 0.4, 0.9):
                psi = run_pipeline(mode, "Bprime", twist, s).psi
                dev = np.abs(psi.amplitudes - psi0.amplitudes).max()
                if dev > 1e-12:
                    return (
                        f"echo fails to cancel at N={n}, twist={twist}, s={s} "
                        f"(dev={dev:.3e})"
                    )
    return ""


def check_dimensionless_scaling() -> str:
    # A strength x is only a factor on the angle: exp(-i d (x H)) equals
    # exp(-i (x d) H), the identity the unit-strength generators rely on.
    for n in (3, 12):
        space = DickeSpace(n)
        psi0 = initial_state(space)
        for kind in ("tat", "oat"):
            H = spin_mode(space).generators[kind]
            for x, dur in ((0.8, 0.6), (2.5, 0.3)):
                diagonal = x * H.bands[0] if 0 in H.bands else None
                upper = {k: x * band for k, band in H.bands.items() if k > 0}
                scaled = BandedOperator.hermitian(H.dim, upper, diagonal)
                one = propagate(H, x * dur, psi0)
                other = propagate(scaled, dur, psi0)
                dev = np.abs(one.amplitudes - other.amplitudes).max()
                if dev > 1e-12:
                    return f"scaled {kind} propagation differs (N={n}, dev={dev:.3e})"
    return ""


def check_dense_reference() -> str:
    # Every scheme at six spin points, then the five schemes on the
    # 160-level Fock mode (n_spins None) at twists its truncation holds.
    spin = ((1, 3.0, 0.4), (8, 6.0, 0.4), (12, 2.0, 0.3), (10, 11.0, 0.6),
            (21, 1.5, 0.0), (9, 4.0, 0.25))
    fock = (("A", None, 0.0, 0.5), ("B", None, 0.5, 0.4), ("C", None, 0.5, 0.3),
            ("Bprime", None, 4.0, 0.6), ("Cprime", None, 4.0, 0.25))
    for case in [(scheme, *point) for point in spin for scheme in SCHEMES] + [*fock]:
        psi_gap, dpsi_gap = reference_gaps(*case)
        if psi_gap > 1e-12 or dpsi_gap > 1e-6:
            return (
                f"{case}: psi off the reference by {psi_gap:.3e} (gate 1e-12), "
                f"dpsi off its finite difference by {dpsi_gap:.3e} (gate 1e-6)"
            )
    return ""


def check_benchmark_scheme_a() -> str:
    worst = 0.0
    for n in range(1, 101):
        rec = evaluate_point("A", n, 0.0, 1.0, "spin")
        worst = max(worst, abs(rec.sensitivity - 1.0))
    if worst > 1e-9:
        return f"separable benchmark deviates by {worst:.3e} > 1e-9"
    return ""


def check_qfi_bounds() -> str:
    for scheme, twist in (("B", 1.0), ("B", 3.0), ("C", 0.5), ("C", 2.0)):
        for n in (2, 6, 15):
            for s in (0.0, 0.25, 0.5, 0.75, 1.0):
                state = run_pipeline(spin_mode(DickeSpace(n)), scheme, twist, s)
                f_val = qfi(state)
                grad2 = float(
                    np.vdot(state.dpsi.amplitudes, state.dpsi.amplitudes).real
                )
                if f_val < 0.0 or f_val > 4.0 * grad2 + 1e-12:
                    return (
                        f"Fisher information out of bounds for {scheme} "
                        f"(N={n}, s={s}): F={f_val}, 4<d|d>={4 * grad2}"
                    )
    return ""


def check_echo_matches_closed_form() -> str:
    worst = 0.0
    for n in (2, 5, 10, 50):
        for twist in (1.0, 4.0, 11.5, 50.0):
            for s in (0.1, 0.3, 0.5, 0.7, 0.9):
                rec = evaluate_point("Bprime", n, twist, s, "spin")
                ref = closed_form_Bprime(n, twist, s)
                worst = max(worst, relative_difference(rec.sensitivity, ref))
    if worst > 1e-6:
        return f"echo sensitivity vs closed form differs by {worst:.3e}"
    return ""


def check_echo_variance_identity() -> str:
    # The echoed probe keeps its coherent spread along the field generator,
    # 1/2 for Jy / sqrt(N) on a Dicke sector and for P / 2 on the 400-level
    # Fock mode, to each mode's gate.
    cases = [
        (spin_mode(DickeSpace(n)), scheme, twist, s)
        for scheme in ("Bprime", "Cprime")
        for n in (2, 5, 10, 50)
        for twist in (1.0, 4.0, 11.5, 50.0)
        for s in (0.1, 0.3, 0.5, 0.7, 0.9)
    ] + [(fock_mode(FockSpace(400)), "Bprime", 8.0, 0.5)]
    for mode, scheme, twist, s in cases:
        psi = run_pipeline(mode, scheme, twist, s).psi
        gap = abs(sqrt(variance(mode.generators["field"], psi)) - 0.5)
        if gap > mode.spread_tolerance:
            return (
                f"echo readout spread of {scheme} (twist {twist}, s={s}) is "
                f"{gap:.3e} off its coherent value 0.5 "
                f"(gate {mode.spread_tolerance:.1e})"
            )
    return ""


def check_large_n_convergence() -> str:
    target = closed_form("B", 1.0, 0.5)
    errors = []
    for n in (50, 100, 200, 500):
        rec = evaluate_point("B", n, 1.0, 0.5, "spin")
        errors.append(abs(rec.sensitivity - target))
    if not all(a > b for a, b in zip(errors, errors[1:])):
        return f"error sequence not decreasing: {errors}"
    if errors[-1] > 0.05 * target:
        return f"N=500 error {errors[-1]:.3e} above 5% of {target:.5f}"
    return ""


def check_dominance_c_over_b() -> str:
    for twist in (0.1, 0.5, 1.0, 2.0, 5.0):
        b = optimize_t("B", None, twist, "closed_form").best_sensitivity
        c = optimize_t("C", None, twist, "closed_form").best_sensitivity
        if c < b - 1e-9 or b < 1.0 - 1e-9:
            return f"closed-form dominance broken at twist {twist}: C={c}, B={b}"
    for n in (2, 10):
        for twist in (0.3, 1.0, 2.0):
            b = optimize_t("B", n, twist, "spin").best_sensitivity
            c = optimize_t("C", n, twist, "spin").best_sensitivity
            if c < b - 1e-9:
                return f"spin dominance broken at N={n}, twist {twist}: C={c}, B={b}"
    return ""


def check_scheme_c_positive_twist() -> str:
    for n in (2, 10):
        for twist in (0.2, 0.4, 1.0):
            c = optimize_t("C", n, twist, "spin").best_sensitivity
            if c <= 1.0 + 1e-9:
                return (
                    f"concurrent twisting gives no advantage at N={n}, "
                    f"twist {twist}: {c}"
                )
    return ""


def check_moment_oracle_matrix() -> str:
    worst = 0.0
    for n in range(2, 21):
        space = DickeSpace(n)
        plus = plus_state(space).amplitudes
        m = space.m_values()
        jm = np.diag(space.ladder_elements(), 1)
        jm2 = jm @ jm
        for phase in (0.1, 0.3, 1.0):
            direct = complex(
                np.vdot(plus, jm2 @ (np.exp(-2j * phase * m) * plus))
            )
            ref = moment_oracle(n, phase)
            worst = max(
                worst, abs(direct - ref) / max(abs(direct), abs(ref), 1.0)
            )
    if worst > 1e-10:
        return f"moment oracle vs matrix evaluation differs by {worst:.3e}"
    return ""


def check_branch_continuity() -> str:
    at_half = closed_form_optimum("B", 0.5)
    above = exp(2.0 * 0.5 - 1.0) / (2.0 * 0.5)
    if abs(at_half.value - 1.0) > 1e-12 or abs(above - 1.0) > 1e-12:
        return f"optimum branches disagree at twist 0.5: {at_half.value} vs {above}"
    if abs(at_half.t_opt - 1.0) > 1e-12:
        return f"below-threshold optimum should sit at t=1, got {at_half.t_opt}"
    return ""


def check_enhancement_ratio_bounds() -> str:
    for x in np.geomspace(1e-3, 10.0, 60):
        r = enhancement_ratio(float(x))
        if r < 1.0 - 1e-12:
            return f"enhancement ratio {r} below 1 at twist {x}"
    if abs(enhancement_ratio(50.0) - e) > 1e-9:
        return "enhancement ratio does not saturate at e"
    if relative_difference(enhancement_ratio(5.0), e) > 0.01:
        return "enhancement ratio at twist 5 not within 1% of e"
    if relative_difference(enhancement_ratio(1e-3), 1.0) > 1e-3:
        return "enhancement ratio does not approach 1 at weak twist"
    ratio = (
        closed_form_optimum("C", 1.0).value / closed_form_optimum("B", 1.0).value
    )
    if abs(ratio - enhancement_ratio(1.0)) > 1e-12:
        return "enhancement ratio inconsistent with the two optima"
    return ""


def check_full_sensing_closed_form() -> str:
    for x in (0.1, 0.5, 1.0, 3.0, 7.5):
        if abs(closed_form("B", x, 1.0) - 1.0) > 1e-12:
            return f"sequential closed form at full sensing is not 1 (x={x})"
        if abs(closed_form("C", x, 1.0) - 1.0) > 1e-12:
            return f"concurrent closed form at full sensing is not 1 (x={x})"
    return ""


def check_closed_form_optimum_grid() -> str:
    grid = np.linspace(0.0, 1.0, 2001)
    for scheme, twists in (
        ("B", (0.3, 1.0, 2.0)),
        ("C", (0.5, 1.0)),
        ("Bprime", (8.0,)),
        ("Cprime", (8.0,)),
    ):
        for x in twists:
            best = closed_form_optimum(scheme, x)
            dense = max(closed_form(scheme, x, float(s)) for s in grid)
            if best.value < dense - 1e-9:
                return (
                    f"{scheme} optimum {best.value} below dense-grid max {dense} "
                    f"at twist {x}"
                )
            direct = closed_form(scheme, x, best.t_opt)
            if abs(direct - best.value) > 1e-9:
                return (
                    f"{scheme} optimum value {best.value} does not match the curve "
                    f"at t_opt ({direct})"
                )
    return ""


def check_series_limit_c() -> str:
    for s in (0.0, 0.3, 0.7, 1.0):
        if abs(closed_form_c_small_twist(0.0, s) - 1.0) > 1e-15:
            return f"series limit at zero twist is not 1 (s={s})"
        for x in (1e-3, 1e-2):
            gap = abs(closed_form("C", x, s) - closed_form_c_small_twist(x, s))
            if gap > 10.0 * x**3:
                return f"series deviates from closed form by {gap:.3e} at x={x}, s={s}"
    return ""


def check_fock_triangle() -> str:
    space = FockSpace(400)
    points = (
        ("B", 1.0, 0.5),
        ("C", 1.0, 0.2),
        ("Bprime", 8.0, 0.5),
        ("Cprime", 8.0, 0.5),
    )
    for scheme, twist, s in points:
        sim = fock_simulate(scheme, twist, s, space).sensitivity
        ref = closed_form(scheme, twist, s)
        if relative_difference(sim, ref) > 1e-4:
            return (
                f"Fock simulation vs closed form differs at ({scheme}, {twist}, "
                f"{s}): {sim} vs {ref}"
            )
    bench = fock_simulate("A", 0.0, 1.0, FockSpace(16)).sensitivity
    if abs(bench - 1.0) > 1e-9:
        return f"Fock benchmark is {bench}, expected 1"
    return ""


def check_refinement_dominance() -> str:
    cases = (
        ("B", None, 0.3, "closed_form"),
        ("B", None, 2.0, "closed_form"),
        ("C", None, 1.0, "closed_form"),
        ("Bprime", None, 11.0, "closed_form"),
        ("Cprime", None, 5.0, "closed_form"),
        ("B", 10, 1.0, "spin"),
        ("Bprime", 10, 12.0, "spin"),
    )
    for scheme, n, twist, engine in cases:
        result = optimize_t(scheme, n, twist, engine)
        for s in np.linspace(0.0, 1.0, 51):
            v = evaluate_point(scheme, n, twist, float(s), engine).sensitivity
            if result.best_sensitivity < v - 1e-9:
                return (
                    f"optimizer result {result.best_sensitivity} below grid sample "
                    f"{v} at s={s} ({scheme}, {engine})"
                )
    return ""


def check_tie_break_and_boundaries() -> str:
    flat = optimize_t("A", 5, 0.0, "spin")
    if flat.t_opt != 1.0 or flat.boundary != "right_edge":
        return (
            f"flat curve should tie-break to the largest sensing fraction, got "
            f"t_opt={flat.t_opt}, boundary={flat.boundary}"
        )
    left = optimize_t("C", None, 1.0, "closed_form")
    if left.boundary != "left_edge" or left.t_opt != 0.0:
        return f"concurrent optimum should sit at t=0, got {left.t_opt}"
    right = optimize_t("B", None, 0.3, "closed_form")
    if right.boundary != "right_edge" or right.t_opt != 1.0:
        return f"weak-twist optimum should sit at t=1, got {right.t_opt}"
    mid = optimize_t("Bprime", None, 8.0, "closed_form")
    if mid.boundary != "interior" or abs(mid.t_opt - 0.5) > 1e-6:
        return f"echo optimum should sit at t=1/2, got {mid.t_opt}"
    return ""


def check_closed_form_thresholds() -> str:
    cases = (
        ("B", (0.05, 2.0), 0.5),
        ("Bprime", (2.0, 16.0), 8.0),
        ("Cprime", (1.0, 9.0), 4.0),
    )
    for scheme, interval, expected in cases:
        found = find_threshold(scheme, None, "closed_form", interval)
        if abs(found - expected) > 1e-3:
            return f"{scheme} break-even twist {found} differs from {expected}"
    return ""


def check_threshold_monotonicity() -> str:
    small = find_threshold("Bprime", 10, "spin", (9.0, 14.0))
    large = find_threshold("Bprime", 100, "spin", (6.0, 10.0))
    if not small > large:
        return f"threshold should drop with N: N=10 gives {small}, N=100 {large}"
    if not large > 8.0 - 1e-3:
        return f"N=100 threshold {large} fell below the infinite-N value 8"
    return ""


def reference_threshold(
    scheme: str,
    n_spins: int | None,
    engine: str,
    search_interval: tuple[float, float],
    t_grid: int,
) -> float:
    """``find_threshold`` as documented, bisecting on the full ``optimize_t``
    at every step: the reference its staged steps must reproduce exactly."""

    def exceeds(x: float) -> bool:
        best = optimize_t(scheme, n_spins, x, engine, t_grid).best_sensitivity
        return best > 1.0 + BENCHMARK_MARGIN

    lo, hi = float(search_interval[0]), float(search_interval[1])
    if exceeds(lo) or not exceeds(hi):
        raise BracketingError(f"({lo}, {hi}) does not bracket the break-even twist")
    while hi - lo > 1e-3:
        mid = (lo + hi) / 2.0
        if exceeds(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0


def check_staged_threshold() -> str:
    cases = (
        ("B", 30, "spin", (0.4, 0.7)),
        ("Bprime", 20, "spin", (9.0, 10.0)),
        ("Cprime", 10, "spin", (4.5, 5.5)),
        ("B", None, "fock", (0.4, 0.6)),
        ("B", None, "closed_form", (0.05, 2.0)),
        ("Bprime", None, "closed_form", (2.0, 16.0)),
        ("Cprime", None, "closed_form", (1.0, 9.0)),
    )
    for scheme, n, engine, interval in cases:
        staged = find_threshold(scheme, n, engine, interval, t_grid=21)
        reference = reference_threshold(scheme, n, engine, interval, t_grid=21)
        if staged != reference:
            return (
                f"{scheme} ({engine}, N={n}) threshold {staged!r} differs from "
                f"the optimize_t bisection {reference!r}"
            )
    return ""


def check_t_opt_convergence() -> str:
    # Convergence of the optimal sensing fraction slows as the twist grows
    # (stronger squeezing probes the curvature of the finite sphere), so
    # assert the monotone approach plus a twist-dependent band at N = 500.
    for twist, band in ((1.0, 0.02), (2.0, 0.15)):
        limit = closed_form_optimum("B", twist)
        gaps = [
            abs(optimize_t("B", n, twist, "spin").t_opt - limit.t_opt)
            for n in (100, 200, 500)
        ]
        if not gaps[0] > gaps[1] > gaps[2]:
            return (
                f"optimal sensing fraction is not converging with N at twist "
                f"{twist}: gaps {gaps}"
            )
        if gaps[-1] > band:
            return (
                f"N=500 optimal sensing fraction differs from the infinite-N "
                f"value {limit.t_opt} by {gaps[-1]} at twist {twist}"
            )
    return ""


def check_cli_determinism() -> str:
    from . import cli as _cli  # deferred: cli imports this module

    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp) / f"run{i}.csv") for i in (1, 2)]
        argv = [
            "sweep", "--scheme", "B", "--n", "6", "--twist", "1.0", "3.0",
            "--t-points", "21", "--engine", "spin",
        ]
        for path in paths:
            code = _cli.main(argv + ["--out", path])
            if code != 0:
                return f"sweep exited with {code}"
        blobs = [Path(p).read_bytes() for p in paths]
        if blobs[0] != blobs[1]:
            return "repeated identical sweeps produced different bytes"
        json_paths = [str(Path(tmp) / f"opt{i}.json") for i in (1, 2)]
        argv = ["optimize", "--scheme", "C", "--twist", "1.0", "--engine",
                "closed_form"]
        for path in json_paths:
            code = _cli.main(argv + ["--out", path])
            if code != 0:
                return f"optimize exited with {code}"
        if Path(json_paths[0]).read_bytes() != Path(json_paths[1]).read_bytes():
            return "repeated identical optimizations produced different bytes"
    return ""


def check_cli_csv_schema() -> str:
    from . import cli as _cli  # deferred: cli imports this module

    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "curve.csv")
        code = _cli.main(
            ["sweep", "--scheme", "Bprime", "--n", "4", "--twist", "9.0",
             "--t-points", "5", "--out", path]
        )
        if code != 0:
            return f"sweep exited with {code}"
        lines = Path(path).read_text().splitlines()
        header = "scheme,n_spins,twist_times_tau,t_over_tau,sensitivity,method,engine"
        if lines[0] != header:
            return f"unexpected CSV header {lines[0]!r}"
        sample = lines[2].split(",")
        value = float(sample[4])
        if sample[4] != format(value, ".12g"):
            return f"sensitivity field {sample[4]!r} is not 12-significant-digit"
    return ""


CHECKS: tuple[tuple[str, object], ...] = (
    ("spin_core.su2_commutators", check_su2_commutators),
    ("spin_core.casimir", check_casimir),
    ("spin_core.propagator_unitarity", check_propagator_unitarity),
    ("spin_core.propagator_composition", check_propagator_composition),
    ("spin_core.derivative_vs_finite_difference", check_derivative_vs_finite_difference),
    ("spin_core.mirror_split", check_mirror_split),
    ("protocols.full_sensing_reduction", check_full_sensing_reduction),
    ("protocols.zero_twist_reduction", check_zero_twist_reduction),
    ("protocols.single_spin_degeneracy", check_single_spin_degeneracy),
    ("protocols.echo_cancellation", check_echo_cancellation),
    ("protocols.dimensionless_scaling", check_dimensionless_scaling),
    ("protocols.dense_reference", check_dense_reference),
    ("metrology.benchmark_scheme_a", check_benchmark_scheme_a),
    ("metrology.qfi_bounds", check_qfi_bounds),
    ("metrology.echo_matches_closed_form", check_echo_matches_closed_form),
    ("metrology.echo_variance_identity", check_echo_variance_identity),
    ("metrology.large_n_convergence", check_large_n_convergence),
    ("metrology.dominance_c_over_b", check_dominance_c_over_b),
    ("metrology.scheme_c_positive_twist", check_scheme_c_positive_twist),
    ("metrology.moment_oracle_matrix", check_moment_oracle_matrix),
    ("bosonic.branch_continuity", check_branch_continuity),
    ("bosonic.enhancement_ratio_bounds", check_enhancement_ratio_bounds),
    ("bosonic.full_sensing_closed_form", check_full_sensing_closed_form),
    ("bosonic.closed_form_optimum_grid", check_closed_form_optimum_grid),
    ("bosonic.series_limit_c", check_series_limit_c),
    ("bosonic.fock_triangle", check_fock_triangle),
    ("sweep.refinement_dominance", check_refinement_dominance),
    ("sweep.tie_break_and_boundaries", check_tie_break_and_boundaries),
    ("sweep.closed_form_thresholds", check_closed_form_thresholds),
    ("sweep.threshold_monotonicity", check_threshold_monotonicity),
    ("sweep.staged_threshold", check_staged_threshold),
    ("sweep.t_opt_convergence", check_t_opt_convergence),
    ("cli.determinism", check_cli_determinism),
    ("cli.csv_schema", check_cli_csv_schema),
)


def run_validation(only: str | None = None, stream=None) -> int:
    """Run the named checks, print one line each, return a process code."""
    import sys

    out = stream if stream is not None else sys.stdout
    selected = [
        (name, fn) for name, fn in CHECKS if only is None or only in name
    ]
    if not selected:
        print(f"no checks match {only!r}", file=out)
        return 2
    failures = 0
    for name, fn in selected:
        try:
            detail = fn()
        except Exception as exc:  # a crashing check is a failing check
            detail = f"raised {type(exc).__name__}: {exc}"
        if detail:
            failures += 1
            print(f"FAIL {name}: {detail}", file=out)
        else:
            print(f"PASS {name}", file=out)
    print(
        f"{len(selected) - failures}/{len(selected)} checks passed",
        file=out,
    )
    return 0 if failures == 0 else 1
