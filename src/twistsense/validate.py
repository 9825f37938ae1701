"""Runtime invariant battery behind the ``validate`` subcommand.

Every library-level invariant has a named check here: operator algebra,
propagator exactness, protocol reductions, figure-of-merit identities,
closed-form consistency, optimizer guarantees, and CLI determinism. Checks
are pure and deterministic (randomized batteries use fixed seeds); the
runner prints one PASS or FAIL line per check and reports failure through
the exit code. A check raising is reported as FAIL with the exception. A
check over a list of inputs is stated for one input and decorated with
``over`` its cases, so the tests can run each case as its own test.
"""

from __future__ import annotations

import csv
import json
import re
import tempfile
from collections.abc import Callable, Iterable
from contextlib import redirect_stdout
from functools import partial
from io import StringIO
from itertools import product
from math import e, exp, ldexp, sqrt
from pathlib import Path
from typing import NamedTuple

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
from .metrology import (
    closed_form_Bprime,
    closed_form_Cprime,
    moment_oracle,
    qfi,
    relative_difference,
)
from .protocols import SCHEMES, SHAPES, run_pipeline, spin_mode
from .spin_core import (
    NEAR_GAP,
    BandedOperator,
    DickeSpace,
    StateVector,
    _in_eigenbasis,
    apply_generator,
    propagate,
    propagate_with_derivative,
    variance,
)
from .sweep_optimize import (
    BENCHMARK_MARGIN,
    SweepSpec,
    _curve,
    _optimize,
    evaluate_point,
    find_threshold,
    optimize_t,
    sweep_curve,
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


def random_banded_hermitian(
    rng: np.random.Generator, dim: int, zero_diagonal: bool = False, band: bool = True
) -> BandedOperator:
    """A Gaussian real diagonal and one complex Gaussian band at a random
    offset 1 <= b < dim: the shape of operator a propagation accepts. With
    ``zero_diagonal`` every chain is bipartite and takes the SVD; without
    ``band`` the operator is its diagonal alone, propagated by phases."""
    b = int(rng.integers(1, dim))
    upper = rng.standard_normal(dim - b) + 1j * rng.standard_normal(dim - b)
    diagonal = None if zero_diagonal else rng.standard_normal(dim)
    return BandedOperator.hermitian(dim, {b: upper} if band else {}, diagonal)


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(raw / np.linalg.norm(raw))


class CollectiveOperators(NamedTuple):
    Jx: BandedOperator
    Jy: BandedOperator
    Jz: BandedOperator


def collective_operators(space: DickeSpace) -> CollectiveOperators:
    """Collective spin operators on the Dicke sector of ``space``, in the
    ladder convention J+|j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>, Jz|j,m> =
    m|j,m>, Jx = (J+ + J-)/2, Jy = (J+ - J-)/(2i)."""
    d = space.dim
    # <m+1| J+ |m> sits below the diagonal (storage is ascending m).
    off = space.ladder_elements()
    return CollectiveOperators(
        Jx=BandedOperator.hermitian(d, {1: off / 2}),
        Jy=BandedOperator.hermitian(d, {1: 0.5j * off}),
        Jz=BandedOperator.hermitian(d, {}, diagonal=space.m_values()),
    )


def plus_state(space: DickeSpace) -> StateVector:
    """The maximal Jx eigenstate, all spins along +x.

    The amplitude at index k is sqrt(C(N, k) / 2^N). The binomials are exact
    integers and each amplitude is formed as sqrt(f) 2^((e - N) / 2) from
    the correctly rounded f = C(N, k) / 2^e in [0.5, 2), so it is good to
    about one ulp at any N; a log-gamma form loses about 1e-12 relative at
    N = 2000 to the cancellation of logs near 1e4.
    """
    n = space.n_spins
    amps = np.empty(space.dim)
    binomial = 1
    for k in range(space.dim):
        e = binomial.bit_length()
        e -= (e - n) % 2
        amps[k] = ldexp(sqrt(binomial / (1 << e)), (e - n) // 2)
        binomial = binomial * (n - k) // (k + 1)
    return StateVector(amps)


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


def one_axis_frame(n_spins: int) -> np.ndarray:
    """The dense R = exp(i (pi / 2) Jy) = exp(-i (-(pi / 2) sqrt(N)) G) of a
    Dicke sector, G = Jy / sqrt(N): the map R psi of a Jz-basis state into
    the frame where ``spin_mode`` writes the one-axis twist as a diagonal."""
    field = reference_generators(DickeSpace(n_spins).ladder_elements(), n_spins)["field"]
    return dense_propagator(field, -0.5 * np.pi * sqrt(n_spins))


def reference_gaps(scheme, n_spins, twist, s) -> tuple[float, float]:
    """max |psi - psi_ref| of ``run_pipeline`` at zero field, and its
    |dpsi - fd| / max(|dpsi|, 1) against the reference's finite difference
    in the field. ``n_spins`` None is a 160-level Fock mode. The reference
    is in the Jz basis; a one-axis scheme on a Dicke sector runs in the
    twist's frame, so its reference is mapped there by ``one_axis_frame``."""
    if n_spins is None:
        mode, lowering, norm = fock_mode(FockSpace(160)), np.sqrt(np.arange(1, 160)), 1
    else:
        space = DickeSpace(n_spins)
        mode, lowering, norm = spin_mode(space), space.ladder_elements(), n_spins
    state = run_pipeline(mode, scheme, twist, s)
    dpsi = state.dpsi.amplitudes
    z_basis = partial(reference_state, lowering, norm, scheme, twist, s)
    ref = z_basis
    if n_spins is not None and SHAPES[scheme][0] == "oat":
        frame = one_axis_frame(n_spins)

        def ref(w):
            return frame @ z_basis(w)

    fd = richardson_derivative(ref)
    return (
        np.abs(state.psi.amplitudes - ref(0.0)).max(),
        np.linalg.norm(dpsi - fd) / max(np.linalg.norm(dpsi), 1.0),
    )


class Cases(NamedTuple):
    """A check stated for one case, with the cases it must hold on.

    Called, it runs the cases in order and returns the first failure, so
    ``validate`` reports it as one check; the tests run each case as a
    test of its own."""

    one: Callable[..., str]
    cases: tuple[tuple, ...]

    def __call__(self) -> str:
        for case in self.cases:
            detail = self.one(*case)
            if detail:
                return detail
        return ""


def over(cases: Iterable[tuple]) -> Callable[[Callable[..., str]], Cases]:
    """Decorate a check of one case (its arguments) into a check of all."""
    cases = tuple(cases)
    return lambda one: Cases(one, cases)


@over((n,) for n in range(1, 51))
def check_su2_commutators(n: int) -> str:
    space = DickeSpace(n)
    ops = collective_operators(space)
    jx, jy, jz = ops.Jx.matrix, ops.Jy.matrix, ops.Jz.matrix
    # Jx + i Jy is the raising operator, which sits below the diagonal.
    if np.any(jx + 1j * jy != np.diag(space.ladder_elements(), -1)):
        return f"Jx + i Jy differs from J+ (N={n})"
    worst = max(
        np.abs(a @ b - b @ a - 1j * c).max()
        for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy))
    )
    if worst > 1e-12:
        return f"commutator defect {worst:.3e} exceeds 1e-12 (N={n})"
    return ""


@over((n,) for n in range(1, 51))
def check_casimir(n: int) -> str:
    space = DickeSpace(n)
    ops = collective_operators(space)
    total = (
        ops.Jx.matrix @ ops.Jx.matrix
        + ops.Jy.matrix @ ops.Jy.matrix
        + ops.Jz.matrix @ ops.Jz.matrix
    )
    expected = space.j * (space.j + 1) * np.eye(space.dim)
    worst = np.abs(total - expected).max()
    if worst > 1e-10:
        return f"Casimir defect {worst:.3e} exceeds 1e-10 (N={n})"
    return ""


# Each case is a seeded draw: (seed, cases, dimension range, largest
# |duration|, zero diagonal), the last through the bipartite SVD.
@over((
    (20240311, 25, (2, 31), 3.0, False),
    (42, 20, (2, 40), 4.0, False),
    (20240312, 25, (2, 31), 3.0, True),
))
def check_propagator_unitarity(seed, cases, dims, reach, zero_diagonal) -> str:
    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(*dims))
        H = random_banded_hermitian(rng, dim, zero_diagonal)
        psi = random_state(rng, dim)
        duration = float(rng.uniform(-reach, reach))
        worst = max(worst, abs(propagate(H, duration, psi).norm - 1.0))
    if worst > 1e-10:
        return f"propagated norm drifts by {worst:.3e} > 1e-10 (seed {seed})"
    return ""


# Each case is a seeded draw: (seed, cases, zero diagonal).
@over(((987, 15, False), (7, 12, False), (988, 15, True)))
def check_propagator_composition(seed, cases, zero_diagonal) -> str:
    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(2, 25))
        H = random_banded_hermitian(rng, dim, zero_diagonal)
        psi = random_state(rng, dim)
        t1 = float(rng.uniform(0.0, 2.0))
        t2 = float(rng.uniform(0.0, 2.0))
        joint = propagate(H, t1 + t2, psi)
        stepped = propagate(H, t2, propagate(H, t1, psi))
        worst = max(worst, np.abs(joint.amplitudes - stepped.amplitudes).max())
    if worst > 1e-9:
        return f"composition defect {worst:.3e} exceeds 1e-9 (seed {seed})"
    return ""


# Each case is a seeded draw: (seed, cases, dimension range, duration range,
# zero diagonal, and, last, a diagonal H0 with no band, whose derivative
# weights every band of a dense G). phi stays a unit vector and, so,
# Re <phi|dphi> = 0.
@over((
    (1234, 20, (3, 22), (0.2, 1.5), False),
    (2026, 50, (2, 22), (0.1, 2.0), False),
    (2027, 10, (2, 22), (0.1, 2.0), True),
    (2028, 20, (2, 22), (0.1, 2.0), False, False),
))
def check_derivative_vs_finite_difference(
    seed, cases, dims, durations, zero_diagonal, band=True
) -> str:
    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(*dims))
        H0 = random_banded_hermitian(rng, dim, zero_diagonal, band)
        G = banded(random_hermitian(rng, dim))
        psi = random_state(rng, dim)
        duration = float(rng.uniform(*durations))
        phi, along_angle = propagate_with_derivative(H0, G, duration, psi)
        drift = abs(phi.norm - 1.0)
        cross = abs(np.vdot(phi.amplitudes, along_angle.amplitudes).real)
        if drift > 1e-10 or cross > 1e-8:
            return (
                f"|phi| - 1 = {drift:.3e} (gate 1e-10), Re <phi|dphi> = "
                f"{cross:.3e} (gate 1e-8) at dim {dim} (seed {seed})"
            )
        # That derivative is along the field angle w * duration.
        dphi = duration * along_angle.amplitudes

        fd = richardson_derivative(
            lambda w: dense_propagator(H0.matrix + w * G.matrix, duration)
            @ psi.amplitudes
        )
        err = np.linalg.norm(dphi - fd) / max(np.linalg.norm(dphi), 1.0)
        worst = max(worst, err)
    if worst > 1e-6:
        return (
            f"derivative vs finite difference error {worst:.3e} > 1e-6 "
            f"(seed {seed})"
        )
    return ""


def check_mirror_split() -> str:
    # A chain of a Dicke generator that is its own mirror image is solved and
    # kept as two halves, a half with a zero diagonal through its bipartite
    # SVD, any other by one eigh: each must reproduce a dense eigh of the
    # same real tridiagonal matrix. An even-length chain solves one half and
    # keeps the other as its mirror image: the field chain at odd N, the
    # two-axis odd chain at N = 0 mod 4 and the probe's own chain at
    # N = 2 mod 4 (302 elements at N = 602). The Fock chains have no mirror
    # symmetry, so they are kept whole, their two-axis chains take the SVD
    # whole and their one-axis chains, with a diagonal, one eigh. The
    # vectors are read as synthesize of the identity, phases included, so
    # the folded and the whole chains are checked alike. A Dicke sector's
    # one-axis twist must be diagonal in its frame, with no chain to solve.
    for n in (1, 2, 3, 4, 5, 8, 9, 40, 41, 201, 600, 602):
        if spin_mode(DickeSpace(n)).generators["oat"].diagonal is None:
            return f"N={n}: the one-axis twist is not diagonal"
    generators = [
        (f"N={n} {kind}", spin_mode(DickeSpace(n)).generators[kind])
        for n in (1, 2, 3, 4, 5, 8, 9, 40, 41, 201, 600, 602)
        for kind in ("tat", "field")
    ] + [
        (f"Fock 400 {kind}", fock_mode(FockSpace(400)).generators[kind])
        for kind in ("tat", "oat", "field")
    ]
    for name, H in generators:
        fresh = BandedOperator(H.dim, H.bands)
        b = fresh.stride
        diagonal = H.bands[0].real if 0 in H.bands else np.zeros(H.dim)
        for r in range(b):
            chain = fresh.chain(r)
            off = np.abs(H.bands[b][r::b])
            tridiagonal = np.diag(diagonal[r::b])
            i = np.arange(len(off))
            tridiagonal[i, i + 1] = tridiagonal[i + 1, i] = off
            dense = np.linalg.eigh(tridiagonal)[0]
            values = chain.values
            vectors = chain.synthesize(np.eye(len(values)))
            where = f"{name} chain {r}"
            gap = np.abs(np.sort(values) - dense).max()
            if gap > 1e-12 * np.abs(dense).max():
                return f"{where}: eigenvalues differ from eigh by {gap:.3e}"
            block = H.matrix[r::b, r::b]
            residual = np.abs(block @ vectors - vectors * values).max()
            if residual > 1e-12:
                return f"{where}: max |HV - V Lambda| = {residual:.3e}"
            defect = np.abs(vectors.conj().T @ vectors - np.eye(len(values))).max()
            if defect > 1e-12:
                return f"{where}: max |V^dag V - I| = {defect:.3e}"
    return ""


# Every chain shape of the real two-axis rotation at production size: at
# N = 1000 the probe's chain is a mirror chain of odd length (pairs within
# each half) and the field image's one of even length (pairs across the
# halves); N = 1002 swaps them; at N = 1001 and on the 400-level Fock mode
# (n_spins None) each chain is whole.
@over([(1000,), (1001,), (1002,), (None,)])
def check_real_rotation(n: int | None) -> str:
    # A real state under the two-axis twist is turned in real arithmetic
    # (``Chain.rotate``); the same state given as complex amplitudes takes
    # the complex eigen-form propagation. The two must agree, on the probe
    # and on its normalized field image, at twists of either sign.
    mode = fock_mode(FockSpace(400)) if n is None else spin_mode(DickeSpace(n))
    H, G, probe = mode.generators["tat"], mode.generators["field"], mode.probes["tat"]
    image = apply_generator(G, probe, 1.0).amplitudes
    angles = np.array([-1.3, 0.05, 0.5, 1.0, 2.5, 8.0])
    for start in (probe.amplitudes, image / np.linalg.norm(image)):
        real = propagate(H, angles, StateVector(start)).amplitudes
        reference = propagate(H, angles, StateVector(start.astype(complex))).amplitudes
        if real.dtype != float or reference.dtype != complex:
            return f"N={n}: the real rotation was not taken ({real.dtype}, {reference.dtype})"
        gap = np.abs(real - reference).max()
        if gap > 1e-13:
            return f"N={n}: real rotation off the complex propagation by {gap:.3e} (gate 1e-13)"
    return ""


# The chain shapes D joins: whole parity chains (N = 11), bipartite mirror
# halves and a derived mirror-odd half (N = 200: 101 and 100 elements; 202:
# 102 and 101) and the whole Fock chains (n_spins None, 400 levels), of
# the two-axis twist and, on the Fock mode, of the one-axis twist; a
# Dicke sector's one-axis twist is diagonal and has no chains to join.
@over([(11,), (200,), (202,), (None,)])
def check_coupling_blocks(n: int | None) -> str:
    # For a state on parity chain q, the field derivative builds the blocks
    # (r, q) that carry it into other chains, from the field's bands: the
    # field flips parity, so there must be exactly the one with its rows on
    # chain 1 - q. Each must match the dense V_r^dag G V_q divided by the
    # gaps, with zeros and the listed couplings on the near pairs; one-axis
    # blocks are purely imaginary. An input confined to one parity chain
    # must give phi exactly 0 on the other and dphi exactly 0 on its own.
    mode = fock_mode(FockSpace(400)) if n is None else spin_mode(DickeSpace(n))
    G = mode.generators["field"]
    dense = G.matrix
    angles = np.array([0.0, 0.3, 1.0])
    for kind in ("tat", "oat") if n is None else ("tat",):
        H = mode.generators[kind]
        for q in (0, 1):
            r = 1 - q
            where = f"N={n} {kind} block ({r}, {q})"
            blocks = _in_eigenbasis(H, G, q)
            if list(blocks) != [r]:
                return f"{where}: blocks with rows on chains {sorted(blocks)}, expected [{r}]"
            row, col = H.chain(r), H.chain(q)
            v_row = row.synthesize(np.eye(len(row.values)))
            v_col = col.synthesize(np.eye(len(col.values)))
            reference = v_row.conj().T @ dense[r::2, q::2] @ v_col
            gaps = np.subtract.outer(row.values, col.values)
            near = np.abs(gaps) <= NEAR_GAP * max(row.largest, col.largest)
            block = blocks[r]
            expected = np.where(near, 0.0, reference / np.where(near, 1.0, gaps))
            if block.divided.shape != expected.shape:
                return f"{where}: D has shape {block.divided.shape}, expected {expected.shape}"
            if not np.array_equal(np.nonzero(near), (block.rows, block.cols)):
                return f"{where}: near pairs differ from the dense gaps"
            if np.any(block.divided[near]):
                return f"{where}: D is nonzero on a near pair"
            for name, got, want in (
                ("D", block.divided, expected), ("coupling", block.coupling, reference[near]),
            ):
                err = np.abs(got - want).max(initial=0.0) / np.abs(want).max(initial=1.0)
                if err > 1e-13:
                    return (
                        f"{where}: {name} off the dense reference by {err:.3e} "
                        "relative (gate 1e-13)"
                    )
            if kind == "oat" and block.divided.real.any():
                return f"{where}: one-axis D has a nonzero real part"
        for r in (0, 1):
            start = np.zeros(G.dim)
            start[r::2] = np.random.default_rng(r).standard_normal(len(range(r, G.dim, 2)))
            psi = StateVector(start / np.linalg.norm(start))
            phi, dphi = propagate_with_derivative(H, G, angles, psi)
            if phi.amplitudes[1 - r :: 2].any() or dphi.amplitudes[r::2].any():
                return f"N={n} {kind}: an input on chain {r} leaks out of its parity pattern"
    return ""


@over((n,) for n in (1, 2, 7, 10, 50))
def check_full_sensing_reduction(n: int) -> str:
    # With all the time spent sensing, B and C never twist: psi and dpsi
    # are scheme A's.
    mode = spin_mode(DickeSpace(n))
    ref = run_pipeline(mode, "A", 0.0, 1.0)
    for scheme in ("B", "C"):
        for twist in (0.7, 2.0):
            state = run_pipeline(mode, scheme, twist, 1.0)
            dev = max(
                np.abs(state.psi.amplitudes - ref.psi.amplitudes).max(),
                np.abs(state.dpsi.amplitudes - ref.dpsi.amplitudes).max(),
            )
            if dev > 1e-12:
                return (
                    f"{scheme} at full sensing differs from A "
                    f"(N={n}, twist {twist}, dev={dev:.3e})"
                )
    return ""


@over((n,) for n in (1, 2, 6, 10, 50))
def check_zero_twist_reduction(n: int) -> str:
    # Without twisting every scheme keeps its probe psi0, as scheme A does,
    # and its derivative is -i exposure G psi0: the field is felt for the
    # sensing window s in B and Bprime, the whole budget in C and Cprime
    # (and A).
    mode = spin_mode(DickeSpace(n))
    for scheme in SCHEMES:
        psi0 = mode.probes[SHAPES[scheme][0]].amplitudes
        kick = -1j * mode.generators["field"].matvec(psi0)
        for s in (0.0, 0.3, 0.35, 0.4, 0.8, 1.0):
            state = run_pipeline(mode, scheme, 0.0, s)
            exposure = s if scheme in ("B", "Bprime") else 1.0
            dev = max(
                np.abs(state.psi.amplitudes - psi0).max(),
                np.abs(state.dpsi.amplitudes - exposure * kick).max(),
            )
            if dev > 1e-12:
                return (
                    f"{scheme} at zero twist is not (psi0, -i exposure G psi0) "
                    f"(N={n}, s={s}, dev={dev:.3e})"
                )
    return ""


def check_single_spin_degeneracy() -> str:
    # One spin never twists (tat = 0, oat = I/4): C and Cprime sense for the
    # whole budget from their probes, B and Bprime give (psi0, -i s G psi0).
    mode = spin_mode(DickeSpace(1))
    for scheme in ("C", "Cprime", "B", "Bprime"):
        psi0 = mode.probes[SHAPES[scheme][0]].amplitudes
        kick = -1j * mode.generators["field"].matvec(psi0)
        for s in (0.0, 0.4, 1.0):
            state = run_pipeline(mode, scheme, 3.0, s)
            got = (state.psi.amplitudes, state.dpsi.amplitudes)
            expected = (psi0, (1.0 if "C" in scheme else s) * kick)
            dev = max(np.abs(a - b).max() for a, b in zip(got, expected))
            if dev > 1e-10:
                return f"{scheme} on a single spin deviates by {dev:.3e} (s={s})"
    return ""


@over(
    [
        (scheme, n, twist, s)
        for scheme in ("Bprime", "Cprime")
        for n, twist, s in product((2, 10, 60), (5.0, 50.0), (0.0, 0.4, 0.9))
    ]
    + [("Bprime", 14, 3.0, 0.4), ("Cprime", 14, 3.0, 0.4), ("Bprime", 10, 4.0, 0.2)]
)
def check_echo_cancellation(scheme: str, n: int, twist: float, s: float) -> str:
    # At zero field the untwist undoes the twist, through the same phases
    # taken at the opposite angles, so the echo returns the probe to
    # rounding.
    mode = spin_mode(DickeSpace(n))
    psi = run_pipeline(mode, scheme, twist, s).psi
    dev = np.abs(psi.amplitudes - mode.probes["oat"].amplitudes).max()
    if dev > 1e-13:
        return (
            f"{scheme} echo fails to cancel at N={n}, twist={twist}, s={s} "
            f"(dev={dev:.3e})"
        )
    return ""


def check_dimensionless_scaling() -> str:
    # A strength x is only a factor on the angle: exp(-i d (x H)) equals
    # exp(-i (x d) H), the identity the unit-strength generators rely on.
    for n in (3, 12):
        mode = spin_mode(DickeSpace(n))
        for kind in ("tat", "oat"):
            H, psi0 = mode.generators[kind], mode.probes[kind]
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


# Every scheme at six spin points, one scheme at each of five more, then
# the five schemes on the 160-level Fock mode (n_spins None) at twists its
# truncation holds.
@over(
    [
        (scheme, *point)
        for point in ((1, 3.0, 0.4), (8, 6.0, 0.4), (12, 2.0, 0.3),
                      (10, 11.0, 0.6), (21, 1.5, 0.0), (9, 4.0, 0.25))
        for scheme in SCHEMES
    ]
    + [("A", 5, 0.0, 0.5), ("B", 8, 1.5, 0.4), ("C", 12, 2.0, 0.3),
       ("Bprime", 9, 6.0, 0.6), ("Cprime", 11, 4.0, 0.25),
       ("A", None, 0.0, 0.5), ("B", None, 0.5, 0.4), ("C", None, 0.5, 0.3),
       ("Bprime", None, 4.0, 0.6), ("Cprime", None, 4.0, 0.25)]
)
def check_dense_reference(scheme: str, n: int | None, twist: float, s: float) -> str:
    psi_gap, dpsi_gap = reference_gaps(scheme, n, twist, s)
    if psi_gap > 1e-12 or dpsi_gap > 1e-6:
        return (
            f"{(scheme, n, twist, s)}: psi off the reference by {psi_gap:.3e} "
            f"(gate 1e-12), dpsi off its finite difference by {dpsi_gap:.3e} "
            f"(gate 1e-6)"
        )
    return ""


@over((n,) for n in (1, 2, 3, 4, 5, 6, 41, 100))
def check_one_axis_frame(n: int) -> str:
    # The one-axis schemes of a Dicke sector run in the frame R psi,
    # R = exp(i (pi / 2) Jy) (``one_axis_frame``, a dense eigh of the field):
    # R must carry the dense Jz-basis one-axis twist Jx^2 / N onto the mode's
    # diagonal one, leave the field generator as it is, and take |j, -j> to
    # the mode's one-axis probe, all to roundoff: 1e-15 N on the matrices,
    # whose dense eigh errors grow with N (3.3e-14 at N = 100), 1e-14 on
    # the probe.
    mode = spin_mode(DickeSpace(n))
    dense = reference_generators(DickeSpace(n).ladder_elements(), n)
    R = one_axis_frame(n)
    for what, got, want, gate in (
        ("one-axis twist", mode.generators["oat"].matrix, R @ dense["oat"] @ R.conj().T, 1e-15 * n),
        ("field", mode.generators["field"].matrix, R @ dense["field"] @ R.conj().T, 1e-15 * n),
        ("probe", mode.probes["oat"].amplitudes, R[:, 0], 1e-14),
    ):
        gap = np.abs(got - want).max()
        if not gap <= gate:
            return f"N={n}: the frame's {what} is off R's image by {gap:.3e} (gate {gate:.0e})"
    return ""


@over(
    [
        *((n,) for n in (*range(1, 101), 128)),
        *product((1, 2, 17, 128), (0.0, 0.3)),
    ]
)
def check_benchmark_scheme_a(n: int, s: float = 1.0) -> str:
    rec = evaluate_point("A", n, 0.0, s, "spin")
    if (rec.sensitivity, rec.method) != (1.0, "qfi"):
        return (
            f"separable benchmark reads {rec.sensitivity!r} by {rec.method}, "
            f"not exactly 1.0 by qfi (N={n}, s={s})"
        )
    return ""


def check_qfi_bounds() -> str:
    # 0 <= F <= 4<dpsi|dpsi>, and the Heisenberg bound sqrt(F) <= e sqrt(N):
    # the field generator Jy / sqrt(N) has norm sqrt(N) / 2 and acts for
    # e = s of the budget in scheme B, all of it in A and C. A NaN fails.
    ts = np.linspace(0.0, 1.0, 11)
    for scheme, n, twist in product("ABC", (1, 2, 6, 15, 20, 40), (0.0, 0.5, 1.0, 2.0, 3.0, 6.0)):
        state = run_pipeline(spin_mode(DickeSpace(n)), scheme, twist, ts)
        grad2 = (np.abs(state.dpsi.amplitudes) ** 2).sum(axis=0)
        for s, f_val, g in zip(ts, qfi(state), grad2):
            bound = (s if scheme == "B" else 1.0) * sqrt(n) * (1.0 + 1e-12)
            if not (0.0 <= f_val <= 4.0 * g + 1e-12 and sqrt(f_val) <= bound):
                return (
                    f"{scheme} (N={n}, twist {twist}, s={s}): F={f_val} is outside "
                    f"[0, 4<d|d> = {4 * g}] or sqrt(F) above e sqrt(N) = {bound}"
                )
    return ""


# Each echo on a grid of small N, then at N = 2000, 2001 and 10^4. The
# spin route's error grows with its phases, about 7e-18 N x relative at
# most (floor 1), measured on 11-point curves at N = 2000-10^5 and x =
# 0.5-30: 4.1e-13 at N = 10^4 and 5.3e-12 at N = 10^5 (x = 8). Up to
# N = 4000 the gate is 1e-10; above it, 2e-17 N x.
@over(
    [
        *product((2, 5, 10, 50), (1.0, 4.0, 11.5, 50.0), (0.1, 0.3, 0.5, 0.7, 0.9)),
        *product((2, 5, 12, 40), (0.5, 3.0, 10.0), (0.1, 0.5, 0.9)),
    ]
    + [
        (*point, "Cprime")
        for point in (
            *product((1, 2, 5, 10, 50), (1.0, 4.0, 11.5, 50.0), (0.0, 0.1, 0.5, 0.9)),
            *product((41, 301), (0.5, 8.0, 200.0), (0.1, 0.5, 0.9)),
        )
    ]
    + [
        (*point, scheme)
        for scheme in ("Bprime", "Cprime")
        for point in product((2000, 2001, 10_000), (0.5, 8.0, 30.0), (0.1, 0.5, 0.9))
    ]
)
def check_echo_matches_closed_form(n: int, twist: float, s: float, scheme="Bprime") -> str:
    rec = evaluate_point(scheme, n, twist, s, "spin")
    exact = (closed_form_Bprime if scheme == "Bprime" else closed_form_Cprime)(n, twist, s)
    gap = relative_difference(rec.sensitivity, exact)
    gate = 1e-10 if n <= 4000 else 2e-17 * n * twist
    if gap > gate:
        return (
            f"{scheme} echo sensitivity vs closed form differs by {gap:.3e} "
            f"(gate {gate:.1e}; N={n}, twist {twist}, s={s})"
        )
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
        b, c = (closed_form_optimum(scheme, twist).value for scheme in "BC")
        if c < b:
            return f"closed-form optima out of order at twist {twist}: C={c}, B={b}"
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


@over((n,) for n in range(2, 22))
def check_moment_oracle_matrix(n: int) -> str:
    space = DickeSpace(n)
    plus = plus_state(space).amplitudes
    m = space.m_values()
    jm = np.diag(space.ladder_elements(), 1)
    jm2 = jm @ jm
    worst = 0.0
    for phase in (0.0, 0.1, 0.3, 1.0, 1.2, np.pi / 2):
        direct = complex(np.vdot(plus, jm2 @ (np.exp(-2j * phase * m) * plus)))
        ref = moment_oracle(n, phase)
        worst = max(worst, abs(direct - ref) / max(abs(ref), 1.0))
    if worst > 1e-10:
        return f"moment oracle vs matrix evaluation differs by {worst:.3e} (N={n})"
    return ""


def check_branch_continuity() -> str:
    for name, f in (
        ("sequential optimum", lambda x: closed_form_optimum("B", x).value),
        ("enhancement ratio", enhancement_ratio),
    ):
        jump = abs(f(0.5 - 1e-12) - f(0.5 + 1e-12))
        if jump > 1e-9:
            return f"{name} jumps by {jump:.3e} across twist 0.5"
    at_half = closed_form_optimum("B", 0.5)
    above = exp(2.0 * 0.5 - 1.0) / (2.0 * 0.5)
    if abs(at_half.value - 1.0) > 1e-12 or abs(above - 1.0) > 1e-12:
        return f"optimum branches disagree at twist 0.5: {at_half.value} vs {above}"
    if abs(at_half.t_opt - 1.0) > 1e-12:
        return f"below-threshold optimum should sit at t=1, got {at_half.t_opt}"
    return ""


def check_enhancement_ratio_bounds() -> str:
    twists = np.union1d(np.geomspace(1e-3, 10.0, 60), np.linspace(0.05, 12.0, 120))
    ratios = [enhancement_ratio(float(x)) for x in twists]
    for x, r in zip(twists, ratios):
        if not 1.0 < r < e:
            return f"enhancement ratio {r} outside (1, e) at twist {x}"
    if not all(a < b for a, b in zip(ratios, ratios[1:])):
        return "enhancement ratio does not grow with the twist"
    if abs(enhancement_ratio(50.0) - e) > 1e-9:
        return "enhancement ratio does not saturate at e"
    if relative_difference(enhancement_ratio(30.0), e) > 1e-12:
        return "enhancement ratio at twist 30 not within 1e-12 of e"
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


@over((s,) for s in (0.0, 0.25, 0.3, 0.4, 0.7, 1.0))
def check_series_limit_c(s: float) -> str:
    if closed_form_c_small_twist(0.0, s) != 1.0:
        return f"series limit at zero twist is not 1 (s={s})"
    for x in (1e-3, 1e-2):
        gap = abs(closed_form("C", x, s) - closed_form_c_small_twist(x, s))
        if gap > 10.0 * x**3:
            return f"series deviates from closed form by {gap:.3e} at x={x}, s={s}"
    return ""


def check_fock_triangle() -> str:
    # The 400-level simulation and the closed forms share no code path.
    space = FockSpace(400)
    points = [
        ("B", 1.0, 0.5),
        ("C", 1.0, 0.2),
        ("Bprime", 8.0, 0.5),
        ("Cprime", 8.0, 0.5),
    ] + [
        (scheme, twist, s)
        for scheme in ("B", "C", "Bprime", "Cprime")
        for twist, s in ((0.5, 0.3), (1.0, 0.5))
    ]
    for scheme, twist, s in points:
        sim = fock_simulate(scheme, twist, s, space).sensitivity
        ref = closed_form(scheme, twist, s)
        if relative_difference(sim, ref) > 1e-9:
            return (
                f"Fock simulation vs closed form differs at ({scheme}, {twist}, "
                f"{s}): {sim} vs {ref}"
            )
    for s, fock in ((1.0, FockSpace(16)), (0.5, space)):
        bench = fock_simulate("A", 0.0, s, fock)
        if (bench.sensitivity, bench.n_spins, bench.method) != (1.0, None, "qfi"):
            return f"Fock benchmark at s={s} is {bench}, expected exactly 1 by qfi"
    return ""


@over((
    ("B", None, 0.3, "closed_form", 201),
    ("B", None, 2.0, "closed_form", 201),
    ("C", None, 1.0, "closed_form", 201),
    ("Bprime", None, 11.0, "closed_form", 201),
    ("Cprime", None, 5.0, "closed_form", 201),
    ("B", 10, 1.0, "spin", 201),
    ("Bprime", 10, 12.0, "spin", 201),
    ("B", None, 2.0, "closed_form", 21),
    ("C", None, 0.7, "closed_form", 21),
    ("Cprime", None, 5.0, "closed_form", 21),
))
def check_refinement_dominance(scheme, n, twist, engine, t_grid) -> str:
    # The optimum never falls below a sample of a 21- or a 51-point grid.
    result = optimize_t(scheme, n, twist, engine, t_grid)
    for s in np.union1d(np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 51)):
        v = evaluate_point(scheme, n, twist, float(s), engine).sensitivity
        if result.best_sensitivity < v - 1e-15:
            return (
                f"optimizer result {result.best_sensitivity} below grid sample "
                f"{v} at s={s} ({scheme}, {engine})"
            )
    return ""


# Every scheme over several twists. B at N = 1000 takes 602 columns in
# blocks of 523 (CURVE_BLOCK_AMPLITUDES // 1001), so its first call holds
# the whole grid of one twist and part of the other's; the closed forms
# refine one point per step.
@over((
    ("A", 12, "spin", (0.0, 1.0), 21),
    ("B", 1000, "spin", (0.5, 1.0), 301),
    ("C", 20, "spin", (0.5, 1.0, 2.0), 21),
    ("Bprime", 30, "spin", (6.0, 8.0, 12.0), 21),
    ("Cprime", 20, "spin", (2.0, 4.0, 8.0), 21),
    ("Cprime", None, "closed_form", (1.0, 5.0), 21),
))
def check_batched_twists(scheme, n, engine, twists, t_grid) -> str:
    # A sweep and an optimize of several twists equal those of each twist
    # alone: values to 1e-15 relative, and each optimize visits the same
    # points, in order, to the same t_opt.
    spec = partial(SweepSpec, scheme, n, t_grid=t_grid, engine=engine)
    together = sweep_curve(spec(twists))
    alone = [record for x in twists for record in sweep_curve(spec((x,)))]
    for a, b in zip(together, alone, strict=True):
        gap = relative_difference(a.sensitivity, b.sensitivity)
        if a.twist_strength != b.twist_strength or gap > 1e-15:
            return f"swept together {a} differs from alone {b} ({gap:.2e})"
    curve = _curve(scheme, n, engine)
    visits = []

    def recorded(xs, ts):
        visits.extend(zip(np.broadcast_to(xs, ts.shape).tolist(), ts.tolist()))
        return curve.evaluate(xs, ts)

    recording = curve._replace(evaluate=recorded)
    optima = _optimize(recording, twists, t_grid)
    joint = [[t for x, t in visits if x == twist] for twist in twists]
    for twist, optimum, points in zip(twists, optima, joint):
        visits.clear()
        (single,) = _optimize(recording, (twist,), t_grid)
        gap = relative_difference(optimum.best_sensitivity, single.best_sensitivity)
        same = (optimum.t_opt, optimum.boundary) == (single.t_opt, single.boundary)
        if not same or gap > 1e-15:
            return f"optimized together {optimum} differs from alone {single}"
        if points != [t for _, t in visits]:
            return f"{scheme} at twist {twist} visits other points together than alone"
    return ""


def check_tie_break_and_boundaries() -> str:
    flat = optimize_t("A", 5, 0.0, "spin")
    if (flat.t_opt, flat.boundary, flat.best_sensitivity) != (1.0, "right_edge", 1.0):
        return f"a flat curve should tie-break to t=1 with exactly 1, got {flat}"
    # (optimize_t arguments, boundary, t_opt, best): t_opt exact at an edge
    # and to 1e-6 inside, best to 1e-12 relative.
    for args, boundary, t_opt, best in (
        (("B", 10, 0.4, "spin"), "right_edge", 1.0, 1.0),
        (("B", None, 0.3, "closed_form"), "right_edge", 1.0, 1.0),
        (("C", None, 1.0, "closed_form"), "left_edge", 0.0,
         closed_form_optimum("C", 1.0).value),
        (("Bprime", None, 8.0, "closed_form"), "interior", 0.5, 1.0),
    ):
        got = optimize_t(*args)
        t_gap = abs(got.t_opt - t_opt)
        if (
            got.boundary != boundary
            or t_gap > (1e-6 if boundary == "interior" else 0.0)
            or relative_difference(got.best_sensitivity, best) > 1e-12
        ):
            return f"{args}: expected {boundary} at t={t_opt} with {best}, got {got}"
    return ""


@over((
    ("B", (0.05, 2.0), 0.5),
    ("B", (0.01, 2.0), 0.5),
    ("Bprime", (2.0, 16.0), 8.0),
    ("Bprime", (0.5, 20.0), 8.0),
    ("Cprime", (1.0, 9.0), 4.0),
    ("Cprime", (0.5, 20.0), 4.0),
))
def check_closed_form_thresholds(scheme, interval, expected) -> str:
    found = find_threshold(scheme, None, "closed_form", interval)
    if abs(found - expected) > 1e-3:
        return (
            f"{scheme} break-even twist {found} differs from {expected} "
            f"(searched {interval})"
        )
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


# Every engine on a 21-point grid, then three cases on the smallest grids,
# 3 and 4 points, and on the default 201.
@over(
    [
        (*case, 21)
        for case in (
            ("B", 30, "spin", (0.4, 0.7)),
            ("Bprime", 20, "spin", (9.0, 10.0)),
            ("Cprime", 10, "spin", (4.5, 5.5)),
            ("B", None, "fock", (0.4, 0.6)),
            ("B", None, "closed_form", (0.05, 2.0)),
            ("Bprime", None, "closed_form", (2.0, 16.0)),
            ("Cprime", None, "closed_form", (1.0, 9.0)),
        )
    ]
    + [
        (*case, t_grid)
        for case in (
            ("Bprime", 10, "spin", (9.0, 14.0)),
            ("B", 30, "spin", (0.3, 0.8)),
            ("Cprime", None, "closed_form", (1.0, 9.0)),
        )
        for t_grid in (3, 4, 201)
    ]
)
def check_staged_threshold(scheme, n, engine, interval, t_grid) -> str:
    staged = find_threshold(scheme, n, engine, interval, t_grid)
    reference = reference_threshold(scheme, n, engine, interval, t_grid)
    if staged != reference:
        return (
            f"{scheme} ({engine}, N={n}, t_grid={t_grid}) threshold "
            f"{staged!r} differs from the optimize_t bisection {reference!r}"
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


@over((
    ("sweep --scheme B --n 6 --twist 1.0 3.0 --t-points 21 --engine spin",),
    ("sweep --scheme C --n 12 --twist 2.0 --t-points 7",),
    ("optimize --scheme C --twist 1.0 --engine closed_form",),
))
def check_cli_determinism(command: str) -> str:
    # The command three times, twice to stdout and once through --out: the
    # same bytes every time.
    from . import cli as _cli  # deferred: cli imports this module

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        outputs = set()
        for out in ("-", "-", str(path)):
            printed = StringIO()
            with redirect_stdout(printed):
                code = _cli.main([*command.split(), "--out", out])
            if code != 0:
                return f"{command!r} --out {out} exited with {code}"
            text = printed.getvalue().encode() if out == "-" else path.read_bytes()
            outputs.add(text)
        if len(outputs) != 1:
            return f"repeated runs of {command!r} produced different bytes"
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


def check_cli_output_precision() -> str:
    # Every number that sweep, optimize, threshold and oracle print, CSV or
    # JSON, reads back unchanged at 12 significant digits, and the CSV and
    # the JSON of one sweep or optimize carry equal numbers.
    from . import cli as _cli  # deferred: cli imports this module

    tables = {
        "sweep --scheme Bprime --n 6 --twist 1.3 8 --t-points 7": "records",
        "optimize --scheme C --n 8 --twist 0.7 2 --t-points 11": "results",
    }
    outputs = {}
    for command in (
        *(f"{table} --format {kind}" for table in tables for kind in ("csv", "json")),
        "threshold --scheme B --n inf --interval 0.01 2",
        "oracle --scheme C --twist 1 --t 0.2",
        "oracle --scheme B --twist 2 --optimum",
    ):
        printed = StringIO()
        with redirect_stdout(printed):
            code = _cli.main(command.split())
        if code != 0:
            return f"{command!r} exited with {code}"
        for number in re.findall(r"-?\d[\d.]*(?:e[-+]\d+)?", printed.getvalue()):
            if float(format(float(number), ".12g")) != float(number):
                return f"{command!r} printed {number}, past 12 significant digits"
        outputs[command] = printed.getvalue()
    for table, key in tables.items():
        rows = list(csv.reader(outputs[f"{table} --format csv"].splitlines()))[1:]
        records = json.loads(outputs[f"{table} --format json"])[key]
        pairs = [
            (cell, value)
            for row, record in zip(rows, records)
            for cell, value in zip(row, record.values())
            if isinstance(value, float)
        ]
        if len(rows) != len(records) or any(float(c) != v for c, v in pairs):
            return f"the CSV and the JSON of {table!r} carry different numbers"
    return ""


CHECKS: tuple[tuple[str, object], ...] = (
    ("spin_core.su2_commutators", check_su2_commutators),
    ("spin_core.casimir", check_casimir),
    ("spin_core.propagator_unitarity", check_propagator_unitarity),
    ("spin_core.propagator_composition", check_propagator_composition),
    ("spin_core.derivative_vs_finite_difference", check_derivative_vs_finite_difference),
    ("spin_core.mirror_split", check_mirror_split),
    ("spin_core.real_rotation", check_real_rotation),
    ("spin_core.coupling_blocks", check_coupling_blocks),
    ("protocols.full_sensing_reduction", check_full_sensing_reduction),
    ("protocols.zero_twist_reduction", check_zero_twist_reduction),
    ("protocols.single_spin_degeneracy", check_single_spin_degeneracy),
    ("protocols.echo_cancellation", check_echo_cancellation),
    ("protocols.dimensionless_scaling", check_dimensionless_scaling),
    ("protocols.dense_reference", check_dense_reference),
    ("protocols.one_axis_frame", check_one_axis_frame),
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
    ("sweep.batched_twists", check_batched_twists),
    ("sweep.tie_break_and_boundaries", check_tie_break_and_boundaries),
    ("sweep.closed_form_thresholds", check_closed_form_thresholds),
    ("sweep.threshold_monotonicity", check_threshold_monotonicity),
    ("sweep.staged_threshold", check_staged_threshold),
    ("sweep.t_opt_convergence", check_t_opt_convergence),
    ("cli.determinism", check_cli_determinism),
    ("cli.csv_schema", check_cli_csv_schema),
    ("cli.output_precision", check_cli_output_precision),
)


def run_validation(only: str | None = None, stream=None) -> int:
    """Run the named checks, print one line each, return a process code;
    a ValueError when no check's name contains ``only``."""
    import sys

    out = stream if stream is not None else sys.stdout
    selected = [
        (name, fn) for name, fn in CHECKS if only is None or only in name
    ]
    if not selected:
        raise ValueError(f"no checks match {only!r}")
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
