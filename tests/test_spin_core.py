"""Operator algebra, states, propagators, and exact derivatives."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammaln

from twistsense import spin_core
from twistsense.bosonic_limit import FockSpace, fock_mode
from twistsense.errors import (
    ContractViolationError,
    DimensionMismatchError,
    InvalidDimensionError,
    PrecisionLossError,
)
from twistsense.protocols import spin_mode
from twistsense.spin_core import (
    MAX_PHASE,
    NEAR_GAP,
    BandedOperator,
    DickeSpace,
    StateVector,
    apply_generator,
    apply_operator,
    initial_state,
    overlap,
    propagate,
    propagate_with_derivative,
    variance,
)
from twistsense.validate import (
    banded,
    collective_operators,
    dense_propagator,
    plus_state,
    random_banded_hermitian,
    random_state,
    richardson_derivative,
)


def expectation(A, psi):
    """<psi| A |psi> of one state."""
    return overlap(psi, apply_operator(A, psi))


def generator(space, kind):
    """One unit-strength generator, as the mode of its carrier holds it."""
    mode = fock_mode(space) if isinstance(space, FockSpace) else spin_mode(space)
    return mode.generators[kind]


def test_space_dimension_and_quantum_numbers():
    space = DickeSpace(5)
    assert space.dim == 6
    assert space.j == 2.5
    assert np.allclose(space.m_values(), [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])


@pytest.mark.parametrize("bad", [0, -3, 2.5, "4", True])
def test_space_rejects_bad_counts(bad):
    with pytest.raises(InvalidDimensionError):
        DickeSpace(bad)


def test_single_spin_jz_is_half_pauli():
    ops = collective_operators(DickeSpace(1))
    assert np.allclose(ops.Jz.matrix, np.diag([-0.5, 0.5]))


def test_two_spin_ladder_matrix_element():
    # Raising the lowest-weight state of two spins gives sqrt(2) times the
    # middle basis state.
    jplus = np.diag(DickeSpace(2).ladder_elements(), -1)
    raised = jplus @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(raised, [0.0, np.sqrt(2.0), 0.0])


@pytest.mark.parametrize("n", [1, 3, 17])
def test_initial_state_is_lowest_weight(n):
    space = DickeSpace(n)
    psi = initial_state(space)
    assert psi.amplitudes[0] == 1.0
    assert np.abs(psi.amplitudes[1:]).max() == 0.0
    jz = collective_operators(space).Jz
    assert expectation(jz, psi) == pytest.approx(-n / 2, abs=1e-12)


def test_plus_state_binomial_amplitudes():
    one = plus_state(DickeSpace(1))
    assert np.allclose(one.amplitudes, [1 / np.sqrt(2)] * 2)
    two = plus_state(DickeSpace(2))
    assert np.allclose(two.amplitudes, [0.5, 1 / np.sqrt(2), 0.5])


def _squared_errors(amps, n):
    """|a_k^2 / (C(n, k) / 2^n) - 1| per amplitude, in exact rational arithmetic."""
    return np.array([
        float(abs(Fraction(float(a)) ** 2 * 2**n / comb(n, k) - 1))
        for k, a in enumerate(amps)
    ])


def _gammaln_form(n):
    k = np.arange(n + 1)
    log_amp = 0.5 * (
        gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    ) - 0.5 * n * np.log(2.0)
    amps = np.exp(log_amp)
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("n", [1, 2, 7, 60, 1000, 2000])
def test_plus_state_amplitudes_are_correctly_rounded(n):
    amps = plus_state(DickeSpace(n)).amplitudes
    assert not amps.imag.any()
    # A correctly rounded a_k has a_k^2 within about two ulps of C(n, k) / 2^n.
    assert _squared_errors(amps.real, n).max() <= 4.5e-16


@pytest.mark.parametrize("n", [1, 2, 7, 60, 1000, 2000])
def test_plus_state_agrees_with_the_gammaln_form(n):
    amps = plus_state(DickeSpace(n)).amplitudes.real
    reference = _gammaln_form(n)
    gap = np.abs(amps - reference).max()
    if n <= 7:
        assert gap <= 1e-15
    else:
        # The log-gamma form cancels logs near n log n, so at large n its
        # own error sets the gap: about 1e-13 absolute at n = 2000.
        own = (_squared_errors(reference, n) * reference / 2).max()
        assert gap <= own + 1e-16


@pytest.mark.parametrize("n", [2, 9, 40])
def test_plus_state_maximal_along_x(n):
    space = DickeSpace(n)
    psi = plus_state(space)
    jx = collective_operators(space).Jx
    assert expectation(jx, psi) == pytest.approx(n / 2, abs=1e-10)
    assert variance(jx, psi) == pytest.approx(0.0, abs=1e-9)


def test_propagate_zero_duration_is_identity():
    space = DickeSpace(6)
    psi = plus_state(space)
    out = propagate(collective_operators(space).Jz, 0.0, psi)
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_propagate_diagonal_generator_phases():
    # exp(-i t Jz) on the m = -1/2 single-spin state is a pure phase
    # exp(+i t / 2).
    space = DickeSpace(1)
    jz = collective_operators(space).Jz
    out = propagate(jz, 0.7, initial_state(space))
    assert out.amplitudes[0] == pytest.approx(np.exp(0.7j / 2), abs=1e-14)
    assert out.amplitudes[1] == 0.0


@pytest.mark.parametrize("n", [1, 4, 11])
def test_propagate_half_turn_flips_all_spins(n):
    space = DickeSpace(n)
    jy = collective_operators(space).Jy
    rotated = propagate(jy, np.pi, initial_state(space))
    top = np.zeros(space.dim, dtype=complex)
    top[-1] = 1.0
    assert abs(overlap(rotated, StateVector(top))) ** 2 >= 1.0 - 1e-10


def test_propagate_rejects_non_hermitian_and_mismatch():
    space = DickeSpace(3)
    psi = initial_state(space)
    # A non-Hermitian operator cannot be built, so it can never be propagated.
    skew = np.triu(np.ones((4, 4)))
    with pytest.raises(ContractViolationError):
        BandedOperator(4, {k: np.diag(skew, k) for k in range(-3, 4)})
    jz_small = collective_operators(DickeSpace(2)).Jz
    with pytest.raises(DimensionMismatchError):
        propagate(jz_small, 1.0, psi)


def test_propagator_matrix_is_unitary_and_consistent():
    rng = np.random.default_rng(11)
    dim = 9
    H = random_banded_hermitian(rng, dim)
    # The unitary is the propagation of the identity block.
    U = propagate(H, 1.3, StateVector(np.eye(dim))).amplitudes
    assert np.abs(U.conj().T @ U - np.eye(dim)).max() <= 1e-12
    psi = random_state(rng, dim)
    direct = propagate(H, 1.3, psi)
    assert np.abs(U @ psi.amplitudes - direct.amplitudes).max() <= 1e-12


def test_derivative_zero_perturbation_gives_zero():
    space = DickeSpace(5)
    ops = collective_operators(space)
    zero = banded(np.zeros((space.dim, space.dim)))
    phi, dphi = propagate_with_derivative(ops.Jz, zero, 0.9, initial_state(space))
    assert np.abs(dphi.amplitudes).max() <= 1e-14
    assert not dphi.normalized
    expected = propagate(ops.Jz, 0.9, initial_state(space))
    assert np.abs(phi.amplitudes - expected.amplitudes).max() <= 1e-12


def test_derivative_commuting_case_is_first_order():
    space = DickeSpace(4)
    jy = collective_operators(space).Jy
    zero = BandedOperator.hermitian(space.dim, {})
    psi = plus_state(space)
    phi, dphi = propagate_with_derivative(zero, jy, 0.6, psi)
    assert np.abs(phi.amplitudes - psi.amplitudes).max() <= 1e-12
    # The derivative is along the field angle w * 0.6.
    expected = -0.6j * (jy.matrix @ psi.amplitudes)
    assert np.abs(0.6 * dphi.amplitudes - expected).max() <= 1e-12


def test_derivative_matches_finite_difference_for_twisting():
    # Structured case: two-axis twisting as the carrier, the collective
    # field generator as the perturbation.
    n = 10
    space = DickeSpace(n)
    ops = collective_operators(space)
    jplus = np.diag(space.ladder_elements(), -1)
    jp2 = jplus @ jplus
    H0 = banded(1j * (jp2.conj().T - jp2) / n)
    G = banded(ops.Jy.matrix / np.sqrt(n))
    psi = initial_state(space)
    _, dphi = propagate_with_derivative(H0, G, 1.0, psi)

    def along(w):
        return dense_propagator(H0.matrix + w * G.matrix, 1.0) @ psi.amplitudes

    fd = richardson_derivative(along)
    err = np.linalg.norm(dphi.amplitudes - fd) / max(
        np.linalg.norm(dphi.amplitudes), 1.0
    )
    assert err <= 1e-6


@pytest.mark.parametrize(
    "n, kind, strength",
    [
        (40, "oat", 8.0),
        (40, "oat", -8.0),
        (100, "oat", 8.0),
        (100, "oat", -8.0),
        (200, "tat", 1.0),
        (None, "tat", 0.5),  # Fock space at the default truncation 400
        # Odd and even N, down to the one- and two-dimensional sectors,
        # zero and negative strengths.
        (1, "tat", 1.0),
        (1, "oat", -3.0),
        (2, "tat", -0.7),
        (2, "oat", 5.0),
        (41, "tat", 0.0),
        (41, "oat", 0.0),
        (41, "tat", -1.5),
        (101, "oat", -11.5),
        (101, "tat", 0.8),
        # An even-odd eigenvalue gap just below NEAR_GAP * max|lambda| (the
        # sinc weight) and one just above it (the split through D, where it
        # cancels most); see test_near_gap_cases_straddle_the_cutoff.
        (100, "tat", 1.3),
        pytest.param(FockSpace(104), "oat", 6.0, id="fock104-oat-6.0"),
        # A Dicke sector's one-axis twist is diagonal: the sinc weight of
        # every link, with no split at all.
        (126, "oat", 6.0),
        # Fock spaces of odd size: parity blocks of unequal size.
        pytest.param(FockSpace(3), "oat", 0.7, id="fock3-oat-0.7"),
        pytest.param(FockSpace(3), "tat", -0.4, id="fock3-tat--0.4"),
        pytest.param(FockSpace(401), "tat", 0.5, id="fock401-tat-0.5"),
    ],
)
def test_derivative_matches_block_exponential_oracle(n, kind, strength):
    # Independent reference: the top row of exp of the block generator
    # [[-i d x H, -i d G], [0, -i d x H]] holds exp(-i d x H) and the
    # derivative along the field w of exp(-i d (x H + w G)), which is d
    # times the engine's derivative along the field angle w d, taken at the
    # twist angle x d on the unit generator H. One-axis twisting has
    # exactly degenerate pairs. Each case starts from a state inside the
    # even parity block and from one spread over both blocks.
    if n is None or isinstance(n, FockSpace):
        space = n or FockSpace()
        mixed = np.zeros(space.truncation_dim, dtype=complex)
        mixed[:2] = (1.0, 1j)
        starts = (fock_mode(space).probes[kind], StateVector(mixed / np.sqrt(2.0)))
    else:
        space = DickeSpace(n)
        starts = (initial_state(space), plus_state(space))
    H = generator(space, kind)
    G = generator(space, "field")
    for psi in starts:
        phi, dphi = propagate_with_derivative(H, G, 0.0, psi)
        assert np.array_equal(phi.amplitudes, psi.amplitudes)
        assert np.array_equal(dphi.amplitudes, -1j * G.matvec(psi.amplitudes))
    d = H.dim
    for duration in (0.05, 0.5, 1.0, -0.7):
        block = np.zeros((2 * d, 2 * d), dtype=complex)
        block[:d, :d] = block[d:, d:] = -1j * duration * (strength * H.matrix)
        block[:d, d:] = -1j * duration * G.matrix
        full = expm(block)
        for psi in starts:
            phi, dphi = propagate_with_derivative(H, G, strength * duration, psi)
            for got, ref in (
                (phi.amplitudes, full[:d, :d]),
                (duration * dphi.amplitudes, full[:d, d:]),
            ):
                ref = ref @ psi.amplitudes
                err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
                assert err <= 1e-12, (duration, err)


@pytest.mark.parametrize(
    "space, kind, lo, hi",
    [
        pytest.param(DickeSpace(100), "tat", 0.99, 1.0, id="100-tat-0.99-1.0"),
        pytest.param(FockSpace(104), "oat", 1.0, 1.01, id="fock104-oat-1.0-1.01"),
    ],
)
def test_near_gap_cases_straddle_the_cutoff(space, kind, lo, hi):
    # The two oracle cases above have a gap within 1% of the cutoff, on the
    # named side of it.
    H = generator(space, kind)
    even, odd = H.chain(0), H.chain(1)
    cutoff = NEAR_GAP * max(even.largest, odd.largest)
    gaps = np.abs(np.subtract.outer(even.values, odd.values)) / cutoff
    assert np.any((lo < gaps) & (gaps <= hi))


def test_several_off_diagonal_bands_are_refused():
    # Every protocol runs at zero field, so no propagated operator is a
    # twist plus a field; one with bands at two offsets has no eigensystem,
    # at any angle.
    two = BandedOperator.hermitian(5, {1: np.ones(4), 3: 1j * np.ones(2)})
    jz = collective_operators(DickeSpace(4)).Jz
    psi = initial_state(DickeSpace(4))
    for angle in (0.7, 0.0):
        with pytest.raises(ContractViolationError, match=r"offsets \[1, 3\]"):
            propagate(two, angle, psi)
        with pytest.raises(ContractViolationError, match=r"offsets \[1, 3\]"):
            propagate_with_derivative(two, jz, angle, psi)
    # As the field direction it is only multiplied, never diagonalized.
    propagate_with_derivative(jz, two, 0.7, psi)


def test_phase_guard_refuses_roundoff_dominated_durations():
    space = DickeSpace(4)
    ops = collective_operators(space)
    psi = initial_state(space)
    # Jz has max|eigenvalue| 2, so the guard sits at duration MAX_PHASE / 2.
    at_bound = MAX_PHASE / 2
    identity = StateVector(np.eye(space.dim))
    propagate(ops.Jz, -at_bound, psi)
    propagate(ops.Jz, at_bound, identity)
    propagate_with_derivative(ops.Jz, ops.Jy, at_bound, psi)
    for duration in (2 * at_bound, -2 * at_bound, 1e300):
        with pytest.raises(PrecisionLossError):
            propagate(ops.Jz, duration, psi)
        with pytest.raises(PrecisionLossError):
            propagate(ops.Jz, duration, identity)
        with pytest.raises(PrecisionLossError):
            propagate_with_derivative(ops.Jz, ops.Jy, duration, psi)


@pytest.mark.parametrize("kind", ["tat", "oat"])
def test_propagate_turns_each_column_through_its_own_angle(kind):
    rng = np.random.default_rng(7)
    space = DickeSpace(9)
    H = generator(space, kind)
    angles = np.array([0.0, 0.4, -1.3, 2.5, 0.0])
    shared = random_state(rng, space.dim)
    block = StateVector(
        np.stack([random_state(rng, space.dim).amplitudes for _ in angles], axis=1)
    )
    columns = [StateVector(block.amplitudes[:, k]) for k in range(len(angles))]
    for psi, inputs in ((shared, [shared] * len(angles)), (block, columns)):
        out = propagate(H, angles, psi)
        assert out.amplitudes.shape == (space.dim, len(angles))
        for k, (angle, alone) in enumerate(zip(angles, inputs)):
            turned = propagate(H, angle, alone).amplitudes
            assert np.abs(out.amplitudes[:, k] - turned).max() <= 1e-14
            if angle == 0:
                assert np.array_equal(out.amplitudes[:, k], alone.amplitudes)
    # One angle turns every column of a block.
    same = propagate(H, np.full(len(angles), 0.7), block).amplitudes
    assert np.array_equal(propagate(H, 0.7, block).amplitudes, same)
    with pytest.raises(DimensionMismatchError):
        propagate(H, angles[:3], block)


def test_derivative_batches_one_angle_per_column():
    space = DickeSpace(8)
    H = generator(space, "oat")
    G = generator(space, "field")
    angles = np.array([0.0, 0.9, -2.1])
    psi = propagate(H, np.array([0.3, 0.6, 1.2]), initial_state(space))
    phi, dphi = propagate_with_derivative(H, G, angles, psi)
    for k, angle in enumerate(angles):
        column = StateVector(psi.amplitudes[:, k])
        alone = propagate_with_derivative(H, G, angle, column)
        assert np.abs(phi.amplitudes[:, k] - alone.psi.amplitudes).max() <= 1e-14
        assert np.abs(dphi.amplitudes[:, k] - alone.dpsi.amplitudes).max() <= 1e-13
    assert np.array_equal(phi.amplitudes[:, 0], psi.amplitudes[:, 0])
    assert np.array_equal(
        dphi.amplitudes[:, 0], -1j * G.matvec(psi.amplitudes[:, 0])
    )


def test_propagate_solves_only_the_chains_it_turns(solved_blocks):
    # The lowest-weight state lies in the even parity block of a twisting
    # generator, which never couples the blocks: the odd block is never solved.
    # At N = 10 each block is its own mirror image, solved as its halves:
    # the even block (6) as one half of 3 and its mirror image, the odd
    # block (5) as 3 + 2.
    space = DickeSpace(10)
    H = BandedOperator(space.dim, generator(space, "tat").bands)
    psi = propagate(H, np.array([0.5, 1.0]), initial_state(space))
    assert solved_blocks == [3]
    assert not psi.amplitudes[1::2].any()
    # An odd input needs the odd block too, solved once.
    G = generator(space, "field")
    propagate(H, 1.0, apply_operator(G, StateVector(psi.amplitudes[:, 0])))
    propagate(H, 2.0, apply_operator(G, StateVector(psi.amplitudes[:, 1])))
    assert solved_blocks == [3, 3, 2]


def _tridiagonal(diagonal: np.ndarray, off: np.ndarray) -> np.ndarray:
    matrix = np.diag(diagonal)
    i = np.arange(len(off))
    matrix[i, i + 1] = matrix[i + 1, i] = off
    return matrix


def _counting(monkeypatch, name: str) -> list:
    calls = []
    solver = getattr(np.linalg, name)

    def counted(matrix, *args, **kwargs):
        calls.append(len(matrix))
        return solver(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize(
    "n, near_split_seed",
    [pytest.param(n, None, id=str(n)) for n in (2, 3, 4, 5, 6, 7, 250, 251)]
    + [
        pytest.param(n, seed, id=f"{n}-near-split")
        for n, seed in ((51, 121), (201, 161))
    ],
)
def test_a_zero_diagonal_chain_is_solved_through_its_bipartite_half(
    monkeypatch, n, near_split_seed
):
    # Zero diagonal and no zero link: one SVD of the ceil(n / 2) bidiagonal
    # half and no eigh. The values are ascending, in exact +-sigma pairs
    # around the exact 0 of an odd n, and agree with a dense eigh. A nearly
    # split chain of odd length (three tiny links) takes one eigh after its
    # SVD: its left singular vectors take on the padding row, and the SVD's
    # vectors would be off orthonormal by 7e-3 at n = 51 and 0.23 at n = 201.
    if near_split_seed is None:
        rng = np.random.default_rng(n)
        off = rng.uniform(0.5, 1.5, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    else:
        rng = np.random.default_rng(near_split_seed)
        off = rng.uniform(0.5, 1.5, n - 1)
        off[rng.choice(n - 1, 3, replace=False)] = [1e-12, 1e-11, 1e-7]
    matrix = _tridiagonal(np.zeros(n), off)
    dense = np.linalg.eigh(matrix)[0]
    eighs, svds = _counting(monkeypatch, "eigh"), _counting(monkeypatch, "svd")
    values, vectors, paired = spin_core._tridiagonal_eigh(np.zeros(n), off)
    assert eighs == ([] if near_split_seed is None else [n])
    assert paired == (near_split_seed is None)
    assert svds == [n - n // 2]
    assert np.all(np.diff(values) >= 0)
    if near_split_seed is None:
        assert np.array_equal(values, -values[::-1])
    assert np.abs(values - dense).max() <= 1e-12 * np.abs(dense).max()
    assert np.abs(matrix @ vectors - vectors * values).max() <= 1e-12
    assert np.abs(vectors.T @ vectors - np.eye(n)).max() <= 1e-12


@pytest.mark.parametrize(
    "off",
    [
        [0.0, 1.0],
        [1.0, 0.0, 2.0],
        [0.5, 1.0, 0.0, 2.0],
        [1.0, 0.0, 0.0, 1.5, 0.7],
        # Through the SVD this one gives |V^T V - I| = 0.5.
        [0.0, 1.0, 1.5, 0.0, 1.25, 0.0],
    ],
)
def test_a_zero_diagonal_chain_with_a_zero_link_keeps_eigh(monkeypatch, off):
    # A zero link splits the chain, so S can have a zero singular value of
    # its own, whose direction the padding row of an odd n may take: such a
    # chain is solved by one eigh, bit for bit.
    off = np.array(off)
    diagonal = np.zeros(len(off) + 1)
    dense = np.linalg.eigh(_tridiagonal(diagonal, off))
    svds = _counting(monkeypatch, "svd")
    values, vectors, paired = spin_core._tridiagonal_eigh(diagonal, off)
    assert svds == [] and not paired
    assert np.array_equal(values, dense[0]) and np.array_equal(vectors, dense[1])


@pytest.mark.parametrize(
    "space, kind, eighs, svds",
    [
        # Even chain 11 as halves 6 and 5; odd chain 10 as one half with a
        # corner term and its mirror image.
        (DickeSpace(20), "tat", [5], [3, 3]),
        # Even chain 12 as one half and its image; odd chain 11 as 6 and 5.
        (DickeSpace(22), "tat", [6], [3, 3]),
        (DickeSpace(21), "tat", [], [6, 6]),  # whole chains 11 and 11
        (FockSpace(30), "oat", [15, 15], []),  # a nonzero diagonal, chains whole
        (FockSpace(30), "tat", [], [8, 8]),  # whole chains 15 and 15
    ],
)
def test_two_axis_twisting_chains_take_the_bipartite_branch(
    monkeypatch, space, kind, eighs, svds
):
    H = generator(space, kind)
    counted = _counting(monkeypatch, "eigh"), _counting(monkeypatch, "svd")
    fresh = BandedOperator(H.dim, H.bands)
    for r in range(fresh.stride):
        fresh.chain(r)
    assert counted == (eighs, svds)


def _mirror_chain_operator(n: int, diagonal: bool) -> BandedOperator:
    # A random tridiagonal operator whose real form equals its own reverse,
    # with off-diagonal phases that are not mirror-symmetric; quarter turns
    # keep each |e_i| exact, so the mirror symmetry is exact too.
    rng = np.random.default_rng(n)
    a = rng.normal(size=n) if diagonal else np.zeros(n)
    size = rng.uniform(0.5, 1.5, size=n - 1)
    phases = rng.choice(np.array([1, 1j, -1, -1j]), size=n - 1)
    return BandedOperator.hermitian(n, {1: (size + size[::-1]) * phases}, diagonal=a + a[::-1])


def _check_chain(H: BandedOperator, chain) -> None:
    # synthesize undoes analyze, and propagate is the product through the
    # unitary assembled from synthesize of the identity.
    n = H.dim
    assert chain.largest == np.abs(chain.values).max()
    rng = np.random.default_rng(7)
    block = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
    block /= np.linalg.norm(block, axis=0)
    vectors = chain.synthesize(np.eye(n))
    angles = np.array([0.3, -1.1, 0.0, 2.5, 0.7])
    for x, angle in ((block[:, 0], 0.9), (block, angles)):
        back = chain.synthesize(chain.analyze(x))
        assert np.abs(back - x).max() <= 1e-13
        turned = np.exp(-1j * np.multiply.outer(chain.values, angle))
        expected = vectors @ (turned * (vectors.conj().T @ x))
        got = propagate(H, angle, StateVector(x)).amplitudes
        assert np.abs(got - expected).max() <= 1e-13


@pytest.mark.parametrize(
    "n, diagonal",
    [pytest.param(n, True, id=str(n)) for n in (2, 3, 4, 5, 21, 40, 41, 255, 256, 257)]
    + [pytest.param(n, False, id=f"{n}-zero-diagonal") for n in (2, 3, 40, 41, 256, 257)],
)
def test_mirror_chains_fold_only_with_a_zero_diagonal(n, diagonal):
    # Every mirror-symmetric chain with a zero diagonal keeps its two halves,
    # whatever its length, and at even n the odd half is the even half's
    # image. One with a diagonal, which no generator of the program has (a
    # Dicke sector's one-axis twist is diagonal and has no chains), is kept
    # whole, as any other chain is: one eigh, ascending values.
    H = _mirror_chain_operator(n, diagonal)
    chain = H.chain(0)
    h = 0 if diagonal else n // 2
    assert chain.odd.shape == (h, h)
    assert chain.vectors.shape == (n - h, n - h)
    assert chain.pairs == (None if diagonal else "within" if n % 2 else "across")
    if diagonal:
        assert np.all(np.diff(chain.values) >= 0)
    _check_chain(H, chain)


@pytest.mark.parametrize(
    "space, kind",
    [(DickeSpace(41), "tat"), (FockSpace(41), "tat"), (FockSpace(41), "oat")],
    ids=["odd-N-tat", "fock-tat", "fock-oat"],
)
def test_other_chains_are_the_fold_without_mirror_pairs(space, kind):
    # A parity block at odd N (each block is the other's mirror image) and a
    # Fock chain are kept whole: an empty mirror-odd half, ascending values.
    H = generator(space, kind)
    fresh = BandedOperator(H.dim, H.bands)
    for r in (0, 1):
        chain = fresh.chain(r)
        assert chain.odd.shape == (0, 0)
        assert np.all(np.diff(chain.values) >= 0)
        # The same chain as an operator of its own, for the round trip.
        e = H.bands[2][r::2]
        a = H.bands[0].real[r::2] if 0 in H.bands else None
        single = BandedOperator.hermitian(len(e) + 1, {1: e}, diagonal=a)
        _check_chain(single, single.chain(0))


def test_phase_guard_checks_every_column():
    space = DickeSpace(4)
    jz = collective_operators(space).Jz
    psi = initial_state(space)
    # Jz has max|eigenvalue| 2: only the last angle is past the guard.
    within = np.array([1.0, MAX_PHASE / 4, MAX_PHASE / 2])
    propagate(jz, within, psi)
    propagate_with_derivative(jz, collective_operators(space).Jy, within, psi)
    beyond = np.append(within, MAX_PHASE)
    with pytest.raises(PrecisionLossError):
        propagate(jz, beyond, psi)
    with pytest.raises(PrecisionLossError):
        propagate_with_derivative(jz, collective_operators(space).Jy, beyond, psi)


def test_derivative_requires_normalized_state_and_matching_dims():
    space = DickeSpace(3)
    ops = collective_operators(space)
    stretched = StateVector(2.0 * initial_state(space).amplitudes, normalized=False)
    with pytest.raises(ContractViolationError):
        propagate_with_derivative(ops.Jz, ops.Jy, 1.0, stretched)
    other = collective_operators(DickeSpace(4)).Jy
    with pytest.raises(DimensionMismatchError):
        propagate_with_derivative(ops.Jz, other, 1.0, initial_state(space))


@pytest.mark.parametrize("n", [1, 6, 23])
def test_expectation_and_variance_on_reference_states(n):
    space = DickeSpace(n)
    ops = collective_operators(space)
    down = initial_state(space)
    assert expectation(ops.Jz, down) == pytest.approx(-n / 2, abs=1e-12)
    assert expectation(ops.Jy, down) == pytest.approx(0.0, abs=1e-12)
    assert variance(ops.Jy, down) == pytest.approx(n / 4, abs=1e-10)


def test_variance_requires_normalized_state():
    space = DickeSpace(2)
    jz = collective_operators(space).Jz
    unnorm = StateVector([0.5, 0.0, 0.0], normalized=False)
    with pytest.raises(ContractViolationError):
        variance(jz, unnorm)


def test_state_normalization_contract():
    with pytest.raises(ContractViolationError):
        StateVector([1.0, 1.0])
    ok = StateVector([1.0, 1.0], normalized=False)
    assert ok.norm == pytest.approx(np.sqrt(2.0))
    with pytest.raises(InvalidDimensionError):
        StateVector(np.zeros((2, 2, 2)))
    # A (d, K) block holds K states; its norm is checked column by column.
    block = StateVector(np.eye(3)[:, :2])
    assert np.array_equal(block.norm, [1.0, 1.0])
    with pytest.raises(ContractViolationError):
        StateVector(np.zeros((2, 2)))
    with pytest.raises(ContractViolationError):
        StateVector(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_a_state_keeps_a_copy_of_the_callers_array():
    # Writing to the caller's array after construction leaves the state as
    # it was; a block that propagate builds is the state's own, read-only.
    amps = np.array([0.6, 0.8j, 0.0])
    psi = StateVector(amps)
    amps[:] = [1.0, 0.0, 0.0]
    assert np.array_equal(psi.amplitudes, [0.6, 0.8j, 0.0])
    assert not psi.amplitudes.flags.writeable
    space = DickeSpace(6)
    for angle in (0.7, np.array([0.0, 0.3, -1.1])):
        turned = propagate(generator(space, "tat"), angle, initial_state(space))
        assert not turned.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            turned.amplitudes[0] = 1.0


# The +- pairing each chain's solver recorded, chain by chain, which the
# real rotation reads: a bipartite block pairs within itself, and an
# even-length two-axis mirror chain across its halves (its mirror-odd half
# is the image of its mirror-even one); a chain with a diagonal, a Fock
# one-axis chain of either parity size, has none. At N = 42 chain 0 is an
# even-length mirror chain and chain 1 an odd-length one with two bipartite
# halves, the shape scheme B meets at N = 302, 1002 and 10002. A Dicke
# sector's one-axis twist has no chains (see the diagonal tests below).
TURN_CHAINS = pytest.mark.parametrize(
    "space, kind, pairs",
    [
        (DickeSpace(40), "tat", ("within", "across")),
        (DickeSpace(41), "tat", ("within", "within")),
        (DickeSpace(42), "tat", ("across", "within")),
        (FockSpace(40), "oat", (None, None)),
        (FockSpace(41), "tat", ("within", "within")),
        (FockSpace(41), "oat", (None, None)),
    ],
    ids=["tat-even-N", "tat-odd-N", "tat-N42", "fock-oat-even", "fock", "fock-oat"],
)
TURN_ANGLES = (0.37, -2.5, 0.0, np.array([0.0, 0.25, -0.25, 3.0, -7.5]))


@TURN_CHAINS
def test_chain_turns_are_the_complex_exponential_to_the_bit(space, kind, pairs):
    # Both parity chains: mirror halves at even N, whole chains at odd N and
    # on a Fock mode. Scalar and vector angles, untwists (negative) included.
    # Every entry is within 2.3e-16 of numpy's exponential, and a zero angle
    # turns by exactly 1.
    H = generator(space, kind)
    for r in (0, 1):
        chain = H.chain(r)
        assert chain.pairs == pairs[r]
        for angles in TURN_ANGLES:
            got = chain.turns(angles, np.abs(angles).max())
            expected = np.exp(-1j * np.multiply.outer(chain.values, angles))
            assert got.shape == expected.shape
            assert np.all(got[..., np.asarray(angles) == 0] == 1.0)
            assert np.abs(got.real - expected.real).max() <= 2.3e-16
            assert np.abs(got.imag - expected.imag).max() <= 2.3e-16


@TURN_CHAINS
def test_chain_expm1_table_is_the_quotient_to_the_bit(space, kind, pairs):
    # The f = expm1(-i theta lambda) / theta of the derivative, within
    # 8e-16 / |theta| of numpy's quotient. A zero angle divides by 1, as a
    # still column does, and gives exactly 0; the derivative does not use
    # that column.
    H = generator(space, kind)
    for r in (0, 1):
        chain = H.chain(r)
        for angles in TURN_ANGLES:
            theta = np.where(np.asarray(angles) != 0, angles, 1.0)
            got = chain.expm1_table(angles, theta)
            expected = np.expm1(np.multiply.outer(-1j * chain.values, angles)) / theta
            assert got.shape == expected.shape
            assert np.all(got[..., np.asarray(angles) == 0] == 0.0)
            assert (np.abs(got - expected) * np.abs(theta)).max() <= 8e-16


@pytest.mark.parametrize("n", [40, 41], ids=["oat-even-N", "oat-odd-N"])
def test_diagonal_turns_are_the_complex_exponential_to_the_bit(n):
    # A Dicke sector's one-axis twist is the diagonal m^2 / N, its own
    # eigensystem: propagate multiplies each amplitude by its phase, the
    # table of the chains' kernel, within 2.3e-16 of numpy's exponential and
    # exactly 1 at a zero angle, with no chain solved.
    space = DickeSpace(n)
    H = BandedOperator(space.dim, generator(space, "oat").bands)
    assert np.array_equal(H.diagonal, space.m_values() ** 2 / n)
    psi = spin_mode(space).probes["oat"]
    for angles in TURN_ANGLES:
        table = spin_core._turns(H.diagonal, angles)
        expected = np.exp(-1j * np.multiply.outer(H.diagonal, angles))
        assert np.all(table[..., np.asarray(angles) == 0] == 1.0)
        assert np.abs(table.real - expected.real).max() <= 2.3e-16
        assert np.abs(table.imag - expected.imag).max() <= 2.3e-16
        probe = psi.amplitudes[:, None] if table.ndim == 2 else psi.amplitudes
        assert np.array_equal(propagate(H, angles, psi).amplitudes, table * probe)
    assert H._chains == {}


@pytest.mark.parametrize("kind", ["oat", "tat"])
def test_a_diagonal_twist_is_refused_past_the_phase_guard_as_a_chain_is(kind):
    # The one-axis twist of a Dicke sector reaches |theta| N / 4, as the
    # eigenvalues of Jx^2 / N do; past MAX_PHASE its phases are refused by
    # the PrecisionLossError a chain raises, in propagate and in the
    # concurrent derivative alike.
    space = DickeSpace(40)
    H, G = generator(space, kind), generator(space, "field")
    psi = spin_mode(space).probes[kind]
    if kind == "oat":
        largest = np.abs(H.diagonal).max()
        assert largest == space.n_spins / 4
    else:
        largest = max(H.chain(r).largest for r in (0, 1))
    # Just within the guard, then just past it, in one column of two.
    within = 0.999 * MAX_PHASE / largest
    propagate(H, np.array([0.5, -1.0]) * within, psi)
    propagate_with_derivative(H, G, within, psi)
    message = r"max\|eigenvalue\| = .* exceeds 1e\+06"
    for angle in (1.01 * MAX_PHASE / largest, np.array([0.5, -1.01]) * MAX_PHASE / largest):
        with pytest.raises(PrecisionLossError, match=message):
            propagate(H, angle, psi)
        with pytest.raises(PrecisionLossError, match=message):
            propagate_with_derivative(H, G, angle, psi)


def test_a_chain_index_outside_the_stride_is_refused():
    # A diagonal operator has one chain, a two-axis twist two; any other
    # index names no chain of the operator and would solve a slice of it.
    space = DickeSpace(8)
    for kind, chains in (("oat", 1), ("tat", 2), ("field", 1)):
        H = generator(space, kind)
        H.chain(chains - 1)
        for r in (chains, -1):
            with pytest.raises(InvalidDimensionError, match=f"chain {r} of an operator"):
                H.chain(r)


def test_the_half_angle_kernel_meets_its_stated_bounds():
    # A fixed sample of |x| from 1e-12 to MAX_PHASE, both signs, and 0:
    # cos x and sin x within 2.3e-16 of numpy's, expm1(-i x) within 6.8e-16,
    # and within 6.8e-16 relative for |x| < 1e-3; 0 gives exactly 1, 0, 0.
    size = np.geomspace(1e-12, spin_core.MAX_PHASE, 20_001)
    x = np.concatenate((-size[::-1], [0.0], size))
    t, square, inv = spin_core._tan_half(x / 2, 1.0)
    cos, sin = (1.0 - square) * inv, 2.0 * t * inv
    expm1 = -2.0 * t * (t + 1j) * inv
    assert np.abs(cos - np.cos(x)).max() <= 2.3e-16
    assert np.abs(sin - np.sin(x)).max() <= 2.3e-16
    gap = np.abs(expm1 - np.expm1(-1j * x))
    assert gap.max() <= 6.8e-16
    small = (np.abs(x) < 1e-3) & (x != 0)
    assert (gap[small] / np.abs(np.expm1(-1j * x[small]))).max() <= 6.8e-16
    zero = len(size)
    assert (cos[zero], sin[zero], expm1[zero]) == (1.0, 0.0, 0.0)
    # scale is the numerator of the quotient; tan is odd, so -x gives -t to
    # the bit.
    assert np.array_equal(spin_core._tan_half(x / 2, 2.0)[2], 2.0 * inv)
    assert np.array_equal(np.tan(-x / 2), -np.tan(x / 2))


@pytest.mark.parametrize("space", [DickeSpace(4), FockSpace(12)], ids=["spin", "fock"])
def test_an_empty_batch_gives_empty_blocks(space):
    # No angles: a (d, 0) block is normalized vacuously, and each
    # propagator returns (d, 0) blocks.
    H, G = generator(space, "tat"), generator(space, "field")
    psi = fock_mode(space).probes["tat"] if isinstance(space, FockSpace) else initial_state(space)
    none = np.array([])
    assert propagate(H, none, psi).amplitudes.shape == (H.dim, 0)
    phi, dphi = propagate_with_derivative(H, G, none, psi)
    assert phi.amplitudes.shape == dphi.amplitudes.shape == (H.dim, 0)
    assert StateVector(np.zeros((H.dim, 0))).norm.shape == (0,)


def test_banded_hermitian_contract():
    upper = np.array([1.0 + 2.0j, -0.5j])
    H = BandedOperator.hermitian(3, {1: upper}, diagonal=[0.5, -1.0, 2.0])
    assert np.array_equal(H.matrix, H.matrix.conj().T)
    with pytest.raises(ContractViolationError):
        BandedOperator.hermitian(3, {1: upper}, diagonal=[0.5, 1j, 2.0])
    with pytest.raises(ContractViolationError):
        BandedOperator(3, {1: upper, -1: upper})
    with pytest.raises(ContractViolationError):
        BandedOperator(3, {1: upper})
    with pytest.raises(InvalidDimensionError):
        BandedOperator(3, {1: np.ones(3)})
    with pytest.raises(ValueError):
        H.bands[1][0] = 0.0


@pytest.mark.parametrize("kind", ["field", "tat", "oat"])
def test_banded_operator_matches_its_dense_matrix(kind):
    # Matvec, chain blocks and the structured propagator against the dense
    # matrix; N = 6 gives parity blocks of sizes 4 and 3. A strength of
    # -1.3 is the angle -1.3 d on the unit generator.
    rng = np.random.default_rng(5)
    H = generator(DickeSpace(6), kind)
    dense = H.matrix
    x = random_state(rng, H.dim).amplitudes
    assert np.abs(H.matvec(x) - dense @ x).max() <= 1e-14
    # A block too wide for one scratch of np.getbufsize() amplitudes is
    # summed a few rows at a time, to the bits of the whole-band sum.
    wide = rng.standard_normal((H.dim, 3000)) + 1j * rng.standard_normal((H.dim, 3000))
    summed = np.zeros_like(wide)
    for k, band in H.bands.items():
        lo, hi = max(0, -k), H.dim - max(0, k)
        summed[lo:hi] += band[:, None] * wide[lo + k : hi + k]
    assert np.array_equal(H.matvec(wide), summed)
    for stride in (1, 2, 3):
        for r in range(stride):
            for q in range(stride):
                block = np.zeros_like(dense[r::stride, q::stride])
                for first, shift, values in H.block_bands(r, q, stride):
                    a = np.arange(first, first + len(values))
                    block[a, a + shift] = values
                assert np.array_equal(block, dense[r::stride, q::stride])
    U = propagate(H, -1.3 * 0.7, StateVector(np.eye(H.dim))).amplitudes
    assert np.abs(U - expm(-0.7j * (-1.3 * dense))).max() <= 1e-13


def test_operator_matrix_is_read_only():
    jz = collective_operators(DickeSpace(4)).Jz
    with pytest.raises(ValueError):
        jz.matrix[0, 0] = 5.0


def test_apply_operator_returns_unnormalized():
    space = DickeSpace(3)
    jy = collective_operators(space).Jy
    out = apply_operator(jy, initial_state(space), prefactor=-1j)
    assert not out.normalized
    expected = -1j * (jy.matrix @ initial_state(space).amplitudes)
    assert np.array_equal(out.amplitudes, expected)


@pytest.mark.parametrize("duration", [0.7, np.array([0.0, 0.3, 1.0])])
def test_generator_image_is_real_for_a_real_state(duration):
    # -i t G psi of a real psi under G = i A is t A psi, taken in real
    # arithmetic; a complex psi goes through apply_operator.
    space = DickeSpace(5)
    G = generator(space, "field")
    psi = plus_state(space)
    image = apply_generator(G, psi, duration).amplitudes
    dense = np.multiply.outer(G.matrix @ psi.amplitudes, -1j * np.asarray(duration))
    assert image.dtype == np.float64 and not image.flags.writeable
    assert np.abs(image - dense).max() <= 1e-15
    as_complex = StateVector(psi.amplitudes.astype(complex))
    expected = apply_operator(G, as_complex, prefactor=-1j * np.asarray(duration))
    assert np.array_equal(apply_generator(G, as_complex, duration).amplitudes, expected.amplitudes)


def test_overlap_rejects_mismatched_dims():
    with pytest.raises(DimensionMismatchError):
        overlap(initial_state(DickeSpace(2)), initial_state(DickeSpace(3)))


def _nearly_split(n: int, seed: int) -> np.ndarray:
    # Three tiny links, as in the near-split SVD cases above.
    rng = np.random.default_rng(seed)
    off = rng.uniform(0.5, 1.5, n - 1)
    off[rng.choice(n - 1, 3, replace=False)] = [1e-12, 1e-11, 1e-7]
    return off


@pytest.mark.parametrize(
    "links, paired",
    [
        pytest.param(np.array([0.8, -1.3, 0.4, 1.1, -0.6, 0.9]), True, id="signed"),
        pytest.param(np.array([1.2, 0.7, 0.7, 1.2]), True, id="mirror-length-5"),
        pytest.param(np.array([1.2, 0.7, 0.5, 0.7, 1.2]), True, id="mirror-length-6"),
        pytest.param(np.array([1.0, 0.0, 2.0, 0.5]), False, id="zero-link"),
        pytest.param(_nearly_split(51, 121), False, id="nearly-split"),
    ],
)
def test_a_real_state_under_an_imaginary_band_stays_real(links, paired):
    # i times a real antisymmetric band turns a real state into a real one.
    # A chain whose values pair (a whole chain, a mirror chain of either
    # length) is rotated through its pairs; a split or nearly split one,
    # solved by eigh, is turned as complex amplitudes and its real part
    # kept. Both agree with the complex propagation of the same state.
    n = len(links) + 1
    H = BandedOperator.hermitian(n, {1: 1j * links})
    assert H.turns_reals
    assert (H.chain(0)._rotation is not None) == paired
    rng = np.random.default_rng(n)
    block = rng.normal(size=(n, 3))
    block /= np.linalg.norm(block, axis=0)
    angles = np.array([0.4, -1.7, 3.0])
    real = propagate(H, angles, StateVector(block)).amplitudes
    reference = propagate(H, angles, StateVector(block.astype(complex))).amplitudes
    assert real.dtype == np.float64 and reference.dtype == np.complex128
    assert np.abs(real - reference).max() <= 1e-13


def test_only_an_imaginary_band_without_diagonal_turns_reals():
    space = DickeSpace(6)
    assert generator(space, "tat").turns_reals
    assert generator(space, "field").turns_reals
    assert not generator(space, "oat").turns_reals
    assert not collective_operators(space).Jx.turns_reals
    assert not collective_operators(space).Jz.turns_reals
    # A real state under any other operator comes out complex.
    out = propagate(generator(space, "oat"), 0.3, initial_state(space))
    assert out.amplitudes.dtype == np.complex128
