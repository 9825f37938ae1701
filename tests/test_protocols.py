"""Scheme pipelines: point checks, Hamiltonians, final states, derivatives."""

import numpy as np
import pytest

from twistsense import (
    FockSpace,
    SweepSpec,
    closed_form,
    closed_form_Bprime,
    evaluate_point,
    fock_simulate,
    sweep_curve,
)
from twistsense.bosonic_limit import fock_mode
from twistsense.errors import DimensionMismatchError, InvalidDimensionError
from twistsense.protocols import run_pipeline, spin_mode
from twistsense.spin_core import (
    DickeSpace,
    StateVector,
    StateWithDerivative,
    initial_state,
    overlap,
    variance,
)
from twistsense.validate import (
    collective_operators,
    reference_generators,
    reference_state,
)


def point(scheme="B", n_spins=8, twist=1.0, s=0.5):
    """One spin-engine point through ``evaluate_point``."""
    return evaluate_point(scheme, n_spins, twist, s, "spin")


# Every entry point that checks one (twist, t/tau) point, by its engine.
POINT_ENTRIES = {
    "evaluate_point-spin": lambda x, s: evaluate_point("B", 4, x, s, "spin"),
    "evaluate_point-fock": lambda x, s: evaluate_point("B", None, x, s, "fock"),
    "evaluate_point-closed_form": lambda x, s: evaluate_point(
        "B", None, x, s, "closed_form"
    ),
    "fock_simulate": lambda x, s: fock_simulate("B", x, s),
    "closed_form": lambda x, s: closed_form("B", x, s),
    "closed_form_Bprime": lambda x, s: closed_form_Bprime(4, x, s),
}


def spin_state(scheme, n_spins, twist, s):
    """The final state and derivative of one spin protocol run."""
    return run_pipeline(spin_mode(DickeSpace(n_spins)), scheme, twist, s)


class TestPointChecks:
    def test_valid_config_roundtrip(self):
        record = point(scheme="Cprime", twist=2.5)
        assert record.scheme == "Cprime"
        assert record.n_spins == 8
        assert record.twist_strength == 2.5

    @pytest.mark.parametrize("scheme", ["a", "D", "bprime", "", "B "])
    def test_rejects_unknown_scheme(self, scheme):
        with pytest.raises(ValueError, match="scheme"):
            point(scheme=scheme)

    @pytest.mark.parametrize("twist", [-0.1, np.nan, np.inf])
    def test_rejects_bad_twist(self, twist):
        with pytest.raises(ValueError, match="twist"):
            point(twist=twist)

    @pytest.mark.parametrize("frac", [-0.01, 1.01, np.nan, "0.5"])
    def test_rejects_bad_sensing_fraction(self, frac):
        # The refused value is shown by its repr, so a str does not read as
        # the valid number it spells.
        with pytest.raises(ValueError, match="sensing_fraction") as refused:
            point(s=frac)
        assert str(refused.value).endswith(f"got {frac!r}")

    @pytest.mark.parametrize("bad", [None, "0.5", True], ids=["None", "str", "bool"])
    @pytest.mark.parametrize("name", ["twist_times_tau", "sensing_fraction"])
    @pytest.mark.parametrize("entry", POINT_ENTRIES)
    def test_rejects_an_argument_that_is_not_a_real_number(self, entry, name, bad):
        # None is not "no fraction" to a point: it is refused, as a str or a
        # bool is, by name and before any engine runs.
        twist, s = (bad, 0.5) if name == "twist_times_tau" else (1.0, bad)
        with pytest.raises(ValueError, match=f"{name} must be a .*real number"):
            POINT_ENTRIES[entry](twist, s)

    @pytest.mark.parametrize("n", [0, -2, 1.5])
    def test_rejects_bad_spin_count(self, n):
        with pytest.raises(InvalidDimensionError):
            point(n_spins=n)


class TestHamiltonian:
    def test_field_two_spins(self):
        space = DickeSpace(2)
        H = spin_mode(space).generators["field"]
        jy = collective_operators(space).Jy.matrix
        assert np.abs(3.0 * H.matrix - 3.0 * jy / np.sqrt(2)).max() <= 1e-15

    def test_two_axis_twist_vanishes_for_single_spin(self):
        # J+^2 annihilates every state of a single spin 1/2.
        H = spin_mode(DickeSpace(1)).generators["tat"]
        assert np.abs(5.0 * H.matrix).max() == 0.0

    def test_one_axis_twist_single_spin_is_scalar(self):
        # Jx^2 = I/4 for one spin, so the generator is a global phase.
        H = spin_mode(DickeSpace(1)).generators["oat"]
        assert np.abs(2.0 * H.matrix - 0.5 * np.eye(2)).max() <= 1e-15

    @pytest.mark.parametrize("kind", ["field", "tat", "oat"])
    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_hermitian_by_construction(self, kind, n):
        H = 1.7 * spin_mode(DickeSpace(n)).generators[kind].matrix
        assert np.abs(H - H.conj().T).max() == 0.0

    def test_two_axis_twist_matches_ladder_form(self):
        space = DickeSpace(6)
        jplus = np.diag(space.ladder_elements(), -1)
        jp2 = jplus @ jplus
        expected = 1.2j * (jp2.conj().T - jp2) / 6
        H = spin_mode(space).generators["tat"]
        assert np.abs(1.2 * H.matrix - expected).max() <= 1e-14


# Each carrier's mode, by name.
CARRIERS = {
    "spin-1": lambda: spin_mode(DickeSpace(1)),
    "spin-2": lambda: spin_mode(DickeSpace(2)),
    "spin-101": lambda: spin_mode(DickeSpace(101)),
    "fock-3": lambda: fock_mode(FockSpace(3)),
    "fock-400": lambda: fock_mode(FockSpace(400)),
}


@pytest.mark.parametrize("carrier", CARRIERS)
def test_field_generator_spreads_one_half_on_the_probe(carrier):
    # The echo readout rests on this: Jy / sqrt(N) on the all-down state
    # and P / 2 on the vacuum both have variance 1/4.
    mode = CARRIERS[carrier]()
    assert abs(variance(mode.generators["field"], mode.initial) - 0.25) <= 1e-15


class TestSchemeStates:
    def test_separable_scheme_state_and_derivative(self):
        # Scheme A at zero field leaves the spin-coherent state untouched
        # and the derivative is -i tau G acting on it.
        space = DickeSpace(9)
        state = spin_state("A", 9, 0.0, 0.5)
        psi0 = initial_state(space)
        assert np.abs(state.psi.amplitudes - psi0.amplitudes).max() == 0.0
        G = spin_mode(space).generators["field"]
        expected = -1j * (G.matrix @ psi0.amplitudes)
        assert np.abs(state.dpsi.amplitudes - expected).max() <= 1e-14

    @pytest.mark.parametrize(
        "scheme,twist,s",
        [
            ("A", 0.0, 0.5),
            ("B", 1.0, 0.5),
            ("C", 2.0, 0.4),
            ("Bprime", 3.0, 0.5),
            ("Cprime", 2.5, 0.6),
        ],
    )
    def test_derivative_overlap_is_imaginary(self, scheme, twist, s):
        # <psi|dpsi> must be purely imaginary for a normalized family.
        state = spin_state(scheme, 13, twist, s)
        assert abs(overlap(state.psi, state.dpsi).real) <= 1e-8

    @pytest.mark.parametrize("kind", ["field", "tat", "oat"])
    @pytest.mark.parametrize("n", [7, None], ids=["spin7", "fock40"])
    def test_generators_are_the_dense_reference_matrices(self, n, kind):
        # The banded generators against the dense products of the lowering
        # operator, up to the top level of a truncated Fock mode, where X X
        # lacks the term the truncation cuts off.
        if n is None:
            H = fock_mode(FockSpace(40)).generators[kind]
            dense = reference_generators(np.sqrt(np.arange(1.0, 40.0)), 1.0)
        else:
            space = DickeSpace(n)
            H = spin_mode(space).generators[kind]
            dense = reference_generators(space.ladder_elements(), n)
        assert np.abs(H.matrix - dense[kind]).max() <= 1e-14 * np.abs(dense[kind]).max()

    @pytest.mark.parametrize(
        "scheme,exposure",
        [("A", 1.0), ("B", 0.7), ("C", 1.0), ("Bprime", 0.7), ("Cprime", 1.0)],
    )
    def test_reference_evolves_single_spin_exactly(self, scheme, exposure):
        # The reference at nonzero field, where its finite difference is
        # taken. One spin never twists (tat = 0, oat = I/4), so each scheme
        # is the bare rotation exp(-i omega exposure G), with G^2 = I/4:
        # the whole budget for A, C and Cprime, the sensing window s = 0.7
        # for B and Bprime.
        omega = 0.9
        G = spin_mode(DickeSpace(1)).generators["field"].matrix
        psi = reference_state(np.ones(1), 1, scheme, 2.0, 0.7, omega)
        angle = omega * exposure
        rotation = np.cos(angle / 2) * np.eye(2) - 2j * np.sin(angle / 2) * G
        assert np.abs(psi - rotation[:, 0]).max() <= 1e-12

    def test_states_are_normalized_across_schemes(self):
        for scheme in ("A", "B", "C", "Bprime", "Cprime"):
            state = spin_state(scheme, 10, 2.0, 0.3)
            assert abs(state.psi.norm - 1.0) <= 1e-10
            assert state.psi.normalized
            assert not state.dpsi.normalized

    def test_rejects_unnormalized_usage_signature(self):
        # The pair's construction itself enforces the dimension contract.
        psi = initial_state(DickeSpace(3))
        bad = StateVector(np.zeros(5, dtype=complex), normalized=False)
        with pytest.raises(DimensionMismatchError):
            StateWithDerivative(psi=psi, dpsi=bad)


@pytest.mark.parametrize("scheme", ["B", "C"])
@pytest.mark.parametrize("n_spins, engine", [(20, "spin"), (None, "fock")])
def test_eigensolves_do_not_grow_with_the_number_of_twists(
    solved_blocks, scheme, n_spins, engine
):
    # A twist strength only scales the evolution angle, so a sweep over
    # five twists must diagonalize exactly what a sweep over one does.
    def eigensolves(twists):
        spin_mode.cache_clear()
        fock_mode.cache_clear()
        solved_blocks.clear()
        sweep_curve(SweepSpec(scheme, n_spins, twists, t_grid=3, engine=engine))
        return len(solved_blocks)

    one = eigensolves((0.3,))
    assert one > 0
    assert eigensolves((0.1, 0.15, 0.2, 0.25, 0.3)) == one


@pytest.mark.parametrize(
    "n_spins, engine, b_solves, bprime_solves",
    [
        pytest.param(20, "spin", 2, 4, id="20-spin"),
        pytest.param(21, "spin", 1, 2, id="21-spin"),
        pytest.param(None, "fock", 1, 2, id="None-fock"),
    ],
)
def test_twisting_solves_only_the_parity_blocks_it_propagates(
    solved_blocks, n_spins, engine, b_solves, bprime_solves
):
    # B twists the lowest-weight state (or the vacuum), which stays in the
    # even block, and never propagates G psi: one block. Bprime echoes the
    # odd vector G psi back through the twist: both blocks. At even N each
    # Dicke block is its own mirror image and is solved as two halves; at
    # odd N the blocks are each other's mirror images, not their own, and
    # the Fock blocks have no mirror symmetry: one solve per block.
    for scheme, twist, solves in (
        ("B", 0.3, b_solves),
        ("Bprime", 2.0, bprime_solves),
    ):
        spin_mode.cache_clear()
        fock_mode.cache_clear()
        solved_blocks.clear()
        sweep_curve(SweepSpec(scheme, n_spins, (twist,), t_grid=5, engine=engine))
        assert len(solved_blocks) == solves, scheme


@pytest.mark.parametrize("scheme", ["A", "B", "C", "Bprime", "Cprime"])
@pytest.mark.parametrize(
    "carrier,twist",
    [(lambda: spin_mode(DickeSpace(7)), 2.0), (lambda: fock_mode(FockSpace(160)), 0.5)],
    ids=["spin7", "fock160"],
)
def test_a_grid_of_fractions_runs_each_column_as_its_own_point(carrier, twist, scheme):
    mode = carrier()
    grid = np.array([0.0, 0.25, 0.6, 1.0])
    batch = run_pipeline(mode, scheme, twist, grid)
    dim = len(mode.initial.amplitudes)
    assert batch.psi.amplitudes.shape == batch.dpsi.amplitudes.shape == (dim, 4)
    for k, s in enumerate(grid):
        point = run_pipeline(mode, scheme, twist, s)
        assert np.abs(batch.psi.amplitudes[:, k] - point.psi.amplitudes).max() <= 1e-13
        assert np.abs(batch.dpsi.amplitudes[:, k] - point.dpsi.amplitudes).max() <= 1e-13


@pytest.mark.parametrize("scheme", ["A", "B", "C", "Bprime", "Cprime"])
@pytest.mark.parametrize(
    "carrier",
    [lambda: spin_mode(DickeSpace(12)), lambda: fock_mode(FockSpace(160))],
    ids=["spin12", "fock160"],
)
def test_two_axis_schemes_run_in_real_arithmetic(carrier, scheme):
    # The probe is real and the field and two-axis generators are i times
    # real antisymmetric matrices, so A and B stay float64 from end to end;
    # C's concurrent derivative and the one-axis echo schemes are complex.
    expected = np.float64 if scheme in ("A", "B") else np.complex128
    mode = carrier()
    for s in (0.4, np.array([0.0, 0.3, 1.0])):
        state = run_pipeline(mode, scheme, 0.5, s)
        assert state.psi.amplitudes.dtype == expected
        assert state.dpsi.amplitudes.dtype == expected


def _counting(monkeypatch, name: str) -> list:
    """The sizes of the matrices passed to ``numpy.linalg.<name>`` from now on."""
    calls = []
    solver = getattr(np.linalg, name)

    def counted(matrix, *args, **kwargs):
        calls.append(len(matrix))
        return solver(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize(
    "scheme, n_spins, svd, eigh",
    [
        # A never twists: no solve at all.
        ("A", 1000, [], []),
        ("A", None, [], []),
        # B at N = 1000: the probe's chain (501) as two bipartite halves.
        ("B", 1000, [126, 125], []),
        # N = 1002: a mirror chain of even length, one eigh for one half,
        # the other half its mirror image.
        ("B", 1002, [], [251]),
        # N = 1001 and the Fock mode: one whole bipartite chain.
        ("B", 1001, [251], []),
        ("B", None, [100], []),
    ],
)
def test_real_arithmetic_adds_no_eigensolve(monkeypatch, scheme, n_spins, svd, eigh):
    # The real rotation is built from the blocks the complex propagation
    # solves, never from a new or a larger solve.
    spin_mode.cache_clear()
    fock_mode.cache_clear()
    svds, eighs = _counting(monkeypatch, "svd"), _counting(monkeypatch, "eigh")
    mode = fock_mode(FockSpace(400)) if n_spins is None else spin_mode(DickeSpace(n_spins))
    twist = 0.5 if n_spins is None else 1.0
    run_pipeline(mode, scheme, twist, np.linspace(0.0, 1.0, 11))
    assert (svds, eighs) == (svd, eigh)
