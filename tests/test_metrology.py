"""Sensitivity figures of merit and their independent oracles."""

import numpy as np
import pytest

from twistsense import SensitivityRecord, closed_form_Bprime, evaluate_point
from twistsense.bosonic_limit import FockSpace, fock_mode
from twistsense.errors import (
    ContractViolationError,
    InvalidDimensionError,
    PrecisionLossError,
    TruncationError,
    WrongMethodError,
)
from twistsense.metrology import (
    moment_oracle,
    qfi,
    readout,
    relative_difference,
)
from twistsense.protocols import run_pipeline, spin_mode
from twistsense.spin_core import DickeSpace


class TestQfiSensitivity:
    @pytest.mark.parametrize("n", [1, 2, 17, 128])
    @pytest.mark.parametrize("s", [0.0, 0.3, 1.0])
    def test_separable_benchmark_is_exactly_one(self, n, s):
        rec = evaluate_point("A", n, 0.0, s, "spin")
        assert rec.sensitivity == 1.0
        assert rec.method == "qfi"

    @pytest.mark.parametrize("s", [0.0, 0.4, 1.0])
    def test_sequential_zero_twist_equals_sensing_fraction(self, s):
        # With no twisting the probe only accumulates phase during the
        # sensing window, so the sensitivity is t/tau times the benchmark.
        rec = evaluate_point("B", 2, 0.0, s, "spin")
        assert rec.sensitivity == pytest.approx(s, abs=1e-12)

    def test_full_sensing_sequential_equals_separable(self):
        a = evaluate_point("A", 12, 3.0, 1.0, "spin").sensitivity
        b = evaluate_point("B", 12, 3.0, 1.0, "spin").sensitivity
        assert b == pytest.approx(a, abs=1e-12)

    @pytest.mark.parametrize("scheme", ["B", "C"])
    def test_heisenberg_scaling_bound(self, scheme):
        # sqrt(F)/tau can never exceed sqrt(N) times the benchmark times
        # the sensing-window aperture; check the loose version sqrt(N).
        n = 20
        for twist in (0.5, 2.0, 6.0):
            rec = evaluate_point(scheme, n, twist, 0.5, "spin")
            assert rec.sensitivity <= np.sqrt(n) + 1e-9

    def test_twisting_beats_benchmark(self):
        rec = evaluate_point("C", 40, 2.0, 0.5, "spin")
        assert rec.sensitivity > 1.0

    def test_qfi_nonnegative_and_clamped(self):
        state = run_pipeline(spin_mode(DickeSpace(3)), "A", 0.0, 1.0)
        assert qfi(state) >= 0.0


class TestEchoSensitivity:
    def test_frozen_reference_point(self):
        assert closed_form_Bprime(10, 50.0, 0.9) == pytest.approx(
            1.5565671256675957, rel=1e-14
        )

    @pytest.mark.parametrize("scheme", ["Bprime", "Cprime"])
    def test_full_sensing_leaves_no_echo_signal(self, scheme):
        # t = tau means zero twisting windows, so the readout slope vanishes.
        rec = evaluate_point(scheme, 8, 5.0, 1.0, "spin")
        assert rec.sensitivity == 0.0

    @pytest.mark.parametrize("scheme", ["Bprime", "Cprime"])
    def test_single_spin_cannot_twist(self, scheme):
        # One spin has no pairwise interaction; the twist is a global phase
        # and the echo slope is pure roundoff.
        rec = evaluate_point(scheme, 1, 5.0, 0.5, "spin")
        assert rec.sensitivity <= 1e-12

    def test_zero_twist_echo_has_zero_slope(self):
        rec = evaluate_point("Cprime", 6, 0.0, 0.5, "spin")
        assert rec.sensitivity == 0.0

    def test_concurrent_echo_approaches_quarter_twist(self):
        # For chi*tau = 8 at full twisting the infinite-N sensitivity is
        # chi*tau/4 = 2; finite N approaches it from below with shrinking
        # relative error.
        errors = []
        for n in (25, 50, 100):
            rec = evaluate_point("Cprime", n, 8.0, 0.0, "spin")
            errors.append(relative_difference(rec.sensitivity, 2.0))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 0.05


class TestClosedFormBprime:
    def test_boundaries_vanish(self):
        assert closed_form_Bprime(7, 4.0, 0.0) == 0.0
        assert closed_form_Bprime(7, 0.0, 0.5) == 0.0
        assert closed_form_Bprime(1, 4.0, 0.5) == 0.0

    def test_two_spins_is_bare_sine(self):
        # N = 2 removes the cosine attenuation entirely.
        chi_tau, s = 3.0, 0.25
        theta = chi_tau * (1 - s) / 4.0
        assert closed_form_Bprime(2, chi_tau, s) == pytest.approx(
            s * abs(np.sin(theta)), rel=1e-14
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidDimensionError):
            closed_form_Bprime(0, 1.0, 0.5)
        with pytest.raises(ValueError):
            closed_form_Bprime(4, 1.0, 1.5)


class TestMomentOracle:
    def test_reference_values(self):
        assert moment_oracle(2, 0.0) == pytest.approx(0.5, rel=1e-14)
        assert abs(moment_oracle(5, np.pi / 2)) <= 1e-14

    def test_rejects_single_spin(self):
        with pytest.raises(InvalidDimensionError):
            moment_oracle(1, 0.5)


@pytest.mark.parametrize(
    "oracle, args, error, match",
    [
        (closed_form_Bprime, (2.5, 8.0, 0.5), InvalidDimensionError, "n_spins"),
        (closed_form_Bprime, (np.nan, 8.0, 0.5), InvalidDimensionError, "n_spins"),
        (closed_form_Bprime, (10, np.nan, 0.5), ValueError, "twist_times_tau"),
        (closed_form_Bprime, (10, np.inf, 0.5), ValueError, "twist_times_tau"),
        (closed_form_Bprime, (10, -1.0, 0.5), ValueError, "twist_times_tau"),
        (moment_oracle, (2.5, 0.3), InvalidDimensionError, "n_spins"),
        (moment_oracle, (10, np.nan), ValueError, "phase"),
        (moment_oracle, (10, np.inf), ValueError, "phase"),
    ],
    ids=[
        "Bprime-count-2.5", "Bprime-count-nan", "Bprime-twist-nan",
        "Bprime-twist-inf", "Bprime-twist-negative", "moment-count-2.5",
        "moment-phase-nan", "moment-phase-inf",
    ],
)
def test_exact_oracles_refuse_meaningless_counts_and_twists(oracle, args, error, match):
    # Spin counts go through DickeSpace, twists through the shared point check.
    with pytest.raises(error, match=match):
        oracle(*args)


class TestSensitivityRecord:
    def test_accepts_bosonic_spin_count(self):
        rec = SensitivityRecord(
            scheme="B",
            n_spins=None,
            twist_strength=1.0,
            sensing_fraction=0.5,
            sensitivity=1.2,
            method="qfi",
        )
        assert rec.n_spins is None

    def test_rejects_method_scheme_mismatch(self):
        with pytest.raises(WrongMethodError):
            SensitivityRecord(
                scheme="Bprime",
                n_spins=4,
                twist_strength=1.0,
                sensing_fraction=0.5,
                sensitivity=1.0,
                method="qfi",
            )
        with pytest.raises(WrongMethodError):
            SensitivityRecord(
                scheme="A",
                n_spins=4,
                twist_strength=0.0,
                sensing_fraction=0.5,
                sensitivity=1.0,
                method="echo",
            )

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("scheme", "D", ValueError),
            ("method", "fisher", ValueError),
            ("n_spins", 0, InvalidDimensionError),
            ("n_spins", True, InvalidDimensionError),
            ("n_spins", 2.5, InvalidDimensionError),
            ("twist_strength", -0.5, ValueError),
            ("twist_strength", float("nan"), ValueError),
            ("sensing_fraction", 2.0, ValueError),
        ],
    )
    def test_rejects_a_bad_field(self, field, value, error):
        # The point is checked as every engine checks it, and the spin
        # count as a Dicke sector checks it.
        with pytest.raises(error, match=field.split("_")[0]):
            _record(**{field: value})

    def test_rejects_negative_sensitivity(self):
        # A sensitivity is computed, not given: a bad one is a numerical
        # fault (exit 1 on the command line), not a usage error.
        with pytest.raises(ContractViolationError, match="sensitivity must be >= 0"):
            _record(sensitivity=-0.1)

    def test_rejects_nan_sensitivity(self):
        with pytest.raises(ContractViolationError, match="got nan"):
            _record(sensitivity=float("nan"))


def _record(**changes) -> SensitivityRecord:
    """A valid scheme-A record with these fields changed."""
    fields = dict(
        scheme="A",
        n_spins=4,
        twist_strength=0.0,
        sensing_fraction=0.5,
        sensitivity=1.0,
        method="qfi",
    )
    return SensitivityRecord(**{**fields, **changes})


def test_relative_difference_convention():
    assert relative_difference(2.0, 1.0) == pytest.approx(0.5)
    assert relative_difference(0.0, 0.0) == 0.0
    # Denominator never drops below 1, so tiny numbers compare absolutely.
    assert relative_difference(1e-12, 0.0) == pytest.approx(1e-12)


# Twists per scheme (0 included) that the 200-level Fock mode holds at every
# sensing fraction; the spin sectors take the same ones.
CURVE_TWISTS = {
    "A": (0.0,),
    "B": (0.0, 0.3),
    "C": (0.0, 0.3),
    "Bprime": (0.0, 2.0, 8.0),
    "Cprime": (0.0, 2.0, 8.0),
}
CURVE_GRIDS = (np.linspace(0.0, 1.0, 11), np.array([1.0, 0.37, 0.0, 0.93]))


@pytest.mark.parametrize("scheme", list(CURVE_TWISTS))
@pytest.mark.parametrize("n", [1, 2, 7, 60, None], ids=lambda n: f"n{n or '_fock200'}")
def test_a_curve_equals_its_points(scheme, n):
    mode = spin_mode(DickeSpace(n)) if n else fock_mode(FockSpace(200))
    for twist in CURVE_TWISTS[scheme]:
        for grid in CURVE_GRIDS:
            curve = readout(mode, scheme, twist, grid)
            assert curve.dtype == float and curve.shape == grid.shape
            for s, value in zip(grid, curve):
                (point,) = readout(mode, scheme, twist, [s])
                gap = relative_difference(value, point)
                assert gap <= 1e-12, (twist, s, value, point)


def test_one_leaking_column_fails_the_whole_curve():
    # At twist 1 the B squeezer leaks into the top levels of a 200-level
    # mode only with no sensing time (squeeze 2 at s = 0; 1 at s = 0.5).
    mode = fock_mode(FockSpace(200))
    readout(mode, "B", 1.0, [0.5, 0.75, 1.0])
    with pytest.raises(TruncationError):
        readout(mode, "B", 1.0, [0.5, 0.0, 1.0])


def test_one_column_past_the_phase_guard_fails_the_whole_curve():
    space = DickeSpace(4)
    tat = spin_mode(space).generators["tat"]
    largest = np.abs(tat.chain(0).values).max()
    # Only s = 0 turns the twisting generator through more than MAX_PHASE.
    twist = 1.5e6 / largest
    readout(spin_mode(space), "B", twist, [0.5, 1.0])
    with pytest.raises(PrecisionLossError):
        readout(spin_mode(space), "B", twist, [0.5, 0.0, 1.0])


def test_readout_takes_a_one_dimensional_grid():
    with pytest.raises(ValueError):
        readout(spin_mode(DickeSpace(3)), "B", 1.0, 0.5)


@pytest.mark.parametrize("scheme", ["A", "B", "C", "Bprime", "Cprime"])
@pytest.mark.parametrize(
    "mode", [spin_mode(DickeSpace(4)), fock_mode(FockSpace(40))], ids=["spin", "fock"]
)
def test_readout_of_no_sensing_fractions_is_empty(mode, scheme):
    assert readout(mode, scheme, 1.0, []).tolist() == []


@pytest.mark.parametrize(
    "twist",
    [
        np.array([1.0, -0.5]),
        np.array([1.0, np.nan]),
        np.array([True, False]),
        np.ones((2, 1)),
        np.array([0.5, 1.0, 2.0]),
    ],
    ids=["negative", "nan", "bool", "2-D", "mismatched-length"],
)
def test_readout_refuses_a_bad_twist_array(twist):
    with pytest.raises(ValueError, match="twist.strength"):
        readout(spin_mode(DickeSpace(4)), "B", twist, [0.25, 0.5])


@pytest.mark.parametrize("scheme", ["A", "B", "C", "Bprime", "Cprime"])
@pytest.mark.parametrize(
    "mode", [spin_mode(DickeSpace(9)), fock_mode(FockSpace(60))], ids=["spin", "fock"]
)
def test_a_twist_per_column_equals_one_twist_per_call(mode, scheme):
    # Columns of several twists side by side, and one sensing fraction
    # broadcast over several twists, read as each twist does alone, to the
    # 1e-12 that a curve agrees with its points.
    twists = np.array([0.0, 0.3, 0.3, 2.0 if scheme in ("Bprime", "Cprime") else 0.1])
    grid = np.array([0.5, 0.0, 0.8, 0.25])
    together = readout(mode, scheme, twists, grid)
    alone = [readout(mode, scheme, x, [s])[0] for x, s in zip(twists.tolist(), grid)]
    assert together.shape == (4,)
    assert max(map(relative_difference, together, alone)) <= 1e-12
    shared = readout(mode, scheme, twists, [0.5])
    alone = [readout(mode, scheme, x, [0.5])[0] for x in twists.tolist()]
    assert max(map(relative_difference, shared, alone)) <= 1e-12
