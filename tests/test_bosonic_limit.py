"""Infinite-N closed forms and the truncated-Fock cross-check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistsense import (
    FockSpace,
    closed_form,
    closed_form_c_small_twist,
    closed_form_optimum,
    closed_form_point,
    enhancement_ratio,
    fock_hamiltonian,
    fock_simulate,
    momentum_quadrature,
    relative_difference,
    vacuum_state,
    variance,
)
from twistsense.errors import (
    InvalidDimensionError,
    SingularParameterError,
    TruncationError,
)


class TestClosedForm:
    def test_separable_is_constant_one(self):
        for x in (0.0, 0.7, 9.0):
            for s in (0.0, 0.5, 1.0):
                assert closed_form("A", x, s) == 1.0

    def test_sequential_frozen_value(self):
        # (t/tau) exp(2 x (1 - t/tau)) at x = 1, t/tau = 1/2 is e/2.
        assert closed_form("B", 1.0, 0.5) == pytest.approx(
            1.3591409142295225, rel=1e-15
        )

    def test_sequential_full_sensing_is_benchmark(self):
        for x in (0.3, 2.0, 11.0):
            assert closed_form("B", x, 1.0) == 1.0

    def test_concurrent_exceeds_sequential_pointwise(self):
        # The field is live during twisting in scheme C, which can only help.
        for x in (0.2, 1.0, 4.0):
            for s in (0.1, 0.5, 0.9):
                assert closed_form("C", x, s) > closed_form("B", x, s)

    def test_concurrent_rejects_zero_twist(self):
        with pytest.raises(SingularParameterError):
            closed_form("C", 0.0, 0.5)

    def test_concurrent_series_matches_exact_near_zero(self):
        for s in (0.0, 0.4, 1.0):
            for x, tol in ((1e-3, 1e-8), (1e-2, 1e-5)):
                exact = closed_form("C", x, s)
                series = closed_form_c_small_twist(x, s)
                assert abs(exact - series) <= tol

    def test_series_zero_twist_limit_is_one(self):
        for s in (0.0, 0.25, 1.0):
            assert closed_form_c_small_twist(0.0, s) == 1.0

    @pytest.mark.parametrize(
        "scheme,x,s,expected",
        [
            ("Bprime", 8.0, 0.5, 1.0),
            ("Cprime", 8.0, 0.0, 2.0),
            ("Cprime", 4.0, 0.6, 0.64),
        ],
    )
    def test_echo_values_by_hand(self, scheme, x, s, expected):
        assert closed_form(scheme, x, s) == pytest.approx(expected, rel=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            closed_form("Z", 1.0, 0.5)
        with pytest.raises(ValueError):
            closed_form("B", -1.0, 0.5)
        with pytest.raises(ValueError):
            closed_form("B", np.inf, 0.5)
        with pytest.raises(ValueError):
            closed_form("B", 1.0, 1.5)
        for bad_twist in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                closed_form_c_small_twist(bad_twist, 0.5)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(x=st.floats(0.01, 10.0), s=st.floats(0.0, 1.0))
    def test_optimum_dominates_every_fraction(self, x, s):
        for scheme in ("B", "C", "Bprime", "Cprime"):
            opt = closed_form_optimum(scheme, x)
            assert closed_form(scheme, x, s) <= opt.value * (1 + 1e-12)


class TestClosedFormOptimum:
    def test_sequential_branches(self):
        weak = closed_form_optimum("B", 0.3)
        assert weak.value == 1.0 and weak.t_opt == 1.0
        strong = closed_form_optimum("B", 2.0)
        assert strong.t_opt == pytest.approx(0.25, rel=1e-15)
        assert strong.value == pytest.approx(5.021384230796917, rel=1e-15)

    def test_sequential_branch_point_is_continuous(self):
        below = closed_form_optimum("B", 0.5 - 1e-12).value
        above = closed_form_optimum("B", 0.5 + 1e-12).value
        assert abs(below - above) <= 1e-9

    def test_concurrent_frozen_value(self):
        opt = closed_form_optimum("C", 1.0)
        assert opt.t_opt == 0.0
        assert opt.value == pytest.approx(3.1945280494653248, rel=1e-15)

    def test_echo_optima(self):
        b = closed_form_optimum("Bprime", 8.0)
        assert (b.value, b.t_opt) == (1.0, 0.5)
        c = closed_form_optimum("Cprime", 8.0)
        assert (c.value, c.t_opt) == (2.0, 0.0)

    def test_point_bundles_optimum_on_request(self):
        bare = closed_form_point("B", 1.0, 0.5)
        assert bare.optimum is None
        rich = closed_form_point("B", 1.0, 0.5, include_optimum=True)
        assert rich.value == pytest.approx(1.3591409142295225, rel=1e-15)
        assert rich.optimum.t_opt == 0.5


class TestEnhancementRatio:
    def test_frozen_value(self):
        assert enhancement_ratio(1.0) == pytest.approx(
            2.3504023872876028, rel=1e-15
        )

    def test_branch_point_is_continuous(self):
        assert abs(
            enhancement_ratio(0.5 - 1e-12) - enhancement_ratio(0.5 + 1e-12)
        ) <= 1e-9

    def test_bounds_and_monotonicity(self):
        xs = np.linspace(0.05, 12.0, 120)
        vals = [enhancement_ratio(float(x)) for x in xs]
        assert all(1.0 < v < np.e for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert enhancement_ratio(30.0) == pytest.approx(np.e, rel=1e-12)

    def test_rejects_nonpositive_twist(self):
        with pytest.raises(ValueError):
            enhancement_ratio(0.0)
        with pytest.raises(ValueError):
            enhancement_ratio(-1.0)


class TestFockSpace:
    def test_defaults(self):
        space = FockSpace()
        assert space.truncation_dim == 400
        assert space.tail_tolerance == 1e-10

    @pytest.mark.parametrize("bad", [1, 0, -5, 2.5, True])
    def test_rejects_bad_dimension(self, bad):
        with pytest.raises(InvalidDimensionError):
            FockSpace(truncation_dim=bad)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, 1.5])
    def test_rejects_bad_tail_tolerance(self, bad):
        with pytest.raises(ValueError):
            FockSpace(tail_tolerance=bad)


class TestFockOperators:
    def test_momentum_quadrature_matrix(self):
        space = FockSpace(truncation_dim=3)
        P = momentum_quadrature(space).matrix
        expected = 1j * np.array(
            [[0, 1, 0], [-1, 0, np.sqrt(2)], [0, -np.sqrt(2), 0]]
        )
        assert np.abs(P - expected).max() <= 1e-15

    def test_vacuum_quadrature_spread_is_one(self):
        space = FockSpace()
        assert variance(momentum_quadrature(space), vacuum_state(space)) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_field_generator_is_half_quadrature(self):
        space = FockSpace(truncation_dim=8)
        G = fock_hamiltonian(space, "field", 1.0).matrix
        P = momentum_quadrature(space).matrix
        assert np.abs(G - P / 2.0).max() <= 1e-15

    def test_generators_are_hermitian(self):
        space = FockSpace(truncation_dim=20)
        for kind in ("field", "tat", "oat"):
            H = fock_hamiltonian(space, kind, 1.3).matrix
            assert np.abs(H - H.conj().T).max() == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fock_hamiltonian(FockSpace(truncation_dim=4), "cubic", 1.0)


class TestFockSimulate:
    def test_benchmark_is_exactly_one(self):
        rec = fock_simulate("A", 0.0, 0.5)
        assert rec.sensitivity == 1.0
        assert rec.n_spins is None
        assert rec.method == "qfi"

    @pytest.mark.parametrize(
        "scheme", ["B", "C", "Bprime", "Cprime"]
    )
    def test_matches_closed_form(self, scheme):
        # Simulation and formula share no code path, so tight agreement
        # validates both.
        for x, s in ((0.5, 0.3), (1.0, 0.5)):
            rec = fock_simulate(scheme, x, s)
            exact = closed_form(scheme, x, s)
            assert relative_difference(rec.sensitivity, exact) <= 1e-9

    def test_frozen_sequential_value(self):
        rec = fock_simulate("B", 1.0, 0.5)
        assert rec.sensitivity == pytest.approx(1.3591409142295225, rel=1e-10)

    def test_echo_zero_twist_has_no_signal(self):
        rec = fock_simulate("Cprime", 0.0, 0.5)
        assert rec.sensitivity == 0.0
        assert rec.method == "echo"

    def test_tight_truncation_is_rejected(self):
        # Strong squeezing in a 12-level space must trip the tail check
        # rather than return a silently wrong number.
        with pytest.raises(TruncationError):
            fock_simulate("B", 3.0, 0.0, FockSpace(truncation_dim=12))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fock_simulate("Z", 1.0, 0.5)
        with pytest.raises(ValueError):
            fock_simulate("B", -1.0, 0.5)
        with pytest.raises(ValueError):
            fock_simulate("B", 1.0, 2.0)
