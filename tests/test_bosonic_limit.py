"""Infinite-N closed forms and the truncated-Fock cross-check."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistsense.bosonic_limit import (
    TAIL_TOLERANCE,
    FockSpace,
    closed_form,
    closed_form_c_small_twist,
    closed_form_optimum,
    enhancement_ratio,
    fock_mode,
    fock_simulate,
)
from twistsense.errors import InvalidDimensionError, TruncationError
from twistsense.spin_core import variance


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

    def test_edges_at_the_largest_twists(self):
        # 2 x overflows to inf at x = 1e308, but with no twisting time (s = 1)
        # the exponent is exactly 0, and with no sensing time (s = 0) B has
        # no signal.
        assert closed_form("B", 1e308, 1.0) == 1.0
        assert closed_form("C", 1e308, 1.0) == 1.0
        assert closed_form("B", 1e308, 0.0) == 0.0

    def test_concurrent_exceeds_sequential_pointwise(self):
        # The field is live during twisting in scheme C, which can only help.
        for x in (0.2, 1.0, 4.0):
            for s in (0.1, 0.5, 0.9):
                assert closed_form("C", x, s) > closed_form("B", x, s)

    def test_concurrent_zero_twist_is_the_benchmark(self):
        # With no twisting the concurrent scheme is the separable benchmark:
        # exactly 1 at every fraction, and its optimum is the x -> 0+ limit.
        for s in (0.0, 0.1, 1 / 3, 0.5, 0.7, 1.0):
            assert closed_form("C", 0.0, s) == 1.0
        assert closed_form_optimum("C", 0.0) == (1.0, 0.0)

    @pytest.mark.parametrize("x", [1e-320, 1e-300, 1e-12, 1e-9, 1e-6, 1e-3])
    @pytest.mark.parametrize("s", [0.0, 0.3, 1.0])
    def test_concurrent_keeps_every_digit_at_small_twist(self, x, s):
        # (s + 1/2x) e^y - 1/2x with y = 2x(1 - s), in exact decimal
        # arithmetic at 400 digits: enough that neither the cancellation
        # of the 1/2x terms nor e^y - 1 at y = 2e-320 costs a digit.
        with localcontext() as ctx:
            ctx.prec = 400
            xd, sd = Decimal(x), Decimal(s)
            half = 1 / (2 * xd)
            exact = float((sd + half) * (2 * xd * (1 - sd)).exp() - half)
        assert closed_form("C", x, s) == pytest.approx(exact, rel=1e-14, abs=0)

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

    def test_concurrent_frozen_value(self):
        opt = closed_form_optimum("C", 1.0)
        assert opt.t_opt == 0.0
        assert opt.value == pytest.approx(3.1945280494653248, rel=1e-15)

    def test_echo_optima(self):
        b = closed_form_optimum("Bprime", 8.0)
        assert (b.value, b.t_opt) == (1.0, 0.5)
        c = closed_form_optimum("Cprime", 8.0)
        assert (c.value, c.t_opt) == (2.0, 0.0)


class TestEnhancementRatio:
    def test_frozen_value(self):
        assert enhancement_ratio(1.0) == pytest.approx(
            2.3504023872876028, rel=1e-15
        )

    def test_rejects_nonpositive_twist(self):
        with pytest.raises(ValueError):
            enhancement_ratio(0.0)
        with pytest.raises(ValueError):
            enhancement_ratio(-1.0)

    @pytest.mark.parametrize("bad", [None, "1", True], ids=["None", "str", "bool"])
    def test_rejects_a_twist_that_is_not_a_real_number(self, bad):
        with pytest.raises(ValueError, match="eta_tau must be a .*real number"):
            enhancement_ratio(bad)


class TestFockSpace:
    def test_defaults(self):
        assert FockSpace().truncation_dim == 400
        assert TAIL_TOLERANCE == 1e-10

    @pytest.mark.parametrize("bad", [1, 0, -5, 2.5, True])
    def test_rejects_bad_dimension(self, bad):
        with pytest.raises(InvalidDimensionError):
            FockSpace(truncation_dim=bad)


class TestFockOperators:
    def test_momentum_quadrature_matrix(self):
        space = FockSpace(truncation_dim=3)
        P = 2.0 * fock_mode(space).generators["field"].matrix
        expected = 1j * np.array(
            [[0, 1, 0], [-1, 0, np.sqrt(2)], [0, -np.sqrt(2), 0]]
        )
        assert np.abs(P - expected).max() <= 1e-15

    def test_vacuum_quadrature_spread_is_one(self):
        space = FockSpace()
        mode = fock_mode(space)
        # P is twice the field generator, so its variance is four times.
        assert mode.probes["tat"] is mode.probes["oat"]
        assert 4.0 * variance(mode.generators["field"], mode.probes["oat"]) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_field_generator_is_half_quadrature(self):
        space = FockSpace(truncation_dim=8)
        mode = fock_mode(space)
        G = mode.generators["field"].matrix
        a = np.diag(np.sqrt(np.arange(1.0, 8.0)), 1)
        P = 1j * (a - a.T)
        assert np.abs(G - P / 2.0).max() <= 1e-15

    def test_generators_are_hermitian(self):
        space = FockSpace(truncation_dim=20)
        for kind in ("field", "tat", "oat"):
            H = 1.3 * fock_mode(space).generators[kind].matrix
            assert np.abs(H - H.conj().T).max() == 0.0


class TestFockSimulate:
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
