"""Curve sweeps, the grid-then-refine optimizer, and threshold search."""

from functools import partial
from itertools import zip_longest
from math import ceil, floor, log

import numpy as np
import pytest

from twistsense import (
    OptimumResult,
    SweepSpec,
    closed_form,
    closed_form_optimum,
    evaluate_point,
    find_threshold,
    fock_simulate,
    optimize_t,
    sweep_curve,
)
from twistsense import metrology, sweep_optimize
from twistsense.errors import BracketingError, InvalidDimensionError


class TestSweepSpec:
    def test_coerces_twists_to_float_tuple(self):
        spec = SweepSpec(scheme="B", n_spins=4, twist_values=[0, 1, 2])
        assert spec.twist_values == (0.0, 1.0, 2.0)
        assert all(isinstance(x, float) for x in spec.twist_values)

    def test_rejects_empty_or_bad_twists(self):
        with pytest.raises(ValueError):
            SweepSpec(scheme="B", n_spins=4, twist_values=())
        with pytest.raises(ValueError):
            SweepSpec(scheme="B", n_spins=4, twist_values=(-1.0,))

    @pytest.mark.parametrize("bad", [None, "1", True], ids=["None", "str", "bool"])
    def test_rejects_a_twist_that_is_not_a_real_number(self, bad):
        # Refused by name before any conversion, not by float().
        with pytest.raises(ValueError, match="twist_times_tau must be a .*real number"):
            SweepSpec("B", 4, (bad,))

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            SweepSpec(scheme="B", n_spins=4, twist_values=(1.0,), t_grid=2)

    def test_engine_spin_needs_finite_n(self):
        with pytest.raises(ValueError):
            SweepSpec(scheme="B", n_spins=None, twist_values=(1.0,), engine="spin")

    @pytest.mark.parametrize("n_spins", [0, 2.5, True], ids=["zero", "2.5", "bool"])
    def test_engine_spin_refuses_a_count_dicke_space_refuses(self, n_spins):
        with pytest.raises(InvalidDimensionError, match="n_spins"):
            SweepSpec("B", n_spins, (1.0,), 3)

    @pytest.mark.parametrize("engine", ["fock", "closed_form"])
    def test_infinite_engines_reject_finite_n(self, engine):
        with pytest.raises(ValueError):
            SweepSpec(scheme="B", n_spins=8, twist_values=(1.0,), engine=engine)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            SweepSpec(scheme="B", n_spins=4, twist_values=(1.0,), engine="exact")


class TestEvaluatePoint:
    def test_engines_agree_on_separable_scheme(self):
        spin = evaluate_point("A", 5, 0.0, 0.5, "spin")
        closed = evaluate_point("A", None, 0.0, 0.5, "closed_form")
        assert spin.sensitivity == closed.sensitivity == 1.0
        assert spin.method == "qfi"
        assert closed.method == "closed_form"

    def test_spin_engine_dispatches_echo_method(self):
        rec = evaluate_point("Bprime", 6, 3.0, 0.5, "spin")
        assert rec.method == "echo"
        assert rec.n_spins == 6

    def test_closed_form_engine_reports_no_spin_count(self):
        rec = evaluate_point("Cprime", None, 8.0, 0.0, "closed_form")
        assert rec.n_spins is None
        assert rec.sensitivity == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("s", [-0.1, 1.5, float("nan")])
    @pytest.mark.parametrize(
        "engine,n", [("spin", 6), ("fock", None), ("closed_form", None)]
    )
    def test_refuses_sensing_fraction_outside_the_budget(self, engine, n, s):
        with pytest.raises(ValueError, match="sensing_fraction"):
            evaluate_point("B", n, 1.0, s, engine)

    @pytest.mark.parametrize(
        "point",
        [
            *(
                pytest.param(
                    partial(evaluate_point, "B", n, 1, 0.5, engine), id=f"{engine}-{n}"
                )
                for engine, n in (("spin", 6), ("fock", None), ("closed_form", None))
            ),
            pytest.param(partial(fock_simulate, "B", 1, 0.5), id="fock_simulate"),
            pytest.param(
                partial(fock_simulate, "B", np.float32(1), 0.5),
                id="fock_simulate-float32",
            ),
        ],
    )
    def test_records_carry_a_float_twist(self, point):
        rec = point()
        assert type(rec.twist_strength) is float and rec.twist_strength == 1.0

    @pytest.mark.parametrize(
        "scheme, twist",
        [("A", 1.0), ("B", 0.5), ("C", 0.5), ("Bprime", 4.0), ("Cprime", 4.0)],
    )
    def test_fock_engine_is_the_default_fock_space(self, scheme, twist):
        # The Fock engine takes no space of its own: it is fock_simulate on
        # its default FockSpace().
        got = evaluate_point(scheme, None, twist, 0.3, "fock")
        assert got == fock_simulate(scheme, twist, 0.3)


class TestSweepCurve:
    def test_ordering_twist_outer_t_inner(self):
        spec = SweepSpec(
            scheme="Bprime",
            n_spins=4,
            twist_values=(2.0, 1.0),
            t_grid=5,
        )
        records = sweep_curve(spec)
        assert len(records) == 10
        assert [r.twist_strength for r in records] == [2.0] * 5 + [1.0] * 5
        fracs = [r.sensing_fraction for r in records[:5]]
        assert fracs == pytest.approx(np.linspace(0.0, 1.0, 5).tolist())

    def test_separable_curve_is_flat_one(self):
        spec = SweepSpec(scheme="A", n_spins=7, twist_values=(0.0,), t_grid=9)
        records = sweep_curve(spec)
        assert all(r.sensitivity == 1.0 for r in records)

    def test_echo_curve_vanishes_at_endpoints(self):
        # t/tau = 1 leaves no twisting time; t/tau = 0 leaves no sensing.
        spec = SweepSpec(
            scheme="Bprime", n_spins=8, twist_values=(6.0,), t_grid=11
        )
        records = sweep_curve(spec)
        assert records[0].sensitivity == 0.0
        assert records[-1].sensitivity == 0.0
        assert max(r.sensitivity for r in records) > 0.0

    def test_closed_form_curve_matches_direct_evaluation(self):
        spec = SweepSpec(
            scheme="B",
            n_spins=None,
            twist_values=(1.5,),
            t_grid=21,
            engine="closed_form",
        )
        records = sweep_curve(spec)
        for rec in records:
            assert rec.sensitivity == closed_form("B", 1.5, rec.sensing_fraction)


class TestOptimizeT:
    def test_closed_form_interior_optimum(self):
        # Strong sequential twisting peaks at t/tau = 1/(2x).
        result = optimize_t("B", None, 2.0, "closed_form")
        exact = closed_form_optimum("B", 2.0)
        assert result.boundary == "interior"
        assert result.t_opt == pytest.approx(exact.t_opt, abs=2e-6)
        assert result.best_sensitivity == pytest.approx(exact.value, rel=1e-9)

    def test_a_small_curve_ties_relative_to_its_maximum(self):
        # The whole Bprime curve at twist 1e-9 is about 1e-10, so grid
        # samples 1e-12 apart are not ties: the optimum is the exact one.
        result = optimize_t("Bprime", None, 1e-9, "closed_form")
        exact = closed_form_optimum("Bprime", 1e-9)
        assert result.boundary == "interior"
        assert result.t_opt == pytest.approx(exact.t_opt, abs=2e-6)
        assert result.best_sensitivity == pytest.approx(exact.value, rel=1e-9)

    def test_spin_interior_optimum_matches_dense_scan(self):
        result = optimize_t("Bprime", 10, 12.0, "spin")
        ts = np.linspace(0.0, 1.0, 2001)
        dense = max(
            evaluate_point("Bprime", 10, 12.0, float(t), "spin").sensitivity
            for t in ts
        )
        assert result.best_sensitivity >= dense - 1e-7
        assert result.boundary == "interior"

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            optimize_t("B", 4, 1.0, "spin", t_grid=2)

    def test_result_validates_tags(self):
        with pytest.raises(ValueError):
            OptimumResult(
                twist_value=1.0,
                best_sensitivity=1.0,
                t_opt=0.5,
                boundary="middle",
            )
        with pytest.raises(ValueError):
            OptimumResult(
                twist_value=1.0,
                best_sensitivity=1.0,
                t_opt=1.5,
                boundary="interior",
            )


class TestFindThreshold:
    def test_finite_spin_threshold_exceeds_infinite_limit(self):
        # Finite-size cosine attenuation pushes the ten-spin echo
        # threshold well above the infinite-N value of 8.
        thr = find_threshold("Bprime", 10, "spin", (1.0, 20.0), t_grid=101)
        assert 11.0 < thr < 12.0

    def test_rejects_interval_that_never_crosses(self):
        with pytest.raises(BracketingError):
            find_threshold("Bprime", None, "closed_form", (0.5, 2.0))

    def test_rejects_interval_already_above(self):
        with pytest.raises(BracketingError):
            find_threshold("C", None, "closed_form", (1.0, 5.0))

    def test_rejects_malformed_interval(self):
        with pytest.raises(ValueError):
            find_threshold("B", None, "closed_form", (2.0, 1.0))
        with pytest.raises(ValueError):
            find_threshold("B", None, "closed_form", (-1.0, 2.0))

    @pytest.mark.parametrize(
        "interval", [(0.1, 1.0, 7.0), (0.1,)], ids=["three-ends", "one-end"]
    )
    def test_rejects_an_interval_that_is_not_two_numbers(self, interval):
        # A third end is refused, not dropped; a lone end is refused by name.
        with pytest.raises(ValueError, match="search_interval must be two numbers"):
            find_threshold("B", None, "closed_form", interval)

    @pytest.mark.parametrize(
        "interval",
        [(None, 1.0), ("0.1", 1.0), (False, True)],
        ids=["None", "str", "bool"],
    )
    def test_rejects_an_interval_end_that_is_not_a_real_number(self, interval):
        # Refused by name before any conversion, not by float(); a bool is
        # not a twist, though it compares as 0 or 1.
        with pytest.raises(ValueError, match="search_interval must be .*real numbers"):
            find_threshold("B", 4, "spin", interval)


def _count_pipeline_sizes(monkeypatch) -> list[int]:
    sizes = []
    run_pipeline = metrology.run_pipeline

    def counted(mode, scheme, twist, sensing_fraction):
        sizes.append(np.size(sensing_fraction))
        return run_pipeline(mode, scheme, twist, sensing_fraction)

    monkeypatch.setattr(metrology, "run_pipeline", counted)
    return sizes


def _refinement_sizes(scheme, n, twist, t_grid, depth, engine="spin"):
    """The curve calls of ``optimize_t``'s refinement at this lookahead
    depth: the two first points, then 2^depth - 1 points per depth steps,
    then 2^r - 1 for the r steps left."""
    ts = np.linspace(0.0, 1.0, t_grid)
    spec = SweepSpec(scheme, n, (twist,), t_grid, engine)
    vals = [r.sensitivity for r in sweep_curve(spec)]
    idx = sweep_optimize._grid_best(vals)
    width = float(ts[min(idx + 1, t_grid - 1)]) - float(ts[max(idx - 1, 0)])
    steps = ceil(log(1e-6 / width) / log(sweep_optimize._INV_PHI))
    full, rest = divmod(steps, depth)
    return [2] + [2**depth - 1] * full + ([2**rest - 1] if rest else [])


@pytest.mark.parametrize("t_grid", [3, 21, 201])
def test_spin_grids_of_all_twists_are_one_pipeline_call(monkeypatch, t_grid):
    sizes = _count_pipeline_sizes(monkeypatch)
    sweep_curve(SweepSpec("Bprime", 6, (2.0, 5.0, 8.0), t_grid=t_grid))
    assert sizes == [3 * t_grid]
    expected = _refinement_sizes("B", 6, 1.0, t_grid, sweep_optimize.LOOKAHEAD)
    sizes.clear()
    # The grid is one call; the golden-section refinement evaluates the
    # candidates of LOOKAHEAD steps per call.
    optimize_t("B", 6, 1.0, "spin", t_grid)
    assert sizes == [t_grid] + expected


@pytest.mark.parametrize("t_grid", [3, 21, 201])
def test_the_refinements_of_several_twists_run_in_lockstep(monkeypatch, t_grid):
    # One call for every grid, then one per round holding the candidates of
    # every twist still refining; each twist makes the calls it makes alone
    # (an edge optimum brackets one grid spacing, so it may take fewer).
    twists = (0.5, 1.0, 2.0)
    alone = [
        _refinement_sizes("B", 6, x, t_grid, sweep_optimize.LOOKAHEAD) for x in twists
    ]
    sizes = _count_pipeline_sizes(monkeypatch)
    together = sweep_optimize.optimize_sweep(SweepSpec("B", 6, twists, t_grid))
    assert sizes == [3 * t_grid] + [sum(r) for r in zip_longest(*alone, fillvalue=0)]
    for got, want in zip(together, [optimize_t("B", 6, x, "spin", t_grid) for x in twists]):
        assert (got.twist_value, got.t_opt, got.boundary) == (
            want.twist_value, want.t_opt, want.boundary
        )
        assert got.best_sensitivity == pytest.approx(want.best_sensitivity, rel=1e-15)


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_spin_refinement_batches_follow_the_lookahead(monkeypatch, depth):
    expected = _refinement_sizes("C", 8, 0.7, 21, depth)
    monkeypatch.setattr(sweep_optimize, "LOOKAHEAD", depth)
    sizes = _count_pipeline_sizes(monkeypatch)
    optimum = optimize_t("C", 8, 0.7, "spin", 21)
    assert sizes == [21] + expected
    monkeypatch.setattr(sweep_optimize, "LOOKAHEAD", 1)
    sequential = optimize_t("C", 8, 0.7, "spin", 21)
    assert optimum.t_opt == sequential.t_opt
    assert optimum.best_sensitivity == pytest.approx(
        sequential.best_sensitivity, rel=1e-12
    )


def test_a_large_sector_refines_lookahead_steps_per_call(monkeypatch):
    # Every spin sector batches its refinement, however many levels it has.
    expected = _refinement_sizes("B", 1001, 1.0, 21, sweep_optimize.LOOKAHEAD)
    sizes = _count_pipeline_sizes(monkeypatch)
    optimize_t("B", 1001, 1.0, "spin", 21)
    assert sizes == [21] + expected


def test_fock_refinement_is_one_simulation_per_point(monkeypatch):
    # A Fock curve runs point by point, so its refinement keeps depth 1: one
    # simulation for each point the search asks for, none speculative.
    expected = _refinement_sizes("B", None, 0.5, 5, 1, engine="fock")
    points = []
    simulate = sweep_optimize.fock_simulate

    def counted(scheme, twist, t):
        points.append(t)
        return simulate(scheme, twist, t)

    monkeypatch.setattr(sweep_optimize, "fock_simulate", counted)
    optimize_t("B", None, 0.5, "fock", 5)
    assert points[:5] == list(np.linspace(0.0, 1.0, 5))
    assert len(points) == 5 + sum(expected)
    assert len(set(points[5:])) == sum(expected)


def test_a_curve_wider_than_the_block_budget_is_split(monkeypatch):
    whole = sweep_curve(SweepSpec("Bprime", 9, (8.0,), t_grid=25))
    sizes = _count_pipeline_sizes(monkeypatch)
    # Ten amplitudes per block: one column of the 10-level sector per call.
    monkeypatch.setattr(sweep_optimize, "CURVE_BLOCK_AMPLITUDES", 10)
    split = sweep_curve(SweepSpec("Bprime", 9, (8.0,), t_grid=25))
    assert sizes == [1] * 25
    assert [r.sensing_fraction for r in split] == [r.sensing_fraction for r in whole]
    for a, b in zip(split, whole):
        assert abs(a.sensitivity - b.sensitivity) <= 1e-12


@pytest.mark.parametrize("scheme, twist", [("B", 1.0), ("C", 0.7), ("Cprime", 8.0)])
def test_spin_sweep_equals_pointwise_evaluation(scheme, twist):
    records = sweep_curve(SweepSpec(scheme, 9, (0.0, twist), t_grid=7))
    ts = np.linspace(0.0, 1.0, 7)
    expected = [
        evaluate_point(scheme, 9, x, float(t), "spin") for x in (0.0, twist) for t in ts
    ]
    for got, want in zip(records, expected, strict=True):
        assert (got.twist_strength, got.sensing_fraction, got.method) == (
            want.twist_strength, want.sensing_fraction, want.method
        )
        assert abs(got.sensitivity - want.sensitivity) <= 1e-12 * max(
            abs(want.sensitivity), 1.0
        )


class TestStagedThresholdStep:
    def test_a_step_decided_by_the_coarse_pass_refines_nothing(self, monkeypatch):
        sizes = _count_pipeline_sizes(monkeypatch)
        # Well above the ten-spin echo threshold (about 11.5): every 10th of
        # 201 grid points, both ends included, already beats the benchmark.
        assert sweep_optimize._beats_benchmark("Bprime", 10, 14.0, "spin", 201)
        assert sizes == [21]

    def test_a_step_decided_by_the_full_grid_refines_nothing(self, monkeypatch):
        sizes = _count_pipeline_sizes(monkeypatch)
        # Just past the ten-spin echo threshold the curve beats 1 (by 3e-3)
        # only near t/tau = 0.625; the coarse samples at 0.6 and 0.65 do not.
        curve = sweep_curve(SweepSpec("Bprime", 10, (11.6,), t_grid=201))
        values = [r.sensitivity for r in curve]
        assert max(values[::10]) < 1.0 < max(values)
        sizes.clear()
        assert sweep_optimize._beats_benchmark("Bprime", 10, 11.6, "spin", 201)
        assert sizes == [21, 201]

    def test_a_step_below_the_benchmark_costs_one_refinement(self, monkeypatch):
        sizes = _count_pipeline_sizes(monkeypatch)
        optimum = optimize_t("Bprime", 10, 9.0, "spin", 201)
        assert optimum.best_sensitivity < 1.0
        refinement = sizes[1:]
        assert refinement == _refinement_sizes(
            "Bprime", 10, 9.0, 201, sweep_optimize.LOOKAHEAD
        )
        sizes.clear()
        assert not sweep_optimize._beats_benchmark("Bprime", 10, 9.0, "spin", 201)
        assert sizes == [21, 201] + refinement

class TestTGridValidation:
    @pytest.mark.parametrize("t_grid", [3.5, 5.0, True, "21", None])
    def test_optimize_and_spec_reject_non_integer_grids(self, t_grid):
        with pytest.raises(ValueError, match="t_grid"):
            optimize_t("B", 4, 1.0, "spin", t_grid=t_grid)
        with pytest.raises(ValueError, match="t_grid"):
            SweepSpec("B", 4, (1.0,), t_grid=t_grid)

    @pytest.mark.parametrize("t_grid", [2, 3.5, False])
    def test_threshold_rejects_the_grid_before_evaluating(self, monkeypatch, t_grid):
        def unexpected(*args):
            raise AssertionError("evaluated before validating t_grid")

        monkeypatch.setattr(sweep_optimize, "_curve", unexpected)
        with pytest.raises(ValueError, match="t_grid"):
            find_threshold("Bprime", 10, "spin", (9.0, 14.0), t_grid=t_grid)

    def test_a_grid_past_the_limit_is_refused_before_evaluating(self, monkeypatch):
        def unexpected(*args):
            raise AssertionError("evaluated before validating t_grid")

        monkeypatch.setattr(sweep_optimize, "_curve", unexpected)
        # Spacing 1e-6, the refinement tolerance; the spec only validates.
        assert sweep_optimize.MAX_T_GRID == 1_000_001
        SweepSpec("B", 4, (1.0,), t_grid=1_000_001)
        for t_grid in (1_000_002, 100_000_000):
            with pytest.raises(ValueError, match="1000001"):
                SweepSpec("B", 4, (1.0,), t_grid=t_grid)
            with pytest.raises(ValueError, match="1000001"):
                optimize_t("B", 4, 1.0, "spin", t_grid=t_grid)
            with pytest.raises(ValueError, match="1000001"):
                find_threshold("Bprime", 10, "spin", (9.0, 14.0), t_grid=t_grid)

    def test_numpy_integer_grids_are_accepted(self):
        spec = SweepSpec("B", 4, (1.0,), t_grid=np.int64(5))
        assert len(sweep_curve(spec)) == 5
        assert optimize_t("B", 4, 1.0, "spin", t_grid=np.int64(5)) == optimize_t(
            "B", 4, 1.0, "spin", t_grid=5
        )


def _sequential_golden_section(f, a, b, tol):
    """The search one point per step: the reference every depth replays."""
    inv_phi, inv_phi2 = sweep_optimize._INV_PHI, sweep_optimize._INV_PHI2
    h = b - a
    if h <= tol:
        mid = (a + b) / 2.0
        return mid, f(mid)
    steps = ceil(log(tol / h) / log(inv_phi))
    c = a + inv_phi2 * h
    d = a + inv_phi * h
    yc = f(c)
    yd = f(d)
    for _ in range(steps):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= inv_phi
            c = a + inv_phi2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= inv_phi
            d = a + inv_phi * h
            yd = f(d)
    return (c, yc) if yc > yd else (d, yd)


GOLDEN_FUNCTIONS = {
    "parabola": lambda t: -((t - 0.31415) ** 2),
    # Exact ties yc == yd wherever both points sit on the flat top.
    "plateau": lambda t: 1.0 if 0.305 <= t <= 0.3125 else 0.5 - abs(t - 0.31),
    "step": lambda t: float(floor(t * 2000.0)),
    "left-step": lambda t: -float(floor(t * 2000.0)),
}


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(GOLDEN_FUNCTIONS))
@pytest.mark.parametrize(
    "a, b", [(0.3, 0.32), (0.0, 0.005), (0.99, 1.0), (0.5, 0.5 + 5e-7)],
    ids=["inner", "left-edge", "right-edge", "within-tol"],
)
def test_batched_golden_section_replays_the_sequential_search(name, depth, a, b):
    f = GOLDEN_FUNCTIONS[name]
    calls = []

    def batched(asks):
        ((_, points),) = asks
        calls.append(len(points))
        return [f(float(t)) for t in points]

    search = sweep_optimize._golden_section(a, b, 1e-6, depth)
    (got,) = sweep_optimize._lockstep(batched, [search])
    want = _sequential_golden_section(f, a, b, 1e-6)
    assert got == want
    if b - a <= 1e-6:
        assert calls == [1]
    else:
        steps = ceil(log(1e-6 / (b - a)) / log(sweep_optimize._INV_PHI))
        full, rest = divmod(steps, depth)
        assert calls == [2] + [2**depth - 1] * full + ([2**rest - 1] if rest else [])
