"""Outer-loop numerics: curves over the sensing fraction, optima, thresholds.

Three interchangeable engines evaluate a (scheme, twist, t/tau) point:

  spin          exact finite-N Dicke simulation,
  fock          truncated-Fock bosonic simulation (infinite N),
  closed_form   the analytic infinite-N expressions.

On top of them sit a deterministic grid sweep, a grid-then-refine
optimizer over the sensing fraction, and a bisection search for the
break-even twist strength where a protocol first beats the separable
benchmark of 1. ``_curve`` is the one place that dispatches on the
engine: it binds a scheme to its engine and returns the function from
(twist, sensing fraction) columns to their sensitivities, a float array,
with the depth at which its refinement batches. The spin engine computes
any set of columns, whichever twists they hold, in one pipeline call
(``metrology.readout`` with one twist per column; a few calls for sets
too wide for CURVE_BLOCK_AMPLITUDES), the other engines point by point.
So a sweep or an optimize over several twists evaluates the grids of all
of them together. The optimizer and the threshold search work on those
values; a sweep and ``evaluate_point``, a curve of one point, make records
of them. The golden-section refinements of the optimizer go through the
same bound curve, every twist's in lockstep (``_lockstep``): on the spin
engine each call evaluates every point that any outcome of the next
LOOKAHEAD steps of every twist can ask for, and each twist replays its
own steps on those values, so it visits the same points as a search one
point per step and one twist at a time.

A bisection step needs one bit, whether the optimum beats the benchmark,
and the optimum is never below the tie-broken grid best. So a step stops
at the first stage that decides it: a coarse subset of the grid, then the
full grid, and only then the refinement (see ``_beats_benchmark``).

Every evaluation is a pure function of its arguments, and results come in
a deterministic order: twist outer, sensing fraction inner, both
ascending.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass
from functools import partial
from math import ceil, isfinite, log, sqrt
from numbers import Real
from typing import NamedTuple

import numpy as np

from .bosonic_limit import closed_form, fock_simulate
from .errors import BracketingError
from .metrology import SCHEME_METHOD, SensitivityRecord, _nonnegative, readout
from .protocols import check_point, check_twist, spin_mode
from .spin_core import DickeSpace

ENGINES = ("spin", "fock", "closed_form")
BOUNDARY_TAGS = ("interior", "left_edge", "right_edge")

# Strict excess over the separable benchmark required to count as an
# advantage; the sequential scheme approaches 1 from below at full sensing
# time, so plain equality must not qualify.
BENCHMARK_MARGIN = 1e-9

# Largest number of amplitudes in one (d, K) block of a spin curve call,
# whose K columns are the concatenated grids of all the twists it
# evaluates; wider sets take several calls, which may split one twist's
# grid. One 201-point grid is one call up to N = 2607. Under tracemalloc a
# warm 201-point call peaks at about 1.14 complex blocks (8 MiB each) for A
# and B (all real), 4.50 for Bprime, 5.5-5.7 for C and 8.06 for Cprime at
# N = 300-2000, so the peak of a call is a fixed multiple of this bound.
CURVE_BLOCK_AMPLITUDES = 2**19

# Most sensing fractions a grid may hold. Each point of a sweep keeps a
# record of about 215 bytes, so this bounds a grid's memory near 215 MB;
# its spacing, 1e-6, is the refinement's own tolerance, so a finer grid
# would buy nothing.
MAX_T_GRID = 1_000_001

# Grid samples within TIE_WINDOW of the grid maximum, relative to it, tie;
# the largest sensing fraction among them wins. The window is TIE_WINDOW
# times the maximum plus TIE_FLOOR, so it never falls below 1e-15 and a
# curve made only of roundoff (Bprime and Cprime at N = 1, below 2e-16)
# still ties to the right edge.
TIE_WINDOW = 1e-12
TIE_FLOOR = 1e-3

# Stride of the coarse first pass of a bisection step over the grid (every
# 10th point, both endpoints included), and a bound on how far a sample of
# that pass may sit from the same sample of the full grid. On the spin
# engine both are curves of different widths, whose columns agree to
# roundoff: at most 1.5e-15 relative over schemes B, C, Bprime and Cprime at
# N = 10-1000. Fock and closed-form curves go point by point and agree
# exactly.
COARSE_STRIDE = 10
COARSE_SLACK = 1e-13

# Golden-section steps whose candidate points a spin refinement evaluates in
# one curve call (2^LOOKAHEAD - 1 points per call), whatever the sector's
# size. Depth 3 over depth 1, warm refinements from a 201-point grid (B, C
# at twist 1, echoes at 8; one BLAS thread, median of 15 runs). An echo
# call in the one-axis frame costs in proportion to its columns:
#   N       40    300   1001  2000  3000  4000
#   B       0.44  0.50  0.65  0.60  0.62  0.79
#   C       0.43  0.57  0.92  0.87  0.68  0.62
#   Bprime  0.42  0.56  0.76  0.92  1.31  1.42
#   Cprime  0.43  0.62  0.94  1.35  1.71  1.78
# The echoes lose from N = 2000-3000, above every benchmark workload, by
# at most 9 ms a refinement (20.6 against 11.6 ms for Cprime at 4000).
LOOKAHEAD = 3

_INV_PHI = (sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - sqrt(5.0)) / 2.0


def _validate_engine(n_spins: int | None, engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "spin":
        if n_spins is None:
            raise ValueError("the spin engine requires a finite n_spins")
        DickeSpace(n_spins)
    elif n_spins is not None:
        raise ValueError(
            f"the {engine} engine is the infinite-N limit; n_spins must be None"
        )


def _validate_t_grid(t_grid: int) -> None:
    if isinstance(t_grid, bool) or not isinstance(t_grid, (int, np.integer)):
        raise ValueError(f"t_grid must be an integer, got {t_grid!r}")
    if not 3 <= t_grid <= MAX_T_GRID:
        raise ValueError(f"t_grid must lie in [3, {MAX_T_GRID}], got {t_grid}")


@dataclass(frozen=True)
class SweepSpec:
    """A sweep or optimize request: one scheme, several twists, a t/tau grid.

    ``n_spins`` is None for the infinite-N engines (fock, closed_form) and
    a positive integer for the spin engine.
    """

    scheme: str
    n_spins: int | None
    twist_values: tuple[float, ...]
    t_grid: int = 201
    engine: str = "spin"

    def __post_init__(self) -> None:
        _validate_engine(self.n_spins, self.engine)
        twists = tuple(self.twist_values)
        if not twists:
            raise ValueError("twist_values must be nonempty")
        for x in twists:
            check_twist(self.scheme, x)
        object.__setattr__(self, "twist_values", tuple(float(x) for x in twists))
        _validate_t_grid(self.t_grid)


@dataclass(frozen=True)
class OptimumResult:
    """Best sensitivity over the sensing fraction at one twist value."""

    twist_value: float
    best_sensitivity: float
    t_opt: float
    boundary: str

    def __post_init__(self) -> None:
        if self.boundary not in BOUNDARY_TAGS:
            raise ValueError(f"unknown boundary tag {self.boundary!r}")
        if not 0.0 <= self.t_opt <= 1.0:
            raise ValueError(f"t_opt must lie in [0, 1], got {self.t_opt}")


class _Curve(NamedTuple):
    """A scheme bound to its engine: ``evaluate`` maps the twists of the
    columns (one float for all, or a 1-D array of one per column) and a 1-D
    array of sensing fractions to a float array of their sensitivities, in
    order, each checked >= 0; ``lookahead`` is the golden-section depth its
    refinement evaluates in one call; ``record`` makes the record of one
    (twist_strength, sensing_fraction, sensitivity) column."""

    evaluate: Callable[..., np.ndarray]
    lookahead: int
    record: Callable[..., SensitivityRecord]

    def records(self, xs: np.ndarray, ts: np.ndarray) -> list[SensitivityRecord]:
        """The records of the columns (xs, ts), in order."""
        values = self.evaluate(xs, ts).tolist()
        return [
            self.record(twist_strength=x, sensing_fraction=t, sensitivity=value)
            for x, t, value in zip(xs.tolist(), ts.tolist(), values)
        ]


def _grids(twists, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns (twists, sensing fractions) of the grid ``ts`` at every
    twist, twist outer."""
    return np.repeat(np.asarray(twists, dtype=float), len(ts)), np.tile(ts, len(twists))


def _pointwise(value: Callable, xs, ts: np.ndarray) -> np.ndarray:
    """value(x, t) of every column, one twist for all or one per column."""
    pairs = zip(np.broadcast_to(xs, ts.shape).tolist(), ts.tolist())
    return np.array([value(x, t) for x, t in pairs])


def evaluate_point(
    scheme: str,
    n_spins: int | None,
    twist_value: float,
    sensing_fraction: float,
    engine: str,
) -> SensitivityRecord:
    """One sensitivity evaluation through the chosen engine: a curve of one
    point."""
    _validate_engine(n_spins, engine)
    check_point(scheme, twist_value, sensing_fraction)
    (record,) = _curve(scheme, n_spins, engine).records(
        np.array([twist_value], dtype=float), np.array([sensing_fraction], dtype=float)
    )
    return record


def _curve(scheme: str, n_spins: int | None, engine: str) -> _Curve:
    """A scheme bound to its engine, as a ``_Curve``.

    The one engine dispatch. Everything that depends only on the scheme and
    the engine (the Dicke sector and its mode) is built here, once, so a
    refinement call pays only the readout; the callers check the twists.
    The spin engine runs any set of columns, one twist per column, through
    one pipeline call per CURVE_BLOCK_AMPLITUDES block (one call for all
    but huge sets), so its refinement evaluates LOOKAHEAD steps' candidates
    at a time. The Fock and closed-form engines evaluate point by point, so
    a speculative point would cost a whole simulation: theirs evaluates the
    one point each step asks for. The Fock engine runs on
    ``fock_simulate``'s default space. Every engine hands back bare values;
    records are made only where a caller asks for them.
    """
    method = SCHEME_METHOD[scheme]
    if engine == "fock":
        return _Curve(
            partial(_pointwise, lambda x, t: fock_simulate(scheme, x, t).sensitivity),
            1,
            partial(SensitivityRecord, scheme, None, method=method),
        )
    if engine == "closed_form":
        return _Curve(
            lambda xs, ts: _nonnegative(
                _pointwise(partial(closed_form, scheme), xs, ts)
            ),
            1,
            partial(SensitivityRecord, scheme, None, method="closed_form"),
        )
    space = DickeSpace(n_spins)
    mode = spin_mode(space)
    width = max(1, CURVE_BLOCK_AMPLITUDES // space.dim)

    def curve(xs, ts: np.ndarray) -> np.ndarray:
        blocks = []
        for start in range(0, len(ts), width):
            x = xs[start : start + width] if isinstance(xs, np.ndarray) else xs
            blocks.append(readout(mode, scheme, x, ts[start : start + width]))
        return np.concatenate(blocks)

    return _Curve(
        curve,
        LOOKAHEAD,
        partial(SensitivityRecord, scheme, space.n_spins, method=method),
    )


def sweep_curve(spec: SweepSpec) -> list[SensitivityRecord]:
    """Evaluate the full grid of a spec, twist outer, t/tau inner: the grids
    of all its twists as one set of columns."""
    ts = np.linspace(0.0, 1.0, spec.t_grid)
    curve = _curve(spec.scheme, spec.n_spins, spec.engine)
    return curve.records(*_grids(spec.twist_values, ts))


def _advance(a: float, h: float, c: float, d: float, left: bool) -> tuple:
    """One golden-section step: the bracket start a, width h and inner points
    c < d after keeping the left part [a, d] or the right part [c, a + h].
    The one new inner point is c after a left step and d after a right one."""
    h *= _INV_PHI
    if left:
        return a, h, a + _INV_PHI2 * h, c
    return c, h, d, c + _INV_PHI * h


def _lookahead(a: float, h: float, c: float, d: float, left: bool, depth: int) -> list:
    """The new points of ``depth`` steps from a step whose side is known:
    its own point, then those of every outcome of the steps after it
    (2^depth - 1 points)."""
    a, h, c, d = _advance(a, h, c, d, left)
    points = [c if left else d]
    if depth > 1:
        for side in (True, False):
            points += _lookahead(a, h, c, d, side, depth - 1)
    return points


def _golden_section(a: float, b: float, tol: float, depth: int) -> Generator:
    """Golden-section maximum of a unimodal f on [a, b] to width tol, as a
    search that yields each 1-D array of points it needs, is sent their
    values (a list), and returns (t, value).

    The first two points are one request; after that each request holds
    every point that any outcome of the next ``depth`` steps can ask for
    (2^depth - 1 points, fewer steps at the end), and the steps are
    replayed on those values. Every depth takes the same steps through the
    same points as depth 1, which asks for the one point each step needs.
    """
    h = b - a
    if h <= tol:
        mid = (a + b) / 2.0
        (value,) = yield np.array([mid])
        return mid, value
    steps = ceil(log(tol / h) / log(_INV_PHI))
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = yield np.array([c, d])
    while steps:
        batch = min(depth, steps)
        points = _lookahead(a, h, c, d, yc > yd, batch)
        known = dict(zip(points, (yield np.array(points))))
        for _ in range(batch):
            left = yc > yd
            a, h, c, d = _advance(a, h, c, d, left)
            yc, yd = (known[c], yc) if left else (yd, known[d])
        steps -= batch
    # On ties prefer the right sample, consistent with the grid tie-break.
    return (c, yc) if yc > yd else (d, yd)


def _lockstep(f, searches: list[Generator]) -> list:
    """The results of ``_golden_section`` searches run side by side.

    Each round makes one call of f with the (index, points) requests of
    every search still running, in order, and f returns their values as
    one flat sequence; each search is sent its own slice. A search only
    ever sees its own values, so it takes exactly the steps it takes
    alone.
    """
    results: list = [None] * len(searches)
    asks = {i: next(search) for i, search in enumerate(searches)}
    while asks:
        values = f(list(asks.items()))
        start = 0
        for i, points in list(asks.items()):
            part, start = values[start : start + len(points)], start + len(points)
            try:
                asks[i] = searches[i].send(part)
            except StopIteration as done:
                results[i] = done.value
                del asks[i]
    return results


def _tie(value: float) -> float:
    """How far a sample may sit below ``value`` and still tie with it."""
    return TIE_WINDOW * (abs(value) + TIE_FLOOR)


def _grid_best(vals: list[float]) -> int:
    """Index of the best grid sample: the largest index within ``_tie`` of
    the maximum (least preparation among equals)."""
    top = max(vals)
    floor = top - _tie(top)
    return next(i for i in range(len(vals) - 1, -1, -1) if vals[i] >= floor)


def _refine(
    curve: _Curve,
    twists,
    ts: np.ndarray,
    grids: list[list[float]],
    bests: list[int],
) -> list[tuple[float, float]]:
    """Golden-section refinement of each twist's grid best within its
    neighbouring grid points, all twists in lockstep (``_lockstep``), each
    round one call of ``curve`` with ``curve.lookahead`` steps' candidates
    of every twist still refining.

    ``grids`` holds each twist's values on ``ts`` and ``bests`` the index
    of its grid best (``_grid_best``). Returns (t, value) per twist. The
    refined point replaces the grid best only when better than it by more
    than ``_tie`` of it, so the value is never below the grid best.
    """
    searches = []
    for idx in bests:
        lo = float(ts[idx - 1]) if idx > 0 else float(ts[0])
        hi = float(ts[idx + 1]) if idx < len(ts) - 1 else float(ts[-1])
        searches.append(_golden_section(lo, hi, 1e-6, curve.lookahead))

    def f(asks: list) -> list[float]:
        # A round of one twist passes that twist alone, broadcast.
        if len(asks) == 1:
            xs = twists[asks[0][0]]
        else:
            xs = np.concatenate([np.full(len(points), twists[i]) for i, points in asks])
        ts = np.concatenate([points for _, points in asks])
        return curve.evaluate(xs, ts).tolist()

    refined = _lockstep(f, searches)
    return [
        (t, value)
        if value > vals[idx] + _tie(vals[idx])
        else (float(ts[idx]), vals[idx])
        for vals, idx, (t, value) in zip(grids, bests, refined)
    ]


def optimize_sweep(spec: SweepSpec) -> list[OptimumResult]:
    """Best sensitivity over the sensing fraction at each twist of a spec,
    in order.

    A uniform grid of spec.t_grid points (endpoints included as
    first-class candidates) brackets each maximum; the grids of all twists
    are one set of columns, as ``sweep_curve`` evaluates them.
    Golden-section refinement then narrows each bracket to a
    sensing-fraction width of 1e-6, every twist's in lockstep (``_refine``);
    each twist visits the points it visits alone. Curves can be multimodal
    for over-squeezed finite-N regimes, which is what the grid stage guards
    against. If several grid points tie within 1e-12 of the maximum,
    relative to it, the largest sensing fraction wins (least preparation
    among equals); the refined point replaces the grid best only when
    better by more than that, so exact grid optima (edges included) survive
    untouched. The returned value is never below the best grid sample.
    """
    curve = _curve(spec.scheme, spec.n_spins, spec.engine)
    return _optimize(curve, spec.twist_values, spec.t_grid)


def _optimize(curve: _Curve, twists, t_grid: int) -> list[OptimumResult]:
    """``optimize_sweep`` of these twists through this curve."""
    ts = np.linspace(0.0, 1.0, t_grid)
    values = curve.evaluate(*_grids(twists, ts)).tolist()
    grids = [values[i : i + t_grid] for i in range(0, len(values), t_grid)]
    results = []
    bests = [_grid_best(vals) for vals in grids]
    for x, (t, value) in zip(twists, _refine(curve, twists, ts, grids, bests)):
        if t <= 1e-9:
            boundary = "left_edge"
        elif t >= 1.0 - 1e-9:
            boundary = "right_edge"
        else:
            boundary = "interior"
        results.append(OptimumResult(x, value, t, boundary))
    return results


def optimize_t(
    scheme: str,
    n_spins: int | None,
    twist_value: float,
    engine: str,
    t_grid: int = 201,
) -> OptimumResult:
    """Best sensitivity over the sensing fraction at one twist value: the
    ``optimize_sweep`` of one twist (default 201 grid points)."""
    spec = SweepSpec(scheme, n_spins, (twist_value,), t_grid, engine)
    (result,) = optimize_sweep(spec)
    return result


def find_threshold(
    scheme: str,
    n_spins: int | None,
    engine: str,
    search_interval: tuple[float, float],
    t_grid: int = 201,
) -> float:
    """Smallest twist strength whose optimized sensitivity beats 1.

    Bisection on the twist strength with the predicate "``optimize_t``'s
    best sensitivity exceeds 1 + 1e-9", to an absolute tolerance of 1e-3.
    The interval must bracket the change: the predicate must be false at the
    lower end and true at the upper end.

    Each step evaluates only what decides the predicate (see
    ``_beats_benchmark``): a coarse tenth of the t_grid points, then the
    full grid, then the golden-section refinement, stopping at the first
    stage that beats the benchmark. A step that does not beat it costs
    exactly one ``optimize_t``; the answers, and so the threshold, are the
    same as bisecting on ``optimize_t`` itself.
    """
    _validate_engine(n_spins, engine)
    _validate_t_grid(t_grid)
    try:
        lo, hi = search_interval
    except (TypeError, ValueError):
        raise ValueError(
            f"search_interval must be two numbers (lo, hi), got {search_interval!r}"
        ) from None
    ends_real = all(
        isinstance(x, Real) and not isinstance(x, bool) and isfinite(x)
        for x in (lo, hi)
    )
    if not ends_real or not 0.0 <= lo < hi:
        raise ValueError(
            "search_interval must be finite real numbers with 0 <= lo < hi, "
            f"got ({lo!r}, {hi!r})"
        )
    lo, hi = float(lo), float(hi)
    check_twist(scheme, hi)

    def exceeds(x: float) -> bool:
        return _beats_benchmark(scheme, n_spins, x, engine, t_grid)

    if exceeds(lo):
        raise BracketingError(
            f"optimized sensitivity already beats the benchmark at twist {lo}"
        )
    if not exceeds(hi):
        raise BracketingError(
            f"optimized sensitivity never beats the benchmark up to twist {hi}"
        )
    while hi - lo > 1e-3:
        mid = (lo + hi) / 2.0
        if exceeds(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0


def _beats_benchmark(
    scheme: str, n_spins: int | None, twist_value: float, engine: str, t_grid: int
) -> bool:
    """Whether ``optimize_t(...).best_sensitivity > 1 + BENCHMARK_MARGIN``,
    evaluating only what decides it.

    ``optimize_t`` never returns less than its tie-broken grid best, which
    is within ``_tie`` of the grid maximum. So, in three stages:

    1. a coarse pass over every COARSE_STRIDE-th grid point and both
       endpoints, as one curve: a sample above the goal by more than its
       ``_tie`` and COARSE_SLACK puts the tie-broken grid best above it;
    2. the full grid, as ``optimize_t`` evaluates it: its tie-broken best
       above the goal decides;
    3. ``optimize_t``'s refinement from that grid, compared with the goal.
    """
    goal = 1.0 + BENCHMARK_MARGIN
    curve = _curve(scheme, n_spins, engine)
    ts = np.linspace(0.0, 1.0, t_grid)
    coarse = ts[[*range(0, t_grid - 1, COARSE_STRIDE), t_grid - 1]]
    coarse_best = curve.evaluate(twist_value, coarse).max()
    if coarse_best > goal + _tie(coarse_best) + COARSE_SLACK:
        return True
    vals = curve.evaluate(twist_value, ts).tolist()
    idx = _grid_best(vals)
    if vals[idx] > goal:
        return True
    ((_, value),) = _refine(curve, [twist_value], ts, [vals], [idx])
    return value > goal
