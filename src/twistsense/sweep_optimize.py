"""Outer-loop numerics: curves over the sensing fraction, optima, thresholds.

Three interchangeable engines evaluate a (scheme, twist, t/tau) point:

  spin          exact finite-N Dicke simulation,
  fock          truncated-Fock bosonic simulation (infinite N),
  closed_form   the analytic infinite-N expressions.

On top of them sit a deterministic grid sweep, a grid-then-refine
optimizer over the sensing fraction, and a bisection search for the
break-even twist strength where a protocol first beats the separable
benchmark of 1. A grid of one twist is a curve, and ``_curve`` is the one
place that dispatches on the engine: it binds one twist to its engine and
returns the function from sensing fractions to their sensitivities, a
float array, with the depth at which its refinement batches. The spin
engine computes a curve in one pipeline call (``metrology.readout`` of
all its sensing fractions; a few calls for grids too wide for
CURVE_BLOCK_AMPLITUDES), the other engines point by point. The optimizer
and the threshold search work on those values; a sweep and
``evaluate_point``, a curve of one point, make records of them.
The golden-section refinement of the optimizer goes through the same
bound curve: on the spin engine, up to LOOKAHEAD_MAX_DIM levels, each
call evaluates every point that any outcome of the next LOOKAHEAD steps
can ask for, and the steps are replayed on those values, so it visits the
same points as a search one point per step.

A bisection step needs one bit, whether the optimum beats the benchmark,
and the optimum is never below the tie-broken grid best. So a step stops
at the first stage that decides it: a coarse subset of the grid, then the
full grid, and only then the refinement (see ``_beats_benchmark``).

Every evaluation is a pure function of its arguments, and results come in
a deterministic order: twist outer, sensing fraction inner, both
ascending.
"""

from __future__ import annotations

from collections.abc import Callable
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

# Largest number of amplitudes in one (d, K) block of a spin curve. A curve
# call holds at most about 1.2 such complex blocks at once for schemes A
# and B (the state, its derivative and scratch, all real), 4.2 for Bprime,
# 7 for C and 10.2 for Cprime (tracemalloc peaks at N = 300, 201 points),
# so this bounds its memory (8 MiB a complex block) whatever the grid;
# wider grids take several pipeline calls. A 201-point grid is one call up
# to N = 2607.
CURVE_BLOCK_AMPLITUDES = 2**19

# Most sensing fractions a grid may hold. Each point of a sweep keeps a
# record of about 215 bytes, so this bounds a grid's memory near 215 MB;
# its spacing, 1e-6, is the refinement's own tolerance, so a finer grid
# would buy nothing.
MAX_T_GRID = 1_000_001

# Grid samples within this much of the grid maximum tie; the largest sensing
# fraction among them wins.
TIE_WINDOW = 1e-12

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
# one curve call (2^LOOKAHEAD - 1 points per call), on sectors of at most
# LOOKAHEAD_MAX_DIM levels. A call costs a fixed part plus a part per
# column. Measured on one BLAS thread (warm refinements of all four
# twisted schemes), a refinement at depth 3 takes 0.42-0.76x the time of
# depth 1 up to N = 300 and 0.67-0.99x at N = 1000; at N = 2000 the extra
# columns cost more than the calls saved for the echo schemes (Bprime
# 1.08x, Cprime 1.12x), so larger sectors evaluate the one point each
# step asks for.
LOOKAHEAD = 3
LOOKAHEAD_MAX_DIM = 1001

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
    """A full curve request: one scheme, several twists, a t/tau grid.

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
    """One twist bound to its engine: ``evaluate`` maps a 1-D array of
    sensing fractions to a float array of their sensitivities, in order,
    each checked >= 0; ``lookahead`` is the golden-section depth its
    refinement evaluates in one call; ``record`` makes the record of one
    (sensing_fraction, sensitivity) pair."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    lookahead: int
    record: Callable[..., SensitivityRecord]

    def records(self, ts: np.ndarray) -> list[SensitivityRecord]:
        """The records of the sensing fractions ``ts``, in order."""
        return [
            self.record(sensing_fraction=t, sensitivity=value)
            for t, value in zip(ts.tolist(), self.evaluate(ts).tolist())
        ]


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
    (record,) = _curve(scheme, n_spins, twist_value, engine).records(
        np.array([sensing_fraction], dtype=float)
    )
    return record


def _curve(
    scheme: str, n_spins: int | None, twist_value: float, engine: str
) -> _Curve:
    """One twist bound to its engine, as a ``_Curve``.

    The one engine dispatch. Everything that depends only on the twist (the
    point checks of scheme and twist, the twist as a float, the Dicke sector
    and its mode) is built here, once, so a refinement call pays only the
    readout. The spin engine runs a curve through one pipeline call per
    CURVE_BLOCK_AMPLITUDES block (one call for all but huge grids), so its
    refinement evaluates LOOKAHEAD steps' candidates at a time, up to
    LOOKAHEAD_MAX_DIM levels. The Fock and closed-form engines evaluate a
    curve point by point, so theirs gains nothing from batching and
    evaluates the one point each step asks for; the Fock engine runs on
    ``fock_simulate``'s default space. Every engine hands back bare
    values; records are made only where a caller asks for them.
    """
    check_twist(scheme, twist_value)
    x = float(twist_value)
    method = SCHEME_METHOD[scheme]
    if engine == "fock":
        return _Curve(
            lambda ts: np.array(
                [fock_simulate(scheme, x, t).sensitivity for t in ts.tolist()]
            ),
            1,
            partial(SensitivityRecord, scheme, None, x, method=method),
        )
    if engine == "closed_form":
        return _Curve(
            lambda ts: _nonnegative(
                np.array([closed_form(scheme, x, t) for t in ts.tolist()])
            ),
            1,
            partial(SensitivityRecord, scheme, None, x, method="closed_form"),
        )
    space = DickeSpace(n_spins)
    mode = spin_mode(space)
    width = max(1, CURVE_BLOCK_AMPLITUDES // space.dim)

    def curve(ts: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [
                readout(mode, scheme, x, ts[start : start + width])
                for start in range(0, len(ts), width)
            ]
        )

    return _Curve(
        curve,
        LOOKAHEAD if space.dim <= LOOKAHEAD_MAX_DIM else 1,
        partial(SensitivityRecord, scheme, space.n_spins, x, method=method),
    )


def sweep_curve(spec: SweepSpec) -> list[SensitivityRecord]:
    """Evaluate the full grid of a spec, twist outer, t/tau inner."""
    ts = np.linspace(0.0, 1.0, spec.t_grid)
    return [
        record
        for x in spec.twist_values
        for record in _curve(spec.scheme, spec.n_spins, x, spec.engine).records(ts)
    ]


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


def _golden_section_max(
    f, a: float, b: float, tol: float, depth: int
) -> tuple[float, float]:
    """Golden-section maximum of a unimodal f on [a, b] to width tol.

    f maps a 1-D array of points to their values. The first two points are
    one call; after that each call evaluates every point that any outcome
    of the next ``depth`` steps can ask for (2^depth - 1 points, fewer
    steps at the end), and the steps are replayed on those values. Every
    depth takes the same steps through the same points as depth 1, which
    evaluates the one point each step asks for.
    """
    h = b - a
    if h <= tol:
        mid = (a + b) / 2.0
        return mid, f(np.array([mid]))[0]
    steps = ceil(log(tol / h) / log(_INV_PHI))
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = f(np.array([c, d]))
    while steps:
        batch = min(depth, steps)
        points = _lookahead(a, h, c, d, yc > yd, batch)
        known = dict(zip(points, f(np.array(points))))
        for _ in range(batch):
            left = yc > yd
            a, h, c, d = _advance(a, h, c, d, left)
            yc, yd = (known[c], yc) if left else (yd, known[d])
        steps -= batch
    # On ties prefer the right sample, consistent with the grid tie-break.
    return (c, yc) if yc > yd else (d, yd)


def _grid_best(vals: list[float]) -> int:
    """Index of the best grid sample: the largest index within TIE_WINDOW
    of the maximum (least preparation among equals)."""
    vmax = max(vals)
    return max(i for i, v in enumerate(vals) if v >= vmax - TIE_WINDOW)


def _refine(
    curve: _Curve, ts: np.ndarray, vals: list[float], idx: int
) -> tuple[float, float]:
    """Golden-section refinement of the grid best ``idx`` within its
    neighbouring grid points, ``curve.lookahead`` steps per call of
    ``curve``.

    Returns (t, value). The refined point replaces the grid best only when
    strictly better than it by TIE_WINDOW, so the value is never below
    ``vals[idx]``.
    """

    def f(points: np.ndarray) -> list[float]:
        return curve.evaluate(points).tolist()

    best_t, best_v = float(ts[idx]), vals[idx]
    lo = float(ts[idx - 1]) if idx > 0 else float(ts[0])
    hi = float(ts[idx + 1]) if idx < len(ts) - 1 else float(ts[-1])
    refined_t, refined_v = _golden_section_max(f, lo, hi, 1e-6, curve.lookahead)
    if refined_v > best_v + TIE_WINDOW:
        return refined_t, refined_v
    return best_t, best_v


def optimize_t(
    scheme: str,
    n_spins: int | None,
    twist_value: float,
    engine: str,
    t_grid: int = 201,
) -> OptimumResult:
    """Best sensitivity over the sensing fraction at one twist value.

    A uniform grid (default 201 points, endpoints included as first-class
    candidates, evaluated as one curve) brackets the maximum;
    golden-section refinement then narrows the bracket to a
    sensing-fraction width of 1e-6, several steps' candidates per curve
    call on spin sectors of up to LOOKAHEAD_MAX_DIM levels (see
    ``_golden_section_max``). Curves can be
    multimodal for over-squeezed finite-N regimes, which is what the grid
    stage guards against. If several grid points tie within 1e-12 the
    largest sensing fraction wins (least preparation among equals); the
    refined point replaces the grid best only when strictly better, so
    exact grid optima (edges included) survive untouched. The returned
    value is never below the best grid sample.
    """
    _validate_engine(n_spins, engine)
    _validate_t_grid(t_grid)
    curve = _curve(scheme, n_spins, twist_value, engine)
    ts = np.linspace(0.0, 1.0, t_grid)
    vals = curve.evaluate(ts).tolist()
    best_t, best_v = _refine(curve, ts, vals, _grid_best(vals))

    if best_t <= 1e-9:
        boundary = "left_edge"
    elif best_t >= 1.0 - 1e-9:
        boundary = "right_edge"
    else:
        boundary = "interior"
    return OptimumResult(
        twist_value=float(twist_value),
        best_sensitivity=best_v,
        t_opt=best_t,
        boundary=boundary,
    )


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
    is within TIE_WINDOW of the grid maximum. So, in three stages:

    1. a coarse pass over every COARSE_STRIDE-th grid point and both
       endpoints, as one curve: a sample above the goal by more than
       TIE_WINDOW + COARSE_SLACK puts the tie-broken grid best above it;
    2. the full grid, as ``optimize_t`` evaluates it: its tie-broken best
       above the goal decides;
    3. ``optimize_t``'s refinement from that grid, compared with the goal.
    """
    goal = 1.0 + BENCHMARK_MARGIN
    curve = _curve(scheme, n_spins, twist_value, engine)
    ts = np.linspace(0.0, 1.0, t_grid)
    coarse = [*range(0, t_grid - 1, COARSE_STRIDE), t_grid - 1]
    coarse_best = curve.evaluate(ts[coarse]).max()
    if coarse_best > goal + TIE_WINDOW + COARSE_SLACK:
        return True
    vals = curve.evaluate(ts).tolist()
    idx = _grid_best(vals)
    if vals[idx] > goal:
        return True
    return _refine(curve, ts, vals, idx)[1] > goal
