"""Outer-loop numerics: curves over the sensing fraction, optima, thresholds.

Three interchangeable engines evaluate a (scheme, twist, t/tau) point:

  spin          exact finite-N Dicke simulation,
  fock          truncated-Fock bosonic simulation (infinite N),
  closed_form   the analytic infinite-N expressions.

On top of them sit a deterministic grid sweep, a grid-then-refine
optimizer over the sensing fraction, and a bisection search for the
break-even twist strength where a protocol first beats the separable
benchmark of 1. A grid of one twist is a curve, and ``_curve`` is the one
place that dispatches on the engine: the spin engine computes a curve in
one pipeline call (``metrology.readout`` over all its sensing fractions; a
few calls for grids too wide for CURVE_BLOCK_AMPLITUDES), the other
engines point by point. ``evaluate_point`` is a curve of one point; the
golden-section refinement of the optimizer evaluates one at a time.

Every evaluation is a pure function of its arguments, and results come in
a deterministic order: twist outer, sensing fraction inner, both
ascending.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite, log, sqrt

import numpy as np

from .bosonic_limit import FockSpace, closed_form, fock_simulate
from .errors import BracketingError
from .metrology import SensitivityRecord, readout
from .protocols import SCHEMES, ProtocolConfig, spin_mode

ENGINES = ("spin", "fock", "closed_form")
BOUNDARY_TAGS = ("interior", "left_edge", "right_edge")

# Strict excess over the separable benchmark required to count as an
# advantage; the sequential scheme approaches 1 from below at full sensing
# time, so plain equality must not qualify.
BENCHMARK_MARGIN = 1e-9

# Largest number of amplitudes in one (d, K) block of a spin curve. A curve
# holds a few such complex blocks at once, so this bounds its memory (8 MiB
# a block) whatever the grid; wider grids take several pipeline calls. A
# 201-point grid is one call up to N = 2607.
CURVE_BLOCK_AMPLITUDES = 2**19

_INV_PHI = (sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - sqrt(5.0)) / 2.0


def _validate_engine(scheme: str, n_spins: int | None, engine: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "spin":
        if n_spins is None:
            raise ValueError("the spin engine requires a finite n_spins")
    elif n_spins is not None:
        raise ValueError(
            f"the {engine} engine is the infinite-N limit; n_spins must be None"
        )


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
        _validate_engine(self.scheme, self.n_spins, self.engine)
        twists = tuple(float(x) for x in self.twist_values)
        if not twists:
            raise ValueError("twist_values must be nonempty")
        for x in twists:
            if not isfinite(x) or x < 0:
                raise ValueError(f"twist values must be finite and >= 0, got {x!r}")
        object.__setattr__(self, "twist_values", twists)
        if self.t_grid < 3:
            raise ValueError(f"t_grid must be >= 3, got {self.t_grid}")


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


def evaluate_point(
    scheme: str,
    n_spins: int | None,
    twist_value: float,
    sensing_fraction: float,
    engine: str,
    fock_space: FockSpace | None = None,
) -> SensitivityRecord:
    """One sensitivity evaluation through the chosen engine: a curve of one
    point."""
    _validate_engine(scheme, n_spins, engine)
    if not 0.0 <= sensing_fraction <= 1.0:
        raise ValueError(
            f"sensing_fraction must lie in [0, 1], got {sensing_fraction}"
        )
    (record,) = _curve(
        scheme, n_spins, twist_value, np.array([sensing_fraction], dtype=float),
        engine, fock_space,
    )
    return record


def _curve(
    scheme: str,
    n_spins: int | None,
    twist_value: float,
    ts: np.ndarray,
    engine: str,
    fock_space: FockSpace | None,
) -> list[SensitivityRecord]:
    """One twist at every sensing fraction of ``ts``, in order.

    The one engine dispatch. The spin engine runs the curve through one
    readout call per CURVE_BLOCK_AMPLITUDES block (one call for all but huge
    grids); the Fock and closed-form engines evaluate it point by point.
    """
    if engine == "fock":
        space = fock_space or FockSpace()
        return [fock_simulate(scheme, twist_value, float(t), space) for t in ts]
    if engine == "closed_form":
        return [
            SensitivityRecord(
                scheme=scheme,
                n_spins=None,
                twist_strength=twist_value,
                sensing_fraction=float(t),
                sensitivity=closed_form(scheme, twist_value, float(t)),
                method="closed_form",
            )
            for t in ts
        ]
    cfg = ProtocolConfig(scheme, n_spins, twist_value)
    width = max(1, CURVE_BLOCK_AMPLITUDES // cfg.space.dim)
    return [
        record
        for start in range(0, len(ts), width)
        for record in readout(
            spin_mode(cfg.space), scheme, cfg.twist_strength,
            ts[start : start + width], cfg.n_spins,
        )
    ]


def sweep_curve(
    spec: SweepSpec, fock_space: FockSpace | None = None
) -> list[SensitivityRecord]:
    """Evaluate the full grid of a spec, twist outer, t/tau inner."""
    ts = np.linspace(0.0, 1.0, spec.t_grid)
    return [
        record
        for x in spec.twist_values
        for record in _curve(
            spec.scheme, spec.n_spins, x, ts, spec.engine, fock_space
        )
    ]


def _golden_section_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section maximum of a unimodal f on [a, b] to width tol."""
    h = b - a
    if h <= tol:
        mid = (a + b) / 2.0
        return mid, f(mid)
    steps = ceil(log(tol / h) / log(_INV_PHI))
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(steps):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = f(d)
    # On ties prefer the right sample, consistent with the grid tie-break.
    return (c, yc) if yc > yd else (d, yd)


def optimize_t(
    scheme: str,
    n_spins: int | None,
    twist_value: float,
    engine: str,
    t_grid: int = 201,
    fock_space: FockSpace | None = None,
) -> OptimumResult:
    """Best sensitivity over the sensing fraction at one twist value.

    A uniform grid (default 201 points, endpoints included as first-class
    candidates, evaluated as one curve) brackets the maximum;
    golden-section refinement then narrows the bracket, point by point, to
    a sensing-fraction width of 1e-6. Curves can be
    multimodal for over-squeezed finite-N regimes, which is what the grid
    stage guards against. If several grid points tie within 1e-12 the
    largest sensing fraction wins (least preparation among equals); the
    refined point replaces the grid best only when strictly better, so
    exact grid optima (edges included) survive untouched. The returned
    value is never below the best grid sample.
    """
    _validate_engine(scheme, n_spins, engine)
    if t_grid < 3:
        raise ValueError(f"t_grid must be >= 3, got {t_grid}")

    def f(s: float) -> float:
        return evaluate_point(
            scheme, n_spins, twist_value, s, engine, fock_space
        ).sensitivity

    ts = np.linspace(0.0, 1.0, t_grid)
    vals = [
        r.sensitivity
        for r in _curve(scheme, n_spins, twist_value, ts, engine, fock_space)
    ]
    vmax = max(vals)
    idx = max(i for i, v in enumerate(vals) if v >= vmax - 1e-12)
    best_t, best_v = float(ts[idx]), vals[idx]

    lo = float(ts[idx - 1]) if idx > 0 else float(ts[0])
    hi = float(ts[idx + 1]) if idx < len(ts) - 1 else float(ts[-1])
    refined_t, refined_v = _golden_section_max(f, lo, hi, 1e-6)
    if refined_v > best_v + 1e-12:
        best_t, best_v = refined_t, refined_v

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
    fock_space: FockSpace | None = None,
) -> float:
    """Smallest twist strength whose optimized sensitivity beats 1.

    Bisection on the twist strength with the predicate "optimized
    sensitivity exceeds 1 + 1e-9", to an absolute tolerance of 1e-3. The
    interval must bracket the change: the predicate must be false at the
    lower end and true at the upper end.
    """
    _validate_engine(scheme, n_spins, engine)
    lo, hi = (float(search_interval[0]), float(search_interval[1]))
    if not (isfinite(lo) and isfinite(hi)) or not 0.0 <= lo < hi:
        raise ValueError(
            f"search_interval must satisfy 0 <= lo < hi, got ({lo}, {hi})"
        )

    def exceeds(x: float) -> bool:
        result = optimize_t(scheme, n_spins, x, engine, t_grid, fock_space)
        return result.best_sensitivity > 1.0 + BENCHMARK_MARGIN

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
