"""Nonincreasing rearrangements and Lorentz quasi-norms on sampled fields.

A sampled function is a finite list of (value, cell measure) pairs.  Its
rearrangement is the right-continuous step function obtained by sorting
|values| in decreasing order and accumulating measures; all norm integrals
are then evaluated in closed form on the step function, so equimeasurability
and the power rule hold exactly and discretization error is confined to the
sampling stage.

Norm convention: ||f||_{p,q}^q = int_0^inf (t^(1/p) f*(t))^q dt/t for finite
q, and ||f||_{p,inf} = sup_t t^(1/p) f*(t).  With this normalization
||f||_{2,1} = int_0^inf t^(-1/2) f*(t) dt and the pairing bound
||fg||_1 <= ||f||_{2,1} ||g||_{2,inf} holds with constant exactly 1
(texts differ on constants here; this choice makes the duality sharp).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import isinf

import numpy as np

from ._csv import write_csv
from .fields import ScalarField, _layout, annulus_rule_for
from .grid import build_shell_pieces, unit_ball_volume

__all__ = [
    "SampledFunction",
    "RearrangementTable",
    "LorentzIndex",
    "TailDecayReport",
    "rearrange",
    "lorentz_norm",
    "duality_product_check",
    "power_rule_check",
    "tail_decay_check",
    "sample_radial",
    "write_table_csv",
    "read_samples_csv",
    "write_samples_csv",
]


@dataclass(frozen=True)
class SampledFunction:
    """Finitely many cells with values and positive measures."""

    values: np.ndarray
    measures: np.ndarray
    expected_volume: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        m = np.asarray(self.measures, dtype=float)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "measures", m)
        if v.ndim != 1 or v.shape != m.shape:
            raise ValueError("values and measures must be equal-length vectors")
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(f"values must be finite; cell {bad[0]} has {v[bad[0]]}")
        bad = np.flatnonzero(~(np.isfinite(m) & (m > 0)))
        if bad.size:
            raise ValueError(
                f"cell measures must be positive and finite; cell {bad[0]} has {m[bad[0]]}"
            )
        if self.expected_volume is not None:
            tot = float(m.sum())
            if abs(tot - self.expected_volume) > 1e-8 * self.expected_volume:
                raise ValueError(
                    f"cell measures sum to {tot:.12g}, expected "
                    f"{self.expected_volume:.12g}"
                )

    @property
    def total_measure(self) -> float:
        return float(self.measures.sum())

    def scaled(self, c: float) -> "SampledFunction":
        return SampledFunction(c * self.values, self.measures)

    def power(self, alpha: float) -> "SampledFunction":
        if alpha != int(alpha) and np.any(self.values < 0):
            raise ValueError("fractional powers need nonnegative values")
        return SampledFunction(self.values**alpha, self.measures)


@dataclass(frozen=True)
class RearrangementTable:
    """Step function f*(t) = levels[i] on [breaks[i], breaks[i+1])."""

    breaks: np.ndarray  # length m+1, breaks[0] = 0
    levels: np.ndarray  # length m, nonincreasing, >= 0

    def __post_init__(self):
        b = np.asarray(self.breaks, dtype=float)
        l = np.asarray(self.levels, dtype=float)
        object.__setattr__(self, "breaks", b)
        object.__setattr__(self, "levels", l)
        if b[0] != 0.0 or np.any(np.diff(b) <= 0):
            raise ValueError("breakpoints must start at 0 and strictly increase")
        if l.size + 1 != b.size:
            raise ValueError("need one level per interval")
        if np.any(np.diff(l) > 0) or np.any(l < 0):
            raise ValueError("levels must be nonincreasing and nonnegative")

    @property
    def total_measure(self) -> float:
        return float(self.breaks[-1])

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breaks, t, side="right") - 1
        out = np.zeros_like(t)
        ok = (idx >= 0) & (idx < self.levels.size)
        out[ok] = self.levels[idx[ok]]
        return out

    def super_level_measure(self, lam: float) -> float:
        """measure { t : f*(t) > lam } -- equals the distribution of |f|."""
        widths = np.diff(self.breaks)
        return float(widths[self.levels > lam].sum())


@dataclass(frozen=True)
class LorentzIndex:
    p: float
    q: float  # may be inf

    def __post_init__(self):
        if not (self.p > 0):
            raise ValueError(f"p must be positive, got {self.p}")
        if not (self.q > 0):
            raise ValueError(f"q must be positive or inf, got {self.q}")


def rearrange(f: SampledFunction) -> RearrangementTable:
    """Sort |values| in decreasing order, accumulate measures.

    Ties keep the original cell order (stable sort), which does not affect
    the table since tied levels are equal.
    """
    mags = np.abs(f.values)
    order = np.argsort(-mags, kind="stable")
    levels = mags[order]
    breaks = np.concatenate([[0.0], np.cumsum(f.measures[order])])
    return RearrangementTable(breaks=breaks, levels=levels)


def _as_table(f) -> RearrangementTable:
    return f if isinstance(f, RearrangementTable) else rearrange(f)


def lorentz_norm(f, idx: LorentzIndex) -> float:
    """Lorentz quasi-norm of a SampledFunction or RearrangementTable.

    q = inf: sup of t^(1/p) f*(t), attained at right endpoints of the
    constancy intervals.  Finite q: exact closed-form integral over the
    step function; overflow is reported as +inf.
    """
    table = _as_table(f)
    p, q = idx.p, idx.q
    lv = table.levels
    if lv.size == 0 or np.all(lv == 0):
        return 0.0
    t0, t1 = table.breaks[:-1], table.breaks[1:]
    if isinf(q):
        return float(np.max(t1 ** (1.0 / p) * lv))
    with np.errstate(over="ignore"):
        e = q / p
        chunks = lv**q * (p / q) * (t1**e - t0**e)
        total = float(np.sum(chunks))
        if not np.isfinite(total):
            return float("inf")
        return total ** (1.0 / q)


def duality_product_check(
    f: SampledFunction, g: SampledFunction
) -> tuple[float, float, float]:
    """(||fg||_1, ||f||_{2,1}, ||g||_{2,inf}) on shared cells.

    Under this module's normalization the caller may assert
    ||fg||_1 <= ||f||_{2,1} * ||g||_{2,inf} with constant 1.
    """
    if f.values.shape != g.values.shape or not np.array_equal(f.measures, g.measures):
        raise ValueError("duality check needs both functions on the same cells")
    prod = float(np.sum(np.abs(f.values * g.values) * f.measures))
    return (
        prod,
        lorentz_norm(f, LorentzIndex(2.0, 1.0)),
        lorentz_norm(g, LorentzIndex(2.0, float("inf"))),
    )


def power_rule_check(
    f: SampledFunction, alpha: float, idx: LorentzIndex
) -> tuple[float, float]:
    """(||f^alpha||_{p/alpha, q/alpha},  ||f||_{p,q}^alpha) for f >= 0.

    (f^alpha)* equals (f*)^alpha exactly on tables (monotone maps commute
    with sorting), so the two returned numbers agree up to rounding.
    """
    if np.any(f.values < 0):
        raise ValueError("power rule check needs a nonnegative field")
    if not (alpha > 0):
        raise ValueError("alpha must be positive")
    powered = f.power(alpha)
    q_over = idx.q / alpha if not isinf(idx.q) else float("inf")
    lhs = lorentz_norm(powered, LorentzIndex(idx.p / alpha, q_over))
    rhs = lorentz_norm(f, idx) ** alpha
    return lhs, rhs


def sample_radial(
    u_of_r,
    n: int,
    inner: float,
    outer: float,
    count: int,
    log_spacing: bool = True,
) -> SampledFunction:
    """Sample a radial profile on spherical shells of R^n.

    Cell i is the shell between consecutive radii; its measure is the exact
    shell volume and its value is the profile at the geometric midpoint.
    """
    if not (0 <= inner < outer) or count < 1:
        raise ValueError("need 0 <= inner < outer and count >= 1")
    if log_spacing and inner > 0:
        edges = np.geomspace(inner, outer, count + 1)
    else:
        edges = np.linspace(inner, outer, count + 1)
    vol = unit_ball_volume(n)
    measures = vol * (edges[1:] ** n - edges[:-1] ** n)
    mids = np.sqrt(edges[1:] * edges[:-1]) if inner > 0 else 0.5 * (
        edges[1:] + edges[:-1]
    )
    values = np.asarray(u_of_r(mids), dtype=float)
    return SampledFunction(values, measures)


@dataclass(frozen=True)
class TailDecayReport:
    """Pointwise decay sup against the weak-L2 norm over an annulus.

    If |grad u| <= M / |x|^(n/2) on the annulus then the distribution bound
    meas{|grad u| > lam} <= omega_n (M/lam)^2 gives
    ||grad u||_{2,inf} <= omega_n^(1/2) M; ``weak_bound`` is that right-hand
    side evaluated with the sampled sup.
    """

    sup_decay: float  # sup over samples of |x|^(n/2) |grad u|(x)
    weak_norm: float  # sampled ||grad u||_{2,inf} on the annulus
    weak_bound: float  # omega_n^(1/2) * sup_decay

    @property
    def within(self) -> float:
        """weak_norm / weak_bound (<= 1 + sampling slack when decay holds)."""
        return self.weak_norm / self.weak_bound if self.weak_bound > 0 else 0.0


def tail_decay_check(
    u: ScalarField,
    inner: float,
    outer: float,
    radial_count: int = 4096,
    center=None,
) -> TailDecayReport:
    """Measure sup |x|^(n/2)|grad u| and the weak-L2 norm of |grad u| on the
    annulus inner < |x - center| < outer, using shell cells as the sampling."""
    if not (0 < inner < outer):
        raise ValueError("need 0 < inner < outer")
    n = u.dimension
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    # a field radial about the center is sampled on one finely paneled ray;
    # any other takes the layout ``annulus_rule_for`` picks for it
    if _layout(u, c)[0] == "radial":
        panels = list(np.geomspace(inner, outer, max(radial_count // 16, 2))[1:-1])
        rule = build_shell_pieces(n, c, [(inner, outer)], 16, "radial",
                                  radial_panels=[panels]).rule(0)
    else:
        rule = annulus_rule_for(u, c, inner, outer, order=24)
    g = u.gradient(rule.nodes)
    mag = np.sqrt(np.einsum("mi,mi->m", g, g))
    dist = np.linalg.norm(rule.nodes - c, axis=1)
    sup_decay = float(np.max(dist ** (n / 2) * mag))
    weak = lorentz_norm(
        SampledFunction(mag, rule.weights),
        LorentzIndex(2.0, float("inf")),
    )
    return TailDecayReport(
        sup_decay=sup_decay,
        weak_norm=weak,
        weak_bound=float(np.sqrt(unit_ball_volume(n))) * sup_decay,
    )


# ---------------------------------------------------------------------------
# csv io
# ---------------------------------------------------------------------------


def write_table_csv(path, table: RearrangementTable) -> None:
    """Columns: t_break, level (level paired with its left breakpoint; the
    last breakpoint closes the table with level 0)."""
    write_csv(path, ["t_break", "level"], [table.breaks, np.append(table.levels, 0.0)])


def write_samples_csv(path, f: SampledFunction) -> None:
    """Columns: value, cell_measure."""
    write_csv(path, ["value", "cell_measure"], [f.values, f.measures])


def read_samples_csv(path) -> SampledFunction:
    """Read a ``value,cell_measure`` file: one header line, then at least
    one row of exactly two columns; any other shape raises ValueError."""
    with warnings.catch_warnings():
        # numpy warns on a file without data rows; that is rejected below
        warnings.simplefilter("ignore", UserWarning)
        raw = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    if len(raw) == 0:
        raise ValueError(f"{path}: no data rows after the header")
    if raw.shape[1] != 2:
        raise ValueError(f"{path}: expected 2 columns (value,cell_measure), "
                         f"got {raw.shape[1]}")
    return SampledFunction(raw[:, 0], raw[:, 1])
