"""Nonincreasing rearrangements and Lorentz quasi-norms on sampled fields.

A sampled function is a finite list of (value, cell measure) pairs.  Its
rearrangement is the right-continuous step function obtained by sorting
|values| in decreasing order and accumulating measures; all norm integrals
are then evaluated in closed form on the step function, so equimeasurability
and the power rule hold exactly and discretization error is confined to the
sampling stage.

Many small samples are rearranged at once: ``duality_product_checks`` takes
its trials back to back in flat arrays with per-trial lengths, pads them to
one row each and sorts and accumulates every row in one call; the
``bubblelab lorentz --duality-trials K`` trials are checked in batches of
at most 1024 (``K`` must be >= 0; 0 runs none).  ``rearrange`` and
``lorentz_norm`` are the one-row case of the same code.

Norm convention: ||f||_{p,q}^q = int_0^inf (t^(1/p) f*(t))^q dt/t for finite
q, and ||f||_{p,inf} = sup_t t^(1/p) f*(t).  With this normalization
||f||_{2,1} = int_0^inf t^(-1/2) f*(t) dt and the pairing bound
||fg||_1 <= ||f||_{2,1} ||g||_{2,inf} holds with constant exactly 1
(texts differ on constants here; this choice makes the duality sharp).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import inf, isfinite, isinf, log

import numpy as np

from ._csv import write_csv
from .fields import ScalarField, _field_pass, _layout, annulus_rule_for
from .grid import _BLOCK_NODES, build_shell_pieces, unit_ball_volume

__all__ = [
    "SampledFunction",
    "RearrangementTable",
    "LorentzIndex",
    "TailDecayReport",
    "rearrange",
    "lorentz_norm",
    "duality_product_checks",
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
        if not (0 < self.p < inf):
            raise ValueError(f"p must be finite and > 0, got {self.p}")
        if not (self.q > 0):
            raise ValueError(f"q must be positive or inf, got {self.q}")


def _row_mask(lengths) -> np.ndarray:
    """(rows, width) mask of ragged rows: row ``i`` owns its first
    ``lengths[i]`` cells, ``width`` is the longest row."""
    lengths = np.asarray(lengths)
    return np.arange(lengths.max(initial=0)) < lengths[:, None]


def _padded(flat: np.ndarray, valid: np.ndarray, fill: float) -> np.ndarray:
    """``flat`` laid out row by row in the True cells of ``valid`` and
    ``fill`` elsewhere; a view of ``flat`` when there is no padding."""
    if valid.all():
        return flat.reshape(valid.shape)
    out = np.full(valid.shape, fill)
    out[valid] = flat
    return out


def _rearranged_rows(values, measures, valid: np.ndarray):
    """Rearrange ragged rows of cells at once.

    Row ``i`` holds the next ``valid[i].sum()`` cells of the flat
    ``values`` and ``measures``.  Each row is sorted by a stable argsort of
    -|value|, with padding keyed +inf so that it sorts last, and its
    measures are accumulated in that order.  Returns ``levels`` (rows,
    width) and ``breaks`` (rows, width + 1) with ``breaks[:, 0] == 0``:
    the first ``m`` levels and ``m + 1`` breaks of a row of ``m`` cells
    are the ``RearrangementTable`` of its cells; its padding has level 0
    and no measure.
    """
    key = _padded(-np.abs(values), valid, np.inf)
    order = np.argsort(key, axis=1, kind="stable")
    levels = np.take_along_axis(key, order, axis=1)
    np.negative(levels, out=levels)
    levels[~valid] = 0.0
    breaks = np.zeros((valid.shape[0], valid.shape[1] + 1))
    np.cumsum(np.take_along_axis(_padded(measures, valid, 0.0), order, axis=1),
              axis=1, out=breaks[:, 1:])
    return levels, breaks


def _row_norms(levels: np.ndarray, breaks: np.ndarray, idx: LorentzIndex) -> np.ndarray:
    """``lorentz_norm`` of each row of a rearrangement laid out as
    ``_rearranged_rows`` returns it; a row whose levels are all 0 has norm 0
    and is not evaluated.  A cell of level 0 or of no measure adds nothing.

    At finite q each cell adds ``(p/q) level^q (t1^e - t0^e)``, e = q/p,
    to the integral.  Each term is formed in logs, over the row's top level
    ``L``: ``q ln(level/L) + e ln(t1) + ln(p/q) + ln(-expm1(e ln(t0/t1)))``.
    The terms are summed by a log-sum-exp, and the norm is
    ``L exp(lse / q)``, so no power overflows or underflows alone: only a
    norm beyond the float range reads +inf (or 0)."""
    p, q = idx.p, idx.q
    live = np.any(levels != 0, axis=1)
    norms = np.zeros(len(levels))
    if not live.any():
        return norms
    if not live.all():
        levels, breaks = levels[live], breaks[live]
    t0, t1 = breaks[:, :-1], breaks[:, 1:]
    if isinf(q):
        # 0 * inf is NaN only at a cell of level 0, which fmax skips;
        # every live row's first cell has a positive level
        with np.errstate(over="ignore", invalid="ignore"):
            norms[live] = np.fmax.reduce(t1 ** (1.0 / p) * levels, axis=1)
        return norms
    counted = (levels != 0) & (t1 != t0)
    top = levels[:, :1]  # levels are nonincreasing
    logs = np.full_like(levels, -inf)
    # log 0 at level 0 and at t0 = 0 (where -expm1(-inf) = 1), inf / inf at
    # padding after an overflowed break: only counted cells are kept.  e is
    # applied as q * (ln t / p), which stays 0 at t = 1 where q / p overflows
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.add(q * (np.log(levels / top) + np.log(t1) / p) + (log(p) - log(q)),
               np.log(-np.expm1(q * (np.log(t0 / t1) / p))), out=logs, where=counted)
        peak = logs.max(axis=1, keepdims=True)
        shift = np.where(np.isfinite(peak), peak, 0.0)
        lse = shift[:, 0] + np.log(np.exp(logs - shift).sum(axis=1))
        root = np.exp(lse / q)
        norm = top[:, 0] * root
        # a small top times a root beyond the float range: the product in logs
        np.exp(np.log(top[:, 0]) + lse / q, out=norm, where=np.isinf(root) | (root == 0))
    norms[live] = norm
    return norms


def rearrange(f: SampledFunction) -> RearrangementTable:
    """Sort |values| in decreasing order, accumulate measures.

    Ties keep the original cell order (stable sort), which does not affect
    the table since tied levels are equal.
    """
    levels, breaks = _rearranged_rows(f.values, f.measures, _row_mask([f.values.size]))
    return RearrangementTable(breaks=breaks[0], levels=levels[0])


def lorentz_norm(f, idx: LorentzIndex) -> float:
    """Lorentz quasi-norm of a SampledFunction or RearrangementTable.

    q = inf: sup of t^(1/p) f*(t), attained at right endpoints of the
    constancy intervals.  Finite q: exact closed-form integral over the
    step function; overflow is reported as +inf.
    """
    if isinstance(f, RearrangementTable):
        levels, breaks = f.levels[None, :], f.breaks[None, :]
    else:
        levels, breaks = _rearranged_rows(f.values, f.measures, _row_mask([f.values.size]))
    return float(_row_norms(levels, breaks, idx)[0])


def duality_product_checks(
    f_values, g_values, measures, lengths
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(||fg||_1, ||f||_{2,1}, ||g||_{2,inf}) of many trials at once, one
    entry per trial.

    Trial ``i`` owns the next ``lengths[i]`` cells of the flat arrays; f and
    g share the cells' measures.  The inputs are checked once, as
    ``SampledFunction`` checks them, and every length must be at least 1
    with the lengths summing to the number of cells.
    """
    f = SampledFunction(f_values, measures)
    g = SampledFunction(g_values, measures)
    lengths = np.asarray(lengths)
    if (lengths.ndim != 1 or lengths.dtype.kind not in "iu" or np.any(lengths < 1)
            or lengths.sum() != f.values.size):
        raise ValueError(
            f"trial lengths must be integers >= 1 summing to the {f.values.size} "
            f"cells; got {lengths.size} lengths summing to {lengths.sum()}"
        )
    valid = _row_mask(lengths)
    prod = np.sum(_padded(np.abs(f.values * g.values) * f.measures, valid, 0.0), axis=1)
    return (
        prod,
        _row_norms(*_rearranged_rows(f.values, f.measures, valid), LorentzIndex(2.0, 1.0)),
        _row_norms(*_rearranged_rows(g.values, g.measures, valid),
                   LorentzIndex(2.0, float("inf"))),
    )


def sample_radial(
    u_of_r,
    n: int,
    inner: float,
    outer: float,
    count: int,
) -> SampledFunction:
    """Sample a radial profile on spherical shells of R^n.

    Cell i is the shell between consecutive radii, log-spaced unless inner
    is 0; its measure is the exact shell volume and its value is the profile
    at the geometric midpoint (the arithmetic one when inner is 0).
    """
    if not (0 <= inner < outer) or not isfinite(outer) or count < 1:
        raise ValueError("need 0 <= inner < outer < inf and count >= 1")
    if inner > 0:
        edges = np.geomspace(inner, outer, count + 1)
        mids = np.sqrt(edges[1:] * edges[:-1])
    else:
        edges = np.linspace(inner, outer, count + 1)
        mids = 0.5 * (edges[1:] + edges[:-1])
    vol = unit_ball_volume(n)
    measures = vol * (edges[1:] ** n - edges[:-1] ** n)
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
    center=None,
) -> TailDecayReport:
    """Measure sup |x|^(n/2)|grad u| and the weak-L2 norm of |grad u| on the
    annulus inner < |x - center| < outer, using shell cells as the sampling."""
    if not (0 < inner < outer):
        raise ValueError("need 0 < inner < outer")
    n = u.dimension
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    # a field radial about the center is sampled on one ray in 255 panels;
    # any other takes the layout ``annulus_rule_for`` picks for it
    if _layout(u, c)[0] == "radial":
        panels = list(np.geomspace(inner, outer, 256)[1:-1])
        rule = build_shell_pieces(n, c, [(inner, outer)], 16, "radial",
                                  radial_panels=[panels]).rule(0)
    else:
        rule = annulus_rule_for(u, c, inner, outer, order=24)
    # |grad u| and the decay sup per block of nodes, by the field-density
    # evaluator's walk: only the magnitudes and weights of the whole rule
    # are kept, for the weak-norm sort
    coordinates, magnitudes = _field_pass(
        u, rule.piece,
        lambda v, g, y: (np.sqrt(np.einsum("mi,mi->m", g, g)), np.linalg.norm(y, axis=1)),
        offsets=True)
    size = len(rule)
    mag, weights = np.empty(size), np.empty(size)
    peaks = []
    for a in range(0, size, _BLOCK_NODES):
        b = min(a + _BLOCK_NODES, size)
        block, weights[a:b] = coordinates(a, b)
        mag[a:b], dist = magnitudes(block)
        peaks.append(np.max(dist ** (n / 2) * mag[a:b]))
    sup_decay = float(np.max(peaks))
    weak = lorentz_norm(SampledFunction(mag, weights), LorentzIndex(2.0, float("inf")))
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
