"""Synthetic concentrating sequences and the quantization pipeline.

A concentrating sequence is generated from bubble entries (center, scale
schedule, weight); its k-th field is the superposition at the k-th scales.
The pipeline detects concentration points by thresholding local energies
along the sequence, reads off the defect density Theta from small balls at
large k, extracts bubbles one at a time (half-threshold radius, blow-up
rescaling, profile fit, subtraction) and reports the bubble count, neck
energies and the ratio of Theta to the single-bubble energy constant, which
clusters at integers.

The profile fit is least squares on (log delta, center) by this module's
own Levenberg-Marquardt (``_levenberg_marquardt``: Marquardt's damping with
Nielsen's update, the closed-form Jacobian of ``_profile_model``).  It
stops on one of MINPACK's tests, a relative cost decrease, a step length or
a gradient cosine at most ``_FIT_TOL * 1e-4``, or after 400 evaluations.  A
fit is converged when it stopped on a tolerance test and its relative RMS
residual is below 0.05; a fit that is not ends the point's extraction with
the flag ``fit-not-converged``.

Two energy densities appear side by side:

* the weighted density  e(u) = |grad u|^2 / 2 + (n-2)/(2n) |u|^(2n/(n-2))
  carried by the energy measures (``energy_in``, ``scaled_measure``);
* the unweighted density  |grad u|^2 + |u|^(2n/(n-2))  entering the
  quantization bookkeeping (``bubbling_energy``, necks, Theta, Lambda_0).

Detection reads the unweighted ball energy, which is scale invariant in
the conformal dimension, at the smallest radius of ``r_grid`` only: its
density is nonnegative, so the energy of B(x, r) grows with r.  The scan
first rejects, without any quadrature, every probe whose closed-form
energy bound (``ScalarField.ball_sup``: ``(sup|grad u|^2 + sup|u|^p)
|B_r|``) falls below ``eps0 / 2`` at some k.  Such a probe's value there
is below ``eps0`` (rule weights are positive and sum to ``|B_r|`` within
1e-10; the factor 2 covers rounding), so it is a miss, and only hits keep
scores.  Off the concentration set this rejects almost every lattice
probe.  Each probe left takes one ball energy per k, up to the first
below the threshold.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import (
    QuadratureRule,
    _read_only,
    gauss_legendre,
    unit_ball_volume,
    unit_sphere_area,
    unit_sphere_directions,
)
from .fields import (
    Bubble,
    BubbleConfiguration,
    RescaledField,
    ScalarField,
    Superposition,
    _bubble_amplitude,
    _energy_density,
    _finest_scale,
    _integrate_density,
    _layout,
    _shell_energies,
    ball_rule_for,
    shell_pieces_for,
)

__all__ = [
    "BubbleConstant",
    "ConcentrationSequence",
    "SequenceEntry",
    "DefectReport",
    "PointReport",
    "ThetaEstimate",
    "NeckReport",
    "QuantizationConfig",
    "BudgetError",
    "bubble_energy_constant",
    "make_sequence",
    "energy_in",
    "bubbling_energy",
    "detect_sigma",
    "neck_energy",
    "neck_energies",
    "theta_estimate",
    "scaled_measure",
    "quantization_report",
    "check_report_input",
    "report_to_json",
    "read_sequence_spec",
]


class BudgetError(ValueError):
    """A sequence violates its declared uniform norm budget."""


# ---------------------------------------------------------------------------
# the single-bubble energy constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BubbleConstant:
    """Lambda_0 = ||grad U||_2^2 + ||U||_{2n/(n-2)}^{2n/(n-2)} over R^n.

    Computed by paneled radial Gauss quadrature on [0, 16] plus the
    substituted exact tail integral; never hard-coded.  ``error_bound`` is
    the observed change under doubling the radial order.
    """

    dimension: int
    value: float
    error_bound: float
    radial_order: int

    def __float__(self) -> float:
        return self.value


def _bubble_density_1d(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """(|U'|^2 + U^(2n/(n-2)))(r) for the standard profile."""
    c2 = _bubble_amplitude(n) ** 2

    def dens(r):
        g = 1.0 + r**2
        return c2 * (n - 2) * g ** (-float(n)) * ((n - 2) * r**2 + n)

    return dens


def _radial_integral(dens, n: int, order: int) -> float:
    """surf(S^{n-1}) * int_0^inf dens(r) r^(n-1) dr with an exact tail map."""
    r_pivot = 16.0
    x, w = gauss_legendre(order)
    edges = [0.0]
    h = 1.0 / 64
    while edges[-1] < r_pivot:
        edges.append(min(edges[-1] + h, r_pivot) if edges[-1] == 0 else min(edges[-1] * 2, r_pivot))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        r = 0.5 * (a + b) + half * x
        total += float(np.dot(half * w, dens(r) * r ** (n - 1)))
    # tail: substitute r = r_pivot / s, s in (0, 1]
    s = 0.5 + 0.5 * x
    ws = 0.5 * w
    r = r_pivot / s
    total += float(np.dot(ws, dens(r) * r ** (n - 1) * r_pivot / s**2))
    return unit_sphere_area(n) * total


@cache
def bubble_energy_constant(n: int, radial_order: int = 64) -> BubbleConstant:
    """Lambda_0 in dimension ``n``; cached, as ``BubbleConstant`` is frozen."""
    if n < 3:
        raise ValueError("need n >= 3")
    dens = _bubble_density_1d(n)
    value = _radial_integral(dens, n, radial_order)
    refined = _radial_integral(dens, n, 2 * radial_order)
    return BubbleConstant(
        dimension=n,
        value=refined,
        error_bound=abs(refined - value) + 1e-14 * abs(refined),
        radial_order=radial_order,
    )


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceEntry:
    """One bubble slot: center, scale schedule k -> delta_k, weight."""

    center: np.ndarray
    schedule: Callable[[int], float]
    weight: float = 1.0


def _as_schedule(spec) -> Callable[[int], float]:
    if callable(spec):
        return spec
    base = float(spec)
    if not 1.0 < base < math.inf:
        raise ValueError(f"geometric schedule base must be finite and exceed 1, got {base}")
    return lambda k, b=base: b ** (-k)


class ConcentrationSequence:
    """k -> superposition of the entry bubbles at their k-th scales."""

    def __init__(
        self,
        n: int,
        entries: Sequence[SequenceEntry],
        budget: float,
        description: str = "",
    ):
        if n < 3:
            raise ValueError("need n >= 3")
        if not entries:
            raise ValueError("a sequence needs at least one bubble entry")
        if not 0 < budget < math.inf:
            raise ValueError(f"budget must be finite and > 0, got {budget}")
        self.dimension = n
        self.entries = list(entries)
        self.budget = float(budget)
        self.description = description
        self._validate_schedules()

    def _validate_schedules(self) -> None:
        k_check = 8
        for e in self.entries:
            d = np.array([e.schedule(k) for k in range(k_check + 1)])
            if not np.all(d > 0):
                raise ValueError("scale schedules must stay positive")
            if np.any(np.diff(d) >= 0):
                raise ValueError("scale schedules must be strictly decreasing")
            if d[-1] > d[0] / 2:
                raise ValueError("scale schedule does not decay toward zero")
        # same-center towers must separate: adjacent scale ratios shrink
        by_center: dict[tuple, list[SequenceEntry]] = {}
        for e in self.entries:
            by_center.setdefault(tuple(np.round(e.center, 12)), []).append(e)
        for group in by_center.values():
            if len(group) < 2:
                continue
            group = sorted(group, key=lambda e: -e.schedule(k_check))
            for a, b in zip(group[:-1], group[1:]):
                r0 = b.schedule(0) / a.schedule(0)
                r1 = b.schedule(k_check) / a.schedule(k_check)
                if not (r1 < r0):
                    raise ValueError(
                        "same-center scale schedules must separate "
                        "(adjacent scale ratio must decrease in k)"
                    )

    def scales(self, k: int) -> np.ndarray:
        return np.array([e.schedule(k) for e in self.entries])

    def field(self, k: int) -> BubbleConfiguration:
        bubbles = [
            Bubble(self.dimension, e.center, e.schedule(k)) for e in self.entries
        ]
        return BubbleConfiguration(bubbles, [e.weight for e in self.entries])

    def verify_budget(self, ks: Sequence[int], order: int = 24) -> dict[int, float]:
        """||u_k||_{H^1(B_1)} + ||u_k||_{L^(2n/(n-2))(B_1)} per sampled k."""
        n = self.dimension
        p = 2.0 * n / (n - 2)
        out = {}
        for k in ks:
            u = self.field(k)

            def dens(v, g, y):
                return v**2 + np.einsum("mi,mi->m", g, g), np.abs(v) ** p

            ball = shell_pieces_for(u, np.zeros(n), [(0.0, 1.0)], order)
            h1_sq, lp_p = _integrate_density(u, ball, dens)[0].tolist()
            out[k] = math.sqrt(max(h1_sq, 0.0)) + lp_p ** (1.0 / p)
        return out


def make_sequence(
    spec: Sequence[tuple],
    budget: float,
    n: int | None = None,
    description: str = "",
) -> ConcentrationSequence:
    """Build a sequence from (center, schedule-or-base, weight) triples."""
    entries = []
    dim = n
    for item in spec:
        center, sched, weight = item
        c = np.asarray(center, dtype=float).reshape(-1)
        if not (np.isfinite(c).all() and math.isfinite(weight)):
            raise ValueError(f"bubble center and weight must be finite, got {c} and {weight}")
        if dim is None:
            dim = c.size
        entries.append(
            SequenceEntry(center=c, schedule=_as_schedule(sched), weight=float(weight))
        )
    return ConcentrationSequence(dim, entries, budget, description)


# ---------------------------------------------------------------------------
# energy densities
# ---------------------------------------------------------------------------


def _weighted_density(n: int):
    """The weighted energy density e(u) at each node, as a one-array
    density of ``_integrate_density``."""
    terms = _energy_density(n)

    def dens(v, g, y):
        gsq, pot = terms(v, g, y)
        return (0.5 * gsq + (n - 2) / (2.0 * n) * pot,)

    return dens


def energy_in(u: ScalarField, rule: QuadratureRule, threads: int | None = None) -> float:
    """Weighted energy  int e(u)  over the rule's region; nonnegative."""
    return float(_integrate_density(u, rule.piece, _weighted_density(u.dimension), threads)[0, 0])


def bubbling_energy(
    u: ScalarField, x, r: float, order: int = 24, inner: float = 0.0
) -> float:
    """Unweighted energy int (|grad u|^2 + |u|^(2n/(n-2))) over a ball/annulus."""
    return _shell_energies(u, x, [(inner, r)], order)[0]


# ---------------------------------------------------------------------------
# detection of the concentration set
# ---------------------------------------------------------------------------


# The detection layout: the probe lattice spans [-_LATTICE_EXTENT,
# _LATTICE_EXTENT]^n at _LATTICE_SPACING (5^n probes), the pipeline scans
# the radii _R_GRID, and every detection ball energy is taken at order
# _DETECTION_ORDER.
_R_GRID = (0.05, 0.15, 0.45)
_LATTICE_EXTENT = 1.0
_LATTICE_SPACING = 0.5
_DETECTION_ORDER = 12


def _lattice_ticks(n: int, extent: float, spacing: float) -> np.ndarray:
    """The ticks on each axis of the lattice spanning [-extent, extent]^n
    at ``spacing``; refuses a dimension whose lattice would hold more than
    100,000 probes."""
    ticks = np.arange(-extent, extent + spacing / 2, spacing)
    if len(ticks) ** n > 100_000:
        raise ValueError(
            f"the detection lattice supports n <= 7 (5^n probes, at most 100,000); "
            f"got n = {n}"
        )
    return ticks


def _lattice(n: int) -> np.ndarray:
    """The probe lattice at the current ``_LATTICE_EXTENT`` and
    ``_LATTICE_SPACING``, cached and read-only (``_cached_lattice``)."""
    return _cached_lattice(n, _LATTICE_EXTENT, _LATTICE_SPACING)[0]


@cache
def _cached_lattice(n: int, extent: float, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """The probe lattice's points, each once (``_dedup_points``), and their
    ``_dedup_points`` keys, cached and read-only.  The cache is keyed on
    the layout constants as well as ``n``, since they may be patched."""
    ticks = _lattice_ticks(n, extent, spacing)
    grids = np.meshgrid(*([ticks] * n), indexing="ij")
    points = _dedup_points(np.stack([g.ravel() for g in grids], axis=1))
    return _read_only(points, _dedup_keys(points))


def _ball_energy_bound(u: ScalarField, xs: np.ndarray, r: float) -> Optional[np.ndarray]:
    """Upper bound on ``bubbling_energy(u, x, r)`` for each row ``x`` of
    ``xs`` from ``u.ball_sup``; None when ``u`` knows no bound."""
    sup = u.ball_sup(xs, r)
    if sup is None:
        return None
    n = u.dimension
    sup_u, sup_g = sup
    return (sup_g**2 + sup_u ** (2.0 * n / (n - 2))) * (unit_ball_volume(n) * r**n)


def _detection_quantity(u: ScalarField, r: float, x, order: int) -> float:
    """The ball energy of ``u`` on B(x, r).  The probe ``x`` is the third
    argument because perfbench's tracer identifies probes by it."""
    return bubbling_energy(u, x, r, order)


def _dedup_keys(points: np.ndarray) -> np.ndarray:
    """The coordinates ``_dedup_points`` compares: rounded to 10 decimals,
    -0.0 read as 0.0."""
    return np.round(points, 10) + 0.0


def _dedup_points(points: np.ndarray) -> np.ndarray:
    """The rows of ``points`` whose coordinates rounded to 10 decimals
    (-0.0 read as 0.0) differ from every earlier row's, in their order."""
    _, first = np.unique(_dedup_keys(points), axis=0, return_index=True)
    return points[np.sort(first)]


def _detection_candidates(centers: Sequence[np.ndarray], n: int) -> np.ndarray:
    """``_dedup_points`` of the declared centers followed by the lattice:
    the centers each once, then every lattice point whose key no center
    has.  The lattice's points are distinct and cached with their keys, so
    only the few centers are deduplicated and compared."""
    lattice, keys = _cached_lattice(n, _LATTICE_EXTENT, _LATTICE_SPACING)
    centers = _dedup_points(np.reshape(centers, (-1, n)))
    taken = np.zeros(len(lattice), dtype=bool)
    for key in _dedup_keys(centers):
        taken |= (keys == key).all(axis=1)
    return np.vstack([centers, lattice[~taken]])


def _check_k_max(k_max) -> None:
    if not isinstance(k_max, numbers.Integral) or k_max < 1:
        raise ValueError(f"k_max must be an integer >= 1, got {k_max!r}")


def check_report_input(n: int, config: QuantizationConfig) -> None:
    """Reject what ``quantization_report`` cannot run, before any work: a
    ``k_max`` below 1, a threshold ``eps0`` or ``eps_n`` that is neither
    None (auto) nor finite and > 0, an ``r_small`` that is not finite and
    > 0, or a dimension whose detection lattice would hold more than
    100,000 probes."""
    _check_k_max(config.k_max)
    for key in ("eps0", "eps_n", "r_small"):
        value = getattr(config, key)
        if value is None and key != "r_small":
            continue  # auto
        if not (isinstance(value, numbers.Real) and 0 < value < math.inf):
            raise ValueError(f"{key} must be finite and > 0, got {value}")
    _lattice_ticks(n, _LATTICE_EXTENT, _LATTICE_SPACING)


def _detect_detailed(seq: ConcentrationSequence, k_max: int, r_grid: Sequence[float],
                     eps0: float):
    """Scan declared centers + lattice, each point once; liminf surrogate =
    min over the top half of the k range.  Returns (points, cluster sizes,
    scores).

    The candidates are ``_dedup_points`` of the centers followed by the
    lattice, built by ``_detection_candidates``: the centers are
    deduplicated among themselves, and a lattice point is dropped when a
    center has its key (10 decimals, -0.0 read as 0.0).  The cached
    lattice is distinct already, so no sort runs over its 5^n points.

    Only the smallest radius of ``r_grid`` is read: the ball energy grows
    with r, so that radius decides every hit and holds the minimum value.
    Its quadrature values keep that order while the rules resolve the
    field, which an off-center bubble can break.

    A probe whose closed-form energy bound (``_ball_energy_bound``) is
    below ``eps0 / 2`` at any k is dropped before any quadrature (see the
    module docstring); each k bounds only the probes left, and a NaN or
    infinite bound drops nothing."""
    _check_k_max(k_max)
    if not 0 < eps0 < math.inf:
        raise ValueError(f"eps0 must be finite and > 0, got {eps0}")
    n = seq.dimension
    us = [seq.field(k) for k in range(math.ceil(k_max / 2), k_max + 1)]
    candidates = _detection_candidates([e.center for e in seq.entries], n)
    r = min(r_grid)  # the ball energy grows with r
    for u in us:
        bound = _ball_energy_bound(u, candidates, r)
        if bound is not None:
            candidates = candidates[~(bound < eps0 / 2)]

    hits, scores = [], []
    for x in candidates:
        score = math.inf
        for u in us:
            score = min(score, _detection_quantity(u, r, x, _DETECTION_ORDER))
            if score < eps0:
                break
        else:
            hits.append(x)
            scores.append(score)

    # merge lattice-adjacent hits into clusters; keep the best-scoring member
    merged: list[np.ndarray] = []
    cluster_sizes: list[int] = []
    cluster_scores: list[float] = []
    used = [False] * len(hits)
    order_idx = sorted(range(len(hits)), key=lambda i: -scores[i])
    for i in order_idx:
        if used[i]:
            continue
        members = [i]
        used[i] = True
        for j in range(len(hits)):
            if not used[j] and np.linalg.norm(hits[i] - hits[j]) <= 1.5 * _LATTICE_SPACING:
                used[j] = True
                members.append(j)
        merged.append(hits[i])
        cluster_sizes.append(len(members))
        cluster_scores.append(scores[i])
    return merged, cluster_sizes, cluster_scores


def detect_sigma(
    seq: ConcentrationSequence, k_max: int, r_grid: Sequence[float], eps0: float
) -> list[np.ndarray]:
    """Points where the ball energy stays >= eps0 for every radius in
    ``r_grid`` along the tail of the sequence, on the pipeline's lattice
    and at its detection order: the points ``quantization_report`` starts
    from.  Only the smallest radius is read, as ball energies grow with r
    (see ``_detect_detailed``)."""
    return _detect_detailed(seq, k_max, r_grid, eps0)[0]


# ---------------------------------------------------------------------------
# neck energies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NeckReport:
    inner: float
    outer: float
    total: float  # nan when the annulus is degenerate
    shells: list  # (a, b, energy) dyadic breakdown

    def checked(self) -> "NeckReport":
        """This report; ValueError when its annulus is degenerate."""
        if not (0 < self.inner < self.outer):
            raise ValueError(f"need 0 < inner < outer, got ({self.inner}, {self.outer})")
        return self


def _neck_reports(u: ScalarField, x, inners, outer: float, order: int) -> list[NeckReport]:
    """A ``NeckReport`` of ``u`` on each annulus (inner, outer) about ``x``:
    the dyadic shells inner, 2 inner, ... up to ``outer`` of every annulus
    laid out back to back and integrated as one piece batch, each total
    summed in shell order.  A degenerate annulus (not 0 < inner < outer)
    has no shells and total NaN."""
    spans, regions = [], []
    for inner in inners:
        edges = [inner]
        if 0 < inner < outer:
            while edges[-1] * 2 < outer:
                edges.append(edges[-1] * 2)
            edges.append(outer)
        start = len(regions)
        regions += zip(edges[:-1], edges[1:])
        spans.append((start, len(regions)))
    energies = _shell_energies(u, x, regions, order) if regions else []
    reports = []
    for inner, (a, b) in zip(inners, spans):
        shells = [(lo, hi, val) for (lo, hi), val in zip(regions[a:b], energies[a:b])]
        total = 0.0 if shells else float("nan")
        for _, _, val in shells:
            total += val
        reports.append(NeckReport(inner=inner, outer=outer, total=total, shells=shells))
    return reports


def neck_energies(
    seq: ConcentrationSequence,
    k: int,
    Rs: Sequence[float],
    outer: float = 0.5,
    entry: int = 0,
    order: int = 24,
) -> list[NeckReport]:
    """``neck_energy`` of u_k for each R of ``Rs``, in order, from one piece
    batch: the annuli (R delta_k, outer) about the entry's center share the
    field, the center and the order.  Each piece equals its one-piece rule,
    so every report is bit-identical to its one-R call.  A degenerate
    annulus reports total NaN and no shells (``NeckReport.checked`` raises
    on it) instead of failing the batch."""
    e = seq.entries[entry]
    delta = e.schedule(k)
    return _neck_reports(seq.field(k), e.center, [R * delta for R in Rs], outer, order)


def neck_energy(
    seq: ConcentrationSequence,
    k: int,
    inner: float | None = None,
    outer: float = 0.5,
    R: float = 100.0,
    entry: int = 0,
    order: int = 24,
) -> NeckReport:
    """Unweighted energy in the annulus between the bubble scale and the
    macroscopic scale, with its dyadic-shell breakdown: the one-R case of
    ``neck_energies``, with ``inner`` (default R delta_k) overridable.
    Raises ValueError unless 0 < inner < outer."""
    e = seq.entries[entry]
    if inner is None:
        inner = R * e.schedule(k)
    return _neck_reports(seq.field(k), e.center, [inner], outer, order)[0].checked()


@dataclass(frozen=True)
class ThetaEstimate:
    """Defect density at a point, read from small balls at large k.

    ``samples`` maps probe radii to unweighted ball energies; when their
    spread exceeds 10% the estimate is flagged unstable and no value is
    asserted (value = nan).
    """

    value: float
    samples: dict
    stable: bool
    spread: float
    weak_limit_energy: float = 0.0


def theta_estimate(
    seq: ConcentrationSequence,
    x,
    r_small: float,
    k_large: int,
    order: int = 24,
) -> ThetaEstimate:
    """Unweighted energy of u_k over B(x, r) for r across a factor-2 range;
    the weak limit's share is taken as zero."""
    if not (r_small > 0):
        raise ValueError("r_small must be positive")
    u = seq.field(k_large)
    radii = [r_small / 2, r_small / math.sqrt(2.0), r_small]
    samples = dict(zip(radii, _shell_energies(u, x, [(0.0, r) for r in radii], order)))
    vals = np.array(list(samples.values()))
    mid = float(np.median(vals))
    spread = float((vals.max() - vals.min()) / mid) if mid > 0 else 0.0
    stable = spread <= 0.10
    value = samples[r_small] if stable else float("nan")
    return ThetaEstimate(value=value, samples=samples, stable=stable, spread=spread)


def scaled_measure(
    u: ScalarField, y, lam: float, r: float, order: int = 24
) -> float:
    """Weighted energy of the (y, lam)-rescaled field over B(0, r); equals
    the weighted energy of u over B(y, lam * r) by change of variables."""
    if not (lam > 0 and r > 0):
        raise ValueError("need lam > 0 and r > 0")
    v = RescaledField(u, y, lam)
    rule = ball_rule_for(v, np.zeros(u.dimension), r, order)
    return energy_in(v, rule)


# ---------------------------------------------------------------------------
# the quantization pipeline
# ---------------------------------------------------------------------------


# The pipeline's fixed settings: the quadrature order of Theta, extraction
# and necks, at most _MAX_BUBBLES extractions per point, the profile fit's
# tolerance, and the neck annuli (R delta_k, _NECK_OUTER) for each R of
# _NECK_R.
_REPORT_ORDER = 24
_MAX_BUBBLES = 8
_FIT_TOL = 1e-8
_NECK_R = (10.0, 30.0, 100.0)
_NECK_OUTER = 0.5


@dataclass
class QuantizationConfig:
    """Pipeline thresholds; None fields auto-resolve.

    eps0 defaults to Lambda_0/20 (detection + residual stop) and eps_n to
    Lambda_0/10 (the half-threshold bubble-extraction surrogate).  Points
    are detected by ball energies, whose single-bubble limit is the full
    Lambda_0 in every dimension, leaving a wide stable threshold band.
    Everything else is fixed: the detection constants ``_R_GRID`` to
    ``_DETECTION_ORDER`` and the extraction and neck constants
    ``_REPORT_ORDER`` to ``_NECK_OUTER``.
    """

    k_max: int = 8
    eps0: float | None = None
    eps_n: float | None = None
    r_small: float = 0.05


@dataclass(frozen=True)
class PointReport:
    point: np.ndarray
    theta: float
    theta_stable: bool
    theta_samples: dict
    n_hat: int
    inventory: list  # (delta, center, energy) per extracted bubble
    ratio: float  # theta / Lambda_0
    integer_distance: float
    cross_term: float
    necks: dict  # R -> {k: neck energy}
    weak_limit_energy: float
    flags: list
    cluster_size: int = 1


@dataclass(frozen=True)
class DefectReport:
    dimension: int
    lambda0: BubbleConstant
    points: list  # of PointReport
    thresholds: dict
    budget: dict
    description: str = ""

    def validate(self) -> None:
        for p in self.points:
            if p.theta_stable and not (p.theta >= 0):
                raise ValueError("Theta estimates must be nonnegative")
            if p.n_hat < 1 and "no-bubble-extracted" not in p.flags:
                raise ValueError("detected points must carry at least one bubble")


# Geometric steps per refinement ladder.  In a radial or zonal layout a
# shell is at most a few thousand nodes, and three refinements take a
# factor-4 bracket below the stopping ratio 1 + 1e-3 (4 ** (1 / 12**3) =
# 1 + 8.0e-4).  A full-layout shell holds every direction (48,048 nodes at
# n = 5, order 24), so there each refinement halves the bracket in log r
# with one shell: on three-center superpositions at n = 3..6 two steps
# beat twelve by 1.7-2.1x.
_LADDER_STEPS = 12


def _half_threshold_radius(
    w: ScalarField, x, target: float, r_hi: float, order: int, energy_hi: float
) -> float | None:
    """Smallest radius where the unweighted ball energy reaches ``target``,
    within a factor 1 + 1e-3 above it; None when even ``r_hi`` falls short.
    ``energy_hi`` is the known ball energy of ``w`` at ``r_hi``.

    One piece batch brackets the radius: the rungs ``r_hi * 4**-j`` down to
    the first at or below ``floor`` (1e-3 of the finest scale of ``w``),
    whose ball energies are one inner ball plus the shells between rungs,
    summed outward (``np.cumsum``).  The bracket is the largest rung below
    ``target`` and the rung above it.  Each further batch cuts the bracket
    into ``_LADDER_STEPS`` geometric steps (two in a full layout) and sums
    their shells onto the bracket's lower energy, until the bracket is
    narrower than 1 + 1e-3; its upper end is returned.  That is at most
    four batches in a radial or zonal layout.  When every rung is at or
    above ``target`` the lowest rung is the lower end, and the result sits
    just above it."""
    if energy_hi < target:
        return None
    floor = max((_finest_scale(w) or 1e-12) * 1e-3, 1e-300)
    rungs = [r_hi]
    while rungs[-1] > floor:
        rungs.append(rungs[-1] / 4.0)
    if len(rungs) == 1:
        return r_hi
    rungs.reverse()  # ascending, r_hi last
    regions = [(0.0, rungs[0])] + list(zip(rungs[:-2], rungs[1:-1]))
    energies = np.cumsum(_shell_energies(w, x, regions, order))
    below = max(int(np.count_nonzero(energies < target)), 1)
    lo, hi, e_lo = rungs[below - 1], rungs[below], energies[below - 1]
    ladder = 2 if _layout(w, x)[0] == "full" else _LADDER_STEPS
    while hi / lo >= 1.0 + 1e-3:
        steps = lo * (hi / lo) ** (np.arange(1, ladder) / ladder)
        edges = [lo, *steps]
        shells = _shell_energies(w, x, list(zip(edges[:-1], edges[1:])), order)
        energies = np.cumsum([e_lo, *shells])[1:]
        below = int(np.count_nonzero(energies < target))
        if below:
            lo, e_lo = steps[below - 1], energies[below - 1]
        if below < len(steps):
            hi = steps[below]
    return float(hi)


@cache
def _standard_halfball_radius(n: int, energy_target: float) -> float:
    """Radius s with int_{B_s}(|grad U|^2 + U^(2n/(n-2))) = energy_target
    for the standard profile; links the half-threshold radius of a
    concentrating field to its bubble scale."""
    dens = _bubble_density_1d(n)
    x, w = gauss_legendre(48)

    def ball(s):
        r = 0.5 * s * (x + 1.0)
        return unit_sphere_area(n) * 0.5 * s * float(np.dot(w, dens(r) * r ** (n - 1)))

    lo, hi = 1e-6, 1.0
    while ball(hi) < energy_target:
        hi *= 2.0
        if hi > 1e9:
            raise ValueError("energy target exceeds the single-bubble energy")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if ball(mid) >= energy_target:
            hi = mid
        else:
            lo = mid
        if hi / lo < 1 + 1e-12:
            break
    return hi


@cache
def _fit_directions(n: int) -> np.ndarray:
    """The fit's sample directions on S^(n-1), cached and read-only."""
    dirs, _ = _read_only(*unit_sphere_directions(n, 2))
    return dirs


def _fit_sample_points(n: int, x: np.ndarray, scale: float) -> np.ndarray:
    radii = np.geomspace(scale / 30.0, 30.0 * scale, 24)
    dirs = _fit_directions(n)
    return (x[None, None, :] + radii[:, None, None] * dirs[None, :, :]).reshape(-1, n)


def _profile_model(n: int, sign: float, samples: np.ndarray, target: np.ndarray,
                   scale_ref: float):
    """``params = (log delta, center) -> (r, J)``: the residual
    ``r = (U - target) / scale_ref`` of the signed standard profile U at
    ``samples`` and its closed-form Jacobian ``J = dr/dparams``, with
    dU/dc = -grad U and dU/dlog(delta) = U (n-2)/2 (|z|^2 - 1)/(|z|^2 + 1),
    z = (y - c)/delta.  One ``Bubble.value_and_gradient`` gives both; a
    parameter ``Bubble`` refuses raises ``ValueError`` (or ``OverflowError``
    from ``exp(log delta)``)."""

    def model(params):
        b = Bubble(n, params[1:], math.exp(params[0]), sign)
        v, grad = b.value_and_gradient(samples)
        z = (samples - b.center) / b.scale
        zz = np.einsum("ij,ij->i", z, z)
        jac = np.column_stack([0.5 * (n - 2) * v * (zz - 1.0) / (zz + 1.0), -grad])
        jac /= scale_ref
        v -= target
        v /= scale_ref
        return v, jac

    return model


def _levenberg_marquardt(model, p: np.ndarray, tol: float, max_nfev: int):
    """Minimize ``cost = |r|^2 / 2`` over ``p`` for ``model(p) = (r, J)``.

    Marquardt's damped Gauss-Newton: each trial step solves
    ``(J^T J + lam D) h = -J^T r``, with D the largest diag(J^T J) seen so
    far (MINPACK's scaling, which keeps the system positive definite), and
    is accepted when it lowers the cost, that is when the gain ratio
    (actual over predicted decrease) is positive.  lam follows Nielsen's
    rule: times max(1/3, 1 - (2 rho - 1)^3) on acceptance, times 2, 4, 8,
    ... on consecutive rejections.  A trial the model refuses (it raises
    ``ValueError`` or ``OverflowError``) or whose residual or Jacobian is
    not finite is a rejected step.

    Returns ``(p, cost, nfev, stop)``; ``stop`` names the test that ended
    the fit, MINPACK's three at ``tol`` or the evaluation budget:
    ``"ftol"`` (an accepted step's actual and predicted decrease are both at
    most tol * cost), ``"xtol"`` (a step no longer than tol (tol + |p|)),
    ``"gtol"`` (every column of J at cosine at most tol with r) or
    ``"max_nfev"`` (``max_nfev`` evaluations made, the start included).
    The start must evaluate."""

    def evaluate(q):
        try:
            with np.errstate(all="ignore"):
                r, jac = model(q)
        except (ValueError, OverflowError):
            return None
        return (r, jac) if np.isfinite(r).all() and np.isfinite(jac).all() else None

    start = evaluate(p)
    if start is None:
        raise ValueError("the fit's start gives no finite residual")
    r, jac = start
    cost, nfev = 0.5 * float(r @ r), 1
    lam, nu = 1e-3, 2.0
    scale = np.zeros(len(p))
    while True:
        a, g = jac.T @ jac, jac.T @ r
        diag = np.diag(a)
        scale = np.maximum(scale, diag)
        if np.all(np.abs(g) <= tol * np.sqrt(diag * (2.0 * cost))):
            return p, cost, nfev, "gtol"
        while True:
            if nfev >= max_nfev:
                return p, cost, nfev, "max_nfev"
            h = np.linalg.solve(a + lam * np.diag(scale), -g)
            if np.linalg.norm(h) <= tol * (tol + np.linalg.norm(p)):
                return p, cost, nfev, "xtol"
            trial = evaluate(p + h)
            nfev += 1
            new_cost = math.inf if trial is None else 0.5 * float(trial[0] @ trial[0])
            if new_cost < cost:
                break
            lam *= nu
            nu *= 2.0
        predicted = 0.5 * float(h @ (lam * scale * h - g))
        rho = (cost - new_cost) / predicted
        flat = cost - new_cost <= tol * cost and predicted <= tol * cost
        lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        nu = 2.0
        p, cost, (r, jac) = p + h, new_cost, trial
        if flat:
            return p, cost, nfev, "ftol"


def _fit_bubble(
    w: ScalarField, x: np.ndarray, delta0: float, tol: float
) -> tuple[Bubble, dict]:
    """Fit a signed standard profile to ``w`` on (log delta, center).

    ``_levenberg_marquardt`` minimizes the residual of ``_profile_model``,
    scaled by the largest |w| sampled, from (log delta0, x), with its stop
    tests at ``tol * 1e-4`` and at most 400 evaluations.  The fit is
    ``converged`` when it stopped on a tolerance test, not on the budget,
    and its relative RMS residual is below 0.05; ``info["stop"]`` names the
    test.

    The sample cloud spans radii delta0/30 .. 30*delta0 around the probe
    point and excludes the point itself, where imperfect cancellation of
    previously subtracted bubbles leaves a spurious spike.
    """
    n = w.dimension
    samples = _fit_sample_points(n, x, delta0)
    target = w.evaluate(samples)
    # sign read at the working scale, not at the contaminated center
    core = np.linalg.norm(samples - x, axis=1) <= delta0
    sign = 1.0 if float(np.mean(target[core])) >= 0 else -1.0
    model = _profile_model(n, sign, samples, target, np.abs(target).max())

    p0 = np.concatenate([[math.log(delta0)], x])
    p, cost, nfev, stop = _levenberg_marquardt(model, p0, tol * 1e-4, 400)
    delta = math.exp(p[0])
    center = p[1:]
    # snap to the probe point when the offset is far below the bubble scale:
    # the fit cannot resolve it and an exact common center keeps the
    # subtracted superposition radially symmetric (cheap quadrature)
    if np.linalg.norm(center - x) < 1e-3 * delta:
        center = x.copy()
    rel_rms = math.sqrt(2.0 * cost / len(target))
    info = {
        "converged": stop != "max_nfev" and rel_rms < 0.05,
        "cost": cost,
        "rel_rms": rel_rms,
        "nfev": nfev,
        "stop": stop,
    }
    return Bubble(n, center, delta, sign), info


def quantization_report(
    seq: ConcentrationSequence, config: QuantizationConfig | None = None
) -> DefectReport:
    """Full pipeline: detect, extract bubbles until the residual energy
    drops below threshold, tabulate necks and integer ratios."""
    cfg = config or QuantizationConfig()
    n = seq.dimension
    check_report_input(n, cfg)
    lam0 = bubble_energy_constant(n)
    eps0 = cfg.eps0 if cfg.eps0 is not None else lam0.value / 20.0
    eps_n = cfg.eps_n if cfg.eps_n is not None else lam0.value / 10.0

    budget_vals = seq.verify_budget(
        sorted({0, cfg.k_max // 2, cfg.k_max}), order=_DETECTION_ORDER
    )
    worst = max(budget_vals.values())
    if worst > seq.budget:
        raise BudgetError(
            f"sequence norm {worst:.6g} exceeds declared budget {seq.budget:.6g}"
        )

    points, cluster_sizes, _ = _detect_detailed(seq, cfg.k_max, _R_GRID, eps0)

    u_k = seq.field(cfg.k_max)
    reports = []
    for x, csize in zip(points, cluster_sizes):
        flags = [] if csize == 1 else [f"unresolved-cluster:{csize}"]
        theta = theta_estimate(seq, x, cfg.r_small, cfg.k_max, _REPORT_ORDER)
        if not theta.stable:
            flags.append("theta-unstable")

        parts: list[ScalarField] = [u_k]
        weights: list[float] = [1.0]
        inventory = []
        half_radius_unit = _standard_halfball_radius(n, eps_n / 2.0)
        # theta's r_small sample is the ball energy of u_k there
        resid_energy = theta.samples[cfg.r_small]
        for _ in range(_MAX_BUBBLES):
            w = parts[0] if len(parts) == 1 else Superposition(parts, weights)
            if resid_energy < eps0:
                break
            rho = _half_threshold_radius(w, x, eps_n / 2.0, cfg.r_small, _REPORT_ORDER,
                                         resid_energy)
            if rho is None:
                flags.append("half-threshold-not-reached")
                break
            # the half-threshold radius of a concentrated bubble sits at a
            # known multiple of its scale; invert that for the initial guess
            bubble, info = _fit_bubble(w, x, rho / half_radius_unit, _FIT_TOL)
            if not info["converged"]:
                flags.append("fit-not-converged")
                break
            trial = Superposition(parts + [bubble], weights + [-1.0])
            new_energy = bubbling_energy(trial, x, cfg.r_small, _REPORT_ORDER)
            if new_energy > resid_energy - 0.25 * eps_n:
                flags.append("fit-removed-no-energy")
                break
            # an exact bubble's unweighted energy is scale invariant: Lambda_0
            inventory.append((bubble.scale, bubble.center, lam0.value))
            parts.append(bubble)
            weights.append(-1.0)
            resid_energy = new_energy
        else:
            flags.append("max-bubbles-reached")
        if not inventory:
            flags.append("no-bubble-extracted")

        # cross terms are measured, not assumed small: superposition energy
        # minus the sum of the parts' energies over the Theta ball
        part_sum = sum(
            bubbling_energy(Superposition([b], [wt]), x, cfg.r_small, _REPORT_ORDER)
            for b, wt in zip(u_k.parts, u_k.weights)
        )
        cross = theta.samples[cfg.r_small] - part_sum

        entry_idx = int(
            np.argmin([np.linalg.norm(e.center - x) for e in seq.entries])
        )
        # one batch per k; a degenerate (R, k) annulus reads NaN
        necks: dict = {R: {} for R in _NECK_R}
        for k in sorted({max(0, cfg.k_max - 2), cfg.k_max - 1, cfg.k_max}):
            reps = neck_energies(seq, k, _NECK_R, _NECK_OUTER, entry_idx, _REPORT_ORDER)
            for R, rep in zip(_NECK_R, reps):
                necks[R][k] = rep.total

        theta_val = theta.value if theta.stable else float("nan")
        ratio = theta_val / lam0.value if theta.stable else float("nan")
        reports.append(
            PointReport(
                point=x,
                theta=theta_val,
                theta_stable=theta.stable,
                theta_samples=theta.samples,
                n_hat=len(inventory),
                inventory=inventory,
                ratio=ratio,
                integer_distance=abs(ratio - round(ratio))
                if np.isfinite(ratio)
                else float("nan"),
                cross_term=cross,
                necks=necks,
                weak_limit_energy=theta.weak_limit_energy,
                flags=flags,
                cluster_size=csize,
            )
        )

    report = DefectReport(
        dimension=n,
        lambda0=lam0,
        points=reports,
        thresholds={
            "eps0": eps0,
            "eps_n": eps_n,
            "r_grid": list(_R_GRID),
            "r_small": cfg.r_small,
            "detector": "ball-energy",
            "k_max": cfg.k_max,
        },
        budget={str(k): v for k, v in budget_vals.items()},
        description=seq.description,
    )
    report.validate()
    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def report_to_json(report: DefectReport) -> dict:
    """Schema "bubble-lab/1": plot-ready arrays plus per-point detail."""
    return {
        "schema": "bubble-lab/1",
        "n": report.dimension,
        "description": report.description,
        "lambda0": {
            "value": report.lambda0.value,
            "error_bound": report.lambda0.error_bound,
        },
        "sigma_points": [p.point.tolist() for p in report.points],
        "theta": [p.theta for p in report.points],
        "n_hat": [p.n_hat for p in report.points],
        "ratios": [p.ratio for p in report.points],
        "integer_distance": [p.integer_distance for p in report.points],
        "necks": [
            [
                {"R": R, "k": k, "energy": v}
                for R, per_k in sorted(p.necks.items())
                for k, v in sorted(per_k.items())
            ]
            for p in report.points
        ],
        "inventory": [
            [
                {"delta": d, "center": list(map(float, c)), "energy": e}
                for d, c, e in p.inventory
            ]
            for p in report.points
        ],
        "cross_terms": [p.cross_term for p in report.points],
        "weak_limit_energy": [p.weak_limit_energy for p in report.points],
        "flags": [p.flags for p in report.points],
        "cluster_sizes": [p.cluster_size for p in report.points],
        "tolerances": report.thresholds,
        "budget": report.budget,
    }


# The keys a sequence spec may set in [sequence] and in each [bubble:NAME].
_SEQUENCE_KEYS = {"n", "k_max", "budget", "description", "eps0", "eps_n", "r_small"}
_BUBBLE_KEYS = {"center", "base", "weight"}


def read_sequence_spec(path) -> tuple[ConcentrationSequence, dict]:
    """Parse the key-value sequence spec document.

    Layout: a [sequence] section with n, k_max, budget and optional
    thresholds, plus one [bubble:NAME] section per entry carrying
    center (n whitespace-separated coordinates, the origin when missing),
    base and weight.  A missing ``n``, a center with another number of
    coordinates, any other section and any other key raise ValueError.
    """
    import configparser

    cp = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        cp.read_file(fh)
    if "sequence" not in cp:
        raise ValueError("sequence spec needs a [sequence] section")
    for name in cp.sections():
        if name == "sequence":
            allowed = _SEQUENCE_KEYS
        elif name.startswith("bubble:"):
            allowed = _BUBBLE_KEYS
        else:
            raise ValueError(f"unknown sequence spec section [{name}]; "
                             "use [sequence] or [bubble:NAME]")
        unknown = sorted(set(cp[name]) - allowed)
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} in sequence spec "
                             f"section [{name}]")
    sec = cp["sequence"]
    if "n" not in sec:
        raise ValueError("sequence spec needs n in its [sequence] section")
    n = sec.getint("n")
    budget = sec.getfloat("budget", fallback=1e6)
    spec = []
    for name in cp.sections():
        if name == "sequence":
            continue
        b = cp[name]
        center = (np.array([float(t) for t in b["center"].split()])
                  if "center" in b else np.zeros(n))
        if center.size != n:
            raise ValueError(f"center in sequence spec section [{name}] has "
                             f"{center.size} coordinates, expected {n}")
        spec.append((center, b.getfloat("base", fallback=4.0),
                     b.getfloat("weight", fallback=1.0)))
    seq = make_sequence(spec, budget, n, description=sec.get("description", ""))
    extras = {"k_max": sec.getint("k_max", fallback=8)}
    for key in ("eps0", "eps_n", "r_small"):
        if key in sec:
            extras[key] = sec.getfloat(key)
    return seq, extras
