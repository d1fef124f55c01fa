"""Quadrature rules on balls, spheres and annuli in R^n, n >= 3.

Rules are product constructions: a Gauss-Legendre radial factor carrying
the r^(n-1) Jacobian times an angular factor built recursively from
Gauss-Gegenbauer nodes in the polar cosines (plain midpoint points on the
final circle, which integrates trigonometric polynomials exactly).

Besides the full product rules, two reduced node layouts are provided for
integrands with rotational symmetry:

* ``radial`` rules place nodes on a single ray and are exact (up to the
  radial quadrature) for integrands that depend only on the distance to
  the rule's center;
* ``zonal`` rules place nodes on a half-plane through a symmetry axis and
  are valid for integrands invariant under rotations about that axis.

Both carry the full region measure in their weights, so they satisfy the
same weight-sum invariants as the full rules.

Gauss-Legendre and Gauss-Gegenbauer nodes and weights come from one
process-wide cache (``gauss_legendre``, ``gauss_gegenbauer``) keyed by
``order`` and ``(order, alpha)``; scipy is asked only on a miss and the
cached arrays are read-only.  A zonal ball rule is a ``ZonalTemplate``
(radial nodes, polar cosines and sines, and weights, none of which depend
on the axis) placed at a center along an axis; the detection scan places
one template at many probe points at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from concurrent.futures import ThreadPoolExecutor
from functools import cache
from math import pi, gamma
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_legendre, roots_gegenbauer

__all__ = [
    "QuadratureRule",
    "RadialGrid",
    "NonFiniteFieldError",
    "unit_ball_volume",
    "unit_sphere_area",
    "build_ball_rule",
    "build_sphere_rule",
    "build_annulus_rule",
    "build_radial_ball_rule",
    "build_zonal_ball_rule",
    "build_zonal_sphere_rule",
    "gauss_legendre",
    "gauss_gegenbauer",
    "ZonalTemplate",
    "zonal_template",
    "geometric_panels",
    "node_slack",
    "integrate",
    "set_default_threads",
]

_CHUNK = 1 << 16
_DEFAULT_THREADS = 1


def set_default_threads(threads: int) -> None:
    """Thread count used by ``integrate`` when none is passed explicitly.

    Results are bit-identical for any value (fixed chunking, ordered
    reduction); this only trades wall time.
    """
    global _DEFAULT_THREADS
    if threads < 1:
        raise ValueError("thread count must be >= 1")
    _DEFAULT_THREADS = int(threads)


class NonFiniteFieldError(ValueError):
    """Integrand returned a non-finite value at a quadrature node."""

    def __init__(self, node: np.ndarray, value: float):
        self.node = np.asarray(node)
        self.value = value
        super().__init__(
            f"non-finite integrand value {value!r} at node {self.node.tolist()}"
        )


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return pi ** (n / 2) / gamma(n / 2 + 1)


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^(n-1) in R^n."""
    return n * unit_ball_volume(n)


def node_slack(radius: float) -> float:
    """How far past a region of outer radius ``radius`` a node of a valid
    rule may sit (``QuadratureRule.validate``): room for rounding."""
    return 1e-12 * max(radius, 1.0)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights for a ball, sphere or annulus region.

    ``symmetry`` records the node layout: "full" rules integrate any
    smooth function; "radial" rules require the integrand to depend only
    on the distance to ``center``; "zonal" rules require invariance under
    rotations about the axis ``center + t * axis``.
    """

    dimension: int
    nodes: np.ndarray
    weights: np.ndarray
    kind: str  # "ball" | "sphere" | "annulus"
    center: np.ndarray
    radii: tuple[float, float]  # (inner, outer)
    symmetry: str = "full"
    axis: np.ndarray | None = None
    measure_tol: float = 1e-10

    @property
    def measure(self) -> float:
        """Exact measure of the region the rule integrates over."""
        inner, outer = self.radii
        n = self.dimension
        if self.kind == "sphere":
            return unit_sphere_area(n) * outer ** (n - 1)
        return unit_ball_volume(n) * (outer**n - inner**n)

    def validate(self) -> None:
        inner, outer = self.radii
        if np.any(self.weights <= 0):
            raise ValueError("all quadrature weights must be positive")
        meas = self.measure
        if abs(float(self.weights.sum()) - meas) > self.measure_tol * meas:
            raise ValueError(
                f"weight sum {self.weights.sum():.17g} does not match region "
                f"measure {meas:.17g} within tolerance {self.measure_tol:g}"
            )
        dist = np.linalg.norm(self.nodes - self.center, axis=1)
        slack = node_slack(outer)
        if self.kind == "sphere":
            if np.any(np.abs(dist - outer) > slack):
                raise ValueError("sphere rule has nodes off the sphere")
        else:
            if np.any(dist > outer + slack) or np.any(dist < inner - slack):
                raise ValueError("rule has nodes outside the region")

    def __len__(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing positive radii, with a refinement counter."""

    radii: np.ndarray
    refinement_level: int = 0

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        object.__setattr__(self, "radii", r)
        if r.ndim != 1 or r.size == 0:
            raise ValueError("radii must be a non-empty 1-d array")
        if r[0] <= 0:
            raise ValueError("first radius must be positive")
        if np.any(np.diff(r) <= 0):
            raise ValueError("radii must be strictly increasing")

    @classmethod
    def log_spaced(cls, rmin: float, rmax: float, count: int) -> "RadialGrid":
        if not (0 < rmin < rmax) or count < 2:
            raise ValueError("need 0 < rmin < rmax and count >= 2")
        return cls(np.geomspace(rmin, rmax, count))

    @classmethod
    def linear(cls, rmin: float, rmax: float, count: int) -> "RadialGrid":
        if not (0 < rmin < rmax) or count < 2:
            raise ValueError("need 0 < rmin < rmax and count >= 2")
        return cls(np.linspace(rmin, rmax, count))

    def refine(self) -> "RadialGrid":
        """Insert geometric midpoints between consecutive radii."""
        r = self.radii
        mids = np.sqrt(r[:-1] * r[1:])
        merged = np.sort(np.concatenate([r, mids]))
        return RadialGrid(merged, self.refinement_level + 1)

    def __len__(self) -> int:
        return self.radii.size


def _check_region_args(n: int, r: float, order: int) -> None:
    if int(n) != n or n < 3:
        raise ValueError(f"dimension must be an integer >= 3, got {n}")
    if not (r > 0):
        raise ValueError(f"radius must be positive, got {r}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")


def _as_center(center, n: int) -> np.ndarray:
    if center is None or (np.isscalar(center) and center == 0):
        return np.zeros(n)
    c = np.asarray(center, dtype=float).reshape(-1)
    if c.size != n:
        raise ValueError(f"center has {c.size} components, expected {n}")
    return c


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@cache
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only."""
    return _read_only(*roots_legendre(order))


@cache
def gauss_gegenbauer(order: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Gegenbauer nodes and weights for (1-t^2)^(alpha-1/2) on [-1, 1],
    cached and read-only."""
    return _read_only(*roots_gegenbauer(order, alpha))


def default_angular_order(n: int, order: int) -> int:
    """Order-adaptive angular resolution: generous for n=3, lean above."""
    if n == 3:
        return max(4, min(order, 32))
    if n == 4:
        return max(4, min(order, 12))
    return max(4, min(order, 8))


def unit_sphere_directions(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Product-angle nodes and weights on S^(n-1); weights sum to its area.

    Recursive construction: S^1 uses equally spaced points (exact for
    trigonometric polynomials of degree < 2*order), each further dimension
    adds a Gauss-Gegenbauer factor in the polar cosine, which accounts for
    the sin^(n-2) surface Jacobian exactly.
    """
    if n == 2:
        m = max(2 * order, 4)
        phi = (np.arange(m) + 0.5) * (2 * pi / m)
        pts = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        return pts, np.full(m, 2 * pi / m)
    sub_pts, sub_w = unit_sphere_directions(n - 1, order)
    # weight (1-t^2)^((n-3)/2) on [-1,1]  <->  Gegenbauer alpha=(n-2)/2
    t, wt = gauss_gegenbauer(order, (n - 2) / 2)
    s = np.sqrt(np.clip(1.0 - t**2, 0.0, None))
    pts = np.empty((order * sub_pts.shape[0], n))
    pts[:, :-1] = (s[:, None, None] * sub_pts[None, :, :]).reshape(-1, n - 1)
    pts[:, -1] = np.repeat(t, sub_pts.shape[0])
    w = (wt[:, None] * sub_w[None, :]).reshape(-1)
    return pts, w


def _radial_nodes(
    inner: float, outer: float, order: int, panels: Sequence[float] | None
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [inner, outer], optionally paneled."""
    x, w = gauss_legendre(order)
    if panels is None:
        edges = np.array([inner, outer])
    else:
        edges = np.asarray(sorted(set([inner, outer] + list(panels))), dtype=float)
        edges = edges[(edges >= inner) & (edges <= outer)]
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def geometric_panels(
    inner: float, outer: float, finest: float | None, max_panels: int = 80
) -> list[float] | None:
    """Panel break radii refining geometrically toward ``inner``.

    ``finest`` is the smallest feature scale the integrand carries near the
    region's center; panels are doubled from that scale outward so a fixed
    Gauss order per panel resolves every octave.  Returns None when a single
    panel suffices.
    """
    if finest is None or not np.isfinite(finest) or finest <= 0:
        return None
    if finest >= (outer - inner) / 4:
        return None
    start = max(finest / 4, outer * 1e-17)
    edges = []
    h = start
    while inner + h < outer and len(edges) < max_panels:
        edges.append(inner + h)
        h *= 2.0
    return edges


def build_sphere_rule(
    n: int, center, r: float, order: int = 16
) -> QuadratureRule:
    """Product-angle rule on the sphere of radius ``r`` about ``center``."""
    _check_region_args(n, r, order)
    c = _as_center(center, n)
    dirs, w = unit_sphere_directions(n, order)
    rule = QuadratureRule(
        dimension=n,
        nodes=c[None, :] + r * dirs,
        weights=r ** (n - 1) * w,
        kind="sphere",
        center=c,
        radii=(r, r),
    )
    rule.validate()
    return rule


def _product_volume_rule(
    n: int,
    c: np.ndarray,
    inner: float,
    outer: float,
    order: int,
    angular_order: int | None,
    radial_panels: Sequence[float] | None,
    kind: str,
) -> QuadratureRule:
    ang = default_angular_order(n, order) if angular_order is None else angular_order
    dirs, wd = unit_sphere_directions(n, ang)
    s, ws = _radial_nodes(inner, outer, order, radial_panels)
    nodes = c[None, None, :] + s[:, None, None] * dirs[None, :, :]
    weights = (ws * s ** (n - 1))[:, None] * wd[None, :]
    rule = QuadratureRule(
        dimension=n,
        nodes=nodes.reshape(-1, n),
        weights=weights.reshape(-1),
        kind=kind,
        center=c,
        radii=(inner, outer),
    )
    rule.validate()
    return rule


def build_ball_rule(
    n: int,
    center,
    r: float,
    order: int = 32,
    angular_order: int | None = None,
    radial_panels: Sequence[float] | None = None,
) -> QuadratureRule:
    """Radial Gauss-Legendre x product-angle rule on the ball B(center, r)."""
    _check_region_args(n, r, order)
    return _product_volume_rule(
        n, _as_center(center, n), 0.0, r, order, angular_order, radial_panels, "ball"
    )


def build_annulus_rule(
    n: int,
    center,
    inner: float,
    outer: float,
    order: int = 32,
    angular_order: int | None = None,
    radial_panels: Sequence[float] | None = None,
) -> QuadratureRule:
    """Product rule on the annulus inner <= |x - center| <= outer."""
    _check_region_args(n, outer, order)
    if not (0 <= inner < outer):
        raise ValueError(f"need 0 <= inner < outer, got ({inner}, {outer})")
    return _product_volume_rule(
        n, _as_center(center, n), inner, outer, order, angular_order,
        radial_panels, "annulus",
    )


def _unit_perp_pair(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pair (e, e_perp) with e along ``axis``."""
    e = axis / np.linalg.norm(axis)
    k = int(np.argmin(np.abs(e)))
    perp = np.zeros_like(e)
    perp[k] = 1.0
    perp -= e * e[k]
    return e, perp / np.linalg.norm(perp)


def build_radial_ball_rule(
    n: int,
    center,
    r: float,
    order: int = 64,
    inner: float = 0.0,
    radial_panels: Sequence[float] | None = None,
) -> QuadratureRule:
    """Single-ray rule; valid for integrands radial about ``center``."""
    _check_region_args(n, r, order)
    c = _as_center(center, n)
    s, ws = _radial_nodes(inner, r, order, radial_panels)
    e = np.zeros(n)
    e[0] = 1.0
    rule = QuadratureRule(
        dimension=n,
        nodes=c[None, :] + s[:, None] * e[None, :],
        weights=unit_sphere_area(n) * ws * s ** (n - 1),
        kind="ball" if inner == 0.0 else "annulus",
        center=c,
        radii=(inner, r),
        symmetry="radial",
    )
    rule.validate()
    return rule


@dataclass(frozen=True)
class ZonalTemplate:
    """Axis-free part of a zonal rule on a ball or annulus about the origin.

    ``s`` are the radial nodes, ``t`` and ``sin_t`` the cosines and sines
    of the polar angles, and ``weights`` the flattened (radial-major) node
    weights, which do not depend on where or along which axis the template
    is placed.  Placed at center ``c`` along the unit axis ``e`` with
    perpendicular ``perp``, node ``(i, j)`` is
    ``c + s[i] * (t[j] e + sin_t[j] perp)``.
    """

    dimension: int
    radii: tuple[float, float]  # (inner, outer)
    s: np.ndarray
    t: np.ndarray
    sin_t: np.ndarray
    weights: np.ndarray

    def place(self, centers: np.ndarray, e: np.ndarray, perp: np.ndarray) -> np.ndarray:
        """Nodes for m placements, shape (m, len(self), n): row k uses
        ``centers[k]``, ``e[k]`` and ``perp[k]``."""
        dirs = (self.t[None, :, None] * e[:, None, :]
                + self.sin_t[None, :, None] * perp[:, None, :])
        nodes = (centers[:, None, None, :]
                 + self.s[None, :, None, None] * dirs[:, None, :, :])
        return nodes.reshape(len(centers), -1, self.dimension)

    def rule(self, center: np.ndarray, axis) -> QuadratureRule:
        """The template placed at ``center`` along ``axis``, not validated."""
        e, perp = _unit_perp_pair(np.asarray(axis, dtype=float))
        inner, outer = self.radii
        return QuadratureRule(
            dimension=self.dimension,
            nodes=self.place(center[None, :], e[None, :], perp[None, :])[0],
            weights=self.weights,
            kind="ball" if inner == 0.0 else "annulus",
            center=center,
            radii=self.radii,
            symmetry="zonal",
            axis=e,
        )

    def __len__(self) -> int:
        return self.weights.size


def zonal_template(
    n: int,
    r: float,
    order: int = 32,
    polar_order: int = 48,
    inner: float = 0.0,
    radial_panels: Sequence[float] | None = None,
) -> ZonalTemplate:
    """The zonal template of ``build_zonal_ball_rule`` with these arguments."""
    _check_region_args(n, r, order)
    t, wt = gauss_gegenbauer(polar_order, (n - 2) / 2)  # weight (1-t^2)^((n-3)/2)
    sin_t = np.sqrt(np.clip(1.0 - t**2, 0.0, None))
    wt = wt * unit_sphere_area(n - 1)
    s, ws = _radial_nodes(inner, r, order, radial_panels)
    weights = (ws * s ** (n - 1))[:, None] * wt[None, :]
    return ZonalTemplate(n, (inner, r), s, t, sin_t, weights.reshape(-1))


def build_zonal_ball_rule(
    n: int,
    center,
    r: float,
    axis,
    order: int = 32,
    polar_order: int = 48,
    inner: float = 0.0,
    radial_panels: Sequence[float] | None = None,
) -> QuadratureRule:
    """Half-plane rule; valid for integrands axisymmetric about ``axis``.

    The (n-2)-sphere of directions at fixed polar angle is integrated
    analytically; nodes live in the plane spanned by the axis and one
    perpendicular direction.
    """
    template = zonal_template(n, r, order, polar_order, inner, radial_panels)
    rule = template.rule(_as_center(center, n), axis)
    rule.validate()
    return rule


def build_zonal_sphere_rule(
    n: int, center, r: float, axis, polar_order: int = 64
) -> QuadratureRule:
    """Polar-arc sphere rule; valid for integrands axisymmetric about ``axis``."""
    _check_region_args(n, r, polar_order)
    c = _as_center(center, n)
    e, perp = _unit_perp_pair(np.asarray(axis, dtype=float))
    t, wt = gauss_gegenbauer(polar_order, (n - 2) / 2)
    sin_t = np.sqrt(np.clip(1.0 - t**2, 0.0, None))
    dirs = t[:, None] * e[None, :] + sin_t[:, None] * perp[None, :]
    rule = QuadratureRule(
        dimension=n,
        nodes=c[None, :] + r * dirs,
        weights=unit_sphere_area(n - 1) * r ** (n - 1) * wt,
        kind="sphere",
        center=c,
        radii=(r, r),
        symmetry="zonal",
        axis=e,
    )
    rule.validate()
    return rule


def _integrand_values(
    f: Callable[[np.ndarray], np.ndarray], nodes: np.ndarray
) -> np.ndarray:
    """``f`` at ``nodes``; raises on a wrong shape or a non-finite value."""
    vals = np.asarray(f(nodes), dtype=float)
    if vals.shape != (len(nodes),):
        raise ValueError(
            f"integrand returned shape {vals.shape}, expected {(len(nodes),)}"
        )
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise NonFiniteFieldError(nodes[bad], float(vals[bad]))
    return vals


def integrate(
    rule: QuadratureRule,
    f: Callable[[np.ndarray], np.ndarray],
    threads: int | None = None,
) -> float:
    """Weighted sum of ``f`` over the rule's nodes.

    Evaluation is chunked with a fixed chunk size and the chunk partial
    sums are reduced in index order, so the result is bit-identical for
    any thread count.
    """
    if threads is None:
        threads = _DEFAULT_THREADS
    nodes, weights = rule.nodes, rule.weights
    spans = [(i, min(i + _CHUNK, len(nodes))) for i in range(0, len(nodes), _CHUNK)]

    def _partial(span):
        a, b = span
        return float(np.dot(weights[a:b], _integrand_values(f, nodes[a:b])))

    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            partials = list(ex.map(_partial, spans))
    else:
        partials = [_partial(s) for s in spans]
    return float(np.sum(np.asarray(partials)))
