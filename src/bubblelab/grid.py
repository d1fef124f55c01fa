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
cached arrays are read-only.  A zonal ball rule's axis-free part is a
``ZonalTemplate`` (radial nodes, polar cosines and sines, and weights);
the detection scan places one template at many probe points at once.

Pieces.  A ``PieceSet`` holds rules on many regions about one center in
one layout: consecutive or overlapping balls and annuli
(``build_shell_pieces``), or spheres at several radii
(``build_sphere_pieces``).  It is stored as a radial factor (the radial
nodes and weights of every piece, one piece after another) times one
angular factor, so no node is built before it is evaluated.  Every rule
builder is the one-piece case of these two, so each layout's arithmetic
exists once.  The builders validate every piece in one vectorized pass:
its weight sum against its own region's measure and its nodes inside its
own region within ``node_slack``.  ``integrate_pieces`` evaluates whole
pieces together in blocks of at most ``_BLOCK_NODES`` nodes, one integrand
call per block however many integrals it returns, and reduces each piece
with the ``np.dot`` that ``integrate`` uses; a piece larger than
``_CHUNK`` takes ``integrate``'s chunks and threads.

Bit-identity rule.  A piece's nodes, weights and integrals equal those of
its one-piece rule bit for bit.  Numpy's elementwise array results do not
depend on an element's position or on the array's length, so array
arithmetic over concatenated pieces is safe.  Numpy's array power differs
from the scalar power in the last bit for some inputs, so a quantity that
a one-piece rule computes as a scalar (the sphere weight factor
``r ** (n - 1)``) is computed per piece as a scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
from functools import cache
from math import pi, gamma
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_legendre, roots_gegenbauer

__all__ = [
    "QuadratureRule",
    "PieceSet",
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
    "build_shell_pieces",
    "build_sphere_pieces",
    "gauss_legendre",
    "gauss_gegenbauer",
    "ZonalTemplate",
    "zonal_template",
    "geometric_panels",
    "node_slack",
    "integrate",
    "integrate_pieces",
    "set_default_threads",
]

_CHUNK = 1 << 16
# Nodes per integrand call in ``integrate_pieces`` (whole pieces only).
# On the profile sweeps 8192 was faster than 4096 and 16384; evaluating a
# whole sweep at once raised peak memory by 17%.
_BLOCK_NODES = 8192
_MEASURE_TOL = 1e-10
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


def node_slack(radius):
    """How far past a region of outer radius ``radius`` a node of a valid
    rule may sit (``QuadratureRule.validate``): room for rounding.  Takes
    one radius or an array of them."""
    return 1e-12 * np.maximum(radius, 1.0)


def _region_measure(n: int, sphere: bool, inner, outer):
    """Measure of a sphere of radius ``outer`` or of the shell between
    ``inner`` and ``outer``; takes scalars or arrays."""
    if sphere:
        return unit_sphere_area(n) * outer ** (n - 1)
    return unit_ball_volume(n) * (outer**n - inner**n)


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
    measure_tol: float = _MEASURE_TOL

    @property
    def measure(self) -> float:
        """Exact measure of the region the rule integrates over."""
        inner, outer = self.radii
        return _region_measure(self.dimension, self.kind == "sphere", inner, outer)

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
class PieceSet:
    """Rules on several regions about one center, in one node layout.

    Piece ``i`` integrates over the shell ``radii[i] = (inner, outer)``, or
    over the sphere of radius ``outer`` when ``kind`` is "sphere".  Its
    nodes are ``center + s[k] * dirs[j]`` with weights
    ``radial_weights[k] * dir_weights[j]`` for
    ``bounds[i] <= k < bounds[i + 1]``, radial-major, so the pieces lie one
    after another in one node set.  ``symmetry`` and ``axis`` are those of
    ``QuadratureRule``.
    """

    dimension: int
    kind: str  # "volume" | "sphere"
    center: np.ndarray
    radii: np.ndarray  # (m, 2): (inner, outer) per piece
    s: np.ndarray
    radial_weights: np.ndarray
    bounds: np.ndarray  # (m + 1,)
    dirs: np.ndarray  # (k, n)
    dir_weights: np.ndarray  # (k,)
    symmetry: str = "full"
    axis: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.radii)

    @property
    def sizes(self) -> np.ndarray:
        """Node count of each piece."""
        return (self.bounds[1:] - self.bounds[:-1]) * len(self.dir_weights)

    def block(self, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of pieces ``a`` to ``b - 1``, one after another."""
        lo, hi = self.bounds[a], self.bounds[b]
        nodes = self.center + self.s[lo:hi, None, None] * self.dirs[None, :, :]
        weights = self.radial_weights[lo:hi, None] * self.dir_weights[None, :]
        return nodes.reshape(-1, self.dimension), weights.reshape(-1)

    def rule(self, i: int) -> QuadratureRule:
        """Piece ``i`` as a rule of its own."""
        nodes, weights = self.block(i, i + 1)
        inner, outer = (float(v) for v in self.radii[i])
        if self.kind == "sphere":
            kind = "sphere"
        else:
            kind = "ball" if inner == 0.0 else "annulus"
        return QuadratureRule(
            dimension=self.dimension,
            nodes=nodes,
            weights=weights,
            kind=kind,
            center=self.center,
            radii=(inner, outer),
            symmetry=self.symmetry,
            axis=self.axis,
        )

    def validate(self) -> None:
        """Check every piece at once: positive weights, each piece's weight
        sum against its own region's measure within ``_MEASURE_TOL``, and
        each node inside its own region within ``node_slack``.

        A node's distance to the center is its radial node times the length
        of its direction, so each piece's smallest and largest radial node
        times the shortest and longest direction bound its distances."""
        inner, outer = self.radii[:, 0], self.radii[:, 1]
        sphere = self.kind == "sphere"
        if self.radial_weights.min() <= 0 or self.dir_weights.min() <= 0:
            raise ValueError("all quadrature weights must be positive")
        starts = self.bounds[:-1]
        meas = _region_measure(self.dimension, sphere, inner, outer)
        sums = np.add.reduceat(self.radial_weights, starts) * self.dir_weights.sum()
        off = np.abs(sums - meas) > _MEASURE_TOL * meas
        if off.any():
            i = int(off.argmax())
            raise ValueError(
                f"piece {i}: weight sum {sums[i]:.17g} does not match region "
                f"measure {meas[i]:.17g} within tolerance {_MEASURE_TOL:g}"
            )
        lengths = np.sqrt(np.einsum("ij,ij->i", self.dirs, self.dirs))
        near = np.minimum.reduceat(self.s, starts) * lengths.min()
        far = np.maximum.reduceat(self.s, starts) * lengths.max()
        slack = node_slack(outer)
        if sphere:
            if (np.maximum(np.abs(near - outer), np.abs(far - outer)) > slack).any():
                raise ValueError("sphere rule has nodes off the sphere")
        elif ((far > outer + slack) | (near < inner - slack)).any():
            raise ValueError("rule has nodes outside the region")


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


def _check_region_args(n: int, r, order: int) -> None:
    """Reject a bad dimension, a non-positive radius (one or an array of
    them) or an order below 1."""
    if int(n) != n or n < 3:
        raise ValueError(f"dimension must be an integer >= 3, got {n}")
    r = np.asarray(r, dtype=float)
    if not (r > 0).all():
        raise ValueError(f"radius must be positive, got {r[~(r > 0)].flat[0]}")
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


def _polar_nodes(n: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cosines, sines and weights of the polar angles on S^(n-1); the
    Gegenbauer weight (1-t^2)^((n-3)/2) carries the sin^(n-2) Jacobian."""
    t, wt = gauss_gegenbauer(order, (n - 2) / 2)
    return t, np.sqrt(np.clip(1.0 - t**2, 0.0, None)), wt


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
    t, s, wt = _polar_nodes(n, order)
    pts = np.empty((order * sub_pts.shape[0], n))
    pts[:, :-1] = (s[:, None, None] * sub_pts[None, :, :]).reshape(-1, n - 1)
    pts[:, -1] = np.repeat(t, sub_pts.shape[0])
    w = (wt[:, None] * sub_w[None, :]).reshape(-1)
    return pts, w


def _panel_edges(inner: float, outer: float, panels: Sequence[float] | None) -> np.ndarray:
    """Sorted distinct break radii of [inner, outer], ends included."""
    if panels is None:
        return np.array([inner, outer])
    edges = np.unique(np.concatenate([[inner, outer], np.asarray(panels, dtype=float)]))
    return edges[(edges >= inner) & (edges <= outer)]


def _gauss_intervals(
    lo: np.ndarray, hi: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on each interval [lo[i], hi[i]], in
    interval order."""
    x, w = gauss_legendre(order)
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * x[None, :]
    return nodes.reshape(-1), (half[:, None] * w[None, :]).reshape(-1)


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


def _unit_perp_pair(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pair (e, e_perp) with e along ``axis``."""
    e = axis / np.linalg.norm(axis)
    k = int(np.argmin(np.abs(e)))
    perp = np.zeros_like(e)
    perp[k] = 1.0
    perp -= e * e[k]
    return e, perp / np.linalg.norm(perp)


def _zonal_dirs(n: int, order: int, axis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directions ``t e + sin_t perp`` of the polar arc about ``axis``, the
    polar weights, and the unit axis ``e``."""
    t, sin_t, wt = _polar_nodes(n, order)
    e, perp = _unit_perp_pair(np.asarray(axis, dtype=float))
    return t[:, None] * e[None, :] + sin_t[:, None] * perp[None, :], wt, e


def build_shell_pieces(
    n: int,
    center,
    regions,
    order: int = 32,
    symmetry: str = "full",
    axis=None,
    angular_order: int | None = None,
    polar_order: int = 48,
    radial_panels: Sequence[Sequence[float] | None] | None = None,
) -> PieceSet:
    """Ball and annulus pieces ``regions = [(inner, outer), ...]`` about
    ``center``, validated.

    Each piece has ``order`` Gauss-Legendre nodes per radial panel, its
    panels broken at its entry of ``radial_panels`` (None: one panel).  The
    layout is one of: "full" product rules with ``angular_order`` (default
    ``default_angular_order``); "radial" single-ray rules; "zonal"
    half-plane rules about ``axis`` with ``polar_order`` polar nodes.
    """
    regions = np.asarray(regions, dtype=float).reshape(-1, 2)
    inner, outer = regions[:, 0], regions[:, 1]
    _check_region_args(n, outer, order)
    bad = (inner < 0) | (inner >= outer)
    if bad.any():
        raise ValueError(
            f"need 0 <= inner < outer, got ({inner[bad][0]}, {outer[bad][0]})"
        )
    c = _as_center(center, n)
    if radial_panels is None:
        radial_panels = [None] * len(regions)
    if len(radial_panels) != len(regions):
        raise ValueError(f"need one panel list per region, got {len(radial_panels)} "
                         f"for {len(regions)}")
    if any(p is not None for p in radial_panels):
        edges = [_panel_edges(a, b, p) for a, b, p in zip(inner, outer, radial_panels)]
        lo = np.concatenate([e[:-1] for e in edges])
        hi = np.concatenate([e[1:] for e in edges])
        bounds = np.cumsum([0] + [len(e) - 1 for e in edges]) * order
    else:
        lo, hi, bounds = inner, outer, np.arange(len(regions) + 1) * order
    s, ws = _gauss_intervals(lo, hi, order)
    e = None
    if symmetry == "radial":
        dirs, dir_w = np.eye(n)[:1], np.ones(1)
        radial_w = unit_sphere_area(n) * ws * s ** (n - 1)
    elif symmetry == "zonal":
        dirs, wt, e = _zonal_dirs(n, polar_order, axis)
        dir_w = wt * unit_sphere_area(n - 1)
        radial_w = ws * s ** (n - 1)
    elif symmetry == "full":
        ang = default_angular_order(n, order) if angular_order is None else angular_order
        dirs, dir_w = unit_sphere_directions(n, ang)
        radial_w = ws * s ** (n - 1)
    else:
        raise ValueError(f"unknown symmetry {symmetry!r}; use full, radial or zonal")
    pieces = PieceSet(n, "volume", c, regions, s, radial_w, bounds, dirs, dir_w,
                      symmetry, e)
    pieces.validate()
    return pieces


def build_sphere_pieces(
    n: int, center, radii, order: int = 16, symmetry: str = "full", axis=None
) -> PieceSet:
    """Sphere pieces of the given radii about ``center``, validated: "full"
    product-angle rules of angular order ``order``, or "zonal" polar-arc
    rules about ``axis`` with ``order`` polar nodes."""
    radii = np.asarray(radii, dtype=float).reshape(-1)
    _check_region_args(n, radii, order)
    c = _as_center(center, n)
    # scalar powers, as a one-piece rule computes them (module docstring)
    powers = [float(r) ** (n - 1) for r in radii]
    e = None
    if symmetry == "zonal":
        dirs, dir_w, e = _zonal_dirs(n, order, axis)
        radial_w = np.array([unit_sphere_area(n - 1) * p for p in powers])
    elif symmetry == "full":
        dirs, dir_w = unit_sphere_directions(n, order)
        radial_w = np.array(powers)
    else:
        raise ValueError(f"unknown symmetry {symmetry!r}; use full or zonal")
    pieces = PieceSet(n, "sphere", c, np.stack([radii, radii], axis=1), radii,
                      radial_w, np.arange(len(radii) + 1), dirs, dir_w, symmetry, e)
    pieces.validate()
    return pieces


def build_sphere_rule(
    n: int, center, r: float, order: int = 16
) -> QuadratureRule:
    """Product-angle rule on the sphere of radius ``r`` about ``center``."""
    return build_sphere_pieces(n, center, [r], order).rule(0)


def build_ball_rule(
    n: int,
    center,
    r: float,
    order: int = 32,
    angular_order: int | None = None,
    radial_panels: Sequence[float] | None = None,
) -> QuadratureRule:
    """Radial Gauss-Legendre x product-angle rule on the ball B(center, r)."""
    return build_shell_pieces(
        n, center, [(0.0, r)], order, angular_order=angular_order,
        radial_panels=[radial_panels],
    ).rule(0)


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
    return build_shell_pieces(
        n, center, [(inner, outer)], order, angular_order=angular_order,
        radial_panels=[radial_panels],
    ).rule(0)


def build_radial_ball_rule(
    n: int,
    center,
    r: float,
    order: int = 64,
    inner: float = 0.0,
    radial_panels: Sequence[float] | None = None,
) -> QuadratureRule:
    """Single-ray rule; valid for integrands radial about ``center``."""
    return build_shell_pieces(
        n, center, [(inner, r)], order, "radial", radial_panels=[radial_panels]
    ).rule(0)


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
    """The zonal template of ``build_zonal_ball_rule`` with these arguments,
    validated."""
    piece = build_shell_pieces(n, 0, [(inner, r)], order, "zonal", np.eye(n)[0],
                               polar_order=polar_order, radial_panels=[radial_panels])
    t, sin_t, _ = _polar_nodes(n, polar_order)
    return ZonalTemplate(n, (inner, r), piece.s, t, sin_t, piece.block(0, 1)[1])


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
    return build_shell_pieces(
        n, center, [(inner, r)], order, "zonal", axis, polar_order=polar_order,
        radial_panels=[radial_panels],
    ).rule(0)


def build_zonal_sphere_rule(
    n: int, center, r: float, axis, polar_order: int = 64
) -> QuadratureRule:
    """Polar-arc sphere rule; valid for integrands axisymmetric about ``axis``."""
    return build_sphere_pieces(n, center, [r], polar_order, "zonal", axis).rule(0)


def _integrand_values(vals, nodes: np.ndarray) -> np.ndarray:
    """An integrand's values at ``nodes`` as floats; raises on a wrong
    shape or a non-finite value."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (len(nodes),):
        raise ValueError(
            f"integrand returned shape {vals.shape}, expected {(len(nodes),)}"
        )
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise NonFiniteFieldError(nodes[bad], float(vals[bad]))
    return vals


def _weighted_sums(
    nodes: np.ndarray,
    weights: np.ndarray,
    f: Callable[[np.ndarray], Sequence[np.ndarray]],
    threads: int | None,
) -> list[float]:
    """Weighted sum of each integrand ``f`` returns, chunked as in
    ``integrate``: one call of ``f`` per chunk."""
    if threads is None:
        threads = _DEFAULT_THREADS
    spans = [(i, min(i + _CHUNK, len(nodes))) for i in range(0, len(nodes), _CHUNK)]

    def _partial(span):
        a, b = span
        return [float(np.dot(weights[a:b], _integrand_values(v, nodes[a:b])))
                for v in f(nodes[a:b])]

    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            partials = list(ex.map(_partial, spans))
    else:
        partials = [_partial(s) for s in spans]
    return [float(np.sum(np.asarray(col))) for col in zip(*partials)]


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
    return _weighted_sums(rule.nodes, rule.weights, lambda pts: (f(pts),), threads)[0]


def integrate_pieces(
    pieces: PieceSet,
    f: Callable[[np.ndarray], Sequence[np.ndarray]],
    threads: int | None = None,
) -> np.ndarray:
    """Weighted sum over every piece of every integrand ``f`` returns.

    ``f(points)`` returns a sequence of k arrays with one value per point,
    so a field evaluated once per node serves k integrals.  The result has
    shape (len(pieces), k), and entry (i, j) equals
    ``integrate(pieces.rule(i), lambda p: f(p)[j], threads)`` bit for bit.
    Whole pieces are evaluated together in blocks of at most
    ``_BLOCK_NODES`` nodes; a larger piece is evaluated alone, and one
    larger than ``_CHUNK`` in ``integrate``'s chunks and threads.
    """
    sizes = pieces.sizes
    rows = []
    a = 0
    while a < len(pieces):
        b, total = a + 1, sizes[a]
        while b < len(pieces) and total + sizes[b] <= _BLOCK_NODES:
            total += sizes[b]
            b += 1
        nodes, weights = pieces.block(a, b)
        if b == a + 1:
            rows.append(_weighted_sums(nodes, weights, f, threads))
        else:
            cols = [_integrand_values(v, nodes) for v in f(nodes)]
            ends = np.cumsum(sizes[a:b])
            for lo, hi in zip(ends - sizes[a:b], ends):
                rows.append([float(np.dot(weights[lo:hi], v[lo:hi])) for v in cols])
        a = b
    return np.array(rows)
