"""Quadrature rules on balls, spheres and annuli in R^n, n >= 3.

Rules are products of a Gauss-Legendre radial factor carrying the
r^(n-1) Jacobian and an angular factor.  Full layouts (balls, annuli and
spheres) at n >= 5 and angular orders up to 8 take a fully symmetric
angular rule of total degree 2 * angular_order - 1
(``symmetric_sphere_directions``): the orbits of a few small integer
points under coordinate permutations and sign changes, with weights from
the moment equations, 6,352 directions at n = 6 and degree 15.  Other full
layouts take the recursive product rule of the same degree
(``unit_sphere_directions``).  ``_full_directions`` alone makes that choice.

Besides the full rules, two reduced node layouts are provided for
integrands with rotational symmetry:

* ``radial`` rules place nodes on a single ray and are exact (up to the
  radial quadrature) for integrands that depend only on the distance to
  the rule's center;
* ``zonal`` rules place nodes on a half-plane through a symmetry axis and
  are valid for integrands invariant under rotations about that axis.

Both carry the full region measure in their weights, so they satisfy the
same weight-sum invariants as the full rules.

Gauss-Legendre and Gauss-Gegenbauer nodes and weights, the symmetric
sphere rules and the full angular factors come from one process-wide cache
each (``gauss_legendre``, ``gauss_gegenbauer``,
``symmetric_sphere_directions``, ``_full_directions``) keyed by ``order``,
``(order, alpha)``, ``(n, degree)`` and ``(n, angular_order)``; each is
built only on a miss and the cached arrays are read-only.

Pieces.  A ``PieceSet`` holds rules on many regions about one center in
one layout: consecutive or overlapping balls and annuli
(``build_shell_pieces``), or spheres at several radii
(``build_sphere_pieces``).  It is stored as a radial factor (the radial
nodes and weights of every piece, one piece after another) times one
angular factor, so no node is built before it is evaluated.  Every rule
builder is the one-piece case of these two, so each layout's arithmetic
exists once: a ``QuadratureRule`` is a view of a one-piece set that keeps
its factors and builds ``nodes`` and ``weights`` only when they are read.
The builders validate every piece in one vectorized pass: its weight sum
against its own region's measure and its nodes inside its own region
within ``node_slack``.

Evaluation.  ``integrate_pieces`` is the one evaluator; ``integrate`` is
its one-piece, one-integrand case.  Pieces of at most ``_BLOCK_NODES``
nodes are evaluated together in blocks of whole pieces, one integrand call
per block however many integrals it returns, and each piece is reduced
with one ``np.dot``.  A larger piece is cut into fixed spans of ``_CHUNK``
nodes, each span reduced with one ``np.dot`` and the span partials summed
in span order, so the result does not depend on the thread count; the
spans are spread over ``threads`` workers.  Inside a span the nodes and
weights are built from the factors in blocks of at most ``_BLOCK_NODES``,
so no node array larger than one block exists.  Integrands must therefore
be pointwise: ``f`` sees blocks of at most ``_BLOCK_NODES`` nodes and
must return one value per node it is given.

Bit-identity rule.  A piece's nodes, weights and integrals equal those of
its one-piece rule bit for bit, and a span's blocks equal the rows of the
span's whole node array.  Numpy's elementwise array results do not depend
on an element's position or on the array's length, so array arithmetic
over concatenated pieces or over parts of a piece is safe.  Numpy's array
power differs from the scalar power in the last bit for some inputs, so a
quantity that a one-piece rule computes as a scalar (the sphere weight
factor ``r ** (n - 1)``) is computed per piece as a scalar.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from concurrent.futures import ThreadPoolExecutor
from functools import cache, cached_property
from itertools import combinations_with_replacement, product
from math import factorial, gamma, gcd, pi, prod
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
    "build_shell_pieces",
    "build_sphere_pieces",
    "gauss_legendre",
    "gauss_gegenbauer",
    "geometric_panels",
    "node_slack",
    "integrate",
    "integrate_pieces",
    "set_default_threads",
]

_CHUNK = 1 << 16
# Nodes per integrand call in ``integrate_pieces``: whole small pieces, or
# one block of a span.  On the profile sweeps 8192 was faster than 4096
# and 16384; evaluating a whole sweep at once raised peak memory by 17%.
_BLOCK_NODES = 8192
_MEASURE_TOL = 1e-10
_DEFAULT_THREADS = 1
# Fully symmetric sphere rules: the largest generator entry, the largest
# angular order they serve, and the simplex's pivot tolerance.
_GENERATOR_TOP = 3
_SYMMETRIC_MAX_ORDER = 8
_LP_TOL = 1e-9


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
    rule may sit (``PieceSet.validate``): room for rounding.  Takes
    one radius or an array of them."""
    return 1e-12 * np.maximum(radius, 1.0)


def _region_measure(n: int, sphere: bool, inner, outer):
    """Measure of a sphere of radius ``outer`` or of the shell between
    ``inner`` and ``outer``; takes scalars or arrays."""
    if sphere:
        return unit_sphere_area(n) * outer ** (n - 1)
    return unit_ball_volume(n) * (outer**n - inner**n)


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

    def node_range(self, c: int, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights ``c`` to ``d - 1`` of the whole set, numbered
        as ``block(0, len(self))`` numbers them and built with its
        arithmetic, so they equal that block's rows bit for bit.

        The range is written as at most three segments: the rest of a
        partial first radial row, whole rows, and the start of a last row.
        ``block`` stays the broadcast expression for whole pieces: building
        them here instead doubled the minor page faults of a profile-sweeps
        pass (9.2k to 20.1k) and cost it 10% of its wall time.
        """
        m = len(self.dir_weights)
        nodes = np.empty((d - c, self.dimension))
        weights = np.empty(d - c)
        k = c
        while k < d:
            r, j = divmod(k, m)
            rows = max((d - k) // m, 1) if j == 0 else 1
            e = min(d, (r + rows) * m)
            width = (e - k) // rows
            np.multiply(self.s[r:r + rows, None, None], self.dirs[None, j:j + width],
                        out=nodes[k - c:e - c].reshape(rows, width, -1))
            np.multiply(self.radial_weights[r:r + rows, None],
                        self.dir_weights[None, j:j + width],
                        out=weights[k - c:e - c].reshape(rows, width))
            k = e
        nodes += self.center
        return nodes, weights

    def rule(self, i: int) -> QuadratureRule:
        """Piece ``i`` as a rule of its own (a view; no node is built)."""
        lo, hi = self.bounds[i], self.bounds[i + 1]
        return QuadratureRule(replace(
            self, radii=self.radii[i:i + 1], s=self.s[lo:hi],
            radial_weights=self.radial_weights[lo:hi], bounds=np.array([0, hi - lo]),
        ))

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


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and positive weights for a ball, sphere or annulus region: a
    view of the one-piece ``PieceSet`` it comes from.

    The rule keeps the piece's radial and angular factors.  ``nodes`` and
    ``weights`` are built from them when first read; ``len(rule)`` and the
    integrals (``integrate``) need neither.  ``symmetry`` records the node
    layout: "full" rules integrate any smooth function; "radial" rules
    require the integrand to depend only on the distance to ``center``;
    "zonal" rules require invariance under rotations about the axis
    ``center + t * axis``.
    """

    piece: PieceSet

    @property
    def dimension(self) -> int:
        return self.piece.dimension

    @property
    def center(self) -> np.ndarray:
        return self.piece.center

    @property
    def radii(self) -> tuple[float, float]:
        """(inner, outer); a sphere has inner == outer."""
        inner, outer = self.piece.radii[0]
        return float(inner), float(outer)

    @property
    def kind(self) -> str:
        """"ball", "sphere" or "annulus"."""
        if self.piece.kind == "sphere":
            return "sphere"
        return "ball" if self.piece.radii[0, 0] == 0.0 else "annulus"

    @property
    def symmetry(self) -> str:
        return self.piece.symmetry

    @property
    def axis(self) -> np.ndarray | None:
        return self.piece.axis

    @cached_property
    def _materialized(self) -> tuple[np.ndarray, np.ndarray]:
        return self.piece.block(0, 1)

    @property
    def nodes(self) -> np.ndarray:
        return self._materialized[0]

    @property
    def weights(self) -> np.ndarray:
        return self._materialized[1]

    @property
    def measure(self) -> float:
        """Exact measure of the region the rule integrates over."""
        inner, outer = self.radii
        return _region_measure(self.dimension, self.kind == "sphere", inner, outer)

    def validate(self) -> None:
        """``PieceSet.validate`` of the rule's piece."""
        self.piece.validate()

    def __len__(self) -> int:
        return int(self.piece.sizes[0])


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing positive radii."""

    radii: np.ndarray

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
    """Angular order of every full layout: generous for n=3, lean above.

    A full layout's angular factor is exact to total degree
    ``2 * angular_order - 1``.  At n >= 5 this returns 4..8 (degree 7..15),
    which the fully symmetric rules serve; n = 3, 4 take the product rule."""
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


def _partitions(k: int, parts: int, largest: int) -> list[tuple[int, ...]]:
    """Partitions of ``k`` into at most ``parts`` parts of at most
    ``largest`` each, parts non-increasing."""
    if k == 0:
        return [()]
    if parts == 0:
        return []
    return [(v,) + rest for v in range(min(k, largest), 0, -1)
            for rest in _partitions(k - v, parts - 1, v)]


def _distinct_permutations(values: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Distinct orderings of the multiset ``values``, in decreasing
    lexicographic order."""
    if not values:
        return [()]
    out = []
    for v in sorted(set(values), reverse=True):
        i = values.index(v)
        out += [(v,) + rest for rest in _distinct_permutations(values[:i] + values[i + 1:])]
    return out


def _orbit(g: tuple[int, ...]) -> np.ndarray:
    """The points ``g`` takes under coordinate permutations and sign changes,
    permutation-major, scaled to the unit sphere."""
    perms = np.array(_distinct_permutations(g), dtype=float)
    signs = np.array(list(product((1.0, -1.0), repeat=sum(v != 0 for v in g))))
    pts = np.repeat(perms, len(signs), axis=0)
    pts[pts != 0] *= np.tile(signs, (len(perms), 1)).reshape(-1)
    return pts / float(np.sqrt(sum(v * v for v in g)))


def _orbit_size(g: tuple[int, ...]) -> int:
    """Number of points of ``_orbit(g)``."""
    size = factorial(len(g)) << sum(v != 0 for v in g)
    return size // prod(factorial(g.count(v)) for v in set(g))


def _simplex_pivot(t: np.ndarray, basis: list[int], i: int, j: int) -> None:
    t[i] /= t[i, j]
    f = t[:, j].copy()
    f[i] = 0.0
    t -= f[:, None] * t[i]
    basis[i] = j


def _simplex_optimize(t: np.ndarray, basis: list[int], k: int) -> None:
    """Pivot the tableau ``t`` (objective in the last row) to an optimum
    over its first ``k`` columns, by Bland's rule, which cannot cycle."""
    while True:
        enter = np.flatnonzero(t[-1, :k] < -_LP_TOL)
        if not enter.size:
            return
        j = int(enter[0])
        rows = np.flatnonzero(t[:-1, j] > _LP_TOL)
        ratios = t[rows, -1] / t[rows, j]
        tied = rows[ratios <= ratios.min() + _LP_TOL]
        _simplex_pivot(t, basis, min(tied, key=basis.__getitem__), j)


def _lp_support(a: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Columns of a basic optimal solution of min ``cost @ x`` subject to
    ``a @ x = 1``, ``x >= 0``: the two-phase tableau simplex."""
    m, k = a.shape
    t = np.zeros((m + 1, k + m + 1))
    t[:m, :k], t[:m, k:-1], t[:m, -1] = a, np.eye(m), 1.0
    t[m, :k], t[m, -1] = -a.sum(axis=0), -m
    basis = list(range(k, k + m))
    _simplex_optimize(t, basis, k)  # phase 1: drive the artificial sum to 0
    if t[m, -1] < -_LP_TOL:
        raise ValueError("the moment equations have no nonnegative solution")
    for i, j in enumerate(basis):
        nonzero = np.flatnonzero(np.abs(t[i, :k]) > _LP_TOL)
        if j >= k and nonzero.size:
            _simplex_pivot(t, basis, i, int(nonzero[0]))
    t[m] = 0.0
    t[m, :k] = cost
    for i, j in enumerate(basis):
        if j < k:
            t[m] -= cost[j] * t[i]
    _simplex_optimize(t, basis, k)
    return np.array(sorted(j for i, j in enumerate(basis) if j < k and t[i, -1] > _LP_TOL))


def _sphere_monomial_integral(exponents: Sequence[int]) -> float:
    """Integral of ``x^exponents`` over the unit sphere S^(n-1), n =
    ``len(exponents)``: ``2 prod Gamma((a_i + 1) / 2) / Gamma((|a| + n) / 2)``
    when every exponent is even, else 0."""
    if any(a % 2 for a in exponents):
        return 0.0
    return 2.0 * prod(gamma((a + 1) / 2) for a in exponents) / gamma(
        (sum(exponents) + len(exponents)) / 2)


@cache
def symmetric_sphere_directions(n: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """A fully symmetric rule on S^(n-1), exact for polynomials of degree
    ``degree``, with positive weights summing to its area; cached and
    read-only.

    The points are the orbits of integer generators with entries
    0.._GENERATOR_TOP under coordinate permutations and sign changes,
    scaled to the sphere, with one weight per orbit.  Odd monomials
    integrate to 0 by the sign changes.  On the sphere an even polynomial
    of degree below 2k is one of degree 2k times a power of |x|^2, and the
    symmetric ones of degree 2k are spanned by the symmetrized monomials
    x^(2 lambda), lambda a partition of k = degree // 2 into at most n
    parts: one moment equation each (14 at n = 6, degree 15).  A linear
    program over the orbits' total weights picks at most one orbit per
    equation, minimizing the weight-averaged orbit size so that small
    orbits are preferred; the chosen orbits' weights are then solved from
    the equations by least squares.
    """
    k = degree // 2
    gens = [g for g in combinations_with_replacement(range(_GENERATOR_TOP, -1, -1), n)
            if g[0] and gcd(*g) == 1]
    squares = np.array(gens, dtype=float) ** 2
    y = squares / squares.sum(axis=1, keepdims=True)
    rows = []
    for lam in _partitions(k, n, k):
        alphas = np.array(_distinct_permutations(lam + (0,) * (n - len(lam))))
        # mean of x^(2 lambda) over an orbit: of y^alpha over lambda's orderings
        mean = np.prod(y[:, None, :] ** alphas[None], axis=2).mean(axis=1)
        rows.append(mean / _sphere_monomial_integral(2 * alphas[0]))
    a = np.array(rows)
    sizes = np.array([_orbit_size(g) for g in gens])
    support = _lp_support(a, sizes / sizes.max())
    # total weight of each chosen orbit
    mass = np.linalg.lstsq(a[:, support], np.ones(len(a)), rcond=None)[0]
    if mass.min() <= 0 or np.abs(a[:, support] @ mass - 1.0).max() > 1e-12:
        raise ValueError(f"no positive fully symmetric rule of degree {degree} on S^{n - 1}")
    dirs = np.concatenate([_orbit(gens[j]) for j in support])
    weights = np.repeat(mass / sizes[support], sizes[support])
    return _read_only(dirs, weights)


@cache
def _full_directions(n: int, angular_order: int) -> tuple[np.ndarray, np.ndarray]:
    """The angular factor of every full layout, ball, annulus or sphere,
    exact to total degree ``2 * angular_order - 1``, cached and read-only:
    the fully symmetric rule at n >= 5 and angular orders up to
    ``_SYMMETRIC_MAX_ORDER``, the product rule otherwise."""
    if n >= 5 and angular_order <= _SYMMETRIC_MAX_ORDER:
        return symmetric_sphere_directions(n, 2 * angular_order - 1)
    return _read_only(*unit_sphere_directions(n, angular_order))


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
    inner: float, outer: float, finest: float | None
) -> list[float] | None:
    """Panel break radii refining geometrically toward ``inner``.

    ``finest`` is the smallest feature scale the integrand carries near the
    region's center; panels are doubled from that scale outward so a fixed
    Gauss order per panel resolves every octave, up to 80 breaks.  Returns
    None when a single panel suffices.
    """
    if finest is None or not np.isfinite(finest) or finest <= 0:
        return None
    if finest >= (outer - inner) / 4:
        return None
    edges = []
    h = finest / 4
    while inner + h < outer and len(edges) < 80:
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
    layout is one of: "full" rules with ``angular_order`` (default
    ``default_angular_order``; see ``_full_directions``); "radial"
    single-ray rules; "zonal" half-plane rules about ``axis`` with
    ``polar_order`` polar nodes.
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
        dirs, dir_w = _full_directions(n, ang)
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
    rules of angular order ``order`` (``_full_directions``, as for shells),
    or "zonal" polar-arc rules about ``axis`` with ``order`` polar nodes."""
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
        dirs, dir_w = _full_directions(n, order)
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
    """Full-layout rule on the sphere of radius ``r`` about ``center``."""
    return build_sphere_pieces(n, center, [r], order).rule(0)


def build_ball_rule(
    n: int,
    center,
    r: float,
    order: int = 32,
    angular_order: int | None = None,
    radial_panels: Sequence[float] | None = None,
) -> QuadratureRule:
    """Radial Gauss-Legendre x full angular rule on the ball B(center, r)."""
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
    """Radial Gauss-Legendre x full angular rule on the annulus
    inner <= |x - center| <= outer."""
    return build_shell_pieces(
        n, center, [(inner, outer)], order, angular_order=angular_order,
        radial_panels=[radial_panels],
    ).rule(0)


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


def _piece_sums(
    pieces: PieceSet,
    i: int,
    f: Callable[[np.ndarray], Sequence[np.ndarray]],
    threads: int | None,
) -> list[float]:
    """Weighted sum over piece ``i`` of each integrand ``f`` returns: one
    ``np.dot`` per fixed ``_CHUNK`` span, the span partials summed in span
    order, spans spread over ``threads`` workers.  A span's nodes and
    weights are built in blocks of at most ``_BLOCK_NODES``."""
    if threads is None:
        threads = _DEFAULT_THREADS
    start = int(pieces.bounds[i]) * len(pieces.dir_weights)
    size = int(pieces.sizes[i])
    spans = [(a, min(a + _CHUNK, size)) for a in range(0, size, _CHUNK)]

    def _partial(span):
        a, b = span
        weights = np.empty(b - a)
        cols = None
        for c in range(a, b, _BLOCK_NODES):
            d = min(c + _BLOCK_NODES, b)
            nodes, w = pieces.node_range(start + c, start + d)
            vals = [_integrand_values(v, nodes) for v in f(nodes)]
            if cols is None:
                cols = np.empty((len(vals), b - a))
            weights[c - a:d - a] = w
            for col, v in zip(cols, vals):
                col[c - a:d - a] = v
        return [float(np.dot(weights, v)) for v in cols]

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
    """Weighted sum of ``f`` over the rule's nodes: ``integrate_pieces`` on
    the rule's piece, so the nodes are built per block, never as a whole.

    ``f`` must be pointwise, as it sees blocks of at most ``_BLOCK_NODES``
    nodes.  The result is bit-identical for any thread count.
    """
    return float(integrate_pieces(rule.piece, lambda pts: (f(pts),), threads)[0, 0])


def integrate_pieces(
    pieces: PieceSet,
    f: Callable[[np.ndarray], Sequence[np.ndarray]],
    threads: int | None = None,
) -> np.ndarray:
    """Weighted sum over every piece of every integrand ``f`` returns.

    ``f(points)`` returns a sequence of k arrays with one value per point,
    so a field evaluated once per node serves k integrals; it must be
    pointwise, as it sees blocks of at most ``_BLOCK_NODES`` nodes.  The
    result has shape (len(pieces), k).  Pieces of at most ``_BLOCK_NODES``
    nodes are evaluated together in blocks of whole pieces, each reduced
    with one ``np.dot``.  A larger piece is reduced per fixed ``_CHUNK``
    span, with its nodes built per block inside each span and its spans
    spread over ``threads`` workers (``_piece_sums``); the result is
    bit-identical for any thread count.
    """
    sizes = pieces.sizes
    rows = []
    a = 0
    while a < len(pieces):
        if sizes[a] > _BLOCK_NODES:
            rows.append(_piece_sums(pieces, a, f, threads))
            a += 1
            continue
        b, total = a + 1, sizes[a]
        while b < len(pieces) and total + sizes[b] <= _BLOCK_NODES:
            total += sizes[b]
            b += 1
        nodes, weights = pieces.block(a, b)
        cols = [_integrand_values(v, nodes) for v in f(nodes)]
        ends = np.cumsum(sizes[a:b])
        for lo, hi in zip(ends - sizes[a:b], ends):
            rows.append([float(np.dot(weights[lo:hi], v[lo:hi])) for v in cols])
        if b == a + 1:
            # a lone piece is one span, and np.sum of its partial maps -0.0 to 0.0
            rows[-1] = [v + 0.0 for v in rows[-1]]
        a = b
    return np.array(rows)
