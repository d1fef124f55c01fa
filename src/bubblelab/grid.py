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
same weight-sum invariants as the full rules.  Both keep their angular
factor in the half-plane's two coordinates: pairs (cos, sin) along the
axis and the perpendicular ``_perpendicular(axis)``, the one pair (1, 0)
about the axis e_1 for a radial ray.  Their n-dimensional directions are
built from the pairs only when a rule's nodes are read.

Gauss rules are built here with numpy alone: ``gauss_gegenbauer`` finds
the zeros of the orthonormal Gegenbauer polynomial by Newton steps on its
three-term recurrence, from the asymptotic nodes, and takes the weights
from the Christoffel sums; ``gauss_legendre`` is its alpha = 1/2 case.
Gauss-Gegenbauer nodes and weights (Legendre's included), the symmetric
sphere rules, the full angular factors, the polar arc's cosines, sines and
weights, and the radial layout's one direction come from one process-wide
cache each (``gauss_gegenbauer``, ``symmetric_sphere_directions``,
``_full_directions``, ``_polar_nodes``, ``_radial_direction``) keyed by
``(order, alpha)``, ``(n, degree)``, ``(n, angular_order)``, ``(n, order)``
and ``n``; each is built only on a miss and the cached arrays are
read-only.  The full factors are stored coordinate-major (Fortran order),
as nodes are built one coordinate of every direction at a time.

Pieces.  A ``PieceSet`` holds rules on many regions about one center in
one layout: consecutive or overlapping balls and annuli
(``build_shell_pieces``), or spheres at several radii
(``build_sphere_pieces``).  It is stored as a radial factor (the radial
nodes and weights of every piece, one piece after another) times one
angular factor, so no node is built before it is evaluated.  Every rule
builder is the one-piece case of these two, so each layout's arithmetic
exists once: a ``QuadratureRule`` is a view of a one-piece set that keeps
its factors and builds ``nodes`` and ``weights`` only when they are read.

Checks.  The builders validate every piece in one vectorized pass
(``_check_pieces``): positive weights, its weight sum against its own
region's measure, and its nodes inside its own region within
``node_slack``.  The pass reads four facts of the angular factor
(``_factor_facts``: its smallest weight, its weight sum and the lengths of
its shortest and longest direction, in the layout's own coordinates).  For
the cached radial, zonal and full factors they are computed once, with
the factor (``_checked_factor``, keyed by layout, dimension and order), and
so are the zonal shell weights' two (``_zonal_weights``); no build measures
a direction.  ``PieceSet.validate`` measures the set's own arrays, so a set
built by hand or changed with ``replace`` is checked in full.  A shell
builder reads its regions as Python floats once; radial panel breaks that
already rise strictly inside their region, as ``geometric_panels`` gives
them, are found so by one array comparison and skip ``np.unique``.

Evaluation.  ``integrate_pieces`` is the one evaluator; ``integrate`` is
its one-piece, one-integrand case.  It hands ``f`` blocks of nodes
(``PieceSet.node_range``).  ``_integrate_pieces`` is the same evaluator
over another builder of blocks: the field-density evaluator
(``fields._integrate_density``) passes it ``PieceSet.plane_range``, the
half-plane rows (a, b) of a radial or zonal set, so a field with a
half-plane kernel works on two coordinates per node.  A non-finite value
is reported at its n-dimensional node in either case.  Pieces of at most
``_BLOCK_NODES`` nodes are evaluated together in blocks of whole pieces,
one integrand call per block however many integrals it returns, and each
piece is reduced with one dot product.  A larger piece is cut into fixed spans of
``_CHUNK`` nodes, each span reduced with one dot product and the span
partials summed in span order, so the result does not depend on the
thread count; the spans are spread over ``threads`` workers.  Inside a
span the nodes and weights are built from the factors in blocks of at
most ``_BLOCK_NODES``, so no node array larger than one block exists.
Integrands must therefore be pointwise: ``f`` sees blocks of at most
``_BLOCK_NODES`` nodes and must return one value per node it is given.
Blocks are coordinate-major: each is built as a (k, N) array, k = n for
nodes and 2 for half-plane rows, and handed to ``f`` as its (N, k)
transpose, so a field's per-node steps keep that layout and its per-node
coordinate sums run over contiguous columns.  ``f`` must accept an array
of either memory order.

Bit-identity rule.  A piece's nodes, weights and integrals equal those of
its one-piece rule bit for bit, and a span's blocks equal the rows of the
span's whole node array; the same holds for half-plane rows.  Numpy's
elementwise array results do not depend on an element's position or on
the array's length, so array arithmetic over concatenated pieces or over
parts of a piece is safe.  A per-node sum over the coordinates
(``einsum("ij,ij->i")``) is not elementwise: its summation order, and so
its last bit, depends on the block's memory order, so ``block``,
``node_range`` and ``plane_range`` build one layout (a sum of two
coordinates has one order).  Half-plane rows are not the nodes: the
offsets from a part's center round differently in two coordinates than
in n, so a radial or zonal integral moves at rounding level against one
taken at the nodes, except about the axis e_1 through the origin, where
the nodes' other coordinates are zeros and both give the same bits.
Numpy's array power differs from the scalar power in the last bit for
some inputs, so a quantity that a one-piece rule computes as a scalar
(the sphere weight factor ``r ** (n - 1)``) is computed per piece as a
scalar.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from concurrent.futures import ThreadPoolExecutor
from functools import cache, cached_property
from itertools import combinations_with_replacement, product
from math import exp, factorial, gamma, gcd, inf, isfinite, lgamma, pi, prod, sqrt
from typing import Callable, Sequence

import numpy as np

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
# one block of a span.  On the profile sweeps with coordinate-major blocks
# (2 runs each, seed 1, 2-vCPU host) 8192 read 0.048 s, 4096 0.057 s and
# 16384 0.051 s (peak memory +1.5 MB); all three give the same bits.
# Evaluating a whole sweep at once raised peak memory by 17%.
_BLOCK_NODES = 8192
_MEASURE_TOL = 1e-10
# 2**k for k < 80: the octaves of ``geometric_panels``
_DOUBLINGS = np.ldexp(1.0, np.arange(80))
_DOUBLINGS.flags.writeable = False
_DEFAULT_THREADS = 1
# Fully symmetric sphere rules: the largest generator entry, the largest
# angular order they serve, and the simplex's pivot tolerance.
_GENERATOR_TOP = 3
_SYMMETRIC_MAX_ORDER = 8
_LP_TOL = 1e-9
# Gauss rules: the most Newton steps from the asymptotic nodes, and the
# step below which a node counts as converged.
_NEWTON_STEPS = 12
_NEWTON_TOL = 1e-15


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
    nodes are ``center + s[k] * directions[j]`` with weights
    ``radial_weights[k] * dir_weights[j]`` for
    ``bounds[i] <= k < bounds[i + 1]``, radial-major, so the pieces lie one
    after another in one node set.  ``symmetry`` and ``axis`` are those of
    ``QuadratureRule``.

    ``dirs`` is the angular factor in the layout's own coordinates: unit
    vectors of R^n in a full layout, and in a radial or zonal one the
    half-plane pairs ``(cos, sin)``, the direction ``cos * axis + sin * p``
    for the unit ``p`` of ``_perpendicular(axis)``.  A radial layout's axis
    is e_1 and its one pair is (1, 0).
    """

    dimension: int
    kind: str  # "volume" | "sphere"
    center: np.ndarray
    radii: np.ndarray  # (m, 2): (inner, outer) per piece
    s: np.ndarray
    radial_weights: np.ndarray
    bounds: np.ndarray  # (m + 1,)
    dirs: np.ndarray  # (k, n) in a full layout, else (k, 2)
    dir_weights: np.ndarray  # (k,)
    symmetry: str = "full"
    axis: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.radii)

    @property
    def sizes(self) -> np.ndarray:
        """Node count of each piece."""
        return (self.bounds[1:] - self.bounds[:-1]) * len(self.dir_weights)

    @cached_property
    def directions(self) -> np.ndarray:
        """The angular factor as (k, n) unit vectors: ``dirs`` in a full
        layout, else built from the half-plane pairs when first read."""
        if self.symmetry == "full":
            return self.dirs
        cos, sin = self.dirs.T
        return np.multiply.outer(cos, self.axis) + np.multiply.outer(
            sin, _perpendicular(self.axis))

    def block(self, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of pieces ``a`` to ``b - 1``, one after another:
        ``node_range`` over their nodes."""
        m = len(self.dir_weights)
        return self.node_range(int(self.bounds[a]) * m, int(self.bounds[b]) * m)

    def node_range(self, c: int, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights ``c`` to ``d - 1`` of the whole set, numbered
        as ``block(0, len(self))`` numbers them.  The nodes are the (N, n)
        transpose of a coordinate-major block."""
        nodes, weights = self._product(c, d, self.directions)
        nodes += self.center[:, None]
        return nodes.T, weights

    def plane_range(self, c: int, d: int) -> tuple[np.ndarray, np.ndarray]:
        """As ``node_range`` for a radial or zonal set, in half-plane
        coordinates: rows ``(a, b)``, the node ``center + a axis + b p``
        (``dirs``), as the (N, 2) transpose of a coordinate-major block."""
        coords, weights = self._product(c, d, self.dirs)
        return coords.T, weights

    def _product(self, c: int, d: int, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``s[k] * dirs[j]`` for nodes ``c`` to ``d - 1``, coordinate-major,
        and their weights.  The range is written as at most three
        segments: the rest of a partial first radial row, whole rows, and
        the start of a last row; each is one elementwise product, so a
        node's bits do not depend on the range it is built in."""
        m = len(self.dir_weights)
        coords = np.empty((dirs.shape[1], d - c))
        weights = np.empty(d - c)
        k = c
        while k < d:
            r, j = divmod(k, m)
            rows = max((d - k) // m, 1) if j == 0 else 1
            e = min(d, (r + rows) * m)
            width = (e - k) // rows
            # splitting the contiguous last axis is a view, so ``out=`` lands
            np.multiply(self.s[None, r:r + rows, None], dirs.T[:, None, j:j + width],
                        out=coords[:, k - c:e - c].reshape(-1, rows, width))
            np.multiply(self.radial_weights[r:r + rows, None],
                        self.dir_weights[None, j:j + width],
                        out=weights[k - c:e - c].reshape(rows, width))
            k = e
        return coords, weights

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
        each node inside its own region within ``node_slack``
        (``_check_pieces``).

        The angular factor's facts (``_factor_facts``) are computed here
        from the set's own ``dirs`` and weights; the builders take those
        of a cached factor from ``_checked_factor`` instead, where they were
        computed once."""
        _check_pieces(self, _factor_facts(self.dirs, self.dir_weights))


def _factor_facts(dirs: np.ndarray, weights: np.ndarray) -> tuple[float, float, float, float]:
    """What ``_check_pieces`` reads of an angular factor: its smallest
    weight and its weight sum (``_weight_facts``), and the lengths of its
    shortest and longest direction (``_length_facts``)."""
    return *_weight_facts(weights), *_length_facts(dirs)


def _weight_facts(weights: np.ndarray) -> tuple[float, float]:
    """The smallest weight and the weight sum."""
    return weights.min(), weights.sum()


def _length_facts(dirs: np.ndarray) -> tuple[float, float]:
    """As the square root is monotone, the shortest and longest lengths are
    the roots of the smallest and largest squared lengths."""
    squares = np.einsum("ij,ij->i", dirs, dirs)
    return sqrt(squares.min()), sqrt(squares.max())


def _check_pieces(pieces: PieceSet, facts: tuple[float, float, float, float]) -> None:
    """``PieceSet.validate`` given the ``_factor_facts`` of the set's
    angular factor.  The radial factor is checked here, for every piece in
    one vectorized pass.

    A node's distance to the center is its radial node times the length of
    its direction, so each piece's smallest and largest radial node times
    the shortest and longest direction bound its distances."""
    low, total, shortest, longest = facts
    inner, outer = pieces.radii[:, 0], pieces.radii[:, 1]
    sphere = pieces.kind == "sphere"
    if pieces.radial_weights.min() <= 0 or low <= 0:
        raise ValueError("all quadrature weights must be positive")
    starts = pieces.bounds[:-1]
    meas = _region_measure(pieces.dimension, sphere, inner, outer)
    sums = np.add.reduceat(pieces.radial_weights, starts) * total
    off = np.abs(sums - meas) > _MEASURE_TOL * meas
    if np.count_nonzero(off):
        i = int(off.argmax())
        raise ValueError(
            f"piece {i}: weight sum {sums[i]:.17g} does not match region "
            f"measure {meas[i]:.17g} within tolerance {_MEASURE_TOL:g}"
        )
    near = np.minimum.reduceat(pieces.s, starts) * shortest
    far = np.maximum.reduceat(pieces.s, starts) * longest
    slack = node_slack(outer)
    if sphere:
        if np.count_nonzero(np.maximum(np.abs(near - outer), np.abs(far - outer)) > slack):
            raise ValueError("sphere rule has nodes off the sphere")
    elif np.count_nonzero((far > outer + slack) | (near < inner - slack)):
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
    ``center + t * axis``.  A radial rule's ray runs along its ``axis``,
    e_1; a full rule has none.
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
        if not (0 < rmin < rmax < np.inf) or count < 2:
            raise ValueError("need 0 < rmin < rmax < inf and count >= 2")
        return cls(np.geomspace(rmin, rmax, count))

    def __len__(self) -> int:
        return self.radii.size


def _check_region_args(n: int, radii: list[float], order: int) -> None:
    """Reject a bad dimension, a radius among ``radii`` that is not finite
    and positive, or an order below 1."""
    if int(n) != n or n < 3:
        raise ValueError(f"dimension must be an integer >= 3, got {n}")
    for r in radii:
        if not 0 < r < inf:
            raise ValueError(f"radius must be finite and > 0, got {r}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")


def _as_center(center, n: int) -> np.ndarray:
    """``center`` as a fresh float array of n finite coordinates: a copy,
    so a rule keeps its center when the caller's array changes."""
    if center is None or (np.isscalar(center) and center == 0):
        return np.zeros(n)
    c = np.array(center, dtype=float).reshape(-1)
    if c.size != n:
        raise ValueError(f"center has {c.size} components, expected {n}")
    if not all(map(isfinite, c.tolist())):
        raise ValueError(f"center must be finite, got {c.tolist()}")
    return c


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]: the cached, read-only
    Gauss-Gegenbauer rule at alpha = 1/2."""
    return gauss_gegenbauer(order, 0.5)


def _recurrence(x: np.ndarray, beta: list[float]):
    """At each point of ``x``: p_m, its derivative and sum_(k<m) p_k^2, for
    the orthonormal polynomials with p_0 = 1 and
    x p_k = beta[k] p_(k+1) + beta[k-1] p_(k-1), m = len(beta)."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    squares = np.zeros_like(x)
    b_prev = 0.0
    for b in beta:
        squares += p * p
        p_prev, p = p, (x * p - b_prev * p_prev) / b
        d_prev, d = d, (p_prev + x * d - b_prev * d_prev) / b
        b_prev = b
    return p, d, squares


def _newton(x: np.ndarray, beta: list[float]):
    """Newton steps on p_m from ``x`` until no point moves by more than
    ``_NEWTON_TOL``, at most ``_NEWTON_STEPS`` of them.  Returns the
    points, sum_(k<m) p_k^2 at the points of the last step, and whether
    they converged."""
    for _ in range(_NEWTON_STEPS):
        p, d, squares = _recurrence(x, beta)
        step = p / d
        x = x - step
        if np.abs(step).max() <= _NEWTON_TOL:
            return x, squares, True
    return x, squares, False


def _bisect_zeros(count: int, beta: list[float]) -> np.ndarray:
    """The ``count`` smallest zeros of p_m, to ``_NEWTON_TOL``, by bisection
    on Sturm counts: the number of zeros below t is the number of negative
    pivots of the Jacobi matrix minus t (zero diagonal, off-diagonal
    ``beta[:-1]``).  Zero ``i`` stays in (lo[i], hi[i]]."""
    lo, hi = np.full(count, -1.0), np.zeros(count)
    rank = np.arange(1, count + 1)
    squares = [b * b for b in beta[:-1]]
    while (hi - lo).max() > _NEWTON_TOL:
        t = 0.5 * (lo + hi)
        pivot = -t
        below = (pivot < 0).astype(int)
        for b2 in squares:
            pivot = -t - b2 / pivot
            below += pivot < 0
        higher = below >= rank
        hi = np.where(higher, t, hi)
        lo = np.where(higher, lo, t)
    return 0.5 * (lo + hi)


@cache
def gauss_gegenbauer(order: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Gegenbauer nodes and weights for (1-t^2)^(alpha-1/2) on [-1, 1],
    cached and read-only: exact for polynomials of degree below 2 * order.

    The nodes are the zeros of the orthonormal polynomial p_m of degree
    m = ``order``, the eigenvalues of its Jacobi matrix (G. H. Golub &
    J. H. Welsch, Math. Comp. 23 (1969) 221-230), found without forming
    the matrix.  The left half starts from the asymptotic nodes
    -cos((i + alpha/2 - 1/2) pi / (m + alpha)), i = 1..ceil(m/2), and is
    refined by Newton steps on the three-term recurrence.  For large alpha
    that guess can leave Newton short of distinct converged zeros; then the
    zeros are bisected first (``_bisect_zeros``).  The weights are
    1 / sum_(k<m) p_k(x_i)^2, scaled so that they sum to the weight's mass
    sqrt(pi) Gamma(alpha + 1/2) / Gamma(alpha + 1).  The right half
    mirrors the left, so the rule is symmetric, and memory is O(m).
    """
    if not (isfinite(order) and order >= 1 and order == int(order)):
        raise ValueError(f"order must be a positive integer, got {order!r}")
    m = int(order)
    if not (isfinite(alpha) and alpha > -0.5):
        raise ValueError(f"alpha must be finite and > -1/2, got {alpha!r}")
    # beta_k^2 = k (k + 2 alpha - 1) / (4 (k + alpha) (k + alpha - 1)); at
    # k = 1 it is 1 / (2 (1 + alpha)), its limit at alpha = 0 included
    k = np.arange(2.0, m + 1)
    beta = np.sqrt(np.concatenate((
        [0.5 / (1.0 + alpha)], k * (k + 2 * alpha - 1) / (4 * (k + alpha) * (k + alpha - 1))
    ))).tolist()
    half = (m + 1) // 2
    x = -np.cos((np.arange(1, half + 1) + (alpha - 1) / 2) * (pi / (m + alpha)))
    # a guess off Newton's basin may overflow, and a Sturm pivot may be 0
    with np.errstate(all="ignore"):
        x, squares, converged = _newton(x, beta)
        # ``half`` distinct zeros in [-1, 0] are all of them
        if not (converged and x[0] > -1.0 and x[-1] <= (_NEWTON_TOL if m % 2 else 0.0)
                and (np.diff(x) > 2 * _NEWTON_TOL).all()):
            x, squares, _ = _newton(_bisect_zeros(half, beta), beta)
    if m % 2:
        x[-1] = 0.0
    nodes = np.concatenate((x, -x[:m // 2][::-1]))
    weights = 1.0 / squares
    if not weights.min() > 0:
        raise ValueError(f"order {m} at alpha {alpha} overflows the recurrence")
    weights = np.concatenate((weights, weights[:m // 2][::-1]))
    weights *= sqrt(pi) * exp(lgamma(alpha + 0.5) - lgamma(alpha + 1.0)) / weights.sum()
    return _read_only(nodes, weights)


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


@cache
def _polar_nodes(n: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cosines, sines and weights of the polar angles on S^(n-1), cached
    and read-only; the Gegenbauer weight (1-t^2)^((n-3)/2) carries the
    sin^(n-2) Jacobian."""
    t, wt = gauss_gegenbauer(order, (n - 2) / 2)
    return _read_only(t, np.sqrt(np.clip(1.0 - t**2, 0.0, None)), wt)


@cache
def _radial_direction(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The radial layout's one direction, e_1, and its weight 1, cached and
    read-only; its ray is the axis of the half-plane pair (1, 0)."""
    return _read_only(np.eye(1, n), np.ones(1))


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
    # coordinate-major, as ``PieceSet`` reads the factor one coordinate at a time
    dirs = np.asfortranarray(np.concatenate([_orbit(gens[j]) for j in support]))
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
    dirs, weights = unit_sphere_directions(n, angular_order)
    return _read_only(np.asfortranarray(dirs), weights)


@cache
def _checked_factor(
    symmetry: str, n: int, order: int
) -> tuple[np.ndarray, np.ndarray, tuple[float, float, float, float]]:
    """A cached angular factor in its layout's own coordinates with its
    ``_factor_facts``, computed once: the "radial" layout's one half-plane
    pair (1, 0) and weight 1 (``order`` unused), the "zonal"
    polar arc's pairs (cos, sin) with the polar weights, or the "full"
    layout's ``_full_directions(n, order)``."""
    if symmetry == "radial":
        dirs, weights = _read_only(np.array([[1.0, 0.0]]), np.ones(1))
    elif symmetry == "zonal":
        cos, sin, weights = _polar_nodes(n, order)
        # coordinate-major, as for the full factors
        dirs = _read_only(np.array([cos, sin]).T)[0]
    else:
        dirs, weights = _full_directions(n, order)
    return dirs, weights, _factor_facts(dirs, weights)


@cache
def _zonal_weights(n: int, order: int) -> tuple[np.ndarray, tuple[float, float]]:
    """The zonal shell layout's direction weights, the polar weights times
    the area of S^(n-2), cached and read-only, with their ``_weight_facts``
    computed once.  Its half-plane pairs are those of ``_checked_factor``."""
    weights = _polar_nodes(n, order)[2] * unit_sphere_area(n - 1)
    return _read_only(weights)[0], _weight_facts(weights)


def _panel_edges(inner: float, outer: float, panels: Sequence[float] | None) -> list[float]:
    """Sorted distinct break radii of [inner, outer], ends included, as
    floats.  Breaks that rise strictly inside (inner, outer), as
    ``geometric_panels`` gives them, are taken as they are; any others go
    through ``np.unique``, clipped to [inner, outer].  A break that is not
    finite is refused: the clip would drop a NaN silently."""
    if panels is None:
        return [inner, outer]
    edges = np.array([inner, *panels, outer], dtype=float)
    if (edges[1:] > edges[:-1]).all():
        return edges.tolist()
    breaks = edges[1:-1].tolist()
    for p in breaks:
        if not isfinite(p):
            raise ValueError(f"radial panel break must be finite, got {p}")
    edges = np.unique(np.array([inner, outer, *breaks]))
    return edges[(edges >= inner) & (edges <= outer)].tolist()


def _gauss_intervals(
    lo: np.ndarray, hi: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on each interval [lo[i], hi[i]], in
    interval order."""
    x, w = gauss_legendre(order)
    half = (0.5 * (hi - lo))[:, None]
    nodes = (0.5 * (lo + hi))[:, None] + half * x
    return nodes.reshape(-1), (half * w).reshape(-1)


def geometric_panels(
    inner: float, outer: float, finest: float | None
) -> list[float] | None:
    """Panel break radii refining geometrically toward ``inner``.

    ``finest`` is the smallest feature scale the integrand carries near the
    region's center; panels are doubled from that scale outward so a fixed
    Gauss order per panel resolves every octave, up to 80 breaks.  Returns
    None when a single panel suffices.

    The breaks are ``inner + (finest / 4) * 2**k`` for the k < 80 with
    ``inner + (finest / 4) * 2**k < outer``: scaling by a power of two is
    exact, so each equals the k-th of repeated doublings, and as rounding
    is monotone those k are a prefix.
    """
    if finest is None or not isfinite(finest) or finest <= 0:
        return None
    if finest >= (outer - inner) / 4:
        return None
    edges = inner + finest / 4 * _DOUBLINGS
    return edges[:np.count_nonzero(edges < outer)].tolist()


def _unit_axis(axis) -> np.ndarray:
    """``axis`` scaled to unit length; refuses one that is not finite and
    nonzero."""
    axis = np.asarray(axis, dtype=float)
    # sqrt(v.dot(v)) is np.linalg.norm(v), without its overhead
    norm = sqrt(axis.dot(axis))
    if not 0 < norm < inf:
        raise ValueError(f"axis must be finite and nonzero, got {axis.tolist()}")
    return axis / norm


def _perpendicular(e: np.ndarray) -> np.ndarray:
    """The deterministic unit vector p orthogonal to the unit axis ``e`` that
    spans a zonal layout's half-plane with it: the k-th unit vector less
    its projection on e, k the first smallest |e_k|."""
    # in Python floats: their arithmetic is numpy's elementwise one
    coords = e.tolist()
    sizes = [abs(v) for v in coords]
    k = sizes.index(min(sizes))
    perp = [0.0 - v * coords[k] for v in coords]
    perp[k] = 1.0 - coords[k] * coords[k]
    perp = np.array(perp)
    return perp / sqrt(perp.dot(perp))


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
    pairs = regions.tolist()
    _check_region_args(n, [b for _, b in pairs], order)
    for a, b in pairs:
        if not 0 <= a < b:
            raise ValueError(f"need 0 <= inner < outer, got ({a}, {b})")
    c = _as_center(center, n)
    if radial_panels is None:
        radial_panels = [None] * len(pairs)
    if len(radial_panels) != len(pairs):
        raise ValueError(f"need one panel list per region, got {len(radial_panels)} "
                         f"for {len(pairs)}")
    # every region's panels in one pass over floats
    lo, hi, bounds = [], [], [0]
    for (a, b), p in zip(pairs, radial_panels):
        edges = _panel_edges(a, b, p)
        lo += edges[:-1]
        hi += edges[1:]
        bounds.append(bounds[-1] + (len(edges) - 1) * order)
    s, ws = _gauss_intervals(np.array(lo), np.array(hi), order)
    bounds = np.array(bounds)
    e = None
    if symmetry == "radial":
        dirs, dir_w, facts = _checked_factor("radial", n, 0)
        e = _radial_direction(n)[0][0]
        radial_w = unit_sphere_area(n) * ws * s ** (n - 1)
    elif symmetry == "zonal":
        e = _unit_axis(axis)
        dirs, _, (_, _, *lengths) = _checked_factor("zonal", n, polar_order)
        dir_w, weight_facts = _zonal_weights(n, polar_order)
        facts = (*weight_facts, *lengths)
        radial_w = ws * s ** (n - 1)
    elif symmetry == "full":
        ang = default_angular_order(n, order) if angular_order is None else angular_order
        dirs, dir_w, facts = _checked_factor("full", n, ang)
        radial_w = ws * s ** (n - 1)
    else:
        raise ValueError(f"unknown symmetry {symmetry!r}; use full, radial or zonal")
    pieces = PieceSet(n, "volume", c, regions, s, radial_w, bounds, dirs, dir_w,
                      symmetry, e)
    _check_pieces(pieces, facts)
    return pieces


def build_sphere_pieces(
    n: int, center, radii, order: int = 16, symmetry: str = "full", axis=None
) -> PieceSet:
    """Sphere pieces of the given radii about ``center``, validated: "full"
    rules of angular order ``order`` (``_full_directions``, as for shells),
    or "zonal" polar-arc rules about ``axis`` with ``order`` polar nodes."""
    radii = np.asarray(radii, dtype=float).reshape(-1)
    radius_list = radii.tolist()
    _check_region_args(n, radius_list, order)
    c = _as_center(center, n)
    # scalar powers, as a one-piece rule computes them (module docstring)
    powers = [r ** (n - 1) for r in radius_list]
    e = None
    if symmetry == "zonal":
        e = _unit_axis(axis)
        dirs, dir_w, facts = _checked_factor("zonal", n, order)
        radial_w = np.array([unit_sphere_area(n - 1) * p for p in powers])
    elif symmetry == "full":
        dirs, dir_w, facts = _checked_factor("full", n, order)
        radial_w = np.array(powers)
    else:
        raise ValueError(f"unknown symmetry {symmetry!r}; use full or zonal")
    pieces = PieceSet(n, "sphere", c, np.stack([radii, radii], axis=1), radii,
                      radial_w, np.arange(len(radii) + 1), dirs, dir_w, symmetry, e)
    _check_pieces(pieces, facts)
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


def _integrand_values(vals, pieces: PieceSet, start: int, count: int) -> np.ndarray:
    """An integrand's values at the ``count`` nodes of ``pieces`` from node
    ``start`` on, as floats; raises on a wrong shape, or on a non-finite
    value with the node where it was found."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (count,):
        raise ValueError(
            f"integrand returned shape {vals.shape}, expected {(count,)}"
        )
    if not np.isfinite(vals).all():
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        node = pieces.node_range(start + bad, start + bad + 1)[0][0]
        raise NonFiniteFieldError(node, float(vals[bad]))
    return vals


def _piece_sums(
    pieces: PieceSet,
    i: int,
    f: Callable[[np.ndarray], Sequence[np.ndarray]],
    threads: int | None,
    coordinates: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
) -> list[float]:
    """Weighted sum over piece ``i`` of each integrand ``f`` returns: one
    dot product per fixed ``_CHUNK`` span, the span partials summed in span
    order, spans spread over ``threads`` workers.  A span's coordinates and
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
            block, w = coordinates(start + c, start + d)
            vals = [_integrand_values(v, pieces, start + c, d - c) for v in f(block)]
            if cols is None:
                cols = np.empty((len(vals), b - a))
            weights[c - a:d - a] = w
            for col, v in zip(cols, vals):
                col[c - a:d - a] = v
        return [float(weights.dot(v)) for v in cols]

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
    with one dot product.  A larger piece is reduced per fixed ``_CHUNK``
    span, with its nodes built per block inside each span and its spans
    spread over ``threads`` workers (``_piece_sums``); the result is
    bit-identical for any thread count.
    """
    return _integrate_pieces(pieces, f, threads, pieces.node_range)


def _integrate_pieces(
    pieces: PieceSet,
    f: Callable[[np.ndarray], Sequence[np.ndarray]],
    threads: int | None,
    coordinates: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """``integrate_pieces`` with ``f`` taking the blocks that
    ``coordinates(c, d)`` builds of nodes ``c`` to ``d - 1``: the
    ``node_range`` of the set, or its ``plane_range``."""
    # node offsets of the pieces, as ints: piece i holds nodes
    # starts[i]:starts[i + 1] of the whole set
    m = len(pieces.dir_weights)
    starts = [k * m for k in pieces.bounds.tolist()]
    count = len(starts) - 1
    rows = []
    a = 0
    while a < count:
        if starts[a + 1] - starts[a] > _BLOCK_NODES:
            rows.append(_piece_sums(pieces, a, f, threads, coordinates))
            a += 1
            continue
        b = a + 1
        while b < count and starts[b + 1] - starts[a] <= _BLOCK_NODES:
            b += 1
        block, weights = coordinates(starts[a], starts[b])
        size = starts[b] - starts[a]
        cols = [_integrand_values(v, pieces, starts[a], size) for v in f(block)]
        offsets = [k - starts[a] for k in starts[a:b + 1]]
        for lo, hi in zip(offsets, offsets[1:]):
            w = weights[lo:hi]
            rows.append([float(w.dot(v[lo:hi])) for v in cols])
        if b == a + 1:
            # a lone piece is one span, and np.sum of its partial maps -0.0 to 0.0
            rows[-1] = [v + 0.0 for v in rows[-1]]
        a = b
    return np.array(rows)
