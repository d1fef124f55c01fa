"""Scalar fields on R^n and the residual functionals of the critical equation.

The model equation is -Lap(u) = u |u|^(4/(n-2)).  Its standard entire
positive solution is

    U(x) = (n(n-2))^((n-2)/4) * (1 + |x|^2)^(-(n-2)/2),

and every translate/dilate  sign * d^(-(n-2)/2) U((x-y)/d)  solves the same
equation.  The closed form is not taken on faith: the test suite enforces
that the pointwise residual of these profiles vanishes to machine precision.

Fields evaluate on point batches of shape (m, n).  Analytic gradients and
Laplacians are used when a field carries them; otherwise second-order
central differences with relative stepping are substituted.

Four closed-form facts describe a field beyond its values: a one-pass
value and gradient (``value_and_gradient``), the radial parts it is a sum
of (``radial_parts``), bounds on balls (``ball_sup``) and its value and
gradient on a half-plane bounded by an axis its parts are centered on
(``half_plane``).  ``radial_parts`` picks the cheapest quadrature layout
(``_layout``): full, zonal about an axis through the probe, or radial.
Every field-density integral goes through one evaluator
(``_integrate_density``), which hands a density the values, the gradients
and the offsets y - x from the rule's center in the layout's own
coordinates: n of them at the nodes of a full layout, and two in a zonal
or radial one, where the field's ``half_plane`` is evaluated at the rows
(a, b) of ``PieceSet.plane_range``.  A field without that fact is
evaluated at the layout's n-dimensional nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import (
    PieceSet,
    QuadratureRule,
    build_shell_pieces,
    build_sphere_pieces,
    _integrate_pieces,
    default_angular_order,
    geometric_panels,
    node_slack,
)

__all__ = [
    "ScalarField",
    "Bubble",
    "Superposition",
    "BubbleConfiguration",
    "RescaledField",
    "ConstantField",
    "CustomField",
    "aubin_talenti",
    "gradient",
    "laplacian",
    "pde_residual",
    "PohozaevReport",
    "pohozaev_report",
    "ball_rule_for",
    "sphere_rule_for",
    "annulus_rule_for",
    "shell_pieces_for",
    "sphere_pieces_for",
]

DEFAULT_FD_STEP = 1e-4


def _pts(x, n: int) -> tuple[np.ndarray, bool]:
    """Coerce a single point or a batch to shape (m, n)."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        if a.size != n:
            raise ValueError(f"point has {a.size} components, expected {n}")
        return a[None, :], True
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"points must have shape (m, {n}), got {a.shape}")
    return a, False


_EVALUATION = ("evaluate", "gradient", "analytic_gradient", "value_and_gradient")
_FACTS = ("value_and_gradient", "radial_parts", "ball_sup", "half_plane")
# How far a part's center may sit off the axis of a half-plane evaluation,
# in units of max(1, its distance from the rule's center): ``_layout``
# takes centers within 1e-10 of one line as collinear, so every radial or
# zonal layout it picks passes.
_AXIS_TOL = 1e-9


class ScalarField:
    """Base class: a function R^n -> R with optional analytic derivatives."""

    dimension: int

    def __init_subclass__(cls, **kwargs):
        """The one trust rule for closed-form facts: when a class body
        defines an evaluation method (``evaluate``, ``gradient``,
        ``analytic_gradient`` or ``value_and_gradient``), each fact
        (``value_and_gradient``, ``radial_parts``, ``ball_sup``,
        ``half_plane``) that the body does not define reverts to this
        class's default, so no parent's closed form describes a field it
        was not derived for.  A fact the body defines is its own,
        ``super()`` calls included."""
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        if any(name in own for name in _EVALUATION):
            for name in _FACTS:
                if name not in own:
                    setattr(cls, name, vars(ScalarField)[name])

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x) -> np.ndarray | float:
        pts, single = _pts(x, self.dimension)
        v = self.evaluate(pts)
        return float(v[0]) if single else v

    @property
    def has_analytic_gradient(self) -> bool:
        return type(self).analytic_gradient is not ScalarField.analytic_gradient

    @property
    def has_analytic_laplacian(self) -> bool:
        return type(self).analytic_laplacian is not ScalarField.analytic_laplacian

    def analytic_gradient(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def analytic_laplacian(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, points: np.ndarray, h: float | None = None) -> np.ndarray:
        """Analytic gradient when available, else O(h^2) central differences."""
        if self.has_analytic_gradient and h is None:
            return self.analytic_gradient(points)
        return self._fd_gradient(points, h)

    def value_and_gradient(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(evaluate(points), gradient(points))``; fields that can share
        work between the two compute them in one pass, bit for bit equal.
        A subclass that changes evaluation gets this default back."""
        return self.evaluate(points), self.gradient(points)

    def laplacian(self, points: np.ndarray, h: float | None = None) -> np.ndarray:
        if self.has_analytic_laplacian and h is None:
            return self.analytic_laplacian(points)
        return self._fd_laplacian(points, h)

    def _steps(self, points: np.ndarray, h: float | None) -> np.ndarray:
        base = DEFAULT_FD_STEP if h is None else h
        # relative stepping keeps cancellation error uniform across scales
        return base * (1.0 + np.linalg.norm(points, axis=1))

    def _fd_gradient(self, points: np.ndarray, h: float | None) -> np.ndarray:
        n = self.dimension
        hh = self._steps(points, h)
        out = np.empty_like(points)
        for i in range(n):
            shift = np.zeros(n)
            shift[i] = 1.0
            up = self.evaluate(points + hh[:, None] * shift)
            dn = self.evaluate(points - hh[:, None] * shift)
            out[:, i] = (up - dn) / (2.0 * hh)
        return out

    def _fd_laplacian(self, points: np.ndarray, h: float | None) -> np.ndarray:
        n = self.dimension
        hh = self._steps(points, h)
        mid = self.evaluate(points)
        acc = np.zeros(len(points))
        for i in range(n):
            shift = np.zeros(n)
            shift[i] = 1.0
            up = self.evaluate(points + hh[:, None] * shift)
            dn = self.evaluate(points - hh[:, None] * shift)
            acc += up + dn - 2.0 * mid
        return acc / hh**2

    # --- the symmetry fact used to pick reduced quadrature layouts ----

    @property
    def radial_parts(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """``(centers, scales, opaque)``: the field is a sum of parts, each
        radial about one row of ``centers`` (shape (k, n)) with its finest
        feature scale in ``scales`` (NaN when it has none), plus a part of
        unknown symmetry when ``opaque`` is true.  The default knows no
        part; a subclass that changes evaluation gets it back."""
        return np.empty((0, self.dimension)), np.empty(0), True

    def ball_sup(
        self, xs: np.ndarray, r: float
    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Upper bounds ``(sup|u|, sup|grad u|)`` over the closed balls
        B(x, r), one entry per row ``x`` of ``xs`` (shape (m, n)), or None
        when the field knows no bound.

        The balls are taken ``node_slack(r)`` wider, so the bounds also
        hold at every node of a valid rule on B(x, r).  The default knows
        none; a subclass that changes evaluation gets it back."""
        return None

    def half_plane(
        self, x: np.ndarray, e: np.ndarray
    ) -> Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]]:
        """The field on a half-plane bounded by the line through ``x`` along
        the unit vector ``e``: a function of an (N, 2) array whose rows
        ``(a, b)`` stand for the points ``x + a e + b p``, p any unit vector
        orthogonal to e, returning the values there and the gradients'
        (e, p) components as an (N, 2) array.  None when the field knows
        none, or when a part is not radial about a point of the line (within
        ``_AXIS_TOL``), where the choice of p would matter.  The default
        knows none; a subclass that changes evaluation gets it back."""
        return None


def _axial_offset(center: np.ndarray, x: np.ndarray, e: np.ndarray) -> float | None:
    """The coordinate t of ``center = x + t e`` along the unit vector ``e``,
    or None when ``center`` lies more than ``_AXIS_TOL`` off that line."""
    d = center - x
    t = float(d.dot(e))
    off = d - t * e
    return t if off.dot(off) <= _AXIS_TOL**2 * max(1.0, d.dot(d)) else None


def _bubble_amplitude(n: int) -> float:
    return (n * (n - 2)) ** ((n - 2) / 4)


@dataclass(frozen=True)
class Bubble(ScalarField):
    """Translate/dilate of the standard entire solution, with a sign."""

    dimension: int
    center: np.ndarray
    scale: float
    sign: float = 1.0

    def __post_init__(self):
        if self.dimension < 3:
            raise ValueError("bubbles need dimension >= 3")
        if not (0 < self.scale < math.inf):
            raise ValueError(f"bubble scale must be finite and > 0, got {self.scale}")
        if self.sign not in (-1.0, 1.0, -1, 1):
            raise ValueError("bubble sign must be +1 or -1")
        object.__setattr__(
            self, "center", np.asarray(self.center, dtype=float).reshape(-1)
        )
        if self.center.size != self.dimension:
            raise ValueError("bubble center has wrong dimension")
        if not np.all(np.isfinite(self.center)):
            raise ValueError(f"bubble center must be finite, got {self.center.tolist()}")

    def _z(self, points: np.ndarray, center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fresh ``z = (points - center) / scale`` and ``g = 1 + |z|^2``;
        ``center`` is the bubble's center in the coordinates of ``points``.

        The kernels below work in place on these two arrays, so a call
        makes one array of the points' shape; each in-place step is the
        out-of-place expression's operation, and the values match it bit
        for bit."""
        z = points - center
        z /= self.scale
        g = np.einsum("ij,ij->i", z, z)
        g += 1.0
        return z, g

    @cached_property
    def _amplitudes(self) -> tuple[float, float]:
        """Unsigned ``(a, b)``: U = sign a g^(-(n-2)/2) and grad U =
        -sign b z g^(-n/2), with ``(z, g)`` from ``_z``."""
        n, amp = self.dimension, _bubble_amplitude(self.dimension)
        return amp * self.scale ** (-(n - 2) / 2), (n - 2) * amp * self.scale ** (-n / 2)

    def _value(self, g: np.ndarray) -> np.ndarray:
        v = g ** (-(self.dimension - 2) / 2)
        v *= self.sign * self._amplitudes[0]
        return v

    def _gradient(self, z: np.ndarray, g: np.ndarray) -> np.ndarray:
        """-sign b z g^(-n/2), written into ``z``; ``g`` is overwritten too."""
        z *= -self.sign * self._amplitudes[1]
        g **= -self.dimension / 2
        z *= g[:, None]
        return z

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return self._value(self._z(points, self.center)[1])

    def analytic_gradient(self, points: np.ndarray) -> np.ndarray:
        return self._gradient(*self._z(points, self.center))

    def value_and_gradient(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One pass: ``z`` and ``1 + |z|^2`` are computed once per node."""
        z, g = self._z(points, self.center)
        return self._value(g), self._gradient(z, g)

    def half_plane(self, x, e):
        """``value_and_gradient``'s kernels on the rows (a, b), with the
        center at (t, 0) for ``center = x + t e``."""
        t = _axial_offset(self.center, x, e)
        if t is None:
            return None
        center = np.array([t, 0.0])

        def kernel(points):
            z, g = self._z(points, center)
            return self._value(g), self._gradient(z, g)

        return kernel

    def analytic_laplacian(self, points: np.ndarray) -> np.ndarray:
        n = self.dimension
        amp = -self.sign * n * (n - 2) * _bubble_amplitude(n) * self.scale ** (-(n + 2) / 2)
        g = self._z(points, self.center)[1]
        g **= -(n + 2) / 2
        g *= amp
        return g

    @cached_property
    def radial_parts(self) -> tuple[np.ndarray, np.ndarray, bool]:
        return self.center[None, :], np.array([self.scale], dtype=float), False

    def ball_sup(self, xs, r):
        """Closed form: with t = |y - center|/scale, |U| decreases in t and
        |grad U| goes as t (1+t^2)^(-n/2), which decreases for t >= t* =
        1/sqrt(n-1); both are taken at the ball's nearest t (clamped to t*
        for the gradient)."""
        n = self.dimension
        gap = np.linalg.norm(xs - self.center, axis=1) - (r + node_slack(r))
        t = np.maximum(gap, 0.0) / self.scale
        tg = np.maximum(t, 1.0 / math.sqrt(n - 1))
        amp, grad_amp = self._amplitudes
        return (amp * (1.0 + t**2) ** (-(n - 2) / 2),
                grad_amp * tg * (1.0 + tg**2) ** (-n / 2))


class Superposition(ScalarField):
    """Pointwise weighted sum of fields sharing one dimension."""

    def __init__(self, parts: Sequence[ScalarField], weights: Sequence[float] | None = None):
        if not parts:
            raise ValueError("superposition needs at least one part")
        dims = {p.dimension for p in parts}
        if len(dims) != 1:
            raise ValueError(f"parts live in different dimensions: {sorted(dims)}")
        self.dimension = dims.pop()
        self.parts = list(parts)
        self.weights = (
            np.ones(len(parts)) if weights is None else np.asarray(weights, dtype=float)
        )
        if self.weights.size != len(parts):
            raise ValueError("one weight per part required")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        acc = np.zeros(len(points))
        for w, p in zip(self.weights, self.parts):
            acc += w * p.evaluate(points)
        return acc

    @property
    def has_analytic_gradient(self) -> bool:
        return all(p.has_analytic_gradient for p in self.parts)

    @property
    def has_analytic_laplacian(self) -> bool:
        return all(p.has_analytic_laplacian for p in self.parts)

    def analytic_gradient(self, points: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(points)
        for w, p in zip(self.weights, self.parts):
            acc += w * p.analytic_gradient(points)
        return acc

    def analytic_laplacian(self, points: np.ndarray) -> np.ndarray:
        acc = np.zeros(len(points))
        for w, p in zip(self.weights, self.parts):
            acc += w * p.analytic_laplacian(points)
        return acc

    def value_and_gradient(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One pass over the parts when every part has an analytic
        gradient (which ``gradient`` then sums)."""
        if not self.has_analytic_gradient:
            return super().value_and_gradient(points)
        return self._weighted_sum(points, [p.value_and_gradient for p in self.parts])

    def _weighted_sum(self, points, passes) -> tuple[np.ndarray, np.ndarray]:
        """The weighted sums of the parts' ``(value, gradient)``, one
        ``passes[i](points)`` per part.  The gradients have the points'
        shape."""
        val, grad = np.zeros(len(points)), np.zeros_like(points)
        # one scratch array for every ``w * v`` and one for every ``w * g``:
        # a part's own arrays are never written, as a CustomField may return
        # one it keeps, and they are dropped before the next part's call
        wv, wg = np.empty_like(val), np.empty_like(grad)
        for w, one_pass in zip(self.weights, passes):
            v, g = one_pass(points)
            val += np.multiply(w, v, out=wv)
            grad += np.multiply(w, g, out=wg)
            del v, g
        return val, grad

    def half_plane(self, x, e):
        """The weighted sum of the parts' half-plane kernels; None when a
        part has none."""
        kernels = [p.half_plane(x, e) for p in self.parts]
        if any(k is None for k in kernels):
            return None
        return lambda points: self._weighted_sum(points, kernels)

    @cached_property
    def radial_parts(self) -> tuple[np.ndarray, np.ndarray, bool]:
        # computed once: nothing reassigns or mutates ``parts`` after __init__
        centers, scales, opaque = zip(*(p.radial_parts for p in self.parts))
        return np.concatenate(centers), np.concatenate(scales), any(opaque)

    def ball_sup(self, xs, r):
        """Sum of the parts' bounds times ``|weight|``; None when a part
        has none."""
        sup_u, sup_g = np.zeros(len(xs)), np.zeros(len(xs))
        for w, p in zip(self.weights, self.parts):
            part = p.ball_sup(xs, r)
            if part is None:
                return None
            sup_u += abs(w) * part[0]
            sup_g += abs(w) * part[1]
        return sup_u, sup_g


class BubbleConfiguration(Superposition):
    """Weighted sum of bubbles: the synthetic-solution generator."""

    def __init__(self, bubbles: Sequence[Bubble], weights: Sequence[float] | None = None):
        if not all(isinstance(b, Bubble) for b in bubbles):
            raise TypeError("BubbleConfiguration takes Bubble parts only")
        super().__init__(bubbles, weights)
        self.bubbles = list(bubbles)


class RescaledField(ScalarField):
    """x -> d^((n-2)/2) u(d x + y): the blow-up change of variables.

    The scaling exponent keeps the equation invariant, so rescaling an
    exact solution yields an exact solution; rescaling a bubble at (y, d)
    by (y, d) recovers the standard profile exactly.
    """

    def __init__(self, base: ScalarField, y, delta: float):
        if not (0 < delta < math.inf):
            raise ValueError(f"rescaling factor must be finite and > 0, got {delta}")
        self.base = base
        self.dimension = base.dimension
        self.y = _pts(y, base.dimension)[0][0]
        if not np.all(np.isfinite(self.y)):
            raise ValueError(f"rescaling center must be finite, got {self.y.tolist()}")
        self.delta = float(delta)

    def _map(self, points: np.ndarray) -> np.ndarray:
        return self.delta * points + self.y

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        n = self.dimension
        return self.delta ** ((n - 2) / 2) * self.base.evaluate(self._map(points))

    @property
    def has_analytic_gradient(self) -> bool:
        return self.base.has_analytic_gradient

    @property
    def has_analytic_laplacian(self) -> bool:
        return self.base.has_analytic_laplacian

    def analytic_gradient(self, points: np.ndarray) -> np.ndarray:
        n = self.dimension
        return self.delta ** (n / 2) * self.base.analytic_gradient(self._map(points))

    def analytic_laplacian(self, points: np.ndarray) -> np.ndarray:
        n = self.dimension
        return self.delta ** ((n + 2) / 2) * self.base.analytic_laplacian(
            self._map(points)
        )

    @property
    def radial_parts(self) -> tuple[np.ndarray, np.ndarray, bool]:
        centers, scales, opaque = self.base.radial_parts
        return (centers - self.y) / self.delta, scales / self.delta, opaque

    def half_plane(self, x, e):
        """The base's kernel about the mapped ``x``, at ``delta (a, b)``."""
        base = self.base.half_plane(self._map(x), e)
        if base is None:
            return None
        n = self.dimension

        def kernel(points):
            v, g = base(self.delta * points)
            return self.delta ** ((n - 2) / 2) * v, self.delta ** (n / 2) * g

        return kernel


class ConstantField(ScalarField):
    def __init__(self, dimension: int, value: float):
        self.dimension = dimension
        self.value = float(value)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.full(len(points), self.value)

    def analytic_gradient(self, points: np.ndarray) -> np.ndarray:
        return np.zeros_like(points)

    def analytic_laplacian(self, points: np.ndarray) -> np.ndarray:
        return np.zeros(len(points))

    @property
    def radial_parts(self) -> tuple[np.ndarray, np.ndarray, bool]:
        return np.zeros((1, self.dimension)), np.array([np.nan]), False

    def half_plane(self, x, e):
        return lambda points: (np.full(len(points), self.value), np.zeros_like(points))


class CustomField(ScalarField):
    """Wrap plain callables as a field."""

    def __init__(
        self,
        dimension: int,
        func: Callable[[np.ndarray], np.ndarray],
        grad: Callable[[np.ndarray], np.ndarray] | None = None,
        lap: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        self.dimension = dimension
        self._func = func
        self._grad = grad
        self._lap = lap

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self._func(points), dtype=float)

    @property
    def has_analytic_gradient(self) -> bool:
        return self._grad is not None

    @property
    def has_analytic_laplacian(self) -> bool:
        return self._lap is not None

    def analytic_gradient(self, points: np.ndarray) -> np.ndarray:
        if self._grad is None:
            raise NotImplementedError
        return np.asarray(self._grad(points), dtype=float)

    def analytic_laplacian(self, points: np.ndarray) -> np.ndarray:
        if self._lap is None:
            raise NotImplementedError
        return np.asarray(self._lap(points), dtype=float)


def aubin_talenti(n: int, delta: float = 1.0, y=0) -> Bubble:
    """The closed-form positive entire solution, rescaled and translated."""
    if n < 3:
        raise ValueError("need n >= 3")
    center = np.zeros(n) if (np.isscalar(y) and y == 0) else np.asarray(y, dtype=float)
    return Bubble(dimension=n, center=center, scale=float(delta))


# ---------------------------------------------------------------------------
# differential operators and residuals
# ---------------------------------------------------------------------------


def gradient(u: ScalarField, x, h: float | None = None) -> np.ndarray:
    """Gradient of ``u`` at a point or point batch."""
    pts, single = _pts(x, u.dimension)
    g = u.gradient(pts, h)
    return g[0] if single else g


def laplacian(u: ScalarField, x, h: float | None = None) -> np.ndarray | float:
    pts, single = _pts(x, u.dimension)
    v = u.laplacian(pts, h)
    return float(v[0]) if single else v


def critical_power(u_vals: np.ndarray, n: int) -> np.ndarray:
    """u |u|^(4/(n-2)), the critical nonlinearity."""
    return u_vals * np.abs(u_vals) ** (4.0 / (n - 2))


def pde_residual(u: ScalarField, x, h: float | None = None) -> np.ndarray | float:
    """-Lap(u) - u|u|^(4/(n-2)) at a point or batch; zero for exact solutions."""
    pts, single = _pts(x, u.dimension)
    res = -u.laplacian(pts, h) - critical_power(u.evaluate(pts), u.dimension)
    return float(res[0]) if single else res


# density(v, g, y): a block's values, gradients and offsets (or None) to
# the arrays integrated, one value per node each
_Density = Callable[[np.ndarray, np.ndarray, Optional[np.ndarray]], Sequence[np.ndarray]]


def _field_pass(
    u: ScalarField, pieces: PieceSet, density: _Density, offsets: bool = False
) -> tuple[Callable[[int, int], tuple[np.ndarray, np.ndarray]],
           Callable[[np.ndarray], Sequence[np.ndarray]]]:
    """How ``_integrate_density`` walks ``pieces``: the builder of the
    coordinates and weights of nodes ``c`` to ``d - 1``, and the integrand
    that takes those coordinates to ``density(v, g, y)``.

    A radial or zonal set whose field has a ``half_plane`` kernel about its
    center and axis is walked in half-plane coordinates
    (``PieceSet.plane_range``), which are also the offsets y - x; any other
    set at its nodes (``PieceSet.node_range``), with one
    ``value_and_gradient`` per block and the offsets ``nodes - center``,
    computed only when ``offsets`` is true (else y is None)."""
    kernel = None if pieces.symmetry == "full" else u.half_plane(pieces.center, pieces.axis)
    if kernel is not None:
        def on_plane(coords):
            v, g = kernel(coords)
            return density(v, g, coords)

        return pieces.plane_range, on_plane
    x = pieces.center

    def on_nodes(pts):
        v, g = u.value_and_gradient(pts)
        return density(v, g, pts - x if offsets else None)

    return pieces.node_range, on_nodes


def _integrate_density(
    u: ScalarField,
    pieces: PieceSet,
    density: _Density,
    threads: int | None = None,
    offsets: bool = False,
) -> np.ndarray:
    """The one evaluator of field densities: the weighted sum over every
    piece of every array ``density(v, g, y)`` returns, with the values v,
    the gradients g and the offsets y - x from the set's center in the
    layout's own coordinates (``_field_pass``), one field pass per node.
    Shape (len(pieces), k), as ``integrate_pieces``."""
    coordinates, f = _field_pass(u, pieces, density, offsets)
    return _integrate_pieces(pieces, f, threads, coordinates)


def _energy_density(n: int) -> _Density:
    """(|grad u|^2, |u|^(2n/(n-2))) at each node."""
    p = 2.0 * n / (n - 2)
    return lambda v, g, y: (np.einsum("mi,mi->m", g, g), np.abs(v) ** p)


def _shell_energies(u: ScalarField, x, regions, order: int) -> list[float]:
    """Unweighted energy int (|grad u|^2 + |u|^(2n/(n-2))) over each
    (inner, outer) region about ``x``, integrated as one piece batch."""
    terms = _energy_density(u.dimension)
    pieces = shell_pieces_for(u, x, regions, order)
    return _integrate_density(
        u, pieces, lambda v, g, y: (np.add(*terms(v, g, y)),))[:, 0].tolist()


# ---------------------------------------------------------------------------
# quadrature-rule selection exploiting field symmetry
# ---------------------------------------------------------------------------


def _layout(u: ScalarField, x: np.ndarray) -> tuple[str, np.ndarray | None]:
    """The cheapest node layout valid for ``u`` about ``x``, read from
    ``u.radial_parts``: "full" when a part is opaque; "radial" when every
    part is radial about ``x``; "zonal" about the returned axis when every
    part's center lies on one line through ``x``; "full" otherwise."""
    centers, _, opaque = u.radial_parts
    if opaque:
        return "full", None
    x = np.asarray(x, dtype=float)
    d = centers[0] - x
    norm = math.sqrt(d.dot(d))  # np.linalg.norm(d), without its overhead
    # one part at a finite distance, the common case, has no centers to
    # compare: they all equal the first
    if (len(centers) == 1 and math.isfinite(norm)
            or np.abs(centers - centers[0]).max() <= 1e-14):
        return ("radial", None) if norm < 1e-14 else ("zonal", d / norm)
    # several centers: axisymmetric iff they and x are collinear
    rel = np.vstack([centers[1:], x]) - centers[0]
    keep = rel[np.linalg.norm(rel, axis=1) > 1e-13]
    if keep.shape[0] == 0:
        return "radial", None
    axis = keep[0] / np.linalg.norm(keep[0])
    residue = keep - np.outer(keep @ axis, axis)
    if np.max(np.linalg.norm(residue, axis=1)) > 1e-10:
        return "full", None
    return "zonal", axis


def _finest_scale(u: ScalarField, x=None) -> float | None:
    """Finest feature scale of ``u``'s radial parts, or of those centered
    within 1e-12 of ``x``; None when no such part has a scale."""
    centers, scales, _ = u.radial_parts
    if len(scales) == 1:
        # one part: the general path's distance test and minimum, in scalars
        if x is not None:
            d = centers[0] - x
            if not math.sqrt(np.add.reduce(d * d)) <= 1e-12:
                return None
        finest = float(scales[0])
        return finest if finest < math.inf else None
    if x is not None:
        scales = scales[np.linalg.norm(centers - x, axis=1) <= 1e-12]
    finest = np.fmin.reduce(scales, initial=np.inf)  # skips NaN
    return float(finest) if finest < np.inf else None


def _shell_panels(u: ScalarField, x: np.ndarray, inner: float, outer: float):
    """Radial panel breaks of one shell: a ball refines toward a feature
    the field concentrates at ``x``; a wide annulus (outer/inner > 8) is
    cut at doubling radii."""
    if inner == 0:
        scale = _finest_scale(u, x)
        return None if scale is None else geometric_panels(0.0, outer, scale)
    if outer / inner > 8:
        edges, a = [], inner
        while a * 2 < outer:
            a *= 2
            edges.append(a)
        return edges
    return None


def shell_pieces_for(
    u: ScalarField,
    x,
    regions,
    order: int = 32,
) -> PieceSet:
    """Ball and annulus pieces ``regions = [(inner, outer), ...]`` about
    ``x`` in the cheapest layout valid for ``u``, each with its own radial
    panels; piece ``i`` equals ``annulus_rule_for(u, x, *regions[i], order)``."""
    x = _pts(x, u.dimension)[0][0]
    symmetry, axis = _layout(u, x)
    # coerced once: ``build_shell_pieces`` takes the float array as it is,
    # and the panels are read from Python floats
    regions = np.asarray(regions, dtype=float).reshape(-1, 2)
    return build_shell_pieces(
        u.dimension, x, regions, order, symmetry, axis,
        polar_order=max(order, 48),
        radial_panels=[_shell_panels(u, x, a, b) for a, b in regions.tolist()],
    )


def ball_rule_for(u: ScalarField, x, r: float, order: int = 32) -> QuadratureRule:
    """Ball rule about ``x`` using the cheapest layout valid for ``u``."""
    return shell_pieces_for(u, x, [(0.0, r)], order).rule(0)


def annulus_rule_for(
    u: ScalarField, x, inner: float, outer: float, order: int = 32
) -> QuadratureRule:
    """Annulus rule about ``x`` using the cheapest layout valid for ``u``."""
    return shell_pieces_for(u, x, [(inner, outer)], order).rule(0)


def sphere_pieces_for(u: ScalarField, x, radii, order: int = 32) -> PieceSet:
    """Sphere pieces of the given radii about ``x`` in the cheapest layout
    valid for ``u``; piece ``i`` equals ``sphere_rule_for(u, x, radii[i], order)``.
    A full layout takes ``default_angular_order`` as shells do."""
    x = _pts(x, u.dimension)[0][0]
    symmetry, axis = _layout(u, x)
    n = u.dimension
    if symmetry == "full":
        return build_sphere_pieces(n, x, radii, default_angular_order(n, order))
    if symmetry == "radial":
        # field constant on each sphere: a few polar nodes still integrate it
        return build_sphere_pieces(n, x, radii, 4, "zonal", np.eye(n)[0])
    return build_sphere_pieces(n, x, radii, max(order, 64), "zonal", axis)


def sphere_rule_for(u: ScalarField, x, r: float, order: int = 32) -> QuadratureRule:
    return sphere_pieces_for(u, x, [r], order).rule(0)


# ---------------------------------------------------------------------------
# Pohozaev balance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PohozaevReport:
    """Term-by-term radial-multiplier balance over B(center, r).

    ``terms`` holds the five terms of the derived centered identity; their
    sum (``residual``) vanishes for exact smooth solutions.  ``paper_terms``
    evaluates the printed variant whose boundary potential term lacks one
    factor of r; the two agree only at r = 1 and the table keeps both so
    the mismatch is visible rather than silently corrected.
    """

    center: np.ndarray
    r: float
    terms: dict[str, float]
    paper_terms: dict[str, float]

    @property
    def residual(self) -> float:
        return float(sum(self.terms.values()))

    @property
    def paper_residual(self) -> float:
        return float(sum(self.paper_terms.values()))

    @property
    def largest_term(self) -> float:
        return max(abs(v) for v in self.terms.values())

    @property
    def relative_residual(self) -> float:
        big = self.largest_term
        return abs(self.residual) / big if big > 0 else abs(self.residual)


def pohozaev_report(
    u: ScalarField,
    x,
    r: float,
    order: int = 48,
    threads: int | None = None,
) -> PohozaevReport:
    """Evaluate the five-term centered Pohozaev balance about ``x``.

    The ball's two integrals and the sphere's three are each taken in one
    field pass per node (``_integrate_density``)."""
    if not (r > 0):
        raise ValueError("radius must be positive")
    n = u.dimension
    p = 2.0 * n / (n - 2)
    x = _pts(x, n)[0][0]
    ball = shell_pieces_for(u, x, [(0.0, r)], order)
    sphere = sphere_pieces_for(u, x, [r], order)

    def sphere_terms(v, g, y):
        return (np.abs(v) ** p, np.einsum("mi,mi->m", g, g),
                np.einsum("mi,mi->m", g, y / r) ** 2)

    vol_grad, vol_pot = _integrate_density(u, ball, _energy_density(n), threads)[0].tolist()
    sph_pot, sph_grad, sph_norm = _integrate_density(
        u, sphere, sphere_terms, threads, offsets=True)[0].tolist()

    terms = {
        "volume_potential": (n - 2) / 2.0 * vol_pot,
        "volume_gradient": -(n - 2) / 2.0 * vol_grad,
        "boundary_potential": -(n - 2) / (2.0 * n) * r * sph_pot,
        "boundary_gradient": 0.5 * r * sph_grad,
        "boundary_normal": -r * sph_norm,
    }
    paper_terms = dict(terms)
    paper_terms["boundary_potential"] = -(n - 2) / (2.0 * n) * sph_pot
    # a copy: the report keeps its center when the caller's array changes
    return PohozaevReport(center=x.copy(), r=r, terms=terms, paper_terms=paper_terms)

