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
    default_angular_order,
    geometric_panels,
    integrate,
    integrate_pieces,
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
    "ScalarTestFunction",
    "VectorTestFunction",
    "bump_profile",
    "aubin_talenti",
    "gradient",
    "laplacian",
    "pde_residual",
    "weak_residual",
    "stationarity_residual",
    "PohozaevReport",
    "pohozaev_report",
    "pohozaev_residual",
    "ball_rule_for",
    "sphere_rule_for",
    "annulus_rule_for",
    "shell_pieces_for",
    "sphere_pieces_for",
    "bump_adapted_rule",
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
_FACTS = ("value_and_gradient", "radial_parts", "ball_sup")


class ScalarField:
    """Base class: a function R^n -> R with optional analytic derivatives."""

    dimension: int

    def __init_subclass__(cls, **kwargs):
        """The one trust rule for closed-form facts: when a class body
        defines an evaluation method (``evaluate``, ``gradient``,
        ``analytic_gradient`` or ``value_and_gradient``), each fact
        (``value_and_gradient``, ``radial_parts``, ``ball_sup``) that the
        body does not define reverts to this class's default, so no parent's
        closed form describes a field it was not derived for.  A fact the
        body defines is its own, ``super()`` calls included."""
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
        if not (self.scale > 0):
            raise ValueError(f"bubble scale must be positive, got {self.scale}")
        if self.sign not in (-1.0, 1.0, -1, 1):
            raise ValueError("bubble sign must be +1 or -1")
        object.__setattr__(
            self, "center", np.asarray(self.center, dtype=float).reshape(-1)
        )
        if self.center.size != self.dimension:
            raise ValueError("bubble center has wrong dimension")

    def _z(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = (points - self.center) / self.scale
        return z, 1.0 + np.einsum("ij,ij->i", z, z)

    @cached_property
    def _amplitudes(self) -> tuple[float, float]:
        """Unsigned ``(a, b)``: U = sign a g^(-(n-2)/2) and grad U =
        -sign b z g^(-n/2), with ``(z, g)`` from ``_z``."""
        n, amp = self.dimension, _bubble_amplitude(self.dimension)
        return amp * self.scale ** (-(n - 2) / 2), (n - 2) * amp * self.scale ** (-n / 2)

    def _value(self, g: np.ndarray) -> np.ndarray:
        return self.sign * self._amplitudes[0] * g ** (-(self.dimension - 2) / 2)

    def _gradient(self, z: np.ndarray, g: np.ndarray) -> np.ndarray:
        return -self.sign * self._amplitudes[1] * z * (g ** (-self.dimension / 2))[:, None]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return self._value(self._z(points)[1])

    def analytic_gradient(self, points: np.ndarray) -> np.ndarray:
        return self._gradient(*self._z(points))

    def value_and_gradient(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One pass: ``z`` and ``1 + |z|^2`` are computed once per node."""
        z, g = self._z(points)
        return self._value(g), self._gradient(z, g)

    def analytic_laplacian(self, points: np.ndarray) -> np.ndarray:
        n = self.dimension
        amp = -self.sign * n * (n - 2) * _bubble_amplitude(n) * self.scale ** (-(n + 2) / 2)
        return amp * self._z(points)[1] ** (-(n + 2) / 2)

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
        val, grad = np.zeros(len(points)), np.zeros_like(points)
        for w, p in zip(self.weights, self.parts):
            v, g = p.value_and_gradient(points)
            val += w * v
            grad += w * g
        return val, grad

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
        if not (delta > 0):
            raise ValueError(f"rescaling factor must be positive, got {delta}")
        self.base = base
        self.dimension = base.dimension
        self.y = _pts(y, base.dimension)[0][0]
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
    if not (delta > 0):
        raise ValueError(f"scale must be positive, got {delta}")
    center = np.zeros(n) if (np.isscalar(y) and y == 0) else np.asarray(y, dtype=float)
    return Bubble(dimension=n, center=center, scale=float(delta))


# ---------------------------------------------------------------------------
# smooth compactly supported test functions
# ---------------------------------------------------------------------------


def bump_profile(t: np.ndarray) -> np.ndarray:
    """exp(1/(t^2-1)) inside |t| < 1, zero outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 / (ti**2 - 1.0))
    return out


def _bump_dprofiles(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(b, b', b'' ) of the bump profile, vectorized and safe at |t| >= 1."""
    t = np.asarray(t, dtype=float)
    b = np.zeros_like(t)
    db = np.zeros_like(t)
    d2b = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    g = ti**2 - 1.0
    bi = np.exp(1.0 / g)
    q = -2.0 * ti / g**2
    dq = -2.0 / g**2 + 8.0 * ti**2 / g**3
    b[inside] = bi
    db[inside] = bi * q
    d2b[inside] = bi * (q**2 + dq)
    return b, db, d2b


@dataclass(frozen=True)
class _BumpAtom:
    coefficient: float
    center: np.ndarray
    radius: float


class ScalarTestFunction:
    """Finite sum of radial bumps; closed under + and scalar *."""

    def __init__(self, dimension: int, atoms: Sequence[tuple[float, np.ndarray, float]]):
        self.dimension = dimension
        self.atoms = [
            _BumpAtom(float(c), np.asarray(x0, dtype=float).reshape(-1), float(r))
            for c, x0, r in atoms
        ]
        for a in self.atoms:
            if a.radius <= 0:
                raise ValueError("bump radius must be positive")
            if a.center.size != dimension:
                raise ValueError("bump center has wrong dimension")

    @classmethod
    def bump(cls, dimension: int, center, radius: float, coefficient: float = 1.0):
        return cls(dimension, [(coefficient, _pts(center, dimension)[0][0], radius)])

    def support_ball(self) -> tuple[np.ndarray, float]:
        """A ball containing the support (anchored at the first atom)."""
        c0 = self.atoms[0].center
        rad = max(
            float(np.linalg.norm(a.center - c0)) + a.radius for a in self.atoms
        )
        return c0, rad

    def value(self, points: np.ndarray) -> np.ndarray:
        acc = np.zeros(len(points))
        for a in self.atoms:
            s = np.linalg.norm(points - a.center, axis=1) / a.radius
            acc += a.coefficient * bump_profile(s)
        return acc

    def gradient(self, points: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(points)
        for a in self.atoms:
            d = points - a.center
            s = np.linalg.norm(d, axis=1) / a.radius
            _, db, _ = _bump_dprofiles(s)
            with np.errstate(invalid="ignore", divide="ignore"):
                fac = np.where(s > 0, db / np.maximum(s, 1e-300), 0.0)
            acc += (a.coefficient / a.radius**2) * fac[:, None] * d
        return acc

    def laplacian(self, points: np.ndarray) -> np.ndarray:
        n = self.dimension
        acc = np.zeros(len(points))
        for a in self.atoms:
            s = np.linalg.norm(points - a.center, axis=1) / a.radius
            b, db, d2b = _bump_dprofiles(s)
            # b'(s)/s -> -2 b(0) as s -> 0 (smooth radial limit)
            ratio = np.where(s > 1e-8, db / np.maximum(s, 1e-300), -2.0 * b)
            acc += (a.coefficient / a.radius**2) * (d2b + (n - 1) * ratio)
        return acc

    def __add__(self, other: "ScalarTestFunction") -> "ScalarTestFunction":
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        return ScalarTestFunction(
            self.dimension,
            [(a.coefficient, a.center, a.radius) for a in self.atoms]
            + [(a.coefficient, a.center, a.radius) for a in other.atoms],
        )

    def __mul__(self, scalar: float) -> "ScalarTestFunction":
        return ScalarTestFunction(
            self.dimension,
            [(scalar * a.coefficient, a.center, a.radius) for a in self.atoms],
        )

    __rmul__ = __mul__


class VectorTestFunction:
    """Vector field with ScalarTestFunction components (None = zero)."""

    def __init__(self, components: Sequence[Optional[ScalarTestFunction]]):
        comps = list(components)
        dims = {c.dimension for c in comps if c is not None}
        if len(dims) != 1:
            raise ValueError("need at least one nonzero component, same dimension")
        self.dimension = dims.pop()
        if len(comps) != self.dimension:
            raise ValueError("need one component per coordinate")
        self.components = comps

    def support_ball(self) -> tuple[np.ndarray, float]:
        balls = [c.support_ball() for c in self.components if c is not None]
        c0 = balls[0][0]
        rad = max(float(np.linalg.norm(c - c0)) + r for c, r in balls)
        return c0, rad

    def value(self, points: np.ndarray) -> np.ndarray:
        out = np.zeros_like(points)
        for j, c in enumerate(self.components):
            if c is not None:
                out[:, j] = c.value(points)
        return out

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        """J[m, i, j] = d Phi^j / d x_i at point m."""
        m, n = len(points), self.dimension
        out = np.zeros((m, n, n))
        for j, c in enumerate(self.components):
            if c is not None:
                out[:, :, j] = c.gradient(points)
        return out

    def divergence(self, points: np.ndarray) -> np.ndarray:
        acc = np.zeros(len(points))
        for j, c in enumerate(self.components):
            if c is not None:
                acc += c.gradient(points)[:, j]
        return acc

    def __add__(self, other: "VectorTestFunction") -> "VectorTestFunction":
        comps = []
        for a, b in zip(self.components, other.components):
            if a is None:
                comps.append(b)
            elif b is None:
                comps.append(a)
            else:
                comps.append(a + b)
        return VectorTestFunction(comps)

    def __mul__(self, scalar: float) -> "VectorTestFunction":
        return VectorTestFunction(
            [None if c is None else scalar * c for c in self.components]
        )

    __rmul__ = __mul__


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


def _check_support(rule: QuadratureRule, support: tuple[np.ndarray, float]) -> None:
    c, rad = support
    inner, outer = rule.radii
    if rule.kind == "sphere":
        raise ValueError("need a volume rule, not a sphere rule")
    dist = float(np.linalg.norm(c - rule.center))
    if dist + rad > outer * (1 + 1e-12):
        raise ValueError(
            f"test-function support ball (|c|={dist:.3g}, r={rad:.3g}) exceeds "
            f"the integration region of radius {outer:.3g}"
        )
    if inner > 0 and dist - rad < inner:
        raise ValueError("test-function support overlaps the excluded inner ball")


def _energy_terms(u: ScalarField):
    """Integrand of (int |grad u|^2, int |u|^(2n/(n-2))) from one
    ``value_and_gradient`` pass per node."""
    n = u.dimension
    p = 2.0 * n / (n - 2)

    def terms(pts):
        v, g = u.value_and_gradient(pts)
        return np.einsum("mi,mi->m", g, g), np.abs(v) ** p

    return terms


def _shell_energies(u: ScalarField, x, regions, order: int) -> list[float]:
    """Unweighted energy int (|grad u|^2 + |u|^(2n/(n-2))) over each
    (inner, outer) region about ``x``, integrated as one piece batch."""
    terms = _energy_terms(u)
    pieces = shell_pieces_for(u, x, regions, order)
    return integrate_pieces(pieces, lambda pts: (np.add(*terms(pts)),))[:, 0].tolist()


def weak_residual(
    u: ScalarField,
    phi: ScalarTestFunction,
    rule: QuadratureRule,
    threads: int | None = None,
) -> float:
    """Weak-form defect: -int Lap(phi) u  -  int phi u|u|^(4/(n-2))."""
    _check_support(rule, phi.support_ball())
    n = u.dimension

    def f(pts):
        v = u.evaluate(pts)
        return -phi.laplacian(pts) * v - phi.value(pts) * critical_power(v, n)

    return integrate(rule, f, threads=threads)


def stationarity_residual(
    u: ScalarField,
    phi: VectorTestFunction,
    rule: QuadratureRule,
    threads: int | None = None,
) -> float:
    """Inner-variation defect against a compactly supported vector field.

    Integrates  du_i du_j dPhi^j_i - |grad u|^2 div(Phi)/2
                + (n-2)/(2n) |u|^(2n/(n-2)) div(Phi);
    vanishes for smooth solutions.
    """
    _check_support(rule, phi.support_ball())
    n = u.dimension
    p = 2.0 * n / (n - 2)

    def f(pts):
        v, g = u.value_and_gradient(pts)
        jac = phi.jacobian(pts)
        div = np.trace(jac, axis1=1, axis2=2)
        cross = np.einsum("mi,mj,mij->m", g, g, jac)
        gram = np.einsum("mi,mi->m", g, g)
        vals = np.abs(v) ** p
        return cross - 0.5 * gram * div + (n - 2) / (2.0 * n) * vals * div

    return integrate(rule, f, threads=threads)


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
    angular_order: int | None = None,
) -> PieceSet:
    """Ball and annulus pieces ``regions = [(inner, outer), ...]`` about
    ``x`` in the cheapest layout valid for ``u``, each with its own radial
    panels; piece ``i`` equals ``annulus_rule_for(u, x, *regions[i], order)``
    when ``angular_order`` is None."""
    x = _pts(x, u.dimension)[0][0]
    symmetry, axis = _layout(u, x)
    regions = np.asarray(regions, dtype=float).reshape(-1, 2)
    return build_shell_pieces(
        u.dimension, x, regions, order, symmetry, axis,
        angular_order=angular_order, polar_order=max(order, 48),
        radial_panels=[_shell_panels(u, x, a, b) for a, b in regions],
    )


def ball_rule_for(u: ScalarField, x, r: float, order: int = 32) -> QuadratureRule:
    """Ball rule about ``x`` using the cheapest layout valid for ``u``."""
    return shell_pieces_for(u, x, [(0.0, r)], order).rule(0)


def annulus_rule_for(
    u: ScalarField, x, inner: float, outer: float, order: int = 32
) -> QuadratureRule:
    """Annulus rule about ``x`` using the cheapest layout valid for ``u``."""
    return shell_pieces_for(u, x, [(inner, outer)], order).rule(0)


def bump_adapted_rule(
    u: ScalarField,
    phi: ScalarTestFunction | VectorTestFunction,
    order: int = 16,
) -> QuadratureRule:
    """Ball rule adapted to a compactly supported test function.

    Bump profiles are smooth but non-analytic at the support edge, where
    plain Gauss panels converge slowly; grading radial panels geometrically
    into the edge restores fast convergence.  The rule is centered on the
    support ball and zonal/radial layouts are used when ``u`` allows.
    """
    center, radius = phi.support_ball()
    edge_panels = [radius * (1.0 - 2.0 ** (-j)) for j in range(1, 13)] + [radius]
    # reduced layouts need the *integrand* axisymmetric: a single radial
    # bump combined with a field that is axisymmetric about its center
    single_bump = isinstance(phi, ScalarTestFunction) and len(phi.atoms) == 1
    symmetry, axis = _layout(u, center) if single_bump else ("full", None)
    return build_shell_pieces(
        u.dimension, center, [(0.0, radius * (1.0 + 1e-9))], order, symmetry, axis,
        polar_order=max(4 * order, 64), radial_panels=[edge_panels],
    ).rule(0)


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
    pass, one ``value_and_gradient`` per node."""
    if not (r > 0):
        raise ValueError("radius must be positive")
    n = u.dimension
    p = 2.0 * n / (n - 2)
    x = _pts(x, n)[0][0]
    ball = shell_pieces_for(u, x, [(0.0, r)], order)
    sphere = sphere_pieces_for(u, x, [r], order)

    def sphere_terms(pts):
        v, g = u.value_and_gradient(pts)
        nu = (pts - x) / r
        return (np.abs(v) ** p, np.einsum("mi,mi->m", g, g),
                np.einsum("mi,mi->m", g, nu) ** 2)

    vol_grad, vol_pot = integrate_pieces(ball, _energy_terms(u), threads)[0].tolist()
    sph_pot, sph_grad, sph_norm = integrate_pieces(sphere, sphere_terms, threads)[0].tolist()

    terms = {
        "volume_potential": (n - 2) / 2.0 * vol_pot,
        "volume_gradient": -(n - 2) / 2.0 * vol_grad,
        "boundary_potential": -(n - 2) / (2.0 * n) * r * sph_pot,
        "boundary_gradient": 0.5 * r * sph_grad,
        "boundary_normal": -r * sph_norm,
    }
    paper_terms = dict(terms)
    paper_terms["boundary_potential"] = -(n - 2) / (2.0 * n) * sph_pot
    return PohozaevReport(center=x, r=r, terms=terms, paper_terms=paper_terms)


def pohozaev_residual(u: ScalarField, x, r: float, order: int = 48) -> float:
    """Sum of the five derived terms; ~0 for exact smooth solutions."""
    return pohozaev_report(u, x, r, order).residual
