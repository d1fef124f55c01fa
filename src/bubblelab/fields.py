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
    build_ball_rule,
    build_radial_ball_rule,
    build_shell_pieces,
    build_sphere_pieces,
    build_zonal_ball_rule,
    geometric_panels,
    integrate,
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
    "SampledField",
    "ScalarTestFunction",
    "VectorTestFunction",
    "bump_profile",
    "aubin_talenti",
    "superpose",
    "unit_sphere_directions_for_fit",
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
    "read_field_csv",
    "write_field_csv",
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


class ScalarField:
    """Base class: a function R^n -> R with optional analytic derivatives."""

    dimension: int
    kind: str = "custom"

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
        work between the two compute them in one pass, bit for bit equal."""
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

    # --- symmetry hints used to pick reduced quadrature layouts -------

    @property
    def radial_center(self) -> Optional[np.ndarray]:
        """Center the field is radially symmetric about, if any."""
        return None

    @property
    def finest_scale(self) -> Optional[float]:
        """Smallest feature scale, used to panel radial quadratures."""
        return None

    def symmetry_axis(self, through: np.ndarray) -> Optional[np.ndarray]:
        """Axis direction if the field is axisymmetric about a line through
        ``through``; None when no such axis is known."""
        c = self.radial_center
        if c is None:
            return None
        d = c - np.asarray(through, dtype=float)
        norm = float(np.linalg.norm(d))
        if norm < 1e-14:
            return np.zeros(self.dimension)  # fully radial about ``through``
        return d / norm

    def local_scale(self, x: np.ndarray) -> Optional[float]:
        """Finest feature scale the field concentrates at the point ``x``,
        None when no sharp feature sits there; drives radial paneling."""
        c = self.radial_center
        if c is None or self.finest_scale is None:
            return None
        if float(np.linalg.norm(c - np.asarray(x, dtype=float))) <= 1e-12:
            return self.finest_scale
        return None

    def ball_sup(
        self, xs: np.ndarray, r: float
    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Upper bounds ``(sup|u|, sup|grad u|)`` over the closed balls
        B(x, r), one entry per row ``x`` of ``xs`` (shape (m, n)), or None
        when the field knows no bound.

        The balls are taken ``node_slack(r)`` wider, so the bounds also
        hold at every node of a valid rule on B(x, r).  A subclass that
        changes how the field or its gradient is evaluated gets None unless
        it overrides this too."""
        return None


def _evaluation_overridden(u: ScalarField, owner: type) -> bool:
    """True when ``type(u)`` evaluates the field or its gradient other than
    ``owner`` does, so ``owner``'s closed-form bounds do not apply."""
    return any(
        getattr(type(u), name) is not getattr(owner, name)
        for name in ("evaluate", "gradient", "analytic_gradient")
    )


def _bubble_amplitude(n: int) -> float:
    return (n * (n - 2)) ** ((n - 2) / 4)


@dataclass(frozen=True)
class Bubble(ScalarField):
    """Translate/dilate of the standard entire solution, with a sign."""

    dimension: int
    center: np.ndarray
    scale: float
    sign: float = 1.0
    kind: str = "bubble"

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

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        n = self.dimension
        _, g = self._z(points)
        amp = self.sign * _bubble_amplitude(n) * self.scale ** (-(n - 2) / 2)
        return amp * g ** (-(n - 2) / 2)

    def analytic_gradient(self, points: np.ndarray) -> np.ndarray:
        n = self.dimension
        z, g = self._z(points)
        amp = -self.sign * (n - 2) * _bubble_amplitude(n) * self.scale ** (-n / 2)
        return amp * z * (g ** (-n / 2))[:, None]

    def value_and_gradient(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One pass: ``z`` and ``1 + |z|^2`` are computed once per node."""
        if _evaluation_overridden(self, Bubble):
            return super().value_and_gradient(points)
        n = self.dimension
        z, g = self._z(points)
        amp = self.sign * _bubble_amplitude(n) * self.scale ** (-(n - 2) / 2)
        grad_amp = -self.sign * (n - 2) * _bubble_amplitude(n) * self.scale ** (-n / 2)
        return amp * g ** (-(n - 2) / 2), grad_amp * z * (g ** (-n / 2))[:, None]

    def analytic_laplacian(self, points: np.ndarray) -> np.ndarray:
        n = self.dimension
        _, g = self._z(points)
        amp = (
            -self.sign
            * n
            * (n - 2)
            * _bubble_amplitude(n)
            * self.scale ** (-(n + 2) / 2)
        )
        return amp * g ** (-(n + 2) / 2)

    @property
    def radial_center(self) -> Optional[np.ndarray]:
        return self.center

    @property
    def finest_scale(self) -> Optional[float]:
        return self.scale

    def ball_sup(self, xs, r):
        """Closed form: with t = |y - center|/scale, |U| decreases in t and
        |grad U| goes as t (1+t^2)^(-n/2), which decreases for t >= t* =
        1/sqrt(n-1); both are taken at the ball's nearest t (clamped to t*
        for the gradient)."""
        if _evaluation_overridden(self, Bubble):
            return None
        n = self.dimension
        gap = np.linalg.norm(xs - self.center, axis=1) - (r + node_slack(r))
        t = np.maximum(gap, 0.0) / self.scale
        tg = np.maximum(t, 1.0 / math.sqrt(n - 1))
        amp = _bubble_amplitude(n) * self.scale ** (-(n - 2) / 2)
        grad_amp = (n - 2) * _bubble_amplitude(n) * self.scale ** (-n / 2)
        return (amp * (1.0 + t**2) ** (-(n - 2) / 2),
                grad_amp * tg * (1.0 + tg**2) ** (-n / 2))


class Superposition(ScalarField):
    """Pointwise weighted sum of fields sharing one dimension."""

    kind = "superposition"

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
        if _evaluation_overridden(self, Superposition) or not self.has_analytic_gradient:
            return super().value_and_gradient(points)
        val, grad = np.zeros(len(points)), np.zeros_like(points)
        for w, p in zip(self.weights, self.parts):
            v, g = p.value_and_gradient(points)
            val += w * v
            grad += w * g
        return val, grad

    @cached_property
    def radial_center(self) -> Optional[np.ndarray]:
        # computed once: nothing reassigns or mutates ``parts`` after __init__
        centers = [p.radial_center for p in self.parts]
        if any(c is None for c in centers):
            return None
        first = centers[0]
        if all(np.allclose(c, first, atol=1e-14) for c in centers[1:]):
            return first
        return None

    @property
    def finest_scale(self) -> Optional[float]:
        scales = [p.finest_scale for p in self.parts if p.finest_scale is not None]
        return min(scales) if scales else None

    def local_scale(self, x: np.ndarray) -> Optional[float]:
        scales = [s for p in self.parts if (s := p.local_scale(x)) is not None]
        return min(scales) if scales else None

    def ball_sup(self, xs, r):
        """Sum of the parts' bounds times ``|weight|``; None when a part
        has none."""
        if _evaluation_overridden(self, Superposition):
            return None
        sup_u, sup_g = np.zeros(len(xs)), np.zeros(len(xs))
        for w, p in zip(self.weights, self.parts):
            part = p.ball_sup(xs, r)
            if part is None:
                return None
            sup_u += abs(w) * part[0]
            sup_g += abs(w) * part[1]
        return sup_u, sup_g

    def symmetry_axis(self, through: np.ndarray) -> Optional[np.ndarray]:
        common = self.radial_center
        if common is not None:
            d = common - np.asarray(through, dtype=float)
            norm = float(np.linalg.norm(d))
            return np.zeros(self.dimension) if norm < 1e-14 else d / norm
        centers = [p.radial_center for p in self.parts]
        if any(c is None for c in centers):
            return None
        # axisymmetric iff all centers and the probe point are collinear
        pts = np.stack(centers + [np.asarray(through, dtype=float)])
        rel = pts[1:] - pts[0]
        norms = np.linalg.norm(rel, axis=1)
        keep = rel[norms > 1e-13]
        if keep.shape[0] == 0:
            return np.zeros(self.dimension)
        axis = keep[0] / np.linalg.norm(keep[0])
        residue = keep - np.outer(keep @ axis, axis)
        if np.max(np.linalg.norm(residue, axis=1)) > 1e-10:
            return None
        return axis


class BubbleConfiguration(Superposition):
    """Weighted sum of bubbles: the synthetic-solution generator."""

    kind = "superposition"

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

    kind = "custom"

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
    def radial_center(self) -> Optional[np.ndarray]:
        c = self.base.radial_center
        return None if c is None else (c - self.y) / self.delta

    @property
    def finest_scale(self) -> Optional[float]:
        s = self.base.finest_scale
        return None if s is None else s / self.delta

    def local_scale(self, x: np.ndarray) -> Optional[float]:
        s = self.base.local_scale(self._map(np.asarray(x, dtype=float)[None, :])[0])
        return None if s is None else s / self.delta

    def symmetry_axis(self, through: np.ndarray) -> Optional[np.ndarray]:
        # the affine map preserves directions, so the base field's axis at
        # the mapped point is this field's axis
        return self.base.symmetry_axis(self._map(np.asarray(through)[None, :])[0])


class ConstantField(ScalarField):
    kind = "custom"

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
    def radial_center(self) -> Optional[np.ndarray]:
        return np.zeros(self.dimension)


class CustomField(ScalarField):
    """Wrap plain callables as a field."""

    def __init__(
        self,
        dimension: int,
        func: Callable[[np.ndarray], np.ndarray],
        grad: Callable[[np.ndarray], np.ndarray] | None = None,
        lap: Callable[[np.ndarray], np.ndarray] | None = None,
        kind: str = "custom",
    ):
        self.dimension = dimension
        self._func = func
        self._grad = grad
        self._lap = lap
        self.kind = kind

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


class SampledField(ScalarField):
    """Nearest-neighbor interpolant of scattered samples (x, u(x))."""

    kind = "sampled"

    def __init__(self, points: np.ndarray, values: np.ndarray):
        points = np.asarray(points, dtype=float)
        values = np.asarray(values, dtype=float)
        if points.ndim != 2 or len(points) != len(values):
            raise ValueError("need matching (m, n) points and (m,) values")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample values must be finite")
        self.dimension = points.shape[1]
        self.points = points
        self.values = values
        from scipy.spatial import cKDTree

        self._tree = cKDTree(points)

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        _, idx = self._tree.query(pts)
        return self.values[idx]


def unit_sphere_directions_for_fit(n: int) -> np.ndarray:
    """Small deterministic unit-direction set for profile fitting."""
    from .grid import unit_sphere_directions

    dirs, _ = unit_sphere_directions(n, 2)
    return dirs


def aubin_talenti(n: int, delta: float = 1.0, y=0) -> Bubble:
    """The closed-form positive entire solution, rescaled and translated."""
    if n < 3:
        raise ValueError("need n >= 3")
    if not (delta > 0):
        raise ValueError(f"scale must be positive, got {delta}")
    center = np.zeros(n) if (np.isscalar(y) and y == 0) else np.asarray(y, dtype=float)
    return Bubble(dimension=n, center=center, scale=float(delta))


def superpose(fields: Sequence[ScalarField], weights=None) -> Superposition:
    return Superposition(fields, weights)


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


def weak_residual(
    u: ScalarField,
    phi: ScalarTestFunction,
    rule: QuadratureRule,
    threads: int = 1,
) -> float:
    """Weak-form defect: -int Lap(phi) u  -  int phi u|u|^(4/(n-2))."""
    _check_support(rule, phi.support_ball())
    n = u.dimension

    def f(pts):
        return -phi.laplacian(pts) * u.evaluate(pts) - phi.value(
            pts
        ) * critical_power(u.evaluate(pts), n)

    return integrate(rule, f, threads=threads)


def stationarity_residual(
    u: ScalarField,
    phi: VectorTestFunction,
    rule: QuadratureRule,
    threads: int = 1,
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
        g = u.gradient(pts)
        jac = phi.jacobian(pts)
        div = np.trace(jac, axis1=1, axis2=2)
        cross = np.einsum("mi,mj,mij->m", g, g, jac)
        gram = np.einsum("mi,mi->m", g, g)
        vals = np.abs(u.evaluate(pts)) ** p
        return cross - 0.5 * gram * div + (n - 2) / (2.0 * n) * vals * div

    return integrate(rule, f, threads=threads)


# ---------------------------------------------------------------------------
# quadrature-rule selection exploiting field symmetry
# ---------------------------------------------------------------------------


def _layout(u: ScalarField, x: np.ndarray) -> tuple[str, np.ndarray | None]:
    """The cheapest node layout valid for ``u`` about ``x``: "full",
    "radial", or "zonal" about the returned axis."""
    axis = u.symmetry_axis(x)
    if axis is None:
        return "full", None
    if np.all(axis == 0):
        return "radial", None
    return "zonal", axis


def _shell_panels(u: ScalarField, x: np.ndarray, inner: float, outer: float):
    """Radial panel breaks of one shell: a ball refines toward a feature
    the field concentrates at ``x``; a wide annulus (outer/inner > 8) is
    cut at doubling radii."""
    if inner == 0:
        scale = u.local_scale(x)
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
    polar_order: int | None = None,
) -> PieceSet:
    """Ball and annulus pieces ``regions = [(inner, outer), ...]`` about
    ``x`` in the cheapest layout valid for ``u``, each with its own radial
    panels; piece ``i`` equals ``annulus_rule_for(u, x, *regions[i], ...)``."""
    x = _pts(x, u.dimension)[0][0]
    symmetry, axis = _layout(u, x)
    regions = np.asarray(regions, dtype=float).reshape(-1, 2)
    return build_shell_pieces(
        u.dimension, x, regions, order, symmetry, axis,
        angular_order=angular_order, polar_order=polar_order or max(order, 48),
        radial_panels=[_shell_panels(u, x, a, b) for a, b in regions],
    )


def ball_rule_for(
    u: ScalarField,
    x,
    r: float,
    order: int = 32,
    angular_order: int | None = None,
    polar_order: int | None = None,
) -> QuadratureRule:
    """Ball rule about ``x`` using the cheapest layout valid for ``u``."""
    return shell_pieces_for(u, x, [(0.0, r)], order, angular_order, polar_order).rule(0)


def annulus_rule_for(
    u: ScalarField,
    x,
    inner: float,
    outer: float,
    order: int = 32,
    angular_order: int | None = None,
    polar_order: int | None = None,
) -> QuadratureRule:
    """Annulus rule about ``x`` using the cheapest layout valid for ``u``."""
    return shell_pieces_for(
        u, x, [(inner, outer)], order, angular_order, polar_order
    ).rule(0)


def bump_adapted_rule(
    u: ScalarField,
    phi: ScalarTestFunction | VectorTestFunction,
    order: int = 16,
    margin: float = 1.0 + 1e-9,
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
    axis = u.symmetry_axis(center) if single_bump else None
    if axis is None:
        return build_ball_rule(
            u.dimension, center, radius * margin, order, radial_panels=edge_panels
        )
    if np.all(axis == 0):
        return build_radial_ball_rule(
            u.dimension, center, radius * margin, order, radial_panels=edge_panels
        )
    return build_zonal_ball_rule(
        u.dimension, center, radius * margin, axis, order,
        polar_order=max(4 * order, 64), radial_panels=edge_panels,
    )


def sphere_pieces_for(
    u: ScalarField,
    x,
    radii,
    order: int = 32,
    polar_order: int | None = None,
) -> PieceSet:
    """Sphere pieces of the given radii about ``x`` in the cheapest layout
    valid for ``u``; piece ``i`` equals ``sphere_rule_for(u, x, radii[i], ...)``."""
    x = _pts(x, u.dimension)[0][0]
    symmetry, axis = _layout(u, x)
    n = u.dimension
    if symmetry == "full":
        return build_sphere_pieces(n, x, radii, order)
    if symmetry == "radial":
        # field constant on each sphere: a few polar nodes still integrate it
        return build_sphere_pieces(n, x, radii, 4, "zonal", np.eye(n)[0])
    return build_sphere_pieces(n, x, radii, polar_order or max(order, 64), "zonal", axis)


def sphere_rule_for(
    u: ScalarField,
    x,
    r: float,
    order: int = 32,
    polar_order: int | None = None,
) -> QuadratureRule:
    return sphere_pieces_for(u, x, [r], order, polar_order).rule(0)


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
    threads: int = 1,
) -> PohozaevReport:
    """Evaluate the five-term centered Pohozaev balance about ``x``."""
    if not (r > 0):
        raise ValueError("radius must be positive")
    n = u.dimension
    p = 2.0 * n / (n - 2)
    x = _pts(x, n)[0][0]
    ball = ball_rule_for(u, x, r, order)
    sphere = sphere_rule_for(u, x, r, order)

    def upow(pts):
        return np.abs(u.evaluate(pts)) ** p

    def gradsq(pts):
        g = u.gradient(pts)
        return np.einsum("mi,mi->m", g, g)

    def normsq(pts):
        g = u.gradient(pts)
        nu = (pts - x) / r
        return np.einsum("mi,mi->m", g, nu) ** 2

    vol_pot = integrate(ball, upow, threads=threads)
    vol_grad = integrate(ball, gradsq, threads=threads)
    sph_pot = integrate(sphere, upow, threads=threads)
    sph_grad = integrate(sphere, gradsq, threads=threads)
    sph_norm = integrate(sphere, normsq, threads=threads)

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


# ---------------------------------------------------------------------------
# sampled-field CSV / binary io
# ---------------------------------------------------------------------------


def write_field_csv(path, points: np.ndarray, values: np.ndarray, binary: bool = False) -> None:
    """Write (x_1..x_n, u) rows; header mandatory.  ``binary`` switches to a
    little-endian float64 payload after a one-line ASCII header."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    n = points.shape[1]
    header = ",".join([f"x{i + 1}" for i in range(n)] + ["u"])
    data = np.column_stack([points, values])
    if binary:
        with open(path, "wb") as fh:
            fh.write(f"#bubblelab-field n={n} rows={len(values)}\n".encode())
            fh.write(data.astype("<f8").tobytes())
        return
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for row in data:
            fh.write(",".join(format(v, ".17g") for v in row) + "\r\n")


def read_field_csv(path, binary: bool = False) -> SampledField:
    if binary:
        with open(path, "rb") as fh:
            header = fh.readline().decode()
            meta = dict(tok.split("=") for tok in header.split() if "=" in tok)
            n, rows = int(meta["n"]), int(meta["rows"])
            data = np.frombuffer(fh.read(), dtype="<f8").reshape(rows, n + 1)
        return SampledField(data[:, :-1], data[:, -1])
    raw = np.genfromtxt(path, delimiter=",", skip_header=1)
    raw = np.atleast_2d(raw)
    return SampledField(raw[:, :-1], raw[:, -1])
