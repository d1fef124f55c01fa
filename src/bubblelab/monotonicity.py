"""The radius-indexed local energy E_u(x, r) and its control properties.

For stationary solutions the quantity

    E(x, r) = 1/2 int_{B(x,r)} |grad u|^2
              - (n-2)/(2n) int_{B(x,r)} |u|^(2n/(n-2))
              + (n-2)/(4r) int_{dB(x,r)} u^2

is positive, nondecreasing and continuous in r; its r-derivative is the
boundary integral of (du/dr + (n-2)/(2r) u)^2.  Three equivalent-for-
solutions formulations are implemented:

  * "B": the closed form above (canonical; no r-derivatives needed);
  * "A": (1/n) int_B |u|^p + (1/4) d/dr int_dB u^2 - (1/4r) int_dB u^2;
  * "C": 1/(2(n-1)) int_B (|grad u|^2 + (n-2)/n |u|^p)
         + (n-2)/(4(n-1)) d/dr int_dB u^2.

A and C take d/dr int_dB u^2 from the exact identity
(n-1)/r int_dB u^2 + 2 int_dB u du/dr on the same sphere, so on exact
solutions the three agree to quadrature precision.  The source displays
for these formulations are mutually inconsistent as printed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._csv import write_csv
from .grid import RadialGrid
from .fields import (
    ScalarField,
    _energy_density,
    _integrate_density,
    _pts,
    shell_pieces_for,
    sphere_pieces_for,
)

__all__ = [
    "MonotonicityProfile",
    "MonotoneReport",
    "energy_E",
    "profile",
    "check_monotone",
    "check_positive",
    "write_profile_csv",
]


def _sphere_terms(
    u: ScalarField, x, rr: np.ndarray, order: int, threads: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """(S, D) = (int_dB u^2, d/dr int_dB u^2) at each radius of ``rr``, one
    sphere per radius in one piece batch.  D is the exact identity
    (n-1)/r S + 2 int u du/dr, with r du/dr = grad u . (y - x)."""
    n = u.dimension

    def terms(v, g, y):
        w = np.einsum("mi,mi->m", g, y)
        w *= v
        return v**2, w

    spheres = sphere_pieces_for(u, x, rr, order)
    S, W = _integrate_density(u, spheres, terms, threads, offsets=True).T
    return S, (n - 1) / rr * S + 2.0 * W / rr


def _sweep(u: ScalarField, x, rr: np.ndarray, order: int, threads: int | None):
    """(G, X, S, D) at each radius of ``rr``: the ball integrals
    G = int_B |grad u|^2 and X = int_B |u|^p accumulated over consecutive
    shells (a ball up to the first radius, then annuli between neighbours,
    one piece batch), and ``_sphere_terms``."""
    x = _pts(x, u.dimension)[0][0]
    shells = shell_pieces_for(u, x, np.stack([np.r_[0.0, rr[:-1]], rr], axis=1), order)
    G, X = np.cumsum(_integrate_density(u, shells, _energy_density(u.dimension), threads),
                     axis=0).T
    return (G, X, *_sphere_terms(u, x, rr, order, threads))


def _formulations(n: int, r, G, X, S, D) -> dict:
    """The three displays of E(x, r) from the ball integrals G, X and the
    sphere terms S, D; scalars or arrays over radii."""
    return {
        "A": X / n + 0.25 * D - 0.25 * S / r,
        "B": 0.5 * G - (n - 2) / (2.0 * n) * X + (n - 2) / (4.0 * r) * S,
        "C": (G + (n - 2) / n * X) / (2.0 * (n - 1)) + (n - 2) / (4.0 * (n - 1)) * D,
    }


def energy_E(
    u: ScalarField,
    x,
    r: float,
    formulation: str = "B",
    order: int = 32,
    threads: int | None = None,
) -> float:
    """Local monotone energy at center x and radius r: the one-radius case
    of ``profile``'s sweep.

    Formulation "B" is canonical.  "A" and "C" take the boundary derivative
    from the exact identity on the sphere of radius r; on exact solutions
    all three agree.
    """
    if not (r > 0):
        raise ValueError(f"radius must be positive, got {r}")
    if formulation not in ("A", "B", "C"):
        raise ValueError(f"unknown formulation {formulation!r}; use A, B or C")
    terms = (float(v[0]) for v in _sweep(u, x, np.array([r], dtype=float), order, threads))
    return _formulations(u.dimension, r, *terms)[formulation]


@dataclass(frozen=True)
class MonotonicityProfile:
    """Sampled r -> E(x, r) with the component triple per radius.

    components[i] = (int_B |u|^p,  d/dr int_dB u^2,  (1/r) int_dB u^2)
    at radius radii[i]; ``values`` are the canonical B-formulation.
    """

    center: np.ndarray
    radii: np.ndarray
    values: np.ndarray
    components: np.ndarray  # (m, 3)

    def __post_init__(self):
        if np.any(np.diff(self.radii) <= 0):
            raise ValueError("profile radii must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("profile contains non-finite energies")


def profile(
    u: ScalarField,
    x,
    radii,
    order: int = 32,
    threads: int | None = None,
) -> MonotonicityProfile:
    """Radius sweep of E(x, .) in the B formulation.

    The ball integrals accumulate over consecutive shells, so each node of
    the sweep's volume is integrated once; the shells are one piece batch
    with one field pass per node.  A second batch holds one sphere per
    radius, which gives int_dB u^2 and, from the exact identity, the d/dr
    column of ``components``."""
    if isinstance(radii, RadialGrid):
        rr = radii.radii
    else:
        rr = np.asarray(radii, dtype=float)
        RadialGrid(rr)  # validates ordering/positivity
    x = _pts(x, u.dimension)[0][0]
    G, X, S, D = _sweep(u, x, rr, order, threads)
    values = _formulations(u.dimension, rr, G, X, S, D)["B"]
    comps = np.stack([X, D, S / rr], axis=1)
    # a copy: the profile keeps its center when the caller's array changes
    return MonotonicityProfile(center=x.copy(), radii=rr.copy(), values=values,
                               components=comps)


@dataclass(frozen=True)
class MonotoneReport:
    passed: bool
    slack: float
    violations: list = field(default_factory=list)  # (r_lo, r_hi, drop) triples


def check_monotone(prof: MonotonicityProfile, slack: float | None = None) -> MonotoneReport:
    """List consecutive radii where E decreases by more than ``slack``."""
    if slack is None:
        slack = 1e-6 * float(np.max(np.abs(prof.values))) if prof.values.size else 0.0
    viol = []
    for i in range(len(prof.radii) - 1):
        drop = prof.values[i] - prof.values[i + 1]
        if drop > slack:
            viol.append((float(prof.radii[i]), float(prof.radii[i + 1]), float(drop)))
    return MonotoneReport(passed=not viol, slack=slack, violations=viol)


def check_positive(prof: MonotonicityProfile, slack: float | None = None) -> MonotoneReport:
    """Flag radii where E dips below -slack."""
    if slack is None:
        slack = 1e-6 * float(np.max(np.abs(prof.values))) if prof.values.size else 0.0
    viol = [
        (float(r), float(r), float(-v))
        for r, v in zip(prof.radii, prof.values)
        if v < -slack
    ]
    return MonotoneReport(passed=not viol, slack=slack, violations=viol)


def write_profile_csv(path, prof: MonotonicityProfile) -> None:
    """Columns: r, E, term_volume, term_boundary_derivative, term_boundary_over_r."""
    write_csv(
        path,
        ["r", "E", "term_volume", "term_boundary_derivative", "term_boundary_over_r"],
        [prof.radii, prof.values, *prof.components.T],
    )
