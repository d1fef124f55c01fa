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

A and C carry a centered-difference error in the d/dr term.  The source
displays for these formulations are mutually inconsistent as printed; see
``formulation_diagnostics`` which evaluates every literal variant and
reports which pairs actually agree on a given field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import QuadratureRule, RadialGrid, integrate, integrate_pieces
from .fields import (
    ScalarField,
    _pts,
    ball_rule_for,
    shell_pieces_for,
    sphere_pieces_for,
)

__all__ = [
    "MonotonicityProfile",
    "MonotoneReport",
    "RegularityReport",
    "DegenerateEnergyError",
    "energy_E",
    "profile",
    "check_monotone",
    "check_positive",
    "energy_bound_check",
    "eps_regularity_check",
    "formulation_diagnostics",
    "write_profile_csv",
]

DERIVATIVE_STEP_REL = 1e-3


class DegenerateEnergyError(ValueError):
    """E_u(x, r) is non-positive where a positive value is required."""


def _energy_terms(u: ScalarField):
    """Integrand of (int |grad u|^2, int |u|^p) from one field pass per node."""
    n = u.dimension
    p = 2.0 * n / (n - 2)

    def terms(pts):
        v, g = u.value_and_gradient(pts)
        return np.einsum("mi,mi->m", g, g), np.abs(v) ** p

    return terms


def _sphere_integrals(u: ScalarField, x, radii, order: int, threads: int) -> np.ndarray:
    """int_dB u^2 over the sphere of each radius about x, as one piece batch."""
    spheres = sphere_pieces_for(u, x, radii, order)
    return integrate_pieces(spheres, lambda pts: (u.evaluate(pts) ** 2,), threads)[:, 0]


def _boundary_terms(
    u: ScalarField, x, rr: np.ndarray, order: int, threads: int
) -> tuple[np.ndarray, np.ndarray]:
    """(int_dB u^2, d/dr int_dB u^2) at each radius of ``rr``; the
    derivative is a centered difference with relative step
    DERIVATIVE_STEP_REL, and the spheres at r, r + rho and r - rho of every
    radius form one piece batch."""
    rho = DERIVATIVE_STEP_REL * rr
    radii = np.stack([rr, rr + rho, rr - rho], axis=1)
    usq = _sphere_integrals(u, x, radii, order, threads).reshape(-1, 3)
    return usq[:, 0], (usq[:, 1] - usq[:, 2]) / (2.0 * rho)


def energy_E(
    u: ScalarField,
    x,
    r: float,
    formulation: str = "B",
    order: int = 32,
    threads: int = 1,
) -> float:
    """Local monotone energy at center x and radius r.

    Formulation "B" is canonical.  "A" and "C" evaluate the alternative
    displays with a centered difference (relative step 1e-3) for the
    boundary-derivative term; on exact solutions all three agree.
    """
    if not (r > 0):
        raise ValueError(f"radius must be positive, got {r}")
    if formulation not in ("A", "B", "C"):
        raise ValueError(f"unknown formulation {formulation!r}; use A, B or C")
    n = u.dimension
    ball = shell_pieces_for(u, x, [(0.0, r)], order)
    G, X = integrate_pieces(ball, _energy_terms(u), threads)[0].tolist()
    if formulation == "B":
        S = float(_sphere_integrals(u, x, [r], order, threads)[0])
        return 0.5 * G - (n - 2) / (2.0 * n) * X + (n - 2) / (4.0 * r) * S
    S, D = (float(v[0]) for v in _boundary_terms(u, x, np.array([r]), order, threads))
    if formulation == "A":
        return X / n + 0.25 * D - 0.25 * S / r
    return (G + (n - 2) / n * X) / (2.0 * (n - 1)) + (n - 2) / (4.0 * (n - 1)) * D


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
    formulation: str = "B"

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
    threads: int = 1,
) -> MonotonicityProfile:
    """Radius sweep of E(x, .) in the B formulation.

    The ball integrals accumulate over consecutive shells (a ball up to the
    first radius, then annuli between neighbours), so each node of the
    sweep's volume is integrated once; the shells are one piece batch with
    one field pass per node.  The sphere integral at each radius and its
    centered difference, which fills the d/dr column of ``components``, come
    from a second batch of three spheres per radius."""
    if isinstance(radii, RadialGrid):
        rr = radii.radii
    else:
        rr = np.asarray(radii, dtype=float)
        RadialGrid(rr)  # validates ordering/positivity
    n = u.dimension
    x = _pts(x, n)[0][0]
    shells = shell_pieces_for(u, x, np.stack([np.r_[0.0, rr[:-1]], rr], axis=1), order)
    terms = integrate_pieces(shells, _energy_terms(u), threads).tolist()
    S, D = _boundary_terms(u, x, rr, order, threads)

    G = X = 0.0
    values = np.empty(len(rr))
    comps = np.empty((len(rr), 3))
    for i, (r, (g, v)) in enumerate(zip(rr, terms)):
        G += g
        X += v
        values[i] = 0.5 * G - (n - 2) / (2.0 * n) * X + (n - 2) / (4.0 * r) * S[i]
        comps[i] = (X, D[i], S[i] / r)
    return MonotonicityProfile(center=x, radii=rr.copy(), values=values, components=comps)


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


def energy_bound_check(
    u: ScalarField,
    x,
    r: float,
    r0: float,
    order: int = 32,
    atol: float = 1e-14,
) -> float:
    """Ratio  int_B(|grad u|^2 + |u|^p) / E(x, r)  for r < r0/2.

    For exact solutions the ratio stays bounded by a dimension-only
    constant across a radius sweep.  Zero fields return 0 by convention;
    a genuinely non-positive E with non-trivial energy is degenerate.
    """
    if not (0 < r < r0 / 2):
        raise ValueError("need 0 < r < r0/2")
    n = u.dimension
    p = 2.0 * n / (n - 2)
    ball = ball_rule_for(u, x, r, order)

    def dens(pts):
        g = u.gradient(pts)
        return np.einsum("mi,mi->m", g, g) + np.abs(u.evaluate(pts)) ** p

    lhs = integrate(ball, dens)
    e = energy_E(u, x, r, "B", order)
    if abs(e) <= atol:
        if lhs <= atol:
            return 0.0
        raise DegenerateEnergyError(f"E(x,{r}) = {e:.3g} with energy {lhs:.3g}")
    if e < 0:
        raise DegenerateEnergyError(f"E(x,{r}) = {e:.3g} < 0")
    return lhs / e


@dataclass(frozen=True)
class RegularityReport:
    """Small-energy sup bound probe on a ball.

    When the ball energy is at most ``epsilon``, ``c_meas`` is the measured
    sup of |u| on the half ball times r^((n-2)/2) (the scale-correct
    constant); otherwise the hypothesis fails and no bound is asserted.
    """

    center: np.ndarray
    r0: float
    r: float
    epsilon: float
    energy: float
    applicable: bool
    sup_u: float
    c_meas: float


def eps_regularity_check(
    u: ScalarField,
    x0,
    r0: float,
    r: float,
    epsilon: float,
    order: int = 32,
    sample_order: int = 12,
) -> RegularityReport:
    """Check the hypothesis int_{B(x0,r0)}(|grad u|^2 + |u|^p) <= epsilon and,
    when it holds, measure sup |u| over a dense sample of B(x0, r/2)."""
    if not (0 < r < r0):
        raise ValueError("need 0 < r < r0")
    n = u.dimension
    p = 2.0 * n / (n - 2)
    x0 = _pts(x0, n)[0][0]
    ball = ball_rule_for(u, x0, r0, order)

    def dens(pts):
        g = u.gradient(pts)
        return np.einsum("mi,mi->m", g, g) + np.abs(u.evaluate(pts)) ** p

    energy = integrate(ball, dens)
    if energy > epsilon:
        return RegularityReport(
            center=x0, r0=r0, r=r, epsilon=epsilon, energy=energy,
            applicable=False, sup_u=float("nan"), c_meas=float("nan"),
        )
    # dense sample: quadrature nodes of a full rule on the half ball + center
    sample = np.vstack(
        [ball_rule_for(u, x0, r / 2, sample_order, angular_order=sample_order).nodes,
         x0[None, :]]
    )
    sup_u = float(np.max(np.abs(u.evaluate(sample))))
    return RegularityReport(
        center=x0, r0=r0, r=r, epsilon=epsilon, energy=energy,
        applicable=True, sup_u=sup_u, c_meas=sup_u * r ** ((n - 2) / 2),
    )


def formulation_diagnostics(
    u: ScalarField, x, r: float, order: int = 32
) -> dict[str, float]:
    """Evaluate every literal display of the local energy and their deltas.

    Returned keys:
      A, B, C            -- the three consistent formulations;
      intro_literal      -- int_B |u|^p + d/dr int_dB u^2 + (1/r) int_dB u^2,
                            the 1/n-free three-term display;
      derivation_literal -- (1/n)(int_B |u|^p + d/dr int_dB u^2 - (1/r) int_dB u^2),
                            the combined form the derivation chain produces;
      printed_literal    -- same but with the sign of the last term flipped
                            and the u^2 integrals taken over the ball, the
                            way the display is actually typeset;
      halved_closed_form -- closed form with the 1/2 applied to both volume
                            terms (the other parenthesis reading);
      dev_<key>_vs_B     -- absolute deviations from B.
    """
    n = u.dimension
    p = 2.0 * n / (n - 2)

    def ball_terms(pts):
        v, g = u.value_and_gradient(pts)
        return np.einsum("mi,mi->m", g, g), np.abs(v) ** p, v ** 2

    ball = shell_pieces_for(u, x, [(0.0, r)], order)
    G, X, usq_ball = integrate_pieces(ball, ball_terms)[0].tolist()
    S, D = (float(v[0]) for v in _boundary_terms(u, x, np.array([r]), order, 1))
    out = {
        "A": X / n + 0.25 * D - 0.25 * S / r,
        "B": 0.5 * G - (n - 2) / (2.0 * n) * X + (n - 2) / (4.0 * r) * S,
        "C": (G + (n - 2) / n * X) / (2.0 * (n - 1)) + (n - 2) / (4.0 * (n - 1)) * D,
        "intro_literal": X + D + S / r,
        "derivation_literal": (X + D - S / r) / n,
        "printed_literal": (X + S + usq_ball / r) / n,
        "halved_closed_form": 0.5 * (G - (n - 2) / (2.0 * n) * X)
        + (n - 2) / (4.0 * r) * S,
    }
    for key in (
        "A", "C", "intro_literal", "derivation_literal",
        "printed_literal", "halved_closed_form",
    ):
        out[f"dev_{key}_vs_B"] = abs(out[key] - out["B"])
    return out


def write_profile_csv(path, prof: MonotonicityProfile) -> None:
    """Columns: r, E, term_volume, term_boundary_derivative, term_boundary_over_r."""
    with open(path, "w", newline="") as fh:
        fh.write("r,E,term_volume,term_boundary_derivative,term_boundary_over_r\r\n")
        for r, e, (x, d, pr) in zip(prof.radii, prof.values, prof.components):
            fh.write(
                ",".join(format(v, ".17g") for v in (r, e, x, d, pr)) + "\r\n"
            )
