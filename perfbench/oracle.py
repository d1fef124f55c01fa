"""Closed-form oracles for the bubble U(x) = c (1 + |x|^2)^(-(n-2)/2).

Nothing here calls into bubblelab: every value comes from Gamma and the
regularized incomplete beta function, so it cannot share a bug with the
quadrature it checks.

* ``lambda0``: Lambda_0 = 2 S_n^(n/2), with the sharp Sobolev constant
  S_n = pi n (n-2) (Gamma(n/2) / Gamma(n))^(2/n) (Aubin 1976; Talenti 1976).
* ``ball_integrals``: int_{B(c, R)} |grad u|^2 and int_{B(c, R)} |u|^p for the
  bubble of scale delta centered at c.  With t = s^2 / (1 + s^2) both reduce
  to incomplete beta functions; for s = R/delta > 1 the complement in
  1 / (1 + s^2) is used, so the small tail is not lost to cancellation.
* ``offset_bounds``: a ball whose center sits s away from the bubble center
  contains B(c, R - s) and lies inside B(c, R + s), and the density is
  positive, so E_c(R - s) <= E <= E_c(R + s).
"""

from __future__ import annotations

import math

from scipy.special import beta, betainc

SELF_TEST_TOL = 1e-14


def sphere_area(n: int) -> float:
    """Area of the unit sphere S^(n-1) in R^n."""
    return 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)


def amplitude(n: int) -> float:
    return (n * (n - 2)) ** ((n - 2) / 4)


def sobolev_constant(n: int) -> float:
    return math.pi * n * (n - 2) * (math.gamma(n / 2) / math.gamma(n)) ** (2.0 / n)


def lambda0(n: int) -> float:
    """Unweighted single-bubble energy int_{R^n} |grad U|^2 + U^(2n/(n-2))."""
    return 2.0 * sobolev_constant(n) ** (n / 2)


def _beta_pieces(n: int, s: float) -> tuple[float, float]:
    """(int_0^s r^(n+1) (1+r^2)^(-n) dr, int_0^s r^(n-1) (1+r^2)^(-n) dr)."""
    a_grad, b_grad = n / 2 + 1, n / 2 - 1
    a_pot, b_pot = n / 2, n / 2
    if math.isinf(s):
        frac_grad = frac_pot = 1.0
    elif s <= 1.0:
        x = s * s / (1.0 + s * s)
        frac_grad = betainc(a_grad, b_grad, x)
        frac_pot = betainc(a_pot, b_pot, x)
    else:
        y = 1.0 / (1.0 + s * s)
        frac_grad = 1.0 - betainc(b_grad, a_grad, y)
        frac_pot = 1.0 - betainc(b_pot, a_pot, y)
    return (
        0.5 * beta(a_grad, b_grad) * frac_grad,
        0.5 * beta(a_pot, b_pot) * frac_pot,
    )


def ball_integrals(n: int, delta: float, radius: float) -> tuple[float, float]:
    """(int |grad u|^2, int |u|^p) over B(c, radius), bubble of scale delta
    centered at c.  Both are scale invariant, so only radius/delta enters."""
    grad_piece, pot_piece = _beta_pieces(n, radius / delta)
    c2 = amplitude(n) ** 2
    area = sphere_area(n)
    grad = area * c2 * (n - 2) ** 2 * grad_piece
    pot = area * c2 * n * (n - 2) * pot_piece
    return grad, pot


def centered_energy(n: int, delta: float, radius: float) -> float:
    """Unweighted energy int_B |grad u|^2 + |u|^p of a centered bubble."""
    grad, pot = ball_integrals(n, delta, radius)
    return grad + pot


def weighted_energy(n: int, delta: float, radius: float) -> float:
    """int_B |grad u|^2 / 2 + (n-2)/(2n) |u|^p of a centered bubble."""
    grad, pot = ball_integrals(n, delta, radius)
    return 0.5 * grad + (n - 2) / (2.0 * n) * pot


def offset_bounds(n: int, delta: float, radius: float, offset: float) -> tuple[float, float]:
    """Bounds on the unweighted energy of B(x, radius) when the bubble center
    is ``offset`` away from x; requires offset < radius."""
    if not 0.0 <= offset < radius:
        raise ValueError("offset bounds need 0 <= offset < radius")
    return (
        centered_energy(n, delta, radius - offset),
        centered_energy(n, delta, radius + offset),
    )


def profile_value(n: int, delta: float, r: float) -> float:
    """Profile at radius r of the bubble, U(r/delta) delta^(-(n-2)/2)."""
    return amplitude(n) * delta ** (-(n - 2) / 2) * (1.0 + (r / delta) ** 2) ** (-(n - 2) / 2)


def sphere_usq(n: int, delta: float, r: float) -> float:
    """int_{dB(c, r)} u^2 for the centered bubble."""
    return sphere_area(n) * r ** (n - 1) * profile_value(n, delta, r) ** 2


def sphere_usq_derivative(n: int, delta: float, r: float) -> float:
    """d/dr int_{dB(c, r)} u^2 = (n-1)/r int u^2 + 2 int u du/dr."""
    u = profile_value(n, delta, r)
    du = -(n - 2) * (r / delta**2) / (1.0 + (r / delta) ** 2) * u
    return sphere_area(n) * ((n - 1) * r ** (n - 2) * u * u + 2.0 * r ** (n - 1) * u * du)


def monotone_energy(n: int, delta: float, r: float) -> float:
    """E(c, r) = 1/2 int_B |grad u|^2 - (n-2)/(2n) int_B |u|^p
    + (n-2)/(4r) int_dB u^2 about the bubble center."""
    grad, pot = ball_integrals(n, delta, r)
    return 0.5 * grad - (n - 2) / (2.0 * n) * pot + (n - 2) / (4.0 * r) * sphere_usq(n, delta, r)


def self_test() -> float:
    """Largest relative gap, over n = 3..6, between the two independent
    Lambda_0 forms (Sobolev constant and the complete beta integrals);
    raises when it exceeds SELF_TEST_TOL."""
    worst = 0.0
    for n in (3, 4, 5, 6):
        a = lambda0(n)
        b = centered_energy(n, 1.0, math.inf)
        c = centered_energy(n, 1.0, 1e300)
        worst = max(worst, abs(a - b) / a, abs(a - c) / a)
    if worst > SELF_TEST_TOL:
        raise AssertionError(f"oracle self-test gap {worst:.3e} > {SELF_TEST_TOL:g}")
    return worst


if __name__ == "__main__":
    print(f"oracle self-test: max relative gap {self_test():.3e}")
