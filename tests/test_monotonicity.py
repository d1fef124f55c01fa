import tracemalloc

import numpy as np
import pytest

from bubblelab import grid
from bubblelab.concentration import energy_in
from bubblelab.grid import RadialGrid, unit_ball_volume, unit_sphere_area
from bubblelab.fields import (
    BubbleConfiguration,
    Bubble,
    ConstantField,
    CustomField,
    RescaledField,
    Superposition,
    _integrate_density,
    annulus_rule_for,
    aubin_talenti,
    ball_rule_for,
    pohozaev_report,
    sphere_rule_for,
)
from bubblelab.monotonicity import (
    check_monotone,
    check_positive,
    energy_E,
    profile,
    write_profile_csv,
)


def test_energy_zero_field():
    z = ConstantField(3, 0.0)
    for r in (0.3, 1.0, 4.0):
        assert energy_E(z, np.zeros(3), r) == 0.0


def test_energy_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        energy_E(aubin_talenti(3), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        energy_E(aubin_talenti(3), np.zeros(3), -1.0)


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_formulations_agree_on_exact_solution(r):
    u = aubin_talenti(3)
    vals = {f: energy_E(u, np.zeros(3), r, f) for f in "ABC"}
    for f in "AC":
        assert vals[f] == pytest.approx(vals["B"], rel=1e-12)


def test_formulation_agreement_off_center():
    u = aubin_talenti(4)
    x = np.array([0.4, -0.3, 0.0, 0.0])
    for r in (0.5, 2.0):
        b = energy_E(u, x, r, "B")
        for f in "AC":
            assert abs(energy_E(u, x, r, f) - b) <= 1e-12 * (1 + abs(b))


def test_constant_field_closed_form():
    # hand evaluation: gradient term zero, volume term from the ball measure,
    # boundary term from the sphere measure
    n, c, r = 3, 0.7, 1.3
    u = ConstantField(n, c)
    p = 2 * n / (n - 2)
    expected = (
        -(n - 2) / (2 * n) * c**p * unit_ball_volume(n) * r**n
        + (n - 2) / (4 * r) * c**2 * unit_sphere_area(n) * r ** (n - 1)
    )
    assert energy_E(u, np.zeros(n), r, "B") == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_profile_boundary_derivative_matches_closed_form(n):
    # S(r) = int_dB u^2 = |S^(n-1)| a^2 r^(n-1) (1 + r^2)^(2-n) for the
    # centered bubble, so dS/dr = S ((n-1)/r - 2(n-2) r/(1 + r^2))
    rr = RadialGrid.log_spaced(0.05, 5.0, 40).radii
    prof = profile(aubin_talenti(n), np.zeros(n), rr)
    a = (n * (n - 2)) ** ((n - 2) / 4)
    S = unit_sphere_area(n) * a**2 * rr ** (n - 1) * (1 + rr**2) ** (2 - n)
    dS = S * ((n - 1) / rr - 2 * (n - 2) * rr / (1 + rr**2))
    # dS/dr crosses zero for n >= 4, so the error is scaled by S/r there
    err = np.abs(prof.components[:, 1] - dS) / np.maximum(np.abs(dS), S / rr)
    assert np.max(err) <= 1e-10


def test_profile_zero_field():
    prof = profile(ConstantField(3, 0.0), np.zeros(3), np.geomspace(0.1, 2, 10))
    assert np.all(prof.values == 0.0)
    assert check_monotone(prof).passed
    assert check_positive(prof).passed


def test_profile_bubble_centered_monotone_positive():
    u = aubin_talenti(3)
    prof = profile(u, np.zeros(3), RadialGrid.log_spaced(0.05, 5.0, 40))
    assert np.all(np.isfinite(prof.values))
    slack = 1e-6 * np.max(np.abs(prof.values))
    assert check_monotone(prof, slack).passed
    assert check_positive(prof, slack).passed


def test_profile_bubble_off_center_monotone_positive():
    u = aubin_talenti(3)
    prof = profile(u, np.array([0.3, 0.0, 0.0]), RadialGrid.log_spaced(0.05, 5.0, 40))
    assert check_monotone(prof).passed
    assert check_positive(prof).passed


def test_two_bubble_profile_dominates_single():
    # needs well-separated scales: the sextic cross terms enter E with a
    # negative sign and would swamp a barely-separated second bubble
    x = np.zeros(3)
    radii = np.geomspace(0.2, 3.0, 8)
    single = profile(aubin_talenti(3), x, radii)
    double = profile(
        BubbleConfiguration([Bubble(3, x, 1.0), Bubble(3, x, 1e-4)]), x, radii
    )
    assert np.all(np.isfinite(double.values))
    assert np.all(double.values > single.values)


def test_two_bubble_positivity_report_is_informational():
    cfg = BubbleConfiguration([Bubble(3, np.zeros(3), 1.0), Bubble(3, np.zeros(3), 0.02)])
    prof = profile(cfg, np.zeros(3), np.geomspace(0.05, 5, 15))
    rep = check_positive(prof)
    # approximate solutions may violate; the report lists radii, not raises
    assert isinstance(rep.violations, list)
    for r_lo, _, magnitude in rep.violations:
        assert magnitude > 0


def test_check_monotone_flags_decreases():
    prof = profile(aubin_talenti(3), np.zeros(3), np.geomspace(0.1, 2, 6))
    broken = type(prof)(
        center=prof.center,
        radii=prof.radii,
        values=prof.values[::-1].copy(),
        components=prof.components,
    )
    rep = check_monotone(broken)
    assert not rep.passed
    assert rep.violations


def test_integral_mean_inequality():
    # (1/R) int_0^R E <= E(R), using E(r) <= E(r1) on the unsampled head
    u = aubin_talenti(3)
    prof = profile(u, np.zeros(3), np.geomspace(0.05, 4.0, 30))
    r, v = prof.radii, prof.values
    head = r[0] * v[0]
    mean = (head + np.trapezoid(v, r)) / r[-1]
    assert mean <= v[-1] * (1 + 1e-9)


def test_scale_covariance():
    u = aubin_talenti(3)
    delta = 0.25
    u_scaled = RescaledField(u, np.zeros(3), delta)  # delta^((n-2)/2) u(delta x)
    for r in (0.5, 1.0, 3.0):
        a = energy_E(u, np.zeros(3), r, "B", order=48)
        b = energy_E(u_scaled, np.zeros(3), r / delta, "B", order=48)
        assert b == pytest.approx(a, rel=1e-8)


def test_full_layout_energy_takes_a_small_sphere_rule():
    # a full-layout sphere takes the shells' symmetric rule, 2,002
    # directions at n = 5, order 32; the product rule at the raw order
    # holds 2,097,152 (84 MB of coordinates)
    bubble = aubin_talenti(5)
    u = CustomField(5, bubble.evaluate, bubble.analytic_gradient)
    tracemalloc.start()
    try:
        e = energy_E(u, np.zeros(5), 0.5, "B", order=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    assert e == pytest.approx(energy_E(bubble, np.zeros(5), 0.5, "B", order=32), rel=1e-10)


def test_profile_csv_columns(tmp_path):
    prof = profile(aubin_talenti(3), np.zeros(3), np.geomspace(0.1, 1.0, 5))
    path = tmp_path / "profile.csv"
    write_profile_csv(path, prof)
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0] == b"r,E,term_volume,term_boundary_derivative,term_boundary_over_r"
    assert len(lines) == 7  # header + 5 rows + trailing empty


# ---------------------------------------------------------------------------
# batched sweeps against one rule per shell and per sphere
# ---------------------------------------------------------------------------


def rule_integral(u, rule, density, threads=1):
    """Reference: the integral of ``density(v, g, y)`` for ``u`` on one
    rule, by the field-density evaluator in the rule's own layout."""
    return float(_integrate_density(
        u, rule.piece, lambda v, g, y: (density(v, g, y),), threads, offsets=True)[0, 0])


def gradsq(v, g, y):
    return np.einsum("mi,mi->m", g, g)


def per_rule_sphere_terms(u, x, r, order=32, threads=1):
    """Reference (int_dB u^2, d/dr int_dB u^2) from one sphere rule, the
    derivative by the identity (n-1)/r int u^2 + 2 int u du/dr."""
    n = u.dimension
    sphere = sphere_rule_for(u, x, r, order)
    S = rule_integral(u, sphere, lambda v, g, y: v**2, threads)
    W = rule_integral(u, sphere, lambda v, g, y: v * np.einsum("mi,mi->m", g, y), threads)
    return S, (n - 1) / r * S + 2.0 * W / r


def per_rule_profile(u, x, radii, order=32, threads=1):
    """Reference: one shell rule and one sphere rule per radius."""
    n = u.dimension
    p = 2.0 * n / (n - 2)
    x = np.asarray(x, dtype=float)
    G = X = 0.0
    values, comps, prev = [], [], 0.0
    for r in np.asarray(radii, dtype=float):
        shell = annulus_rule_for(u, x, prev, r, order) if prev > 0 else ball_rule_for(
            u, x, r, order)
        G += rule_integral(u, shell, gradsq, threads)
        X += rule_integral(u, shell, lambda v, g, y: np.abs(v) ** p, threads)
        S, D = per_rule_sphere_terms(u, x, r, order, threads)
        values.append(0.5 * G - (n - 2) / (2.0 * n) * X + (n - 2) / (4.0 * r) * S)
        comps.append((X, D, S / r))
        prev = r
    return np.array(values), np.array(comps)


def per_rule_energy(u, x, r, formulation, order=32):
    """Reference energy_E: one ball rule and one sphere rule."""
    n = u.dimension
    p = 2.0 * n / (n - 2)
    ball = ball_rule_for(u, x, r, order)
    G = rule_integral(u, ball, gradsq)
    X = rule_integral(u, ball, lambda v, g, y: np.abs(v) ** p)
    S, D = per_rule_sphere_terms(u, np.asarray(x, dtype=float), r, order)
    if formulation == "B":
        return 0.5 * G - (n - 2) / (2.0 * n) * X + (n - 2) / (4.0 * r) * S
    if formulation == "A":
        return X / n + 0.25 * D - 0.25 * S / r
    return (G + (n - 2) / n * X) / (2.0 * (n - 1)) + (n - 2) / (4.0 * (n - 1)) * D


def e1(n, scale=1.0):
    return scale * np.eye(n)[0]


def sweep_cases(n):
    b = aubin_talenti(n)
    full = CustomField(n, b.evaluate, b.analytic_gradient)
    tower = Superposition([Bubble(n, np.zeros(n), 1e-4), Bubble(n, np.zeros(n), 1e-2)])
    signed = Superposition([Bubble(n, e1(n, 0.3), 0.1), Bubble(n, e1(n, -0.3), 0.2, -1.0)])
    grid40 = RadialGrid.log_spaced(0.05, 5.0, 40).radii
    return {
        "radial": (b, np.zeros(n), grid40, 32),
        "zonal": (b, e1(n, 0.3), grid40, 32),
        "full": (full, e1(n, 0.1), [0.2, 0.5, 1.0], 4),
        "paneled-first-shell": (tower, np.zeros(n), grid40, 32),
        "wide-annulus": (b, e1(n, 0.2), [0.01, 0.1, 2.0, 3.0], 32),
        "signed-on-axis": (signed, e1(n, 0.1), np.geomspace(0.05, 2.0, 8), 12),
        "signed-off-axis": (signed, 0.2 * np.eye(n)[1], [0.1, 0.4], 4),
    }


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("case", ["radial", "zonal", "full", "paneled-first-shell",
                                  "wide-annulus", "signed-on-axis", "signed-off-axis"])
def test_profile_matches_per_rule_loop(n, case):
    u, x, radii, order = sweep_cases(n)[case]
    prof = profile(u, x, radii, order)
    values, comps = per_rule_profile(u, x, radii, order)
    assert same_bits(prof.values, values)
    assert same_bits(prof.components, comps)


@pytest.mark.parametrize("threads", [1, 2])
def test_profile_with_pieces_over_chunk_matches_per_rule_loop(threads):
    # full n = 4 shells of order 32 hold 110,592 nodes, more than one chunk
    u = aubin_talenti(4, 0.5)
    full = CustomField(4, u.evaluate, u.analytic_gradient)
    prof = profile(full, np.zeros(4), [0.3, 1.0], order=32, threads=threads)
    values, comps = per_rule_profile(full, np.zeros(4), [0.3, 1.0], 32, threads)
    assert same_bits(prof.values, values)
    assert same_bits(prof.components, comps)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_energy_E_matches_per_rule_reference(n):
    cases = sweep_cases(n)
    for case in ("radial", "zonal", "full", "paneled-first-shell", "signed-off-axis"):
        u, x, _, order = cases[case]
        for r in (0.1, 0.8):
            for formulation in "ABC":
                got = energy_E(u, x, r, formulation, order)
                assert type(got) is float
                assert got == per_rule_energy(u, x, r, formulation, order)


THREADED_CALLS = {
    "pohozaev_report": lambda u, ball: pohozaev_report(u, np.zeros(4), 1.0, order=32),
    "profile": lambda u, ball: profile(u, np.zeros(4), [0.3, 1.0], order=32),
    "energy_E": lambda u, ball: energy_E(u, np.zeros(4), 1.0, "B", 32),
    "energy_in": lambda u, ball: energy_in(u, ball),
}


@pytest.mark.parametrize("name", sorted(THREADED_CALLS))
def test_default_thread_count_reaches_the_integrals(monkeypatch, name):
    # a full n = 4 order-32 ball holds 110,592 nodes, two spans, so its
    # integral starts a pool exactly when it runs with more than one thread
    pools = []
    real = grid.ThreadPoolExecutor

    def spy(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(grid, "ThreadPoolExecutor", spy)
    monkeypatch.setattr(grid, "_DEFAULT_THREADS", grid._DEFAULT_THREADS)  # restored after
    grid.set_default_threads(2)
    b = aubin_talenti(4, 0.5)
    full = CustomField(4, b.evaluate, b.analytic_gradient)
    ball = ball_rule_for(full, np.zeros(4), 1.0, 32)
    assert len(ball) == 110_592
    THREADED_CALLS[name](full, ball)
    assert pools and set(pools) == {2}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("length", [0.3, 0.9, 1.9])
def test_profile_is_rotation_invariant(n, length):
    # the bubble is radial about 0, so E(x, r) depends on |x| only: a probe
    # in a random direction sweeps zonal rules about a generic axis, whose
    # per-node coordinate sums mix every coordinate, and must read the
    # on-axis values; wrong nodes that pass the weight-sum validation do not
    u = aubin_talenti(n)
    radii = RadialGrid.log_spaced(0.05, 5.0, 40)
    rng = np.random.default_rng(100 * n + round(10 * length))
    direction = rng.standard_normal(n)
    rotated = profile(u, length / np.linalg.norm(direction) * direction, radii)
    on_axis = profile(u, e1(n, length), radii)
    np.testing.assert_allclose(rotated.values, on_axis.values, rtol=1e-13, atol=0)
