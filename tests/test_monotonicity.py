import tracemalloc

import numpy as np
import pytest

from bubblelab import grid
from bubblelab.concentration import energy_in
from bubblelab.grid import RadialGrid, integrate, unit_ball_volume, unit_sphere_area
from bubblelab.fields import (
    BubbleConfiguration,
    Bubble,
    ConstantField,
    CustomField,
    RescaledField,
    ScalarTestFunction,
    Superposition,
    VectorTestFunction,
    annulus_rule_for,
    aubin_talenti,
    ball_rule_for,
    pohozaev_report,
    shell_pieces_for,
    sphere_rule_for,
    stationarity_residual,
    weak_residual,
)
from bubblelab.monotonicity import (
    DegenerateEnergyError,
    check_monotone,
    check_positive,
    energy_E,
    energy_bound_check,
    eps_regularity_check,
    formulation_diagnostics,
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


def test_formulation_diagnostics_identifies_consistent_displays():
    d = formulation_diagnostics(aubin_talenti(3), np.zeros(3), 2.0)
    assert d["dev_A_vs_B"] <= 1e-12 * (1 + abs(d["B"]))
    assert d["dev_C_vs_B"] <= 1e-12 * (1 + abs(d["B"]))
    # the literal printed variants disagree, and the diagnostics expose that
    assert d["dev_derivation_literal_vs_B"] > 0.1
    assert d["dev_printed_literal_vs_B"] > 0.1


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


def test_energy_bound_zero_convention():
    assert energy_bound_check(ConstantField(3, 0.0), np.zeros(3), 0.3, 2.0) == 0.0


def test_energy_bound_bubble_sweep_stable_under_refinement():
    u = aubin_talenti(3)
    sweep = np.linspace(0.05, 0.5, 8)

    def max_ratio(order):
        return max(energy_bound_check(u, np.zeros(3), r, 2.0, order=order) for r in sweep)

    coarse, fine = max_ratio(24), max_ratio(48)
    assert np.isfinite(coarse)
    assert fine == pytest.approx(coarse, rel=0.02)


def test_energy_bound_ratio_scale_invariant():
    u = aubin_talenti(3)
    v = aubin_talenti(3, delta=0.25)
    sweep = np.linspace(0.05, 0.5, 8)
    m1 = max(energy_bound_check(u, np.zeros(3), r, 2.0) for r in sweep)
    m2 = max(energy_bound_check(v, np.zeros(3), r / 4, 0.5) for r in sweep)
    assert m2 == pytest.approx(m1, rel=0.01)


def test_energy_bound_rejects_bad_radii():
    with pytest.raises(ValueError):
        energy_bound_check(aubin_talenti(3), np.zeros(3), 1.5, 2.0)


def test_eps_regularity_zero_field():
    rep = eps_regularity_check(ConstantField(3, 0.0), np.zeros(3), 1.0, 0.5, 0.1)
    assert rep.applicable
    assert rep.c_meas == 0.0


def test_eps_regularity_far_field_decreasing():
    u = aubin_talenti(3)
    rep5 = eps_regularity_check(u, np.array([5.0, 0, 0]), 1.0, 0.5, epsilon=0.1)
    rep10 = eps_regularity_check(u, np.array([10.0, 0, 0]), 1.0, 0.5, epsilon=0.1)
    assert rep5.applicable and rep10.applicable
    assert 0 < rep10.c_meas < rep5.c_meas


def test_eps_regularity_core_not_applicable():
    u = aubin_talenti(3, delta=0.01)
    rep = eps_regularity_check(u, np.zeros(3), 1.0, 0.5, epsilon=0.1)
    assert not rep.applicable
    assert rep.energy > 0.1
    assert np.isnan(rep.c_meas)


def test_eps_regularity_streams_its_sup_sample():
    # a full-rule field off its center: the n = 5 half-ball sample holds
    # 497,664 nodes, 20 MB of coordinates, built one block at a time
    for n in (4, 5):
        bubble = aubin_talenti(n)
        u = CustomField(n, bubble.evaluate, bubble.analytic_gradient)
        x0 = 0.5 * np.eye(n)[0]
        tracemalloc.start()
        try:
            rep = eps_regularity_check(u, x0, 1.0, 0.5, 1e9, order=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.applicable
        if n == 5:
            assert peak < 8e6
        else:
            rule = shell_pieces_for(u, x0, [(0.0, 0.25)], 12, angular_order=12).rule(0)
            sample = np.vstack([rule.nodes, x0])
            assert rep.sup_u == float(np.max(np.abs(u.evaluate(sample))))
            assert rep.sup_u > abs(u(x0))


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


def test_degenerate_energy_reported():
    # a field with boundary mass but negative-definite bulk: force E < 0 by
    # inverting the sign structure is impossible for real fields, so check
    # the zero-vs-energy mismatch branch instead
    class Spike(ConstantField):
        pass

    with pytest.raises(DegenerateEnergyError):
        # constant field has E < 0 for large r (volume term dominates)
        energy_bound_check(ConstantField(3, 1.0), np.zeros(3), 4.0, 10.0)


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


def per_rule_sphere_terms(u, x, r, order=32, threads=1):
    """Reference (int_dB u^2, d/dr int_dB u^2) from one sphere rule, the
    derivative by the identity (n-1)/r int u^2 + 2 int u du/dr."""
    n = u.dimension
    sphere = sphere_rule_for(u, x, r, order)
    S = integrate(sphere, lambda pts: u.evaluate(pts) ** 2, threads=threads)
    W = integrate(sphere, lambda pts: u.evaluate(pts) * np.einsum(
        "mi,mi->m", u.gradient(pts), pts - x), threads=threads)
    return S, (n - 1) / r * S + 2.0 * W / r


def per_rule_profile(u, x, radii, order=32, threads=1):
    """Reference: one shell rule and one sphere rule per radius."""
    n = u.dimension
    p = 2.0 * n / (n - 2)
    x = np.asarray(x, dtype=float)

    def gradsq(pts):
        g = u.gradient(pts)
        return np.einsum("mi,mi->m", g, g)

    G = X = 0.0
    values, comps, prev = [], [], 0.0
    for r in np.asarray(radii, dtype=float):
        shell = annulus_rule_for(u, x, prev, r, order) if prev > 0 else ball_rule_for(
            u, x, r, order)
        G += integrate(shell, gradsq, threads=threads)
        X += integrate(shell, lambda pts: np.abs(u.evaluate(pts)) ** p, threads=threads)
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
    G = integrate(ball, lambda pts: np.einsum("mi,mi->m", u.gradient(pts), u.gradient(pts)))
    X = integrate(ball, lambda pts: np.abs(u.evaluate(pts)) ** p)
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
    "weak_residual": lambda u, ball: weak_residual(
        u, ScalarTestFunction.bump(4, np.zeros(4), 0.5), ball),
    "stationarity_residual": lambda u, ball: stationarity_residual(
        u, VectorTestFunction([ScalarTestFunction.bump(4, np.zeros(4), 0.5), None, None, None]),
        ball),
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
