import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from bubblelab import grid
from bubblelab.grid import (
    NonFiniteFieldError,
    QuadratureRule,
    RadialGrid,
    build_annulus_rule,
    build_ball_rule,
    build_radial_ball_rule,
    build_sphere_rule,
    build_zonal_ball_rule,
    build_zonal_sphere_rule,
    gauss_gegenbauer,
    gauss_legendre,
    geometric_panels,
    integrate,
    unit_ball_volume,
    unit_sphere_area,
    zonal_template,
)

PI = np.pi


def ones(pts):
    return np.ones(len(pts))


def test_ball_volume_n3():
    rule = build_ball_rule(3, 0, 1.0, order=8)
    assert integrate(rule, ones) == pytest.approx(4 * PI / 3, rel=1e-12)


def test_ball_volume_scaling():
    rule = build_ball_rule(3, 0, 2.0, order=8)
    assert integrate(rule, ones) == pytest.approx(32 * PI / 3, rel=1e-12)


def test_ball_radius_squared_moment():
    rule = build_ball_rule(3, 0, 1.0, order=8)
    val = integrate(rule, lambda p: np.einsum("ij,ij->i", p, p))
    assert val == pytest.approx(4 * PI / 5, rel=1e-12)


def test_sphere_area_n3():
    rule = build_sphere_rule(3, 0, 1.0, order=8)
    assert integrate(rule, ones) == pytest.approx(4 * PI, rel=1e-12)


def test_sphere_area_n4():
    rule = build_sphere_rule(4, 0, 1.0, order=8)
    assert integrate(rule, ones) == pytest.approx(2 * PI**2, rel=1e-12)


def test_sphere_odd_monomial_vanishes():
    for n in (3, 4, 5):
        rule = build_sphere_rule(n, 0, 1.0, order=10)
        assert abs(integrate(rule, lambda p: p[:, 0])) < 1e-10
        assert abs(integrate(rule, lambda p: p[:, 0] ** 3 * p[:, 1] ** 2)) < 1e-10


def test_integrate_constant_linearity():
    rule = build_ball_rule(3, 0, 1.0, order=6)
    assert integrate(rule, lambda p: 2.0 * np.ones(len(p))) == pytest.approx(
        8 * PI / 3, rel=1e-12
    )


def test_sphere_x1_squared():
    rule = build_sphere_rule(3, 0, 1.0, order=10)
    assert integrate(rule, lambda p: p[:, 0] ** 2) == pytest.approx(
        4 * PI / 3, rel=1e-11
    )


def test_gaussian_against_radial_oracle():
    # independent oracle: adaptive 1-d radial integration
    rule = build_ball_rule(3, 0, 1.0, order=32)
    val = integrate(rule, lambda p: np.exp(-np.einsum("ij,ij->i", p, p)))
    oracle, _ = quad(lambda r: np.exp(-r * r) * r * r, 0, 1)
    oracle *= unit_sphere_area(3)
    assert val == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_weight_sums_match_measures(n):
    c = np.zeros(n)
    ball = build_ball_rule(n, c, 1.7, order=6)
    assert ball.weights.sum() == pytest.approx(ball.measure, rel=1e-12)
    sph = build_sphere_rule(n, c, 0.9, order=6)
    assert sph.weights.sum() == pytest.approx(sph.measure, rel=1e-12)
    ann = build_annulus_rule(n, c, 0.4, 1.3, order=6)
    assert ann.weights.sum() == pytest.approx(
        unit_ball_volume(n) * (1.3**n - 0.4**n), rel=1e-12
    )
    rad = build_radial_ball_rule(n, c, 1.1, order=16)
    assert rad.weights.sum() == pytest.approx(rad.measure, rel=1e-12)
    zon = build_zonal_ball_rule(n, c, 1.1, np.arange(1, n + 1), order=8)
    assert zon.weights.sum() == pytest.approx(zon.measure, rel=1e-12)
    zsp = build_zonal_sphere_rule(n, c, 1.1, np.arange(1, n + 1), polar_order=12)
    assert zsp.weights.sum() == pytest.approx(zsp.measure, rel=1e-12)


def test_nodes_inside_region():
    rule = build_annulus_rule(4, np.ones(4), 0.5, 2.0, order=8)
    d = np.linalg.norm(rule.nodes - rule.center, axis=1)
    assert np.all(d >= 0.5 * (1 - 1e-12))
    assert np.all(d <= 2.0 * (1 + 1e-12))


def test_refinement_convergence_order():
    # doubling the order must reduce error at a measured rate >= 2
    oracle, _ = quad(lambda r: np.sinc(r / PI) * r**2, 0, 1)  # sin(r)/r * r^2
    oracle *= unit_sphere_area(3)

    def err(order):
        rule = build_ball_rule(3, 0, 1.0, order=order, angular_order=8)
        val = integrate(
            rule, lambda p: np.sinc(np.linalg.norm(p, axis=1) / PI)
        )
        return abs(val - oracle)

    e2, e4 = err(2), err(4)
    assert e4 < e2
    assert np.log2(e2 / e4) >= 2.0


def test_annulus_equals_ball_difference():
    f = lambda p: np.cos(p[:, 0]) + p[:, 1] ** 2
    outer = integrate(build_ball_rule(3, 0, 1.5, order=24), f)
    inner = integrate(build_ball_rule(3, 0, 0.6, order=24), f)
    ann = integrate(build_annulus_rule(3, 0, 0.6, 1.5, order=24), f)
    assert ann == pytest.approx(outer - inner, rel=1e-10)


def test_zonal_matches_full_for_axisymmetric():
    # integrand depends on distance to an off-center point on the axis
    y = np.array([0.4, 0.0, 0.0])
    f = lambda p: 1.0 / (1.0 + np.linalg.norm(p - y, axis=1) ** 2)
    full = integrate(build_ball_rule(3, 0, 1.0, order=32), f)
    zon = integrate(build_zonal_ball_rule(3, 0, 1.0, y, order=32, polar_order=48), f)
    assert zon == pytest.approx(full, rel=1e-9)


def test_radial_rule_matches_full_for_radial():
    f = lambda p: np.exp(-2 * np.linalg.norm(p, axis=1))
    full = integrate(build_ball_rule(4, 0, 1.0, order=24), f)
    rad = integrate(build_radial_ball_rule(4, 0, 1.0, order=48), f)
    assert rad == pytest.approx(full, rel=1e-10)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        build_ball_rule(2, 0, 1.0)
    with pytest.raises(ValueError):
        build_ball_rule(3, 0, -1.0)
    with pytest.raises(ValueError):
        build_ball_rule(3, 0, 1.0, order=0)
    with pytest.raises(ValueError):
        build_sphere_rule(3, 0, 0.0)
    with pytest.raises(ValueError):
        build_annulus_rule(3, 0, 1.0, 0.5)


def test_nonfinite_integrand_reports_node():
    rule = build_ball_rule(3, 0, 1.0, order=4)

    def bad(p):
        out = np.ones(len(p))
        out[p[:, 0] > 0] = np.inf
        return out

    with pytest.raises(NonFiniteFieldError) as exc:
        integrate(rule, bad)
    assert exc.value.node.shape == (3,)


def test_integrate_thread_count_bit_stable():
    rule = build_ball_rule(3, 0, 1.0, order=48, angular_order=24)
    f = lambda p: np.sin(p[:, 0]) ** 2 + np.exp(-np.abs(p[:, 1]))
    vals = {integrate(rule, f, threads=t) for t in (1, 2, 4)}
    assert len(vals) == 1  # bit-identical


def test_radial_grid_invariants():
    g = RadialGrid.log_spaced(0.05, 5.0, 40)
    assert len(g) == 40
    assert g.radii[0] == pytest.approx(0.05)
    fine = g.refine()
    assert fine.refinement_level == 1
    assert len(fine) == 79
    with pytest.raises(ValueError):
        RadialGrid(np.array([1.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        RadialGrid(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        RadialGrid(np.array([2.0, 1.0]))


def test_geometric_panels_resolve_fine_scale():
    panels = geometric_panels(0.0, 1.0, 1e-6)
    assert panels is not None
    assert panels[0] <= 1e-6
    assert all(b > a for a, b in zip(panels, panels[1:]))
    assert geometric_panels(0.0, 1.0, None) is None
    assert geometric_panels(0.0, 1.0, 0.5) is None


def test_rule_validation_catches_bad_weights():
    good = build_ball_rule(3, 0, 1.0, order=4)
    bad = QuadratureRule(
        dimension=3,
        nodes=good.nodes,
        weights=-good.weights,
        kind="ball",
        center=good.center,
        radii=good.radii,
    )
    with pytest.raises(ValueError):
        bad.validate()


# ---------------------------------------------------------------------------
# roots cache and zonal templates
# ---------------------------------------------------------------------------


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("order", [1, 7, 12, 48, 64])
def test_cached_roots_equal_scipy_bit_for_bit(order):
    for got, want in zip(gauss_legendre(order), scipy.special.roots_legendre(order)):
        assert same_bits(got, want)
    for alpha in (0.5, 1.0, 1.5, 2.0):
        for got, want in zip(gauss_gegenbauer(order, alpha),
                             scipy.special.roots_gegenbauer(order, alpha)):
            assert same_bits(got, want)


def test_cached_roots_are_read_only():
    for arr in gauss_legendre(12) + gauss_gegenbauer(12, 1.5):
        with pytest.raises(ValueError):
            arr[0] = 1.0
        with pytest.raises(ValueError):
            arr *= 2.0


def counting(monkeypatch, name):
    calls = []
    original = getattr(grid, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(grid, name, wrapper)
    return calls


def test_repeated_roots_request_does_not_call_scipy(monkeypatch):
    grid.gauss_legendre.cache_clear()
    grid.gauss_gegenbauer.cache_clear()
    leg = counting(monkeypatch, "roots_legendre")
    geg = counting(monkeypatch, "roots_gegenbauer")
    first = gauss_gegenbauer(37, 2.5)
    assert gauss_gegenbauer(37, 2.5) is first
    gauss_gegenbauer(37, 1.5)
    gauss_legendre(37)
    gauss_legendre(37)
    assert geg == [(37, 2.5), (37, 1.5)]
    assert leg == [(37,)]


def test_rule_builders_and_constants_reuse_cached_roots(monkeypatch):
    from bubblelab.concentration import _standard_halfball_radius, bubble_energy_constant

    def build_all(target):
        build_ball_rule(4, 0, 1.0, order=9)
        build_sphere_rule(4, 0, 1.0, order=9)
        build_radial_ball_rule(4, 0, 1.0, order=9)
        build_zonal_ball_rule(4, 0, 1.0, [1, 0, 0, 0], order=9, polar_order=11)
        build_zonal_sphere_rule(4, 0, 1.0, [1, 0, 0, 0], polar_order=11)
        bubble_energy_constant(4, radial_order=9)
        _standard_halfball_radius(4, target)

    build_all(1.25)
    leg = counting(monkeypatch, "roots_legendre")
    geg = counting(monkeypatch, "roots_gegenbauer")
    build_all(1.5)  # a new target: the half-ball radius is recomputed
    assert leg == [] and geg == []


def test_zonal_template_placed_at_many_probes_matches_builder():
    n, r, order, polar = 4, 0.3, 7, 13
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((5, n))
    axes = rng.standard_normal((5, n))
    template = zonal_template(n, r, order, polar)
    frames = [grid._unit_perp_pair(a) for a in axes]
    nodes = template.place(xs, np.stack([e for e, _ in frames]),
                           np.stack([p for _, p in frames]))
    for x, axis, placed in zip(xs, axes, nodes):
        rule = build_zonal_ball_rule(n, x, r, axis, order, polar_order=polar)
        assert same_bits(placed, rule.nodes)
        assert same_bits(template.weights, rule.weights)
    with pytest.raises(ValueError):
        zonal_template(n, -1.0, order, polar)
