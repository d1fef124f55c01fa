import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from bubblelab import grid
from bubblelab.concentration import bubbling_energy
from bubblelab.fields import Bubble, Superposition
from bubblelab.grid import (
    NonFiniteFieldError,
    RadialGrid,
    build_annulus_rule,
    build_ball_rule,
    build_sphere_rule,
    gauss_gegenbauer,
    gauss_legendre,
    geometric_panels,
    integrate,
    unit_ball_volume,
    unit_sphere_area,
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
    rad = grid.build_shell_pieces(n, c, [(0.0, 1.1)], 16, "radial").rule(0)
    assert rad.weights.sum() == pytest.approx(rad.measure, rel=1e-12)
    axis = np.arange(1, n + 1)
    zon = grid.build_shell_pieces(n, c, [(0.0, 1.1)], 8, "zonal", axis).rule(0)
    assert zon.weights.sum() == pytest.approx(zon.measure, rel=1e-12)
    zsp = grid.build_sphere_pieces(n, c, [1.1], 12, "zonal", axis).rule(0)
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
    zonal = grid.build_shell_pieces(3, 0, [(0.0, 1.0)], 32, "zonal", y, polar_order=48)
    zon = integrate(zonal.rule(0), f)
    assert zon == pytest.approx(full, rel=1e-9)


def test_radial_rule_matches_full_for_radial():
    f = lambda p: np.exp(-2 * np.linalg.norm(p, axis=1))
    full = integrate(build_ball_rule(4, 0, 1.0, order=24), f)
    rad = integrate(grid.build_shell_pieces(4, 0, [(0.0, 1.0)], 48, "radial").rule(0), f)
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
    piece = build_ball_rule(3, 0, 1.0, order=4).piece
    bad = replace(piece, radial_weights=-piece.radial_weights).rule(0)
    with pytest.raises(ValueError):
        bad.validate()


# ---------------------------------------------------------------------------
# roots cache and zonal templates
# ---------------------------------------------------------------------------


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("order", [1, 7, 12, 48, 64, 128, 256])
def test_cached_roots_equal_scipy_bit_for_bit(order):
    """SciPy's rules as the oracle: nodes agree to 4.4e-16 absolute and
    weights to 2e-10 relative.  The weight gap is SciPy's: against a
    40-digit reference, its Legendre weights at order 247 are off by
    2.9e-10 relative and the package's by 1.2e-12."""
    def close(got, want):
        x, w = got
        assert np.abs(x - want[0]).max() <= 4.4e-16
        assert (np.abs(w - want[1]) / want[1]).max() <= 2e-10

    close(gauss_legendre(order), scipy.special.roots_legendre(order))
    for alpha in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        close(gauss_gegenbauer(order, alpha), scipy.special.roots_gegenbauer(order, alpha))


def gegenbauer_moments(alpha, count):
    """int_-1^1 t^k (1-t^2)^(alpha-1/2) dt for k < count: the odd ones are
    0, and M_(k+2) = M_k (k+1) / (k + 2 alpha + 2)."""
    moments = np.zeros(count)
    moments[0] = scipy.special.beta(0.5, alpha + 0.5)
    for k in range(0, count - 2, 2):
        moments[k + 2] = moments[k] * (k + 1) / (k + 2 * alpha + 2)
    return moments


@given(st.integers(3, 8), st.integers(1, 128))
@settings(max_examples=60, deadline=None)
def test_gauss_gegenbauer_integrates_every_monomial_below_degree_2m(n, order):
    alpha = (n - 2) / 2
    t, w = gauss_gegenbauer(order, alpha)
    moments = gegenbauer_moments(alpha, 2 * order)
    sums = np.array([np.dot(w, t**k) for k in range(2 * order)])
    even, odd = slice(0, None, 2), slice(1, None, 2)
    assert (np.abs(sums[even] - moments[even]) <= 1e-13 * moments[even]).all()
    assert (np.abs(sums[odd]) <= 1e-15 * moments[0]).all()


@pytest.mark.parametrize("order", [1, 2, 5, 16, 33])
def test_gauss_gegenbauer_at_alpha_zero_is_gauss_chebyshev(order):
    """At alpha = 0 the first recurrence coefficient takes its limit 1/2:
    the rule is cos((2i - 1) pi / 2m), each weight pi / m."""
    t, w = gauss_gegenbauer(order, 0.0)
    i = np.arange(order, 0, -1)
    assert np.abs(t - np.cos((2 * i - 1) * PI / (2 * order))).max() <= 4.4e-16
    assert np.abs(w - PI / order).max() <= 1e-14


@pytest.mark.parametrize("order, alpha", [(24, 6.0), (40, 10.0), (64, 50.0)])
def test_gauss_gegenbauer_bisects_where_the_guess_fails(monkeypatch, order, alpha):
    """For large alpha the asymptotic guess leads Newton astray; the zeros
    are bisected first, and the rule is still exact to degree 2m - 1."""
    bisected = []
    bisect = grid._bisect_zeros

    def counted(count, beta):
        bisected.append(count)
        return bisect(count, beta)

    monkeypatch.setattr(grid, "_bisect_zeros", counted)
    t, w = gauss_gegenbauer.__wrapped__(order, alpha)
    assert bisected == [(order + 1) // 2]
    assert (np.diff(t) > 0).all() and (w > 0).all()
    moments = gegenbauer_moments(alpha, 2 * order)
    sums = np.array([np.dot(w, t**k) for k in range(0, 2 * order, 2)])
    assert np.allclose(sums, moments[::2], rtol=1e-12, atol=0)
    gauss_gegenbauer.__wrapped__(order, 1.5)
    assert bisected == [(order + 1) // 2]  # the guess serves moderate alpha


@pytest.mark.parametrize("order, alpha", [
    (0, 1.0), (-3, 1.0), (2.5, 1.0),
    (4, -0.5), (4, -1.0), (4, float("nan")), (4, float("inf")), (4, float("-inf")),
    (1000, 1000.0),  # the orthonormal polynomials overflow at the outer nodes
])
def test_gauss_gegenbauer_refuses_bad_order_and_alpha(order, alpha):
    with pytest.raises(ValueError, match="order|alpha"):
        gauss_gegenbauer(order, alpha)
    if alpha == 1.0:
        with pytest.raises(ValueError, match="order"):
            gauss_legendre(order)


def test_large_gauss_rule_keeps_linear_memory():
    tracemalloc.start()
    try:
        t, w = gauss_gegenbauer.__wrapped__(8192, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert w.sum() == pytest.approx(2.0, rel=1e-14)
    assert (np.diff(t) > 0).all()


def test_cached_roots_are_read_only():
    for arr in gauss_legendre(12) + gauss_gegenbauer(12, 1.5):
        with pytest.raises(ValueError):
            arr[0] = 1.0
        with pytest.raises(ValueError):
            arr *= 2.0


def test_repeated_roots_request_is_a_cache_hit():
    """Legendre is the alpha = 1/2 case: one routine and one cache."""
    grid.gauss_gegenbauer.cache_clear()
    first = gauss_gegenbauer(37, 2.5)
    assert gauss_gegenbauer(37, 2.5) is first
    gauss_gegenbauer(37, 1.5)
    gauss_legendre(37)
    assert gauss_legendre(37) is gauss_gegenbauer(37, 0.5)
    assert grid.gauss_gegenbauer.cache_info().misses == 3


def test_rule_builders_and_constants_reuse_cached_roots():
    from bubblelab.concentration import _standard_halfball_radius, bubble_energy_constant

    def build_all(target):
        build_ball_rule(4, 0, 1.0, order=9)
        build_sphere_rule(4, 0, 1.0, order=9)
        grid.build_shell_pieces(4, 0, [(0.0, 1.0)], 9, "radial")
        grid.build_shell_pieces(4, 0, [(0.0, 1.0)], 9, "zonal", [1, 0, 0, 0], polar_order=11)
        grid.build_sphere_pieces(4, 0, [1.0], 11, "zonal", [1, 0, 0, 0])
        bubble_energy_constant(4, radial_order=9)
        _standard_halfball_radius(4, target)

    build_all(1.25)
    misses = grid.gauss_gegenbauer.cache_info().misses
    build_all(1.5)  # a new target: the half-ball radius is recomputed
    assert grid.gauss_gegenbauer.cache_info().misses == misses


# ---------------------------------------------------------------------------
# piece sets
# ---------------------------------------------------------------------------


def radial_nodes_loop(inner, outer, order, panels):
    """Reference: one Gauss-Legendre panel per loop iteration."""
    x, w = gauss_legendre(order)
    if panels is None:
        edges = np.array([inner, outer])
    else:
        edges = np.asarray(sorted(set([inner, outer] + list(panels))), dtype=float)
        edges = edges[(edges >= inner) & (edges <= outer)]
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def doubling_panels(inner, outer):
    edges, a = [], inner
    while a * 2 < outer:
        a *= 2
        edges.append(a)
    return edges


@pytest.mark.parametrize("order", [12, 24])
def test_radial_nodes_match_the_panel_loop(order):
    cases = [(0.0, r, geometric_panels(0.0, r, 1e-18)) for r in (0.05, 0.5, 1.0, 2.0)]
    cases += [(a, b, doubling_panels(a, b))
              for a, b in ((0.01, 1.0), (0.05, 5.0), (0.3, 2.5))]
    cases += [(0.0, 1.0, None), (0.2, 0.7, None), (0.0, 1.0, [0.5, 0.5, 2.0])]
    assert min(len(p) for _, _, p in cases[:7]) >= 3
    assert len(cases[0][2]) == 58  # tiny-ball panels: up to 80 per rule
    # the radial factor of a zonal n = 3 piece: nodes x, weights w x^2
    axis = [1.0, 0.0, 0.0]
    want = [radial_nodes_loop(inner, outer, order, panels) for inner, outer, panels in cases]
    for (inner, outer, panels), (x, w) in zip(cases, want):
        piece = grid.build_shell_pieces(3, 0, [(inner, outer)], order, "zonal", axis,
                                        radial_panels=[panels])
        assert same_bits(piece.s, x)
        assert same_bits(piece.radial_weights, w * x**2)
    pieces = grid.build_shell_pieces(3, 0, [c[:2] for c in cases], order, "zonal", axis,
                                     radial_panels=[c[2] for c in cases])
    assert same_bits(pieces.s, np.concatenate([x for x, _ in want]))
    assert same_bits(pieces.radial_weights, np.concatenate([w * x**2 for x, w in want]))


SHELLS = [(0.0, 0.05), (0.05, 0.2), (0.2, 2.1), (0.0, 0.7), (1e-3, 1.0)]
SHELL_LAYOUTS = [(6, "full", {"angular_order": 3}), (9, "radial", {}),
                 (8, "zonal", {"polar_order": 13})]
SPHERE_LAYOUTS = [(5, "full"), (64, "zonal")]


def shell_panels():
    return [geometric_panels(0.0, 0.05, 1e-18), None, doubling_panels(0.2, 2.1), None,
            doubling_panels(1e-3, 1.0)]


def assert_same_rule(got, want):
    assert same_bits(got.nodes, want.nodes)
    assert same_bits(got.weights, want.weights)
    assert (got.kind, got.radii, got.symmetry) == (want.kind, want.radii, want.symmetry)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_each_piece_equals_its_one_piece_set(n):
    c, axis = np.linspace(-0.3, 0.4, n), np.arange(1.0, n + 1)
    panels = shell_panels()
    for order, symmetry, kw in SHELL_LAYOUTS:
        pieces = grid.build_shell_pieces(n, c, SHELLS, order, symmetry, axis,
                                         radial_panels=panels, **kw)
        assert len(pieces) == len(SHELLS)
        for i, (region, p) in enumerate(zip(SHELLS, panels)):
            one = grid.build_shell_pieces(n, c, [region], order, symmetry, axis,
                                          radial_panels=[p], **kw)
            assert_same_rule(pieces.rule(i), one.rule(0))
    radii = np.geomspace(0.05, 5.0, 40)
    for order, symmetry in SPHERE_LAYOUTS:
        pieces = grid.build_sphere_pieces(n, c, radii, order, symmetry, axis)
        for i, r in enumerate(radii):
            one = grid.build_sphere_pieces(n, c, [r], order, symmetry, axis)
            assert_same_rule(pieces.rule(i), one.rule(0))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sphere_weight_factor_is_a_scalar_power(n):
    # numpy's array power rounds differently from the scalar r ** (n - 1)
    # for a few percent of radii; the sphere rules keep the scalar one
    radii = np.random.default_rng(n).uniform(0.01, 5.0, 300)
    full = grid.build_sphere_pieces(n, 0, radii, 4)
    zonal = grid.build_sphere_pieces(n, 0, radii, 16, "zonal", np.eye(n)[0])
    _, w = grid._full_directions(n, 4)
    _, wt = gauss_gegenbauer(16, (n - 2) / 2)
    for i, r in enumerate(radii):
        assert same_bits(full.rule(i).weights, float(r) ** (n - 1) * w)
        factor = unit_sphere_area(n - 1) * float(r) ** (n - 1)
        assert same_bits(zonal.rule(i).weights, factor * wt)


def two_columns(p):
    return np.sin(p[:, 0]) ** 2 + np.exp(-np.abs(p[:, 1])), np.cos(p[:, -1])


def materialized_sums(rule, f):
    """Reference: the evaluator before rules were streamed.  Materialize the
    rule's nodes and weights, take one ``np.dot`` per ``_CHUNK`` span of
    ``f(nodes[a:b])`` and sum the span partials with ``np.sum``."""
    nodes, weights = rule.nodes, rule.weights
    partials = []
    for a in range(0, len(nodes), grid._CHUNK):
        b = min(a + grid._CHUNK, len(nodes))
        partials.append([float(np.dot(weights[a:b], v)) for v in f(nodes[a:b])])
    return [float(np.sum(np.asarray(col))) for col in zip(*partials)]


def assert_same_float(got, want):
    assert got == want  # bit for bit
    assert np.signbit(got) == np.signbit(want)


@pytest.mark.parametrize("threads", [1, 2])
def test_integrate_pieces_matches_materialized_reference(threads):
    # n = 4 full shells of order 32 hold 110,592 nodes (over _CHUNK); the
    # radial and zonal pieces share blocks; the last set mixes pieces over
    # _CHUNK, between _BLOCK_NODES and _CHUNK, and below _BLOCK_NODES
    n, c = 4, np.array([0.1, -0.2, 0.0, 0.3])
    regions = [(0.0, 0.3), (0.3, 0.5), (0.5, 4.0)]
    mixed = [(0.0, 0.05), (0.05, 0.2), (0.2, 2.1), (0.0, 0.7)]
    mixed_panels = [geometric_panels(0.0, 0.05, 1e-18), None, doubling_panels(0.2, 2.1),
                    [0.1 * k for k in range(1, 7)]]
    sets = [grid.build_shell_pieces(n, c, regions, 32),
            grid.build_shell_pieces(n, c, regions * 8, 32, "radial"),
            grid.build_shell_pieces(n, c, regions * 8, 12, "zonal", np.ones(n)),
            grid.build_sphere_pieces(n, c, np.geomspace(0.1, 2.0, 30), 64, "zonal",
                                     np.ones(n)),
            grid.build_shell_pieces(3, c[:3], mixed, 12, angular_order=8,
                                    radial_panels=mixed_panels)]
    assert max(sets[0].sizes) > grid._CHUNK
    sizes = sets[-1].sizes
    assert sizes.max() > grid._CHUNK and sizes.min() <= grid._BLOCK_NODES
    assert ((sizes > grid._BLOCK_NODES) & (sizes <= grid._CHUNK)).any()
    for pieces in sets:
        got = grid.integrate_pieces(pieces, two_columns, threads)
        assert got.shape == (len(pieces), 2)
        for i in range(len(pieces)):
            want = materialized_sums(pieces.rule(i), two_columns)
            for j in range(2):
                assert_same_float(got[i, j], want[j])


def full_rules(n):
    """Full ball, annulus and sphere rules about an off-origin center, each
    over _BLOCK_NODES and most over _CHUNK (the n = 6 ball, in ten radial
    panels, has 32 spans)."""
    c = np.linspace(-0.2, 0.3, n)
    sphere_order = {3: 200, 4: 48, 5: 16, 6: 10}[n]
    ball_panels = [0.1 * k for k in range(1, 10)] if n == 6 else None
    return [build_ball_rule(n, c, 1.0, order=32, radial_panels=ball_panels),
            build_annulus_rule(n, c, 0.3, 1.2, order=24, radial_panels=[0.5, 0.8]),
            build_sphere_rule(n, c, 0.7, order=sphere_order)]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_integrate_streams_full_rules_bit_identically(n):
    for rule in full_rules(n):
        assert len(rule) > grid._BLOCK_NODES
        got = [integrate(rule, lambda p: two_columns(p)[0], threads) for threads in (1, 2)]
        assert "_materialized" not in vars(rule)  # integrate built no whole node array
        want = materialized_sums(rule, lambda p: two_columns(p)[:1])[0]
        for g in got:
            assert_same_float(g, want)
    assert -(-len(full_rules(6)[0]) // grid._CHUNK) == 32


def test_rule_length_comes_from_the_factors():
    rule = build_ball_rule(6, 0, 1.0, order=32, radial_panels=[0.1 * k for k in range(1, 10)])
    assert len(rule) == 320 * 6352
    assert "_materialized" not in vars(rule)
    assert rule.kind == "ball" and rule.radii == (0.0, 1.0)
    assert build_annulus_rule(3, 0, 0.5, 1.0, order=4).kind == "annulus"
    assert build_sphere_rule(3, 0, 0.5, order=4).radii == (0.5, 0.5)


@pytest.mark.parametrize("n, symmetry, order, panels", [
    (6, "full", 32, None), (4, "full", 9, [0.2, 0.5]), (3, "full", 32, None),
    (3, "zonal", 48, geometric_panels(0.0, 1.0, 1e-18)),
    (5, "radial", 200, geometric_panels(0.0, 1.0, 1e-18))])
def test_node_ranges_equal_the_broadcast_product(n, symmetry, order, panels):
    # reference: every node of the set as one broadcast product of its factors
    pieces = grid.build_shell_pieces(n, np.linspace(-0.3, 0.4, n), [(0.0, 1.0)], order,
                                     symmetry, np.ones(n), radial_panels=[panels])
    nodes = (pieces.center + pieces.s[:, None, None]
             * pieces.directions[None, :, :]).reshape(-1, n)
    # a radial or zonal set's half-plane rows (a, b): the same product of
    # its factors in two coordinates
    plane = (pieces.s[:, None, None] * pieces.dirs[None, :, :]).reshape(-1, pieces.dirs.shape[1])
    weights = (pieces.radial_weights[:, None] * pieces.dir_weights[None, :]).reshape(-1)
    got_nodes, got_weights = pieces.block(0, 1)
    assert same_bits(got_nodes, nodes) and same_bits(got_weights, weights)
    m, size = len(pieces.dir_weights), len(weights)
    rng = np.random.default_rng(n)
    starts = [0, m - 1, m, size - grid._BLOCK_NODES] + list(rng.integers(0, size, 40))
    for c in starts:
        for d in (c + 1, c + m, c + grid._BLOCK_NODES, c + rng.integers(1, 3 * m + 2)):
            d = min(int(d), size)
            got_nodes, got_weights = pieces.node_range(int(c), d)
            assert same_bits(got_nodes, nodes[c:d])
            assert same_bits(got_weights, weights[c:d])
            if symmetry != "full":
                got_plane, got_weights = pieces.plane_range(int(c), d)
                assert same_bits(got_plane, plane[c:d])
                assert same_bits(got_weights, weights[c:d])


def test_integrate_never_returns_negative_zero():
    # the span sum maps -0.0 to 0.0; a lone small piece keeps that, also
    # with one node, where np.dot returns the product -0.0 itself
    def negative_zero(p):
        return -np.zeros(len(p))

    one_node = grid.build_sphere_pieces(3, 0, [1.0], 1, "zonal", [1.0, 0.0, 0.0]).rule(0)
    assert len(one_node) == 1
    for rule in (one_node, build_ball_rule(3, 0, 1.0, order=4),
                 build_ball_rule(4, 0, 1.0, order=32)):
        assert_same_float(integrate(rule, negative_zero), 0.0)
        assert_same_float(materialized_sums(rule, lambda p: (negative_zero(p),))[0], 0.0)


@pytest.mark.parametrize("threads", [1, 2])
def test_streamed_rule_reports_the_nonfinite_node(threads):
    # NaN beyond |x| = 0.9 on the n = 6 ball: about a shifted center, the
    # first bad node sits inside a block, not at a span or block start
    n = 6
    rule = build_ball_rule(n, np.full(n, 0.01), 1.0, order=32)

    def bad(p):
        out = np.ones(len(p))
        out[np.linalg.norm(p, axis=1) > 0.9] = np.nan
        return out

    with pytest.raises(NonFiniteFieldError) as exc:
        integrate(rule, bad, threads)
    first = int(np.flatnonzero(np.linalg.norm(rule.nodes, axis=1) > 0.9)[0])
    assert first % grid._BLOCK_NODES != 0 and first > grid._CHUNK
    assert same_bits(exc.value.node, rule.nodes[first])


def test_integrate_pieces_reports_nonfinite_node():
    pieces = grid.build_shell_pieces(3, 0, [(0.0, 0.5), (0.5, 1.0)], 4)

    def bad(p):
        out = np.ones(len(p))
        out[np.linalg.norm(p, axis=1) > 0.9] = np.nan
        return (out,)

    with pytest.raises(NonFiniteFieldError) as exc:
        grid.integrate_pieces(pieces, bad)
    assert np.linalg.norm(exc.value.node) > 0.9


def test_piece_validation_catches_one_corrupted_weight(monkeypatch):
    # a 1e-6 relative error in one radial weight of the small first ball
    # moves the total weight by ~1e-14 of the total measure, so only a
    # per-piece check against the ball's own measure sees it
    regions = [(0.0, 0.05), (0.05, 5.0)]
    grid.build_shell_pieces(3, 0, regions, 8)
    original = grid._gauss_intervals

    def corrupted(lo, hi, order):
        nodes, weights = original(lo, hi, order)
        weights = weights.copy()
        weights[3] *= 1.0 + 1e-6
        return nodes, weights

    monkeypatch.setattr(grid, "_gauss_intervals", corrupted)
    with pytest.raises(ValueError, match="piece 0"):
        grid.build_shell_pieces(3, 0, regions, 8)
    with pytest.raises(ValueError, match="piece 0"):
        grid.build_shell_pieces(3, 0, regions, 8, "zonal", [1.0, 0.0, 0.0])


def test_piece_validation_catches_a_node_off_its_region():
    spheres = grid.build_sphere_pieces(3, 0, [0.5, 1.0, 2.0], 8)
    s = spheres.s.copy()
    s[1] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="off the sphere"):
        replace(spheres, s=s).validate()
    shells = grid.build_shell_pieces(3, 0, [(0.0, 0.5), (0.5, 1.0)], 8, "radial")
    s = shells.s.copy()
    s[0] = 0.6  # a node of the first ball placed in the second shell
    with pytest.raises(ValueError, match="outside the region"):
        replace(shells, s=s).validate()
    w = shells.radial_weights.copy()
    w[-1] = -w[-1]
    with pytest.raises(ValueError, match="positive"):
        replace(shells, radial_weights=w).validate()


def full_shells():
    # n = 5 at angular order 8: the cached fully symmetric factor
    return grid.build_shell_pieces(5, 0, [(0.0, 0.5), (0.5, 1.0)], 8)


def zonal_shells():
    return grid.build_shell_pieces(3, 0, [(0.0, 0.5), (0.5, 1.0)], 8, "zonal", [0.0, 0.6, 0.8])


def zonal_spheres():
    return grid.build_sphere_pieces(3, 0, [0.5, 1.0], 8, "zonal", [0.0, 0.6, 0.8])


# hand-built piece sets that each break one check: entry ``index`` of the
# array ``name`` times ``factor``; the builders' cached angular facts must
# not let any of them through
BAD_HAND_BUILT = {
    "zero-radial-weight": (full_shells, "radial_weights", 3, 0.0,
                           "all quadrature weights must be positive"),
    "negative-zonal-weight": (zonal_shells, "dir_weights", 2, -1.0,
                              "all quadrature weights must be positive"),
    "radial-sum-off-1e-9": (full_shells, "radial_weights", slice(None), 1.0 + 1e-9,
                            "piece 0: weight sum"),
    "full-factor-sum-off-1e-9": (full_shells, "dir_weights", slice(None), 1.0 + 1e-9,
                                 "piece 0: weight sum"),
    "zonal-direction-off-the-sphere": (zonal_spheres, "dirs", 3, 1.0 + 1e-9,
                                       "sphere rule has nodes off the sphere"),
    "short-zonal-direction": (zonal_shells, "dirs", 3, 0.5,
                              "rule has nodes outside the region"),
    # the last radial node of the ball B(0, 0.5), moved to about 0.54
    "node-outside-its-shell": (full_shells, "s", 7, 1.1,
                               "rule has nodes outside the region"),
}


@pytest.mark.parametrize("build, name, index, factor, message", BAD_HAND_BUILT.values(),
                         ids=BAD_HAND_BUILT.keys())
def test_cached_angular_facts_cannot_hide_a_bad_rule(build, name, index, factor, message):
    # the builders take a cached factor's smallest weight, weight sum and
    # direction lengths from _checked_factor; validate computes them from
    # the set's own arrays, and every radial check runs on every call
    pieces = build()
    a = getattr(pieces, name).copy()
    a[index] *= factor
    with pytest.raises(ValueError, match=message):
        replace(pieces, **{name: a}).validate()


@pytest.mark.parametrize("symmetry, n, order, build", [
    ("full", 5, 8, lambda: grid.build_shell_pieces(5, 0, [(0.0, 1.0)], 8)),
    ("full", 3, 4, lambda: grid.build_sphere_pieces(3, 0, [1.0, 2.0], 4)),
    ("radial", 4, 0, lambda: grid.build_shell_pieces(4, 0, [(0.0, 1.0)], 8, "radial")),
])
def test_cached_angular_facts_are_those_of_the_factor(symmetry, n, order, build):
    pieces = build()
    dirs, weights, facts = grid._checked_factor(symmetry, n, order)
    assert pieces.dirs is dirs and pieces.dir_weights is weights
    assert facts == grid._factor_facts(dirs, weights)
    misses = grid._checked_factor.cache_info().misses
    build()
    assert grid._checked_factor.cache_info().misses == misses  # computed once


def test_zonal_shell_weights_are_cached_with_their_facts():
    # the directions are built per axis; the weights do not depend on it
    for axis in ([1.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.9, 0.1]):
        pieces = grid.build_shell_pieces(4, 0, [(0.0, 1.0)], 8, "zonal", axis)
        weights, facts = grid._zonal_weights(4, 48)
        assert pieces.dir_weights is weights and not weights.flags.writeable
    assert same_bits(weights, gauss_gegenbauer(48, 1.0)[1] * unit_sphere_area(3))
    assert facts == grid._weight_facts(weights)


def test_a_bad_factor_is_refused_when_its_facts_are_cached(monkeypatch):
    # the cached facts are computed from the factor itself, so a factor
    # that fails a check fails it on its first build and on every later one
    dirs, weights = grid._full_directions(3, 5)
    monkeypatch.setattr(grid, "_full_directions",
                        lambda n, order: (dirs, weights * (1.0 + 1e-9)))
    grid._checked_factor.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(ValueError, match="piece 0: weight sum"):
                grid.build_shell_pieces(3, 0, [(0.0, 1.0)], 8, angular_order=5)
    finally:
        grid._checked_factor.cache_clear()


# ---------------------------------------------------------------------------
# fully symmetric sphere rules (the full shell layout at n >= 5)
# ---------------------------------------------------------------------------


def sphere_monomial(exponents):
    """Integral of x^exponents over S^(n-1), from the Gamma formula."""
    if any(a % 2 for a in exponents):
        return 0.0
    logs = sum(scipy.special.gammaln((a + 1) / 2) for a in exponents)
    return 2.0 * np.exp(logs - scipy.special.gammaln((sum(exponents) + len(exponents)) / 2))


@st.composite
def monomials(draw):
    """(n, degree, exponents): a symmetric rule of degree 2 ang - 1 at
    n = 5..8 and a monomial of total degree at most that."""
    n = draw(st.integers(5, 8))
    degree = 2 * draw(st.integers(1, 8)) - 1
    total = draw(st.integers(0, degree))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    return n, degree, np.diff([0] + cuts + [total])


@given(monomials())
@settings(max_examples=300, deadline=None)
def test_symmetric_rule_integrates_monomials_exactly(case):
    n, degree, exponents = case
    dirs, weights = grid.symmetric_sphere_directions(n, degree)
    got = float(weights @ np.prod(dirs ** exponents, axis=1))
    want = sphere_monomial(exponents)
    if want:
        assert abs(got / want - 1.0) <= 1e-12
    else:
        assert abs(got) <= 1e-13 * unit_sphere_area(n)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_symmetric_rules_have_positive_weights_summing_to_the_area(n):
    for ang in range(1, 9):
        dirs, weights = grid.symmetric_sphere_directions(n, 2 * ang - 1)
        assert weights.min() > 0
        assert weights.sum() == pytest.approx(unit_sphere_area(n), rel=1e-13)
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() < 1e-15
        assert not dirs.flags.writeable and not weights.flags.writeable


def test_symmetric_rule_is_invariant_under_permutations_and_sign_changes():
    dirs, weights = grid.symmetric_sphere_directions(6, 15)

    def table(d):  # the rule's (point, weight) rows in one order; -0.0 read as 0.0
        rows = np.column_stack([d + 0.0, weights])
        return rows[np.lexsort(rows.T[::-1])]

    for image in (dirs[:, [1, 0, 2, 3, 4, 5]], dirs[:, ::-1], dirs * [1, -1, 1, 1, -1, 1]):
        assert np.array_equal(table(image), table(dirs))


def test_full_shell_layouts_take_the_small_symmetric_rule_at_n_5_and_up():
    # at angular order 8 (degree 15): 2,002 directions at n = 5 against the
    # product rule's 8,192, and 6,352 at n = 6 against 65,536
    for n, count, product in ((5, 2002, 8192), (6, 6352, 65536)):
        pieces = grid.build_shell_pieces(n, 0, [(0.0, 1.0), (1.0, 2.0)], 32)
        assert len(pieces.dir_weights) == count
        assert len(grid.unit_sphere_directions(n, 8)[1]) == product
        assert pieces.dirs is grid.symmetric_sphere_directions(n, 15)[0]  # cached
    # the product rule stays at n = 3, 4 and above angular order 8, full
    # sphere pieces take the shells' rule, and the zonal and radial layouts
    # keep their own
    for n, ang in ((3, 8), (4, 8), (6, 9)):
        pieces = grid.build_shell_pieces(n, 0, [(0.0, 1.0)], 32, angular_order=ang)
        assert same_bits(pieces.dirs, grid.unit_sphere_directions(n, ang)[0])
    sphere = grid.build_sphere_pieces(6, 0, [1.0], 8)
    assert sphere.dirs is grid.symmetric_sphere_directions(6, 15)[0]


def unique_panel_edges(inner, outer, panels):
    """Reference break radii: np.unique of the ends and the breaks,
    clipped to [inner, outer]."""
    edges = np.unique(np.concatenate([[inner, outer], np.asarray(panels, dtype=float)]))
    return edges[(edges >= inner) & (edges <= outer)]


@pytest.mark.parametrize("inner, outer, panels", [
    (0.0, 1.0, [0.1, 0.2, 0.5]),
    (0.0, 1.0, [0.5, 0.1, 0.2]),
    (0.0, 1.0, [0.2, 0.1, 0.2, 0.5, 0.5]),
    (0.5, 1.0, [-1.0, 0.25, 0.75, 3.0, 0.6]),
    (0.5, 1.0, [0.5, 0.7, 1.0]),
    (0.0, 1.0, [1.0]),
    (0.0, 1.0, np.array([0.3, 0.6])),
    (0.0, 1.0, []),
    (1.0, 2.0, geometric_panels(1.0, 2.0, 1e-20)),
    (0.0, 1.0, geometric_panels(0.0, 1.0, 1e-19)),
], ids=["presorted", "unsorted", "duplicated", "outside", "equal-ends", "outer-only",
        "array", "empty", "below-one-ulp", "geometric"])
def test_panel_edges_match_unique_semantics_bit_for_bit(inner, outer, panels):
    # presorted breaks inside (inner, outer) skip np.unique; every other
    # list must still give np.unique's edges, and the same pieces
    edges = unique_panel_edges(inner, outer, panels)
    pieces = grid.build_shell_pieces(3, 0, [(inner, outer), (inner, outer)], 6,
                                     radial_panels=[panels, None])
    s, ws = grid._gauss_intervals(np.append(edges[:-1], inner),
                                  np.append(edges[1:], outer), 6)
    assert same_bits(pieces.s, s)
    assert same_bits(pieces.radial_weights, ws * s ** 2)
    assert pieces.bounds.tolist() == [0, 6 * (len(edges) - 1), 6 * len(edges)]
    assert same_bits(np.array(grid._panel_edges(inner, outer, panels)), edges)


def test_geometric_breaks_below_one_ulp_repeat_inner():
    # the case above that presorted breaks must not be mistaken for
    panels = geometric_panels(1.0, 2.0, 1e-20)
    assert panels[0] == panels[1] == 1.0 and panels[-1] > 1.0


def doubling_loop_panels(inner, outer, finest):
    """Reference: ``geometric_panels`` as a loop of doublings."""
    if finest is None or not np.isfinite(finest) or finest <= 0:
        return None
    if finest >= (outer - inner) / 4:
        return None
    edges = []
    h = finest / 4
    while inner + h < outer and len(edges) < 80:
        edges.append(inner + h)
        h *= 2.0
    return edges


def generator_panel_edges(inner, outer, panels):
    """Reference: ``_panel_edges`` with its rise check as a generator."""
    if panels is None:
        return [inner, outer]
    breaks = [float(p) for p in panels]
    edges = [inner, *breaks, outer]
    if all(a < b for a, b in zip(edges, edges[1:])):
        return edges
    for p in breaks:
        if not np.isfinite(p):
            raise ValueError(f"radial panel break must be finite, got {p}")
    edges = np.unique(np.array([inner, outer, *breaks]))
    return edges[(edges >= inner) & (edges <= outer)].tolist()


def hexes(values):
    return None if values is None else [float(v).hex() for v in values]


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def shells_and_scales(draw):
    inner, outer = sorted(draw(st.lists(finite, min_size=2, max_size=2, unique=True)))
    return inner, outer, draw(st.floats(1e-22, 1.0))


@given(shells_and_scales(), st.lists(st.floats(allow_infinity=True), max_size=6))
@example((0.0, 1.0, 2.0**-20), [])  # a doubling lands on outer exactly
@example((1.0, 2.0, 1e-20), [0.5, 1.0, float("nan")])  # breaks below one ulp of inner
@settings(max_examples=500, deadline=None)
def test_panels_without_loops_equal_the_loops_bit_for_bit(shell, breaks):
    inner, outer, finest = shell
    panels = geometric_panels(inner, outer, finest)
    assert hexes(panels) == hexes(doubling_loop_panels(inner, outer, finest))
    for p in (panels, breaks, sorted(breaks), None):
        try:
            want = hexes(generator_panel_edges(inner, outer, p))
        except ValueError as refusal:
            with pytest.raises(ValueError, match=f"^{re.escape(str(refusal))}$"):
                grid._panel_edges(inner, outer, p)
        else:
            assert hexes(grid._panel_edges(inner, outer, p)) == want


@pytest.mark.parametrize("arrays", [
    lambda: grid._polar_nodes(4, 12),
    lambda: grid._radial_direction(5),
], ids=["polar-nodes", "radial-direction"])
def test_cached_angular_factors_are_read_only(arrays):
    first = arrays()
    assert all(a is b for a, b in zip(first, arrays()))  # cached
    for arr in first:
        with pytest.raises(ValueError):
            arr[0] = 1.0
        with pytest.raises(ValueError):
            arr *= 2.0


def test_cached_polar_nodes_equal_the_gegenbauer_arc():
    t, wt = gauss_gegenbauer(12, 1.0)
    got_t, got_sin, got_w = grid._polar_nodes(4, 12)
    assert same_bits(got_t, t) and same_bits(got_w, wt)
    assert same_bits(got_sin, np.sqrt(np.clip(1.0 - t**2, 0.0, None)))
    dirs, weights = grid._radial_direction(4)
    assert same_bits(dirs, np.eye(4)[:1]) and same_bits(weights, np.ones(1))


NONFINITE_GEOMETRY = {
    "nan-inner": (lambda: grid.build_shell_pieces(3, 0, [(np.nan, 1.0)], 4),
                  r"need 0 <= inner < outer, got \(nan, 1.0\)"),
    "inf-outer": (lambda: grid.build_shell_pieces(3, 0, [(0.0, np.inf)], 4),
                  "radius must be finite and > 0, got inf"),
    "inf-sphere": (lambda: grid.build_sphere_pieces(3, 0, [np.inf], 4),
                   "radius must be finite and > 0, got inf"),
    "inf-center": (lambda: build_ball_rule(3, [np.inf, 0, 0], 1.0, 4),
                   r"center must be finite, got \[inf, 0.0, 0.0\]"),
    "nan-break": (lambda: grid.build_shell_pieces(3, 0, [(0.0, 1.0)], 4, radial_panels=[[np.nan]]),
                  "radial panel break must be finite, got nan"),
    "inf-break": (lambda: build_ball_rule(3, 0, 1.0, 4, radial_panels=[0.5, np.inf]),
                  "radial panel break must be finite, got inf"),
    "nan-axis": (lambda: grid.build_shell_pieces(3, 0, [(0.0, 1.0)], 4, "zonal", [np.nan, 0, 0]),
                 "axis must be finite and nonzero"),
    "zero-axis": (lambda: grid.build_sphere_pieces(3, 0, [1.0], 4, "zonal", np.zeros(3)),
                  "axis must be finite and nonzero"),
}


@pytest.mark.parametrize("build, message", NONFINITE_GEOMETRY.values(),
                         ids=NONFINITE_GEOMETRY.keys())
def test_builders_refuse_nonfinite_geometry(build, message):
    # a NaN or inf region, center, break or axis would build NaN nodes that
    # pass validation and surface at integration, blaming the field
    with pytest.raises(ValueError, match=message):
        build()


def test_ball_energy_refuses_an_infinite_radius_before_integrating():
    u = Bubble(3, np.zeros(3), 0.1)
    with pytest.raises(ValueError, match="radius must be finite") as caught:
        bubbling_energy(u, np.zeros(3), np.inf)
    assert not isinstance(caught.value, NonFiniteFieldError)


LAYOUTS = {
    "full": lambda: grid.build_shell_pieces(4, [0.1, -0.2, 0.3, 0.05],
                                            [(0.0, 0.5), (0.5, 1.0)], 12),
    "zonal-generic-axis": lambda: grid.build_shell_pieces(
        5, [0.3, 0.2, 0.1, 0.0, -0.1], [(0.0, 1.0), (0.2, 2.0)], 16, "zonal",
        [0.3, 0.2, 0.1, 0.0, 0.4]),
    "radial": lambda: grid.build_shell_pieces(3, [0.5, 0.0, -1.0], [(0.0, 1.0)], 64, "radial",
                                              radial_panels=[[0.25, 0.5]]),
    "sphere": lambda: grid.build_sphere_pieces(6, np.linspace(-0.5, 0.5, 6), [0.5, 1.0], 6),
}


@pytest.mark.parametrize("build", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_node_blocks_are_coordinate_major_and_fields_keep_their_layout(build):
    # fields get the (N, n) transpose of a coordinate-major block, so each
    # per-node coordinate sum runs over contiguous columns; a field kernel
    # that makes a C-order copy would lose that, and block and node_range
    # disagreeing on the layout would change sums in the last bit
    pieces = build()
    n, m = pieces.dimension, len(pieces.dir_weights)
    size = int(pieces.sizes.sum())
    nodes, weights = pieces.block(0, len(pieces))
    c, d = m // 2 + 1, size - 1  # c in the middle of the first row
    ranged, ranged_weights = pieces.node_range(c, d)
    for got, rows in ((nodes, size), (ranged, d - c)):
        assert got.shape == (rows, n) and got.flags.f_contiguous
    assert same_bits(ranged, nodes[c:d]) and same_bits(ranged_weights, weights[c:d])
    bubble = Bubble(n, np.full(n, 0.1), 0.3)
    fields = (bubble, Superposition([bubble, Bubble(n, np.zeros(n), 0.05, -1.0)], [1.0, 0.5]))
    for u in fields:
        for points in (nodes, ranged):
            value, gradient = u.value_and_gradient(points)
            assert value.shape == (len(points),)
            assert gradient.shape == points.shape and gradient.flags.f_contiguous


@pytest.mark.parametrize("n, angular_order", [(3, 8), (4, 12), (5, 8), (6, 4), (6, 9)])
def test_full_factors_are_coordinate_major_and_either_order_gives_the_same_bits(
        n, angular_order):
    # node_range reads one coordinate of every direction at a time: the
    # cached full factors keep those columns contiguous, and a set on a
    # C-ordered copy of the factor builds the same nodes, weights and sums
    dirs, weights = grid._full_directions(n, angular_order)
    assert dirs.flags.f_contiguous and not dirs.flags.writeable
    pieces = grid.build_shell_pieces(n, np.linspace(-0.3, 0.4, n), [(0.0, 0.5), (0.5, 1.0)],
                                     6, angular_order=angular_order)
    assert pieces.dirs is dirs
    copy = replace(pieces, dirs=np.ascontiguousarray(dirs))
    assert copy.dirs.flags.c_contiguous
    size = int(pieces.sizes.sum())
    m = len(weights)
    for c, d in ((0, size), (m // 2 + 1, size - 1), (m, 3 * m + 5)):
        for a, b in zip(pieces.node_range(c, d), copy.node_range(c, d)):
            assert same_bits(a, b)
    for a, b in zip(pieces.block(0, 2), copy.block(0, 2)):
        assert same_bits(a, b)

    def two_columns(p):
        return np.einsum("ij,ij->i", p, p), np.cos(p[:, 0]) * p[:, -1]

    assert same_bits(grid.integrate_pieces(pieces, two_columns),
                     grid.integrate_pieces(copy, two_columns))
