import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bubblelab import grid
from bubblelab.grid import (
    NonFiniteFieldError,
    RadialGrid,
    build_ball_rule,
    integrate,
    integrate_pieces,
    unit_ball_volume,
    unit_sphere_area,
)
from bubblelab.concentration import bubbling_energy
from bubblelab.monotonicity import profile
from bubblelab.fields import (
    Bubble,
    _energy_density,
    _finest_scale,
    _integrate_density,
    _layout,
    ball_rule_for,
    sphere_rule_for,
    BubbleConfiguration,
    ConstantField,
    CustomField,
    RescaledField,
    ScalarField,
    Superposition,
    aubin_talenti,
    gradient,
    laplacian,
    pde_residual,
    pohozaev_report,
    shell_pieces_for,
    sphere_pieces_for,
)


def random_ball_points(rng, n, radius, count):
    pts = rng.standard_normal((count, n))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts * (radius * rng.random(count) ** (1 / n))[:, None]


# ---------------------------------------------------------------------------
# the closed-form profile
# ---------------------------------------------------------------------------


def test_profile_value_at_origin_n3():
    u = aubin_talenti(3)
    assert u(np.zeros(3)) == pytest.approx(3 ** 0.25, rel=1e-14)


def test_profile_value_n4_unit_radius():
    u = aubin_talenti(4)
    assert u(np.array([1.0, 0, 0, 0])) == pytest.approx(np.sqrt(8) / 2, rel=1e-14)


def test_profile_scaling_covariance():
    u = aubin_talenti(3, delta=2.0)
    assert u(np.zeros(3)) == pytest.approx(2 ** -0.5 * 3 ** 0.25, rel=1e-14)


def test_rejects_bad_scale_and_dimension():
    with pytest.raises(ValueError):
        aubin_talenti(3, delta=0.0)
    with pytest.raises(ValueError):
        aubin_talenti(2)


@pytest.mark.parametrize("center, scale, message", [
    (np.zeros(3), math.inf, "bubble scale must be finite and > 0, got inf"),
    (np.zeros(3), math.nan, "bubble scale must be finite and > 0, got nan"),
    ([math.nan, 0, 0], 1.0, r"bubble center must be finite, got \[nan, 0.0, 0.0\]"),
    ([0, -math.inf, 0], 1.0, r"bubble center must be finite, got \[0.0, -inf, 0.0\]"),
], ids=["infinite-scale", "nan-scale", "nan-center", "infinite-center"])
def test_bubble_refuses_non_finite_scale_and_center(center, scale, message):
    # refused at construction, not as the zero field or a non-finite integrand
    with pytest.raises(ValueError, match=message):
        Bubble(3, center, scale)
    with pytest.raises(ValueError, match=message):
        aubin_talenti(3, scale, center)


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------


def test_gradient_of_constant_is_zero():
    u = ConstantField(3, 7.0)
    assert np.allclose(gradient(u, np.ones(3)), 0.0)


def test_gradient_of_coordinate():
    u = CustomField(3, lambda p: p[:, 0])
    g = gradient(u, np.array([0.3, -0.2, 1.0]))
    assert g == pytest.approx([1.0, 0.0, 0.0], abs=1e-9)


def test_bubble_gradient_closed_form_vs_fd():
    n = 3
    u = aubin_talenti(n)
    x = np.array([1.0, 0.0, 0.0])
    analytic = gradient(u, x)
    expected = -(n - 2) * x * u(x) / (1 + np.dot(x, x))
    assert np.allclose(analytic, expected, atol=1e-14)
    fd = gradient(u, x, h=1e-5)
    assert np.allclose(fd, expected, atol=1e-6)


def test_laplacian_of_quadratic():
    u = CustomField(3, lambda p: np.einsum("ij,ij->i", p, p))
    assert laplacian(u, np.array([0.2, 0.4, -0.1])) == pytest.approx(6.0, abs=1e-5)


def test_laplacian_of_mixed_product():
    u = CustomField(3, lambda p: p[:, 0] * p[:, 1])
    assert laplacian(u, np.ones(3)) == pytest.approx(0.0, abs=1e-6)


def test_bubble_laplacian_at_origin_forced_by_pde():
    u = aubin_talenti(3)
    assert laplacian(u, np.zeros(3)) == pytest.approx(-(3 ** 1.25), rel=1e-13)


def test_analytic_gradient_matches_fd_order_two():
    rng = np.random.default_rng(11)
    u = aubin_talenti(4, delta=0.7, y=[0.2, 0, 0, 0])
    pts = random_ball_points(rng, 4, 2.0, 20)
    exact = u.gradient(pts)
    errs = []
    for h in (1e-2, 5e-3):
        errs.append(np.max(np.abs(u.gradient(pts, h=h) - exact)))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.8


# ---------------------------------------------------------------------------
# pointwise residual
# ---------------------------------------------------------------------------


def test_residual_zero_field():
    assert pde_residual(ConstantField(3, 0.0), np.zeros(3)) == 0.0


def test_residual_constant_one():
    assert pde_residual(ConstantField(3, 1.0), np.ones(3)) == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("n", [3, 5])
def test_bubble_residual_analytic(n):
    rng = np.random.default_rng(n)
    u = aubin_talenti(n, delta=0.5, y=[0.1] + [0.0] * (n - 1))
    pts = random_ball_points(rng, n, 5.0, 100)
    assert np.max(np.abs(pde_residual(u, pts))) < 1e-10


def test_numeric_residual_convergence_order():
    u = aubin_talenti(3)
    rng = np.random.default_rng(5)
    pts = random_ball_points(rng, 3, 5.0, 40)
    # strip the analytic laplacian so the finite-difference path is exercised
    v = CustomField(3, u.evaluate)
    sups = [np.max(np.abs(pde_residual(v, pts, h=h))) for h in (1e-2, 5e-3)]
    assert np.log2(sups[0] / sups[1]) >= 1.8


# ---------------------------------------------------------------------------
# superpositions and rescaling
# ---------------------------------------------------------------------------


def test_superposition_sums_parts():
    a = aubin_talenti(3, 1.0)
    b = aubin_talenti(3, 0.25, y=[0.5, 0, 0])
    s = Superposition([a, b], [2.0, -1.0])
    pts = np.array([[0.1, 0.2, 0.3]])
    assert s.evaluate(pts)[0] == pytest.approx(
        2 * a.evaluate(pts)[0] - b.evaluate(pts)[0], rel=1e-14
    )
    centers, scales, opaque = s.radial_parts
    assert centers.tolist() == [[0, 0, 0], [0.5, 0, 0]]
    assert scales.tolist() == [1.0, 0.25] and not opaque
    assert _finest_scale(s) == 0.25
    assert _finest_scale(s, np.zeros(3)) == 1.0
    assert _finest_scale(s, [0.2, 0, 0]) is None
    assert _layout(s, [0.2, 0, 0]) == ("zonal", pytest.approx([1, 0, 0]))
    assert _layout(s, [0.2, 0.1, 0]) == ("full", None)
    tower = BubbleConfiguration(
        [Bubble(3, np.zeros(3), 1.0), Bubble(3, np.zeros(3), 0.1)]
    )
    assert _layout(tower, np.zeros(3)) == ("radial", None)
    assert _finest_scale(tower) == _finest_scale(tower, np.zeros(3)) == 0.1
    # a constant is radial about every point and has no scale
    with_constant = Superposition([ConstantField(3, 2.0), b])
    assert _finest_scale(with_constant) == 0.25
    assert _finest_scale(ConstantField(3, 2.0)) is None
    assert _layout(with_constant, [0.2, 0, 0]) == ("zonal", pytest.approx([1, 0, 0]))
    # rescaling maps centers and scales
    centers, scales, opaque = RescaledField(s, [0.5, 0, 0], 0.5).radial_parts
    assert centers.tolist() == [[-1, 0, 0], [0, 0, 0]]
    assert scales.tolist() == [2.0, 0.5] and not opaque
    assert Superposition([s, CustomField(3, a.evaluate)]).radial_parts[2]


@pytest.mark.parametrize("center", [
    pytest.param([0.0, 0.0, 0.0], id="origin"),
    pytest.param([0.3, -0.2, 0.1], id="off-origin"),
])
def test_one_part_rule_selection_matches_the_several_part_path(center):
    # a one-part field skips the comparison of centers; the same part twice
    # takes the several-part path, and both choose bit for bit the same
    one = Bubble(3, center, 0.01)
    two = Superposition([one, one])
    c = np.asarray(center, dtype=float)
    probes = [c, c + [5e-13, 0, 0], c + [2e-12, 0, 0], c + [1e-15, 0, 0],
              c + [0.1, 0.2, 0], np.zeros(3), np.array([0.1, -0.4, 0.7])]
    for x in probes:
        (sym_one, axis_one), (sym_two, axis_two) = _layout(one, x), _layout(two, x)
        assert sym_one == sym_two
        assert (axis_one is None) == (axis_two is None)
        if axis_one is not None:
            assert axis_one.tobytes() == axis_two.tobytes()
        assert _finest_scale(one, x) == _finest_scale(two, x)
    assert _finest_scale(one) == _finest_scale(two) == 0.01
    constant = ConstantField(3, 1.0)
    assert _finest_scale(constant, np.zeros(3)) is None
    assert _finest_scale(Superposition([constant, constant]), np.zeros(3)) is None


def test_nested_superposition_takes_the_flat_layout():
    # every leaf center and the probe lie on the x_1 axis: the nested sum
    # is zonal about it, like the flat one
    a = Bubble(3, [0.0, 0, 0], 0.3)
    b = Bubble(3, [0.3, 0, 0], 0.2)
    c = Bubble(3, [-0.2, 0, 0], 0.4)
    nested = Superposition([Superposition([a, b]), c])
    flat = Superposition([a, b, c])
    x = np.array([0.1, 0, 0])
    symmetry, axis = _layout(nested, x)
    assert symmetry == "zonal"
    assert _layout(flat, x) == (symmetry, pytest.approx(axis))
    full = CustomField(3, flat.evaluate, flat.analytic_gradient)
    want = bubbling_energy(full, x, 0.8, 48)
    for u in (nested, flat):
        assert bubbling_energy(u, x, 0.8) == pytest.approx(want, rel=1e-7)


def test_rescaled_bubble_is_standard_profile():
    u = Bubble(3, np.array([0.3, -0.1, 0.0]), 0.02)
    v = RescaledField(u, u.center, u.scale)
    ref = aubin_talenti(3)
    pts = np.random.default_rng(2).standard_normal((50, 3))
    assert np.max(np.abs(v.evaluate(pts) - ref.evaluate(pts))) < 1e-12


def test_conformal_scale_invariance_of_ball_energy():
    # energy over B(0, R*delta) does not depend on delta
    n, R = 3, 3.0
    p = 2 * n / (n - 2)

    def energy(delta):
        u = aubin_talenti(n, delta)
        rule = build_ball_rule(n, 0, R * delta, order=48, angular_order=4)

        def dens(pts):
            g = u.analytic_gradient(pts)
            return np.einsum("mi,mi->m", g, g) + np.abs(u.evaluate(pts)) ** p

        return integrate(rule, dens)

    vals = [energy(d) for d in (1.0, 0.25, 0.0625)]
    assert vals[1] == pytest.approx(vals[0], rel=1e-8)
    assert vals[2] == pytest.approx(vals[0], rel=1e-8)


# ---------------------------------------------------------------------------
# Pohozaev balance
# ---------------------------------------------------------------------------


def test_pohozaev_zero_field():
    assert pohozaev_report(ConstantField(3, 0.0), np.zeros(3), 1.0).residual == 0.0


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_pohozaev_bubble_centered(r):
    rep = pohozaev_report(aubin_talenti(3), np.zeros(3), r)
    assert rep.relative_residual < 1e-6


def test_pohozaev_off_center_probe():
    rep = pohozaev_report(aubin_talenti(3), np.array([0.3, 0.0, 0.0]), 1.0, order=48)
    assert rep.relative_residual < 1e-6


def test_pohozaev_constant_field_closed_forms():
    # every term of the derived identity is a plain measure for u = 1
    n, r, c = 3, 2.0, 1.0
    rep = pohozaev_report(ConstantField(n, c), np.zeros(n), r)
    vol = unit_ball_volume(n) * r**n
    area = unit_sphere_area(n) * r ** (n - 1)
    assert rep.terms["volume_potential"] == pytest.approx((n - 2) / 2 * vol, rel=1e-10)
    assert rep.terms["boundary_potential"] == pytest.approx(
        -(n - 2) / (2 * n) * r * area, rel=1e-10
    )
    assert rep.terms["volume_gradient"] == 0.0
    assert rep.residual == pytest.approx(0.0, abs=1e-10)
    # the printed display drops one factor of r and misses the balance
    assert rep.paper_residual == pytest.approx(
        (n - 2) / 2 * unit_ball_volume(n) * (r**n - r ** (n - 1)), rel=1e-10
    )


def test_pohozaev_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        pohozaev_report(aubin_talenti(3), np.zeros(3), 0.0)


def pohozaev_reference_terms(u, x, r, order, threads):
    """Reference: one field-density integral per moment over
    ``ball_rule_for`` and ``sphere_rule_for``, each moment evaluating the
    field again, in the rule's own layout."""
    n = u.dimension
    p = 2.0 * n / (n - 2)
    ball, sphere = ball_rule_for(u, x, r, order), sphere_rule_for(u, x, r, order)

    def moment(rule, density, threads):
        return float(_integrate_density(
            u, rule.piece, lambda v, g, y: (density(v, g, y),), threads, offsets=True)[0, 0])

    def upow(v, g, y):
        return np.abs(v) ** p

    def gradsq(v, g, y):
        return np.einsum("mi,mi->m", g, g)

    def normsq(v, g, y):
        return np.einsum("mi,mi->m", g, y / r) ** 2

    return {
        "volume_potential": (n - 2) / 2.0 * moment(ball, upow, threads),
        "volume_gradient": -(n - 2) / 2.0 * moment(ball, gradsq, threads),
        "boundary_potential": -(n - 2) / (2.0 * n) * r * moment(sphere, upow, threads),
        "boundary_gradient": 0.5 * r * moment(sphere, gradsq, threads),
        "boundary_normal": -r * moment(sphere, normsq, threads),
    }


def full_rule_bubble(n):
    """A bubble behind plain callables: no symmetry hint, so full rules."""
    b = aubin_talenti(n)
    return CustomField(n, b.evaluate, b.analytic_gradient)


POHOZAEV_CASES = [
    ("centered bubble", lambda: aubin_talenti(3), np.zeros(3), 1.0, 48),
    ("off-center zonal", lambda: aubin_talenti(3), np.array([0.3, 0.0, 0.0]), 1.0, 48),
    ("off-center zonal n=5", lambda: Bubble(5, [0.2, -0.1, 0.0, 0.05, 0.1], 0.3),
     np.full(5, 0.1), 0.8, 32),
    ("full rule n=3", lambda: full_rule_bubble(3), np.array([0.1, 0.0, -0.2]), 1.0, 24),
    ("full rule n=4", lambda: full_rule_bubble(4), np.zeros(4), 1.0, 24),
    ("full rule n=5", lambda: full_rule_bubble(5), np.array([0.1, 0.0, -0.2, 0.0, 0.05]),
     1.0, 32),
    ("full rule n=6", lambda: full_rule_bubble(6), np.zeros(6), 1.0, 24),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", POHOZAEV_CASES, ids=[c[0] for c in POHOZAEV_CASES])
def test_pohozaev_one_pass_matches_per_moment_reference(case, threads):
    _, make, x, r, order = case
    u = make()
    rep = pohozaev_report(u, x, r, order, threads)
    want = pohozaev_reference_terms(u, x, r, order, threads)
    assert rep.terms.keys() == want.keys()
    for key, value in want.items():
        assert rep.terms[key] == value  # bit for bit
        assert np.signbit(rep.terms[key]) == np.signbit(value)


@pytest.mark.parametrize("case", POHOZAEV_CASES, ids=[c[0] for c in POHOZAEV_CASES])
def test_pohozaev_passes_each_node_to_the_field_once(case, monkeypatch):
    # in the layout's own coordinates: the half-plane rows of radial and
    # zonal rules, which a bubble's half_plane kernel takes, else the nodes
    _, make, x, r, order = case
    u = make()
    rules = [ball_rule_for(u, x, r, order), sphere_rule_for(u, x, r, order)]
    plane = isinstance(u, Bubble)
    assert all((rule.symmetry != "full") == plane for rule in rules)
    nodes = np.concatenate([rule.piece.plane_range(0, len(rule))[0] if plane else rule.nodes
                            for rule in rules])
    seen = {}
    half_plane = type(u).half_plane

    def recorded_plane(self, x, e):
        kernel = half_plane(self, x, e)

        def recorded(pts):
            seen.setdefault("half_plane", []).append(np.array(pts))
            return kernel(pts)

        return recorded

    monkeypatch.setattr(type(u), "half_plane", recorded_plane)
    for name in ("evaluate", "analytic_gradient", "value_and_gradient"):
        original = getattr(type(u), name)

        def recorded(self, pts, name=name, original=original):
            seen.setdefault(name, []).append(np.array(pts))
            return original(self, pts)

        monkeypatch.setattr(type(u), name, recorded)
    pohozaev_report(u, x, r, order, threads=1)
    if plane:
        assert set(seen) == {"half_plane"}  # one pass, no n-dimensional call
    else:
        assert "value_and_gradient" in seen
    for name, blocks in seen.items():
        got = np.concatenate(blocks)
        assert got.shape == nodes.shape and got.tobytes() == nodes.tobytes(), name


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_full_sphere_shares_the_angular_factor_of_the_ball_it_bounds(n):
    # a full-layout sphere and the ball it bounds share one cached angular
    # factor at every order
    u, x = full_rule_bubble(n), np.full(n, 0.1)
    for order in (8, 24, 48):
        sphere = sphere_pieces_for(u, x, [0.7], order)
        ball = shell_pieces_for(u, x, [(0.0, 0.7)], order)
        assert sphere.symmetry == ball.symmetry == "full"
        assert sphere.dirs is ball.dirs and sphere.dir_weights is ball.dir_weights


# ---------------------------------------------------------------------------
# one pass for value and gradient
# ---------------------------------------------------------------------------


class ShiftedBubble(Bubble):
    """Evaluated one unit along x_1 from where it claims to sit."""

    def evaluate(self, points):
        return super().evaluate(points - np.eye(self.dimension)[0])


class SteepBubble(Bubble):
    """A bubble whose analytic gradient is doubled."""

    def analytic_gradient(self, points):
        return 2.0 * super().analytic_gradient(points)


class ClippedSum(Superposition):
    def evaluate(self, points):
        return np.minimum(super().evaluate(points), 1.0)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_value_and_gradient_equal_evaluate_and_gradient(n):
    rng = np.random.default_rng(n)
    pts = rng.standard_normal((257, n))
    b = Bubble(n, rng.standard_normal(n), 0.3, -1.0)
    c = Bubble(n, rng.standard_normal(n), 1e-3)
    fields = [
        b,
        Superposition([b, c], [0.7, -1.3]),
        BubbleConfiguration([b, c], [1.0, 2.0]),
        Superposition([Superposition([b, c]), c], [1.0, -1.0]),
        Superposition([b, CustomField(n, c.evaluate)]),  # finite-difference gradient
        RescaledField(Superposition([b, c]), rng.standard_normal(n), 0.25),
        CustomField(n, b.evaluate, b.analytic_gradient),
        CustomField(n, b.evaluate),
        ShiftedBubble(n, b.center, 0.3),
        SteepBubble(n, b.center, 0.3),
        Superposition([ShiftedBubble(n, b.center, 0.3), SteepBubble(n, c.center, 0.1)]),
        ClippedSum([b, c]),
    ]
    for u in fields:
        v, g = u.value_and_gradient(pts)
        assert same_bits(v, u.evaluate(pts))
        assert same_bits(g, u.gradient(pts))


def _point_layouts(rng, n, center, scale):
    """The same kind of points as C-ordered, F-ordered and column-sliced
    (non-contiguous) arrays; a few rows sit within a few scales of the
    center, so the profile's core is sampled at every scale."""
    base = rng.standard_normal((300, n))
    base[:20] = center + scale * rng.standard_normal((20, n))
    wide = np.zeros((300, 2 * n + 1))
    wide[:, 1::2] = base
    return {"C": base, "F": np.asfortranarray(base), "sliced": wide[:, 1::2]}


def _out_of_place(b, pts):
    """The bubble kernels as out-of-place expressions."""
    n, d, s = b.dimension, b.scale, b.sign
    amp = (n * (n - 2)) ** ((n - 2) / 4)
    z = (pts - b.center) / d
    g = 1.0 + np.einsum("ij,ij->i", z, z)
    value = s * (amp * d ** (-(n - 2) / 2)) * g ** (-(n - 2) / 2)
    grad = -s * ((n - 2) * amp * d ** (-n / 2)) * z * (g ** (-n / 2))[:, None]
    lap = (-s * n * (n - 2) * amp * d ** (-(n + 2) / 2)) * g ** (-(n + 2) / 2)
    return value, grad, lap


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-18])
def test_in_place_kernels_equal_the_out_of_place_expressions(n, sign, scale):
    rng = np.random.default_rng([n, int(sign > 0), int(-np.log10(scale))])
    b = Bubble(n, 0.3 * rng.standard_normal(n), scale, sign)
    c = Bubble(n, rng.standard_normal(n), 0.7 * scale, -sign)
    weights = np.array([0.7, -1.3])
    for layout, pts in _point_layouts(rng, n, b.center, scale).items():
        value, grad, lap = _out_of_place(b, pts)
        assert same_bits(b.evaluate(pts), value), layout
        assert same_bits(b.analytic_gradient(pts), grad), layout
        assert same_bits(b.analytic_laplacian(pts), lap), layout
        v, g = b.value_and_gradient(pts)
        assert same_bits(v, value) and same_bits(g, grad), layout
        # the superposition's old accumulation, one fresh w * g per part
        cv, cg, _ = _out_of_place(c, pts)
        val, acc = np.zeros(len(pts)), np.zeros_like(pts)
        for w, pv, pg in zip(weights, (value, cv), (grad, cg)):
            val += w * pv
            acc += w * pg
        v, g = Superposition([b, c], weights).value_and_gradient(pts)
        assert same_bits(v, val) and same_bits(g, acc), layout


@pytest.mark.parametrize("n", [3, 6])
def test_evaluation_never_writes_into_its_inputs(n):
    rng = np.random.default_rng(n)
    b = Bubble(n, rng.standard_normal(n), 0.3, -1.0)
    layouts = _point_layouts(rng, n, b.center, 0.3)
    kept_v, kept_g = rng.standard_normal(300), rng.standard_normal((300, n))
    # a part that returns arrays it keeps: the sum must not accumulate
    # into them
    stored = CustomField(n, lambda p: kept_v, lambda p: kept_g)
    sup = Superposition([stored, b, stored], [2.0, -0.5, 3.0])
    fields = [b, sup, BubbleConfiguration([b, b], [1.0, 2.0]),
              RescaledField(b, rng.standard_normal(n), 0.25)]
    for layout, pts in layouts.items():
        before = pts.copy()
        for u in fields:
            u.evaluate(pts)
            u.analytic_gradient(pts)
            u.value_and_gradient(pts)
            if u is not sup:
                u.analytic_laplacian(pts)
            assert same_bits(pts, before), (layout, u)
    v_before, g_before = kept_v.copy(), kept_g.copy()
    first = sup.value_and_gradient(layouts["C"])
    assert same_bits(kept_v, v_before) and same_bits(kept_g, g_before)
    second = sup.value_and_gradient(layouts["C"])
    assert all(same_bits(a, b) for a, b in zip(first, second))


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_bubble_value_and_gradient_allocates_one_point_array(n):
    # z, g = 1 + |z|^2 and the values, plus numpy's fixed 8192-element ufunc
    # buffer for the broadcast product: under 2 (N, n) arrays for n >= 4
    # (at n = 3 the same four arrays read 2.007).  Out of place, the
    # kernels held up to four (N, n) arrays: 3.58-4.01 here.
    rng = np.random.default_rng(n)
    pts = rng.standard_normal((8192, n))
    b = Bubble(n, rng.standard_normal(n), 0.5)
    b.value_and_gradient(pts)  # fills the cached amplitudes
    assert _traced_peak(lambda: b.value_and_gradient(pts)) <= 2 * pts.nbytes


def test_superposition_value_and_gradient_drops_each_part_before_the_next():
    # the sum and its two scratch arrays, then the second part's z, g and
    # values, plus numpy's ufunc buffer: 4.68 (N, n) arrays at n = 3.  Held
    # through the second part's call, the first part's (v, g) read 5.68.
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((8192, 3))
    sup = Superposition([Bubble(3, rng.standard_normal(3), 0.5),
                         Bubble(3, rng.standard_normal(3), 0.1)], [1.0, -2.0])
    want = [sum(w * f for w, f in zip(sup.weights, fs))
            for fs in zip(*(p.value_and_gradient(pts) for p in sup.parts))]
    got = sup.value_and_gradient(pts)
    assert all(same_bits(a, b) for a, b in zip(got, want))
    assert _traced_peak(lambda: sup.value_and_gradient(pts)) <= 5 * pts.nbytes


def test_off_center_profile_shells_stay_within_their_memory_budget():
    # the n = 6 profile's 40 shells about an off-center probe: 61,440
    # nodes in blocks of 8192; 1.92 MB with out-of-place kernels and nodes
    u = aubin_talenti(6)
    x = 0.3 * np.eye(6)[0]
    rr = RadialGrid.log_spaced(0.05, 5.0, 40).radii
    shells = shell_pieces_for(u, x, np.stack([np.r_[0.0, rr[:-1]], rr], axis=1), 32)
    first = _integrate_density(u, shells, _energy_density(6))
    assert _traced_peak(lambda: _integrate_density(u, shells, _energy_density(6))) < 1.5e6
    assert same_bits(_integrate_density(u, shells, _energy_density(6)), first)


# ---------------------------------------------------------------------------
# the half-plane evaluator against the n-dimensional one
# ---------------------------------------------------------------------------


def half_plane_densities(v, g, y):
    """u, |grad u|, grad u . (y - x) and (grad u . nu)^2, nu = (y - x)/|y - x|,
    from the values, gradients and offsets of either evaluator."""
    radial = np.einsum("mi,mi->m", g, y)
    return (v, np.sqrt(np.einsum("mi,mi->m", g, g)), radial,
            radial**2 / np.einsum("mi,mi->m", y, y))


def node_integrals(u, pieces, density):
    """Reference: ``density`` integrated at the set's n-dimensional nodes, a
    plain callable of ``integrate_pieces``."""
    x = pieces.center
    return integrate_pieces(pieces, lambda pts: density(*u.value_and_gradient(pts), pts - x))


def layout_sets(u, x, order):
    """Shells (a ball and two annuli) and spheres about ``x`` in the layout
    ``_layout`` picks for ``u``."""
    return (shell_pieces_for(u, x, [(0.0, 0.4), (0.4, 1.1), (1.1, 2.5)], order),
            sphere_pieces_for(u, x, [0.3, 1.0, 2.2], order))


@st.composite
def collinear_fields(draw):
    """(u, x): a field whose radial parts are centered on a line through the
    probe x along a generic axis, with 1-3 parts, of signs +-1, separated
    along the line or in scale so that their sum does not cancel.  A
    constant part is radial about the origin, so its line passes there."""
    n = draw(st.integers(3, 7))
    axis = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    assume(np.linalg.norm(axis) > 0.5)
    e = axis / np.linalg.norm(axis)
    kind = draw(st.sampled_from(["bubble", "configuration", "nested", "rescaled",
                                 "constant"]))
    base = (np.zeros(n) if kind == "constant"
            else np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))))
    count = 1 if kind == "bubble" else draw(st.integers(2 if kind == "nested" else 1, 3))
    ts = draw(st.lists(st.floats(-1.0, 1.0), min_size=count, max_size=count))
    scales = draw(st.lists(st.floats(0.1, 1.0), min_size=count, max_size=count))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=count, max_size=count))
    for i in range(count):
        for j in range(i):
            assume(abs(ts[i] - ts[j]) > 0.2 or max(scales[i], scales[j])
                   > 1.5 * min(scales[i], scales[j]))
    bubbles = [Bubble(n, base + t * e, d, s) for t, d, s in zip(ts, scales, signs)]
    x = base + draw(st.floats(-1.5, 1.5)) * e
    weights = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=count, max_size=count))
    if kind == "bubble":
        u = bubbles[0]
    elif kind == "configuration":
        u = BubbleConfiguration(bubbles, weights)
    elif kind == "nested":
        u = Superposition([Superposition(bubbles[:1], weights[:1]),
                           Superposition(bubbles[1:], weights[1:])], [1.0, -1.0])
    elif kind == "rescaled":
        y, delta = 0.3 * e + 0.1 * base, draw(st.floats(0.25, 4.0))
        moved = [Bubble(n, y + delta * b.center, delta * b.scale, b.sign) for b in bubbles]
        u = RescaledField(Superposition(moved, weights), y, delta)
    else:
        u = Superposition([*bubbles, ConstantField(n, draw(st.floats(-2.0, 2.0)))],
                          [*weights, 1.0])
    return u, x


@settings(max_examples=60, deadline=None)
@given(collinear_fields())
def test_half_plane_evaluator_agrees_with_the_nodes(case):
    # every density, on shells and on spheres, within 1e-13 of the
    # integral of its magnitude: the two evaluators differ in how the
    # offsets from the parts' centers round, nowhere else
    u, x = case
    for pieces in layout_sets(u, x, 8):
        assert pieces.symmetry in ("radial", "zonal")
        assert u.half_plane(pieces.center, pieces.axis) is not None
        got = _integrate_density(u, pieces, half_plane_densities, offsets=True)
        want = node_integrals(u, pieces, half_plane_densities)
        size = node_integrals(u, pieces, lambda *a: [np.abs(d) for d in half_plane_densities(*a)])
        assert np.all(np.abs(got - want) <= 1e-13 * size)


def e1_layout_fields(n):
    """Fields whose layouts about the origin have the axis e_1: radial ones,
    and parts centered on the x_1 axis."""
    e1 = np.eye(n)[0]
    tower = BubbleConfiguration([Bubble(n, np.zeros(n), d) for d in (0.5, 0.05, 1e-3)])
    return {
        "bubble": aubin_talenti(n),
        "tower": tower,
        "on-axis": Bubble(n, 0.3 * e1, 0.2, -1.0),
        "signed-pair": BubbleConfiguration([Bubble(n, 0.3 * e1, 0.1),
                                            Bubble(n, -0.3 * e1, 0.2, -1.0)]),
        "rescaled-tower": RescaledField(tower, np.zeros(n), 0.25),
        "with-constant": Superposition([Bubble(n, -0.4 * e1, 0.3), ConstantField(n, 0.5)]),
    }


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("name", ["bubble", "tower", "on-axis", "signed-pair",
                                  "rescaled-tower", "with-constant"])
def test_half_plane_evaluator_keeps_the_bits_of_e1_layouts_about_the_origin(n, name):
    # the centered profile sweeps, the README's quantize, neck and residual
    # runs: every density and both energy densities bit for bit as at the
    # nodes
    u = e1_layout_fields(n)[name]
    energy = _energy_density(n)
    for pieces in layout_sets(u, np.zeros(n), 12):
        assert pieces.symmetry in ("radial", "zonal")
        assert same_bits(np.abs(pieces.axis), np.eye(n)[0])
        for density in (half_plane_densities, energy):
            got = _integrate_density(u, pieces, density, offsets=True)
            assert same_bits(got, node_integrals(u, pieces, density))


class OwnRadialParts(Bubble):
    """A bubble that changes evaluation and states its radial parts again."""

    def evaluate(self, points):
        return 2.0 * super().evaluate(points)

    @property
    def radial_parts(self):
        return self.center[None, :], np.array([self.scale]), False


def test_a_subclass_that_changes_evaluation_loses_the_half_plane_fact():
    # ShiftedBubble changes evaluate: no half-plane kernel, no radial part,
    # so a full layout; a subclass that keeps radial parts but not the
    # kernel is integrated at its zonal layout's n-dimensional nodes
    x = np.array([0.2, 0.1, 0.0])
    shifted = ShiftedBubble(3, np.zeros(3), 0.3)
    assert type(shifted).half_plane is ScalarField.half_plane
    assert shifted.half_plane(x, np.eye(3)[0]) is None
    assert _layout(shifted, x) == ("full", None)
    own = OwnRadialParts(3, np.zeros(3), 0.3)
    assert own.half_plane(x, np.eye(3)[0]) is None
    for pieces in layout_sets(own, x, 8):
        assert pieces.symmetry == "zonal"
        got = _integrate_density(own, pieces, half_plane_densities, offsets=True)
        assert same_bits(got, node_integrals(own, pieces, half_plane_densities))
    # the nested sum and the rescaled field lose the fact with their part
    assert Superposition([aubin_talenti(3), own]).half_plane(x, np.eye(3)[0]) is None
    assert RescaledField(own, x, 2.0).half_plane(x, np.eye(3)[0]) is None


def test_half_plane_kernels_refuse_a_part_off_the_axis():
    # a rule about a line its parts are not centered on would need the
    # choice of p: no kernel, and the evaluator takes the nodes
    b = Bubble(3, [0.3, 1e-6, 0.0], 0.2)
    e1 = np.eye(3)[0]
    assert b.half_plane(np.zeros(3), e1) is None
    assert Bubble(3, [0.3, 1e-12, 0.0], 0.2).half_plane(np.zeros(3), e1) is not None
    zonal = grid.build_shell_pieces(3, 0, [(0.0, 1.0)], 8, "zonal", e1)
    got = _integrate_density(b, zonal, half_plane_densities, offsets=True)
    assert same_bits(got, node_integrals(b, zonal, half_plane_densities))


def test_piece_sets_and_rules_keep_their_center_when_the_callers_array_changes():
    u = Bubble(3, [0.4, 0.0, 0.0], 0.3)
    x = np.zeros(3)
    built = [shell_pieces_for(u, x, [(0.0, 1.0)], 8), sphere_pieces_for(u, x, [1.0], 8),
             ball_rule_for(u, x, 1.0, 8).piece, grid.build_shell_pieces(3, x, [(0.0, 1.0)], 8)]
    energy = _energy_density(3)
    before = [_integrate_density(u, pieces, energy) for pieces in built]
    # the reports that carry their probe keep it too
    reports = [profile(u, x, [0.5, 1.0], order=8), pohozaev_report(u, x, 1.0, order=8)]
    x[0] = 5.0
    for pieces, want in zip(built, before):
        assert pieces.center.tolist() == [0.0, 0.0, 0.0]
        assert same_bits(_integrate_density(u, pieces, energy), want)
    assert all(report.center.tolist() == [0.0, 0.0, 0.0] for report in reports)


def test_a_non_finite_density_in_the_half_plane_is_reported_at_its_node():
    # the half-plane rows are not nodes: the error names the node itself
    u = Superposition([Bubble(3, [0.3, 0.0, 0.0], 0.2), ConstantField(3, np.nan)])
    pieces = shell_pieces_for(u, [0.1, 0.0, 0.0], [(0.0, 0.5), (0.5, 1.0)], 8)
    assert pieces.symmetry == "zonal"
    with pytest.raises(NonFiniteFieldError) as err:
        _integrate_density(u, pieces, _energy_density(3))
    assert same_bits(err.value.node, pieces.block(0, 2)[0][0])
