import numpy as np
import pytest

from bubblelab.grid import (
    build_ball_rule,
    build_shell_pieces,
    integrate,
    unit_ball_volume,
    unit_sphere_area,
)
from bubblelab.concentration import bubbling_energy
from bubblelab.fields import (
    Bubble,
    _finest_scale,
    _layout,
    ball_rule_for,
    sphere_rule_for,
    BubbleConfiguration,
    ConstantField,
    CustomField,
    RescaledField,
    ScalarTestFunction,
    Superposition,
    VectorTestFunction,
    aubin_talenti,
    gradient,
    laplacian,
    pde_residual,
    pohozaev_report,
    pohozaev_residual,
    shell_pieces_for,
    sphere_pieces_for,
    stationarity_residual,
    bump_adapted_rule,
    weak_residual,
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
    pytest.param([np.nan, 0.0, 0.0], id="nan"),
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
# weak and stationarity residuals
# ---------------------------------------------------------------------------


def test_weak_residual_zero_field():
    phi = ScalarTestFunction.bump(3, np.zeros(3), 1.0)
    rule = build_ball_rule(3, 0, 2.0, order=24)
    assert weak_residual(ConstantField(3, 0.0), phi, rule) == 0.0


def test_weak_residual_bubble_small():
    phi = ScalarTestFunction.bump(3, [0.2, 0, 0], 1.5)
    rule = bump_adapted_rule(aubin_talenti(3), phi, order=24)
    assert abs(weak_residual(aubin_talenti(3), phi, rule)) < 1e-6


def test_weak_residual_constant_matches_bump_integral():
    phi = ScalarTestFunction.bump(3, np.zeros(3), 1.0, coefficient=2.0)
    u = ConstantField(3, 1.0)
    rule = bump_adapted_rule(u, phi, order=24)
    got = weak_residual(u, phi, rule)
    bump_int = integrate(rule, phi.value)
    assert got == pytest.approx(-bump_int, abs=1e-10)


def test_weak_residual_linear_in_test_function():
    rng = np.random.default_rng(3)
    u = aubin_talenti(3)
    rule = build_ball_rule(3, 0, 2.0, order=32)
    p1 = ScalarTestFunction.bump(3, [0.3, 0, 0], 0.8)
    p2 = ScalarTestFunction.bump(3, [-0.2, 0.1, 0], 1.1)
    a, b = rng.standard_normal(2)
    combo = a * p1 + b * p2
    lhs = weak_residual(u, combo, rule)
    rhs = a * weak_residual(u, p1, rule) + b * weak_residual(u, p2, rule)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_weak_residual_support_check():
    phi = ScalarTestFunction.bump(3, [1.5, 0, 0], 1.0)
    rule = build_ball_rule(3, 0, 2.0, order=8)
    with pytest.raises(ValueError):
        weak_residual(aubin_talenti(3), phi, rule)


def _random_vector_bump(rng, n):
    # keep the enclosing support ball inside B(0, 2)
    comps = []
    for _ in range(n):
        center = rng.uniform(-0.15, 0.15, size=n)
        radius = rng.uniform(0.4, 1.0)
        comps.append(
            ScalarTestFunction.bump(n, center, radius, rng.standard_normal())
        )
    return VectorTestFunction(comps)


def test_stationarity_zero_field():
    phi = _random_vector_bump(np.random.default_rng(0), 3)
    rule = build_ball_rule(3, 0, 2.0, order=16)
    assert stationarity_residual(ConstantField(3, 0.0), phi, rule) == 0.0


def test_stationarity_bubble_small():
    rng = np.random.default_rng(9)
    u = aubin_talenti(3)
    for _ in range(5):
        phi = _random_vector_bump(rng, 3)
        rule = bump_adapted_rule(u, phi, order=24)
        assert abs(stationarity_residual(u, phi, rule)) < 1e-5


def test_stationarity_constant_field_reduces_to_divergence_term():
    # gradient terms vanish; what remains is (n-2)/(2n) * int div(Phi),
    # which is zero for compactly supported fields -- cross-check both sides
    rng = np.random.default_rng(4)
    phi = _random_vector_bump(rng, 3)
    u = ConstantField(3, 1.0)
    rule = bump_adapted_rule(u, phi, order=24)
    got = stationarity_residual(u, phi, rule)
    div_int = integrate(rule, phi.divergence)
    assert got == pytest.approx((3 - 2) / 6 * div_int, abs=1e-9)
    assert abs(div_int) < 1e-6  # compact support: the exact integral is 0


def test_stationarity_linear_in_test_function():
    u = aubin_talenti(3)
    rng = np.random.default_rng(13)
    rule = build_ball_rule(3, 0, 2.0, order=32)
    p1 = _random_vector_bump(rng, 3)
    p2 = _random_vector_bump(rng, 3)
    a, b = 1.7, -0.4
    lhs = stationarity_residual(u, a * p1 + b * p2, rule)
    rhs = a * stationarity_residual(u, p1, rule) + b * stationarity_residual(
        u, p2, rule
    )
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_bump_vanishes_outside_support():
    phi = ScalarTestFunction.bump(3, np.zeros(3), 1.0)
    far = np.array([[1.0, 0.5, 0.0], [2.0, 0, 0]])
    assert np.all(phi.value(far) == 0.0)
    assert np.all(phi.gradient(far) == 0.0)
    assert np.all(phi.laplacian(far) == 0.0)


def test_bump_adapted_rule_layout_follows_the_integrand():
    # a reduced layout needs the integrand u * phi symmetric: one radial
    # bump on a field radial (or axisymmetric) about the bump's center
    u = aubin_talenti(3)
    centered = ScalarTestFunction.bump(3, np.zeros(3), 1.0)
    off = ScalarTestFunction.bump(3, [0.2, 0, 0], 1.5)
    cases = [
        (u, centered, "radial", None),
        (u, off, "zonal", [-1.0, 0.0, 0.0]),
        (CustomField(3, u.evaluate), centered, "full", None),
        (u, centered + ScalarTestFunction.bump(3, [0.1, 0, 0], 0.5), "full", None),
        (u, VectorTestFunction([centered, None, None]), "full", None),
    ]
    order = 12
    for field, phi, symmetry, axis in cases:
        rule = bump_adapted_rule(field, phi, order=order)
        assert rule.symmetry == symmetry
        center, radius = phi.support_ball()
        edges = [radius * (1.0 - 2.0 ** (-j)) for j in range(1, 13)] + [radius]
        want = build_shell_pieces(
            3, center, [(0.0, radius * (1.0 + 1e-9))], order, symmetry, axis,
            polar_order=64, radial_panels=[edges],
        ).rule(0)
        assert rule.nodes.tobytes() == want.nodes.tobytes()
        assert rule.weights.tobytes() == want.weights.tobytes()


# ---------------------------------------------------------------------------
# Pohozaev balance
# ---------------------------------------------------------------------------


def test_pohozaev_zero_field():
    assert pohozaev_residual(ConstantField(3, 0.0), np.zeros(3), 1.0) == 0.0


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
    """Reference: one ``integrate`` per moment over ``ball_rule_for`` and
    ``sphere_rule_for``, each moment evaluating the field again."""
    n = u.dimension
    p = 2.0 * n / (n - 2)
    ball, sphere = ball_rule_for(u, x, r, order), sphere_rule_for(u, x, r, order)

    def upow(pts):
        return np.abs(u.evaluate(pts)) ** p

    def gradsq(pts):
        g = u.gradient(pts)
        return np.einsum("mi,mi->m", g, g)

    def normsq(pts):
        g = u.gradient(pts)
        return np.einsum("mi,mi->m", g, (pts - x) / r) ** 2

    return {
        "volume_potential": (n - 2) / 2.0 * integrate(ball, upow, threads),
        "volume_gradient": -(n - 2) / 2.0 * integrate(ball, gradsq, threads),
        "boundary_potential": -(n - 2) / (2.0 * n) * r * integrate(sphere, upow, threads),
        "boundary_gradient": 0.5 * r * integrate(sphere, gradsq, threads),
        "boundary_normal": -r * integrate(sphere, normsq, threads),
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
    _, make, x, r, order = case
    u = make()
    nodes = np.concatenate([ball_rule_for(u, x, r, order).nodes,
                            sphere_rule_for(u, x, r, order).nodes])
    seen = {}
    for name in ("evaluate", "analytic_gradient", "value_and_gradient"):
        original = getattr(type(u), name)

        def recorded(self, pts, name=name, original=original):
            seen.setdefault(name, []).append(np.array(pts))
            return original(self, pts)

        monkeypatch.setattr(type(u), name, recorded)
    pohozaev_report(u, x, r, order, threads=1)
    assert "value_and_gradient" in seen
    if isinstance(u, Bubble):
        assert set(seen) == {"value_and_gradient"}  # one pass, no separate calls
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
