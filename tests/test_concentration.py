import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import beta as beta_fn

from bubblelab.grid import (
    NonFiniteFieldError,
    RadialGrid,
    build_ball_rule,
    build_shell_pieces,
    node_slack,
    unit_sphere_area,
)
from bubblelab.fields import (
    Bubble,
    BubbleConfiguration,
    ConstantField,
    CustomField,
    RescaledField,
    Superposition,
    _integrate_density,
    _layout,
    annulus_rule_for,
    aubin_talenti,
    ball_rule_for,
    shell_pieces_for,
)
from bubblelab import concentration, grid
from bubblelab.monotonicity import profile
from bubblelab.concentration import (
    BudgetError,
    ConcentrationSequence,
    _ball_energy_bound,
    _dedup_points,
    _detect_detailed,
    _fit_bubble,
    _fit_sample_points,
    _half_threshold_radius,
    _lattice,
    _levenberg_marquardt,
    _profile_model,
    _standard_halfball_radius,
    QuantizationConfig,
    bubble_energy_constant,
    bubbling_energy,
    check_report_input,
    detect_sigma,
    energy_in,
    make_sequence,
    neck_energies,
    neck_energy,
    quantization_report,
    read_sequence_spec,
    report_to_json,
    scaled_measure,
    theta_estimate,
)


def lambda0_oracle(n: int) -> float:
    """Closed form via beta functions, independent of the quadrature path."""
    c2 = (n * (n - 2)) ** ((n - 2) / 2)
    return (
        unit_sphere_area(n)
        * c2
        * (n - 2)
        * 0.5
        * ((n - 2) * beta_fn((n + 2) / 2, (n - 2) / 2) + n * beta_fn(n / 2, n / 2))
    )


def single_bubble_seq(n=3, base=4.0, budget=1e4):
    return make_sequence([(np.zeros(n), base, 1.0)], budget=budget, n=n)


# ---------------------------------------------------------------------------
# the bubble energy constant
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_bubble_constant_matches_closed_form(n):
    lam = bubble_energy_constant(n)
    assert lam.value == pytest.approx(lambda0_oracle(n), rel=1e-10)
    assert lam.error_bound < 1e-6 * lam.value


def test_bubble_constant_stable_under_doubling():
    a = bubble_energy_constant(3, radial_order=32)
    b = bubble_energy_constant(3, radial_order=64)
    assert b.value == pytest.approx(a.value, rel=1e-6)


def test_bubble_constant_is_computed_once_per_order():
    # frozen, so one object serves every caller of the same (n, order)
    assert bubble_energy_constant(4, 32) is bubble_energy_constant(4, 32)
    assert bubble_energy_constant(4, 32) is not bubble_energy_constant(4, 64)
    # and equals a fresh computation
    assert bubble_energy_constant.__wrapped__(4, 32) == bubble_energy_constant(4, 32)
    for _ in range(2):
        with pytest.raises(ValueError, match="n >= 3"):
            bubble_energy_constant(2, 32)


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


def test_make_sequence_valid_specs():
    seq = single_bubble_seq()
    assert seq.scales(0)[0] == 1.0
    assert seq.scales(3)[0] == pytest.approx(4.0**-3)
    two = make_sequence(
        [(np.zeros(3), 4.0, 1.0), (np.zeros(3), 16.0, 1.0)], budget=1e4, n=3
    )
    assert two.scales(2)[1] == pytest.approx(16.0**-2)


def test_make_sequence_rejects_constant_schedule():
    with pytest.raises(ValueError):
        make_sequence([(np.zeros(3), lambda k: 1.0, 1.0)], budget=1.0, n=3)


def test_make_sequence_rejects_nonseparating_tower():
    # two same-center entries with identical schedules never separate
    with pytest.raises(ValueError):
        make_sequence(
            [(np.zeros(3), 4.0, 1.0), (np.zeros(3), 4.0, 1.0)], budget=1.0, n=3
        )


def test_make_sequence_rejects_base_below_one():
    with pytest.raises(ValueError):
        make_sequence([(np.zeros(3), 0.5, 1.0)], budget=1.0, n=3)


@pytest.mark.parametrize("base", [math.nan, math.inf])
def test_make_sequence_rejects_a_non_finite_base(base):
    with pytest.raises(ValueError, match="base must be finite and exceed 1"):
        make_sequence([(np.zeros(3), base, 1.0)], budget=1.0, n=3)


@pytest.mark.parametrize("center, weight", [([0.0, math.nan, 0.0], 1.0),
                                            ([0.0, 0.0, 0.0], math.inf)])
def test_make_sequence_rejects_a_non_finite_center_or_weight(center, weight):
    with pytest.raises(ValueError, match="center and weight must be finite"):
        make_sequence([(center, 4.0, weight)], budget=1.0, n=3)


@pytest.mark.parametrize("budget", [math.nan, math.inf, 0.0, -1.0])
def test_sequence_budget_must_be_finite_and_positive(budget):
    # a NaN budget would pass every norm, and a budget <= 0 rejects them all
    with pytest.raises(ValueError, match="budget must be finite and > 0"):
        make_sequence([(np.zeros(3), 4.0, 1.0)], budget=budget, n=3)


@pytest.mark.parametrize("key, value", [
    (key, value) for key in ("eps0", "eps_n", "r_small")
    for value in (math.nan, math.inf, 0.0, -1.0)
] + [("r_small", None)])
def test_report_refuses_a_threshold_before_the_budget_check(monkeypatch, key, value):
    def no_budget_check(*args, **kwargs):
        raise AssertionError("the budget check ran before the threshold was refused")

    monkeypatch.setattr(ConcentrationSequence, "verify_budget", no_budget_check)
    config = QuantizationConfig(k_max=4, **{key: value})
    with pytest.raises(ValueError, match=f"{key} must be finite and > 0"):
        check_report_input(3, config)
    with pytest.raises(ValueError, match=f"{key} must be finite and > 0"):
        quantization_report(single_bubble_seq(), config)


def test_budget_verification_values_bounded():
    seq = single_bubble_seq()
    vals = seq.verify_budget([0, 4, 8])
    assert all(np.isfinite(v) and v > 0 for v in vals.values())


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


def test_energy_in_zero_field():
    rule = build_ball_rule(3, 0, 1.0, order=8)
    assert energy_in(ConstantField(3, 0.0), rule) == 0.0


def gradient_tail_bound(n: int, s: float) -> float:
    """Closed-form unweighted energy outside radius s for the unit bubble."""
    c2 = (n * (n - 2)) ** ((n - 2) / 2)
    return unit_sphere_area(n) * c2 * (n - 2) * (s ** (2 - n) + s ** (-n))


def test_full_rule_energy_streams_its_nodes():
    # the n = 6, order-32 full ball in ten radial panels holds 2,032,640
    # nodes, 98 MB of coordinates; they are built per block, never as a whole
    n = 6
    bubble = aubin_talenti(n)
    u = CustomField(n, bubble.evaluate, bubble.analytic_gradient)
    tracemalloc.start()
    try:
        rule = build_ball_rule(n, 0, 1.0, 32, radial_panels=[0.1 * k for k in range(1, 10)])
        assert len(rule) == 320 * 6352
        energy = energy_in(u, rule, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    assert "_materialized" not in vars(rule)
    radial = energy_in(bubble, ball_rule_for(bubble, np.zeros(n), 1.0, 32))
    assert energy == pytest.approx(radial, rel=1e-6)


@pytest.mark.parametrize("n", [5, 6])
def test_symmetric_full_rule_is_about_as_accurate_as_the_old_product_rule(n):
    # off-center opaque bubbles in B(0, 1), along six fixed random axes: the
    # RMS error of the symmetric degree-15 directions is at most twice that
    # of the degree-15 product directions they replace.  The reference is
    # the zonal layout about each axis with the same radial nodes, valid
    # for a bubble on the axis, so only the angular error is compared.
    cases = [(1.0, 0.3), (0.5, 0.3), (0.3, 0.5)]
    symmetric = build_shell_pieces(n, 0, [(0.0, 1.0)], 16)
    product = dataclasses.replace(symmetric, **dict(zip(
        ("dirs", "dir_weights"), grid.unit_sphere_directions(n, 8))))
    errors = np.empty((2, 6, len(cases)))
    weighted = concentration._weighted_density(n)
    for i, e in enumerate(np.random.default_rng(0).standard_normal((6, n))):
        e /= np.linalg.norm(e)
        bubbles = [aubin_talenti(n, delta, offset * e) for delta, offset in cases]
        opaque = [CustomField(n, b.evaluate, b.analytic_gradient) for b in bubbles]
        zonal = build_shell_pieces(n, 0, [(0.0, 1.0)], 16, "zonal", e, polar_order=96)
        want = [energy_in(b, zonal.rule(0)) for b in bubbles]
        for j, pieces in enumerate((symmetric, product)):
            got = grid.integrate_pieces(
                pieces, lambda p: [weighted(*u.value_and_gradient(p), None)[0] for u in opaque], 2)
            errors[j, i] = np.abs(got[0] / want - 1.0)
    rms = np.sqrt((errors**2).mean(axis=1))
    assert (rms[0] <= 2.0 * rms[1]).all()


def test_energy_in_bubble_approaches_weighted_constant():
    # int e(U) over R^n = (n-1)/(2n) * Lambda_0 since the two halves of
    # Lambda_0 are equal for the exact profile
    n = 3
    u = aubin_talenti(n)
    lam0 = lambda0_oracle(n)
    vals = [
        energy_in(u, ball_rule_for(u, np.zeros(n), R, order=32))
        for R in (10.0, 100.0, 1000.0)
    ]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] == pytest.approx((n - 1) / (2 * n) * lam0, rel=1e-2)


def test_energy_concentrates_at_small_scale():
    # the inner ball already carries everything but the closed-form tail
    delta = 1e-3
    u = aubin_talenti(3, delta)
    small = bubbling_energy(u, np.zeros(3), 0.1, order=32)
    large = bubbling_energy(u, np.zeros(3), 1.0, order=32)
    assert 0 < large - small <= gradient_tail_bound(3, 0.1 / delta) * 1.01
    # in n=3 the slow 1/s gradient tail needs a finer scale for 1e-4 relative
    v = aubin_talenti(3, 1e-5)
    small = bubbling_energy(v, np.zeros(3), 0.1, order=32)
    large = bubbling_energy(v, np.zeros(3), 1.0, order=32)
    assert large == pytest.approx(small, rel=1e-4)


@pytest.mark.parametrize("r", [0.5, 1.0])
@pytest.mark.parametrize("delta", [1e-18, 1e-19, 1e-22])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_tiny_bubble_ball_energy_is_the_bubble_constant(n, delta, r):
    # the energy outside B(0, r) is below (delta / r)^(n-2) <= 1e-18 of the
    # total, so the ball holds Lambda_0 however far below r the scale sits
    got = bubbling_energy(aubin_talenti(n, delta), np.zeros(n), r)
    assert got == pytest.approx(bubble_energy_constant(n).value, rel=1e-6)


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


def test_detect_zero_field_empty():
    seq = make_sequence([(np.zeros(3), 4.0, 0.0)], budget=10.0, n=3)  # weight 0
    lam0 = lambda0_oracle(3)
    pts = detect_sigma(seq, 8, [0.05, 0.15, 0.45], lam0 / 10)
    assert pts == []


def test_detect_two_points_and_nothing_else():
    seq = make_sequence(
        [([0.5, 0, 0], 4.0, 1.0), ([-0.5, 0, 0], 4.0, 1.0)], budget=1e4, n=3
    )
    lam0 = lambda0_oracle(3)
    pts = sorted(detect_sigma(seq, 8, [0.05, 0.15, 0.45], lam0 / 10), key=lambda p: p[0])
    assert len(pts) == 2
    assert np.allclose(pts[0], [-0.5, 0, 0], atol=1e-12)
    assert np.allclose(pts[1], [0.5, 0, 0], atol=1e-12)


def test_detect_stability_across_threshold_range():
    # halving eps0 inside [lam0/20, lam0/5] leaves the detected set unchanged
    lam0 = lambda0_oracle(3)
    seqs = [
        single_bubble_seq(),
        make_sequence(
            [(np.zeros(3), 4.0, 1.0), (np.zeros(3), 16.0, 1.0)], budget=1e4, n=3
        ),
    ]
    for seq in seqs:
        sets = []
        for eps0 in (lam0 / 5, lam0 / 10, lam0 / 20):
            pts = detect_sigma(seq, 8, [0.05, 0.15, 0.45], eps0)
            sets.append(tuple(sorted(tuple(np.round(p, 8)) for p in pts)))
        assert sets[0] == sets[1] == sets[2]


def lattice(n, extent, spacing=0.5):
    """Reference probe lattice: every point with coordinates in the ticks
    -extent, -extent + spacing, ..., extent, the first coordinate slowest."""
    ticks = np.arange(-extent, extent + spacing / 2, spacing)
    return np.array(list(itertools.product(ticks, repeat=n)))


def scan_probe(us, x, r_grid, eps0, order):
    """Reference probe scan: (hit, minimum value seen) over every (radius,
    field) step, radius-major, up to the first ball energy below eps0."""
    score = np.inf
    for r in sorted(r_grid):
        for u in us:
            q = bubbling_energy(u, x, r, order)
            score = min(score, q)
            if q < eps0:
                return False, score
    return True, score


def per_probe_scan(seq, k_max, r_grid, eps0, extent, spacing, order):
    """Reference detection scan: one rule per (probe, radius, k) step."""
    n = seq.dimension
    us = [seq.field(k) for k in range(math.ceil(k_max / 2), k_max + 1)]
    candidates, seen = [], set()
    for p in [e.center for e in seq.entries] + list(lattice(n, extent, spacing)):
        if tuple(np.round(p, 10)) not in seen:
            seen.add(tuple(np.round(p, 10)))
            candidates.append(p)
    hits, scores = [], []
    for x in candidates:
        ok, score = scan_probe(us, x, r_grid, eps0, order)
        if ok:
            hits.append(np.asarray(x, dtype=float))
            scores.append(score)
    return merge_hits(hits, scores, spacing)


def merge_hits(hits, scores, spacing):
    """Reference cluster merge: best score first, absorbing every unused hit
    within 1.5 lattice spacings."""
    merged, sizes, best = [], [], []
    used = [False] * len(hits)
    for i in sorted(range(len(hits)), key=lambda i: -scores[i]):
        if used[i]:
            continue
        used[i] = True
        members = 1
        for j in range(len(hits)):
            if not used[j] and np.linalg.norm(hits[i] - hits[j]) <= 1.5 * spacing:
                used[j] = True
                members += 1
        merged.append(hits[i])
        sizes.append(members)
        best.append(scores[i])
    return merged, sizes, best


def assert_same_scan(seq, k_max, r_grid, eps0, extent=0.5, order=12):
    """The scan, whose closed-form prefilter takes every probe in one batch,
    against ``per_probe_scan``, which has no prefilter, on the lattice of
    the given extent and at the given order (3^n probes by default)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concentration, "_LATTICE_EXTENT", extent)
        mp.setattr(concentration, "_DETECTION_ORDER", order)
        got = _detect_detailed(seq, k_max, r_grid, eps0)
    want = per_probe_scan(seq, k_max, r_grid, eps0, extent, 0.5, order)
    assert [p.tolist() for p in got[0]] == [p.tolist() for p in want[0]]
    assert got[1] == want[1]
    assert got[2] == want[2]
    assert all(type(v) is float for v in got[2])
    return got


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("weights", [
    pytest.param((1.0,), id="1"),
    pytest.param((1.0, 1.0), id="2"),
    pytest.param((1.0, 1.0, 1.0), id="3"),
    pytest.param((1.0, -1.0), id="signed"),
])
def test_batched_scan_matches_per_probe_on_towers(n, weights):
    bases = (4.0, 16.0, 64.0)
    seq = make_sequence([(np.zeros(n), b, w) for b, w in zip(bases, weights)],
                        budget=1e4, n=n)
    # a threshold equal to one lattice probe's exact smallest step value:
    # the probe is a hit with its energy bound only 1.5-2.3 times eps0, so
    # a prefilter without its factor-2 margin would drop it
    probe = np.zeros(n)
    probe[0] = 0.5
    at_probe = min(bubbling_energy(seq.field(k), probe, r, 12)
                   for r in (0.05, 0.15, 0.45) for k in (2, 3, 4))
    # the pipeline's threshold, one that stops probes at different steps,
    # and one every probe passes, so every score is compared
    for eps0 in (lambda0_oracle(n) / 20, 1e-3, at_probe, 1e-13):
        points, sizes, _ = assert_same_scan(seq, 4, [0.05, 0.15, 0.45], eps0)
        assert len(points) >= 1
    # at eps0 = 1e-13 every probe is a hit, the shared center counted once
    assert sum(sizes) == 3**n


def test_batched_scan_matches_per_probe_with_two_centers():
    # lattice probes on the line through both centers take zonal rules, the
    # others full rules and the declared centers paneled radial ones
    seq = make_sequence([([0.25, 0, 0], 4.0, 1.0), ([-0.25, 0, 0], 16.0, 1.0)],
                        budget=1e4, n=3)
    for eps0 in (lambda0_oracle(3) / 20, 1e-3, 1e-13):
        assert_same_scan(seq, 4, [0.05, 0.15, 0.45], eps0)


def test_batched_scan_matches_per_probe_with_one_probe_blocks():
    # 65 x 65 nodes per probe: an odd node count, one piece per
    # ``integrate_pieces`` block
    seq = make_sequence([(np.zeros(3), 4.0, 1.0)], budget=1e4, n=3)
    for eps0 in (1e-3, 1e-13):
        assert_same_scan(seq, 2, [0.1, 0.3], eps0, order=65)


SHARP = np.array([0.5, 0.0, 0.0])


class SharpLater(BubbleConfiguration):
    """Reports a fine feature, a part of scale 1e-3 at ``SHARP``, from
    k = 3 on."""

    def __init__(self, bubbles, weights, k):
        super().__init__(bubbles, weights)
        self.k = k

    @property
    def radial_parts(self):
        centers, scales, opaque = super().radial_parts
        if self.k < 3:
            return centers, scales, opaque
        return np.vstack([centers, SHARP]), np.append(scales, 1e-3), opaque


class SharpLaterSequence(ConcentrationSequence):
    def field(self, k):
        base = super().field(k)
        return SharpLater(base.bubbles, base.weights, k)


def test_batched_scan_hands_probes_to_paneled_rules_mid_scan():
    # the probe at SHARP switches to a paneled rule at its first k = 3 step
    seq = SharpLaterSequence(
        3, make_sequence([(np.zeros(3), 4.0, 1.0)], budget=1e4).entries, budget=1e4)
    for k in (2, 3, 4):
        pieces = shell_pieces_for(seq.field(k), SHARP, [(0.0, 0.05)], 12)
        assert (pieces.bounds[-1] > 12) == (k >= 3)
    for eps0 in (1e-3, 1e-13):
        assert_same_scan(seq, 4, [0.05, 0.15], eps0)


def per_point_dedup(points):
    """Reference candidate list: one rounded-tuple check per point, as
    ``per_probe_scan`` builds it."""
    candidates, seen = [], set()
    for p in points:
        if tuple(np.round(p, 10)) not in seen:
            seen.add(tuple(np.round(p, 10)))
            candidates.append(p)
    return candidates


def test_vectorized_dedup_matches_per_point_loop():
    # entries on a lattice point, -0.0 against 0.0, rounding to one key,
    # and an off-lattice entry: same rows, signs of zero and order
    probes = _lattice(3)
    entries = [np.array([0.5, 0.0, 0.0]), np.array([-0.0, 0.0, -0.0]),
               np.array([0.3, 0.1, -0.2]), np.array([0.3, 0.1, -0.2 + 1e-12]),
               np.array([1e-12, -1e-13, 0.0])]
    points = np.vstack(entries + [probes])
    got, want = _dedup_points(points), per_point_dedup(points)
    assert got.tobytes() == np.array(want).tobytes()
    assert len(got) == len(probes) + 1  # only the off-lattice entry is new
    assert np.signbit(got[1]).tolist() == [True, False, True]


@pytest.mark.parametrize("entries", [
    pytest.param([[0.3, 0.1, -0.2], [0.3, 0.1, -0.2], [0.3, 0.1, -0.2 + 1e-12]],
                 id="duplicated"),
    pytest.param([[0.5, 0.0, -1.0], [0.2, 0.0, 0.0]], id="on-a-lattice-point"),
    pytest.param([[-0.0, 0.5, 0.0], [0.0, 0.5, -0.0], [1e-12, -0.0, 0.0]], id="negative-zero"),
    pytest.param([[0.0, 0.0, 0.0]] * 3 + [[1.0, 1.0, 1.0]], id="lattice-ends"),
])
def test_detection_candidates_equal_dedup_over_entries_and_lattice(entries):
    entries = [np.array(e) for e in entries]
    got = concentration._detection_candidates(entries, 3)
    want = _dedup_points(np.vstack(entries + [lattice(3, 1.0)]))
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_detection_lattice_is_cached_read_only_and_keyed_on_its_layout(monkeypatch):
    points = _lattice(3)
    assert points is _lattice(3)
    assert points.tobytes() == lattice(3, 1.0).tobytes()
    for arr in concentration._cached_lattice(3, concentration._LATTICE_EXTENT,
                                             concentration._LATTICE_SPACING):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    monkeypatch.setattr(concentration, "_LATTICE_EXTENT", 0.5)
    assert _lattice(3).tobytes() == lattice(3, 0.5).tobytes()
    dirs = concentration._fit_directions(3)
    assert dirs is concentration._fit_directions(3)
    with pytest.raises(ValueError):
        dirs[0] = 1.0


def test_scan_of_entries_on_and_off_the_lattice_matches_per_probe():
    seq = make_sequence([([-0.0, 0.0, 0.0], 4.0, 1.0), ([0.5, 0.0, 0.0], 16.0, 1.0),
                         ([0.3, 0.1, 0.0], 4.0, 1.0), (np.zeros(3), 64.0, 1.0)],
                        budget=1e4, n=3)
    for eps0 in (lambda0_oracle(3) / 20, 1e-13):
        assert_same_scan(seq, 4, [0.05, 0.15, 0.45], eps0)


class NaNBeyond(BubbleConfiguration):
    """A bubble configuration that reads NaN where x_1 > 0.7."""

    def evaluate(self, points):
        out = super().evaluate(points)
        out[points[:, 0] > 0.7] = np.nan
        return out


class NaNSequence(ConcentrationSequence):
    def field(self, k):
        base = super().field(k)
        return NaNBeyond(base.bubbles, base.weights)


def test_sweeps_report_nonfinite_field():
    seq = NaNSequence(3, make_sequence([(np.zeros(3), 4.0, 1.0)], budget=1e4).entries,
                      budget=1e4)
    u = seq.field(2)
    with pytest.raises(NonFiniteFieldError) as err:
        profile(u, np.zeros(3), RadialGrid.log_spaced(0.05, 1.0, 12))
    assert err.value.node[0] > 0.7
    with pytest.raises(NonFiniteFieldError) as err:
        neck_energy(seq, 2, R=1.0, outer=1.0)
    assert err.value.node[0] > 0.7
    with pytest.raises(NonFiniteFieldError):
        theta_estimate(seq, np.array([0.6, 0.0, 0.0]), 0.4, 2)


def test_batched_scan_reports_nonfinite_field():
    seq = NaNSequence(3, make_sequence([(np.zeros(3), 4.0, 1.0)], budget=1e4).entries,
                      budget=1e4)
    for scan in (lambda: _detect_detailed(seq, 4, [0.05, 0.15, 0.45], 1e-9),
                 lambda: per_probe_scan(seq, 4, [0.05, 0.15, 0.45], 1e-9, 1.0, 0.5, 12)):
        with pytest.raises(NonFiniteFieldError) as err:
            scan()
        assert err.value.node[0] > 0.7
        assert np.isnan(err.value.value)


@pytest.mark.parametrize("bound", [np.nan, np.inf])
def test_nonfinite_energy_bound_drops_no_probe(bound):
    class Unbounded(NaNBeyond):
        def ball_sup(self, xs, r):
            return np.full(len(xs), bound), np.full(len(xs), bound)

    class UnboundedSequence(ConcentrationSequence):
        def field(self, k):
            base = super().field(k)
            return Unbounded(base.bubbles, base.weights)

    seq = UnboundedSequence(
        3, make_sequence([(np.zeros(3), 4.0, 1.0)], budget=1e4).entries, budget=1e4)
    # with a finite bound eps0 = 1e3 would drop every lattice probe; kept,
    # the probes at x_1 = 1 reach the NaN nodes beyond x_1 = 0.7
    with pytest.raises(NonFiniteFieldError):
        _detect_detailed(seq, 4, [0.05, 0.15, 0.45], 1e3)


def mask_prefilter(seq, k_max, r_grid, eps0):
    """Reference prefilter: one keep mask over every candidate, AND-ed over
    every (radius, k) step, each step bounding every candidate."""
    n = seq.dimension
    us = [seq.field(k) for k in range(math.ceil(k_max / 2), k_max + 1)]
    candidates = _dedup_points(np.vstack(
        [e.center for e in seq.entries] + [lattice(n, 1.0)]))
    keep = np.ones(len(candidates), dtype=bool)
    for r in sorted(r_grid):
        for u in us:
            bound = _ball_energy_bound(u, candidates, r)
            if bound is not None:
                keep &= ~(bound < eps0 / 2)
    return candidates[keep], us


def assert_prefilter_matches_the_mask(monkeypatch, seq, k_max, r_grid, eps0):
    """The scan against ``mask_prefilter`` followed by the reference probe
    scan and merge: same probes scanned in the same order, same points,
    cluster sizes and scores, bit for bit."""
    steps = recorded_detection_steps(monkeypatch)
    got = _detect_detailed(seq, k_max, r_grid, eps0)
    kept, us = mask_prefilter(seq, k_max, r_grid, eps0)
    scanned = dict.fromkeys(x for x, _, _ in steps)  # each probe once, in order
    assert b"".join(scanned) == kept.tobytes()
    hits, scores = [], []
    for x in kept:
        ok, score = scan_probe(us, x, r_grid, eps0, 12)
        if ok:
            hits.append(x)
            scores.append(score)
    want = merge_hits(hits, scores, 0.5)
    assert [p.tobytes() for p in got[0]] == [p.tobytes() for p in want[0]]
    assert got[1] == want[1]
    assert got[2] == want[2]
    monkeypatch.undo()
    return got, kept


def tower(n, count):
    bases = (4.0, 16.0, 64.0)[:count]
    return make_sequence([(np.zeros(n), b, 1.0) for b in bases], budget=1e4, n=n)


CRITERION_7_K_MAX = {3: 10, 4: 8, 5: 8}


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_survivor_prefilter_matches_the_all_candidates_mask(n, N, monkeypatch):
    # the criterion-7 cells at the pipeline's threshold, one that stops
    # probes at different steps and one that keeps lattice hits (n = 3)
    seq = tower(n, N)
    for eps0 in (lambda0_oracle(n) / 20, 1e-3, 1e-9):
        got, kept = assert_prefilter_matches_the_mask(
            monkeypatch, seq, CRITERION_7_K_MAX[n], concentration._R_GRID, eps0)
        assert len(got[0]) >= 1 and len(kept) >= 1


def test_survivor_prefilter_matches_the_mask_with_two_centers(monkeypatch):
    seq = make_sequence([([0.25, 0, 0], 4.0, 1.0), ([-0.25, 0, 0], 16.0, -1.0)],
                        budget=1e4, n=3)
    for eps0 in (lambda0_oracle(3) / 20, 1e-3, 1e-9):
        got, _ = assert_prefilter_matches_the_mask(
            monkeypatch, seq, 6, [0.05, 0.15, 0.45], eps0)
        assert sum(got[1]) >= 2  # both centers hit, one cluster 0.5 wide


class NaNBoundBeyond(BubbleConfiguration):
    """Knows no finite energy bound where x_1 > 0.7: NaN there."""

    def ball_sup(self, xs, r):
        sup_u, sup_g = super().ball_sup(xs, r)
        far = xs[:, 0] > 0.7
        return np.where(far, np.nan, sup_u), np.where(far, np.nan, sup_g)


class NaNBoundSequence(ConcentrationSequence):
    def field(self, k):
        base = super().field(k)
        return NaNBoundBeyond(base.bubbles, base.weights)


def test_survivor_prefilter_keeps_probes_with_nan_bounds(monkeypatch):
    seq = NaNBoundSequence(3, tower(3, 2).entries, budget=1e4)
    for eps0 in (lambda0_oracle(3) / 20, 1e-9):
        _, kept = assert_prefilter_matches_the_mask(
            monkeypatch, seq, 6, [0.05, 0.15, 0.45], eps0)
        # the 25 lattice probes at x_1 = 1 have NaN bounds: none is dropped
        assert np.count_nonzero(kept[:, 0] > 0.7) == 25


class BoundedByZero(BubbleConfiguration):
    """Claims a zero energy bound everywhere."""

    def ball_sup(self, xs, r):
        return np.zeros(len(xs)), np.zeros(len(xs))


class EmptiedAtLastK(ConcentrationSequence):
    """Its last field, k = 6, bounds every probe by zero."""

    def field(self, k):
        base = super().field(k)
        return BoundedByZero(base.bubbles, base.weights) if k == 6 else base


def test_survivor_prefilter_empties_mid_loop(monkeypatch):
    seq = EmptiedAtLastK(3, tower(3, 2).entries, budget=1e4)
    bounded = []
    original = concentration._ball_energy_bound

    def recording(u, xs, r):
        bounded.append(len(xs))
        return original(u, xs, r)

    monkeypatch.setattr(concentration, "_ball_energy_bound", recording)
    got, kept = assert_prefilter_matches_the_mask(
        monkeypatch, seq, 6, [0.05, 0.15, 0.45], 1e-9)
    assert got == ([], [], []) and len(kept) == 0
    # four fields (k = 3..6) at the smallest radius only: the fourth step
    # empties the set
    assert bounded == [125] * 4


@pytest.mark.parametrize("n", [3, 5])
def test_prefilter_bounds_only_the_surviving_rows(n, monkeypatch):
    calls = []
    original = concentration._ball_energy_bound

    def recording(u, xs, r):
        bound = original(u, xs, r)
        calls.append((np.array(xs), bound))
        return bound

    monkeypatch.setattr(concentration, "_ball_energy_bound", recording)
    seq = tower(n, 3)
    eps0 = lambda0_oracle(n) / 20
    _detect_detailed(seq, 8, [0.05, 0.15, 0.45], eps0)
    candidates = mask_prefilter(seq, 8, [0.05, 0.15, 0.45], eps0)[0]
    assert len(calls) == 5  # one step per k = 4..8, at the smallest radius
    assert len(calls[0][0]) == 5**n
    for (xs, bound), (nxt, _) in zip(calls[:-1], calls[1:]):
        assert nxt.tobytes() == xs[~(bound < eps0 / 2)].tobytes()
    assert calls[-1][0][~(calls[-1][1] < eps0 / 2)].tobytes() == candidates.tobytes()
    # after the first step only the shared center is left
    assert [len(xs) for xs, _ in calls[1:]] == [1] * (len(calls) - 1)


def recorded_detection_steps(monkeypatch) -> list:
    """(probe bytes, radius, field) of every ``_detection_quantity`` call
    ``concentration`` makes from now on.  The calls must be positional,
    the probe third: perfbench's tracer identifies probes by that
    argument."""
    steps = []
    original = concentration._detection_quantity

    def recording(*args):
        u, r, x, order = args
        steps.append((np.array(x).tobytes(), r, u))
        return original(*args)

    monkeypatch.setattr(concentration, "_detection_quantity", recording)
    return steps


@pytest.mark.parametrize("r_grid", [(0.05, 0.15, 0.45), (0.45, 0.05, 0.15)])
def test_ball_energy_scan_reads_only_the_smallest_radius(r_grid, monkeypatch):
    steps = recorded_detection_steps(monkeypatch)
    seq = tower(3, 2)
    for eps0 in (lambda0_oracle(3) / 20, 1e-9):
        steps.clear()
        _, sizes, _ = _detect_detailed(seq, 6, r_grid, eps0)
        assert steps and [r for _, r, _ in steps] == [min(r_grid)] * len(steps)
        # one step per (probe, k) pair the scan reaches, none repeated
        assert len({(x, id(u)) for x, _, u in steps}) == len(steps)
    assert sum(sizes) == 5**3  # at eps0 = 1e-9 every probe is a hit


@pytest.mark.parametrize("seq, k_max", [
    pytest.param(tower(3, 3), 10, id="criterion-7-tower"),
    pytest.param(make_sequence([([0.25, 0, 0], 4.0, 1.0), ([-0.25, 0, 0], 16.0, 1.0)],
                               budget=1e4, n=3), 6, id="two-centers"),
])
def test_quadrature_ball_energy_grows_with_the_radius(seq, k_max):
    # the one-radius scan relies on this order of the values it reads: at
    # every probe and every scanned k, at the detection order
    r_grid = concentration._R_GRID
    probes = _dedup_points(np.vstack([e.center for e in seq.entries] + [_lattice(3)]))
    assert sorted(r_grid) == [0.05, 0.15, 0.45]
    for k in range(math.ceil(k_max / 2), k_max + 1):
        u = seq.field(k)
        for x in probes:
            e = [bubbling_energy(u, x, r, concentration._DETECTION_ORDER)
                 for r in sorted(r_grid)]
            assert e[0] <= e[1] <= e[2], (k, x.tolist(), e)


class ShiftedBubble(Bubble):
    """A bubble evaluated and differentiated one unit along x_1 from where
    it claims to sit."""

    def evaluate(self, points):
        return super().evaluate(points - np.eye(self.dimension)[0])

    def analytic_gradient(self, points):
        return super().analytic_gradient(points - np.eye(self.dimension)[0])


def test_ball_sup_unknown_unless_the_evaluation_is_closed_form():
    b = Bubble(3, np.zeros(3), 0.1)
    xs = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    nan_field = NaNSequence(
        3, make_sequence([(np.zeros(3), 4.0, 1.0)], budget=1e4).entries,
        budget=1e4).field(2)
    unknown = [
        CustomField(3, b.evaluate, b.analytic_gradient),
        RescaledField(b, np.zeros(3), 0.5),
        nan_field,
        ShiftedBubble(3, np.zeros(3), 0.1),
        Superposition([b, CustomField(3, b.evaluate)]),
    ]
    for u in unknown:
        assert u.ball_sup(xs, 0.1) is None
        assert _ball_energy_bound(u, xs, 0.1) is None
    for u in (b, BubbleConfiguration([b], [1.0]), Superposition([b, b], [1.0, -1.0])):
        sup_u, sup_g = u.ball_sup(xs, 0.1)
        assert sup_u.shape == sup_g.shape == (2,)


class ShiftedRescaled(RescaledField):
    """A rescaled field evaluated one unit along x_1 from where it claims
    to sit."""

    def evaluate(self, points):
        return super().evaluate(points - np.eye(self.dimension)[0])

    def analytic_gradient(self, points):
        return super().analytic_gradient(points - np.eye(self.dimension)[0])


class TiltedConstant(ConstantField):
    """The linear function value * x_1, not the constant it claims to be."""

    def evaluate(self, points):
        return self.value * points[:, 0]

    def analytic_gradient(self, points):
        return self.value * np.eye(self.dimension)[[0] * len(points)]


class ShiftedPass(Bubble):
    """A bubble whose one-pass value and gradient sit one unit along x_1
    from where it claims to sit."""

    def value_and_gradient(self, points):
        return super().value_and_gradient(points - np.eye(self.dimension)[0])


class ShiftedPassSum(Superposition):
    """A superposition whose one-pass value and gradient sit one unit
    along x_1 from where its parts claim to sit."""

    def value_and_gradient(self, points):
        return super().value_and_gradient(points - np.eye(self.dimension)[0])


def one_pass_wrapper(u):
    """A custom field of ``u.value_and_gradient``'s two outputs."""
    return CustomField(u.dimension, lambda p: u.value_and_gradient(p)[0],
                       lambda p: u.value_and_gradient(p)[1])


def test_symmetry_fact_unknown_unless_the_evaluation_is_closed_form():
    # none of these is radial about its claimed center: each takes the
    # full rule a wrapper of the same callables takes, and has no bound
    b = aubin_talenti(3, 0.5)
    cases = [(u, CustomField(3, u.evaluate, u.analytic_gradient))
             for u in (ShiftedBubble(3, np.zeros(3), 0.5),
                       ShiftedRescaled(b, np.zeros(3), 1.0), TiltedConstant(3, 2.0))]
    cases += [(u, one_pass_wrapper(u))
              for u in (ShiftedPass(3, np.zeros(3), 0.5), ShiftedPassSum([b]))]
    for u, wrapped in cases:
        assert (bubbling_energy(u, np.zeros(3), 0.8, 24)
                == bubbling_energy(wrapped, np.zeros(3), 0.8, 24))
        assert u.ball_sup(np.zeros((1, 3)), 0.8) is None
        for v in (u, wrapped, Superposition([b, u])):
            assert v.radial_parts[2]
            assert _layout(v, np.zeros(3)) == ("full", None)
    nan_field = NaNSequence(
        3, make_sequence([(np.zeros(3), 4.0, 1.0)], budget=1e4).entries,
        budget=1e4).field(2)
    assert nan_field.radial_parts[2]


def test_nearby_centers_are_not_one_center():
    # bubbles 5e-6 apart near (1, 0, 0) are two centers, although a
    # relative tolerance of 1e-5 would take them for one.  Moving the second
    # along x_1 or along x_2 is a rotation about c1, so the energies agree
    c1 = np.array([1.0, 0.0, 0.0])
    energies = []
    for e in np.eye(3)[:2]:
        u = BubbleConfiguration([Bubble(3, c1, 1e-7), Bubble(3, c1 + 5e-6 * e, 1e-7)])
        assert _layout(u, c1)[0] != "radial"
        energies.append(bubbling_energy(u, c1, 0.1))
    assert energies[0] == pytest.approx(energies[1], rel=1e-8)


@st.composite
def signed_bubble_sums(draw):
    """(u, x, r): 1-3 bubbles with weights +-1 at distances 0..2 from x."""
    n = draw(st.integers(3, 6))
    unit = st.floats(-1.0, 1.0)
    x = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    bubbles, weights = [], []
    for _ in range(draw(st.integers(1, 3))):
        d = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
        d = d / np.linalg.norm(d) if np.linalg.norm(d) > 1e-3 else np.eye(n)[0]
        offset = draw(st.floats(0.0, 2.0))
        bubbles.append(Bubble(n, x + offset * d, 10.0 ** draw(st.floats(-12.0, 0.0))))
        weights.append(draw(st.sampled_from([1.0, -1.0])))
    r = draw(st.floats(1e-3, 1.0))
    return BubbleConfiguration(bubbles, weights), x, r


def critical_points(u, x, r, rng):
    """Points of the ball where the bounds are tight or nearly so: random
    points, inside and on the sphere; per bubble, the point nearest its
    center, pushed half the node slack outward, and the point where |grad|
    peaks on the line through x and the center."""
    n = u.dimension
    dirs = rng.standard_normal((64, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    rho = np.concatenate([rng.random(48) ** (1.0 / n), np.ones(16)])
    pts = [x + r * rho[:, None] * dirs]
    for b in u.bubbles:
        gap = float(np.linalg.norm(b.center - x))
        e = (b.center - x) / gap if gap > 0 else np.eye(n)[0]
        reach = r + node_slack(r) / 2
        near = b.center if gap <= reach else x + reach * e
        # distance from the center to the gradient peak, clamped to the ball
        s = min(max(b.scale / math.sqrt(n - 1), gap - r), gap + r)
        pts.append(np.stack([near, b.center - s * e, b.center + s * e]))
    pts = np.concatenate(pts)
    return pts[np.linalg.norm(pts - x, axis=1) <= r + node_slack(r) / 2]


@given(signed_bubble_sums(), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_ball_sup_dominates_the_field_and_its_energy(case, seed):
    u, x, r = case
    rule = ball_rule_for(u, x, r, 4)
    pts = np.concatenate([rule.nodes, critical_points(u, x, r, np.random.default_rng(seed))])
    sup_u, sup_g = (v[0] for v in u.ball_sup(x[None, :], r))
    # a few units in the last place for evaluating the field at a point
    tol = 1.0 + 1e-13
    assert np.all(np.abs(u.evaluate(pts)) <= sup_u * tol)
    assert np.all(np.linalg.norm(u.gradient(pts), axis=1) <= sup_g * tol)
    # rule weights sum to |B_r| within 1e-10
    bound = _ball_energy_bound(u, x[None, :], r)[0]
    assert bubbling_energy(u, x, r, 4) <= bound * (1.0 + 1e-9)


def test_detect_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        detect_sigma(single_bubble_seq(), 4, [0.1], 0.0)


@pytest.mark.parametrize("k_max", [-1, 0, 2.5])
def test_k_max_must_be_an_integer_of_at_least_one(k_max):
    # with no field to scan every probe would count as a hit, and the
    # report needs a neck at k_max - 1
    message = "k_max must be an integer >= 1"
    with pytest.raises(ValueError, match=message):
        detect_sigma(single_bubble_seq(), k_max, [0.05], 1.0)
    with pytest.raises(ValueError, match=message):
        quantization_report(single_bubble_seq(), QuantizationConfig(k_max=k_max))


def test_report_at_the_smallest_k_max_has_necks_at_k_0_and_1():
    rep = quantization_report(single_bubble_seq(), QuantizationConfig(k_max=1))
    assert all(sorted(per_k) == [0, 1] for p in rep.points for per_k in p.necks.values())


def test_report_refuses_n_8_before_the_budget_check(monkeypatch):
    def no_budget_check(*args, **kwargs):
        raise AssertionError("the budget check ran before the dimension was refused")

    monkeypatch.setattr(ConcentrationSequence, "verify_budget", no_budget_check)
    seq = make_sequence([(np.zeros(8), 4.0, 1.0)], budget=1e6, n=8)
    with pytest.raises(ValueError, match=r"the detection lattice supports n <= 7"):
        quantization_report(seq)


def test_detection_lattice_supports_n_up_to_7():
    assert _lattice(7).shape == (5**7, 7)
    with pytest.raises(ValueError, match=r"the detection lattice supports n <= 7 "
                       r"\(5\^n probes, at most 100,000\); got n = 8"):
        _lattice(8)


# ---------------------------------------------------------------------------
# rescaling and bubble-scale energies
# ---------------------------------------------------------------------------


def test_rescale_inverts_bubble_construction():
    u = Bubble(3, np.array([0.2, 0.1, 0.0]), 0.01)
    v = RescaledField(u, u.center, u.scale)
    ref = aubin_talenti(3)
    pts = np.random.default_rng(0).standard_normal((100, 3)) * 3
    assert np.max(np.abs(v.evaluate(pts) - ref.evaluate(pts))) < 1e-12


def test_rescale_zero_field():
    v = RescaledField(ConstantField(3, 0.0), np.zeros(3), 0.5)
    assert np.all(v.evaluate(np.zeros((4, 3))) == 0.0)


@pytest.mark.parametrize("y, delta, message", [
    (np.zeros(3), math.inf, "rescaling factor must be finite and > 0, got inf"),
    ([math.nan, 0, 0], 0.5, r"rescaling center must be finite, got \[nan, 0.0, 0.0\]"),
    ([0, -math.inf, 0], 0.5, r"rescaling center must be finite, got \[0.0, -inf, 0.0\]"),
], ids=["infinite-factor", "nan-center", "infinite-center"])
def test_rescale_refuses_non_finite_factor_and_center(y, delta, message):
    u = aubin_talenti(3)
    with pytest.raises(ValueError, match=message):
        RescaledField(u, y, delta)
    # refused before any node is integrated, so the field is not blamed
    with pytest.raises(ValueError, match=message):
        scaled_measure(u, y, delta, 1.0)


def test_rescale_two_scale_superposition_converges_to_profile():
    seq = make_sequence(
        [(np.zeros(3), 4.0, 1.0), (np.zeros(3), 16.0, 1.0)], budget=1e4, n=3
    )
    ref = aubin_talenti(3)
    pts = np.random.default_rng(1).standard_normal((200, 3)) * 5
    sups = []
    for k in (2, 4, 6):
        v = RescaledField(seq.field(k), np.zeros(3), seq.scales(k)[1])  # finer scale
        sups.append(np.max(np.abs(v.evaluate(pts) - ref.evaluate(pts))))
    # the leftover coarse bubble enters at amplitude (delta_f/delta_c)^((n-2)/2)
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] < 2.0 ** -6 * aubin_talenti(3)(np.zeros(3)) * 1.05


def bubble_scale_energy(seq, R, k, order=24):
    """Unweighted energy of u_k over B(y, R delta_k) about the first entry:
    the bubble-scale ball whose double limit (k, then R) isolates one
    bubble's full energy."""
    entry = seq.entries[0]
    return bubbling_energy(seq.field(k), entry.center, R * entry.schedule(k), order)


def test_bubble_energy_limit_k_independent():
    seq = single_bubble_seq()
    vals = [bubble_scale_energy(seq, 10.0, k, order=48) for k in (2, 4, 6)]
    assert vals[1] == pytest.approx(vals[0], rel=1e-8)
    assert vals[2] == pytest.approx(vals[0], rel=1e-8)


def test_bubble_energy_limit_growth_matches_analytic_tail():
    seq = single_bubble_seq()
    v10 = bubble_scale_energy(seq, 10.0, 4, order=48)
    v100 = bubble_scale_energy(seq, 100.0, 4, order=48)
    v1000 = bubble_scale_energy(seq, 1000.0, 4, order=48)
    assert v10 < v100 < v1000
    expected = gradient_tail_bound(3, 10.0) - gradient_tail_bound(3, 100.0)
    assert v100 - v10 == pytest.approx(expected, rel=0.02)
    # the leading 1/s gradient tail makes the step to the next decade < 1%
    assert (v1000 - v100) / v1000 < 0.01


def test_bubble_energy_limit_zero_weight():
    seq = make_sequence([(np.zeros(3), 4.0, 0.0)], budget=10.0, n=3)
    assert bubble_scale_energy(seq, 10.0, 3) == 0.0


# ---------------------------------------------------------------------------
# neck energies
# ---------------------------------------------------------------------------


def test_neck_zero_field():
    seq = make_sequence([(np.zeros(3), 10.0, 0.0)], budget=10.0, n=3)
    assert neck_energy(seq, 3, R=100.0).total == 0.0


def test_neck_small_and_decreasing_in_R():
    seq = make_sequence([(np.zeros(3), 10.0, 1.0)], budget=1e4, n=3)
    lam0 = lambda0_oracle(3)
    totals = [neck_energy(seq, 3, R=R, outer=0.5).total for R in (10.0, 30.0, 100.0)]
    assert totals[0] > totals[1] > totals[2]
    assert totals[2] < 0.01 * lam0


def test_neck_dyadic_shells_dominated_by_tail_bound():
    # closed-form tail of the bubble density: surf * c^2 (n-2)(a^(2-n) + a^-n)
    n = 3
    seq = make_sequence([(np.zeros(n), 10.0, 1.0)], budget=1e4, n=n)
    k, R = 3, 30.0
    delta = seq.scales(k)[0]
    rep = neck_energy(seq, k, R=R, outer=0.5)
    c2 = (n * (n - 2)) ** ((n - 2) / 2)

    def tail(a_phys):
        a = a_phys / delta  # rescaled inner radius
        return unit_sphere_area(n) * c2 * (n - 2) * (a ** (2 - n) + a ** (-n))

    for a, b, val in rep.shells:
        assert val <= tail(a) * 1.01
    assert rep.total <= tail(rep.inner) * 1.01


def test_neck_max_shell_vanishes_with_R():
    seq = make_sequence([(np.zeros(3), 10.0, 1.0)], budget=1e4, n=3)
    maxima = [
        max(s[2] for s in neck_energy(seq, 3, R=R, outer=0.5).shells)
        for R in (10.0, 30.0, 100.0)
    ]
    assert maxima[0] > maxima[1] > maxima[2]


def test_neck_rejects_degenerate_annulus():
    seq = single_bubble_seq()
    with pytest.raises(ValueError):
        neck_energy(seq, 2, inner=0.6, outer=0.5)


def one_rule_energy(u, rule):
    """Reference: the unweighted energy of ``u`` on one rule, by the
    field-density evaluator in the rule's own layout."""
    n = u.dimension
    p = 2.0 * n / (n - 2)

    def dens(v, g, y):
        return (np.einsum("mi,mi->m", g, g) + np.abs(v) ** p,)

    return float(_integrate_density(u, rule.piece, dens)[0, 0])


def per_rule_neck(seq, k, R, outer, order=24, entry=0):
    """Reference: one annulus rule per dyadic shell."""
    e = seq.entries[entry]
    u = seq.field(k)
    edges = [R * e.schedule(k)]
    while edges[-1] * 2 < outer:
        edges.append(edges[-1] * 2)
    edges.append(outer)
    shells = [(a, b, one_rule_energy(u, annulus_rule_for(u, e.center, a, b, order)))
              for a, b in zip(edges[:-1], edges[1:])]
    return shells, sum(val for _, _, val in shells)


def sweep_sequences(n):
    return [
        make_sequence([(np.zeros(n), 4.0, 1.0), (np.zeros(n), 16.0, 1.0)], budget=1e4, n=n),
        make_sequence([(0.25 * np.eye(n)[0], 4.0, 1.0), (-0.25 * np.eye(n)[0], 16.0, -1.0)],
                      budget=1e4, n=n),
    ]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_neck_matches_per_rule_loop(n):
    for seq in sweep_sequences(n):
        for k, R, outer in ((3, 10.0, 0.5), (5, 100.0, 0.5), (6, 0.5, 0.3), (2, 0.1, 1.5)):
            rep = neck_energy(seq, k, R=R, outer=outer)
            shells, total = per_rule_neck(seq, k, R, outer)
            assert rep.shells == shells
            assert rep.total == total
            assert all(type(v) is float for _, _, v in rep.shells)


def shell_order_total(shells):
    """A neck total summed shell by shell, innermost first."""
    total = 0.0
    for _, _, val in shells:
        total += val
    return total


@pytest.mark.parametrize("n", [3, 4, 5])
def test_neck_batch_matches_one_rule_per_shell(n):
    # R = 3000 leaves no annulus at k = 4 (inner 11.7 > 0.5) and one at
    # k = 8 (inner 0.046)
    Rs = (10.0, 100.0, 3000.0)
    seqs = [tower(n, N) for N in (1, 2, 3)] + [make_sequence(
        [(0.25 * np.eye(n)[0], 4.0, 1.0), (-0.25 * np.eye(n)[0], 16.0, -1.0)],
        budget=1e4, n=n)]
    for seq in seqs:
        for k in (4, 8):
            reps = neck_energies(seq, k, Rs)
            delta = seq.entries[0].schedule(k)
            assert [rep.inner for rep in reps] == [R * delta for R in Rs]
            for R, rep in zip(Rs, reps):
                if R * delta >= 0.5:
                    assert math.isnan(rep.total) and rep.shells == []
                    with pytest.raises(ValueError, match="need 0 < inner < outer"):
                        neck_energy(seq, k, R=R)
                    with pytest.raises(ValueError, match="need 0 < inner < outer"):
                        rep.checked()
                    continue
                one = neck_energy(seq, k, R=R)
                assert rep.shells == one.shells and rep.total == one.total
                assert rep.checked() is rep
                shells, _ = per_rule_neck(seq, k, R, 0.5)
                assert rep.shells == shells
                assert rep.total == shell_order_total(shells)
        assert math.isnan(neck_energies(seq, 4, Rs)[2].total)


def test_neck_batch_of_no_annulus_and_of_no_R():
    seq = tower(3, 1)
    reps = neck_energies(seq, 2, [100.0, -1.0, float("nan")])
    assert all(math.isnan(rep.total) and rep.shells == [] for rep in reps)
    assert neck_energies(seq, 2, []) == []


def test_report_takes_one_neck_batch_per_k(monkeypatch):
    batches = []
    original = concentration._shell_energies

    def recording(u, x, regions, order):
        batches.append(list(regions))
        return original(u, x, regions, order)

    monkeypatch.setattr(concentration, "_shell_energies", recording)
    neck_R, outer = (10.0, 100.0, 3000.0), concentration._NECK_OUTER
    monkeypatch.setattr(concentration, "_NECK_R", neck_R)
    seq = tower(3, 2)
    rep = quantization_report(seq, QuantizationConfig(k_max=8))
    monkeypatch.undo()
    assert len(rep.points) == 1
    # a neck batch is the one whose shells reach the outer radius; three k,
    # each with every R that has an annulus (R = 3000 has none at k = 6)
    necks = [b for b in batches if any(hi == outer for _, hi in b)]
    assert len(necks) == 3
    assert [sum(hi == outer for _, hi in b) for b in necks] == [2, 3, 3]
    got = rep.points[0].necks
    assert list(got) == list(neck_R)
    for R in neck_R:
        assert list(got[R]) == [6, 7, 8]
        for k in (6, 7, 8):
            if R * seq.entries[0].schedule(k) >= outer:
                assert math.isnan(got[R][k])
            else:
                assert got[R][k] == neck_energy(seq, k, R=R).total
    assert math.isnan(got[3000.0][6]) and not math.isnan(got[3000.0][7])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_theta_matches_per_rule_loop(n):
    for seq in sweep_sequences(n):
        for x in (np.zeros(n), 0.25 * np.eye(n)[0], 0.1 * np.eye(n)[1]):
            est = theta_estimate(seq, x, 0.05, 4)
            u = seq.field(4)
            want = {r: one_rule_energy(u, ball_rule_for(u, x, r, 24))
                    for r in (0.025, 0.05 / math.sqrt(2.0), 0.05)}
            assert est.samples == want
            assert all(type(v) is float for v in est.samples.values())


# ---------------------------------------------------------------------------
# Theta and the scaled measure
# ---------------------------------------------------------------------------


def test_theta_single_bubble_near_lambda0():
    est = theta_estimate(single_bubble_seq(), np.zeros(3), 0.05, 8)
    assert est.stable
    assert est.value / lambda0_oracle(3) == pytest.approx(1.0, abs=0.05)


def test_theta_two_scale_tower_near_two():
    seq = make_sequence(
        [(np.zeros(3), 4.0, 1.0), (np.zeros(3), 16.0, 1.0)], budget=1e4, n=3
    )
    est = theta_estimate(seq, np.zeros(3), 0.05, 10)
    assert est.stable
    assert 1.9 <= est.value / lambda0_oracle(3) <= 2.1


def test_theta_carries_weak_limit_field():
    est = theta_estimate(single_bubble_seq(), np.zeros(3), 0.05, 8)
    assert est.weak_limit_energy == 0.0


def test_scaled_measure_identity_at_unit_scale():
    u = aubin_talenti(3)
    rule = build_ball_rule(3, 0, 0.7, order=32)
    direct = energy_in(u, rule)
    assert scaled_measure(u, np.zeros(3), 1.0, 0.7) == pytest.approx(direct, rel=1e-8)


def test_scaled_measure_change_of_variables():
    u = aubin_talenti(3, delta=0.3, y=[0.1, 0, 0])
    y = np.array([0.05, 0.0, 0.0])
    for lam, r in ((0.5, 0.8), (0.25, 1.2)):
        lhs = scaled_measure(u, y, lam, r, order=48)
        rule = build_ball_rule(3, y, lam * r, order=48)
        assert lhs == pytest.approx(energy_in(u, rule), rel=1e-8)


def test_scaled_measure_constant_at_matched_product():
    # chi(B_r) independent of r when lam*r is held fixed
    u = aubin_talenti(3, delta=1e-2)
    rho = 0.2
    vals = [scaled_measure(u, np.zeros(3), rho / r, r, order=48) for r in (0.5, 1.0, 2.0)]
    assert vals[1] == pytest.approx(vals[0], rel=1e-8)
    assert vals[2] == pytest.approx(vals[0], rel=1e-8)


def test_scaled_measure_zero_field():
    assert scaled_measure(ConstantField(3, 0.0), np.zeros(3), 0.5, 1.0) == 0.0


def test_scaled_measure_rejects_bad_args():
    with pytest.raises(ValueError):
        scaled_measure(aubin_talenti(3), np.zeros(3), 0.0, 1.0)


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


def test_quantization_single_bubble():
    rep = quantization_report(single_bubble_seq(), QuantizationConfig(k_max=8))
    assert len(rep.points) == 1
    p = rep.points[0]
    assert p.n_hat == 1
    assert abs(p.ratio - 1.0) <= 0.05
    assert len(p.inventory) == 1
    delta, center, energy = p.inventory[0]
    assert delta == pytest.approx(4.0**-8, rel=1e-3)
    assert energy == pytest.approx(rep.lambda0.value)
    # inventory energies sum to Theta within the reported cross-term budget
    assert abs(p.n_hat * rep.lambda0.value - p.theta) <= 0.05 * rep.lambda0.value


def field_key(u):
    if isinstance(u, Superposition):
        return ("sum", tuple(field_key(p) for p in u.parts), tuple(u.weights.tolist()))
    return ("bubble", u.center.tobytes(), u.scale, u.sign)


def test_quantization_report_computes_each_ball_energy_once(monkeypatch):
    # every ball and annulus energy of the pipeline goes through
    # _shell_energies; none is computed twice for one field, point, region
    # and order
    counts = {}
    original = concentration._shell_energies

    def counting(u, x, regions, order):
        for inner, outer in regions:
            key = (field_key(u), np.asarray(x, dtype=float).tobytes(), float(inner),
                   float(outer), order)
            counts[key] = counts.get(key, 0) + 1
        return original(u, x, regions, order)

    monkeypatch.setattr(concentration, "_shell_energies", counting)
    seq = make_sequence([(np.zeros(3), b, 1.0) for b in (4.0, 16.0, 64.0)], budget=1e4, n=3)
    rep = quantization_report(seq, QuantizationConfig(k_max=10))
    assert [p.n_hat for p in rep.points] == [3]
    assert len(counts) > 100
    assert {key: c for key, c in counts.items() if c > 1} == {}


def recorded_piece_batches(monkeypatch) -> list:
    """The regions of every piece batch ``fields._shell_energies`` builds
    from now on."""
    from bubblelab import fields

    batches = []
    original = fields.shell_pieces_for

    def recording(u, x, regions, *args, **kwargs):
        batches.append(regions)
        return original(u, x, regions, *args, **kwargs)

    monkeypatch.setattr(fields, "shell_pieces_for", recording)
    return batches


@pytest.mark.parametrize("delta", [0.1, 1e-6, 1e-18])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_half_threshold_radius_of_a_centered_bubble(n, delta, monkeypatch):
    # at most 4 piece batches, and the radius sits within 1e-3 above the
    # standard profile's, scaled by delta
    u, x = aubin_talenti(n, delta), np.zeros(n)
    target = bubble_energy_constant(n).value / 20
    energy_hi = bubbling_energy(u, x, 1.0, 24)
    batches = recorded_piece_batches(monkeypatch)
    rho = _half_threshold_radius(u, x, target, 1.0, 24, energy_hi)
    assert 1 <= len(batches) <= 4
    assert rho / (delta * _standard_halfball_radius(n, target)) == pytest.approx(1.0, abs=2e-3)


def test_half_threshold_radius_edge_cases(monkeypatch):
    n, delta = 4, 1e-6
    u, x = aubin_talenti(n, delta), np.zeros(n)
    energy_hi = bubbling_energy(u, x, 1.0, 24)
    calls = recorded_piece_batches(monkeypatch)
    # short of the target at r_hi: None, and no quadrature
    assert _half_threshold_radius(u, x, 2 * energy_hi, 1.0, 24, energy_hi) is None
    assert calls == []
    # r_hi already at the floor (1e-3 of the finest scale): r_hi itself
    assert _half_threshold_radius(u, x, 1e-300, 1e-10, 24, 1.0) == 1e-10
    assert calls == []
    # every rung down to the floor still reaches the target: the result
    # sits just above the lowest rung, the first at or below the floor
    lowest = 1.0
    while lowest > delta * 1e-3:
        lowest /= 4.0
    rho = _half_threshold_radius(u, x, 1e-300, 1.0, 24, energy_hi)
    assert lowest < rho < lowest * (1 + 1e-3)
    assert len(calls) <= 4


@pytest.mark.parametrize("layout", ["radial", "zonal", "full"])
def test_half_threshold_radius_brackets_the_target_in_every_layout(layout):
    # ball rules of their own, not the search's shells: the target is
    # reached at the radius found and missed a factor 1 + 1e-3 below it
    e = np.eye(3)
    parts = {
        "radial": [Bubble(3, np.zeros(3), 1e-2), Bubble(3, np.zeros(3), 1e-5)],
        "zonal": [Bubble(3, np.zeros(3), 1e-2), Bubble(3, 0.01 * e[0], 1e-3)],
        "full": [Bubble(3, np.zeros(3), 1e-3), Bubble(3, 0.3 * e[0], 0.1),
                 Bubble(3, 0.3 * e[1], 0.1)],
    }[layout]
    w, x = Superposition(parts), np.zeros(3)
    assert _layout(w, x)[0] == layout
    target = lambda0_oracle(3) / 20
    rho = _half_threshold_radius(w, x, target, 0.05, 24, bubbling_energy(w, x, 0.05, 24))
    assert bubbling_energy(w, x, rho, 24) >= target > bubbling_energy(w, x, rho / (1 + 1e-3), 24)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_fit_jacobian_matches_central_differences(n, sign):
    rng = np.random.default_rng(10 * n + (sign > 0))
    for _ in range(4):
        delta = 10.0 ** rng.uniform(-8, 0)
        x = rng.uniform(-0.5, 0.5, n)
        samples = _fit_sample_points(n, x, delta * 10.0 ** rng.uniform(-0.5, 0.5))
        params = np.concatenate([[math.log(delta)], x + 0.3 * delta * rng.standard_normal(n)])
        # the residual against a nearby bubble, as in the fit
        target, _ = _profile_model(n, sign, samples, 0.0, 1.0)(
            params + 0.1 * np.concatenate([[1.0], np.full(n, delta)]) * rng.standard_normal(n + 1))
        model = _profile_model(n, sign, samples, target, np.abs(target).max())

        def resid(p):
            return model(p)[0]

        steps = 1e-5 * np.concatenate([[1.0], np.full(n, delta)])
        fd = np.empty((len(samples), n + 1))
        for i, h in enumerate(steps):
            up, down = params.copy(), params.copy()
            up[i] += h
            down[i] -= h
            # the exact step taken, after rounding the perturbed parameters
            fd[:, i] = (resid(up) - resid(down)) / (up[i] - down[i])
        jac = model(params)[1]
        assert np.all(np.abs(jac - fd).max(axis=0) <= 1e-6 * np.abs(jac).max(axis=0))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 7), log_delta=st.floats(math.log(1e-18), 0.0),
       sign=st.sampled_from([1.0, -1.0]), scale_off=st.sampled_from([-0.3, 0.3]),
       center_off=st.lists(st.sampled_from([-0.3, 0.3]), min_size=7, max_size=7))
def test_fit_recovers_a_clean_bubble(n, log_delta, sign, scale_off, center_off):
    # a start off by 0.3 in log delta and by 0.3 delta in every coordinate
    delta = math.exp(log_delta)
    x = delta * np.array(center_off[:n])
    fitted, info = _fit_bubble(Bubble(n, np.zeros(n), delta, sign), x,
                               delta * math.exp(scale_off), concentration._FIT_TOL)
    assert info["converged"] and info["stop"] != "max_nfev"
    assert fitted.sign == sign
    assert abs(fitted.scale / delta - 1.0) <= 1e-10
    assert np.abs(fitted.center).max() <= 1e-10 * delta


def test_fit_that_runs_out_of_evaluations_is_not_converged(monkeypatch):
    lm = concentration._levenberg_marquardt
    monkeypatch.setattr(concentration, "_levenberg_marquardt",
                        lambda model, p, tol, max_nfev: lm(model, p, tol, 2))
    x = np.array([0.03, 0.0, 0.0])
    _, info = _fit_bubble(aubin_talenti(3, 0.1), x, 0.05, concentration._FIT_TOL)
    assert info["stop"] == "max_nfev" and info["nfev"] == 2
    assert info["converged"] is False
    assert info["rel_rms"] < 0.05  # a small residual alone does not converge a fit


@pytest.mark.parametrize("bound", [800.0, -800.0], ids=["exp-overflows", "exp-underflows"])
def test_fit_step_whose_scale_bubble_refuses_is_rejected(bound):
    # the residual pulls log delta towards a bound where exp(log delta) is
    # inf or 0: Bubble refuses those trials, and they are rejected steps
    refused = []

    def model(p):
        try:
            Bubble(3, np.zeros(3), math.exp(p[0]))
        except (ValueError, OverflowError):
            refused.append(p[0])
            raise
        return np.array([p[0] - bound]), np.eye(1)

    p, cost, nfev, stop = _levenberg_marquardt(
        model, np.array([math.copysign(700.0, bound)]), 1e-12, 400)
    assert refused and stop != "max_nfev"
    # stalled between the start and the first scale Bubble refuses
    assert 700.0 < abs(p[0]) < min(abs(r) for r in refused)
    assert cost == 0.5 * (p[0] - bound) ** 2


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("n", [6, 7])
def test_quantization_extracts_high_dimensional_towers(n, N):
    # the fit on the fine bubble of the n = 7 two-bubble tower used to stop
    # at max_nfev without success (fit-not-converged, n_hat 0)
    bases = [4.0, 16.0, 64.0][:N]
    seq = make_sequence([(np.zeros(n), b, 1.0) for b in bases], budget=1e4, n=n)
    rep = quantization_report(seq, QuantizationConfig(k_max=8))
    assert [p.n_hat for p in rep.points] == [N]
    p = rep.points[0]
    assert p.flags == []
    assert abs(p.ratio - N) <= 0.05
    scales = sorted(d for d, _, _ in p.inventory)
    assert scales == pytest.approx(sorted(b**-8 for b in bases), rel=1e-3)


def test_quantization_zero_sequence_empty_report():
    seq = make_sequence([(np.zeros(3), 4.0, 0.0)], budget=10.0, n=3)
    rep = quantization_report(seq, QuantizationConfig(k_max=6))
    assert rep.points == []


def test_quantization_budget_violation_rejected():
    seq = single_bubble_seq(budget=1e-3)
    with pytest.raises(BudgetError):
        quantization_report(seq, QuantizationConfig(k_max=6))


def test_report_json_schema():
    rep = quantization_report(single_bubble_seq(), QuantizationConfig(k_max=8))
    doc = report_to_json(rep)
    assert doc["schema"] == "bubble-lab/1"
    for key in ("sigma_points", "theta", "n_hat", "ratios", "necks", "tolerances"):
        assert key in doc
    assert doc["n_hat"] == [1]
    assert len(doc["necks"][0]) == 9  # 3 R values x 3 k values


def test_report_thresholds_name_the_detection_radii_and_detector():
    rep = quantization_report(single_bubble_seq(), QuantizationConfig(k_max=8))
    lam0 = bubble_energy_constant(3).value
    assert report_to_json(rep)["tolerances"] == {
        "eps0": lam0 / 20.0, "eps_n": lam0 / 10.0, "r_grid": [0.05, 0.15, 0.45],
        "r_small": 0.05, "detector": "ball-energy", "k_max": 8,
    }


def test_quantization_config_holds_only_the_thresholds_callers_set():
    names = [f.name for f in dataclasses.fields(QuantizationConfig)]
    assert names == ["k_max", "eps0", "eps_n", "r_small"]


def test_detect_sigma_returns_the_points_the_report_starts_from():
    seq = make_sequence([([0.5, 0, 0], 4.0, 1.0), ([-0.5, 0, 0], 16.0, 1.0)],
                        budget=1e4, n=3)
    rep = quantization_report(seq, QuantizationConfig(k_max=6))
    pts = detect_sigma(seq, 6, [0.05, 0.15, 0.45], bubble_energy_constant(3).value / 20)
    assert len(pts) == 2
    assert [p.tobytes() for p in pts] == [p.point.tobytes() for p in rep.points]


def test_sequence_spec_roundtrip(tmp_path):
    spec = tmp_path / "seq.ini"
    spec.write_text(
        "[sequence]\nn = 3\nk_max = 6\nbudget = 500\ndescription = tower\n\n"
        "[bubble:coarse]\ncenter = 0 0 0\nbase = 4\nweight = 1\n\n"
        "[bubble:fine]\ncenter = 0 0 0\nbase = 16\nweight = 1\n"
    )
    seq, extras = read_sequence_spec(spec)
    assert seq.dimension == 3
    assert len(seq.entries) == 2
    assert extras["k_max"] == 6
    assert seq.budget == 500
    assert seq.scales(2)[1] == pytest.approx(16.0**-2)


def test_sequence_spec_values_are_read_literally(tmp_path):
    spec = tmp_path / "seq.ini"
    spec.write_text("[sequence]\nn = 3\ndescription = 50% tower, 100%% literal\n\n"
                    "[bubble:one]\nbase = 4\n")
    seq, _ = read_sequence_spec(spec)
    assert seq.description == "50% tower, 100%% literal"


def test_sequence_spec_without_center_puts_the_bubble_at_the_origin(tmp_path):
    spec = tmp_path / "seq.ini"
    spec.write_text("[sequence]\nn = 3\n\n[bubble:one]\nbase = 4\n")
    seq, _ = read_sequence_spec(spec)
    assert np.array_equal(seq.entries[0].center, np.zeros(3))


def test_sequence_spec_requires_section(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[nope]\nn = 3\n")
    with pytest.raises(ValueError):
        read_sequence_spec(bad)
