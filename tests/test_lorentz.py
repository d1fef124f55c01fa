import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bubblelab import _csv
from bubblelab.grid import unit_ball_volume
from bubblelab.fields import CustomField, aubin_talenti, annulus_rule_for, ConstantField
from bubblelab.lorentz import (
    LorentzIndex,
    RearrangementTable,
    SampledFunction,
    _rearranged_rows,
    _row_mask,
    duality_product_check,
    duality_product_checks,
    lorentz_norm,
    power_rule_check,
    read_samples_csv,
    rearrange,
    sample_radial,
    tail_decay_check,
    write_samples_csv,
    write_table_csv,
)

L2 = LorentzIndex(2.0, 2.0)
L21 = LorentzIndex(2.0, 1.0)
L2INF = LorentzIndex(2.0, float("inf"))


def sampled(values, measures=None):
    values = np.asarray(values, dtype=float)
    if measures is None:
        measures = np.ones_like(values)
    return SampledFunction(values, np.asarray(measures, dtype=float))


finite_vals = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=30
)
pos_meas = st.lists(
    st.floats(min_value=0.01, max_value=10, allow_nan=False), min_size=1, max_size=30
)


# ---------------------------------------------------------------------------
# rearrangement
# ---------------------------------------------------------------------------


def test_indicator_rearrangement():
    vol = 4 * np.pi / 3
    f = sampled(np.ones(8), np.full(8, vol / 8))
    table = rearrange(f)
    assert np.all(table.levels == 1.0)
    assert table.total_measure == pytest.approx(vol, rel=1e-14)
    assert table(np.array([vol / 2]))[0] == 1.0
    assert table(np.array([vol * 1.01]))[0] == 0.0


def test_rearrangement_positive_homogeneity():
    rng = np.random.default_rng(0)
    f = sampled(rng.standard_normal(20), rng.random(20) + 0.1)
    t1, t2 = rearrange(f), rearrange(f.scaled(2.0))
    assert np.array_equal(t2.levels, 2.0 * t1.levels)
    assert np.array_equal(t2.breaks, t1.breaks)


def test_radial_power_against_distribution_oracle():
    # meas{|x|^(-n/2) >= lam} = omega_n lam^-2 shifted by the excised core
    n, rho = 3, 0.05
    f = sample_radial(lambda r: r ** (-n / 2), n, rho, 20.0, 4000)
    table = rearrange(f)
    vol = unit_ball_volume(n)
    v_rho = vol * rho**n
    ts = np.array([0.5, 2.0, 20.0, 200.0])
    exact = np.sqrt(vol / (ts + v_rho))
    got = table(ts)
    assert np.all(np.abs(got - exact) <= 0.02 * exact)


@given(finite_vals)
@settings(max_examples=60, deadline=None)
def test_equimeasurability_exact(vals):
    f = sampled(vals)
    table = rearrange(f)
    # identical sorted multisets
    assert np.array_equal(np.sort(np.abs(f.values)), np.sort(table.levels))
    for lam in np.abs(f.values):
        direct = float(f.measures[np.abs(f.values) > lam].sum())
        assert table.super_level_measure(lam) == pytest.approx(direct, abs=1e-12)


@given(finite_vals)
@settings(max_examples=40, deadline=None)
def test_rearrangement_monotone(vals):
    f = sampled(vals)
    g = sampled(np.abs(np.asarray(vals)) + 0.5)
    # |f| <= g pointwise implies f* <= g* pointwise
    tf, tg = rearrange(f), rearrange(g)
    assert np.all(tf.levels <= tg.levels + 1e-12)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_l22_equals_l2():
    rng = np.random.default_rng(1)
    f = sampled(rng.standard_normal(50), rng.random(50) + 0.05)
    direct = np.sqrt(np.sum(f.values**2 * f.measures))
    assert lorentz_norm(f, L2) == pytest.approx(direct, rel=1e-10)


def test_weak_norm_of_inv_sqrt_profile():
    n = 3
    f = sample_radial(lambda r: r ** (-n / 2), n, 1e-3, 10.0, 100_000)
    expect = np.sqrt(unit_ball_volume(n))
    assert lorentz_norm(f, L2INF) == pytest.approx(expect, rel=0.02)


def test_zero_field_all_indices():
    f = sampled(np.zeros(5))
    for idx in (L2, L21, L2INF, LorentzIndex(0.5, 3.0)):
        assert lorentz_norm(f, idx) == 0.0


def test_norm_positive_homogeneity_exact():
    rng = np.random.default_rng(2)
    f = sampled(rng.standard_normal(30), rng.random(30) + 0.1)
    for idx in (L2, L21, L2INF, LorentzIndex(4.0, 1.5)):
        assert lorentz_norm(f.scaled(-3.0), idx) == pytest.approx(
            3.0 * lorentz_norm(f, idx), rel=1e-14
        )


@given(finite_vals, st.floats(min_value=1.1, max_value=8.0))
@settings(max_examples=40, deadline=None)
def test_nesting_between_secondary_indices(vals, q2):
    # ||f||_{p,q2} <= (q1/p)^(1/q1 - 1/q2) ||f||_{p,q1} for q1 < q2
    f = sampled(vals)
    p, q1 = 2.0, 1.0
    bound = (q1 / p) ** (1 / q1 - 1 / q2) * lorentz_norm(f, LorentzIndex(p, q1))
    assert lorentz_norm(f, LorentzIndex(p, q2)) <= bound * (1 + 1e-10)
    weak_bound = (q1 / p) ** (1 / q1) * lorentz_norm(f, LorentzIndex(p, q1))
    assert lorentz_norm(f, LorentzIndex(p, float("inf"))) <= weak_bound * (1 + 1e-10)


def test_overflowing_root_is_infinite():
    # q < 1: the sum ~ 1e31 is finite, its root sum ** (1/q) ~ 1e310 is not
    idx = LorentzIndex(1.0, 0.1)
    f = sampled([1e300, 1.0])
    assert lorentz_norm(f, idx) == math.inf
    assert lorentz_norm(rearrange(f), idx) == math.inf
    # a root that fits is the Python-float power of the closed-form sum
    total = 1e20 ** 0.1 * 10.0 + 1.0 * 10.0 * (2.0**0.1 - 1.0)
    assert lorentz_norm(sampled([1e20, 1.0]), idx) == pytest.approx(total**10, rel=1e-12)


def test_invalid_indices_rejected():
    with pytest.raises(ValueError):
        LorentzIndex(0.0, 2.0)
    with pytest.raises(ValueError):
        LorentzIndex(2.0, -1.0)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def test_duality_zero_factor():
    f = sampled([1.0, 2.0, 3.0])
    g = sampled([0.0, 0.0, 0.0])
    prod, n21, n2inf = duality_product_check(f, g)
    assert prod == 0.0
    assert n2inf == 0.0
    assert n21 > 0.0


def test_duality_indicator_closed_form():
    f = sampled(np.ones(4), np.full(4, 0.25))  # indicator of a measure-1 set
    prod, n21, n2inf = duality_product_check(f, f)
    assert prod == pytest.approx(1.0, rel=1e-14)
    assert n21 == pytest.approx(2.0, rel=1e-14)  # int_0^1 t^(-1/2) dt
    assert n2inf == pytest.approx(1.0, rel=1e-14)


@given(finite_vals, st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_duality_inequality_random(vals, seed):
    rng = np.random.default_rng(seed)
    meas = rng.random(len(vals)) + 0.05
    f = sampled(vals, meas)
    g = sampled(rng.standard_normal(len(vals)) * 10 ** rng.uniform(-2, 2), meas)
    prod, n21, n2inf = duality_product_check(f, g)
    assert prod <= n21 * n2inf * (1 + 1e-12)


def test_duality_mismatched_cells_rejected():
    with pytest.raises(ValueError):
        duality_product_check(sampled([1.0, 2.0]), sampled([1.0]))
    with pytest.raises(ValueError):
        duality_product_check(
            sampled([1.0, 2.0], [1.0, 1.0]), sampled([1.0, 2.0], [1.0, 2.0])
        )


# ---------------------------------------------------------------------------
# batched trials: the row-wise rearrangement core
# ---------------------------------------------------------------------------


def reference_row(values, measures):
    """One trial by hand: |values| sorted decreasing (ties in cell order),
    measures accumulated, then the closed forms of ||.||_{2,1} and
    ||.||_{2,inf} on the step function."""
    order = sorted(range(len(values)), key=lambda i: -abs(values[i]))
    levels = [abs(values[i]) for i in order]
    breaks = [0.0]
    for i in order:
        breaks.append(breaks[-1] + measures[i])
    n21 = sum(lv * 2 * (math.sqrt(t1) - math.sqrt(t0))
              for lv, t0, t1 in zip(levels, breaks, breaks[1:]))
    n2inf = max(math.sqrt(t1) * lv for lv, t1 in zip(levels, breaks[1:]))
    return levels, breaks, n21, n2inf


# magnitudes 1e-2..1e2 with either sign, exact zeros, and a few repeated
# values so that rows hold ties
row_value = st.one_of(
    st.floats(min_value=1e-2, max_value=1e2),
    st.floats(min_value=-1e2, max_value=-1e-2),
    st.sampled_from([0.0, 1.0, -1.0, 2.5]),
)
ragged_rows = st.lists(
    st.one_of(
        st.lists(row_value, min_size=1, max_size=40),
        st.lists(st.just(0.0), min_size=1, max_size=40),
    ),
    min_size=1, max_size=8,
)


def close(a, b, rel=1e-13):
    return abs(a - b) <= rel * abs(b)


@given(ragged_rows, st.integers(0, 2**31 - 1))
@settings(max_examples=150, deadline=None)
def test_row_core_matches_per_row_reference(rows, seed):
    rng = np.random.default_rng(seed)
    lengths = [len(r) for r in rows]
    fv = np.concatenate(rows)
    gv = np.roll(fv, 1) * rng.uniform(0.5, 2.0)
    meas = rng.uniform(0.05, 1.05, fv.size)
    # a quarter of the rows share one measure, so measures tie too
    meas[rng.random(fv.size) < 0.25] = 0.5
    levels, breaks = _rearranged_rows(fv, meas, _row_mask(lengths))
    prod, n21, n2inf = duality_product_checks(fv, gv, meas, lengths)
    assert prod.shape == n21.shape == n2inf.shape == (len(rows),)
    start = 0
    for i, m in enumerate(lengths):
        cells = slice(start, start + m)
        ref_levels, ref_breaks, ref21, ref2inf = reference_row(
            fv[cells].tolist(), meas[cells].tolist())
        g_ref = reference_row(gv[cells].tolist(), meas[cells].tolist())
        # the row's own cells come first, bit for bit; its padding after
        assert levels[i, :m].tolist() == ref_levels
        assert breaks[i, :m + 1].tolist() == ref_breaks
        assert np.all(levels[i, m:] == 0.0) and np.all(breaks[i, m:] == ref_breaks[-1])
        assert close(n21[i], ref21) and close(n2inf[i], g_ref[3])
        ref_prod = math.fsum(abs(a * b) * w for a, b, w in
                             zip(fv[cells], gv[cells], meas[cells]))
        assert close(prod[i], ref_prod)
        start += m


def test_row_core_keeps_tied_cells_in_cell_order():
    # 40 cells of two tied levels with distinct measures: the breaks follow
    # the cells' own order within each level
    values = np.tile([1.0, -2.0], 20)
    measures = np.arange(1.0, 41.0)
    levels, breaks = _rearranged_rows(values, measures, _row_mask([40]))
    order = list(range(1, 40, 2)) + list(range(0, 40, 2))
    assert levels[0].tolist() == [2.0] * 20 + [1.0] * 20
    assert breaks[0].tolist() == [0.0] + np.cumsum(measures[order]).tolist()


def test_one_trial_of_the_batch_is_the_single_check():
    rng = np.random.default_rng(5)
    f = sampled(rng.standard_normal(25), rng.random(25) + 0.05)
    g = sampled(rng.standard_normal(25), f.measures)
    batch = duality_product_checks(f.values, g.values, f.measures, [25])
    assert duality_product_check(f, g) == tuple(float(c[0]) for c in batch)
    # batched with a longer trial, its row is padded; only the summation
    # order of ||fg||_1 and ||f||_{2,1} over the padded row may change
    other = rng.standard_normal(39)
    both = duality_product_checks(np.append(f.values, other), np.append(g.values, other),
                                  np.append(f.measures, rng.random(39) + 0.05), [25, 39])
    for single, c in zip(duality_product_check(f, g), both):
        assert close(c[0], single, rel=1e-14)


def test_batched_trials_validate_their_inputs():
    ones = np.ones(4)
    with pytest.raises(ValueError, match="values must be finite; cell 2 has nan"):
        duality_product_checks(ones, np.array([1.0, 1.0, np.nan, 1.0]), ones, [2, 2])
    with pytest.raises(ValueError, match="measures must be positive and finite; cell 1"):
        duality_product_checks(ones, ones, np.array([1.0, 0.0, 1.0, 1.0]), [2, 2])
    with pytest.raises(ValueError, match="equal-length vectors"):
        duality_product_checks(ones, np.ones(3), ones, [4])
    for lengths in ([2, 1], [2, 3], [4, 0], [5, -1], [2.0, 2.0], [[2, 2]]):
        with pytest.raises(ValueError, match="trial lengths"):
            duality_product_checks(ones, ones, ones, lengths)


# ---------------------------------------------------------------------------
# power rule
# ---------------------------------------------------------------------------


def test_power_rule_identity():
    f = sampled([3.0, 1.0, 2.0])
    lhs, rhs = power_rule_check(f, 1.0, L2)
    assert lhs == rhs


def test_power_rule_indicator_fixed_point():
    f = sampled(np.ones(6), np.full(6, 0.5))
    for alpha in (0.5, 2.0, 3.0):
        lhs, rhs = power_rule_check(f, alpha, LorentzIndex(4.0, 2.0))
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_power_rule_square_exact_table_identity():
    rng = np.random.default_rng(3)
    f = sampled(rng.random(40) * 5, rng.random(40) + 0.1)
    squared_table = rearrange(f.power(2.0))
    base_table = rearrange(f)
    assert np.array_equal(squared_table.levels, base_table.levels**2)
    lhs, rhs = power_rule_check(f, 2.0, LorentzIndex(4.0, 2.0))
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert np.isfinite(lhs)


def test_power_rule_rejects_negative_fractional():
    with pytest.raises(ValueError):
        power_rule_check(sampled([-1.0, 2.0]), 0.5, L2)


# ---------------------------------------------------------------------------
# tail decay / weak-L2 bridge
# ---------------------------------------------------------------------------


def test_tail_decay_zero_field():
    rep = tail_decay_check(ConstantField(3, 0.0), 0.1, 1.0)
    assert rep.sup_decay == 0.0
    assert rep.weak_norm == 0.0


def test_tail_decay_shrinks_with_bubble_scale():
    rep2 = tail_decay_check(aubin_talenti(3, 1e-2), 0.1, 1.0)
    rep3 = tail_decay_check(aubin_talenti(3, 1e-3), 0.1, 1.0)
    assert 0 < rep3.sup_decay < rep2.sup_decay
    assert np.isfinite(rep2.weak_norm)


def test_tail_decay_weak_norm_within_bound():
    for delta in (1e-2, 3e-3, 1e-3):
        rep = tail_decay_check(aubin_talenti(3, delta), 0.1, 1.0)
        assert rep.weak_norm <= rep.weak_bound * 1.05


def full_layout_bubble(n):
    b = aubin_talenti(n)
    return CustomField(n, b.evaluate, b.gradient)


@pytest.mark.parametrize("kind,n", [("full", 3), ("full", 4), ("zonal", 3),
                                    ("zonal", 4), ("zonal", 5)])
def test_tail_decay_streams_the_whole_rule_result(kind, n):
    # the report equals the one computed on the whole rule at once
    if kind == "full":
        u, center = full_layout_bubble(n), np.zeros(n)
    else:
        u, center = aubin_talenti(n, 0.05, 0.3 * np.eye(n)[0]), 0.2 * np.eye(n)[1]
    rule = annulus_rule_for(u, center, 0.1, 1.0, order=24)
    assert rule.symmetry == kind
    g = u.gradient(rule.nodes)
    mag = np.sqrt(np.einsum("mi,mi->m", g, g))
    sup = float(np.max(np.linalg.norm(rule.nodes - center, axis=1) ** (n / 2) * mag))
    weak = lorentz_norm(SampledFunction(mag, rule.weights), L2INF)
    rep = tail_decay_check(u, 0.1, 1.0, center=center)
    assert (rep.sup_decay, rep.weak_norm) == (sup, weak)


def test_tail_decay_memory_stays_below_the_whole_rule():
    # 786,432 nodes: the whole-rule evaluation peaked at 151 MB
    u = full_layout_bubble(5)
    tracemalloc.start()
    try:
        tail_decay_check(u, 0.1, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6


def test_tail_decay_rejects_bad_annulus():
    with pytest.raises(ValueError):
        tail_decay_check(aubin_talenti(3), 1.0, 0.5)


# ---------------------------------------------------------------------------
# validation and io
# ---------------------------------------------------------------------------


def test_sampled_function_validation():
    with pytest.raises(ValueError):
        SampledFunction(np.ones(3), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        SampledFunction(np.ones(3), np.ones(2))
    with pytest.raises(ValueError):
        SampledFunction(np.ones(3), np.ones(3), expected_volume=4.0)
    SampledFunction(np.ones(4), np.ones(4), expected_volume=4.0)


def test_table_validation():
    with pytest.raises(ValueError):
        RearrangementTable(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        RearrangementTable(np.array([0.5, 1.0]), np.array([1.0]))


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    f = sampled(rng.standard_normal(12), rng.random(12) + 0.2)
    path = tmp_path / "samples.csv"
    write_samples_csv(path, f)
    g = read_samples_csv(path)
    assert np.allclose(g.values, f.values)
    assert np.allclose(g.measures, f.measures)
    tpath = tmp_path / "table.csv"
    write_table_csv(tpath, rearrange(f))
    header = tpath.read_bytes().split(b"\r\n")[0]
    assert header == b"t_break,level"


# one value of each kind the .17g writers must reproduce exactly: signed
# zero, the smallest subnormal, the largest magnitudes and full 17-digit
# mantissas
WRITER_SPECIALS = [-0.0, 5e-324, 1e308, -1e308, 0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0]
WRITER_ROWS = [1, _csv._WRITE_BLOCK_ROWS - 1, _csv._WRITE_BLOCK_ROWS,
               _csv._WRITE_BLOCK_ROWS + 1, 100_000]


def _per_value_csv(header, columns, last_row=""):
    """The reference writer: every value formatted on its own, text as is."""
    def cell(v):
        return v if isinstance(v, str) else format(float(v), ".17g")

    rows = "".join(",".join(map(cell, row)) + "\r\n" for row in zip(*columns))
    return (",".join(header) + "\r\n" + rows + last_row).encode()


def _writer_values(rng, rows):
    v = rng.standard_normal(rows) * 10.0 ** rng.uniform(-300, 300, rows)
    k = min(len(WRITER_SPECIALS), rows)
    v[:k] = WRITER_SPECIALS[:k]
    v[rows - k:] = WRITER_SPECIALS[:k]
    return v


@pytest.mark.parametrize("rows", WRITER_ROWS)
def test_samples_writer_bytes_match_per_value_format(tmp_path, rows):
    rng = np.random.default_rng(rows)
    values = _writer_values(rng, rows)
    measures = np.abs(_writer_values(rng, rows))
    measures[measures == 0] = 5e-324
    f = SampledFunction(values, measures)
    path = tmp_path / "samples.csv"
    write_samples_csv(path, f)
    assert path.read_bytes() == _per_value_csv(["value", "cell_measure"], [values, measures])
    # the shared writer on a mixed table: int, text, bool and float columns,
    # the floats with the non-finite values a sampled function rejects
    specials = np.resize(WRITER_SPECIALS + [np.nan, np.inf, -np.inf], rows)
    header = ["i", "k", "term", "flag", "value"]
    mixed = [np.arange(rows), [i % 3 for i in range(rows)],
             [f"term{i % 7}" for i in range(rows)], np.arange(rows) % 2 == 0,
             np.where(np.arange(rows) % 5 == 0, specials, values)]
    _csv.write_csv(tmp_path / "mixed.csv", header, mixed)
    assert (tmp_path / "mixed.csv").read_bytes() == _per_value_csv(header, mixed)


@pytest.mark.parametrize("rows", WRITER_ROWS)
def test_table_writer_bytes_match_per_value_format(tmp_path, rows):
    rng = np.random.default_rng(rows)
    levels = np.sort(np.abs(_writer_values(rng, rows)))[::-1].copy()
    levels[0] = 1e308
    if rows > 1:
        levels[-1] = -0.0
    breaks = np.concatenate(([0.0], np.cumsum(rng.random(rows) + 1e-3)))
    if rows > 1:
        breaks[1] = 5e-324
    table = RearrangementTable(breaks, levels)
    path = tmp_path / "table.csv"
    write_table_csv(path, table)
    want = _per_value_csv(["t_break", "level"], [breaks[:-1], levels],
                          f"{format(breaks[-1], '.17g')},0\r\n")
    assert path.read_bytes() == want
    assert path.read_bytes().count(b"\r\n") == rows + 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sampled_function_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="values must be finite"):
        SampledFunction(np.array([1.0, bad]), np.ones(2))
    with pytest.raises(ValueError, match="measures must be positive and finite"):
        SampledFunction(np.ones(2), np.array([1.0, bad]))
