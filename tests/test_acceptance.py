"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and the term-by-term balance diagnostics.
"""

import json
import time

import numpy as np
import pytest

from bubblelab.cli import main as cli_main
from bubblelab.grid import RadialGrid, unit_ball_volume
from bubblelab.fields import CustomField, aubin_talenti, pde_residual, pohozaev_report
from bubblelab.lorentz import (
    LorentzIndex,
    SampledFunction,
    duality_product_checks,
    lorentz_norm,
    rearrange,
    sample_radial,
    tail_decay_check,
)
from bubblelab.monotonicity import check_monotone, check_positive, profile
from bubblelab.concentration import (
    QuantizationConfig,
    bubble_energy_constant,
    make_sequence,
    neck_energy,
    quantization_report,
    report_to_json,
    scaled_measure,
)


def report(number: int, name: str, ok: bool, t0: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status} ({time.perf_counter() - t0:.1f}s){extra}",
          flush=True)


def random_ball_points(rng, n, radius, count):
    pts = rng.standard_normal((count, n))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts * (radius * rng.random(count) ** (1 / n))[:, None]


def test_criterion_1_exact_solution_residual():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_analytic, worst_order = 0.0, np.inf
    for n in (3, 4, 5, 6):
        u = aubin_talenti(n, delta=0.8, y=[0.1] + [0.0] * (n - 1))
        pts = random_ball_points(rng, n, 5.0, 200)
        worst_analytic = max(worst_analytic, float(np.max(np.abs(pde_residual(u, pts)))))
        numeric = CustomField(n, u.evaluate)
        sub = pts[:40]
        sups = [float(np.max(np.abs(pde_residual(numeric, sub, h=h))))
                for h in (1e-2, 5e-3)]
        worst_order = min(worst_order, float(np.log2(sups[0] / sups[1])))
    elapsed = time.perf_counter() - t0
    ok = worst_analytic < 1e-10 and worst_order >= 1.8 and elapsed < 10.0
    report(1, "exact-solution residual", ok, t0,
           f"sup|residual|={worst_analytic:.2e}, fd order={worst_order:.2f}")
    assert worst_analytic < 1e-10
    assert worst_order >= 1.8
    assert elapsed < 10.0


def test_criterion_2_monotone_positive_profiles():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 4, 5, 6):
        u = aubin_talenti(n)
        probes = [np.zeros(n)]
        for vec in ([0.3, 0, 0], [-0.8, 0.4, 0], [1.5, 0, 0], [0, 0, 1.9]):
            x = np.zeros(n)
            x[: len(vec)] = vec
            probes.append(x)
        for x in probes:
            prof = profile(u, x, RadialGrid.log_spaced(0.05, 5.0, 40))
            slack = 1e-6 * float(np.max(np.abs(prof.values)))
            ok = ok and check_monotone(prof, slack).passed
            ok = ok and check_positive(prof, slack).passed
    elapsed = time.perf_counter() - t0
    report(2, "monotone positive local energy", ok and elapsed < 60.0, t0)
    assert ok
    assert elapsed < 60.0


def test_criterion_3_pohozaev_balance():
    t0 = time.perf_counter()
    worst = 0.0
    lines = ["n  layout r    term                 derived         as-printed"]
    fields = [aubin_talenti(3), aubin_talenti(4)]
    for n in (5, 6):  # behind plain callables: full ball and sphere rules
        bubble = aubin_talenti(n)
        fields.append(CustomField(n, bubble.evaluate, bubble.analytic_gradient))
    for u in fields:
        n = u.dimension
        layout = "full" if isinstance(u, CustomField) else "radial"
        for r in (0.5, 1.0, 2.0):
            rep = pohozaev_report(u, np.zeros(n), r, order=48)
            worst = max(worst, rep.relative_residual)
            derived = {**rep.terms, "sum": rep.residual}
            printed = {**rep.paper_terms, "sum": rep.paper_residual}
            for term, val in derived.items():
                lines.append(
                    f"{n}  {layout:<6} {r:<4} {term:<20} {val:+.9e} {printed[term]:+.9e}"
                )
    ok = worst < 1e-6
    report(3, "pohozaev balance", ok, t0, f"max rel residual={worst:.2e}")
    print("\n".join(lines), flush=True)
    assert worst < 1e-6


def test_criterion_4_lorentz_calculus():
    t0 = time.perf_counter()
    n = 3
    # (a) weak norm of |x|^(-n/2) at 1e5 radial samples
    f = sample_radial(lambda r: r ** (-n / 2), n, 1e-3, 10.0, 100_000)
    weak = lorentz_norm(f, LorentzIndex(2.0, float("inf")))
    target = float(np.sqrt(unit_ball_volume(n)))
    ok_a = abs(weak - target) <= 0.02 * target

    # (b) equimeasurability and the power rule, exactly, on 1000 random fields
    rng = np.random.default_rng(202)
    ok_b = True
    for _ in range(1000):
        m = int(rng.integers(2, 50))
        vals = rng.standard_normal(m) * 10 ** rng.uniform(-3, 3)
        meas = rng.random(m) + 1e-3
        g = SampledFunction(np.abs(vals), meas)
        table = rearrange(g)
        ok_b = ok_b and np.array_equal(
            np.sort(np.abs(g.values)), np.sort(table.levels)
        )
        lam = float(rng.choice(np.abs(vals)))
        direct = float(meas[np.abs(vals) > lam].sum())
        ok_b = ok_b and abs(table.super_level_measure(lam) - direct) < 1e-12
        alpha = float(rng.choice([0.5, 2.0, 3.0]))
        ok_b = ok_b and np.array_equal(
            rearrange(g.power(alpha)).levels, table.levels**alpha
        )

    # (c) the pairing bound in 1000 random trials, checked as one batch
    lengths, meas, fv, gv = [], [], [], []
    for _ in range(1000):
        m = int(rng.integers(2, 40))
        lengths.append(m)
        meas.append(rng.random(m) + 0.01)
        fv.append(rng.standard_normal(m) * 10 ** rng.uniform(-2, 2))
        gv.append(rng.standard_normal(m) * 10 ** rng.uniform(-2, 2))
    prod, n21, n2inf = duality_product_checks(
        np.concatenate(fv), np.concatenate(gv), np.concatenate(meas), lengths
    )
    ok_c = prod.shape == (1000,) and bool(np.all(prod <= n21 * n2inf * (1 + 1e-12)))

    elapsed = time.perf_counter() - t0
    ok = ok_a and ok_b and ok_c and elapsed < 30.0
    report(4, "lorentz calculus", ok, t0,
           f"weak-norm err={abs(weak - target) / target:.2%}")
    assert ok_a and ok_b and ok_c
    assert elapsed < 30.0


def test_criterion_5_tail_weak_l2_bridge():
    t0 = time.perf_counter()
    ok = True
    details = []
    for delta in (1e-2, 1e-3):
        rep = tail_decay_check(aubin_talenti(3, delta), 0.1, 1.0)
        ok = ok and rep.weak_norm <= rep.weak_bound * 1.05
        details.append(f"delta={delta:g}: weak/bound={rep.within:.3f}")
    report(5, "tail to weak-L2 bridge", ok, t0, "; ".join(details))
    assert ok


def test_criterion_6_no_neck():
    t0 = time.perf_counter()
    seq = make_sequence([(np.zeros(3), 10.0, 1.0)], budget=1e4, n=3)
    lam0 = bubble_energy_constant(3).value
    k = 3  # delta_k = 1e-3
    totals = {R: neck_energy(seq, k, R=R, outer=0.5).total for R in (10.0, 30.0, 100.0)}
    ok = totals[100.0] < 0.01 * lam0 and totals[10.0] > totals[30.0] > totals[100.0]
    report(6, "no neck energy", ok, t0,
           f"neck(R=100)={totals[100.0] / lam0:.3%} of Lambda0")
    assert totals[100.0] < 0.01 * lam0
    assert totals[10.0] > totals[30.0] > totals[100.0]


def test_criterion_7_quantization_matrix():
    t0 = time.perf_counter()
    bases = {1: [4.0], 2: [4.0, 16.0], 3: [4.0, 16.0, 64.0]}
    k_max = {3: 10, 4: 8, 5: 8}  # deeper towers in n=3: cross terms decay slowest
    ok = True
    details = []
    clusters = []
    for n in (3, 4, 5):
        for N in (1, 2, 3):
            seq = make_sequence(
                [(np.zeros(n), b, 1.0) for b in bases[N]], budget=1e4, n=n
            )
            rep = quantization_report(seq, QuantizationConfig(k_max=k_max[n]))
            doc = report_to_json(rep)
            clusters.append((doc["cluster_sizes"], doc["flags"]))
            got_n = rep.points[0].n_hat if rep.points else 0
            ratio = rep.points[0].ratio if rep.points else float("nan")
            cell_ok = (
                len(rep.points) == 1 and got_n == N and abs(ratio - N) <= 0.05
            )
            ok = ok and cell_ok
            details.append(f"n={n},N={N}:{'ok' if cell_ok else f'{got_n}/{ratio:.3f}'}")
    lam_a = bubble_energy_constant(3, radial_order=32).value
    lam_b = bubble_energy_constant(3, radial_order=64).value
    stable = abs(lam_b - lam_a) <= 1e-6 * abs(lam_b)
    elapsed = time.perf_counter() - t0
    ok = ok and stable and elapsed < 300.0
    report(7, "integer quantization", ok, t0, " ".join(details))
    assert ok
    # a same-center tower is one probe point, not one per bubble
    assert all(sizes == [1] and not any(f.startswith("unresolved-cluster")
                                        for f in sum(flags, []))
               for sizes, flags in clusters)
    assert stable
    assert elapsed < 300.0


def test_criterion_8_scaled_measure_constancy():
    t0 = time.perf_counter()
    seq = make_sequence([(np.zeros(3), 10.0, 1.0)], budget=1e4, n=3)
    u = seq.field(2)  # delta = 1e-2
    rho = 0.2  # matched product lam * r
    rs = (0.5, 1.0, 2.0)  # factor-4 range
    vals = [scaled_measure(u, np.zeros(3), rho / r, r, order=48) for r in rs]
    spread = (max(vals) - min(vals)) / abs(vals[0])
    ok = spread < 1e-8
    report(8, "scaled measure constancy", ok, t0, f"relative spread={spread:.2e}")
    assert spread < 1e-8


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    data_files = ("profile.csv", "table.csv", "norms.json")

    def run_all(out, threads):
        cli_main(["monotonicity", "--n", "3", "--count", "8", "--seed", "11",
                  "--threads", str(threads), "--out", str(out), "--quiet"])
        cli_main(["lorentz", "--analytic", "inv-sqrt-n", "--samples", "5000",
                  "--duality-trials", "25", "--seed", "11",
                  "--threads", str(threads), "--out", str(out), "--quiet"])
        return {f: (out / f).read_bytes() for f in data_files}

    base = run_all(tmp_path / "a", 1)
    repeat = run_all(tmp_path / "b", 1)
    threaded = run_all(tmp_path / "c", 4)
    same_repeat = all(base[f] == repeat[f] for f in data_files)
    same_threads = all(base[f] == threaded[f] for f in data_files)

    def echoed_cfg(out):
        # provenance echo records the run knobs; drop only the out path line
        text = (tmp_path / out / "effective_config.ini").read_text()
        return "\n".join(l for l in text.splitlines() if not l.startswith("out"))

    ok = same_repeat and same_threads and echoed_cfg("a") == echoed_cfg("b")
    report(9, "deterministic outputs", ok, t0)
    assert same_repeat
    assert same_threads
    assert echoed_cfg("a") == echoed_cfg("b")
