import configparser
import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bubblelab
from bubblelab import cli
from bubblelab.cli import main
from bubblelab.concentration import ConcentrationSequence


def run(args):
    return main([str(a) for a in args])


def test_residual_bubble_passes(tmp_path, capsys):
    out = tmp_path / "r"
    code = run(["residual", "--n", 3, "--delta", 1, "--out", out, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["max_abs_residual"] < 1e-10
    assert (out / "residuals.csv").exists()
    assert (out / "effective_config.ini").exists()


def test_residual_constant_informational(tmp_path, capsys):
    code = run(["residual", "--n", 3, "--constant", 1, "--out", tmp_path / "c", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0  # informational mode
    assert payload["max_abs_residual"] == pytest.approx(1.0, abs=1e-9)


def test_residual_with_pohozaev_table(tmp_path, capsys):
    out = tmp_path / "p"
    code = run(
        ["residual", "--n", 4, "--out", out, "--json",
         "--pohozaev", 0.5, "--pohozaev", 1.0]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["pohozaev_rel_residual"] < 1e-6
    table = (out / "pohozaev.csv").read_bytes().split(b"\r\n")
    assert table[0] == b"n,r,term,derived,as_printed"
    assert len([l for l in table if l]) == 1 + 2 * 6  # header + 2 radii x 6 rows


def test_monotonicity_bubble(tmp_path, capsys):
    out = tmp_path / "m"
    code = run(["monotonicity", "--n", 3, "--count", 12, "--out", out, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["monotone"] and payload["positive"]
    header = (out / "profile.csv").read_bytes().split(b"\r\n")[0]
    assert header == b"r,E,term_volume,term_boundary_derivative,term_boundary_over_r"


def test_monotonicity_zero_field(tmp_path, capsys):
    code = run(["monotonicity", "--zero", "--count", 6, "--out", tmp_path / "z", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["E_max"] == 0.0


def test_lorentz_weak_norm_and_duality(tmp_path, capsys):
    out = tmp_path / "l"
    code = run(
        ["lorentz", "--analytic", "inv-sqrt-n", "--p", 2, "--q", "inf",
         "--samples", 20000, "--duality-trials", 50, "--out", out, "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["norm"] == pytest.approx(np.sqrt(4 * np.pi / 3), rel=0.02)
    assert payload["duality_failures"] == 0
    assert (out / "table.csv").exists()
    assert (out / "norms.json").exists()


def test_lorentz_l22_matches_l2(tmp_path, capsys):
    code = run(
        ["lorentz", "--analytic", "inv-sqrt-n", "--p", 2, "--q", 2,
         "--samples", 5000, "--inner", "0.5", "--outer", "2.0",
         "--out", tmp_path / "l2", "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    # direct L2 of |x|^(-3/2) over the shell: 4 pi log(outer/inner)
    expect = np.sqrt(4 * np.pi * np.log(4.0))
    assert payload["norm"] == pytest.approx(expect, rel=1e-3)


def test_neck_outputs(tmp_path, capsys):
    out = tmp_path / "n"
    code = run(["neck", "--n", 3, "--base", 10, "--k", 3, "--R", 10, 30, 100,
                "--out", out, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["max_neck_fraction"] < 0.1
    rows = [l for l in (out / "neck.csv").read_bytes().split(b"\r\n") if l]
    assert len(rows) == 4  # header + 3 R values


def test_neck_defaults_survive_a_run_that_overrides_them(tmp_path):
    # the parser is shared by every main call, so its defaults must not be
    # left holding an earlier run's values
    assert run(["neck", "--n", 3, "--R", 5, "--out", tmp_path / "one", "--quiet"]) == 0
    assert run(["neck", "--n", 3, "--out", tmp_path / "three", "--quiet"]) == 0
    rows = [l for l in (tmp_path / "three" / "neck.csv").read_bytes().split(b"\r\n") if l]
    assert [float(r.split(b",")[0]) for r in rows[1:]] == [10.0, 30.0, 100.0]


def test_quantize_inline_single_bubble(tmp_path, capsys):
    out = tmp_path / "q"
    code = run(["quantize", "--n", 3, "--bases", "4", "--k-max", 8,
                "--out", out, "--json", "--assert-integer", 0.05])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["n_hat"] == [1]
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == "bubble-lab/1"
    assert report["sigma_points"] == [[0.0, 0.0, 0.0]]
    assert (out / "sigma.csv").exists()
    assert (out / "necks.csv").exists()
    assert (out / "inventory.csv").exists()


def test_quantize_spec_file(tmp_path, capsys):
    spec = tmp_path / "seq.ini"
    spec.write_text(
        "[sequence]\nn = 3\nk_max = 8\nbudget = 1000\n\n"
        "[bubble:one]\ncenter = 0 0 0\nbase = 4\nweight = 1\n"
    )
    code = run(["quantize", "--spec", spec, "--out", tmp_path / "qs", "--json",
                "--assert-integer", 0.05])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["ratios"][0] == pytest.approx(1.0, abs=0.05)


def test_assert_integer_fails_when_no_bubble_is_extracted(tmp_path, capsys):
    # one bubble of weight w carries (w^2 + w^6)/2 ~ 2.002 Lambda_0 at n = 3,
    # an integer ratio, but no bubble fits it: the point must not pass
    spec = tmp_path / "heavy.ini"
    spec.write_text("[sequence]\nn = 3\nk_max = 8\n\n"
                    "[bubble:heavy]\nbase = 4\nweight = 1.1745\n")
    code = run(["quantize", "--spec", spec, "--out", tmp_path / "qh", "--json",
                "--assert-integer", 0.05])
    payload = json.loads(capsys.readouterr().out)
    assert payload["ratios"][0] == pytest.approx(2.0, abs=0.05)
    assert payload["n_hat"] == [0]
    assert (code, payload["status"]) == (1, "fail")
    report = json.loads((tmp_path / "qh" / "report.json").read_text())
    assert {"fit-not-converged", "no-bubble-extracted"} <= set(report["flags"][0])


def test_quantize_zero_sequence_empty(tmp_path, capsys):
    spec = tmp_path / "zero.ini"
    spec.write_text(
        "[sequence]\nn = 3\nk_max = 6\nbudget = 10\n\n"
        "[bubble:none]\ncenter = 0 0 0\nbase = 4\nweight = 0\n"
    )
    code = run(["quantize", "--spec", spec, "--out", tmp_path / "qz", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["points"] == 0


SPEC_SEQUENCE = "[sequence]\nn = 3\nk_max = 4\n"
SPEC_BUBBLE = "[bubble:one]\ncenter = 0 0 0\nbase = 4\nweight = 1\n"


@pytest.mark.parametrize("text, message", [
    ("[sequence]\nk_max = 4\n\n" + SPEC_BUBBLE, "needs n"),
    (SPEC_SEQUENCE + "kmax = 4\n\n" + SPEC_BUBBLE, "unknown key 'kmax'"),
    (SPEC_SEQUENCE + "\n" + SPEC_BUBBLE + "wieght = 3\n", "unknown key 'wieght'"),
    (SPEC_SEQUENCE + "\n" + SPEC_BUBBLE + "\n[run]\nthreads = 2\n", "section [run]"),
    (SPEC_SEQUENCE + "\n" + SPEC_BUBBLE.replace("bubble:one", "bubble"),
     "section [bubble]"),
    ("n = 3\n\n" + SPEC_BUBBLE, "no section headers"),
    (SPEC_SEQUENCE + "n = 4\n\n" + SPEC_BUBBLE, "option 'n'"),
    (SPEC_SEQUENCE + "\n" + SPEC_BUBBLE.replace("0 0 0", "0.5"),
     "center in sequence spec section [bubble:one] has 1 coordinates"),
    (SPEC_SEQUENCE + "\n" + SPEC_BUBBLE.replace("0 0 0", "0 0 0 0"),
     "center in sequence spec section [bubble:one] has 4 coordinates"),
], ids=["missing-n", "sequence-key", "bubble-key", "other-section", "unnamed-bubble",
        "no-section-header", "duplicate-n", "short-center", "long-center"])
def test_quantize_spec_rejects_missing_n_and_unknown_keys(tmp_path, capsys, text, message):
    spec = tmp_path / "seq.ini"
    spec.write_text(text)
    out = tmp_path / "q"
    code = run(["quantize", "--spec", spec, "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert not out.exists()


BAD_VALUE_CASES = [
    (["neck", "--k", 0], "--R 10.0 at --k 0 puts the inner radius"),
    (["neck", "--R", -1], "--R -1.0 at --k 3 puts the inner radius"),
    (["neck", "--outer", 0], "--outer must be finite and > 0"),
    (["neck", "--base", 1], "--base: geometric schedule base"),
    (["residual", "--points", 0], "--points must be >= 1"),
    (["residual", "--points", -3], "--points must be >= 1"),
    (["residual", "--delta", -1], "--delta must be finite and > 0"),
    (["residual", "--delta", "nan"], "--delta must be finite and > 0"),
    (["residual", "--pohozaev", -1], "--pohozaev must be finite and > 0"),
    (["residual", "--center", 1, 2], "--center must be 3 finite coordinates"),
    (["residual", "--tol", "nan"], "--tol must be finite and >= 0"),
    (["monotonicity", "--count", 0], "--rmin/--rmax/--count"),
    (["monotonicity", "--rmin", 5, "--rmax", 1], "--rmin/--rmax/--count"),
    (["monotonicity", "--probe", 1, 2], "--probe must be 3 finite coordinates"),
    (["monotonicity", "--delta", 0], "--delta must be finite and > 0"),
    (["bubble-constant", "--radial-order", 0], "--radial-order must be >= 1"),
    (["quantize", "--spec", "eps0 = nan"], "eps0 must be finite and > 0"),
    (["quantize", "--spec", "eps0 = -1"], "eps0 must be finite and > 0"),
    (["quantize", "--spec", "eps_n = nan"], "eps_n must be finite and > 0"),
    (["quantize", "--spec", "r_small = -1"], "r_small must be finite and > 0"),
    (["quantize", "--budget", "nan"], "--budget: budget must be finite and > 0"),
    (["quantize", "--budget", 0], "--budget: budget must be finite and > 0"),
    (["quantize", "--budget", -1], "--budget: budget must be finite and > 0"),
    (["quantize", "--assert-integer", "nan"], "--assert-integer must be finite and >= 0"),
    # flags that the chosen input leaves unread, even at valid values
    (["residual", "--constant", 2, "--center", 1, 2, "--delta", -5],
     "--delta, --center: not read with --constant"),
    (["residual", "--constant", 2, "--delta", 1], "--delta: not read with --constant"),
    (["residual", "--constant", 2, "--tol", 5], "--tol: not read with --constant"),
    (["monotonicity", "--zero", "--constant", "nan"], "--constant: not read with --zero"),
    (["monotonicity", "--zero", "--center", 0, 0, 0], "--center: not read with --zero"),
    (["monotonicity", "--constant", 1, "--delta", 2], "--delta: not read with --constant"),
    (["quantize", "--spec", "", "--bases", "4,16", "--budget", 5, "--n", 4],
     "--n, --bases, --budget: not read with --spec"),
    (["quantize", "--spec", "", "--budget", 1e6], "--budget: not read with --spec"),
]


@pytest.mark.parametrize("args, message", BAD_VALUE_CASES,
                         ids=[" ".join(map(str, args)) for args, _ in BAD_VALUE_CASES])
def test_bad_values_exit_2_before_the_output_directory_is_made(tmp_path, capsys, args,
                                                               message):
    if args[1] == "--spec":
        spec = tmp_path / "seq.ini"
        spec.write_text(SPEC_SEQUENCE + args[2] + "\n\n" + SPEC_BUBBLE)
        args = [args[0], "--spec", spec, *args[3:]]
    out = tmp_path / "o"
    code = run([*args, "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("k_max", [-1, 0])
def test_quantize_k_max_below_one_is_usage_error(tmp_path, capsys, k_max):
    code = run(["quantize", "--n", 3, "--bases", 4, "--k-max", k_max,
                "--out", tmp_path / "q"])
    assert code == 2
    assert "k_max must be an integer >= 1" in capsys.readouterr().err
    spec = tmp_path / "seq.ini"
    spec.write_text(f"[sequence]\nn = 3\nk_max = {k_max}\n\n" + SPEC_BUBBLE)
    assert run(["quantize", "--spec", spec, "--out", tmp_path / "qs"]) == 2
    assert "k_max must be an integer >= 1" in capsys.readouterr().err
    # refused before the output directory is made
    assert not (tmp_path / "q").exists() and not (tmp_path / "qs").exists()


def test_quantize_beyond_the_detection_lattice_is_usage_error(tmp_path, capsys, monkeypatch):
    def no_budget_check(*args, **kwargs):
        raise AssertionError("the budget check ran before the dimension was refused")

    monkeypatch.setattr(ConcentrationSequence, "verify_budget", no_budget_check)
    code = run(["quantize", "--n", 8, "--out", tmp_path / "q"])
    assert code == 2
    assert ("the detection lattice supports n <= 7 (5^n probes, at most 100,000)"
            in capsys.readouterr().err)
    spec = tmp_path / "seq.ini"
    spec.write_text("[sequence]\nn = 8\n\n[bubble:a]\ncenter = " + " ".join(["0"] * 8)
                    + "\nbase = 4\n")
    assert run(["quantize", "--spec", spec, "--out", tmp_path / "qs"]) == 2
    assert "the detection lattice supports n <= 7" in capsys.readouterr().err
    assert not (tmp_path / "q").exists() and not (tmp_path / "qs").exists()


@pytest.mark.parametrize("command", ["quantize", "lorentz", "bubble-constant"])
def test_quad_order_is_refused_where_nothing_reads_it(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--quad-order", 8, "--out", tmp_path / "o"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --quad-order" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [
    ["residual", "--pohozaev", 1], ["monotonicity", "--count", 4], ["neck"],
])
def test_quad_order_is_taken_where_it_is_read(tmp_path, command):
    out = tmp_path / "o"
    assert run([*command, "--n", 3, "--quad-order", 16, "--out", out, "--quiet"]) == 0
    cp = configparser.ConfigParser()
    cp.read(out / "effective_config.ini")
    assert cp["run"]["quad_order"] == "16"


def test_config_with_a_key_set_twice_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nn = 3\nn = 4\n")
    code = run(["bubble-constant", "--config", cfg, "--out", tmp_path / "o", "--quiet"])
    assert code == 2
    assert "option 'n'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, section", [
    ("[Run]\nn = 4\n", "[Run]"),
    ("[run]\nn = 4\n\n[extra]\nseed = 1\n", "[extra]"),
    ("[DEFAULT]\nn = 4\n", "[DEFAULT]"),
], ids=["misnamed", "extra-section", "default-section"])
def test_config_section_other_than_run_is_usage_error(tmp_path, capsys, text, section):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    code = run(["bubble-constant", "--config", cfg, "--out", tmp_path / "o", "--quiet"])
    assert code == 2
    assert f"config section {section}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, message", [
    ("[run]\nn = abc\n", "config key 'n' is not a valid int: 'abc'"),
    ("[run]\nquad_order = 3.5\n", "config key 'quad_order' is not a valid int: '3.5'"),
    ("[run]\neps0 = small\n", "config key 'eps0' is not a valid float: 'small'"),
], ids=["n", "quad_order", "eps0"])
def test_config_value_of_the_wrong_type_names_its_key(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    code = run(["bubble-constant", "--config", cfg, "--out", tmp_path / "o", "--quiet"])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_config_file_names_the_option(tmp_path, capsys):
    missing = tmp_path / "missing.ini"
    code = run(["bubble-constant", "--config", missing, "--out", tmp_path / "o", "--quiet"])
    assert code == 2
    assert f"--config: cannot read {missing}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_naming_a_method_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nvalidate = 1\n")
    code = run(["bubble-constant", "--config", cfg, "--out", tmp_path / "o", "--quiet"])
    assert code == 2
    assert "unknown config key 'validate'" in capsys.readouterr().err


def test_empty_config_file_is_valid(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("")
    code = run(["bubble-constant", "--config", cfg, "--out", tmp_path / "o", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["n"] == 3


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_config_eps0_must_be_finite_and_nonnegative(tmp_path, capsys, value):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\neps0 = {value}\n")
    code = run(["bubble-constant", "--config", cfg, "--out", tmp_path / "o", "--quiet"])
    assert code == 2
    assert "eps0 must be finite and >= 0" in capsys.readouterr().err


def test_monotonicity_json_carries_status(tmp_path, capsys):
    code = run(["monotonicity", "--n", 3, "--count", 6, "--out", tmp_path / "b", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    code = run(["monotonicity", "--constant", 2, "--count", 6, "--out", tmp_path / "c",
                "--json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["status"] == "fail"


def test_bubble_constant_command(tmp_path, capsys):
    code = run(["bubble-constant", "--n", 3, "--out", tmp_path / "b", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["lambda0"] == pytest.approx(25.6419844099, rel=1e-9)


def test_usage_error_exit_code(tmp_path):
    assert run(["residual", "--n", 2, "--out", tmp_path / "bad"]) == 2
    assert run(["quantize", "--spec", tmp_path / "missing.ini"]) == 2


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nn = 4\nseed = 99\nquad_order = 24\n")
    out = tmp_path / "cfg"
    code = run(["residual", "--config", cfg, "--out", out, "--json", "--n", 3])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["n"] == 3  # flag wins over file
    echoed = (out / "effective_config.ini").read_text()
    assert "seed = 99" in echoed


def test_negative_duality_trials_is_usage_error(tmp_path, capsys):
    out = tmp_path / "l"
    code = run(["lorentz", "--analytic", "inv-sqrt-n", "--samples", 100,
                "--duality-trials", -5, "--out", out, "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--duality-trials must be >= 0" in captured.err
    assert captured.out == ""
    assert not out.exists()
    # zero still means no trials
    assert run(["lorentz", "--analytic", "inv-sqrt-n", "--samples", 100,
                "--duality-trials", 0, "--out", out, "--quiet"]) == 0
    assert "duality_trials" not in json.loads((out / "norms.json").read_text())


class _RecordingGenerator:
    """A numpy Generator that records each call made on it: the method's
    name and a copy of what it drew."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            drawn = method(*args, **kwargs)
            self._calls.append((name, np.copy(drawn)))
            return drawn
        return call


def _recorded_trials(monkeypatch, seed, trials):
    """``_duality_failures(seed, trials)`` and the generator calls it made."""
    calls = []
    real = np.random.default_rng
    monkeypatch.setattr(cli.np.random, "default_rng",
                        lambda *a, **kw: _RecordingGenerator(real(*a, **kw), calls))
    fails = cli._duality_failures(seed, trials)
    monkeypatch.undo()
    return fails, calls


@pytest.mark.parametrize("trials, batches", [(1000, [1000]), (3000, [1024, 1024, 952])])
def test_duality_trials_make_six_generator_calls_per_batch(monkeypatch, trials, batches):
    fails, calls = _recorded_trials(monkeypatch, 1, trials)
    assert fails == 0
    assert len(calls) == 6 * len(batches)
    names = ["integers", "random", "standard_normal", "uniform", "standard_normal",
             "uniform"]
    for b, count in enumerate(batches):
        batch = calls[6 * b:6 * b + 6]
        assert [name for name, _ in batch] == names
        cells = batch[0][1].sum()
        assert [a.size for _, a in batch] == [count, cells, cells, count, cells, count]


def test_duality_trials_are_reproducible_per_seed(monkeypatch):
    first = _recorded_trials(monkeypatch, 7, 1500)
    second = _recorded_trials(monkeypatch, 7, 1500)
    assert first[0] == second[0] == 0
    assert len(first[1]) == len(second[1]) == 12
    for (name_a, a), (name_b, b) in zip(first[1], second[1]):
        assert name_a == name_b and np.array_equal(a, b)
    lengths = np.concatenate([a for name, a in first[1] if name == "integers"])
    assert lengths.size == 1500
    assert lengths.min() >= 3 and lengths.max() <= 39


def test_duality_trials_pass_for_many_seeds():
    assert [cli._duality_failures(seed, 1000) for seed in range(50)] == [0] * 50


def test_duality_trials_peak_memory_does_not_grow_with_their_count():
    tracemalloc.start()
    try:
        fails = cli._duality_failures(0, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fails == 0
    assert peak < 16 * 2**20


def test_repeat_runs_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run(["lorentz", "--analytic", "inv-sqrt-n", "--samples", 5000,
             "--duality-trials", 20, "--seed", 7, "--out", out, "--quiet"])
    assert (a / "table.csv").read_bytes() == (b / "table.csv").read_bytes()
    assert (a / "norms.json").read_bytes() == (b / "norms.json").read_bytes()


def test_thread_count_leaves_outputs_identical(tmp_path):
    outs = []
    for t in (1, 3):
        out = tmp_path / f"t{t}"
        run(["monotonicity", "--n", 3, "--count", 8, "--seed", 5, "--threads", t,
             "--out", out, "--quiet"])
        outs.append((out / "profile.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("key", ["angular_order", "r_inf", "fd_step", "eps_reg"])
def test_config_naming_deleted_key_is_usage_error(tmp_path, capsys, key):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nn = 3\n{key} = 1\n")
    code = run(["bubble-constant", "--config", cfg, "--out", tmp_path / "o", "--quiet"])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


def test_percent_in_out_is_written_literally(tmp_path):
    out = tmp_path / "dir%x"
    assert run(["bubble-constant", "--n", 3, "--radial-order", 8, "--out", out,
                "--quiet"]) == 0
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(out / "effective_config.ini")
    assert cp["run"]["out"] == repr(str(out))


def test_percent_in_config_is_read_literally(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nout = {tmp_path / 'o%2'}\n")
    assert run(["bubble-constant", "--n", 3, "--radial-order", 8, "--config", cfg,
                "--quiet"]) == 0
    assert (tmp_path / "o%2" / "bubble_constant.json").exists()


def test_parser_is_built_once_across_main_calls(tmp_path, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        for i in range(3):
            assert run(["bubble-constant", "--n", 3, "--radial-order", 8,
                        "--out", tmp_path / str(i), "--quiet"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_main_runs_the_subcommand_functions_bound_at_call_time(tmp_path, monkeypatch,
                                                               capsys):
    assert run(["bubble-constant", "--n", 3, "--out", tmp_path / "a", "--quiet"]) == 0
    calls = []

    def check(args, cfg):
        calls.append("check")
        return {}, ()

    def cmd(args, cfg, out):
        calls.append("cmd")
        return {"patched": True}, "fail"

    monkeypatch.setattr(cli, "check_bubble_constant", check)
    monkeypatch.setattr(cli, "cmd_bubble_constant", cmd)
    assert run(["bubble-constant", "--n", 3, "--out", tmp_path / "b", "--json"]) == 1
    assert calls == ["check", "cmd"]
    assert json.loads(capsys.readouterr().out) == {"patched": True, "status": "fail"}


def test_effective_config_lists_only_live_knobs(tmp_path):
    out = tmp_path / "o"
    assert run(["bubble-constant", "--n", 3, "--out", out, "--quiet"]) == 0
    cp = configparser.ConfigParser()
    cp.read(out / "effective_config.ini")
    assert sorted(cp["run"]) == ["eps0", "n", "out", "quad_order", "seed", "threads"]


@pytest.mark.parametrize(
    "rows",
    [["abc", "1"], ["", "1"], ["nan", "1"], ["1", "nan"], ["inf", "1"], ["1", ""]],
    ids=["text-value", "empty-value", "nan-value", "nan-measure", "inf-value",
         "empty-measure"],
)
def test_lorentz_input_rejects_non_finite_cells(tmp_path, capsys, rows):
    samples = tmp_path / "samples.csv"
    samples.write_text("value,cell_measure\n1,1\n" + ",".join(rows) + "\n2,0.5\n")
    out = tmp_path / "o"
    code = run(["lorentz", "--input", samples, "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert "finite" in captured.err
    assert "status: pass" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("value\n1\n2\n", "expected 2 columns"),
    ("value,cell_measure,extra\n1,1,0\n2,0.5,0\n", "expected 2 columns"),
    ("value,cell_measure\n", "no data rows"),
], ids=["one-column", "three-columns", "header-only"])
def test_lorentz_input_needs_two_columns_and_a_row(tmp_path, capsys, text, message):
    samples = tmp_path / "samples.csv"
    samples.write_text(text)
    out = tmp_path / "o"
    code = run(["lorentz", "--input", samples, "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert "status: pass" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--analytic", "inv-sqrt-n", "--samples", 0], "count >= 1"),
    (["--analytic", "inv-sqrt-n", "--inner", 2, "--outer", 1], "inner < outer"),
    (["--analytic", "inv-sqrt-n", "--p", 0], "p must be finite and > 0"),
    (["--input", "missing.csv"], "not found"),
    (["--input", "ragged.csv"], "got 1 columns instead of 2"),
    (["--analytic", "inv-sqrt-n", "--p", "inf"], "--p/--q: p must be finite and > 0"),
    (["--input", "samples.csv", "--analytic", "inv-sqrt-n", "--samples", 0],
     "--analytic, --samples: not read with --input"),
    (["--input", "samples.csv", "--inner", 0.001, "--outer", 10],
     "--inner, --outer: not read with --input"),
], ids=["no-samples", "inner-above-outer", "zero-p", "missing-input", "ragged-input",
        "infinite-p", "input-with-analytic", "input-with-radii"])
def test_lorentz_usage_errors_leave_no_output_directory(tmp_path, capsys, args, message):
    (tmp_path / "ragged.csv").write_text("value,cell_measure\n1,1\n2\n")
    (tmp_path / "samples.csv").write_text("value,cell_measure\n1,1\n2,1\n")
    args = [tmp_path / a if str(a).endswith(".csv") else a for a in args]
    out = tmp_path / "o"
    code = run(["lorentz", *args, "--out", out])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_lorentz_input_with_overflowing_norm_writes_infinity(tmp_path, capsys):
    # ||f||_{1,0.1} of these two cells overflows a float: +inf, not a traceback
    samples = tmp_path / "samples.csv"
    samples.write_text("value,cell_measure\n1e300,1\n1,1\n")
    out = tmp_path / "o"
    code = run(["lorentz", "--input", samples, "--p", 1, "--q", 0.1, "--out", out])
    assert code == 0
    assert "status: pass" in capsys.readouterr().out
    assert '"norm": Infinity' in (out / "norms.json").read_text()
    assert json.loads((out / "norms.json").read_text())["norm"] == float("inf")


README_COMMANDS = [
    "residual --n 3 --delta 1 --pohozaev 1",
    "monotonicity --n 4 --probe 0.3 0 0 0",
    "lorentz --analytic inv-sqrt-n --p 2 --q inf --duality-trials 1000",
    "neck --n 3 --base 10 --k 3 --R 10 30 100",
    "quantize --n 3 --bases 4,16,64 --k-max 10 --assert-integer 0.05",
    "bubble-constant --n 5",
]


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    """The package runs on numpy alone: with scipy unimportable, importing
    the CLI and running the README commands, the quantize fit included,
    exit 0 and write the same data files as a run in this process."""
    src = str(Path(bubblelab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    # the subcommands print their own reports; the last line is the probe's
    probe = (
        "import json, sys\n"
        "sys.modules['scipy'] = None  # every scipy import now raises\n"
        "import bubblelab.cli\n"
        "codes = [bubblelab.cli.main([*cmd.split(), '--out', f'{sys.argv[1]}/{i}'])\n"
        "         for i, cmd in enumerate(sys.argv[2:])]\n"
        "print(json.dumps(codes))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "bare"),
                           *README_COMMANDS], env=env, capture_output=True, text=True,
                          check=True)
    assert json.loads(done.stdout.strip().splitlines()[-1]) == [0] * len(README_COMMANDS)
    with contextlib.redirect_stdout(io.StringIO()):
        for i, cmd in enumerate(README_COMMANDS):
            assert main([*cmd.split(), "--out", str(tmp_path / "normal" / str(i))]) == 0
    def files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())

    assert files(tmp_path / "bare") == files(tmp_path / "normal")
    for name in files(tmp_path / "normal"):
        if name.name != "effective_config.ini":  # it echoes --out
            assert (tmp_path / "bare" / name).read_bytes() == \
                (tmp_path / "normal" / name).read_bytes(), name


# Every subcommand's options with boundary values each refuses (at the
# defaults of the others): zero, negative, NaN and infinite values, swapped
# ranges, points of the wrong length and empty or malformed files.  A value
# prefixed "file:" names a file of BAD_FILES.  No value starts real work.
NUMBERS = ["nan", "inf", "-inf", "x"]
RUN_OPTIONS = {"--quad-order": [0, -1, "x"], "--seed": [-1]}  # also [run] keys
FIELD = {
    "--delta": [0, -1, *NUMBERS],
    "--center": [[1, 2], [1, 2, 3, 4], ["nan", 0, 0], [0, "inf", 0]],
    "--constant": NUMBERS,
}
BAD_OPTIONS = {
    "residual": {
        **FIELD, **RUN_OPTIONS,
        "--points": [0, -1, 1.5],
        "--tol": [-1, *NUMBERS],
        "--pohozaev": [0, -1, *NUMBERS],
    },
    "monotonicity": {
        **FIELD, **RUN_OPTIONS,
        "--probe": [[1, 2], [1, 2, 3, 4], ["nan", 0, 0]],
        "--rmin": [0, -1, 5, 10, *NUMBERS],  # 5 and 10 are not below --rmax 5
        "--rmax": [0, -1, 0.01, *NUMBERS],  # 0.01 is below --rmin 0.05
        "--count": [0, 1, -1, "x"],
    },
    "lorentz": {
        "--seed": [-1],
        "--p": [0, -1, "nan", "inf", "-inf", "x"],
        "--q": [0, -1, "nan", "-inf", "x"],
        "--samples": [0, -1, "x"],
        "--inner": [-1, 20, "nan", "inf", "x"],  # 20 is not below --outer 10
        "--outer": [0, -1, 0.0005, "nan", "inf"],  # 0.0005 is below --inner 0.001
        "--duality-trials": [-1, "x"],
        "--input": ["file:empty.csv", "file:header.csv", "file:one-column.csv",
                    "file:text-cell.csv", "file:nan-cell.csv", "file:zero-measure.csv",
                    "file:ragged.csv", "file:missing.csv"],
    },
    "neck": {
        **RUN_OPTIONS,
        "--base": [0, -1, 1, "nan", "inf", "x"],
        "--k": [0, -1, "x"],
        "--R": [0, -1, "nan", "inf"],
        "--outer": [0, -1, "nan", "inf"],
    },
    "quantize": {
        "--seed": [-1],
        "--bases": ["0", "-1", "1", "nan", "inf", "x", "4,x", "4,nan"],
        "--budget": [0, -1, *NUMBERS],
        "--k-max": [0, -1, "x"],
        "--assert-integer": [-1, *NUMBERS],
        "--spec": ["file:empty.ini", "file:headerless.ini", "file:eps0-nan.ini",
                   "file:eps0-inf.ini", "file:eps-n-nan.ini", "file:r-small-zero.ini",
                   "file:budget-nan.ini", "file:k-max-zero.ini", "file:base-nan.ini",
                   "file:n-2.ini", "file:center-nan.ini", "file:no-bubble.ini",
                   "file:missing.ini"],
    },
    "bubble-constant": {"--seed": [-1], "--radial-order": [0, -1, "x"]},
}
BASE_ARGS = {"lorentz": ["--analytic", "inv-sqrt-n"]}
BAD_FILES = {
    "empty.csv": "",
    "header.csv": "value,cell_measure\n",
    "one-column.csv": "value\n1\n2\n",
    "text-cell.csv": "value,cell_measure\n1,1\nabc,1\n",
    "nan-cell.csv": "value,cell_measure\nnan,1\n",
    "zero-measure.csv": "value,cell_measure\n1,0\n",
    "ragged.csv": "value,cell_measure\n1,1\n2\n",
    "empty.ini": "",
    "headerless.ini": "n = 3\n",
    "no-bubble.ini": SPEC_SEQUENCE,
    "n-2.ini": "[sequence]\nn = 2\n\n[bubble:a]\ncenter = 0 0\n",
    "center-nan.ini": SPEC_SEQUENCE + "\n" + SPEC_BUBBLE.replace("0 0 0", "0 nan 0"),
    "base-nan.ini": SPEC_SEQUENCE + "\n" + SPEC_BUBBLE.replace("base = 4", "base = nan"),
    **{name: SPEC_SEQUENCE + line + "\n\n" + SPEC_BUBBLE for name, line in [
        ("eps0-nan.ini", "eps0 = nan"), ("eps0-inf.ini", "eps0 = inf"),
        ("eps-n-nan.ini", "eps_n = nan"), ("r-small-zero.ini", "r_small = 0"),
        ("budget-nan.ini", "budget = nan"),
    ]},
    "k-max-zero.ini": SPEC_SEQUENCE.replace("k_max = 4", "k_max = 0") + "\n" + SPEC_BUBBLE,
}


@st.composite
def bad_invocations(draw):
    """A subcommand with one to three of its options set to refused values;
    returns the argument list and the options drawn."""
    command = draw(st.sampled_from(sorted(BAD_OPTIONS)))
    options = BAD_OPTIONS[command]
    flags = draw(st.lists(st.sampled_from(sorted(options)), min_size=1, max_size=3,
                          unique=True))
    # --input takes no --analytic
    argv = [command, *([] if "--input" in flags else BASE_ARGS.get(command, []))]
    for flag in flags:
        value = draw(st.sampled_from(options[flag]))
        # --flag=value, so that argparse reads -inf as a value
        argv += [flag, *value] if isinstance(value, list) else [f"{flag}={value}"]
    return argv, flags


@pytest.fixture(scope="module")
def bad_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("bad-files")
    for name, text in BAD_FILES.items():
        (root / name).write_text(text)
    return root


@given(bad_invocations())
@settings(max_examples=200, deadline=None)
def test_every_refused_value_exits_2_naming_an_option_and_writes_nothing(bad_files, drawn):
    argv, flags = drawn
    argv = [str(a).replace("file:", f"{bad_files}/") for a in argv]
    out = bad_files / "out"

    def no_output(*args, **kwargs):
        raise AssertionError("the output directory was made for a refused value")

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()) as stdout:
        mp.setattr(cli, "_prepare_out", no_output)
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse refuses a value of the wrong type
            code = exc.code
    message = err.getvalue()
    assert code == 2, (argv, message)
    assert "Traceback" not in message
    # the flag, or the [run] key it sets
    named = [f for f in flags
             if f in message or f in RUN_OPTIONS and f[2:].replace("-", "_") in message]
    assert named, (argv, message)
    assert stdout.getvalue() == ""
    assert not out.exists()
