import configparser
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bubblelab
from bubblelab.cli import main


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
    assert not (out / "table.csv").exists()


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
    assert not (out / "table.csv").exists()


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


def test_cli_import_leaves_scipy_optimize_unloaded():
    """Only the bubble fit needs scipy.optimize; no other run should pay for
    importing it."""
    src = str(Path(bubblelab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, bubblelab.cli; print('scipy.optimize' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
