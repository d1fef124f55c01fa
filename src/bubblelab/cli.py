"""Command-line driver: every experiment as a subcommand with file outputs.

Subcommands: residual, monotonicity, lorentz, neck, quantize,
bubble-constant.  Options come from a flat INI config file (section [run])
overridden by CLI flags; the effective configuration is echoed into every
output directory.  Exit codes: 0 pass, 1 tolerance failure, 2 usage error.

Outputs are deterministic: fixed seeds, one round-trip float format (``_csv``),
sorted JSON keys, and a bit-stable quadrature reduction, so repeated runs
(and runs with different --threads) produce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import grid
from ._csv import write_csv as _write_csv
from .grid import RadialGrid
from .fields import (
    ConstantField,
    aubin_talenti,
    pde_residual,
    pohozaev_report,
)
from .monotonicity import (
    check_monotone,
    check_positive,
    profile,
    write_profile_csv,
)
from .lorentz import (
    LorentzIndex,
    duality_product_checks,
    lorentz_norm,
    read_samples_csv,
    rearrange,
    sample_radial,
    write_table_csv,
)
from .concentration import (
    BudgetError,
    QuantizationConfig,
    bubble_energy_constant,
    make_sequence,
    neck_energies,
    quantization_report,
    read_sequence_spec,
    report_to_json,
)

EXIT_PASS, EXIT_TOL, EXIT_USAGE = 0, 1, 2


@dataclass
class RunConfig:
    """Run-wide knobs shared by the subcommands."""

    n: int = 3
    quad_order: int = 32
    eps0: float = 0.0  # 0 = auto (Lambda_0 / 20)
    out: str = "bubblelab-out"
    seed: int = 1234
    threads: int = 1

    def validate(self) -> None:
        if self.n < 3:
            raise ValueError("dimension must be >= 3")
        for name in ("quad_order", "threads"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not (math.isfinite(self.eps0) and self.eps0 >= 0):
            raise ValueError(f"eps0 must be finite and >= 0 (0 = auto), got {self.eps0}")


def _load_config(path: str | None, overrides: dict) -> RunConfig:
    cfg = RunConfig()
    if path:
        cp = configparser.ConfigParser()
        read = cp.read(path)
        if not read:
            raise FileNotFoundError(path)
        other = [s for s in cp.sections() if s != "run"]
        if cp.defaults():
            other.append(cp.default_section)
        if other:
            raise ValueError(f"{path}: config section [{other[0]}] is not [run]")
        if "run" in cp:
            for key, raw in cp["run"].items():
                if key not in asdict(cfg):
                    raise ValueError(f"unknown config key {key!r}")
                setattr(cfg, key, type(getattr(cfg, key))(raw))
    for key, val in overrides.items():
        if val is not None and hasattr(cfg, key):
            setattr(cfg, key, val)
    cfg.validate()
    return cfg


def _prepare_out(cfg: RunConfig, command: str, extra: dict | None = None) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    cp = configparser.ConfigParser()
    cp["run"] = {k: repr(v) for k, v in asdict(cfg).items()}
    cp["command"] = {"name": command, **{k: repr(v) for k, v in (extra or {}).items()}}
    with open(out / "effective_config.ini", "w") as fh:
        cp.write(fh)
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, separators=(",", ": "))
        fh.write("\n")


def _emit(args, payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    elif not getattr(args, "quiet", False):
        for key, val in payload.items():
            print(f"{key}: {val}")


def _field_from_args(args, n: int):
    if args.constant is not None:
        return ConstantField(n, args.constant), f"constant({args.constant})"
    center = np.array(args.center, dtype=float) if args.center else np.zeros(n)
    return aubin_talenti(n, args.delta, center), f"bubble(delta={args.delta})"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_residual(args, cfg: RunConfig) -> tuple[dict, str]:
    out = _prepare_out(cfg, "residual", {"delta": args.delta, "points": args.points})
    n = cfg.n
    u, label = _field_from_args(args, n)
    rng = np.random.default_rng(cfg.seed)
    pts = rng.standard_normal((args.points, n))
    pts *= (5.0 * rng.random(args.points) ** (1.0 / n) / np.linalg.norm(pts, axis=1))[:, None]
    res = pde_residual(u, pts)
    _write_csv(out / "residuals.csv", [f"x{i + 1}" for i in range(n)] + ["residual"],
               [*pts.T, res])
    worst = float(np.max(np.abs(res)))
    payload = {"field": label, "n": n, "max_abs_residual": worst}

    if args.pohozaev:
        rows = []
        reports = [pohozaev_report(u, np.zeros(n), r, order=cfg.quad_order)
                   for r in args.pohozaev]
        for r, rep in zip(args.pohozaev, reports):
            for name in rep.terms:
                rows.append([n, r, name, rep.terms[name], rep.paper_terms[name]])
            rows.append([n, r, "sum", rep.residual, rep.paper_residual])
        _write_csv(out / "pohozaev.csv", ["n", "r", "term", "derived", "as_printed"],
                   zip(*rows))
        payload["pohozaev_rel_residual"] = max(rep.relative_residual for rep in reports)

    failed = args.constant is None and worst > args.tol
    if args.pohozaev and args.constant is None:
        failed = failed or payload["pohozaev_rel_residual"] > 1e-6
    return payload, "fail" if failed else "pass"


def cmd_monotonicity(args, cfg: RunConfig) -> tuple[dict, str]:
    out = _prepare_out(cfg, "monotonicity", {"delta": args.delta})
    n = cfg.n
    if args.zero:
        u, label = ConstantField(n, 0.0), "zero"
    else:
        u, label = _field_from_args(args, n)
    probe = np.array(args.probe, dtype=float) if args.probe else np.zeros(n)
    radii = RadialGrid.log_spaced(args.rmin, args.rmax, args.count)
    prof = profile(u, probe, radii, order=cfg.quad_order)
    write_profile_csv(out / "profile.csv", prof)
    mono = check_monotone(prof)
    pos = check_positive(prof)
    payload = {
        "field": label,
        "monotone": mono.passed,
        "positive": pos.passed,
        "violations": len(mono.violations) + len(pos.violations),
        "E_max": float(np.max(prof.values)) if len(prof.radii) else 0.0,
    }
    return payload, "pass" if (mono.passed and pos.passed) else "fail"


def _duality_failures(seed: int, trials: int) -> int:
    """How many of ``trials`` random sampled pairs break the pairing bound
    ||fg||_1 <= ||f||_{2,1} ||g||_{2,inf}.  Every trial is drawn first, in
    the per-trial order a seed has always drawn them, then all are checked
    in one batch."""
    rng = np.random.default_rng(seed)
    lengths = np.empty(trials, dtype=int)
    # rng.integers(3, 40) draws at most 39 cells per trial
    meas, fv, gv = np.empty((3, 39 * trials))
    end = 0
    for i in range(trials):
        m = lengths[i] = int(rng.integers(3, 40))
        meas[end:end + m] = rng.random(m) + 0.05
        fv[end:end + m] = rng.standard_normal(m) * 10 ** rng.uniform(-2, 2)
        gv[end:end + m] = rng.standard_normal(m) * 10 ** rng.uniform(-2, 2)
        end += m
    prod, n21, n2inf = duality_product_checks(fv[:end], gv[:end], meas[:end], lengths)
    return int(np.count_nonzero(prod > n21 * n2inf * (1 + 1e-12)))


def cmd_lorentz(args, cfg: RunConfig) -> tuple[dict, str]:
    if args.duality_trials < 0:
        raise ValueError(
            f"--duality-trials must be >= 0 (0 runs none), got {args.duality_trials}"
        )
    out = _prepare_out(cfg, "lorentz", {"p": args.p, "q": args.q})
    n = cfg.n
    q = float("inf") if str(args.q).lower() in ("inf", "infinity") else float(args.q)
    idx = LorentzIndex(float(args.p), q)

    if args.input:
        f = read_samples_csv(args.input)
        label = args.input
    elif args.analytic == "inv-sqrt-n":
        f = sample_radial(
            lambda r: r ** (-n / 2.0), n, args.inner, args.outer, args.samples
        )
        label = "|x|^(-n/2)"
    else:
        raise ValueError("provide --input or --analytic")

    # the trials run before the table is built, so that the process never
    # holds their arrays and the table at once
    fails = _duality_failures(cfg.seed, args.duality_trials) if args.duality_trials else 0

    table = rearrange(f)
    write_table_csv(out / "table.csv", table)
    norm = lorentz_norm(table, idx)
    payload = {"field": label, "p": idx.p, "q": "inf" if q == float("inf") else q,
               "norm": norm}
    if args.duality_trials:
        payload["duality_trials"] = args.duality_trials
        payload["duality_failures"] = fails

    _write_json(out / "norms.json", payload)
    return payload, "fail" if fails else "pass"


def cmd_neck(args, cfg: RunConfig) -> tuple[dict, str]:
    out = _prepare_out(cfg, "neck", {"base": args.base})
    n = cfg.n
    seq = make_sequence([(np.zeros(n), args.base, 1.0)], budget=1e6, n=n)
    rows = []
    for k in args.k:
        reps = neck_energies(seq, k, args.R, outer=args.outer, order=cfg.quad_order)
        for R, rep in zip(args.R, reps):
            rep.checked()  # a degenerate annulus is a usage error
            worst_shell = max(s[2] for s in rep.shells)
            rows.append([R, k, rep.inner, rep.outer, rep.total, worst_shell])
    _write_csv(out / "neck.csv", ["R", "k", "inner", "outer", "energy", "max_shell"],
               zip(*rows))
    lam0 = bubble_energy_constant(n)
    payload = {
        "n": n,
        "lambda0": lam0.value,
        "max_neck_fraction": max(r[4] for r in rows) / lam0.value,
    }
    _write_json(out / "summary.json", payload)
    return payload, "pass"


def cmd_quantize(args, cfg: RunConfig) -> tuple[dict, str]:
    extras: dict = {}
    if args.spec:
        seq, extras = read_sequence_spec(args.spec)
        n = seq.dimension
    else:
        n = cfg.n
        bases = [float(b) for b in args.bases.split(",")] if args.bases else [4.0]
        seq = make_sequence(
            [(np.zeros(n), b, 1.0) for b in bases], budget=args.budget, n=n
        )
    out = _prepare_out(cfg, "quantize", {"spec": args.spec or "inline"})
    qcfg = QuantizationConfig(k_max=extras.get("k_max", args.k_max))
    if cfg.eps0 > 0:
        qcfg.eps0 = cfg.eps0
    for key in ("eps0", "eps_n", "r_small"):
        if key in extras:
            setattr(qcfg, key, extras[key])
    try:
        report = quantization_report(seq, qcfg)
    except BudgetError as exc:
        return {"reason": str(exc)}, "rejected"

    payload = report_to_json(report)
    _write_json(out / "report.json", payload)
    _write_csv(
        out / "sigma.csv",
        [f"x{i + 1}" for i in range(n)] + ["theta", "n_hat", "ratio", "integer_distance"],
        zip(*(
            [*p.point, p.theta, p.n_hat, p.ratio, p.integer_distance]
            for p in report.points
        )),
    )
    _write_csv(
        out / "necks.csv",
        ["point_index", "R", "k", "energy"],
        zip(*(
            [i, R, k, v]
            for i, p in enumerate(report.points)
            for R, per_k in sorted(p.necks.items())
            for k, v in sorted(per_k.items())
        )),
    )
    _write_csv(
        out / "inventory.csv",
        ["point_index", "delta"] + [f"y{i + 1}" for i in range(n)] + ["energy"],
        zip(*(
            [i, d, *c, e]
            for i, p in enumerate(report.points)
            for d, c, e in p.inventory
        )),
    )
    summary = {
        "points": len(report.points),
        "n_hat": [p.n_hat for p in report.points],
        "ratios": [p.ratio for p in report.points],
    }
    # a NaN integer_distance (non-finite ratio) fails before round is reached
    failed = args.assert_integer is not None and not (
        report.points
        and all(p.integer_distance <= args.assert_integer and p.n_hat == round(p.ratio)
                for p in report.points)
    )
    return summary, "fail" if failed else "pass"


def cmd_bubble_constant(args, cfg: RunConfig) -> tuple[dict, str]:
    out = _prepare_out(cfg, "bubble-constant", {})
    lam0 = bubble_energy_constant(cfg.n, radial_order=args.radial_order)
    payload = {
        "n": cfg.n,
        "lambda0": lam0.value,
        "error_bound": lam0.error_bound,
        "radial_order": lam0.radial_order,
    }
    _write_json(out / "bubble_constant.json", payload)
    return payload, "pass"


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def _cfg_overrides(args) -> dict:
    keys = ("n", "quad_order", "out", "seed", "threads")
    return {k: getattr(args, k, None) for k in keys}


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="INI config file with a [run] section")
    sp.add_argument("--n", type=int, help="space dimension (>= 3)")
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--seed", type=int, help="RNG seed")
    sp.add_argument("--threads", type=int, help="quadrature evaluation threads")
    sp.add_argument("--quad-order", dest="quad_order", type=int)
    sp.add_argument("--json", action="store_true", help="machine-readable stdout")
    sp.add_argument("--quiet", action="store_true", help="suppress stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bubblelab",
        description="desk-scale checks for energy concentration in the "
        "critical semilinear equation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("residual", help="pointwise and Pohozaev residuals")
    _add_common(sp)
    sp.add_argument("--delta", type=float, default=1.0, help="bubble scale")
    sp.add_argument("--center", type=float, nargs="+", help="bubble center")
    sp.add_argument("--constant", type=float, help="use a constant field instead")
    sp.add_argument("--points", type=int, default=200)
    sp.add_argument("--pohozaev", type=float, action="append",
                    help="also emit the radial-multiplier balance at this radius")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.set_defaults(func=cmd_residual)

    sp = sub.add_parser("monotonicity", help="local energy profile checks")
    _add_common(sp)
    sp.add_argument("--delta", type=float, default=1.0)
    sp.add_argument("--center", type=float, nargs="+")
    sp.add_argument("--constant", type=float)
    sp.add_argument("--zero", action="store_true", help="use the zero field")
    sp.add_argument("--probe", type=float, nargs="+", help="profile center")
    sp.add_argument("--rmin", type=float, default=0.05)
    sp.add_argument("--rmax", type=float, default=5.0)
    sp.add_argument("--count", type=int, default=40)
    sp.set_defaults(func=cmd_monotonicity)

    sp = sub.add_parser("lorentz", help="rearrangement and Lorentz norms")
    _add_common(sp)
    sp.add_argument("--analytic", choices=["inv-sqrt-n"],
                    help="sample a built-in profile")
    sp.add_argument("--input", help="samples CSV (value, cell_measure)")
    sp.add_argument("--p", default=2.0)
    sp.add_argument("--q", default="inf")
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--inner", type=float, default=1e-3)
    sp.add_argument("--outer", type=float, default=10.0)
    sp.add_argument("--duality-trials", dest="duality_trials", type=int, default=0,
                    help="random pairing-bound trials, checked as one batch (>= 0)")
    sp.set_defaults(func=cmd_lorentz)

    sp = sub.add_parser("neck", help="annulus energy between scales")
    _add_common(sp)
    sp.add_argument("--base", type=float, default=10.0, help="scale schedule base")
    sp.add_argument("--k", type=int, nargs="+", default=[3])
    sp.add_argument("--R", type=float, nargs="+", default=[10.0, 30.0, 100.0])
    sp.add_argument("--outer", type=float, default=0.5)
    sp.set_defaults(func=cmd_neck)

    sp = sub.add_parser("quantize", help="defect quantization pipeline")
    _add_common(sp)
    sp.add_argument("--spec", help="sequence spec file")
    sp.add_argument("--bases", help="comma-separated schedule bases, e.g. 4,16,64")
    sp.add_argument("--k-max", dest="k_max", type=int, default=8)
    sp.add_argument("--budget", type=float, default=1e6)
    sp.add_argument("--assert-integer", dest="assert_integer", type=float,
                    help="fail unless every ratio is this close to an integer "
                    "and equals its point's number of extracted bubbles")
    sp.set_defaults(func=cmd_quantize)

    sp = sub.add_parser("bubble-constant", help="print the single-bubble energy")
    _add_common(sp)
    sp.add_argument("--radial-order", dest="radial_order", type=int, default=64)
    sp.set_defaults(func=cmd_bubble_constant)

    return ap


def main(argv=None) -> int:
    """Run one subcommand: load the config, set the thread count, run it,
    then print its payload with its status and map the status to the exit
    code."""
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, _cfg_overrides(args))
        grid.set_default_threads(cfg.threads)
        payload, status = args.func(args, cfg)
        payload["status"] = status
        _emit(args, payload)
    except (ValueError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_PASS if status == "pass" else EXIT_TOL


if __name__ == "__main__":
    sys.exit(main())
