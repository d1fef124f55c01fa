"""Command-line driver: every experiment as a subcommand with file outputs.

Subcommands: residual, monotonicity, lorentz, neck, quantize,
bubble-constant.  Options come from a flat INI config file (section [run])
overridden by CLI flags; the effective configuration is echoed into every
output directory.  Exit codes: 0 pass, 1 tolerance failure, 2 usage error.

Every subcommand is a pair: ``check_<name>`` parses, validates and builds
its inputs without touching the filesystem, and ``cmd_<name>`` computes and
writes.  ``main`` makes the output directory between the two, so a usage
error (exit 2) leaves no --out behind, and its message names the flag or
spec key it refuses.  A flag that the chosen input leaves unread
(``--delta`` or ``--tol`` with ``--constant``, ``--samples`` with
``lorentz --input``, ``--budget`` with ``quantize --spec``) is refused
too, so such flags default to None and take their defaults in
``check_<name>``.  The argument parser is built once per process, by the
first ``main`` call; each call then looks up ``check_<name>`` and
``cmd_<name>`` on this module by the subcommand's name.  Config, spec and
echoed values are read literally: no ``%`` interpolation.

Outputs are deterministic: fixed seeds, one round-trip float format (``_csv``),
sorted JSON keys, and a bit-stable quadrature reduction, so repeated runs
(and runs with different --threads) produce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import sys
from contextlib import contextmanager
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
    check_report_input,
    make_sequence,
    neck_energies,
    quantization_report,
    read_sequence_spec,
    report_to_json,
)

EXIT_PASS, EXIT_TOL, EXIT_USAGE = 0, 1, 2
_DELTA = 1.0  # the bubble scale when --delta is not given
_TOL = 1e-10  # the residual tolerance when --tol is not given


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
            raise ValueError(f"n (the dimension) must be >= 3, got {self.n}")
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
        cp = configparser.ConfigParser(interpolation=None)
        read = cp.read(path)
        if not read:
            raise FileNotFoundError(f"--config: cannot read {path}")
        other = [s for s in cp.sections() if s != "run"]
        if cp.defaults():
            other.append(cp.default_section)
        if other:
            raise ValueError(f"{path}: config section [{other[0]}] is not [run]")
        if "run" in cp:
            for key, raw in cp["run"].items():
                if key not in asdict(cfg):
                    raise ValueError(f"unknown config key {key!r}")
                kind = type(getattr(cfg, key))
                try:
                    setattr(cfg, key, kind(raw))
                except ValueError:
                    raise ValueError(f"{path}: config key {key!r} is not a valid "
                                     f"{kind.__name__}: {raw!r}") from None
    for key, val in overrides.items():
        if val is not None and hasattr(cfg, key):
            setattr(cfg, key, val)
    cfg.validate()
    return cfg


def _prepare_out(cfg: RunConfig, command: str, extra: dict) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    cp = configparser.ConfigParser(interpolation=None)
    cp["run"] = {k: repr(v) for k, v in asdict(cfg).items()}
    cp["command"] = {"name": command, **{k: repr(v) for k, v in extra.items()}}
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


def _need(ok: bool, flag: str, rule: str, value) -> None:
    """Refuse ``value`` of ``flag`` unless ``ok``."""
    if not ok:
        raise ValueError(f"{flag} must be {rule}, got {value}")


@contextmanager
def _options(names: str):
    """Name the options that a refusal raised inside the block comes from."""
    try:
        yield
    except (ValueError, OSError, configparser.Error) as exc:
        raise ValueError(f"{names}: {exc}") from None


def _or(value, default):
    """An option's value, or its default when the flag was not given."""
    return default if value is None else value


def _unread(args, reason: str, *flags: str) -> None:
    """Refuse the ``flags`` given on the command line: ``reason`` leaves
    them unread."""
    given = [f for f in flags if getattr(args, f[2:].replace("-", "_")) is not None]
    if given:
        raise ValueError(f"{', '.join(given)}: not read with {reason}")


def _point(flag: str, coords, n: int) -> np.ndarray:
    """``coords`` as a point of R^n; the origin when none are given."""
    if coords is None:
        return np.zeros(n)
    _need(len(coords) == n and all(map(math.isfinite, coords)), flag,
          f"{n} finite coordinates", " ".join(map(str, coords)))
    return np.array(coords, dtype=float)


def _field_from_args(args, n: int):
    if args.constant is not None:
        _unread(args, "--constant", "--delta", "--center")
        _need(math.isfinite(args.constant), "--constant", "finite", args.constant)
        return ConstantField(n, args.constant), f"constant({args.constant})"
    delta = _or(args.delta, _DELTA)
    _need(0 < delta < math.inf, "--delta", "finite and > 0", delta)
    center = _point("--center", args.center, n)
    return aubin_talenti(n, delta, center), f"bubble(delta={delta})"


# ---------------------------------------------------------------------------
# subcommands: check_<name>(args, cfg) -> (echoed options, inputs),
# cmd_<name>(args, cfg, out, *inputs) -> (payload, status)
# ---------------------------------------------------------------------------


def check_residual(args, cfg: RunConfig):
    n = cfg.n
    _need(args.points >= 1, "--points", ">= 1", args.points)
    if args.constant is not None:
        # only a bubble field's residuals are held to a tolerance
        _unread(args, "--constant", "--tol")
    tol = _or(args.tol, _TOL)
    _need(0 <= tol < math.inf, "--tol", "finite and >= 0", tol)
    for r in args.pohozaev or ():
        _need(0 < r < math.inf, "--pohozaev", "finite and > 0", r)
    u, label = _field_from_args(args, n)
    rng = np.random.default_rng(cfg.seed)
    pts = rng.standard_normal((args.points, n))
    pts *= (5.0 * rng.random(args.points) ** (1.0 / n) / np.linalg.norm(pts, axis=1))[:, None]
    return {"delta": _or(args.delta, _DELTA), "points": args.points}, (u, label, pts)


def cmd_residual(args, cfg: RunConfig, out: Path, u, label: str, pts) -> tuple[dict, str]:
    n = cfg.n
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

    failed = args.constant is None and worst > _or(args.tol, _TOL)
    if args.pohozaev and args.constant is None:
        failed = failed or payload["pohozaev_rel_residual"] > 1e-6
    return payload, "fail" if failed else "pass"


def check_monotonicity(args, cfg: RunConfig):
    n = cfg.n
    if args.zero:
        _unread(args, "--zero", "--constant", "--delta", "--center")
        u, label = ConstantField(n, 0.0), "zero"
    else:
        u, label = _field_from_args(args, n)
    probe = _point("--probe", args.probe, n)
    with _options("--rmin/--rmax/--count"):
        radii = RadialGrid.log_spaced(args.rmin, args.rmax, args.count)
    return {"delta": _or(args.delta, _DELTA)}, (u, label, probe, radii)


def cmd_monotonicity(args, cfg: RunConfig, out: Path, u, label: str, probe,
                     radii) -> tuple[dict, str]:
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


_TRIAL_BATCH = 1024


def _duality_failures(seed: int, trials: int) -> int:
    """How many of ``trials`` random sampled pairs break the pairing bound
    ||fg||_1 <= ||f||_{2,1} ||g||_{2,inf}, drawn and checked in batches of
    at most ``_TRIAL_BATCH``: each draws its cell counts (3 to 39), then the
    measures, then f's values and per-trial scales, then g's."""
    rng = np.random.default_rng(seed)
    fails = 0
    for start in range(0, trials, _TRIAL_BATCH):
        count = min(_TRIAL_BATCH, trials - start)
        lengths = rng.integers(3, 40, size=count)
        cells = int(lengths.sum())
        meas = rng.random(cells) + 0.05
        f = rng.standard_normal(cells) * np.repeat(10.0 ** rng.uniform(-2, 2, count), lengths)
        g = rng.standard_normal(cells) * np.repeat(10.0 ** rng.uniform(-2, 2, count), lengths)
        prod, n21, n2inf = duality_product_checks(f, g, meas, lengths)
        fails += int(np.count_nonzero(prod > n21 * n2inf * (1 + 1e-12)))
    return fails


def check_lorentz(args, cfg: RunConfig):
    _need(args.duality_trials >= 0, "--duality-trials", ">= 0 (0 runs none)",
          args.duality_trials)
    with _options("--p/--q"):
        idx = LorentzIndex(float(args.p), float(args.q))
    if args.input:
        _unread(args, "--input", "--analytic", "--samples", "--inner", "--outer")
        with _options("--input"):
            f = read_samples_csv(args.input)
        label = args.input
    elif args.analytic == "inv-sqrt-n":
        n = cfg.n
        with _options("--inner/--outer/--samples"):
            f = sample_radial(lambda r: r ** (-n / 2.0), n, _or(args.inner, 1e-3),
                              _or(args.outer, 10.0), _or(args.samples, 100_000))
        label = "|x|^(-n/2)"
    else:
        raise ValueError("provide --input or --analytic")
    return {"p": args.p, "q": args.q}, (idx, f, label)


def cmd_lorentz(args, cfg: RunConfig, out: Path, idx, f, label: str) -> tuple[dict, str]:
    # the trials run before the table is built, so that the process never
    # holds their arrays and the table at once
    fails = _duality_failures(cfg.seed, args.duality_trials) if args.duality_trials else 0

    table = rearrange(f)
    write_table_csv(out / "table.csv", table)
    norm = lorentz_norm(table, idx)
    payload = {"field": label, "p": idx.p, "q": "inf" if idx.q == math.inf else idx.q,
               "norm": norm}
    if args.duality_trials:
        payload["duality_trials"] = args.duality_trials
        payload["duality_failures"] = fails

    _write_json(out / "norms.json", payload)
    return payload, "fail" if fails else "pass"


def check_neck(args, cfg: RunConfig):
    with _options("--base"):
        seq = make_sequence([(np.zeros(cfg.n), args.base, 1.0)], budget=1e6, n=cfg.n)
    _need(0 < args.outer < math.inf, "--outer", "finite and > 0", args.outer)
    for k in args.k:
        _need(k >= 0, "--k", ">= 0", k)
        for R in args.R:
            inner = R * seq.entries[0].schedule(k)  # the inner radius neck_energies takes
            if not 0 < inner < args.outer:
                raise ValueError(f"--R {R} at --k {k} puts the inner radius R*base^-k = "
                                 f"{inner} outside (0, --outer {args.outer})")
    return {"base": args.base}, (seq,)


def cmd_neck(args, cfg: RunConfig, out: Path, seq) -> tuple[dict, str]:
    n = cfg.n
    rows = []
    for k in args.k:
        reps = neck_energies(seq, k, args.R, outer=args.outer, order=cfg.quad_order)
        for R, rep in zip(args.R, reps):
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


def check_quantize(args, cfg: RunConfig):
    extras: dict = {}
    if args.spec:
        # the spec sets n, the bubbles and the budget
        _unread(args, "--spec", "--n", "--bases", "--budget")
        with _options("--spec"):
            seq, extras = read_sequence_spec(args.spec)
    else:
        n = cfg.n
        with _options("--bases/--budget"):
            bases = [float(b) for b in args.bases.split(",")] if args.bases else [4.0]
            seq = make_sequence(
                [(np.zeros(n), b, 1.0) for b in bases], budget=_or(args.budget, 1e6), n=n
            )
    if args.assert_integer is not None:
        _need(0 <= args.assert_integer < math.inf, "--assert-integer", "finite and >= 0",
              args.assert_integer)
    # a spec's k_max and thresholds override --k-max and [run] eps0 (0 = auto)
    qcfg = QuantizationConfig(**{"k_max": args.k_max, "eps0": cfg.eps0 or None, **extras})
    with _options("--spec" if args.spec else "--k-max/--n"):
        check_report_input(seq.dimension, qcfg)
    return {"spec": args.spec or "inline"}, (seq, qcfg)


def cmd_quantize(args, cfg: RunConfig, out: Path, seq, qcfg) -> tuple[dict, str]:
    n = seq.dimension
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


def check_bubble_constant(args, cfg: RunConfig):
    _need(args.radial_order >= 1, "--radial-order", ">= 1", args.radial_order)
    return {}, ()


def cmd_bubble_constant(args, cfg: RunConfig, out: Path) -> tuple[dict, str]:
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
    sp.add_argument("--json", action="store_true", help="machine-readable stdout")
    sp.add_argument("--quiet", action="store_true", help="suppress stdout")


def _add_quad_order(sp: argparse.ArgumentParser) -> None:
    # only the subcommands that read cfg.quad_order take the flag
    sp.add_argument("--quad-order", dest="quad_order", type=int,
                    help="quadrature order of the energy integrals")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bubblelab",
        description="desk-scale checks for energy concentration in the "
        "critical semilinear equation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("residual", help="pointwise and Pohozaev residuals")
    _add_common(sp)
    _add_quad_order(sp)
    sp.add_argument("--delta", type=float, help="bubble scale (default 1)")
    sp.add_argument("--center", type=float, nargs="+", help="bubble center")
    sp.add_argument("--constant", type=float,
                    help="use a constant field instead (no --delta, --center or --tol)")
    sp.add_argument("--points", type=int, default=200)
    sp.add_argument("--pohozaev", type=float, action="append",
                    help="also emit the radial-multiplier balance at this radius")
    sp.add_argument("--tol", type=float,
                    help="largest pointwise residual that passes (default 1e-10); "
                         "a bubble's only, so not read with --constant")

    sp = sub.add_parser("monotonicity", help="local energy profile checks")
    _add_common(sp)
    _add_quad_order(sp)
    sp.add_argument("--delta", type=float, help="bubble scale (default 1)")
    sp.add_argument("--center", type=float, nargs="+")
    sp.add_argument("--constant", type=float, help="use a constant field instead")
    sp.add_argument("--zero", action="store_true",
                    help="use the zero field (no --delta, --center or --constant)")
    sp.add_argument("--probe", type=float, nargs="+", help="profile center")
    sp.add_argument("--rmin", type=float, default=0.05)
    sp.add_argument("--rmax", type=float, default=5.0)
    sp.add_argument("--count", type=int, default=40)

    sp = sub.add_parser("lorentz", help="rearrangement and Lorentz norms")
    _add_common(sp)
    sp.add_argument("--analytic", choices=["inv-sqrt-n"],
                    help="sample a built-in profile")
    sp.add_argument("--input", help="samples CSV (value, cell_measure); takes none of "
                    "--analytic, --samples, --inner, --outer")
    sp.add_argument("--p", default=2.0)
    sp.add_argument("--q", default="inf")
    sp.add_argument("--samples", type=int, help="--analytic samples (default 100000)")
    sp.add_argument("--inner", type=float, help="--analytic inner radius (default 1e-3)")
    sp.add_argument("--outer", type=float, help="--analytic outer radius (default 10)")
    sp.add_argument("--duality-trials", dest="duality_trials", type=int, default=0,
                    help="random pairing-bound trials, checked in batches of at most "
                    f"{_TRIAL_BATCH} (>= 0)")

    sp = sub.add_parser("neck", help="annulus energy between scales")
    _add_common(sp)
    _add_quad_order(sp)
    sp.add_argument("--base", type=float, default=10.0, help="scale schedule base")
    sp.add_argument("--k", type=int, nargs="+", default=(3,))
    sp.add_argument("--R", type=float, nargs="+", default=(10.0, 30.0, 100.0))
    sp.add_argument("--outer", type=float, default=0.5)

    sp = sub.add_parser("quantize", help="defect quantization pipeline")
    _add_common(sp)
    sp.add_argument("--spec", help="sequence spec file; takes none of --n, --bases, "
                    "--budget (a spec's k_max overrides --k-max)")
    sp.add_argument("--bases", help="comma-separated schedule bases, e.g. 4,16,64")
    sp.add_argument("--k-max", dest="k_max", type=int, default=8)
    sp.add_argument("--budget", type=float, help="sequence norm budget (default 1e6)")
    sp.add_argument("--assert-integer", dest="assert_integer", type=float,
                    help="fail unless every ratio is this close to an integer "
                    "and equals its point's number of extracted bubbles")

    sp = sub.add_parser("bubble-constant", help="print the single-bubble energy")
    _add_common(sp)
    sp.add_argument("--radial-order", dest="radial_order", type=int, default=64)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built by the first one."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand: load the config, set the thread count, check the
    subcommand's arguments, make the output directory, run it, then print
    its payload with its status and map the status to the exit code."""
    args = _parser().parse_args(argv)
    # looked up on each call, so a rebound check_<name> or cmd_<name> is the one run
    name = args.command.replace("-", "_")
    check, run = globals()[f"check_{name}"], globals()[f"cmd_{name}"]
    try:
        cfg = _load_config(args.config, _cfg_overrides(args))
        grid.set_default_threads(cfg.threads)
        echo, inputs = check(args, cfg)
        out = _prepare_out(cfg, args.command, echo)
        payload, status = run(args, cfg, out, *inputs)
        payload["status"] = status
        _emit(args, payload)
    except (ValueError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_PASS if status == "pass" else EXIT_TOL


if __name__ == "__main__":
    sys.exit(main())
