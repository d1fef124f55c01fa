"""The four benchmark workloads, each a list of oracle-checked operations.

An operation is one call into bubblelab's public API (``call``, timed)
followed by a comparison with an oracle from ``oracle.py`` (``check``,
untimed).  ``check`` returns (passed, relative error); the error is None
when the oracle is a property rather than a number.  An operation fails
when ``call`` raises or ``check`` reports a miss.

Calls look bubblelab's functions up on their modules when they run, so the
traced run sees the wrapped versions.

The seed drives only the random parts of the inputs: the offset
directions of ``energy-oracle``, the probe rotations of
``profile-sweeps`` and the CLI ``--seed`` of ``cli-examples``.
``quantize-matrix`` has no random part.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle

ENERGY_TOL = 1e-6  # relative, for every quadrature energy against its oracle
LAMBDA0_TOL = 1e-14  # relative, bubble_energy_constant against 2 S_n^(n/2)
RATIO_TOL = 0.05  # |Theta / Lambda_0 - N|, acceptance criterion 7
MONOTONE_SLACK = 1e-6  # relative to max |E|, acceptance criterion 2
# The profile's d/dr column is a centered difference with relative step
# 1e-3, so its truncation error is O(1e-6); this leaves two decades.
DERIVATIVE_TOL = 1e-4
POHOZAEV_TOL = 1e-6  # relative residual, acceptance criterion 3
LORENTZ_TOL = 0.02  # weak-norm sampling error, acceptance criterion 4
# Full product sphere rules grow as order^(n-2) * 2 order nodes: 16M at
# n=6, order 24, and the order-32 case does not fit in memory.
POHOZAEV_MAX_DIM = 4


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bool, float | None]]
    # the known program defect that makes the op miss its oracle, if any
    known_defect: str | None = None


def rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def close(got: float, want: float, tol: float) -> tuple[bool, float]:
    err = rel(got, want)
    return err <= tol, err


def bound_error(got: float, lo: float, hi: float) -> float:
    """Relative distance of ``got`` outside [lo, hi]; 0 inside."""
    if got < lo:
        return (lo - got) / lo
    if got > hi:
        return (got - hi) / hi
    return 0.0


def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# quantize-matrix: acceptance criterion 7
# ---------------------------------------------------------------------------

QUANTIZE_BASES = {1: (4.0,), 2: (4.0, 16.0), 3: (4.0, 16.0, 64.0)}
QUANTIZE_K_MAX = {3: 10, 4: 8, 5: 8}


def quantize_matrix(seed: int, workdir: Path) -> list[Op]:
    from bubblelab import concentration
    from bubblelab.concentration import QuantizationConfig, make_sequence

    ops = []
    for n in (3, 4, 5):
        for count, bases in QUANTIZE_BASES.items():
            seq = make_sequence([(np.zeros(n), b, 1.0) for b in bases], budget=1e4, n=n)
            cfg = QuantizationConfig(k_max=QUANTIZE_K_MAX[n])

            ops.append(Op(
                f"quantize n={n} N={count}",
                lambda seq=seq, cfg=cfg: concentration.quantization_report(seq, cfg),
                lambda rep, n=n, count=count: quantization_check(
                    n, count, rep.lambda0.value,
                    [p.n_hat for p in rep.points], [p.ratio for p in rep.points]),
            ))
    return ops


def quantization_check(n: int, count: int, lambda0: float, n_hats, ratios) -> tuple[bool, float]:
    """A same-center tower of ``count`` bubbles: one point, ``count``
    bubbles extracted, Theta / Lambda_0 within RATIO_TOL of ``count``."""
    lam_err = rel(lambda0, oracle.lambda0(n))
    if len(n_hats) != 1 or not math.isfinite(ratios[0]):
        return False, lam_err
    miss = abs(ratios[0] - count)
    ok = n_hats[0] == count and miss <= RATIO_TOL and lam_err <= LAMBDA0_TOL
    return ok, max(lam_err, miss / count)


# ---------------------------------------------------------------------------
# profile-sweeps: acceptance criterion 2
# ---------------------------------------------------------------------------

PROFILE_PROBES = ((0.3, 0, 0), (-0.8, 0.4, 0), (1.5, 0, 0), (0, 0, 1.9))


def _profile_check(n: int, centered: bool):
    def check(out):
        prof, mono, pos = out
        vals = prof.values
        slack = MONOTONE_SLACK * float(np.max(np.abs(vals)))
        ok = mono.passed and pos.passed
        ok = ok and bool(np.all(np.diff(vals) >= -slack)) and bool(np.all(vals >= -slack))
        if not centered:
            return ok, None
        err = 0.0
        for r, e, (vol, deriv, bdry) in zip(prof.radii, vals, prof.components):
            _, pot = oracle.ball_integrals(n, 1.0, r)
            s_over_r = oracle.sphere_usq(n, 1.0, r) / r
            d = oracle.sphere_usq_derivative(n, 1.0, r)
            exact = max(
                rel(e, oracle.monotone_energy(n, 1.0, r)),
                rel(vol, pot),
                rel(bdry, s_over_r),
            )
            # d/dr crosses zero for n >= 4, so scale it by the boundary term
            deriv_err = abs(deriv - d) / max(abs(d), s_over_r)
            ok = ok and exact <= ENERGY_TOL and deriv_err <= DERIVATIVE_TOL
            err = max(err, exact, deriv_err)
        return ok, err

    return check


def profile_sweeps(seed: int, workdir: Path) -> list[Op]:
    from bubblelab import monotonicity
    from bubblelab.fields import aubin_talenti
    from bubblelab.grid import RadialGrid

    rng = np.random.default_rng(seed)
    radii = RadialGrid.log_spaced(0.05, 5.0, 40)

    def sweep(u, x):
        prof = monotonicity.profile(u, x, radii)
        slack = MONOTONE_SLACK * float(np.max(np.abs(prof.values)))
        return (prof, monotonicity.check_monotone(prof, slack),
                monotonicity.check_positive(prof, slack))

    ops = []
    for n in (3, 4, 5, 6):
        u = aubin_talenti(n)
        ops.append(Op(f"profile n={n} centered", lambda u=u, x=np.zeros(n): sweep(u, x),
                      _profile_check(n, centered=True)))
        for probe in PROFILE_PROBES:
            # the bubble is radial about 0, so a rotated probe sees the same E
            x = float(np.linalg.norm(probe)) * random_unit(rng, n)
            ops.append(Op(f"profile n={n} |x|={np.linalg.norm(probe):.3g}",
                          lambda u=u, x=x: sweep(u, x), _profile_check(n, centered=False)))
    return ops


# ---------------------------------------------------------------------------
# energy-oracle: ball energies against closed forms
# ---------------------------------------------------------------------------

TINY_DELTAS = (1.0, 1e-3, 1e-10, 1e-18, 1e-19, 1e-22)
TINY_OFFSETS = (0.0, 0.01, 0.3)
TINY_RADII = (0.5, 1.0)
LARGE_ORDERS = (24, 32)


def known_energy_defect(delta: float, radius: float, offset: float) -> str | None:
    """The two ball-energy defects present when this benchmark was written.

    * off-center: ``local_scale`` reports only a bubble at the rule's
      center, so a ball whose bubble sits elsewhere gets no radial panels
      and its energy is missed once the bubble is narrower than the offset;
    * panel-floor: ``geometric_panels`` starts no lower than radius * 1e-17,
      which is above delta / 4 once delta < 4e-17 radius.
    """
    if offset > 0 and delta < offset:
        return "off-center"
    if offset == 0 and delta < 4e-17 * radius:
        return "panel-floor"
    return None


def energy_oracle(seed: int, workdir: Path) -> list[Op]:
    from bubblelab import concentration, fields
    from bubblelab.fields import CustomField, aubin_talenti

    rng = np.random.default_rng(seed)
    ops = []
    for n in (3, 4, 5, 6):
        ops.append(Op(
            f"lambda0 n={n}",
            lambda n=n: concentration.bubble_energy_constant(n).value,
            lambda v, n=n: close(v, oracle.lambda0(n), LAMBDA0_TOL),
        ))
        for delta in TINY_DELTAS:
            for offset in TINY_OFFSETS:
                for radius in TINY_RADII:
                    u = aubin_talenti(n, delta, offset * random_unit(rng, n))
                    lo, hi = oracle.offset_bounds(n, delta, radius, offset)

                    def check(got, lo=lo, hi=hi):
                        err = bound_error(got, lo, hi)
                        return err <= ENERGY_TOL, err

                    ops.append(Op(
                        f"ball n={n} delta={delta:g} offset={offset:g} r={radius:g}",
                        lambda u=u, n=n, radius=radius: concentration.bubbling_energy(
                            u, np.zeros(n), radius),
                        check,
                        known_energy_defect(delta, radius, offset),
                    ))
        # a wrapped bubble carries no symmetry hint, so these take full rules
        bubble = aubin_talenti(n)
        plain = CustomField(n, bubble.evaluate, bubble.analytic_gradient)
        want = oracle.weighted_energy(n, 1.0, 1.0)
        for order in LARGE_ORDERS:
            ops.append(Op(
                f"full-rule energy n={n} order={order}",
                lambda u=plain, n=n, order=order: concentration.energy_in(
                    u, fields.ball_rule_for(u, np.zeros(n), 1.0, order), threads=2),
                lambda got, want=want: close(got, want, ENERGY_TOL),
            ))
            if n <= POHOZAEV_MAX_DIM:
                ops.append(Op(
                    f"full-rule pohozaev n={n} order={order}",
                    lambda u=plain, n=n, order=order: fields.pohozaev_report(
                        u, np.zeros(n), 1.0, order=order, threads=2),
                    lambda rep, n=n: _pohozaev_check(n, rep),
                ))
    return ops


def _pohozaev_volume_error(n: int, terms: dict) -> float:
    """Largest relative error of the two volume terms of the centered
    Pohozaev balance over the unit ball, for the bubble of scale 1."""
    grad, pot = oracle.ball_integrals(n, 1.0, 1.0)
    return max(
        rel(terms["volume_potential"], (n - 2) / 2.0 * pot),
        rel(terms["volume_gradient"], -(n - 2) / 2.0 * grad),
    )


def _pohozaev_check(n: int, rep) -> tuple[bool, float]:
    err = _pohozaev_volume_error(n, rep.terms)
    return err <= ENERGY_TOL and rep.relative_residual <= POHOZAEV_TOL, max(
        err, rep.relative_residual)


# ---------------------------------------------------------------------------
# cli-examples: the README commands, in process
# ---------------------------------------------------------------------------

CLI_EXAMPLES = {
    "residual": (["residual", "--n", "3", "--delta", "1", "--pohozaev", "1"],
                 ("residuals.csv", "pohozaev.csv")),
    "monotonicity": (["monotonicity", "--n", "4", "--probe", "0.3", "0", "0", "0"],
                     ("profile.csv",)),
    "lorentz": (["lorentz", "--analytic", "inv-sqrt-n", "--p", "2", "--q", "inf",
                 "--duality-trials", "1000"], ("table.csv", "norms.json")),
    "neck": (["neck", "--n", "3", "--base", "10", "--k", "3", "--R", "10", "30", "100"],
             ("neck.csv", "summary.json")),
    "quantize": (["quantize", "--n", "3", "--bases", "4,16,64", "--k-max", "10",
                  "--assert-integer", "0.05"],
                 ("report.json", "sigma.csv", "necks.csv", "inventory.csv")),
    "bubble-constant": (["bubble-constant", "--n", "5"], ("bubble_constant.json",)),
}


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:] if line]


def _check_residual(out: Path) -> tuple[bool, float]:
    worst = max(abs(float(row[-1])) for row in _csv_rows(out / "residuals.csv"))
    terms = {row[2]: float(row[3]) for row in _csv_rows(out / "pohozaev.csv")}
    largest = max(abs(v) for k, v in terms.items() if k != "sum")
    balance = abs(terms["sum"]) / largest
    volume = _pohozaev_volume_error(3, terms)
    # 1e-10 is the CLI's own default --tol for the pointwise residual
    ok = worst <= 1e-10 and balance <= POHOZAEV_TOL and volume <= ENERGY_TOL
    return ok, max(balance, volume)


def _check_monotonicity(out: Path) -> tuple[bool, None]:
    vals = np.array([float(row[1]) for row in _csv_rows(out / "profile.csv")])
    slack = MONOTONE_SLACK * float(np.max(np.abs(vals)))
    return bool(np.all(np.diff(vals) >= -slack) and np.all(vals >= -slack)), None


def _check_lorentz(out: Path) -> tuple[bool, float]:
    payload = json.loads((out / "norms.json").read_text())
    n = 3
    target = math.sqrt(math.pi ** (n / 2) / math.gamma(n / 2 + 1))  # |B_1|^(1/2)
    err = rel(payload["norm"], target)
    return err <= LORENTZ_TOL and payload["duality_failures"] == 0, err


def _check_neck(out: Path) -> tuple[bool, float]:
    summary = json.loads((out / "summary.json").read_text())
    lam = oracle.lambda0(3)
    err = rel(summary["lambda0"], lam)
    energy = {float(row[0]): float(row[4]) for row in _csv_rows(out / "neck.csv")}
    # acceptance criterion 6: the neck energy vanishes as R grows
    decays = energy[10.0] > energy[30.0] > energy[100.0] and energy[100.0] < 0.01 * lam
    return decays and err <= LAMBDA0_TOL, err


def _check_quantize(out: Path) -> tuple[bool, float]:
    payload = json.loads((out / "report.json").read_text())
    return quantization_check(3, 3, payload["lambda0"]["value"], payload["n_hat"],
                              payload["ratios"])


def _check_bubble_constant(out: Path) -> tuple[bool, float]:
    payload = json.loads((out / "bubble_constant.json").read_text())
    return close(payload["lambda0"], oracle.lambda0(5), LAMBDA0_TOL)


CLI_CHECKS = {
    "residual": _check_residual,
    "monotonicity": _check_monotonicity,
    "lorentz": _check_lorentz,
    "neck": _check_neck,
    "quantize": _check_quantize,
    "bubble-constant": _check_bubble_constant,
}


def cli_examples(seed: int, workdir: Path) -> list[Op]:
    """Each execution alternates --threads 1 and 2 and must write the same
    data bytes as the first execution of its example."""
    from bubblelab import cli

    cli_seed = str(seed % 2**31)
    ops = []
    for name, (argv, files) in CLI_EXAMPLES.items():
        out = workdir / name
        state = {"runs": 0, "reference": None}

        def call(argv=argv, out=out, state=state):
            threads = "1" if state["runs"] % 2 == 0 else "2"
            state["runs"] += 1
            full = argv + ["--out", str(out), "--seed", cli_seed, "--threads", threads]
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(full)

        def check(code, out=out, files=files, state=state, name=name):
            data = {f: (out / f).read_bytes() for f in files}
            if state["reference"] is None:
                state["reference"] = data
            same = data == state["reference"]
            ok, err = CLI_CHECKS[name](out)
            return code == 0 and same and ok, err

        ops.append(Op(f"cli {name}", call, check))
    return ops


WORKLOADS = {
    "quantize-matrix": quantize_matrix,
    "profile-sweeps": profile_sweeps,
    "energy-oracle": energy_oracle,
    "cli-examples": cli_examples,
}
