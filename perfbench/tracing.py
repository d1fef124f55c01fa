"""Spans and counters around bubblelab's layer boundaries, for the traced run.

``install`` replaces selected functions and methods of the imported
bubblelab modules with wrappers that time each call.  A function is
replaced in every bubblelab module that bound it by name, so calls made
inside the package are seen too.  Spans nest per thread; a span's self
time is its duration minus the time of the spans it directly encloses.
Pool workers of ``integrate`` keep their own stacks, so with threads > 1
``grid.integrate_s`` includes waiting for the workers and ``fields.eval_s``
sums busy time over threads.

Every ``*_s`` metric is the self time of one span kind, except
``cli.subcommand_s.<name>``, the whole time of each subcommand.  A call
nested directly inside a span of the same kind adds its self time to that
kind but is not counted again as a call.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.probe_ids: set[int] = set()
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack())

    def add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, name: str, fn, after=None):
        """``after(tracer, args, kwargs, result)`` runs for calls not
        nested in a span of the same name."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            nested = bool(stack) and stack[-1][0] == name
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                with self._lock:
                    self.self_s[name] += dt - frame[1]
                    if not nested:
                        self.total_s[name] += dt
                        self.counts[name] += 1
            if after is not None and not nested:
                after(self, args, kwargs, out)
            return out

        return wrapper


def _bubblelab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "bubblelab" or name.startswith("bubblelab."))]


def _set(undo: list, owner, attr: str, value) -> None:
    undo.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, value)


def _replace_everywhere(undo: list, original, wrapper) -> None:
    for mod in _bubblelab_modules():
        for attr, val in list(vars(mod).items()):
            if val is original:
                _set(undo, mod, attr, wrapper)


def _patch(tracer: Tracer, undo: list, module, attr: str, name: str, after=None) -> None:
    original = getattr(module, attr, None)
    if original is not None:
        _replace_everywhere(undo, original, tracer.wrap(name, original, after))


def _patch_method(tracer: Tracer, undo: list, cls, attr: str, name: str, after=None) -> None:
    if attr in vars(cls):
        _set(undo, cls, attr, tracer.wrap(name, vars(cls)[attr], after))


def uninstall(undo: list) -> None:
    """Put back what ``install`` replaced."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _file_size(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def install(tracer: Tracer) -> list:
    """Wrap the layer boundaries of the imported bubblelab package; return
    the list that ``uninstall`` takes."""
    import scipy.special
    from bubblelab import cli, concentration, fields, grid, lorentz, monotonicity

    undo: list = []

    # grid: roots, rule construction, integration
    for fn in (scipy.special.roots_legendre, scipy.special.roots_gegenbauer):
        _replace_everywhere(undo, fn, tracer.wrap("grid.roots", fn))

    def built(t, args, kwargs, rule):
        t.add("grid.nodes_built", len(rule))

    for attr in ("build_ball_rule", "build_sphere_rule", "build_annulus_rule",
                 "build_radial_ball_rule", "build_zonal_ball_rule", "build_zonal_sphere_rule"):
        _patch(tracer, undo, grid, attr, "grid.rule_build", built)

    def integrated(t, args, kwargs, result):
        rule = args[0]
        t.add("grid.nodes_integrated", len(rule))
        threads = kwargs.get("threads", args[2] if len(args) > 2 else None)
        if threads is None:
            threads = getattr(grid, "_DEFAULT_THREADS", 1)
        chunk = getattr(grid, "_CHUNK", None)
        chunks = math.ceil(len(rule) / chunk) if chunk else 0
        if threads > 1 and chunks > 1:
            t.add("grid.pool_chunks", chunks)

    _patch(tracer, undo, grid, "integrate", "grid.integrate", integrated)

    # fields: rule selection, field evaluation, Pohozaev
    def sphere_selected(t, args, kwargs, rule):
        if t.inside("monotonicity.profile"):
            t.add("monotonicity.profile_sphere_rules")

    for attr in ("ball_rule_for", "annulus_rule_for", "bump_adapted_rule"):
        _patch(tracer, undo, fields, attr, "fields.rule_select")
    _patch(tracer, undo, fields, "sphere_rule_for", "fields.rule_select", sphere_selected)

    def evaluated(t, args, kwargs, out):
        t.add("fields.eval_nodes", len(args[1] if len(args) > 1 else kwargs["points"]))

    for cls in vars(fields).values():
        if isinstance(cls, type) and issubclass(cls, fields.ScalarField):
            for attr in ("evaluate", "gradient", "laplacian",
                         "analytic_gradient", "analytic_laplacian"):
                _patch_method(tracer, undo, cls, attr, "fields.eval", evaluated)

    _patch(tracer, undo, fields, "pohozaev_report", "fields.pohozaev")

    # monotonicity
    def profiled(t, args, kwargs, prof):
        t.add("monotonicity.profile_radii", len(prof.radii))

    _patch(tracer, undo, monotonicity, "profile", "monotonicity.profile", profiled)
    _patch(tracer, undo, monotonicity, "energy_E", "monotonicity.energy_E")

    # concentration: detection scan, extraction, Theta, necks, budget
    def probed(t, args, kwargs, out):
        t.probe_ids.add(id(args[2]))

    def detected(t, args, kwargs, out):
        _, cluster_sizes, _ = out
        t.add("concentration.probes_scanned", len(t.probe_ids))
        t.add("concentration.probes_kept", sum(cluster_sizes))
        t.probe_ids.clear()

    def fitted(t, args, kwargs, out):
        t.add("concentration.fit_nfev", out[1]["nfev"])
        t.add("concentration.fits")

    def reported(t, args, kwargs, report):
        t.add("concentration.fits_accepted", sum(p.n_hat for p in report.points))

    _patch(tracer, undo, concentration, "_detection_quantity", "concentration.probe", probed)
    _patch(tracer, undo, concentration, "_detect_detailed", "concentration.detect", detected)
    _patch(tracer, undo, concentration, "_half_threshold_radius", "concentration.extract")
    _patch(tracer, undo, concentration, "_fit_bubble", "concentration.extract", fitted)
    _patch(tracer, undo, concentration, "quantization_report", "concentration.report", reported)
    _patch(tracer, undo, concentration, "theta_estimate", "concentration.theta")
    _patch(tracer, undo, concentration, "neck_energy", "concentration.neck")
    _patch(tracer, undo, concentration, "bubble_energy_constant", "concentration.bubble_constant")
    _patch_method(tracer, undo, concentration.ConcentrationSequence, "verify_budget",
                  "concentration.budget")

    # lorentz
    def rearranged(t, args, kwargs, table):
        t.add("lorentz.samples_sorted", len(table.levels))

    _patch(tracer, undo, lorentz, "rearrange", "lorentz.rearrange", rearranged)
    _patch(tracer, undo, lorentz, "lorentz_norm", "lorentz.norm")

    # cli: one span per subcommand, file output
    for attr in dir(cli):
        if attr.startswith("cmd_"):
            _patch(tracer, undo, cli, attr, "cli.subcommand_s." + attr[4:].replace("_", "-"))

    def wrote(t, args, kwargs, out):
        t.add("cli.bytes_written", _file_size(args[0]))

    def prepared(t, args, kwargs, out):
        t.add("cli.bytes_written", _file_size(Path(out) / "effective_config.ini"))

    for module, attr in ((cli, "_write_csv"), (cli, "_write_json"),
                         (monotonicity, "write_profile_csv"), (lorentz, "write_table_csv")):
        _patch(tracer, undo, module, attr, "cli.write", wrote)
    _patch(tracer, undo, cli, "_prepare_out", "cli.write", prepared)
    return undo


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    s, total, c = tracer.self_s, tracer.total_s, tracer.counts
    out = {
        "grid.rule_builds": c["grid.rule_build"],
        "grid.rule_build_s": s["grid.rule_build"],
        "grid.nodes_built": c["grid.nodes_built"],
        "grid.roots_calls": c["grid.roots"],
        "grid.roots_s": s["grid.roots"],
        "grid.integrate_calls": c["grid.integrate"],
        "grid.integrate_s": s["grid.integrate"],
        "grid.nodes_integrated": c["grid.nodes_integrated"],
        "grid.nodes_per_s": _ratio(c["grid.nodes_integrated"], total["grid.integrate"]),
        "grid.pool_chunks": c["grid.pool_chunks"],
        "fields.rule_select_calls": c["fields.rule_select"],
        "fields.rule_select_s": s["fields.rule_select"],
        "fields.eval_calls": c["fields.eval"],
        "fields.eval_nodes": c["fields.eval_nodes"],
        "fields.eval_s": s["fields.eval"],
        "fields.evals_per_node": _ratio(c["fields.eval_nodes"], c["grid.nodes_integrated"]),
        "fields.pohozaev_s": s["fields.pohozaev"],
        "monotonicity.profile_s": s["monotonicity.profile"],
        "monotonicity.energy_E_calls": c["monotonicity.energy_E"],
        "monotonicity.energy_E_s": s["monotonicity.energy_E"],
        "monotonicity.sphere_rules_per_radius": _ratio(
            c["monotonicity.profile_sphere_rules"], c["monotonicity.profile_radii"]),
        "concentration.detect_s": s["concentration.detect"] + s["concentration.probe"],
        "concentration.probe_evals": c["concentration.probe"],
        "concentration.probe_hit_ratio": _ratio(
            c["concentration.probes_kept"], c["concentration.probes_scanned"]),
        "concentration.extract_s": s["concentration.extract"],
        "concentration.fit_nfev": c["concentration.fit_nfev"],
        "concentration.fit_accept_ratio": _ratio(
            c["concentration.fits_accepted"], c["concentration.fits"]),
        "concentration.theta_s": s["concentration.theta"],
        "concentration.neck_s": s["concentration.neck"],
        "concentration.budget_s": s["concentration.budget"],
        "concentration.bubble_constant_s": s["concentration.bubble_constant"],
        "lorentz.rearrange_s": s["lorentz.rearrange"],
        "lorentz.samples_sorted": c["lorentz.samples_sorted"],
        "lorentz.norm_s": s["lorentz.norm"],
        "cli.write_s": s["cli.write"],
        "cli.bytes_written": c["cli.bytes_written"],
    }
    for sub in ("residual", "monotonicity", "lorentz", "neck", "quantize", "bubble-constant"):
        out["cli.subcommand_s." + sub] = total["cli.subcommand_s." + sub]
    return out


_SPECIAL_UNITS = {
    "grid.nodes_per_s": "1/s",
    "fields.evals_per_node": "evals/node",
    "monotonicity.sphere_rules_per_radius": "rules/radius",
    "concentration.probe_hit_ratio": "ratio",
    "concentration.fit_accept_ratio": "ratio",
    "cli.bytes_written": "bytes",
}


def unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name in _SPECIAL_UNITS:
        return _SPECIAL_UNITS[name]
    if name.endswith("_s") or name.startswith("cli.subcommand_s."):
        return "s"
    return "count"
