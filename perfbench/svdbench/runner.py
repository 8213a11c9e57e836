"""The closed measurement loop and the metric reduction.

One caller in one process issues the workload's public call, then the
LAPACK twin on the same input, then checks the output; the next call
starts only when that is done.  Single-matrix workloads time balanced
pairs of calls (see :mod:`svdbench.workloads`); one timing sample is a
pair's mean call time.  The loop cycles the pool until ``seconds`` of
wall time have passed.

The untraced run (``trace=False``) gives the end-to-end metrics.  The
traced run alternates each unit untraced and traced, reports the
per-layer metrics from the traced calls, and the ratio of traced to
untraced time as ``trace.overhead``.  Per-layer times are means over
all traced calls; per-layer counts are means over the first full pass
of the pool, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from . import ledger as ledger_mod
from . import speed
from .probes import ROOT_SPAN, Installed, OpTrace, Tracer
from .workloads import WORKLOADS, Workload, check, twin

RUN_PY = Path(__file__).resolve().parents[1] / "run.py"

#: (name, unit, better, bound): what a user of the library sees, gated.
#: A bound is the share of the parent's median a metric may worsen by.
#: Wall time on the shared 2-core host swings by up to 1.7x for minutes
#: at a time, program and LAPACK twin alike, so the gated speed metrics
#: are ratios to the twin timed beside each call; the wall times
#: themselves are printed with the run (:data:`WALL`), ungated.
END_TO_END = (
    ("x_lapack", "x", "lower", 0.2),
    ("x_lapack.p90", "x", "lower", 0.25),
    ("x_lapack.total", "x", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit): wall-clock figures printed on the run's ``#`` line
WALL = (
    ("call_s.p50", "s"),
    ("call_s.p90", "s"),
    ("matrices_per_s", "1/s"),
)

#: (name, unit, better, layer): a metric is reported only when its layer
#: is bound in this build (``None``: read from the call's return value)
PER_LAYER = (
    ("api.self_s", "s", "lower", None),
    ("orderings.sweep_s", "s", "lower", "orderings"),
    ("orderings.sweep_calls", "count", "lower", "orderings"),
    ("plan.compile_s", "s", "lower", "plan"),
    ("plan.hits", "count", "higher", "plan.stats"),
    ("plan.misses", "count", "lower", "plan.stats"),
    ("plan.hit_ratio", "ratio", "higher", "plan.stats"),
    ("block.step_s", "s", "lower", "block.step"),
    ("block.step_calls", "count", "lower", "block.step"),
    ("block.form_apply_s", "s", "lower", "block.step"),
    ("block.driver_self_s", "s", "lower", "block.driver"),
    ("block.gemm_gflop", "GFLOP", "lower", "block.step"),
    ("block.bytes_mb", "MB", "lower", "block.step"),
    ("pivot.s", "s", "lower", "pivot"),
    ("pivot.calls", "count", "lower", "pivot"),
    ("pivot.matrices", "count", "lower", "pivot"),
    ("pivot.inner_sweeps", "count", "lower", "pivot"),
    ("pivot.rotations", "count", "lower", "pivot"),
    ("rotations.s", "s", "lower", "rotations"),
    ("rotations.calls", "count", "lower", "rotations"),
    ("rotations.applied", "count", "lower", "rotations"),
    ("rotations.skipped", "count", "lower", "rotations"),
    ("rotations.useful_ratio", "ratio", "higher", "rotations"),
    ("convergence.s", "s", "lower", "convergence"),
    ("convergence.calls", "count", "lower", "convergence"),
    ("solver.sweeps", "count", "lower", None),
    ("solver.rotations", "count", "lower", None),
    ("machine.sweep_s", "s", "lower", "machine"),
    ("machine.self_s", "s", "lower", "machine"),
    ("machine.fast_sweeps", "count", "higher", "machine"),
    ("machine.event_sweeps", "count", "lower", "machine"),
    ("routing.s", "s", "lower", "routing"),
    ("routing.calls", "count", "lower", "routing"),
    ("parallel.self_s", "s", "lower", "parallel"),
    ("model.total_time", "model_s", "lower", None),
    ("model.compute_time", "model_s", "lower", None),
    ("model.comm_time", "model_s", "lower", None),
    ("model.max_contention", "ratio", "lower", None),
    ("model.messages", "count", "lower", None),
    ("pad.s", "s", "lower", "pad"),
    ("pad.calls", "count", "lower", "pad"),
    ("trace.call_s", "s", "lower", None),
    ("trace.overhead", "ratio", "lower", None),
)

#: per-layer time metrics: (metric, "self" | "incl", span name)
_TIMES = (
    ("api.self_s", "self", ROOT_SPAN),
    ("orderings.sweep_s", "self", "orderings"),
    ("plan.compile_s", "self", "plan"),
    ("block.step_s", "incl", "block.step"),
    ("block.form_apply_s", "self", "block.step"),
    ("block.driver_self_s", "self", "block.driver"),
    ("pivot.s", "self", "pivot"),
    ("rotations.s", "self", "rotations"),
    ("convergence.s", "self", "convergence"),
    ("machine.sweep_s", "incl", "machine"),
    ("machine.self_s", "self", "machine"),
    ("routing.s", "self", "routing"),
    ("parallel.self_s", "self", "parallel"),
    ("pad.s", "self", "pad"),
)

#: per-layer span counts: metric -> span name
_CALLS = {
    "orderings.sweep_calls": "orderings",
    "block.step_calls": "block.step",
    "pivot.calls": "pivot",
    "rotations.calls": "rotations",
    "convergence.calls": "convergence",
    "routing.calls": "routing",
    "pad.calls": "pad",
}

#: per-layer counters the probes read: metric -> (counter, scale)
_COUNTS = {
    "pivot.matrices": ("pivot.matrices", 1.0),
    "pivot.inner_sweeps": ("pivot.inner_sweeps", 1.0),
    "pivot.rotations": ("pivot.rotations", 1.0),
    "rotations.applied": ("rotations.applied", 1.0),
    "rotations.skipped": ("rotations.skipped", 1.0),
    "machine.fast_sweeps": ("machine.fast_sweeps", 1.0),
    "machine.event_sweeps": ("machine.event_sweeps", 1.0),
    "block.gemm_gflop": ("block.gemm_flop", 1e-9),
    "block.bytes_mb": ("block.bytes", 1e-6),
    "plan.hits": ("plan.hits", 1.0),
    "plan.misses": ("plan.misses", 1.0),
}

_UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER + WALL}


@dataclass
class Call:
    """One public call of the loop that completed.  Only the figures the
    metrics need are kept; the factors are dropped after the check, so
    the loop's memory does not grow with the number of calls."""

    index: int
    call_s: float
    twin_s: float
    matrices: int
    sweeps: int               # summed over the call's matrices
    rotations: int
    model: dict | None        # model ledger of a simulated-machine call
    trace: OpTrace | None = None


@dataclass
class Tally:
    """Failure share and the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 8:
            self.messages.append(message)


def _import_repro():
    return importlib.import_module("repro")


def setup_seconds(name: str, seed: int, scale: str) -> dict[str, float]:
    """From just before ``import repro`` to the end of the first call
    (import, plan compile, ordering build); input generation is not
    counted.  Only the first call in a process measures set-up.

    Returns the wall time (``wall_s``), the mean reference time of the
    runs of :func:`speed.reference_seconds` just before and after it
    (``reference_s``), and the wall time at nominal host speed
    (``setup_s``, the reported figure)."""
    w = WORKLOADS[name]
    x = w.make_input(seed, 0, scale)
    before = speed.reference_seconds()
    t0 = perf_counter()
    w.call(_import_repro(), x, scale)
    wall = perf_counter() - t0
    ref = (before + speed.reference_seconds()) / 2
    return {"setup_s": speed.at_nominal_speed(wall, ref), "wall_s": wall,
            "reference_s": ref}


def _probe_child(name: str, seed: int, scale: str) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--setup-probe", "--workload", name,
         "--seed", str(seed), "--scale", scale],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Loop:
    """State of one run of the closed loop."""

    def __init__(self, w: Workload, seed: int, scale: str, repro,
                 trace: bool):
        self.w, self.scale, self.repro = w, scale, repro
        self.pool = w.make_pool(seed, scale)
        self.bounds = w.bounds(scale)
        self.tally = Tally()
        self.ledgers: dict[int, dict] = {}
        self.golden = None
        if (w.name == ledger_mod.GOLDEN_WORKLOAD and scale == "full"
                and seed == ledger_mod.GOLDEN_SEED):
            self.golden = ledger_mod.load_golden()
        self.tracer = Tracer() if trace else None
        self.probes = Installed(self.tracer) if trace else None

    def call(self, index: int, traced: bool) -> Call | None:
        """One public call, its twin and the checks; ``None`` on failure."""
        w, x = self.w, self.pool[index]
        self.tally.attempted += 1
        op = None
        try:
            if traced:
                op, (dt, results, report) = self._traced(x)
            else:
                t = perf_counter()
                results, report = w.call(self.repro, x, self.scale)
                dt = perf_counter() - t
            t = perf_counter()
            s_lapack = twin(x)
            dl = perf_counter() - t
        except Exception as exc:  # a failing op is counted, not fatal
            self.tally.fail(f"input {index}: {type(exc).__name__}: {exc}")
            return None
        misses = check(x, results, s_lapack, self.bounds)
        model = None
        if report is not None:
            model = ledger_mod.ledger(results, report)
            misses += self._check_ledger(index, model)
        if misses:
            self.tally.fail(f"input {index}: " + "; ".join(misses[:3]))
            return None
        return Call(index, dt, dl, len(results),
                    sum(r.sweeps for r in results),
                    sum(r.rotations for r in results), model, op)

    def _traced(self, x):
        tracer, stats = self.tracer, self.probes.plan_stats
        before = stats() if stats is not None else None
        tracer.begin(ROOT_SPAN)
        try:
            t = perf_counter()
            results, report = self.w.call(self.repro, x, self.scale)
            dt = perf_counter() - t
        finally:
            tracer.end()
            if stats is not None:
                after = stats()
                tracer.counts["plan.hits"] += (
                    after.hits + after.instance_hits
                    - before.hits - before.instance_hits)
                tracer.counts["plan.misses"] += after.misses - before.misses
            op = tracer.take()
        return op, (dt, results, report)

    def _check_ledger(self, index: int, got: dict) -> list[str]:
        """The model ledger repeats exactly for an input within a run
        and, at the golden seed, matches the golden file."""
        misses = []
        first = self.ledgers.setdefault(index, got)
        misses += ["ledger moved within the run: " + m
                   for m in ledger_mod.mismatches(got, first)]
        if self.golden is not None:
            misses += ["golden ledger: " + m for m in
                       ledger_mod.mismatches(got, self.golden[index])]
        return misses


def _units(w: Workload) -> list[tuple[int, ...]]:
    if w.paired:
        return [(i, i + 1) for i in range(0, w.pool, 2)]
    return [(i,) for i in range(w.pool)]


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: str = "full", setup_probes: int = 6,
        trace_dir: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; returns ``(result, info)``: the result object
    (``correct``, ``attempted``, ``failed``, ``metrics``) and the
    details printed beside it (sample counts, failures, unbound sites).
    """
    w = WORKLOADS[name]
    setup = [setup_seconds(name, seed, scale)]
    loop = Loop(w, seed, scale, _import_repro(), trace)
    units = _units(w)
    # one round = a unit untraced, then (traced run) the same unit traced
    rounds: list[tuple[list, list]] = []
    start = perf_counter()
    deadline = start + seconds
    # fresh-process set-up probes are spread over the run, so a slow
    # stretch of the host does not hit all of them
    probe_at = [start + seconds * (i + 0.5) / max(1, setup_probes)
                for i in range(setup_probes)]
    while True:
        if probe_at and perf_counter() >= probe_at[0]:
            probe_at.pop(0)
            setup.append(_probe_child(name, seed, scale))
        unit = units[len(rounds) % len(units)]
        calls = [loop.call(i, False) for i in unit]
        tcalls: list = []
        if trace:
            loop.probes.install()
            try:
                tcalls = [loop.call(i, True) for i in unit]
            finally:
                loop.probes.uninstall()
        rounds.append((calls, tcalls))
        if perf_counter() >= deadline and (
                not trace or len(rounds) >= len(units)):
            break
    setup += [_probe_child(name, seed, scale) for _ in probe_at]
    untraced = [calls for calls, _ in rounds if all(calls)]
    if not untraced:
        raise RuntimeError("no op of the workload succeeded: "
                           + "; ".join(loop.tally.messages))
    info = {
        "workload": name, "seed": seed, "scale": scale, "trace": trace,
        "samples": len(untraced),
        "setup_samples": [round(p["setup_s"], 6) for p in setup],
        "setup_wall_s": [round(p["wall_s"], 6) for p in setup],
        "setup_reference_s": [round(p["reference_s"], 6) for p in setup],
        "failures": loop.tally.messages,
    }
    if trace:
        metrics = _layer_metrics(loop, rounds[:len(units)], rounds)
        info["unbound"] = loop.probes.unbound
        if trace_dir is not None:
            path = trace_dir / f"trace-{name}-seed{seed}.json"
            loop.tracer.write_chrome(path, {"workload": name, "seed": seed})
            info["trace_file"] = str(path)
    else:
        metrics, wall = _end_to_end(w, scale, untraced, setup)
        info["wall"] = _with_units(wall)
    result = {
        "correct": loop.tally.failed == 0,
        "attempted": loop.tally.attempted,
        "failed": loop.tally.failed,
        "metrics": _with_units(metrics),
    }
    return result, info


def _with_units(metrics: dict[str, float]) -> dict[str, dict]:
    return {k: {"value": v, "unit": _UNITS[k]} for k, v in metrics.items()}


def _p90(values: list[float]) -> float:
    return (statistics.quantiles(values, n=10)[-1] if len(values) > 1
            else values[0])


def _end_to_end(w: Workload, scale: str, units: list[list[Call]],
                setup: list[dict]) -> tuple[dict, dict]:
    """``(gated metrics, wall-clock figures)`` of the untraced run."""
    per_call = [sum(c.call_s for c in u) / len(u) for u in units]
    ratios = [sum(c.call_s for c in u) / sum(c.twin_s for c in u)
              for u in units]
    busy = sum(c.call_s for u in units for c in u)
    twin_busy = sum(c.twin_s for u in units for c in u)
    n_mat = sum(len(u) for u in units) * w.matrices_per_call(scale)
    gated = {
        "x_lapack": statistics.median(ratios),
        "x_lapack.p90": _p90(ratios),
        "x_lapack.total": busy / twin_busy,
        "setup_s": statistics.median(p["setup_s"] for p in setup),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    wall = {
        "call_s.p50": statistics.median(per_call),
        "call_s.p90": _p90(per_call),
        "matrices_per_s": n_mat / busy,
    }
    return gated, wall


def _layer_metrics(loop: Loop, first_rounds, rounds) -> dict[str, float]:
    """Per-layer metrics of the traced run (see the module docstring)."""
    calls = [c for _, t in rounds for c in t if c is not None]
    first_pass = [c for _, t in first_rounds for c in t if c is not None]
    n, n_fp = max(1, len(calls)), max(1, len(first_pass))
    self_s: Counter = Counter()
    incl_s: Counter = Counter()
    for c in calls:
        self_s.update(c.trace.self_s)
        incl_s.update(c.trace.incl_s)
    span_calls: Counter = Counter()
    counts: Counter = Counter()
    for c in first_pass:
        span_calls.update(c.trace.calls)
        counts.update(c.trace.counts)

    out: dict[str, float] = {}
    for metric, kind, span in _TIMES:
        out[metric] = (self_s if kind == "self" else incl_s)[span] / n
    for metric, span in _CALLS.items():
        out[metric] = span_calls[span] / n_fp
    for metric, (key, scale) in _COUNTS.items():
        out[metric] = counts[key] * scale / n_fp
    lookups = counts["plan.hits"] + counts["plan.misses"]
    out["plan.hit_ratio"] = counts["plan.hits"] / lookups if lookups else 0.0
    attempted = counts["rotations.applied"] + counts["rotations.skipped"]
    out["rotations.useful_ratio"] = (
        counts["rotations.applied"] / attempted if attempted else 0.0)
    n_mat = max(1, sum(c.matrices for c in first_pass))
    out["solver.sweeps"] = sum(c.sweeps for c in first_pass) / n_mat
    out["solver.rotations"] = sum(c.rotations for c in first_pass) / n_mat
    for key in ledger_mod.MODEL_KEYS:
        # 0 off the simulated machine
        out[key] = sum(c.model[key] for c in first_pass
                       if c.model is not None) / n_fp
    out["trace.call_s"] = incl_s[ROOT_SPAN] / n
    # overhead over the rounds where both passes of the unit succeeded
    both = [(u, t) for u, t in rounds if all(u) and all(t)]
    t_on = sum(c.call_s for _, t in both for c in t)
    t_off = sum(c.call_s for u, _ in both for c in u)
    out["trace.overhead"] = t_on / t_off if t_off else 0.0

    layers = loop.probes.layers | (
        {"plan.stats"} if loop.probes.plan_stats is not None else set())
    keep = {name for name, _, _, layer in PER_LAYER
            if layer is None or layer in layers}
    return {k: v for k, v in out.items() if k in keep}


def write_golden() -> None:
    """Regenerate the golden ledger of the golden workload and seed."""
    w = WORKLOADS[ledger_mod.GOLDEN_WORKLOAD]
    repro = _import_repro()
    entries = {}
    for i, x in enumerate(w.make_pool(ledger_mod.GOLDEN_SEED, "full")):
        results, report = w.call(repro, x, "full")
        entries[i] = ledger_mod.ledger(results, report)
    ledger_mod.write_golden(entries)
