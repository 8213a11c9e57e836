"""Layer probes and the span recorder of the traced run.

Each :class:`Probe` names one layer of ``repro`` and the
``(module, attribute)`` *binding sites* through which the program calls
into it.  A module-level ``from x import f`` binds a copy that a patch
of ``x.f`` cannot see, so a probe lists the consumer sites as well as
the definition site; an attribute may be ``Class.method``.  Installing
the table replaces every bound site with a thin wrapper that opens a
span, calls the original and closes the span; uninstalling restores the
originals.  A site that a build does not have is reported as
``unbound`` and never raises, so deleting or merging layers in the
program leaves the benchmark running: a layer with no bound site simply
drops out of the per-layer metrics.

Spans carry a name (the layer), start, end, parent span and op id.  A
layer's self time is its spans' durations minus the time their child
spans cover, so the self times of all layers plus the benchmark's root
``api`` span partition the traced call time exactly.  Spans stay in
memory and are written as Chrome trace-event JSON at the end of a run.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT_SPAN = "api"


class Tracer:
    """In-memory span recorder with per-op accounting.

    Time and call totals accumulate until :meth:`take`, which returns
    them as one op's :class:`OpTrace` and starts the next op.  Raw spans
    are kept for the first :attr:`KEEP_OPS` ops only (the Chrome trace),
    so a long run does not grow without bound.
    """

    KEEP_OPS = 4

    def __init__(self):
        self.events: list[dict] = []
        self.op = 0
        self._t0 = perf_counter()
        self._stack: list[list] = []  # [name, start, child_s, span id]
        self._depth: Counter = Counter()
        self._next_id = 0
        self._reset()

    def _reset(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._depth[name] += 1
        self._stack.append([name, perf_counter(), 0.0, self._next_id])

    def end(self) -> None:
        t = perf_counter()
        name, start, child_s, span_id = self._stack.pop()
        dur = t - start
        self.self_s[name] += dur - child_s
        self.calls[name] += 1
        self._depth[name] -= 1
        if not self._depth[name]:
            # outermost span of its layer: nested same-layer spans are
            # already inside this interval
            self.incl_s[name] += dur
        parent = None
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][3]
        if self.op < self.KEEP_OPS:
            self.events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - self._t0) * 1e6, "dur": dur * 1e6,
                "pid": 1, "tid": 1,
                "args": {"op": self.op, "id": span_id, "parent": parent},
            })

    def take(self) -> "OpTrace":
        """Close the current op's accounting and start the next op."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        out = OpTrace(dict(self.self_s), dict(self.incl_s),
                      dict(self.calls), dict(self.counts))
        self._reset()
        self.op += 1
        return out

    def write_chrome(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"traceEvents": self.events, "displayTimeUnit": "ms",
               "otherData": meta}
        path.write_text(json.dumps(doc))


@dataclass
class OpTrace:
    """One traced op: per-layer self and inclusive seconds, span counts
    per layer and the named counters the probes read."""

    self_s: dict[str, float]
    incl_s: dict[str, float]
    calls: dict[str, int]
    counts: dict[str, float]


# -- counters read at the layer boundaries ---------------------------------

def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _count_gemm(counts: Counter, m: int, nv: int, pairs: int, k: int) -> None:
    """Computed (not measured) work of a Gram block step, assuming every
    pair rotates: Gram form ``2 k^2 m`` plus applies ``2 k^2 (m + nv)``
    flops per pair; each pair's ``k`` data and ``V`` columns are read
    and written once."""
    counts["block.gemm_flop"] += 2 * k * k * (2 * m + nv) * pairs
    counts["block.bytes"] += 16 * k * (m + nv) * pairs


def count_solve_step(counts, args, kwargs, out) -> None:
    X = _arg(args, kwargs, 0, "X")
    V = _arg(args, kwargs, 1, "V")
    pair_cols = _arg(args, kwargs, 2, "pair_cols")
    if len(pair_cols):
        _count_gemm(counts, X.shape[0], 0 if V is None else V.shape[0],
                    len(pair_cols), len(pair_cols[0]))


def count_solve_step_batch(counts, args, kwargs, out) -> None:
    Xs = _arg(args, kwargs, 0, "Xs")
    Vs = _arg(args, kwargs, 1, "Vs")
    items = _arg(args, kwargs, 2, "items")
    pair_cols = _arg(args, kwargs, 3, "pair_cols")
    if len(pair_cols):
        _count_gemm(counts, Xs.shape[1], 0 if Vs is None else Vs.shape[1],
                    len(items) * len(pair_cols), len(pair_cols[0]))


def count_fastpath_step(counts, args, kwargs, out) -> None:
    XT = _arg(args, kwargs, 0, "XT")
    VT = _arg(args, kwargs, 1, "VT")
    cols = _arg(args, kwargs, 3, "cols_arr")
    nb, k = len(cols), len(cols[0])
    _count_gemm(counts, XT.shape[1], 0 if VT is None else VT.shape[1], nb, k)


def count_pivot(counts, args, kwargs, out) -> None:
    """``gram_eigh_batched`` / ``_grouped`` return ``(W, rotations,
    sweeps, converged)``; the grouped form returns per-group arrays, so
    inner sweeps add up over groups."""
    g = _arg(args, kwargs, 0, "g")
    _, rotations, sweeps, _ = out
    counts["pivot.matrices"] += int(g.shape[0])
    counts["pivot.rotations"] += _total(rotations)
    counts["pivot.inner_sweeps"] += _total(sweeps)


def _total(x) -> int:
    """Sum of a per-group array, or the scalar itself."""
    return int(x.sum()) if hasattr(x, "sum") else int(x)


def count_rotations(counts, args, kwargs, out) -> None:
    stats = out[0]
    counts["rotations.applied"] += stats.applied
    counts["rotations.skipped"] += stats.skipped


def count_machine(counts, args, kwargs, out) -> None:
    path = getattr(args[0], "last_sweep_path", None)
    counts[f"machine.{path}_sweeps"] += 1


@dataclass(frozen=True)
class Probe:
    layer: str
    sites: tuple[tuple[str, str], ...]
    count: Callable | None = None
    #: per-site counter overriding ``count`` (keyed by attribute)
    site_count: dict = field(default_factory=dict)


_ROTATION_SITES = tuple(
    (module, fn)
    for module in ("repro.svd.rotations", "repro.svd.hestenes",
                   "repro.machine.simulator", "repro.blockjacobi.kernel")
    for fn in ("apply_step_rotations", "apply_step_rotations_batched"))

PROBES: tuple[Probe, ...] = (
    Probe("orderings", (("repro.orderings.base", "Ordering.sweep"),)),
    Probe("plan", (("repro.orderings.plan", "compile_schedule"),
                   ("repro.blockjacobi.driver", "compile_schedule"),
                   ("repro.machine.simulator", "compile_schedule"))),
    Probe("block.driver", (
        ("repro.core.api", "block_jacobi_svd"),
        ("repro.core.api", "block_jacobi_svd_batch"),
        ("repro.blockjacobi.driver", "block_jacobi_svd"),
        ("repro.blockjacobi.driver", "block_jacobi_svd_batch"))),
    Probe("block.step", (
        ("repro.blockjacobi.driver", "solve_block_step"),
        ("repro.blockjacobi.driver", "solve_block_step_batch"),
        ("repro.blockjacobi.kernel", "solve_block_step"),
        ("repro.blockjacobi.kernel", "solve_block_step_batch"),
        ("repro.blockjacobi.kernel", "fastpath_gram_step")),
        site_count={"solve_block_step": count_solve_step,
                    "solve_block_step_batch": count_solve_step_batch,
                    "fastpath_gram_step": count_fastpath_step}),
    Probe("pivot", (("repro.blockjacobi.kernel", "gram_eigh_batched"),
                    ("repro.blockjacobi.kernel", "gram_eigh_grouped"),
                    ("repro.eig.jacobi", "gram_eigh_batched"),
                    ("repro.eig.jacobi", "gram_eigh_grouped")),
          count=count_pivot),
    Probe("rotations", _ROTATION_SITES, count=count_rotations),
    Probe("convergence", (("repro.svd.convergence", "off_norm"),
                          ("repro.blockjacobi.driver", "off_norm"),
                          ("repro.parallel.driver", "off_norm"),
                          ("repro.svd.hestenes", "off_norm"))),
    Probe("machine", (("repro.machine.simulator", "TreeMachine.run_sweep"),),
          count=count_machine),
    Probe("routing", (("repro.machine.routing", "route_moves"),
                      ("repro.machine.simulator", "route_moves"))),
    Probe("parallel", (("repro.parallel.driver",
                        "ParallelJacobiSVD.compute"),)),
    Probe("pad", (("repro.core.api", "pad_columns"),
                  ("repro.core.api", "strip_padding"),
                  ("repro.parallel.distribution", "pad_columns"),
                  ("repro.parallel.distribution", "strip_padding"))),
)

#: read-only binding of the plan-cache counters (not wrapped)
PLAN_STATS_SITE = ("repro.orderings.plan", "plan_cache_stats")


def resolve(module_name: str, attr: str):
    """``(owner, name, original)`` of a binding site, or ``None`` when
    the module or attribute does not exist in this build."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    if fn is None or not callable(fn):
        return None
    return owner, name, fn


def _wrap(fn, layer: str, tracer: Tracer, count: Callable | None):
    begin, end = tracer.begin, tracer.end

    def wrapper(*args, **kwargs):
        begin(layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            end()
        if count is not None:
            count(tracer.counts, args, kwargs, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


class Installed:
    """The probe table bound to one :class:`Tracer`; ``install()`` and
    ``uninstall()`` switch the wrappers on and off between ops."""

    def __init__(self, tracer: Tracer,
                 probes: tuple[Probe, ...] | None = None):
        if probes is None:
            probes = PROBES
        self.tracer = tracer
        self.bound: list[str] = []
        self.unbound: list[str] = []
        self.layers: set[str] = set()
        self._patches: list[tuple[object, str, object, object, bool]] = []
        for probe in probes:
            for module_name, attr in probe.sites:
                site = f"{module_name}:{attr}"
                found = resolve(module_name, attr)
                if found is None:
                    self.unbound.append(site)
                    continue
                owner, name, fn = found
                count = probe.site_count.get(name, probe.count)
                # a method inherited by the named class is restored by
                # deleting the patch, so the MRO finds it again
                own = name in vars(owner)
                original = vars(owner)[name] if own else fn
                self._patches.append(
                    (owner, name, original,
                     _wrap(fn, probe.layer, tracer, count), own))
                self.bound.append(site)
                self.layers.add(probe.layer)
        found = resolve(*PLAN_STATS_SITE)
        self.plan_stats = found[2] if found is not None else None
        if self.plan_stats is None:
            self.unbound.append(":".join(PLAN_STATS_SITE))

    def install(self) -> None:
        for owner, name, _, wrapper, _ in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _, own in reversed(self._patches):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
