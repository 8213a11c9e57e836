"""Tests of the benchmark itself (tiny inputs, sub-second loops).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from svdbench import ledger, probes, runner, speed
from svdbench.env import ROOT
from svdbench.workloads import WORKLOADS

SELF_TIMES = ("api.self_s", "orderings.sweep_s", "plan.compile_s",
              "block.form_apply_s", "block.driver_self_s", "pivot.s",
              "rotations.s", "convergence.s", "machine.self_s", "routing.s",
              "parallel.self_s", "pad.s")
EXACT_COUNTS = ("solver.sweeps", "solver.rotations", "pivot.matrices",
                "pivot.inner_sweeps", "plan.hits", "plan.misses",
                "plan.hit_ratio", "model.total_time", "model.compute_time",
                "model.comm_time", "model.max_contention", "model.messages")


def tiny(name: str, seed: int = 5, trace: bool = False, **kw):
    kw.setdefault("setup_probes", 0)
    return runner.run(name, seed, 0.2, trace, scale="tiny", **kw)


def values(result: dict) -> dict[str, float]:
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_every_workload(name, trace):
    result, info = tiny(name, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["failures"]
    assert result["attempted"] >= 1
    table = runner.PER_LAYER if trace else runner.END_TO_END
    assert set(result["metrics"]) == {row[0] for row in table}
    units = {row[0]: row[1] for row in table}
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key]
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(v > 0 for v in values(result).values())
        assert set(info["wall"]) == {name for name, _ in runner.WALL}
        assert all(v["value"] > 0 for v in info["wall"].values())


def test_setup_probe_in_fresh_process():
    result, info = tiny("square", setup_probes=2)
    assert len(info["setup_samples"]) == 3
    assert all(s > 0 for s in info["setup_samples"])
    assert result["metrics"]["setup_s"]["value"] > 0
    for s, wall, ref in zip(info["setup_samples"], info["setup_wall_s"],
                            info["setup_reference_s"]):
        assert s == pytest.approx(speed.at_nominal_speed(wall, ref),
                                  rel=1e-4)


def test_setup_at_nominal_speed_follows_the_reference():
    assert speed.at_nominal_speed(0.5, speed.NOMINAL_S) == 0.5
    # a host twice as slow takes twice as long for both
    assert speed.at_nominal_speed(1.0, 2 * speed.NOMINAL_S) == 0.5
    assert speed.reference_seconds() > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_partition_the_traced_call(name):
    m = values(tiny(name, trace=True)[0])
    assert all(m[k] >= -1e-12 for k in SELF_TIMES)
    assert sum(m[k] for k in SELF_TIMES) == pytest.approx(m["trace.call_s"],
                                                          rel=1e-9)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(name):
    a = values(tiny(name, seed=9, trace=True)[0])
    b = values(tiny(name, seed=9, trace=True)[0])
    for key in EXACT_COUNTS:
        assert a[key] == b[key], key


def test_another_seed_changes_inputs_not_metric_names():
    w = WORKLOADS["square"]
    assert not np.array_equal(w.make_input(1, 0, "tiny"),
                              w.make_input(2, 0, "tiny"))
    assert np.array_equal(w.make_input(1, 3, "tiny"),
                          w.make_input(1, 3, "tiny"))
    for trace in (False, True):
        one, _ = tiny("square", seed=1, trace=trace)
        two, _ = tiny("square", seed=2, trace=trace)
        assert set(one["metrics"]) == set(two["metrics"])


def test_pool_balances_the_input_classes():
    w = WORKLOADS["tall-skinny"]
    spectral = w.make_input(0, 1, "full")
    s = np.linalg.svd(spectral, compute_uv=False)
    assert s[0] == pytest.approx(1.0) and s[-1] == pytest.approx(1e-4)
    assert runner._units(w) == [(0, 1), (2, 3), (4, 5), (6, 7)]


def test_trace_prediction_shares():
    """The dominant layers the benchmark documents, at tiny size: the
    scalar simulator runs no pivot solve, the block kernels no scalar
    rotations."""
    cm5 = values(tiny("cm5-scalar", trace=True)[0])
    assert cm5["pivot.calls"] == 0 and cm5["rotations.calls"] > 0
    assert cm5["machine.fast_sweeps"] == cm5["solver.sweeps"]
    assert cm5["model.total_time"] > 0
    square = values(tiny("square", trace=True)[0])
    assert square["rotations.calls"] == 0 and square["pivot.calls"] > 0
    assert square["model.total_time"] == 0


def test_chrome_trace_file(tmp_path):
    _, info = tiny("square", trace=True, trace_dir=tmp_path)
    doc = json.loads((tmp_path / "trace-square-seed5.json").read_text())
    events = doc["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)
    roots = [e for e in events if e["name"] == probes.ROOT_SPAN]
    assert roots and all(e["args"]["parent"] is None for e in roots)
    ids = {e["args"]["id"] for e in events}
    assert all(e["args"]["parent"] in ids for e in events
               if e["args"]["parent"] is not None)


def test_tracer_self_time_subtracts_children():
    tr = probes.Tracer()
    tr.begin("api")
    tr.begin("block.step")
    tr.begin("pivot")
    tr.end()
    tr.end()
    tr.begin("pivot")
    tr.end()
    tr.end()
    op = tr.take()
    assert op.calls == {"api": 1, "block.step": 1, "pivot": 2}
    assert sum(op.self_s.values()) == pytest.approx(op.incl_s["api"],
                                                    rel=1e-12)
    assert op.incl_s["block.step"] >= op.self_s["block.step"] >= 0


def test_missing_sites_are_unbound_not_errors():
    table = (probes.Probe("pivot", (("repro.no_such_module", "f"),
                                    ("repro.blockjacobi.kernel", "gone"),
                                    ("repro.orderings.base", "Nope.sweep"))),)
    inst = probes.Installed(probes.Tracer(), table)
    assert inst.bound == [] and len(inst.unbound) == 3
    assert inst.layers == set()
    inst.install()
    inst.uninstall()


def test_unbound_layer_drops_its_metrics(monkeypatch):
    kept = tuple(p for p in probes.PROBES if p.layer != "pivot")
    monkeypatch.setattr(probes, "PROBES", kept)
    result, info = tiny("square", trace=True)
    names = set(result["metrics"])
    assert not any(n.startswith("pivot.") for n in names)
    assert "block.step_s" in names and result["failed"] == 0


def test_uninstall_restores_every_binding():
    import repro.core.api as api
    from repro.orderings.base import Ordering

    before_fn = api.block_jacobi_svd
    before_sweep = vars(Ordering)["sweep"]
    inst = probes.Installed(probes.Tracer())
    inst.install()
    assert api.block_jacobi_svd is not before_fn
    inst.uninstall()
    assert api.block_jacobi_svd is before_fn
    assert vars(Ordering)["sweep"] is before_sweep


def test_golden_ledger_holds_at_the_default_seed():
    w = WORKLOADS[ledger.GOLDEN_WORKLOAD]
    loop = runner.Loop(w, ledger.GOLDEN_SEED, "full",
                       runner._import_repro(), trace=False)
    assert loop.golden is not None and len(loop.golden) == w.pool
    call = loop.call(1, traced=False)
    assert call is not None and loop.tally.failed == 0
    assert call.model["model.total_time"] == loop.golden[1]["model.total_time"]


@pytest.mark.parametrize("key", ["model.total_time", "model.messages",
                                 "solver.sweeps"])
def test_perturbed_golden_entry_is_caught(key):
    """Negative test of the golden check: one entry moved by the
    smallest amount its type allows must fail the op."""
    w = WORKLOADS[ledger.GOLDEN_WORKLOAD]
    loop = runner.Loop(w, ledger.GOLDEN_SEED, "full",
                       runner._import_repro(), trace=False)
    value = loop.golden[0][key]
    loop.golden[0][key] = (float(np.nextafter(value, np.inf))
                           if isinstance(value, float) else value + 1)
    assert loop.call(0, traced=False) is None
    assert loop.tally.failed == 1
    assert "golden ledger: " + key in loop.tally.messages[0]
    # the unperturbed entries still pass
    assert loop.call(2, traced=False) is not None


def test_a_wrong_answer_is_a_failed_op(monkeypatch):
    w = WORKLOADS["square"]
    loop = runner.Loop(w, 1, "tiny", runner._import_repro(), trace=False)
    real = w.call

    def corrupt(repro, x, scale):
        results, report = real(repro, x, scale)
        results[0].sigma = results[0].sigma * (1 + 1e-6)
        return results, report

    monkeypatch.setattr(type(w), "call", lambda self, *a: corrupt(*a))
    assert loop.call(0, traced=False) is None
    assert "sigma error" in loop.tally.messages[0]


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(runner.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [row[:3] for row in runner.PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] \
        == [w.why for w in WORKLOADS.values()]
