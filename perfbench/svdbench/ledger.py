"""The model-time ledger of the simulated machine and its golden copy.

The paper's own quantity is *model time* on the simulated tree machine.
It is a pure function of the input, the ordering, the topology and the
cost model, so no wall-clock change may move it.  The golden file pins
the ``cm5-scalar`` ledger of every pool input at :data:`GOLDEN_SEED`,
full scale; any mismatch, to the last bit, fails the op.  Regenerate it
with ``python3 perfbench/run.py --write-golden`` only when a change is
meant to alter the model (and say so).
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_SEED = 0
GOLDEN_WORKLOAD = "cm5-scalar"
GOLDEN_PATH = Path(__file__).with_name("golden_cm5_scalar.json")

MODEL_KEYS = ("model.total_time", "model.compute_time", "model.comm_time",
              "model.max_contention", "model.messages")
LEDGER_KEYS = MODEL_KEYS + ("solver.sweeps",)


def ledger(results: list, report) -> dict:
    """Model ledger of one ``parallel_svd`` call."""
    return {
        "model.total_time": report.total_time,
        "model.compute_time": report.compute_time,
        "model.comm_time": report.comm_time,
        "model.max_contention": report.max_contention,
        "model.messages": sum(sum(step.messages for step in s.steps)
                              for s in report.sweep_stats),
        "solver.sweeps": results[0].sweeps,
    }


def mismatches(got: dict, want: dict) -> list[str]:
    """Keys whose values differ (exact comparison; ``repr`` shows every
    digit of a float)."""
    return [f"{key}: got {got.get(key)!r}, golden {want.get(key)!r}"
            for key in LEDGER_KEYS if got.get(key) != want.get(key)]


def load_golden() -> dict[int, dict]:
    """``{pool index: ledger}``; JSON floats round-trip exactly."""
    doc = json.loads(GOLDEN_PATH.read_text())
    return {int(e["index"]): {k: e[k] for k in LEDGER_KEYS}
            for e in doc["entries"]}


def write_golden(entries: dict[int, dict]) -> None:
    doc = {
        "workload": GOLDEN_WORKLOAD, "seed": GOLDEN_SEED, "scale": "full",
        "entries": [{"index": i, **entries[i]} for i in sorted(entries)],
    }
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n")
