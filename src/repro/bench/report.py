"""Schema-versioned benchmark reports and the regression comparator.

A report is a plain JSON document (``BENCH_<tag>.json``)::

    {
      "schema": "repro.bench/1",
      "tag": "local",
      "created_unix": 1730000000.0,
      "repeats": 5, "warmup": 1, "quick": false,
      "python": "3.11.7", "numpy": "1.26.4", "platform": "x86_64",
      "scenarios": [
        {
          "name": "svd/batched/fat_tree/n64",
          "kind": "svd-kernel",
          "params": {...},
          "reference": "svd/reference/fat_tree/n64",
          "wall_time_s": 0.031,
          "times_s": [...],
          "meta": {"sweeps": 10, "rotations": 2964, "converged": true},
          "speedup_vs_reference": 2.9
        }, ...
      ]
    }

``compare_reports`` matches scenarios of two reports by name and flags
every one whose median wall time regressed by more than the allowed
fraction — the CI contract behind ``repro-harness bench --compare``.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Any

__all__ = [
    "SCHEMA",
    "build_report",
    "compare_reports",
    "load_report",
    "render_report",
    "validate_report",
    "write_report",
]

SCHEMA = "repro.bench/1"


def build_report(
    tag: str,
    records: list[dict[str, Any]],
    repeats: int,
    warmup: int,
    quick: bool = False,
    blas_threads: int | None = None,
) -> dict[str, Any]:
    """Assemble the report document, deriving speedups from baselines.

    ``blas_threads`` records the pinned BLAS pool size (``None`` = no
    controllable pool found, i.e. the run was *not* pinned) so a reader
    can tell a code speedup from a floating BLAS thread count.
    """
    import os

    import numpy

    by_name = {r["name"]: r for r in records}
    for r in records:
        ref = r.get("reference")
        if ref and ref in by_name and r["wall_time_s"] > 0:
            r["speedup_vs_reference"] = by_name[ref]["wall_time_s"] / r["wall_time_s"]
    return {
        "schema": SCHEMA,
        "tag": tag,
        "created_unix": time.time(),
        "repeats": repeats,
        "warmup": warmup,
        "quick": quick,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.machine(),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads,
        "scenarios": records,
    }


def validate_report(doc: Any) -> list[str]:
    """Structural validation; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["report is not a JSON object"]
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    if not isinstance(doc.get("tag"), str) or not doc.get("tag"):
        errors.append("tag must be a non-empty string")
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        errors.append("scenarios must be a non-empty list")
        return errors
    seen: set[str] = set()
    for i, rec in enumerate(scenarios):
        where = f"scenarios[{i}]"
        if not isinstance(rec, dict):
            errors.append(f"{where} is not an object")
            continue
        name = rec.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}.name must be a non-empty string")
        elif name in seen:
            errors.append(f"{where}.name {name!r} is duplicated")
        else:
            seen.add(name)
        wall = rec.get("wall_time_s")
        if not isinstance(wall, (int, float)) or wall <= 0:
            errors.append(f"{where}.wall_time_s must be a positive number")
        times = rec.get("times_s")
        if (
            not isinstance(times, list)
            or not times
            or not all(isinstance(t, (int, float)) and t > 0 for t in times)
        ):
            errors.append(f"{where}.times_s must be a non-empty list of positives")
    return errors


def compare_reports(
    old: dict[str, Any], new: dict[str, Any], max_slowdown: float = 0.20
) -> tuple[list[dict[str, Any]], list[str]]:
    """Flag scenarios slower than ``old`` by more than ``max_slowdown``.

    Returns ``(regressions, compared_names)``; scenarios present in only
    one report are skipped (quick and full runs share no sizes, so a
    mismatched compare degrades to a no-op rather than a false alarm).
    """
    old_by = {r["name"]: r for r in old.get("scenarios", [])}
    regressions: list[dict[str, Any]] = []
    compared: list[str] = []
    for rec in new.get("scenarios", []):
        prev = old_by.get(rec["name"])
        if prev is None:
            continue
        compared.append(rec["name"])
        old_t = float(prev["wall_time_s"])
        new_t = float(rec["wall_time_s"])
        if new_t > old_t * (1.0 + max_slowdown):
            regressions.append(
                {
                    "name": rec["name"],
                    "old_wall_time_s": old_t,
                    "new_wall_time_s": new_t,
                    "ratio": new_t / old_t if old_t > 0 else float("inf"),
                }
            )
    return regressions, compared


def render_report(doc: dict[str, Any]) -> str:
    """Human-readable table of one report."""
    lines = [
        f"benchmark report tag={doc['tag']} "
        f"(repeats={doc['repeats']}, warmup={doc['warmup']}"
        f"{', quick' if doc.get('quick') else ''})"
    ]
    width = max(len(r["name"]) for r in doc["scenarios"])
    for rec in doc["scenarios"]:
        extra = ""
        if "speedup_vs_reference" in rec:
            extra = f"  speedup {rec['speedup_vs_reference']:.2f}x"
        sweeps = rec["meta"].get("sweeps")
        if sweeps is not None:
            extra += f"  sweeps {sweeps}"
        lines.append(
            f"  {rec['name']:<{width}}  {rec['wall_time_s'] * 1e3:9.3f} ms{extra}"
        )
    return "\n".join(lines)


def write_report(doc: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_report(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
