"""Persisted tuned profiles (``PROFILE_<host>.json``).

A profile is the durable output of :func:`repro.tune.tune`: per target
shape, the winning configuration plus the measurements that justify it.
Files are schema-versioned (:data:`SCHEMA`) and validated on load — a
profile written by an incompatible harness is rejected with the reason,
never silently half-applied, because a stale profile that *parses* but
means something different is exactly how a tuner quietly pessimises a
run.

Shape lookup is nearest-match, not exact-match: a profile tuned at
``n=512`` should still help an ``n=480`` call.  The distance is
log-scale over ``(m, n, batch)`` — configuration choice tracks orders
of magnitude, not absolute element counts — and exact hits win
outright.  ``svd()`` / ``svd_batch()`` / ``parallel_svd()`` consume
profiles through ``profile=`` or ``$REPRO_PROFILE`` and fill only the
knobs the caller left unset (:mod:`repro.core.api`).
"""

from __future__ import annotations

import json
import math
import platform
import re
from pathlib import Path
from typing import Mapping

from ..util.validation import require
from .runner import TuneResult

__all__ = [
    "SCHEMA",
    "default_host",
    "load_profile",
    "lookup_entry",
    "profile_entry",
    "profile_options",
    "profile_path",
    "save_profile",
    "validate_profile",
]

#: profile schema tag; bump on any change of meaning, not just of shape
SCHEMA = "repro.tune/2"

#: the three knobs a profile entry may fill (the knobs of ``svd()``)
_OPTION_KEYS = ("ordering", "kernel", "block_size")


def default_host() -> str:
    """Host tag for the profile filename: the node name sanitised to
    filename-safe characters, ``local`` when the platform reports none."""
    node = re.sub(r"[^A-Za-z0-9._-]", "-", platform.node()).strip("-.")
    return node or "local"


def profile_path(directory: "str | Path" = ".",
                 host: str | None = None) -> Path:
    """``<directory>/PROFILE_<host>.json`` (the conventional location)."""
    tag = default_host() if host is None else host
    require(re.fullmatch(r"[A-Za-z0-9._-]+", tag) is not None,
            f"host tag must be filename-safe, got {tag!r}")
    return Path(directory) / f"PROFILE_{tag}.json"


def profile_entry(result: TuneResult) -> dict:
    """One profile entry (JSON-able) from a tune result."""
    return {
        "m": result.m,
        "n": result.n,
        "batch": result.batch,
        "options": result.winner.options_dict(),
        "median_s": result.winner_median_s,
        "default_median_s": result.default_median_s,
        "speedup": result.speedup,
        "repeats": result.repeats_final,
        "quick": result.quick,
    }


def validate_profile(data: object) -> dict:
    """Reject anything that is not a current-schema profile.

    Returns the (unmodified) mapping on success; raises ``ValueError``
    naming what is wrong — in particular a stale or foreign ``schema``
    tag, so an old profile surfaces as an explicit re-tune request.
    """
    require(isinstance(data, Mapping),
            f"profile must be a JSON object, got {type(data).__name__}")
    schema = data.get("schema")
    require(schema == SCHEMA,
            f"profile schema {schema!r} is not {SCHEMA!r}; re-run "
            "`repro-harness tune` to regenerate the profile")
    entries = data.get("entries")
    require(isinstance(entries, list),
            "profile has no 'entries' list")
    for i, entry in enumerate(entries):
        require(isinstance(entry, Mapping), f"entries[{i}] is not an object")
        for key in ("m", "n"):
            require(isinstance(entry.get(key), int) and entry[key] >= 2,
                    f"entries[{i}].{key} must be an int >= 2")
        batch = entry.get("batch")
        require(batch is None or (isinstance(batch, int) and batch >= 1),
                f"entries[{i}].batch must be null or an int >= 1")
        options = entry.get("options")
        require(isinstance(options, Mapping),
                f"entries[{i}].options is not an object")
        unknown = set(options) - set(_OPTION_KEYS)
        require(not unknown,
                f"entries[{i}].options has unknown knobs {sorted(unknown)}")
    return dict(data)


def load_profile(source: "str | Path | Mapping") -> dict:
    """Load and validate a profile from a path (or pass a mapping
    through validation)."""
    if isinstance(source, Mapping):
        return validate_profile(source)
    path = Path(source)
    require(path.is_file(), f"profile file not found: {path}")
    with path.open("r", encoding="utf-8") as fh:
        return validate_profile(json.load(fh))


def save_profile(result: TuneResult, path: "str | Path",
                 host: str | None = None) -> dict:
    """Write (or merge into) the profile at ``path``; returns the data.

    An existing profile at ``path`` is loaded and validated first — its
    entries for *other* shapes are kept, the entry for this shape is
    replaced — so one file accumulates the host's tuned shapes.  A
    stale-schema file on disk is an error, not an overwrite target:
    refusing to clobber it keeps whatever workflow still reads it
    honest.
    """
    path = Path(path)
    if path.exists():
        data = load_profile(path)
    else:
        data = {"schema": SCHEMA,
                "host": default_host() if host is None else host,
                "entries": []}
    key = (result.m, result.n, result.batch)
    entries = [e for e in data["entries"]
               if (e["m"], e["n"], e.get("batch")) != key]
    entries.append(profile_entry(result))
    entries.sort(key=lambda e: (e["n"], e["m"], e.get("batch") or 0))
    data["entries"] = entries
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return data


def _distance(entry: Mapping, m: int, n: int, batch: int | None) -> float:
    """Log-scale shape distance (0.0 iff exact)."""
    d = abs(math.log(entry["n"] / n)) + abs(math.log(entry["m"] / m))
    eb = entry.get("batch") or 1
    qb = batch or 1
    d += abs(math.log(eb / qb))
    return d


def lookup_entry(profile: "Mapping | str | Path", m: int, n: int,
                 batch: int | None = None) -> dict | None:
    """Nearest profile entry for a shape (``None`` on an empty profile).

    Exact shape matches win; otherwise the entry with the smallest
    log-scale distance over ``(m, n, batch)``, ties resolved by entry
    order (the file is kept sorted, so smaller shapes win ties).
    """
    data = load_profile(profile)
    entries = data["entries"]
    if not entries:
        return None
    best = min(range(len(entries)),
               key=lambda i: (_distance(entries[i], m, n, batch), i))
    return dict(entries[best])


def profile_options(profile: "Mapping | str | Path", m: int, n: int,
                    batch: int | None = None) -> dict:
    """The three option knobs of the nearest entry (empty dict if none).

    The result always carries every key of ``svd()``'s knob set with
    explicit ``None`` for unset ones — callers fill, they never guess.
    """
    entry = lookup_entry(profile, m, n, batch)
    if entry is None:
        return {}
    return {key: entry["options"].get(key) for key in _OPTION_KEYS}
