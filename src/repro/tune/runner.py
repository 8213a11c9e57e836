"""Successive-halving search over the candidate space.

The tuner is a bracketed elimination race: every surviving candidate is
timed with the bench harness' median-of-k discipline
(:func:`repro.bench.timing.time_callable`), the slower half is dropped,
and the repeat count rises for the survivors — cheap one-shot timings
weed out the clearly bad configurations, the finalists get the careful
medians.  Ties and near-ties resolve by candidate order, which makes
the whole search deterministic for a deterministic timer; the unit
tests exploit that with a fake timer to pin the pruning order exactly.

The timing function is injectable (``timer(candidate, m, n, batch,
repeats) -> seconds``) so tests never pay wall-clock; the default timer
runs the real :func:`repro.svd` / :func:`repro.svd_batch` on one fixed
Gaussian matrix per shape.  The default configuration always finishes
the race with a final-round-quality timing — even when eliminated
early it is re-timed at the final repeat count — so the persisted
profile can honestly state the speedup it claims over the default.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..bench.timing import time_callable
from ..util.errors import ConvergenceWarning
from ..util.validation import require
from .space import Candidate, DEFAULT_CANDIDATE, candidate_space

__all__ = ["Trial", "TuneResult", "default_timer", "tune"]

#: repeat counts per elimination round (median-of-k discipline)
REPEATS_SCHEDULE = (1, 3, 5)
REPEATS_SCHEDULE_QUICK = (1, 3)

#: deterministic data seed shared with the bench scenarios
_SEED = 2024


@dataclass(frozen=True)
class Trial:
    """One timing of one candidate in one elimination round."""

    round_index: int
    candidate: Candidate
    repeats: int
    median_s: float
    kept: bool


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one :func:`tune` search.

    ``winner_median_s`` and ``default_median_s`` are measured at the
    same (final-round) repeat count, so ``speedup`` is an
    apples-to-apples claim about this host and shape.
    """

    m: int
    n: int
    batch: int | None
    winner: Candidate
    winner_median_s: float
    default_median_s: float
    repeats_final: int
    quick: bool
    trials: tuple[Trial, ...] = field(default_factory=tuple)
    candidates: tuple[Candidate, ...] = field(default_factory=tuple)

    @property
    def speedup(self) -> float:
        """Default-over-winner time ratio (> 1 means the tuned
        configuration beats the default)."""
        if self.winner_median_s <= 0:
            return float("inf")
        return self.default_median_s / self.winner_median_s


def default_timer(candidate: Candidate, m: int, n: int,
                  batch: int | None, repeats: int) -> float:
    """Median wall time of the real entry point under ``candidate``.

    One fixed Gaussian problem per shape (bench seed), full runs to
    convergence — the quantity a user of ``svd()`` actually waits for.
    Convergence warnings are suppressed: a candidate that fails to
    converge still gets an honest (large) time, not a crash.
    """
    from ..core.api import svd, svd_batch

    rng = np.random.default_rng(_SEED)
    kw = candidate.call_kwargs()
    if batch is None:
        a = rng.standard_normal((m, n))

        def work() -> None:
            svd(a, **kw)
    else:
        stack = rng.standard_normal((batch, m, n))

        def work() -> None:
            svd_batch(stack, **kw)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return time_callable(work, repeats=repeats, warmup=1).median_s


def tune(m: int, n: int, batch: int | None = None, *,
         quick: bool = False,
         candidates: Sequence[Candidate] | None = None,
         timer: Callable[[Candidate, int, int, int | None, int], float]
         | None = None,
         repeats_schedule: Sequence[int] | None = None,
         log: Callable[[str], None] | None = None) -> TuneResult:
    """Search the candidate space for the fastest configuration.

    Successive halving: round ``r`` times every survivor with
    ``repeats_schedule[r]`` repeats, sorts by median (stable — ties keep
    candidate order) and keeps the faster half, at least one.  The last
    round crowns the winner.  ``timer`` defaults to the real-run
    :func:`default_timer`; tests inject a deterministic fake.
    """
    pool = tuple(candidates) if candidates is not None else \
        candidate_space(m, n, batch, quick=quick)
    require(len(pool) >= 1, "tune needs at least one candidate")
    schedule = tuple(repeats_schedule) if repeats_schedule is not None else \
        (REPEATS_SCHEDULE_QUICK if quick else REPEATS_SCHEDULE)
    require(len(schedule) >= 1 and all(r >= 1 for r in schedule),
            f"repeats_schedule must be positive counts, got {schedule!r}")
    clock = default_timer if timer is None else timer
    say = (lambda _msg: None) if log is None else log

    survivors = list(pool)
    trials: list[Trial] = []
    final_medians: dict[Candidate, float] = {}
    for round_index, repeats in enumerate(schedule):
        timed = [(clock(c, m, n, batch, repeats), c) for c in survivors]
        order = sorted(range(len(timed)), key=lambda i: timed[i][0])
        last_round = round_index == len(schedule) - 1
        n_keep = 1 if last_round else max(1, (len(survivors) + 1) // 2)
        kept_idx = set(order[:n_keep])
        for i, (median_s, cand) in enumerate(timed):
            trials.append(Trial(round_index=round_index, candidate=cand,
                                repeats=repeats, median_s=median_s,
                                kept=i in kept_idx))
            say(f"round {round_index}: {cand.label()} "
                f"{median_s * 1e3:.2f} ms ({repeats}x)"
                f"{'' if i in kept_idx else '  [pruned]'}")
        if last_round:
            final_medians = {timed[i][1]: timed[i][0] for i in order}
        survivors = [timed[i][1] for i in order[:n_keep]]

    winner = survivors[0]
    winner_median_s = final_medians[winner]
    default_median_s = final_medians.get(DEFAULT_CANDIDATE)
    if default_median_s is None:
        # pruned before the final round: re-time at final quality so the
        # profile's speedup claim compares equal repeat counts
        default_median_s = clock(DEFAULT_CANDIDATE, m, n, batch, schedule[-1])
        trials.append(Trial(round_index=len(schedule) - 1,
                            candidate=DEFAULT_CANDIDATE,
                            repeats=schedule[-1],
                            median_s=default_median_s, kept=False))
        say(f"default re-timed: {DEFAULT_CANDIDATE.label()} "
            f"{default_median_s * 1e3:.2f} ms ({schedule[-1]}x)")
    say(f"winner: {winner.label()} "
        f"({default_median_s / max(winner_median_s, 1e-12):.2f}x vs default)")
    return TuneResult(
        m=m, n=n, batch=batch, winner=winner,
        winner_median_s=winner_median_s,
        default_median_s=default_median_s,
        repeats_final=schedule[-1], quick=quick,
        trials=tuple(trials), candidates=pool,
    )
