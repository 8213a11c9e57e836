"""Name-based ordering registry used by the public API and the harness.

:func:`make_ordering` always builds a fresh instance (the verifier, the
analysis tables and the fault campaign rely on that).  The solver
drivers go through :func:`shared_ordering` instead: one instance per
``(name, n, kwargs)`` for the whole process, so a repeat call reuses the
ordering's cached :class:`~repro.orderings.schedule.Schedule` objects —
no schedule rebuild, and the compiled plan is found on the schedule
instance without fingerprinting it.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

from .base import Ordering
from .fattree import FatTreeOrdering
from .hybrid import HybridOrdering
from .llb import LLBOrdering
from .oddeven import OddEvenOrdering
from .ringnew import RingOrdering
from .roundrobin import RoundRobinOrdering

__all__ = ["ORDERINGS", "make_ordering", "ordering_names", "shared_ordering"]


def _fixed(name: str, build: Callable[[int], Ordering]) -> Callable[..., Ordering]:
    """Factory of an ordering without constructor options: any keyword
    is a caller mistake (a typo such as ``blocksize=``, or a removed
    option), so it raises instead of being dropped."""
    def factory(n: int, **kw: object) -> Ordering:
        if kw:
            raise TypeError(f"ordering {name!r} takes no keyword arguments; "
                            f"got {', '.join(sorted(kw))}")
        return build(n)
    return factory


ORDERINGS: dict[str, Callable[..., Ordering]] = {
    "round_robin": _fixed("round_robin", RoundRobinOrdering),
    "odd_even": _fixed("odd_even", OddEvenOrdering),
    "ring_new": _fixed("ring_new", lambda n: RingOrdering(n, modified=False)),
    "ring_modified": _fixed("ring_modified",
                            lambda n: RingOrdering(n, modified=True)),
    "fat_tree": _fixed("fat_tree", FatTreeOrdering),
    "llb": LLBOrdering,
    "hybrid": HybridOrdering,
}


def ordering_names() -> list[str]:
    """All registered ordering names."""
    return sorted(ORDERINGS)


def make_ordering(name: str, n: int, **kwargs: object) -> Ordering:
    """Instantiate an ordering by name for ``n`` columns.

    ``kwargs`` are forwarded to the ordering constructor (e.g.
    ``n_groups`` for ``hybrid``, ``skip_duplicate`` for ``llb``); an
    ordering that takes none raises :class:`TypeError` on any.
    """
    try:
        factory = ORDERINGS[name]
    except KeyError:
        raise ValueError(
            f"unknown ordering {name!r}; available: {', '.join(ordering_names())}"
        ) from None
    return factory(n, **kwargs)


@lru_cache(maxsize=64)
def _shared(name: str, n: int, items: tuple) -> Ordering:
    return make_ordering(name, n, **dict(items))


def shared_ordering(name: str, n: int, **kwargs: object) -> Ordering:
    """The process-wide instance of ``make_ordering(name, n, **kwargs)``.

    A bounded LRU keyed by ``(name, n, kwargs)``; orderings are
    immutable once built (schedules are cached per sweep key), so
    callers may share one.  :func:`~repro.orderings.plan.clear_plan_cache`
    drops every entry along with the cached plans.
    """
    return _shared(name, n, tuple(sorted(kwargs.items())))
