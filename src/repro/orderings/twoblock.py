"""The two-block ordering (Section 3.1 of the paper, Figs 2-3).

Two blocks of ``K`` indices each are stored *interleaved* across ``K``
consecutive leaves: block one occupies the top slot of every leaf, block
two the bottom slot (or vice versa).  The ordering makes every index of
one block meet every index of the other exactly once, in ``K`` steps.

Divide and conquer (the paper's derivation): split the leaf range in
half; the two half-size problems of super-step 1 run in parallel; the
rotating block's two halves are interchanged (one level-``log2(2K)``
communication, i.e. across the root of the leaf range); the two
half-size problems of super-step 2 run in parallel.  The basic module is
the ``K = 2`` case of this recursion (Fig 2).

The *rotating block* (the paper always rotates the sub-blocks that came
from the original second block) ends the sweep with its two halves
exchanged but every half internally in original order; running the
ordering twice restores it — the property the merge procedure of the
fat-tree ordering relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..util.validation import require_power_of_two
from .schedule import Move, Schedule, Step, compose_moves

__all__ = ["StepFragment", "two_block_fragments", "two_block_schedule", "merge_parallel"]


@dataclass(frozen=True)
class StepFragment:
    """Pairs and moves of one step restricted to a leaf range.

    Fragments from disjoint leaf ranges running in parallel are merged
    into full :class:`~repro.orderings.schedule.Step` objects with
    :func:`merge_parallel`.
    """

    pairs: tuple[tuple[int, int], ...]
    moves: tuple[Move, ...]

    def with_extra_moves(self, extra: tuple[Move, ...]) -> "StepFragment":
        """Fuse a subsequent move phase into this fragment's moves."""
        return StepFragment(self.pairs, compose_moves(self.moves, extra))


def _top(leaf: int) -> int:
    return 2 * leaf


def _bottom(leaf: int) -> int:
    return 2 * leaf + 1


def merge_parallel(*fragment_lists: list[StepFragment]) -> list[StepFragment]:
    """Zip equally long fragment lists from disjoint leaf ranges."""
    lengths = {len(f) for f in fragment_lists}
    if len(lengths) != 1:
        raise ValueError(f"parallel fragment lists differ in length: {lengths}")
    merged = []
    for frags in zip(*fragment_lists):
        pairs = tuple(p for f in frags for p in f.pairs)
        moves = tuple(m for f in frags for m in f.moves)
        merged.append(StepFragment(pairs=pairs, moves=moves))
    return merged


def two_block_fragments(leaves: list[int], rotate: str = "bottom") -> list[StepFragment]:
    """Step fragments of a two-block ordering over ``leaves``.

    ``rotate`` selects which of the interleaved blocks is the rotating
    block: ``"bottom"`` rotates the block stored in the bottom slots,
    ``"top"`` the one in the top slots.  ``len(leaves)`` (= the block
    size ``K``) must be a power of two; the sweep has exactly ``K``
    fragments.
    """
    if rotate not in ("top", "bottom"):
        raise ValueError(f"rotate must be top/bottom, got {rotate!r}")
    K = len(leaves)
    require_power_of_two(K, "number of leaves")
    if K == 1:
        leaf = leaves[0]
        return [StepFragment(pairs=((_top(leaf), _bottom(leaf)),), moves=())]
    half = K // 2
    left, right = leaves[:half], leaves[half:]
    slot = _bottom if rotate == "bottom" else _top
    super1 = merge_parallel(
        two_block_fragments(left, rotate), two_block_fragments(right, rotate)
    )
    interchange = tuple(
        m
        for l, r in zip(left, right)
        for m in (Move(slot(l), slot(r)), Move(slot(r), slot(l)))
    )
    super1[-1] = super1[-1].with_extra_moves(interchange)
    super2 = merge_parallel(
        two_block_fragments(left, rotate), two_block_fragments(right, rotate)
    )
    return super1 + super2


def two_block_schedule(K: int, rotate: str = "bottom", first_leaf: int = 0) -> Schedule:
    """Standalone two-block ordering as a full schedule (2K columns).

    Used directly by the Fig 2/3 experiments; inside the fat-tree and
    hybrid orderings the fragment form is composed with other groups.
    """
    require_power_of_two(K, "block size K")
    leaves = list(range(first_leaf, first_leaf + K))
    frags = two_block_fragments(leaves, rotate)
    steps = [Step(pairs=f.pairs, moves=f.moves) for f in frags]
    return Schedule(n=2 * K, steps=steps, name=f"two_block(K={K}, rotate={rotate})")
