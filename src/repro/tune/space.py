"""Candidate space of the configuration autotuner.

A :class:`Candidate` is one complete, runnable configuration of the
public SVD entry points — the three knobs ``svd`` / ``svd_batch``
expose (ordering, kernel, block size).  :func:`candidate_space`
enumerates the admissible candidates for a target shape.

The space is deliberately small and structured rather than a grid: the
block-Jacobi literature (Faverge et al., Novaković — see PAPERS.md)
shows performance is decided by block size × ordering, so we take the
divisor block sizes that keep at least 8 schedule slots and the two
strongest ordering families (the paper's fat-tree ordering and the new
ring ordering) instead of the full cross product.  The default
configuration is always candidate 0 so every tune run prices the thing
it is trying to beat.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..util.bits import is_power_of_two
from ..util.validation import require

__all__ = [
    "Candidate",
    "DEFAULT_CANDIDATE",
    "candidate_space",
]


@dataclass(frozen=True)
class Candidate:
    """One complete tuner configuration (the knobs of :func:`repro.svd`);
    ``block_size is None`` means scalar mode."""

    kernel: str = "reference"
    block_size: int | None = None
    ordering: str = "fat_tree"

    def label(self) -> str:
        """Compact display name, e.g. ``gram-b16/ring_new``."""
        return "/".join([self.kernel if self.block_size is None
                         else f"{self.kernel}-b{self.block_size}",
                         self.ordering])

    def call_kwargs(self) -> dict:
        """Keyword arguments for :func:`repro.svd` / :func:`repro.svd_batch`
        (only the knobs this candidate actually sets)."""
        kw: dict = {"ordering": self.ordering, "kernel": self.kernel}
        if self.block_size is not None:
            kw["block_size"] = self.block_size
        return kw

    def options_dict(self) -> dict:
        """JSON form persisted in tuned profiles (all three knobs,
        explicit ``None`` for an unset block size so a profile is
        self-describing)."""
        return {
            "ordering": self.ordering,
            "kernel": self.kernel,
            "block_size": self.block_size,
        }


#: what ``svd()`` does when asked for nothing: scalar reference kernel
#: under the paper's fat-tree ordering
DEFAULT_CANDIDATE = Candidate()


def _block_sizes(n: int, pow2_blocks: bool) -> list[int]:
    """Divisor block sizes keeping >= 8 schedule slots, largest first.

    ``pow2_blocks`` additionally requires a power-of-two block count
    (tree-ordering admissibility without padding).
    """
    sizes = []
    for b in (32, 16, 8, 4, 2):
        if n % b or n // b < 8:
            continue
        if pow2_blocks and not is_power_of_two(n // b):
            continue
        sizes.append(b)
    return sizes


def candidate_space(m: int, n: int, batch: int | None = None, *,
                    quick: bool = False) -> tuple[Candidate, ...]:
    """Admissible candidates for one target shape, default first.

    The structure (not a grid):

    * the default configuration (always, so the search prices it);
    * scalar ``batched`` under fat-tree and ring orderings (the scalar
      ``reference`` kernel beyond the default only at small ``n`` — it
      is strictly dominated and would waste most of round one);
    * the BLAS-3 ``gram`` kernel at every admissible divisor block size
      (>= 8 slots), fat-tree ordering when the block count is a power of
      two, ring ordering otherwise.

    ``quick=True`` keeps only one candidate per axis (default, scalar
    batched, best-blocked gram) — the CI smoke space.
    """
    require(m >= n >= 2, f"need m >= n >= 2, got m={m}, n={n}")
    out: list[Candidate] = [DEFAULT_CANDIDATE]

    def add(c: Candidate) -> None:
        if c not in out:
            out.append(c)

    blocks = _block_sizes(n, pow2_blocks=False)

    def block_ordering(b: int) -> str:
        return "fat_tree" if is_power_of_two(n // b) else "ring_new"

    if quick:
        add(Candidate(kernel="batched", ordering="ring_new"))
        if blocks:
            add(Candidate(kernel="gram", block_size=blocks[0],
                          ordering=block_ordering(blocks[0])))
        return tuple(out)

    for ordering in ("fat_tree", "ring_new"):
        add(Candidate(kernel="batched", ordering=ordering))
    if n <= 64:
        add(Candidate(kernel="reference", ordering="ring_new"))
    for b in blocks:
        add(Candidate(kernel="gram", block_size=b,
                      ordering=block_ordering(b)))
    _ = batch  # the space is shape-driven; batch only changes the timer
    return tuple(out)
