"""Sweep-boundary checkpoints of the distributed machine state.

Before each sweep the recovery driver snapshots everything a rollback
must restore: the column data, the accumulated right vectors, the slot
labels, the batched kernel's norm cache and (in block mode) the
block-to-column indirection.  The degradation state (``host_of_leaf``,
``dead_leaves``) is deliberately *not* part of the checkpoint — a leaf
that died stays dead across a rollback; only the numerics rewind.

In the cost model a checkpoint is a leaf-parallel memory copy
(:meth:`~repro.machine.costmodel.CostModel.checkpoint_time`); a restore
additionally pays one synchronisation startup
(:meth:`~repro.machine.costmodel.CostModel.rollback_time`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..machine.simulator import TreeMachine

__all__ = ["MachineCheckpoint", "restore_checkpoint", "take_checkpoint"]


@dataclass
class MachineCheckpoint:
    """Deep copy of one machine's restorable state at a sweep boundary."""

    X: np.ndarray
    V: np.ndarray | None
    labels: np.ndarray
    norms_sq: np.ndarray | None
    #: (n_slots, b) block-to-column indirection (block mode only)
    block_cols: np.ndarray | None

    @property
    def words(self) -> int:
        """Words copied (for pricing the checkpoint/rollback)."""
        return self.X.size + (self.V.size if self.V is not None else 0)


def take_checkpoint(machine: "TreeMachine") -> MachineCheckpoint:
    """Snapshot a loaded machine's numerics."""
    return MachineCheckpoint(
        X=machine.X.copy(),
        V=machine.V.copy() if machine.V is not None else None,
        labels=machine.labels.copy(),
        norms_sq=(machine._norms_sq.copy()
                  if machine._norms_sq is not None else None),
        block_cols=(machine.block_cols.copy()
                    if machine.block_cols is not None else None),
    )


def restore_checkpoint(machine: "TreeMachine", cp: MachineCheckpoint) -> None:
    """Rewind the machine's numerics to ``cp`` (degradation state kept).

    ``X``/``V`` are restored **in place**, so any reference to the
    machine's buffers taken before the rollback stays current.
    """
    machine.X[...] = cp.X
    if cp.V is not None:
        machine.V[...] = cp.V
    else:
        machine.V = None
    machine.labels = cp.labels.copy()
    machine._norms_sq = (cp.norms_sq.copy()
                         if cp.norms_sq is not None else None)
    machine.block_cols = (cp.block_cols.copy()
                          if cp.block_cols is not None else None)
