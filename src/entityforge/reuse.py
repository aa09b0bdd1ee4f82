"""Script-usage occurrence counts under a configurable information horizon.

A script counts one occurrence per side of each transaction it appears in:
appearing among the inputs is one observation, appearing among the outputs
is another, and duplicates within one side are a serialization artifact and
count once. A script is "reused" once its count reaches two.

The engine picks the horizon by which index it reads:
  * online  - an empty index that the engine records each transaction into
              just before evaluating heuristics on it, so counts reflect the
              transactions seen so far.
  * fixed   - the source's `fixed` index, which `build_fixed` counts over
              every transaction of the dataset once, as the source is made or
              packed; the counts never change afterwards.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .errors import DataError

if TYPE_CHECKING:  # chain imports this module
    from .chain import Block, Transaction


class ReuseIndex:
    def __init__(self):
        self._counts: list[int] = []

    def count(self, sid: int) -> int:
        if 0 <= sid < len(self._counts):
            return self._counts[sid]
        return 0

    def record(self, tx: Transaction) -> None:
        """Count this transaction's scripts, one per side of appearance."""
        counts = self._counts
        for sids in (set(tx.in_scripts), set(tx.out_scripts)):
            for sid in sids:
                if sid >= len(counts):
                    counts.extend([0] * (sid + 1 - len(counts)))
                elif sid < 0:
                    raise DataError(f"transaction {tx.txid}: script id {sid} is negative")
                counts[sid] += 1

    @classmethod
    def build_fixed(cls, blocks: Iterable[Block]) -> "ReuseIndex":
        """Count every transaction of the stream; block order does not change counts.

        A block's ids are checked once, by min and max, and counted with no check per
        id; a block with a negative id goes through `record`, to name its transaction.
        """
        idx = cls()
        counts = idx._counts
        for block in blocks:
            ids = [sid for tx in block.transactions for side in (tx.in_scripts, tx.out_scripts)
                   for sid in set(side)]
            if min(ids, default=0) < 0:
                for tx in block.transactions:
                    idx.record(tx)
            counts.extend([0] * (max(ids, default=-1) + 1 - len(counts)))  # [] if none is new
            for sid in ids:
                counts[sid] += 1
        return idx
