"""Script-usage occurrence counts under a configurable information horizon.

A script counts one occurrence per side of each transaction it appears in:
appearing among the inputs is one observation, appearing among the outputs
is another, and duplicates within one side are a serialization artifact and
count once. A script is "reused" once its count reaches two.

The engine picks the horizon by which index it builds:
  * online  - an empty index that the engine records each transaction into
              just before evaluating heuristics on it, so counts reflect the
              transactions seen so far.
  * fixed   - `build_fixed` counts every block up to a horizon K in a first
              pass; the counts never change afterwards.
"""

from __future__ import annotations

from typing import Iterable

from .chain import Block, Transaction
from .errors import DataError


class ReuseIndex:
    def __init__(self, horizon_block: int | None = None):
        self.horizon_block = horizon_block
        self._counts: list[int] = []

    def count(self, sid: int) -> int:
        if 0 <= sid < len(self._counts):
            return self._counts[sid]
        return 0

    def reused(self, sid: int) -> bool:
        return self.count(sid) >= 2

    def record(self, tx: Transaction) -> None:
        """Count this transaction's scripts, one per side of appearance."""
        counts = self._counts
        for sids in ({t.script for t in tx.inputs}, {t.script for t in tx.outputs}):
            for sid in sids:
                if sid >= len(counts):
                    counts.extend([0] * (sid + 1 - len(counts)))
                elif sid < 0:
                    raise DataError(f"transaction {tx.txid}: script id {sid} is negative")
                counts[sid] += 1

    @classmethod
    def build_fixed(cls, blocks: Iterable[Block], k: int | None = None) -> "ReuseIndex":
        """Count every transaction in blocks up to index k (all, if None)."""
        idx = cls()
        prev = None
        last = None
        for block in blocks:
            if prev is not None and block.index <= prev:
                raise DataError(
                    f"block {block.index} after block {prev}: stream must be sorted"
                )
            prev = block.index
            if k is not None and block.index > k:
                break
            last = block.index
            for tx in block.transactions:
                idx.record(tx)
        idx.horizon_block = k if k is not None else last
        return idx
