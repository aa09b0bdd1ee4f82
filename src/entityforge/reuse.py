"""Script-usage occurrence counts under a configurable information horizon.

A script counts one occurrence per side of each transaction it appears in:
appearing among the inputs is one observation, appearing among the outputs
is another, and duplicates within one side are a serialization artifact and
count once. A script is "reused" once its count reaches two.

An index is a list of counts over ids 0..n-1, like the cluster store, and
`count` is the list's own lookup, with no range check: the source vouches that
ids are dense and non-negative, and the index grows once per block to cover them.

The engine picks the horizon by which index it reads:
  * online  - an empty index that the engine records each transaction into
              just before evaluating heuristics on it, so counts reflect the
              transactions seen so far.
  * fixed   - the source's `fixed` index, which `build_fixed` records every
              transaction of the dataset into once, as the source is made or
              packed; the counts never change afterwards.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # chain imports this module
    from .chain import Block, Transaction


class ReuseIndex:
    def __init__(self):
        self._counts: list[int] = []
        self.count = self._counts.__getitem__  # grow this list in place, never replace it

    def register(self, upto: int) -> None:
        """Cover ids 0..upto-1, each new one at count 0; an `upto` already covered adds nothing."""
        self._counts.extend([0] * (upto - len(self._counts)))

    def record(self, tx: Transaction) -> None:
        """Count this transaction's scripts, one per side of appearance."""
        counts = self._counts
        for sid in {*tx.in_scripts}:
            counts[sid] += 1
        for sid in {*tx.out_scripts}:
            counts[sid] += 1

    @classmethod
    def build_fixed(cls, blocks: Iterable[Block]) -> "ReuseIndex":
        """The online index at the stream's end: each block registered, then each transaction
        recorded. Each block's `scripts` must cover its ids, as `Block` states."""
        idx = cls()
        for block in blocks:
            idx.register(block.scripts)
            for tx in block.transactions:
                idx.record(tx)
        return idx
