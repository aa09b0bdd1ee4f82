"""Disjoint-set partition of scripts with merge-by-script-set semantics.

The store starts as the atomic clustering (every registered script its own
singleton) and only ever coarsens: merging a script set consolidates every
cluster that intersects it into one. Backed by dense arrays indexed by script
id, with path compression and union by rank, so hundreds of millions of
scripts stay affordable.
"""

from __future__ import annotations

import csv
import struct
from fractions import Fraction
from typing import IO, Iterable

from .errors import DataError, csv_rows, parse_int

_UNREGISTERED = -1
_SNAPSHOT_MAGIC = b"ECLS1"


class ClusterSet:
    def __init__(self) -> None:
        self._parent: list[int] = []
        self._rank: list[int] = []
        self.num_scripts = 0
        self.num_clusters = 0

    def is_registered(self, sid: int) -> bool:
        return 0 <= sid < len(self._parent) and self._parent[sid] != _UNREGISTERED

    def register(self, scripts: Iterable[int]) -> None:
        """Add previously unseen scripts as singleton clusters (idempotent)."""
        parent = self._parent
        rank = self._rank
        for sid in scripts:
            if sid < 0:
                raise DataError(f"script id {sid} is negative")
            if sid >= len(parent):
                gap = sid + 1 - len(parent)
                parent.extend([_UNREGISTERED] * gap)
                rank.extend([0] * gap)
            if parent[sid] == _UNREGISTERED:
                parent[sid] = sid
                self.num_scripts += 1
                self.num_clusters += 1

    def find(self, sid: int) -> int:
        parent = self._parent
        if not (0 <= sid < len(parent)) or parent[sid] == _UNREGISTERED:
            raise DataError(f"script id {sid} is not registered")
        # Path halving keeps this iterative and amortized near-constant.
        while parent[sid] != sid:
            parent[sid] = parent[parent[sid]]
            sid = parent[sid]
        return sid

    def same_cluster(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def merge_scripts(self, scripts: Iterable[int]) -> int:
        """Consolidate all clusters touching the given scripts into one.

        Unregistered scripts are registered first. Returns the number of
        clusters eliminated (distinct pre-merge clusters touched, minus one).
        An empty set is a no-op. This is the engine's hottest path, hence the
        inlined find loop.
        """
        if not isinstance(scripts, (list, tuple, set, frozenset)):
            scripts = tuple(scripts)
        if not scripts:
            return 0
        parent = self._parent
        size = len(parent)
        for sid in scripts:
            if sid >= size or sid < 0 or parent[sid] < 0:
                self.register(scripts)
                break
        rank = self._rank
        before = self.num_clusters
        clusters = before
        root = -1
        for sid in scripts:
            while parent[sid] != sid:  # find with path halving
                parent[sid] = parent[parent[sid]]
                sid = parent[sid]
            if root < 0:
                root = sid
            elif sid != root:
                if rank[root] < rank[sid]:
                    root, sid = sid, root
                parent[sid] = root
                if rank[root] == rank[sid]:
                    rank[root] += 1
                clusters -= 1
        self.num_clusters = clusters
        return before - clusters

    def clustering_ratio(self) -> Fraction:
        """Exact cluster-count / script-count ratio, in (0, 1]."""
        if self.num_scripts == 0:
            raise DataError("clustering ratio undefined for zero scripts", category="undefined-ratio")
        return Fraction(self.num_clusters, self.num_scripts)

    def labels(self) -> dict[int, int]:
        """Canonical labeling: each registered script -> min id in its cluster."""
        first: dict[int, int] = {}  # root -> first (smallest) member seen
        labels = {}
        for sid, p in enumerate(self._parent):
            if p != _UNREGISTERED:
                labels[sid] = first.setdefault(self.find(sid), sid)
        return labels

    def refines(self, other: "ClusterSet") -> bool:
        """True iff every cluster of self is contained in a cluster of other.

        Both partitions must cover the same registered script set.
        """
        my_ids = [s for s in range(len(self._parent)) if self._parent[s] != _UNREGISTERED]
        if self.num_scripts != other.num_scripts:
            raise DataError("refinement check requires identical script sets")
        seen: dict[int, int] = {}
        for sid in my_ids:
            if not other.is_registered(sid):
                raise DataError("refinement check requires identical script sets")
            mine_root = self.find(sid)
            theirs_root = other.find(sid)
            prev = seen.get(mine_root)
            if prev is None:
                seen[mine_root] = theirs_root
            elif prev != theirs_root:
                return False
        return True

    def same_partition(self, other: "ClusterSet") -> bool:
        return self.refines(other) and other.refines(self)

    # -- persistence --

    def write_snapshot_csv(self, sink: IO) -> None:
        """Write `script_id,cluster_id` rows, cluster_id = min member id."""
        writer = csv.writer(sink)
        writer.writerow(["script_id", "cluster_id"])
        for sid, lab in sorted(self.labels().items()):
            writer.writerow([sid, lab])

    def write_snapshot_binary(self, sink: IO) -> None:
        """Compact snapshot: magic, u64 count, u64 labels in script-id order.

        Requires a dense id space (no registration holes).
        """
        labels = self.labels()
        if len(labels) != len(self._parent):
            raise DataError("binary snapshot requires a dense script-id space")
        sink.write(_SNAPSHOT_MAGIC)
        sink.write(struct.pack("<Q", len(labels)))
        for sid in range(len(labels)):
            sink.write(struct.pack("<Q", labels[sid]))

    @classmethod
    def from_labels(cls, labels: dict[int, int]) -> "ClusterSet":
        store = cls()
        store.register(labels.keys())
        for sid, lab in labels.items():
            store.merge_scripts((sid, lab))
        return store


def load_snapshot(path: str) -> ClusterSet:
    """Load a CSV or binary snapshot (sniffed by magic bytes)."""
    with open(path, "rb") as fh:
        head = fh.read(len(_SNAPSHOT_MAGIC))
        if head == _SNAPSHOT_MAGIC:
            body = fh.read()
            count = int.from_bytes(body[:8], "little")
            if len(body) != 8 + 8 * count:
                raise DataError(f"binary snapshot {path}: size does not match its count")
            labels = struct.unpack(f"<{count}Q", body[8:])
            if any(lab >= count for lab in labels):
                raise DataError(f"binary snapshot {path}: a label is not below the count {count}")
            return ClusterSet.from_labels(dict(enumerate(labels)))
    labels = {}
    top, top_where = -1, ""
    with open(path, newline="", encoding="utf-8") as fh:
        for where, (sid, lab) in csv_rows(fh, ["script_id", "cluster_id"], f"snapshot {path}"):
            sid, lab = parse_int(sid, where), parse_int(lab, where)
            labels[sid] = lab
            if max(sid, lab) > top:
                top, top_where = max(sid, lab), where
    # `run` writes dense ids; a larger one would size the store's arrays.
    if top >= len(labels):
        raise DataError(f"{top_where}: id {top} is not below the file's {len(labels)} scripts")
    return ClusterSet.from_labels(labels)
