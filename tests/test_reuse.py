from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entityforge.errors import DataError
from entityforge.reuse import ReuseIndex

from conftest import block, tx
from oracles import recount_usage


class TestRecord:
    def test_first_appearance_counts_once_per_script(self):
        idx = ReuseIndex()
        idx.record(tx([(0, 5)], [(1, 2), (2, 2)]))
        assert [idx.count(s) for s in (0, 1, 2)] == [1, 1, 1]

    def test_second_transaction_reaches_reuse_threshold(self):
        idx = ReuseIndex()
        idx.record(tx([(0, 5)], [(1, 2), (2, 2)]))
        idx.record(tx([(1, 2)], [(3, 1)]))
        assert idx.count(1) == 2

    def test_same_side_duplicate_counts_once(self):
        idx = ReuseIndex()
        idx.record(tx([(0, 5)], [(1, 2), (1, 2)]))
        assert idx.count(1) == 1

    def test_both_sides_count_twice(self):
        # input use and output use are separate observations
        idx = ReuseIndex()
        idx.record(tx([(0, 5)], [(0, 4)]))
        assert idx.count(0) == 2

    def test_unknown_script_counts_zero(self):
        assert ReuseIndex().count(99) == 0

    def test_negative_script_rejected(self):
        # a negative id would index the counts from their end
        idx = ReuseIndex()
        idx.record(tx([(0, 5)], [(1, 4)]))
        with pytest.raises(DataError, match="transaction t9: script id -1 is negative"):
            idx.record(tx([(1, 4)], [(-1, 3)], "t9"))


def _stream_with_script_in_blocks():
    # script 0 appears (as an input) in blocks 10 and 20
    return [
        block(10, tx([(0, 5)], [(1, 4)])),
        block(20, tx([(0, 3)], [(2, 2)])),
    ]


def _upto(blocks, k):
    """The stream cut after block k."""
    return [b for b in blocks if b.index <= k]


class TestFixedBuild:
    def test_horizon_cut_excludes_later_blocks(self):
        idx = ReuseIndex.build_fixed(_upto(_stream_with_script_in_blocks(), 15))
        assert idx.count(0) == 1

    def test_horizon_covers_both_blocks(self):
        idx = ReuseIndex.build_fixed(_upto(_stream_with_script_in_blocks(), 25))
        assert idx.count(0) == 2

    def test_horizon_before_first_block(self):
        idx = ReuseIndex.build_fixed(_upto(_stream_with_script_in_blocks(), 5))
        assert idx.count(0) == 0


def _random_blocks(rng, n_blocks=12, max_txs=4, n_scripts=30):
    blocks = []
    index = 0
    for _ in range(n_blocks):
        index += rng.randrange(1, 4)
        txs = []
        for _ in range(rng.randrange(1, max_txs)):
            ins = [(rng.randrange(n_scripts), rng.randrange(1, 50)) for _ in range(rng.randrange(1, 3))]
            v_in = sum(v for _, v in ins)
            outs = [(rng.randrange(n_scripts), v_in - rng.randrange(1, min(10, v_in) + 1))]
            txs.append(tx(ins, outs))
        blocks.append(block(index, *txs))
    return blocks


class TestEquivalence:
    def test_online_equals_fixed_at_every_horizon(self):
        rng = Random(3)
        for _ in range(10):
            blocks = _random_blocks(rng)
            horizons = [b.index for b in blocks]
            for k in horizons:
                online = ReuseIndex()
                for b in blocks:
                    if b.index > k:
                        break
                    for t in b.transactions:
                        online.record(t)
                fixed = ReuseIndex.build_fixed(_upto(blocks, k))
                scripts = set(recount_usage(blocks))
                assert all(online.count(s) == fixed.count(s) for s in scripts)

    def test_counts_match_naive_recount(self):
        rng = Random(4)
        blocks = _random_blocks(rng)
        idx = ReuseIndex.build_fixed(blocks)
        naive = recount_usage(blocks)
        for sid, n in naive.items():
            assert idx.count(sid) == n

    def test_monotone_in_horizon(self):
        rng = Random(5)
        blocks = _random_blocks(rng)
        ks = [b.index for b in blocks]
        for sid in range(30):
            prev = 0
            for k in ks:
                cur = ReuseIndex.build_fixed(_upto(blocks, k)).count(sid)
                assert cur >= prev
                prev = cur


# Ids repeat within a side and skip, since 0..40 is drawn from at random.
_sides = st.lists(st.integers(0, 40), min_size=1, max_size=5)
_transactions = st.tuples(_sides, _sides).map(
    lambda sides: tx(*([(sid, 1) for sid in side] for side in sides)))
_block_txs = st.lists(_transactions, max_size=4)  # empty blocks and one-transaction blocks too


def _numbered(block_txs):
    return [block(index, *txs) for index, txs in enumerate(block_txs)]


def _replayed(blocks):
    """The online index after `record` of every transaction in stream order."""
    idx = ReuseIndex()
    for b in blocks:
        for t in b.transactions:
            idx.record(t)
    return idx


class TestFixedBuildEqualsReplay:
    @settings(max_examples=300, deadline=None)
    @given(blocks=st.lists(_block_txs, max_size=6).map(_numbered))
    def test_counts_equal_record_replayed(self, blocks):
        assert ReuseIndex.build_fixed(blocks)._counts == _replayed(blocks)._counts

    @settings(max_examples=200, deadline=None)
    @given(head=st.lists(_block_txs, min_size=1, max_size=3),
           later=st.lists(_transactions, min_size=2, max_size=5),
           tail=st.lists(_block_txs, max_size=2), data=st.data())
    def test_negative_id_refused_with_records_message(self, head, later, tail, data):
        """Negative ids in later transactions of a later block: the first is named."""
        faulty = sorted(data.draw(st.sets(st.integers(1, len(later) - 1), min_size=1)))
        for i in faulty:
            sides = list(later[i].in_scripts), list(later[i].out_scripts)
            sides[data.draw(st.integers(0, 1))].extend(data.draw(
                st.lists(st.integers(-5, -1), min_size=1, max_size=2)))
            later[i] = tx(*([(sid, 1) for sid in side] for side in sides), later[i].txid)
        blocks = _numbered([*head, later, *tail])
        with pytest.raises(DataError) as replayed:
            _replayed(blocks)
        with pytest.raises(DataError) as fixed:
            ReuseIndex.build_fixed(blocks)
        assert str(fixed.value) == str(replayed.value)
        assert str(fixed.value).startswith(f"transaction {later[faulty[0]].txid}: script id -")
