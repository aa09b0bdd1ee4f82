from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from entityforge.reuse import ReuseIndex

from conftest import block, counted, tx
from oracles import recount_usage


class TestRecord:
    def test_first_appearance_counts_once_per_script(self):
        idx = ReuseIndex()
        idx.register(3)
        idx.record(tx([(0, 5)], [(1, 2), (2, 2)]))
        assert [idx.count(s) for s in (0, 1, 2)] == [1, 1, 1]

    def test_second_transaction_reaches_reuse_threshold(self):
        idx = ReuseIndex()
        idx.register(4)
        idx.record(tx([(0, 5)], [(1, 2), (2, 2)]))
        idx.record(tx([(1, 2)], [(3, 1)]))
        assert idx.count(1) == 2

    def test_same_side_duplicate_counts_once(self):
        idx = ReuseIndex()
        idx.register(2)
        idx.record(tx([(0, 5)], [(1, 2), (1, 2)]))
        assert idx.count(1) == 1

    def test_both_sides_count_twice(self):
        # input use and output use are separate observations
        idx = ReuseIndex()
        idx.register(1)
        idx.record(tx([(0, 5)], [(0, 4)]))
        assert idx.count(0) == 2


class TestRegister:
    def test_growth_adds_zero_counts_and_keeps_the_counted(self):
        idx = ReuseIndex()
        idx.register(2)
        idx.record(tx([(0, 5)], [(1, 4)]))
        idx.register(4)
        assert [idx.count(s) for s in range(4)] == [1, 1, 0, 0]

    def test_covered_upto_adds_nothing(self):
        idx = ReuseIndex()
        idx.register(3)
        idx.register(1)
        idx.register(0)
        assert idx._counts == [0, 0, 0]

    def test_count_reads_the_grown_list(self):
        """`count` is bound once, to a list that grows in place."""
        idx = ReuseIndex()
        count = idx.count
        idx.register(2)
        idx.record(tx([(1, 5)], [(1, 4)]))
        assert count(1) == 2


def _stream_with_script_in_blocks():
    # script 0 appears (as an input) in blocks 10 and 20
    return counted([
        block(10, tx([(0, 5)], [(1, 4)])),
        block(20, tx([(0, 3)], [(2, 2)])),
    ])


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
        assert idx._counts == []  # no script seen, none covered


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
    return counted(blocks)


class TestEquivalence:
    def test_online_equals_fixed_at_every_horizon(self):
        rng = Random(3)
        for _ in range(10):
            blocks = _random_blocks(rng)
            horizons = [b.index for b in blocks]
            for k in horizons:
                online = ReuseIndex()
                online.register(30)
                for b in blocks:
                    if b.index > k:
                        break
                    for t in b.transactions:
                        online.record(t)
                fixed = ReuseIndex.build_fixed(_upto(blocks, k))
                fixed.register(30)
                assert online._counts == fixed._counts

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
        prev = [0] * 30
        for k in ks:
            idx = ReuseIndex.build_fixed(_upto(blocks, k))
            idx.register(30)
            assert all(cur >= before for cur, before in zip(idx._counts, prev))
            prev = idx._counts


# Ids repeat within a side and skip, since 0..40 is drawn from at random.
_sides = st.lists(st.integers(0, 40), min_size=1, max_size=5)
_transactions = st.tuples(_sides, _sides).map(
    lambda sides: tx(*([(sid, 1) for sid in side] for side in sides)))
_block_txs = st.lists(_transactions, max_size=4)  # empty blocks and one-transaction blocks too


def _numbered(block_txs):
    return counted([block(index, *txs) for index, txs in enumerate(block_txs)])


class TestFixedBuildEqualsRecount:
    @settings(max_examples=300, deadline=None)
    @given(blocks=st.lists(_block_txs, max_size=6).map(_numbered))
    def test_counts_equal_naive_recount(self, blocks):
        """Ids up to the last block's script count, each at its naive recount, unseen ones at 0."""
        naive = recount_usage(blocks)
        upto = blocks[-1].scripts if blocks else 0
        assert ReuseIndex.build_fixed(blocks)._counts == [naive.get(sid, 0) for sid in range(upto)]
