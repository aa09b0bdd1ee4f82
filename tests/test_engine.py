import io
import json
import os
import tempfile
import weakref
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entityforge import chain
from entityforge.chain import JsonlSource, MemorySource, iter_blocks
from entityforge.clusters import ClusterSet
from entityforge.engine import RatioReport, ReportRow, RunConfig, compare_runs, run, sidecar_path
from entityforge.errors import ConfigError, DataError, output_files
from entityforge.heuristics import COINJOIN_DESCRIPTION, HEURISTICS, HeuristicConfig, _heuristic
from entityforge.pricing import load_price_csv
from entityforge.reuse import ReuseIndex
from entityforge.synth import GenParams

from conftest import block, generate_text, tx
from oracles import closure_labels, recount_usage, reference_checkpoint_rows, refines

CONSTANT_PRICES = "block_index,usd_per_btc\n0,10000\n"


def _jsonl(tmp_path, text, name="stream.jsonl"):
    path = tmp_path / name
    path.write_text(text)
    return JsonlSource(str(path))


def _memory_source(lines):
    table = {}
    return MemorySource(list(iter_blocks(lines, table)), table)


def _prices(text=CONSTANT_PRICES):
    return load_price_csv(io.StringIO(text))


ONE_TX = '{"txid":"t1","block":100,"inputs":[{"script":"pA","value":5},{"script":"pB","value":4}],"outputs":[{"script":"pC","value":8}]}\n'


class TestBasicRuns:
    def test_single_merge_run(self, tmp_path):
        source = _jsonl(tmp_path, ONE_TX)
        report, store = run(RunConfig("cio", checkpoints=[100]), source)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert (row.block_index, row.num_scripts, row.num_clusters) == (100, 3, 2)
        assert row.ratio == Fraction(2, 3)
        assert (row.merges_applied, row.tx_processed) == (1, 1)

    def test_csv_format_matches_contract(self, tmp_path):
        source = _jsonl(tmp_path, ONE_TX)
        report, _ = run(RunConfig("cio", checkpoints=[100]), source)
        buf = io.StringIO()
        report.write_csv(buf)
        assert buf.getvalue().splitlines() == [
            "block_index,num_scripts,num_clusters,ratio,merges_applied,tx_processed",
            "100,3,2,0.666667,1,1",
        ]

    def test_deposit_threshold_unmet_keeps_atomic(self, tmp_path):
        source = _jsonl(tmp_path, ONE_TX)
        config = RunConfig(
            "deposit",
            params=HeuristicConfig(min_deposit_inputs=25),
            checkpoints=[100],
        )
        report, store = run(config, source)
        assert report.rows[0].ratio == 1
        assert store.num_clusters == 3

    def test_final_store_matches_report_tail(self, tmp_path):
        text, _, _ = generate_text(5, GenParams(users=6, blocks=8, txs_per_block=6))
        source = _jsonl(tmp_path, text)
        report, store = run(RunConfig("cio", checkpoints=[7]), source)
        assert report.rows[-1].num_clusters == store.num_clusters
        assert report.rows[-1].num_scripts == store.num_scripts


class TestHorizons:
    # Block 1: external input F funds fresh P (pay) and C (change).
    # Block 2: P is spent again, so P is reused only at the full horizon.
    TEXT = (
        '{"txid":"t1","block":1,"inputs":[{"script":"F","value":100}],'
        '"outputs":[{"script":"P","value":60},{"script":"C","value":39}]}\n'
        '{"txid":"t2","block":2,"inputs":[{"script":"P","value":60}],'
        '"outputs":[{"script":"Q","value":59}]}\n'
    )

    def test_fixed_horizon_sees_future_reuse(self, tmp_path):
        source = _jsonl(tmp_path, self.TEXT)
        _, store = run(RunConfig("change", checkpoints=1), source)
        f, p, c = 0, 1, 2  # first-observation order; the run released the source's table
        labels = store.labels()
        assert labels[f] == labels[c] != labels[p]

    def test_online_horizon_cannot_see_future(self, tmp_path):
        source = _jsonl(tmp_path, self.TEXT)
        _, store = run(RunConfig("change", horizon="online", checkpoints=1), source)
        f, c = source.table["F"], source.table["C"]
        labels = store.labels()
        assert labels[f] != labels[c]

    def test_online_records_transaction_before_evaluating(self, tmp_path):
        # B already appeared earlier in the same block, so it counts as
        # reused when t2 is evaluated and the change heuristic fires there.
        text = (
            '{"txid":"t1","block":1,"inputs":[{"script":"A","value":10}],'
            '"outputs":[{"script":"B","value":5},{"script":"C","value":4}]}\n'
            '{"txid":"t2","block":1,"inputs":[{"script":"D","value":10}],'
            '"outputs":[{"script":"E","value":5},{"script":"B","value":4}]}\n'
        )
        source = _jsonl(tmp_path, text)
        _, store = run(RunConfig("change", horizon="online", checkpoints=1), source)
        a, d, e = map(source.table.__getitem__, "ADE")
        labels = store.labels()
        assert labels[d] == labels[e]
        assert store.num_clusters == store.num_scripts - 1  # only that one merge
        assert labels[a] != labels[d]

    def test_fixed_horizon_block_recorded_in_metadata(self, tmp_path):
        source = _jsonl(tmp_path, self.TEXT)
        report, _ = run(RunConfig("change", checkpoints=1), source)
        assert report.metadata["horizon"] == "fixed"
        assert report.metadata["fixed_horizon_block"] == 2

    def test_online_mode_forbidden_for_full_horizon_heuristic(self, tmp_path):
        source = _jsonl(tmp_path, self.TEXT)
        with pytest.raises(ConfigError):
            run(RunConfig("reuse-change", horizon="online"), source)


class TestCheckpoints:
    def _stream(self, tmp_path):
        lines = []
        for i, blk in enumerate((50, 100, 150, 250)):
            lines.append(
                json.dumps(
                    {
                        "txid": f"t{i}",
                        "block": blk,
                        "inputs": [{"script": f"in{i}a", "value": 5}, {"script": f"in{i}b", "value": 5}],
                        "outputs": [{"script": f"out{i}", "value": 9}],
                    }
                )
            )
        return _jsonl(tmp_path, "\n".join(lines) + "\n")

    def test_interval_mode_emits_multiples_plus_final(self, tmp_path):
        report, _ = run(RunConfig("cio", checkpoints=100), self._stream(tmp_path))
        assert [r.block_index for r in report.rows] == [100, 200, 250]
        # checkpoint 100 covers blocks 50 and 100: six scripts, two merges
        assert report.rows[0].num_scripts == 6
        assert report.rows[0].tx_processed == 2

    def test_explicit_checkpoints_cover_stream_end(self, tmp_path):
        config = RunConfig("cio", checkpoints=[60, 300])
        report, store = run(config, self._stream(tmp_path))
        assert [r.block_index for r in report.rows] == [60, 300]
        assert report.rows[0].num_scripts == 3
        assert report.rows[1].num_clusters == store.num_clusters

    def test_checkpoint_before_any_data_is_skipped(self, tmp_path):
        config = RunConfig("cio", checkpoints=[10, 300])
        report, _ = run(config, self._stream(tmp_path))
        assert [r.block_index for r in report.rows] == [300]

    def test_truncated_run_matches_full_run_row(self, tmp_path):
        full_text, _, _ = generate_text(9, GenParams(users=6, blocks=10, txs_per_block=5))
        lines = full_text.strip().split("\n")
        cut = [ln for ln in lines if json.loads(ln)["block"] <= 4]
        for heuristic, horizon in (("cio", None), ("change", "online")):
            full = run(
                RunConfig(heuristic, horizon=horizon, checkpoints=[4, 9]),
                _jsonl(tmp_path, "\n".join(lines) + "\n", "full.jsonl"),
            )[0]
            part = run(
                RunConfig(heuristic, horizon=horizon, checkpoints=[4]),
                _jsonl(tmp_path, "\n".join(cut) + "\n", "cut.jsonl"),
            )[0]
            assert part.rows[0] == full.rows[0]

    def test_decreasing_checkpoints_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig("cio", checkpoints=[5, 5])

    def test_interval_mode_covers_single_block_zero(self, tmp_path):
        text = ONE_TX.replace('"block":100', '"block":0')
        report, _ = run(RunConfig("cio", checkpoints=100_000), _jsonl(tmp_path, text))
        assert [r.block_index for r in report.rows] == [0]

    def test_interval_mode_no_duplicate_final_row(self, tmp_path):
        report, _ = run(RunConfig("cio", checkpoints=100), _jsonl(tmp_path, ONE_TX))
        assert [r.block_index for r in report.rows] == [100]


def _one_tx_per_block(indices):
    """Each block spends a fresh script into a fresh script: ids stay dense."""
    blocks = [block(index, tx([(2 * n, 5)], [(2 * n + 1, 4)])) for n, index in enumerate(indices)]
    return MemorySource(blocks, {})


block_indices = st.lists(st.integers(0, 60), unique=True, max_size=8).map(sorted)
checkpoint_settings = st.one_of(
    st.integers(1, 25),
    # Explicit points fall before the first block, between blocks, past the
    # last one, and below zero.
    st.lists(st.integers(-10, 90), unique=True, min_size=1, max_size=8).map(sorted),
)


@settings(max_examples=300, deadline=None)
@given(indices=block_indices, checkpoints=checkpoint_settings)
@example(indices=[], checkpoints=5)  # no block: no row
@example(indices=[], checkpoints=[3])
@example(indices=[10], checkpoints=5)  # one row, at 10
@example(indices=[0, 30], checkpoints=10)  # rows 10, 20 and 30
@example(indices=[5, 33], checkpoints=10)  # rows 10, 20, 30 and 33
@example(indices=[5], checkpoints=[-1, 3, 5, 99])  # rows 5 and 99
def test_checkpoint_rows_match_reference_walk(indices, checkpoints):
    report, _ = run(RunConfig("cio", checkpoints=checkpoints), _one_tx_per_block(indices))
    expected = reference_checkpoint_rows(checkpoints, indices)
    assert [row.block_index for row in report.rows] == expected


class TestDeterminismAndConservation:
    def test_two_runs_byte_identical(self, tmp_path):
        text, _, _ = generate_text(17, GenParams(users=8, blocks=12, txs_per_block=8))
        outputs = []
        for _ in range(2):
            source = _jsonl(tmp_path, text)
            report, _ = run(
                RunConfig("combined", checkpoints=3), source, price_series=_prices()
            )
            buf = io.StringIO()
            report.write_csv(buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]

    def test_script_count_matches_interning_table(self, tmp_path):
        text, _, _ = generate_text(23, GenParams(users=5, blocks=6, txs_per_block=7))
        source = _jsonl(tmp_path, text)
        _, store = run(RunConfig("cio", checkpoints=100), source)
        assert store.num_scripts == len(source.table) == _distinct_scripts(text)


def _distinct_scripts(text):
    """The number of distinct script texts in a JSONL stream."""
    distinct = set()
    for line in text.strip().split("\n"):
        raw = json.loads(line)
        for side in ("inputs", "outputs"):
            distinct.update(e["script"] for e in raw[side])
    return len(distinct)


class TestOracle:
    @pytest.mark.parametrize(
        "heuristic",
        ["cio", "cio-cj", "change", "round", "force-merge", "deposit",
         "shadow", "one-time-change", "reuse-change", "combined"],
    )
    def test_partition_equals_transitive_closure(self, heuristic, tmp_path, proposed_groups):
        text, _, _ = generate_text(
            41,
            GenParams(
                users=6,
                blocks=10,
                txs_per_block=8,
                coinjoin_rate=0.15,
                consolidation_rate=0.15,
                deposit_sweep_rate=0.3,
                deposit_min_inputs=4,
            ),
        )
        source = _jsonl(tmp_path, text)
        config = RunConfig(
            heuristic,
            params=HeuristicConfig(min_deposit_inputs=4),
            checkpoints=100,
        )
        prices = _prices() if heuristic in ("round", "combined") else None
        _, store = run(config, source, price_series=prices)
        # A fixed-horizon run releases the source's script table.
        expected = closure_labels(_distinct_scripts(text), proposed_groups)
        assert store.labels() == expected


class TestCompare:
    def _report(self, heuristic, tmp_path, name):
        text, _, _ = generate_text(3, GenParams(users=6, blocks=9, txs_per_block=6))
        source = _jsonl(tmp_path, text, name)
        report, _ = run(RunConfig(heuristic, checkpoints=[4, 8]), source)
        return report

    def test_wide_table(self, tmp_path):
        r1 = self._report("cio", tmp_path, "a.jsonl")
        r2 = self._report("deposit", tmp_path, "b.jsonl")
        table = compare_runs([r1, r2])
        assert table[0] == ["block_index", "cio", "deposit"]
        assert len(table) == 3
        assert table[1][0] == "4"

    def test_checkpoint_mismatch_rejected(self, tmp_path):
        r1 = self._report("cio", tmp_path, "a.jsonl")
        text, _, _ = generate_text(3, GenParams(users=6, blocks=9, txs_per_block=6))
        source = _jsonl(tmp_path, text, "c.jsonl")
        r3, _ = run(RunConfig("cio", checkpoints=[5]), source)
        with pytest.raises(DataError):
            compare_runs([r1, r3])

    def test_report_read_write_round_trip(self, tmp_path):
        report = self._report("cio", tmp_path, "a.jsonl")
        out = tmp_path / "r.csv"
        with output_files() as open_output:
            report.write(open_output(str(out)), open_output(str(sidecar_path(out))))
        assert (tmp_path / "r.meta.json").exists()
        back = RatioReport.read(str(out))
        assert [r.block_index for r in back.rows] == [r.block_index for r in report.rows]
        assert back.rows[0].ratio == report.rows[0].ratio
        assert back.metadata["heuristic"] == "cio"


@st.composite
def runnable_rows(draw):
    """Rows `run` could write: blocks ascending, 1 <= clusters <= scripts, and scripts,
    merges and transactions never going down (a merge is counted per transaction)."""
    rows, block, scripts, merges, txs = [], draw(st.integers(0, 10**6)), 1, 0, 0
    for _ in range(draw(st.integers(0, 8))):
        scripts += draw(st.integers(0, 10**9))
        txs += draw(st.integers(0, 10**6))
        merges = draw(st.integers(merges, txs))
        rows.append(ReportRow(block, scripts, draw(st.integers(1, scripts)), merges, txs))
        block += draw(st.integers(1, 10**6))
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=runnable_rows())
def test_report_rows_round_trip(rows):
    with tempfile.TemporaryDirectory() as where:
        path = os.path.join(where, "r.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            RatioReport(rows, {}).write_csv(fh)
        back = RatioReport.read(path)
    assert back.rows == rows
    assert [row.ratio for row in back.rows] == [Fraction(r.num_clusters, r.num_scripts) for r in rows]


class TestErrorsAndMetadata:
    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ConfigError) as err:
            RunConfig("nope")
        assert "nope" in str(err.value)

    def test_unknown_horizon_rejected(self):
        with pytest.raises(ConfigError) as err:
            RunConfig(heuristic="cio", horizon="full")
        assert str(err.value) == "unknown horizon mode 'full'"

    def test_missing_prices_rejected(self, tmp_path):
        source = _jsonl(tmp_path, ONE_TX)
        with pytest.raises(ConfigError):
            run(RunConfig("round"), source)

    @pytest.mark.parametrize("heuristic", ["cio", "change", "shadow"])  # no, fixed, online reuse
    def test_unsorted_memory_stream_rejected(self, heuristic):
        table = {"a": 0, "b": 1, "c": 2, "d": 3}
        a, b, c, d = table.values()
        blocks = [block(5, tx([(a, 2)], [(b, 1)])), block(3, tx([(c, 2)], [(d, 1)]))]
        with pytest.raises(DataError, match="^block 3 after block 5: stream must be sorted$"):
            run(RunConfig(heuristic, checkpoints=100), MemorySource(blocks, table))

    def test_coinjoin_predicate_described_in_metadata(self, tmp_path):
        source = _jsonl(tmp_path, ONE_TX)
        for name in HEURISTICS:
            config = RunConfig(name, checkpoints=100)
            report, _ = run(config, source, price_series=_prices())
            expected = COINJOIN_DESCRIPTION if name in ("cio-cj", "combined") else None
            assert report.metadata["coinjoin_predicate"] == expected, name
        assert "equal-output" in COINJOIN_DESCRIPTION

    def test_block_count_same_for_file_and_memory_sources(self, tmp_path):
        text, _, _ = generate_text(5, GenParams(users=6, blocks=8, txs_per_block=6))
        config = RunConfig("cio", checkpoints=100)
        from_file, _ = run(config, _jsonl(tmp_path, text))
        from_memory, _ = run(config, _memory_source(text.splitlines()))
        assert from_memory.metadata["counts"]["blocks"] == from_file.metadata["counts"]["blocks"] == 8


class TestSinglePass:
    """A JSONL stream is decoded once, whatever the horizon."""

    @pytest.mark.parametrize("heuristic, horizon", [
        ("change", None), ("reuse-change", None), ("combined", None), ("shadow", "fixed"),
        ("shadow", None), ("cio", None),
    ])
    def test_run_decodes_the_stream_once(self, tmp_path, monkeypatch, heuristic, horizon):
        calls = []
        blocks = JsonlSource.blocks
        monkeypatch.setattr(JsonlSource, "blocks", lambda self: calls.append(self) or blocks(self))
        source = _jsonl(tmp_path, _firing_stream(1))
        report, _ = run(RunConfig(heuristic, horizon=horizon, checkpoints=3), source,
                        price_series=_prices())
        assert calls == [source]
        assert report.metadata["counts"]["transactions"] == 100

    def test_no_script_table_outlives_packing(self, tmp_path, monkeypatch):
        """The pass's table is whole when the pass ends, and dead before clustering starts."""
        tables, sizes, dead = [], [], []
        decode, register = chain.iter_blocks, ClusterSet.register

        class Table(dict):  # a plain dict takes no weak reference
            pass

        def interning(fh, table):
            """The pass, interning into a `Table` that stands in for its fresh table."""
            source.table = table = Table()
            tables.append(weakref.ref(table))
            coinbase_dropped = yield from decode(fh, table)
            sizes.append(len(table))
            return coinbase_dropped

        def checked_register(self, upto):
            dead.append(tables[0]() is None)
            return register(self, upto)

        monkeypatch.setattr(chain, "iter_blocks", interning)
        monkeypatch.setattr(ClusterSet, "register", checked_register)
        text = _firing_stream(2)
        source = _jsonl(tmp_path, text)
        _, store = run(RunConfig("combined", checkpoints=3), source, price_series=_prices())
        assert len(tables) == 1 and sizes == [store.num_scripts] == [_distinct_scripts(text)]
        assert dead and all(dead)
        assert len(source.table) == 0

    def test_fixed_runs_over_memory_count_nothing(self, monkeypatch):
        """A `MemorySource` carries its fixed counts: its runs count the stream no more."""
        source = _memory_source(_firing_stream(5).splitlines())
        calls = []
        build_fixed = ReuseIndex.build_fixed.__func__
        monkeypatch.setattr(ReuseIndex, "build_fixed",
                            classmethod(lambda cls, blocks: calls.append(1) or build_fixed(cls, blocks)))
        horizons = [run(RunConfig(name, checkpoints=3), source, _prices())[0].metadata["horizon"]
                    for name in sorted(HEURISTICS)]
        assert horizons.count("fixed") == 5
        assert calls == []


class TestCountedBeforeRead:
    """The engine counts a transaction before its rules read the index: an online
    index holds the stream up to and including the transaction, a fixed one the whole
    stream. A record made twice or missed shows in the counts of that transaction."""

    @pytest.mark.parametrize("horizon", ["online", "fixed"])
    @pytest.mark.parametrize("from_file", [False, True], ids=["memory", "jsonl"])
    def test_every_script_of_the_transaction_is_counted(self, tmp_path, monkeypatch,
                                                         horizon, from_file):
        text = _firing_stream(3)
        blocks = list(iter_blocks(text.splitlines(), {}))  # a JSONL pass's ids, too
        txs = [t for b in blocks for t in b.transactions]
        # The oracle's counts each rule may read at each transaction, by txid.
        expected = {t.txid: recount_usage([block(0, *txs[:i + 1])]) for i, t in enumerate(txs)}
        if horizon == "fixed":
            expected = dict.fromkeys(expected, recount_usage(blocks))
        probed = []

        def probe(tx, ctx):
            for sid in (*tx.in_scripts, *tx.out_scripts):
                assert ctx.reuse.count(sid) == expected[tx.txid][sid], (tx.txid, sid)
            probed.append(tx.txid)
            return ()

        monkeypatch.setitem(HEURISTICS, "probe", _heuristic("probe", (probe,), "online"))
        source = _jsonl(tmp_path, text) if from_file else _memory_source(text.splitlines())
        report, _ = run(RunConfig("probe", horizon=horizon, checkpoints=3), source)
        assert report.metadata["horizon"] == horizon
        assert probed == [t.txid for t in txs]
        assert len(probed) == report.metadata["counts"]["transactions"] == 100


# Every heuristic under every horizon it accepts.
HEURISTIC_HORIZONS = [(name, horizon) for name in sorted(HEURISTICS)
                      for horizon in (None, "online", "fixed")
                      if (name, horizon) != ("reuse-change", "online")]


class TestDenseIds:
    """Ids are dense in stream order: each new script takes the next id."""

    STREAMS = {
        "first-id-skips": ("t1", 1, [block(1, tx([(1, 5)], [(0, 4)], "t1"))]),
        "later-gap": ("t3", 4, [
            block(1, tx([(0, 5)], [(1, 4)], "t1")),
            block(2, tx([(1, 4)], [(0, 3), (2, 1)], "t2"), tx([(2, 1)], [(0, 1), (4, 0)], "t3")),
        ]),
        "negative": ("t2", -1, [block(1, tx([(0, 5)], [(1, 4)], "t1"), tx([(1, 4)], [(-1, 3)], "t2"))]),
        "negative-first": ("t1", -2, [block(1, tx([(-2, 5)], [(0, 4)], "t1"))]),
    }

    @pytest.mark.parametrize("case", STREAMS)
    @pytest.mark.parametrize("heuristic, horizon", [("cio", None), ("change", "online"), ("change", "fixed")])
    def test_ids_that_skip_rejected(self, case, heuristic, horizon):
        txid, sid, blocks = self.STREAMS[case]
        with pytest.raises(DataError, match=f"transaction {txid}\\b.*script id {sid} is"):
            run(RunConfig(heuristic, horizon=horizon, checkpoints=100), MemorySource(blocks, {}))

    def test_engine_error_names_transaction_and_block(self):
        _, _, blocks = self.STREAMS["later-gap"]
        with pytest.raises(DataError) as err:
            run(RunConfig("cio", checkpoints=100), MemorySource(blocks, {}))
        assert str(err.value) == (
            "transaction t3 in block 2: script id 4 is neither seen nor the next id 3"
        )

    @pytest.mark.parametrize("heuristic, horizon", HEURISTIC_HORIZONS)
    def test_gap_after_merges_in_its_block(self, heuristic, horizon):
        """A block's ids are checked before its transactions are replayed; the
        error is the one a transaction-by-transaction check gives."""
        blocks = list(_memory_source(_firing_stream(4).splitlines()).blocks())
        config = RunConfig(heuristic, HeuristicConfig(min_deposit_inputs=4), horizon, 100)
        merged, scripts = [], []  # after each prefix of the stream
        for upto in range(len(blocks) + 1):
            report, store = run(config, MemorySource(blocks[:upto], {}), _prices())
            merged.append(report.metadata["counts"]["merges_applied"])
            scripts.append(store.num_scripts)
        # The last block whose transactions merge, and the high-water id after it.
        k = max(k for k in range(len(blocks)) if merged[k + 1] > merged[k])
        hw = scripts[k + 1]
        bad = tx([(0, 1)], [(hw + 1, 1)], "bad")
        blocks[k] = block(blocks[k].index, *blocks[k].transactions, bad)
        with pytest.raises(DataError) as err:
            run(config, MemorySource(blocks, {}), _prices())
        assert str(err.value) == (f"transaction bad in block {blocks[k].index}: "
                                  f"script id {hw + 1} is neither seen nor the next id {hw}")

    def test_new_ids_only_in_a_blocks_last_transaction(self):
        blocks = [
            block(1, tx([(0, 5)], [(1, 4)], "t1")),
            block(2, tx([(0, 3), (1, 4)], [(0, 6)], "t2"), tx([(1, 2), (2, 9)], [(3, 10)], "t3")),
            block(3, tx([(3, 8), (4, 1)], [(5, 8)], "t4")),
        ]
        report, _ = run(RunConfig("cio", checkpoints=1), MemorySource(blocks, {}))
        buf = io.StringIO()
        report.write_csv(buf)
        assert buf.getvalue().splitlines()[1:] == [
            "1,2,2,1.000000,0,1", "2,4,2,0.500000,2,3", "3,6,3,0.500000,3,4"]
        for heuristic, horizon in HEURISTIC_HORIZONS:
            report, _ = run(RunConfig(heuristic, horizon=horizon, checkpoints=1),
                            MemorySource(blocks, {}), _prices())
            assert [(r.num_scripts, r.tx_processed) for r in report.rows] == [
                (2, 1), (4, 3), (6, 4)]


def _texts(table):
    """Script texts in id order; the table keeps first-observation order."""
    return list(table)


def _partition_texts(store, table, rename=None):
    """The partition as a set of clusters of script texts, optionally renamed."""
    texts = _texts(table)
    clusters: dict[int, set[str]] = {}
    for sid, label in enumerate(store.labels()):
        text = texts[sid]
        clusters.setdefault(label, set()).add(rename[text] if rename else text)
    return {frozenset(c) for c in clusters.values()}


def _firing_stream(seed):
    """A small synthetic stream on which every rule fires."""
    text, _, _ = generate_text(
        seed,
        # Many endowment inputs, fresh at any horizon, let every rule fire.
        GenParams(users=8, blocks=10, txs_per_block=10, endowment_utxos=20,
                  address_reuse_prob=0.5, service_payee_prob=0.4, round_value_rate=0.5,
                  coinjoin_rate=0.15, consolidation_rate=0.2, multi_pay_rate=0.2,
                  deposit_sweep_rate=0.3, deposit_min_inputs=4),
    )
    return text


class TestMetamorphic:
    """Relations between runs that hold on any stream.

    Rules depend on neither TXO order within a side nor script ids or
    names; a checkpoint past the end reports the final partition; and
    `combined` is coarser than each of its members.
    """

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_txos_and_renamed_scripts(self, seed):
        text = _firing_stream(seed)
        rng = Random(seed)
        txs = [json.loads(line) for line in text.splitlines()]
        names = sorted({t["script"] for raw in txs for t in raw["inputs"] + raw["outputs"]})
        new_names = [f"s{i}" for i in range(len(names))]
        rng.shuffle(new_names)
        rename = dict(zip(names, new_names))
        for raw in txs:
            for side in ("inputs", "outputs"):
                rng.shuffle(raw[side])
                for txo in raw[side]:
                    txo["script"] = rename[txo["script"]]
        original = _memory_source(text.splitlines())
        transformed = _memory_source([json.dumps(raw) for raw in txs])
        back = {new: old for old, new in rename.items()}
        assert [back[t] for t in _texts(transformed.table)] != _texts(original.table)  # ids permuted
        for name in HEURISTICS:
            params = HeuristicConfig(min_deposit_inputs=4)
            config = RunConfig(name, params=params, checkpoints=3)
            report, store = run(config, original, price_series=_prices())
            report2, store2 = run(config, transformed, price_series=_prices())
            assert report2.rows == report.rows, name
            assert _partition_texts(store2, transformed.table, back) == _partition_texts(
                store, original.table
            ), name

    @pytest.mark.parametrize("seed", range(3))
    def test_checkpoint_past_end_reports_final_partition(self, seed):
        source = _memory_source(_firing_stream(seed).splitlines())
        last = max(b.index for b in source.blocks())
        for name in HEURISTICS:
            config = RunConfig(name, checkpoints=[last // 2, last + 1000])
            report, store = run(config, source, price_series=_prices())
            at_end, _ = run(
                RunConfig(name, checkpoints=[last]),
                source,
                price_series=_prices(),
            )
            final = report.rows[-1]
            assert final.block_index == last + 1000, name
            assert replace(final, block_index=last) == at_end.rows[-1], name
            assert (final.num_scripts, final.num_clusters) == (len(source.table), store.num_clusters)

    @pytest.mark.parametrize("seed", range(4))
    def test_combined_coarser_than_each_member(self, seed):
        combined = HEURISTICS["combined"]
        members = [name for name, spec in HEURISTICS.items()
                   if name != "combined" and set(spec.rules) <= set(combined.rules)]
        assert len(members) == len(combined.rules) == 4
        source = _memory_source(_firing_stream(seed).splitlines())
        config = RunConfig("combined", checkpoints=3)
        combined_report, combined_store = run(config, source, price_series=_prices())
        finer = 0
        for name in members:
            report, store = run(replace(config, heuristic=name), source, price_series=_prices())
            assert refines(store.labels(), combined_store.labels()), name
            for row, combined_row in zip(report.rows, combined_report.rows, strict=True):
                assert combined_row.ratio <= row.ratio, name
            finer += store.num_clusters > combined_store.num_clusters
        assert finer  # combined merges more than at least one member alone
