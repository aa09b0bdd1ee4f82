import gzip
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entityforge.chain import (
    JsonlSource,
    MemorySource,
    ScriptTable,
    StreamStats,
    iter_blocks,
    validate_transaction,
)
from entityforge.errors import IngestError, ValidationError

from conftest import tx
from oracles import as_columns, reference_iter_blocks
from test_loaders import jsonl_line


class TestScriptTable:
    def test_first_allocation_is_zero(self):
        table = ScriptTable()
        assert table.intern("pA") == 0

    def test_ids_follow_observation_order(self):
        table = ScriptTable()
        assert table.intern("pB") == 0
        assert table.intern("pA") == 1

    def test_interning_is_idempotent(self):
        table = ScriptTable()
        assert table.intern("pA") == table.intern("pA") == 0
        assert len(table) == 1

    def test_ids_are_dense(self):
        table = ScriptTable()
        seen = [table.intern(f"s{i}") for i in "abcdefg"]
        assert seen == list(range(7))
        assert list(table._ids) == [f"s{i}" for i in "abcdefg"]  # id order

    def test_empty_text_rejected(self):
        with pytest.raises(IngestError):
            ScriptTable().intern("")


class TestValidate:
    def test_valid_payment_keeps_fee(self):
        t = tx([(0, 10)], [(1, 9)])
        assert validate_transaction(t) is t
        assert sum(t.in_values) - sum(t.out_values) == 1

    def test_value_inflation_rejected(self):
        with pytest.raises(ValidationError) as err:
            validate_transaction(tx([(0, 5)], [(1, 9)]))
        assert err.value.category == "value-inflation"

    def test_empty_inputs_is_coinbase_or_malformed(self):
        with pytest.raises(ValidationError) as err:
            validate_transaction(tx([], [(1, 9)]))
        assert err.value.category == "coinbase-or-malformed"

    def test_empty_outputs_rejected(self):
        with pytest.raises(ValidationError):
            validate_transaction(tx([(0, 5)], []))

    def test_negative_value_rejected(self):
        with pytest.raises(ValidationError) as err:
            validate_transaction(tx([(0, 5)], [(1, -1)]))
        assert err.value.category == "format"


def _line(txid, block, inputs, outputs):
    return json.dumps(
        {
            "txid": txid,
            "block": block,
            "inputs": [{"script": s, "value": v} for s, v in inputs],
            "outputs": [{"script": s, "value": v} for s, v in outputs],
        }
    )


class TestIngestion:
    def test_blocks_grouped_and_in_order(self, small_stream_text):
        table = ScriptTable()
        blocks = list(iter_blocks(io.StringIO(small_stream_text), table))
        assert [b.index for b in blocks] == [1, 2, 4]
        assert [len(b.transactions) for b in blocks] == [1, 1, 1]
        assert len(table) == 7

    def test_unsorted_stream_rejected(self):
        text = "\n".join(
            [
                _line("t1", 5, [("a", 2)], [("b", 1)]),
                _line("t2", 3, [("c", 2)], [("d", 1)]),
            ]
        )
        with pytest.raises(IngestError) as err:
            list(iter_blocks(io.StringIO(text), ScriptTable()))
        assert "sorted" in str(err.value)

    def test_coinbase_dropped_without_interning(self):
        text = "\n".join(
            [
                json.dumps({"txid": "cb", "block": 1, "inputs": [], "outputs": [{"script": "miner", "value": 50}]}),
                _line("t1", 1, [("a", 2)], [("b", 1)]),
            ]
        )
        table = ScriptTable()
        stats = StreamStats()
        blocks = list(iter_blocks(io.StringIO(text), table, stats))
        assert stats.coinbase_dropped == 1
        assert stats.transactions == 1
        assert "miner" not in table._ids
        assert len(blocks) == 1 and len(blocks[0].transactions) == 1

    def test_empty_script_error_names_transaction(self):
        text = _line("t9", 1, [("", 2)], [("b", 1)])
        with pytest.raises(IngestError) as err:
            list(iter_blocks(io.StringIO(text), ScriptTable()))
        assert "t9" in str(err.value)

    def test_non_integer_value_rejected(self):
        text = json.dumps(
            {"txid": "t1", "block": 1, "inputs": [{"script": "a", "value": 1.5}], "outputs": [{"script": "b", "value": 1}]}
        )
        with pytest.raises(IngestError):
            list(iter_blocks(io.StringIO(text), ScriptTable()))

    def test_inflation_rejected_at_ingest(self):
        text = _line("t1", 1, [("a", 2)], [("b", 5)])
        with pytest.raises(ValidationError):
            list(iter_blocks(io.StringIO(text), ScriptTable()))

    def test_bad_json_reports_line(self):
        with pytest.raises(IngestError) as err:
            list(iter_blocks(io.StringIO("{nope}\n"), ScriptTable()))
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize(
        "line", ["[" * 100_000, '{"block": 1' + "0" * 5000 + "}"], ids=["deep", "long-int"]
    )
    def test_undecodable_json_reports_line(self, line):
        with pytest.raises(IngestError, match="line 2"):
            list(iter_blocks(io.StringIO("\n" + line + "\n"), ScriptTable()))


class TestSources:
    def test_jsonl_source_two_passes_identical(self, small_stream_text, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(small_stream_text)
        source = JsonlSource(str(path))
        first = list(source.blocks())
        second = list(source.blocks())
        assert first == second
        assert len(source.table) == 7

    def test_gzip_accepted(self, small_stream_text, tmp_path):
        path = tmp_path / "s.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(small_stream_text)
        source = JsonlSource(str(path))
        assert [b.index for b in source.blocks()] == [1, 2, 4]

    def test_memory_source(self):
        from entityforge.chain import Block

        table = ScriptTable()
        a, b = table.intern("a"), table.intern("b")
        source = MemorySource([Block(1, [tx([(a, 2)], [(b, 1)])])], table)
        assert [blk.index for blk in source.blocks()] == [1]


PAY = _line("t", 1, [("a", 5)], [("b", 4)])

# Lines at the edges of each check, mixed with arbitrary ones below.
EDGE_LINES = [
    "\ufeff" + PAY,  # leading BOM
    PAY + " x",  # trailing data
    PAY + ' {"txid": "u"}',
    _line("t", True, [("a", 5)], [("b", 4)]),
    _line("t", -1, [("a", 5)], [("b", 4)]),
    _line("t", 2**70, [("a", 5)], [("b", 4)]),
    # a negative value, then a malformed entry: the entry's error comes first
    _line("t", 1, [("a", -1)], [("b", 4)]).replace('"value": 4', '"valu": 4'),
    _line("t", 1, [("a", -1), ("c", 9)], [("b", 1)]),
    _line("t", 1, [("a", 5)], [("b", -2), ("c", 1)]),
    _line("t", 1, [("a", 5), ("c", 1)], [("b", 4), ("d", 3)]),  # outputs above inputs
    _line("t", 1, [("a", 5)], []),
    _line("cb", 1, [], [("m", 50)]),  # coinbase
    _line("t", 1, [("a", 5)], [("a", 5)]),
    _line("t", 1, [("a", True)], [("b", 0)]),
    _line("t", 1, [("a", 1.0)], [("b", 0)]),
    _line("t", 1, [("", 1)], [("b", 0)]),
    _line("t", 1, [(7, 1)], [("b", 0)]),
    _line("t", 0, [("x", 3), ("a", 2)], [("y", 5)]),
    _line("t", 3, [("b", 3)], [("z", 1)]),
    _line("t", 5, [("c", 4)], [("a", 4), ("w", 0)]),  # 5 then 3 is unsorted
    '{"txid": "t", "block": 1, "inputs": [5], "outputs": []}',
    '{"txid": "t", "block": 1, "inputs": ["script"], "outputs": []}',
    '{"txid": "t", "block": 1, "inputs": [{"script": "a", "value": 1}], "outputs": null}',
    '{"txid": "t", "block": 1, "inputs": {"script": "a"}, "outputs": []}',
    "[" * 100_000,
    '{"block": 1' + "0" * 5000 + "}",
    "",
    "  \t ",
]


def _decode_outcome(decode, lines, to_columns=list):
    """Blocks yielded, table, stats and the error, if any, of one decode."""
    table, stats, blocks = ScriptTable(), StreamStats(), []
    error = None
    try:
        for block in decode(lines, table, stats):
            blocks.append(block)
    except Exception as exc:
        error = (type(exc), getattr(exc, "category", None), str(exc))
    # repr shows the record types and tells True from 1
    return repr(to_columns(blocks)), list(table._ids.items()), vars(stats), error


@settings(max_examples=1000, deadline=None)
@given(lines=st.lists(jsonl_line | st.sampled_from(EDGE_LINES), max_size=6))
def test_decoder_matches_reference(lines):
    """Same blocks, interning order and stats, or the same error, as the reference."""
    expected = _decode_outcome(reference_iter_blocks, lines, as_columns)
    assert _decode_outcome(iter_blocks, lines) == expected
