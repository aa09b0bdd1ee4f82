import gzip
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entityforge.chain import (
    MAX_VALUE,
    JsonlSource,
    MemorySource,
    StreamStats,
    iter_blocks,
    validate_transaction,
)
from entityforge.errors import DataError, IngestError, ValidationError
from entityforge.reuse import ReuseIndex

from conftest import block, tx
from oracles import as_columns, reference_block_counts, reference_iter_blocks
from test_loaders import jsonl_line


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
        table = {}
        blocks = list(iter_blocks(io.StringIO(small_stream_text), table))
        assert [b.index for b in blocks] == [1, 2, 4]
        assert [len(b.transactions) for b in blocks] == [1, 1, 1]
        assert len(table) == 7

    def test_ids_are_dense_in_first_observation_order(self):
        text = "\n".join([_line("t1", 1, [("pB", 2)], [("pA", 1), ("pB", 1)]),
                          _line("t2", 1, [("pC", 2)], [("pA", 1)])])
        table = {}
        blocks = list(iter_blocks(io.StringIO(text), table))
        assert table == {"pB": 0, "pA": 1, "pC": 2}
        assert [(t.in_scripts, t.out_scripts) for t in blocks[0].transactions] == [
            ((0,), (1, 0)), ((2,), (1,))]

    def test_unsorted_stream_rejected(self):
        text = "\n".join(
            [
                _line("t1", 5, [("a", 2)], [("b", 1)]),
                _line("t2", 3, [("c", 2)], [("d", 1)]),
            ]
        )
        with pytest.raises(IngestError) as err:
            list(iter_blocks(io.StringIO(text), {}))
        assert "sorted" in str(err.value)

    def test_coinbase_dropped_without_interning(self):
        text = "\n".join(
            [
                json.dumps({"txid": "cb", "block": 1, "inputs": [], "outputs": [{"script": "miner", "value": 50}]}),
                _line("t1", 1, [("a", 2)], [("b", 1)]),
            ]
        )
        table = {}
        stats = StreamStats()
        blocks = list(iter_blocks(io.StringIO(text), table, stats))
        assert stats.coinbase_dropped == 1
        assert stats.transactions == 1
        assert "miner" not in table
        assert len(blocks) == 1 and len(blocks[0].transactions) == 1

    def test_empty_script_error_names_transaction(self):
        text = _line("t9", 1, [("", 2)], [("b", 1)])
        with pytest.raises(IngestError) as err:
            list(iter_blocks(io.StringIO(text), {}))
        assert "t9" in str(err.value)

    def test_non_integer_value_rejected(self):
        text = json.dumps(
            {"txid": "t1", "block": 1, "inputs": [{"script": "a", "value": 1.5}], "outputs": [{"script": "b", "value": 1}]}
        )
        with pytest.raises(IngestError):
            list(iter_blocks(io.StringIO(text), {}))

    def test_inflation_rejected_at_ingest(self):
        text = _line("t1", 1, [("a", 2)], [("b", 5)])
        with pytest.raises(ValidationError):
            list(iter_blocks(io.StringIO(text), {}))

    def test_bad_json_reports_line(self):
        with pytest.raises(IngestError) as err:
            list(iter_blocks(io.StringIO("{nope}\n"), {}))
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize(
        "line", ["[" * 100_000, '{"block": 1' + "0" * 5000 + "}"], ids=["deep", "long-int"]
    )
    def test_undecodable_json_reports_line(self, line):
        with pytest.raises(IngestError, match="line 2"):
            list(iter_blocks(io.StringIO("\n" + line + "\n"), {}))


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
        table = {"a": 0, "b": 1}
        a, b = table.values()
        source = MemorySource([block(1, tx([(a, 2)], [(b, 1)]))], table)
        assert [(blk.index, blk.scripts) for blk in source.blocks()] == [(1, 2)]


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
    table, stats, blocks = {}, StreamStats(), []
    error = None
    try:
        for block in decode(lines, table, stats):
            blocks.append(block)
    except Exception as exc:
        error = (type(exc), getattr(exc, "category", None), str(exc))
    # repr shows the record types and tells True from 1
    return repr(to_columns(blocks)), list(table.items()), vars(stats), error


@settings(max_examples=1000, deadline=None)
@given(lines=st.lists(jsonl_line | st.sampled_from(EDGE_LINES), max_size=6))
def test_decoder_matches_reference(lines):
    """Same blocks, interning order and stats, or the same error, as the reference."""
    expected = _decode_outcome(reference_iter_blocks, lines, as_columns)
    assert _decode_outcome(iter_blocks, lines) == expected


@st.composite
def _split(draw, total, max_parts):
    """`total` as a list of 1..max_parts non-negative parts."""
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=max_parts - 1)))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


_text = st.text(st.sampled_from("ab\n\x00\U0001f600\u00e9"), min_size=1, max_size=3)
_total = st.sampled_from([0, MAX_VALUE]) | st.integers(0, MAX_VALUE)


@st.composite
def _decodable_line(draw, block):
    """A line the decoder accepts: a valid transaction, or a coinbase it drops."""
    v_in = draw(_total)
    inputs = [] if draw(st.integers(0, 5)) == 0 else draw(_split(v_in, 4))
    outputs = draw(_split(draw(st.integers(0, v_in)), 4))
    side = lambda values: [{"script": draw(_text), "value": v} for v in values]
    line = {"txid": draw(_text), "block": block, "inputs": side(inputs), "outputs": side(outputs)}
    return json.dumps(line, ensure_ascii=draw(st.booleans())) + "\n"


@st.composite
def _decodable_stream(draw):
    blocks = sorted(draw(st.lists(st.integers(0, 4) | st.just(2**70), max_size=8)))
    return [draw(_decodable_line(block)) for block in blocks]


_EDGE_STREAM = [
    json.dumps({"txid": txid, "block": block, "inputs": [{"script": "\U0001f600", "value": v}],
                "outputs": [{"script": "\n", "value": v}, {"script": "a\x00", "value": 0}]}) + "\n"
    for txid, block, v in [("\n", 0, MAX_VALUE), ("\x00", 0, 0), ("\U0001f600\n", 3, 1)]
]

# Escaped lone surrogates decode to str that UTF-8 cannot encode; written raw, they could not be.
_SURROGATE_STREAM = [
    json.dumps({"txid": "\ud800", "block": 1, "inputs": [{"script": "a\udfff", "value": 2}],
                "outputs": [{"script": "\udc00\ud800", "value": 1}]}, ensure_ascii=True) + "\n"
]


@pytest.fixture(scope="module")
def stream_path(tmp_path_factory):
    return tmp_path_factory.mktemp("packed") / "s.jsonl"


@settings(max_examples=300, deadline=None)
@given(lines=_decodable_stream())
@example(lines=_EDGE_STREAM)
@example(lines=_SURROGATE_STREAM)
def test_packed_replay_equals_decoded_blocks(stream_path, lines):
    """Every pass and every replay of the packed stream repeat the decoded blocks, with the
    reference decoder's script counts, and the packed stream holds their fixed counts."""
    stream_path.write_text("".join(lines), encoding="utf-8")
    counts = [b.scripts for b in reference_iter_blocks(lines, {})]
    reference = JsonlSource(str(stream_path))
    first = list(reference.blocks())
    assert [b.scripts for b in first] == counts
    decoded = repr(first)
    assert repr(list(reference.blocks())) == decoded
    source = JsonlSource(str(stream_path))
    packed = source.pack()
    assert repr(list(packed.blocks())) == repr(list(packed.blocks())) == decoded
    assert vars(packed.stats) == vars(reference.stats)
    assert packed.fixed._counts == ReuseIndex.build_fixed(first)._counts
    assert len(source.table) == 0 and repr(list(source.blocks())) == decoded


def _side(draw, hw):
    """Ids mostly seen or next, sometimes skipping or negative; and the high-water count after."""
    sids = []
    for _ in range(draw(st.integers(0, 3))):
        sid = draw(st.integers(0, hw) | st.integers(0, hw) | st.integers(-2, hw + 2))
        hw += sid == hw
        sids.append(sid)
    return sids, hw


@st.composite
def _memory_blocks(draw):
    """Blocks as a caller might build them: indices sorted, repeated or unsorted, ids dense or
    not, and sides and blocks that are empty."""
    indices = draw(st.lists(st.integers(0, 6), max_size=5))
    if draw(st.booleans()):
        indices = sorted(set(indices))
    hw, blocks = 0, []
    for index in indices:
        txs = []
        for _ in range(draw(st.integers(0, 3))):
            ins, hw = _side(draw, hw)
            outs, hw = _side(draw, hw)
            txs.append(tx([(sid, 1) for sid in ins], [(sid, 1) for sid in outs]))
        blocks.append(block(index, *txs))
    return blocks


@settings(max_examples=500, deadline=None)
@given(blocks=_memory_blocks())
def test_memory_source_checks_and_counts_as_the_engine_scan(blocks):
    """A `MemorySource` refuses a stream with the former engine scan's message, or holds its
    blocks with that scan's counts and the fixed counts of `build_fixed` and `record`."""
    try:
        counts = reference_block_counts(blocks)
    except DataError as exc:
        with pytest.raises(DataError) as err:
            MemorySource(blocks, {})
        assert str(err.value) == str(exc)
        return
    source = MemorySource(blocks, {})
    held = list(source.blocks())
    assert [(b.index, b.transactions) for b in held] == [(b.index, b.transactions) for b in blocks]
    assert [b.scripts for b in held] == counts
    replayed = ReuseIndex()
    for b, count in zip(blocks, counts):
        replayed.register(count)
        for t in b.transactions:
            replayed.record(t)
    assert source.fixed._counts == ReuseIndex.build_fixed(blocks)._counts == replayed._counts
