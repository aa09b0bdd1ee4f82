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
    iter_blocks,
    validate_transaction,
)
from entityforge.errors import DataError, IngestError, ValidationError
from entityforge.reuse import ReuseIndex

from conftest import block, collect, tx
from oracles import as_columns, recount_usage, reference_block_counts, reference_iter_blocks
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
        table, blocks = {}, []
        coinbase_dropped = collect(iter_blocks(io.StringIO(text), table), blocks)
        assert coinbase_dropped == 1
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
    """Blocks yielded, table, coinbase count returned and the error, if any, of one decode."""
    table, blocks = {}, []
    coinbase_dropped = error = None
    try:
        coinbase_dropped = collect(decode(lines, table), blocks)
    except Exception as exc:
        error = (type(exc), getattr(exc, "category", None), str(exc))
    # repr shows the record types and tells True from 1
    return repr(to_columns(blocks)), list(table.items()), coinbase_dropped, error


def _wide_line(block, i):
    """The `i`th line of a wide block: a coinbase every seventh, else a payment whose
    1-3 inputs and 1-2 outputs mix new and seen scripts."""
    if i % 7 == 0:
        return _line(f"cb{block}", block, [], [(f"m{block}", 50)])
    inputs = [(f"s{(i * k) % 23}", 10 + i + k) for k in range(1 + i % 3)]
    outputs = [(f"s{i + 40}", 9 + i), (f"s{i % 5}", 1)][:1 + i % 2]
    return _line(f"t{block}-{i}", block, inputs, outputs)


# Two blocks of 50 lines; then the second block cut short by an invalid line.
_WIDE_STREAM = [_wide_line(block, i) for block in (3, 8) for i in range(50)]
_MID_BLOCK_ERRORS = [
    _line("bad", 8, [("a", 5)], [("b", 4), ("c", 3)]),  # outputs above inputs
    _line("bad", 8, [("a", 5)], [("b", 4)]).replace('"value": 4', '"valu": 4'),
]
# A coinbase line at a later block, then a kept line at an earlier one.
_OUT_OF_ORDER_COINBASE = [_line("cb", 5, [], [("m", 50)]), _line("t", 4, [("a", 5)], [("b", 4)])]
# Coinbase lines only, sorted: no block of their own.
_COINBASE_ONLY = [_line(f"cb{k}", block, [], [(f"m{k}", 50)]) for k, block in enumerate((9, 9, 12))]


@settings(max_examples=1000, deadline=None)
@given(lines=st.lists(jsonl_line | st.sampled_from(EDGE_LINES), max_size=6))
@example(lines=_WIDE_STREAM)
@example(lines=_WIDE_STREAM[:70] + _MID_BLOCK_ERRORS[:1] + _WIDE_STREAM[70:])
@example(lines=_WIDE_STREAM[:70] + _MID_BLOCK_ERRORS[1:])
@example(lines=_OUT_OF_ORDER_COINBASE)
@example(lines=_OUT_OF_ORDER_COINBASE[:1] + [_line("cb2", 4, [], [("n", 50)])])
@example(lines=_WIDE_STREAM[:50] + _COINBASE_ONLY)
@example(lines=_COINBASE_ONLY)
def test_decoder_matches_reference(lines):
    """Same blocks, interning order and coinbase count, or the same error, as the reference."""
    expected = _decode_outcome(reference_iter_blocks, lines, as_columns)
    assert _decode_outcome(iter_blocks, lines) == expected


# Over 8,400 new scripts in five blocks: each line spends a new script `s<i>` and pays a new
# `o<i>` and a seen `s<i//2>`, and every tenth line also spends `x<i>`, a script a
# non-empty starting table may already hold.
_MANY_NEW_SCRIPTS = [
    _line(f"t{i}", i // 1000, [(f"s{i}", 5)] + [(f"x{i}", 1)] * (i % 10 == 0),
          [(f"o{i}", 3), (f"s{i // 2}", 2)])
    for i in range(4200)
]


@pytest.mark.parametrize("held", [0, 3000])
def test_decoder_ids_cross_runs_densely(held):
    """Past several runs of new ids, and into a table that holds `held` scripts already,
    the decoder gives the reference's blocks and table: each new script the next id."""
    start = {f"x{3 * k}": k for k in range(held)}  # a third of the stream's `x<i>` among them
    table, reference_table = dict(start), dict(start)
    blocks, reference_blocks = [], []
    assert collect(iter_blocks(_MANY_NEW_SCRIPTS, table), blocks) == 0
    collect(reference_iter_blocks(_MANY_NEW_SCRIPTS, reference_table), reference_blocks)
    assert blocks == as_columns(reference_blocks)
    assert list(table.items()) == list(reference_table.items())
    first_seen = dict.fromkeys(entry["script"] for line in map(json.loads, _MANY_NEW_SCRIPTS)
                               for entry in line["inputs"] + line["outputs"]
                               if entry["script"] not in start)
    assert list(table)[held:] == list(first_seen) and len(first_seen) > 8192
    assert list(table.values()) == list(range(len(table)))


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
    assert packed.coinbase_dropped == reference.coinbase_dropped
    assert packed.fixed._counts == ReuseIndex.build_fixed(first)._counts
    assert len(source.table) == 0 and repr(list(source.blocks())) == decoded


def _strict_lines(data: bytes, path: str):
    """`data`'s lines as text mode splits them, each decoded as strict UTF-8 on its own; the
    first that is not UTF-8 raises `JsonlSource`'s error for it, naming the byte's offset."""
    for lineno, line in enumerate(data.splitlines(keepends=True), start=1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path}: cannot read the stream: line {lineno}: "
                              f"byte 0x{line[exc.start]:02x} at offset {exc.start} is not UTF-8")


def _jsonl_pass(path: str):
    """A decode for `_decode_outcome`: one `JsonlSource` pass over `path`, its lines unused."""
    def decode(_, table):
        source = JsonlSource(path)
        try:
            yield from source.blocks()
        finally:
            table.update(source.table)
        return source.coinbase_dropped
    return decode


def _write_stream(path, data: bytes) -> str:
    path.write_bytes(gzip.compress(data) if path.name.endswith(".gz") else data)
    return str(path)


# Valid UTF-8 beyond ASCII: two- to four-byte characters, a leading no-break space that
# `str.strip` drops, and U+2028 and U+0085, which text mode does not split lines at.
_NON_ASCII_STREAM = (
    '\u00a0{"txid": "té", "block": 1, "inputs": [{"script": "café", "value": 5}, '
    '{"script": "\U0001f600", "value": 1}], "outputs": [{"script": "\u2028\x85", "value": 4}]}\r\n'
    + PAY.replace('"b"', '"€"') + "\n"
    + PAY.replace('"a"', '"café"').replace('"block": 1', '"block": 2') + "\n"
).encode()


class TestBytesNotUTF8:
    """A byte that is not UTF-8 is named at its own line, so a stream's first fault in
    file order is the one reported, in plain and gzip files alike."""

    @pytest.mark.parametrize("name", ["s.jsonl", "s.jsonl.gz"])
    @pytest.mark.parametrize("bad", [5, 200])
    def test_first_fault_in_file_order_is_reported(self, tmp_path, name, bad):
        lines = [PAY.encode() + b"\n"] * 300
        lines[1] = b'{"txid":\n'
        lines[bad - 1] = lines[bad - 1].replace(b'"a"', b'"p\xff"')
        path = _write_stream(tmp_path / name, b"".join(lines))
        with pytest.raises(IngestError) as err:
            list(JsonlSource(path).blocks())
        assert err.value.category == "ingest"
        assert str(err.value) == "line 2: invalid JSON: Expecting value: line 1 column 9 (char 8)"

    @pytest.mark.parametrize("name", ["s.jsonl", "s.jsonl.gz"])
    def test_bad_byte_after_multibyte_text_is_named_at_its_byte_offset(self, tmp_path, name):
        # The byte follows ` {"txid": "t", "block": 1, "inputs": [{"script": "café`: 54
        # characters, 55 bytes.
        bad_line = PAY.replace('"a"', '"café€').encode().replace(b"\xe2\x82\xac", b"\xfe\"")
        path = _write_stream(tmp_path / name, (PAY + "\n").encode() + b" " + bad_line + b"\n")
        with pytest.raises(IngestError) as err:
            list(JsonlSource(path).blocks())
        assert err.value.category == "ingest"
        assert str(err.value) == (f"{path}: cannot read the stream: "
                                  "line 2: byte 0xfe at offset 55 is not UTF-8")

    # Each text before the escaped byte is 50 characters: 51 bytes with `é`, 52 with a lone
    # surrogate that no decoder makes but a caller's own lines may hold.
    @pytest.mark.parametrize("script, offset", [("é\udcff", 51), ("\ud800\udcff", 52)])
    def test_escaped_byte_in_a_str_line_is_named_at_its_line(self, script, offset):
        lines = [PAY + "\n", PAY.replace('"a"', f'"{script}"') + "\n"]
        with pytest.raises(IngestError) as err:
            list(iter_blocks(lines, {}))
        assert err.value.category == "ingest"
        assert str(err.value) == f"line 2: byte 0xff at offset {offset} is not UTF-8"

    @pytest.mark.parametrize("name", ["s.jsonl", "s.jsonl.gz"])
    def test_valid_non_ascii_text_decodes_as_strict_utf8(self, tmp_path, name):
        path = _write_stream(tmp_path / name, _NON_ASCII_STREAM)
        outcome = _decode_outcome(_jsonl_pass(path), None)
        assert outcome == _decode_outcome(reference_iter_blocks,
                                          _strict_lines(_NON_ASCII_STREAM, path), as_columns)
        assert outcome[1] == [("café", 0), ("\U0001f600", 1), ("\u2028\x85", 2),
                              ("a", 3), ("€", 4), ("b", 5)]

    @pytest.mark.parametrize("line, outcome", [
        (b'{"txid": "t", "block": 1, "inputs": [{"script": "p\xff", "value": 2}], '
         b'"outputs": [{"script": "b", "value": 1}]}\n',
         "line 1: invalid JSON: 'utf-8' codec can't decode byte 0xff in position 50: "
         "invalid start byte"),
        (b'{"txid": "t", "block": 1, "inputs": [{"script": "caf\xc3\xa9", "value": 2}], '
         b'"outputs": [{"script": "b", "value": 1}]}\n',
         [("café", 0), ("b", 1)]),
    ], ids=["not-utf8", "utf8"])
    def test_bytes_lines_are_decoded_by_json(self, line, outcome):
        """Bytes lines are not checked for escapes: `json.loads` decodes them, or says why not."""
        table = {}
        try:
            blocks = list(iter_blocks([line], table))
        except IngestError as exc:
            assert (exc.category, str(exc)) == ("ingest", outcome)
        else:
            assert list(table.items()) == outcome
            assert [(b.index, b.scripts, len(b.transactions)) for b in blocks] == [(1, 2, 1)]


@settings(max_examples=300, deadline=None)
@given(lines=_decodable_stream(), gz=st.booleans(), data=st.data())
def test_bad_bytes_are_named_where_strict_decoding_first_fails(stream_path, lines, gz, data):
    """Bytes that are not UTF-8, put anywhere in a valid stream, and perhaps a line of
    invalid JSON: a pass fails as the line-by-line strict-decode reference does."""
    stream = bytearray("".join(lines).encode())
    for bad in data.draw(st.lists(st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]),
                                  min_size=1, max_size=3)):
        at = data.draw(st.integers(0, len(stream)))
        stream[at:at] = bad
    if data.draw(st.booleans()):
        at = data.draw(st.sampled_from([0] + [k + 1 for k, c in enumerate(stream) if c == 10]))
        stream[at:at] = b'{"txid":\n'
    path = _write_stream(stream_path.with_name("s.jsonl.gz" if gz else "s.jsonl"), bytes(stream))
    expected = _decode_outcome(reference_iter_blocks, _strict_lines(bytes(stream), path), as_columns)
    assert expected[3] is not None
    assert _decode_outcome(_jsonl_pass(path), None) == expected


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
    blocks with that scan's counts and fixed counts equal to a naive recount."""
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
    naive = recount_usage(blocks)
    recounted = [naive.get(sid, 0) for sid in range(counts[-1] if counts else 0)]
    assert source.fixed._counts == ReuseIndex.build_fixed(held)._counts == recounted
