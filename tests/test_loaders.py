"""Property tests for every input loader.

Whatever text or bytes a loader is fed, it either returns or raises an
EntityForgeError, which the CLI turns into exit 2 or 3 and one
`error[<category>]` line. Any other exception would reach the user as a
traceback.
"""

import csv
import io
import json
import re
import struct
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entityforge.chain import iter_blocks
from entityforge.cli import _parse_blocks
from entityforge.clusters import load_snapshot
from entityforge.engine import REPORT_HEADER, RatioReport, compare_runs
from entityforge.errors import (
    ConfigError,
    DataError,
    EntityForgeError,
    int_pairs,
    parse_decimal,
    parse_int,
)
from entityforge.pricing import load_price_csv
from entityforge.synth import read_truth

from oracles import reference_parse_blocks

# Small enough that the whole module runs in a few seconds.
LOADER_SETTINGS = settings(max_examples=100, deadline=None)

printable = st.characters(blacklist_categories=("Cs",))  # encodable as UTF-8

# CSV cells: mostly small numbers and near-numbers, some arbitrary text.
# Cells stay short, so no row can name a script id large enough to make a
# loader allocate much.
cell = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["", " 7", "1.5", "1e3", "NaN", "-0", "Infinity", "sNaN", "0x1"]),
    st.text(alphabet='0123456789-,."x \r\n', max_size=4),
    st.text(alphabet=printable, max_size=3),
)


def csv_text(header):
    """A header line, right or not, then rows of up to two cells more than it has."""
    first = st.one_of(st.just(",".join(header)), st.text(alphabet=printable, max_size=20))
    row = st.lists(cell, max_size=len(header) + 2).map(",".join)
    body = st.lists(row, max_size=6).map("\n".join)
    return st.tuples(first, body).map("\n".join)


json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
txo = st.fixed_dictionaries(
    {}, optional={"script": st.text(max_size=3) | json_value, "value": st.integers(-3, 50) | json_value}
)
side = st.lists(txo | json_value, max_size=3) | json_value
tx_object = st.fixed_dictionaries(
    {},
    optional={
        "txid": st.text(max_size=3) | json_value,
        "block": st.integers(-1, 3) | json_value,
        "inputs": side,
        "outputs": side,
    },
)
jsonl_line = st.one_of(
    st.text(max_size=60), json_value.map(json.dumps), tx_object.map(json.dumps)
)


def returns_or_raises_categorized(load):
    try:
        load()
    except EntityForgeError as exc:
        assert exc.category


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("loaders") / "input"


@LOADER_SETTINGS
@given(lines=st.lists(jsonl_line, min_size=1, max_size=3))
def test_jsonl_lines(lines):
    returns_or_raises_categorized(lambda: list(iter_blocks(lines, {})))


@LOADER_SETTINGS
@given(text=csv_text(["block_index", "usd_per_btc"]))
def test_price_csv(text):
    returns_or_raises_categorized(lambda: load_price_csv(io.StringIO(text, newline="")))


@LOADER_SETTINGS
@given(
    data=csv_text(REPORT_HEADER).map(str.encode) | st.binary(max_size=40),
    sidecar=st.one_of(
        st.none(),
        st.binary(max_size=20),
        json_value.map(json.dumps).map(str.encode),
        st.fixed_dictionaries({"heuristic": json_value}).map(json.dumps).map(str.encode),
    ),
)
def test_report_csv(scratch, data, sidecar):
    scratch.write_bytes(data)
    meta = scratch.with_name(scratch.name + ".meta.json")
    if sidecar is None:
        meta.unlink(missing_ok=True)
    else:
        meta.write_bytes(sidecar)
    # compare reads each report, then names its column by the sidecar's heuristic.
    returns_or_raises_categorized(lambda: compare_runs([RatioReport.read(str(scratch))] * 2))


@LOADER_SETTINGS
@given(data=csv_text(["script_id", "user_id"]).map(str.encode) | st.binary(max_size=40))
def test_truth_csv(scratch, data):
    scratch.write_bytes(data)
    returns_or_raises_categorized(lambda: read_truth(str(scratch)))


@LOADER_SETTINGS
@given(data=csv_text(["script_id", "cluster_id"]).map(str.encode) | st.binary(max_size=40))
def test_csv_snapshot(scratch, data):
    scratch.write_bytes(data)
    returns_or_raises_categorized(lambda: load_snapshot(str(scratch)))


@LOADER_SETTINGS
@given(text=cell | st.from_regex(r"-?[0-9]+", fullmatch=True), other=cell)
def test_integer_fields_are_minus_then_ascii_digits(scratch, text, other):
    """Row by row and a chunk at a time, a field is an integer only if it is
    an optional `-` and then ASCII digits."""
    def strict(field):
        return int(field) if re.fullmatch(r"-?[0-9]+", field) else None

    value = strict(text)
    try:
        parsed = parse_int(text, "here")
    except DataError as exc:
        assert value is None and str(exc) == f"here: expected an integer, got {text!r}"
    else:
        assert parsed == value
    second = (value or 0) + 1  # an id the first row's cannot repeat
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([["a", "b"], [text, "0"], [str(second), other]])
    scratch.write_text(buf.getvalue(), encoding="utf-8", newline="")
    both = (value, strict(other))
    try:
        pairs = int_pairs(str(scratch), ["a", "b"], "here", dense=False)
    except DataError as exc:
        assert None in both
        assert str(exc).endswith(f": expected an integer, got {text if value is None else other!r}")
    else:
        assert pairs == {value: 0, second: both[1]}


def _strict_decimal(text):
    """The decimal form, checked a part at a time: an optional `-`, ASCII digits
    with at most one `.`, then optionally `e` or `E` and ASCII digits with one sign."""
    def digits(part):
        return part != "" and all(c in "0123456789" for c in part)

    mantissa, mark, exponent = text.replace("E", "e").partition("e")
    mantissa = mantissa[1:] if mantissa.startswith("-") else mantissa
    exponent = exponent[1:] if exponent[:1] in ("+", "-") else exponent
    return digits(mantissa.replace(".", "", 1)) and (not mark or digits(exponent))


@LOADER_SETTINGS
@given(text=cell | st.text(alphabet="0123456789-+.eE_ ", max_size=8)
       | st.from_regex(r"-?[0-9]{0,3}\.?[0-9]{0,3}([eE][-+]?[0-9]{1,3})?", fullmatch=True))
def test_decimal_fields_are_minus_digits_point_and_exponent(text):
    value = parse_decimal(text)
    if _strict_decimal(text):
        assert value == Decimal(text) and str(value) == str(Decimal(text))
    else:
        assert value is None


def _binary_snapshot(count, labels, tail):
    return struct.pack("<Q", count) + struct.pack(f"<{len(labels)}Q", *labels) + tail


binary_body = st.one_of(
    st.binary(max_size=40),
    st.builds(
        _binary_snapshot,
        st.integers(0, 5) | st.integers(0, 2**64 - 1),
        st.lists(st.integers(0, 6) | st.integers(0, 2**64 - 1), max_size=6),
        st.binary(max_size=3),
    ),
)


@LOADER_SETTINGS
@given(body=binary_body)
def test_binary_snapshot(scratch, body):
    scratch.write_bytes(b"ECLS1" + body)
    returns_or_raises_categorized(lambda: load_snapshot(str(scratch)))


# `--blocks` items: indices and ranges, well formed or not, some arbitrary
# text. Numbers stay small, so the reference's flat list stays small too.
blocks_item = st.one_of(
    st.integers(-5, 30).map(str),
    st.lists(st.integers(-5, 30).map(str), min_size=2, max_size=4).map(":".join),
    st.text(alphabet="0123:,- x", max_size=5),
)


@LOADER_SETTINGS
@given(text=st.lists(blocks_item, max_size=4).map(",".join))
def test_blocks_flatten_to_reference(text):
    try:
        expected = reference_parse_blocks(text)
    except ConfigError as exc:
        with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
            _parse_blocks(text)
    else:
        assert [b for r in _parse_blocks(text) for b in r] == expected
