import io
import re
import struct
from fractions import Fraction
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entityforge import errors
from entityforge.clusters import ROOT, ClusterSet, load_snapshot
from entityforge.engine import ReportRow
from entityforge.errors import CSV_CHUNK_ROWS, DataError

from oracles import closure_labels, refines


class TestRegister:
    def test_single_registration(self):
        store = ClusterSet()
        store.register(1)
        assert (store.num_scripts, store.num_clusters) == (1, 1)

    def test_registration_idempotent(self):
        store = ClusterSet()
        store.register(1)
        store.register(1)
        store.register(0)
        assert (store.num_scripts, store.num_clusters) == (1, 1)

    def test_batch_registration(self):
        store = ClusterSet()
        store.register(3)
        assert (store.num_scripts, store.num_clusters) == (3, 3)
        store.merge_scripts({0, 1})
        store.register(5)  # growth adds singletons and keeps the merge
        assert (store.num_scripts, store.num_clusters) == (5, 4)


class TestMerge:
    def test_basic_merge(self):
        store = ClusterSet()
        store.register(3)
        store.merge_scripts({0, 1})
        assert store.num_clusters == 2
        assert store.labels() == [0, 0, 2]

    def test_transitive_through_shared_cluster(self):
        store = ClusterSet()
        store.register(3)
        store.merge_scripts({0, 1})
        store.merge_scripts({1, 2})
        assert store.num_clusters == 1
        assert store.labels() == [0, 0, 0]

    def test_singleton_merge_is_noop(self):
        store = ClusterSet()
        store.register(3)
        assert store.merge_scripts({0}) == 0
        assert store.num_clusters == 3

    def test_empty_merge_is_noop(self):
        store = ClusterSet()
        store.register(1)
        assert store.merge_scripts(set()) == 0

    def test_merge_outside_the_store_rejected(self):
        for outside in (3, 4, -1, -4):
            store = ClusterSet()
            store.register(3)
            store.merge_scripts({0, 1})
            with pytest.raises(DataError, match=f"script id {outside} is not in the store of 3"):
                store.merge_scripts([2, 1, outside])
            # the merges made before the bad id stay counted; the forest stays valid
            assert store.num_clusters == 1
            assert store.labels() == [0, 0, 0]

    def test_decrement_equals_touched_minus_one(self):
        store = ClusterSet()
        store.register(6)
        store.merge_scripts({0, 1})
        store.merge_scripts({2, 3})
        # touches clusters {0,1}, {2,3}, {4}: three clusters -> one
        assert store.merge_scripts({1, 3, 4}) == 2
        assert store.num_clusters == 2

    def test_monotone_cluster_count(self):
        rng = Random(7)
        store = ClusterSet()
        store.register(50)
        prev = store.num_clusters
        for _ in range(100):
            group = rng.sample(range(50), rng.randrange(1, 5))
            store.merge_scripts(group)
            assert store.num_clusters <= prev
            prev = store.num_clusters


def _ratio(store):
    """The ratio of the report row `engine.run` records for the store."""
    return ReportRow(0, store.num_scripts, store.num_clusters, 0, 0).ratio


class TestQueries:
    def test_same_cluster_reflexive(self):
        store = ClusterSet()
        store.register(5)
        assert store.labels()[4] == 4

    def test_ratio_atomic_is_one(self):
        store = ClusterSet()
        store.register(5)
        assert _ratio(store) == 1

    def test_ratio_after_full_merge(self):
        store = ClusterSet()
        store.register(4)
        store.merge_scripts({0, 1, 2, 3})
        assert _ratio(store) == Fraction(1, 4)

    def test_ratio_is_exact(self):
        store = ClusterSet()
        store.register(3)
        store.merge_scripts({0, 1})
        assert _ratio(store) == Fraction(2, 3)


class TestRefinement:
    """The labeling oracle `refines`, over the store's `labels()`."""

    def test_atomic_refines_everything(self):
        fine = ClusterSet()
        fine.register(4)
        coarse = ClusterSet()
        coarse.register(4)
        coarse.merge_scripts({0, 1, 2, 3})
        assert refines(fine.labels(), coarse.labels())
        assert not refines(coarse.labels(), fine.labels())

    def test_equal_partitions_refine_both_ways(self):
        a = ClusterSet()
        b = ClusterSet()
        for store, group in ((a, {1, 2}), (b, [2, 1])):
            store.register(4)
            store.merge_scripts(group)
        assert refines(a.labels(), b.labels()) and refines(b.labels(), a.labels())

    def test_crossing_partitions_do_not_refine(self):
        a = ClusterSet()
        a.register(4)
        a.merge_scripts({0, 1})
        b = ClusterSet()
        b.register(4)
        b.merge_scripts({1, 2})
        assert not refines(a.labels(), b.labels())
        assert not refines(b.labels(), a.labels())

    def test_mismatched_script_sets_error(self):
        a = ClusterSet()
        a.register(3)
        b = ClusterSet()
        b.register(4)
        with pytest.raises(ValueError):
            refines(a.labels(), b.labels())


class TestOrderIndependence:
    def test_shuffled_merge_orders_agree(self):
        rng = Random(11)
        groups = [rng.sample(range(30), rng.randrange(2, 5)) for _ in range(25)]
        reference = None
        for trial in range(5):
            order = groups[:]
            rng.shuffle(order)
            store = ClusterSet()
            store.register(30)
            for group in order:
                store.merge_scripts(group)
            labels = store.labels()
            if reference is None:
                reference = labels
            assert labels == reference

    def test_matches_closure_oracle(self):
        rng = Random(13)
        for trial in range(10):
            n = rng.randrange(5, 40)
            groups = [rng.sample(range(n), rng.randrange(2, 5)) for _ in range(rng.randrange(0, 15))]
            store = ClusterSet()
            store.register(n)
            for group in groups:
                store.merge_scripts(group)
            assert store.labels() == closure_labels(n, groups)


class TestThroughput:
    def test_grouped_merge_rate_supports_streaming_scale(self):
        # one merge call per proposal group, the engine's hot path; this
        # asserts a floor of ~4e5 unions/s so regressions surface early
        import time
        from random import Random

        rng = Random(2)
        n = 500_000
        store = ClusterSet()
        store.register(n)
        groups = [tuple(rng.randrange(n) for _ in range(5)) for _ in range(200_000)]
        started = time.monotonic()
        for group in groups:
            store.merge_scripts(group)
        elapsed = time.monotonic() - started
        assert elapsed < 2.5, f"1e6 unions took {elapsed:.2f}s"


class TestSnapshots:
    def _two_cluster_store(self):
        store = ClusterSet()
        store.register(3)
        store.merge_scripts({0, 1})
        return store

    def test_csv_rows_use_min_label(self):
        buf = io.StringIO()
        self._two_cluster_store().write_snapshot_csv(buf)
        assert buf.getvalue() == "script_id,cluster_id\r\n0,0\r\n1,0\r\n2,2\r\n"  # csv's line ends

    def test_empty_store_header_only(self):
        buf = io.StringIO()
        ClusterSet().write_snapshot_csv(buf)
        assert buf.getvalue().splitlines() == ["script_id,cluster_id"]

    def test_csv_round_trip(self, tmp_path):
        store = self._two_cluster_store()
        path = tmp_path / "snap.csv"
        with open(path, "w", newline="") as fh:
            store.write_snapshot_csv(fh)
        assert load_snapshot(str(path)) == store.labels()

    def test_binary_round_trip(self, tmp_path):
        store = self._two_cluster_store()
        path = tmp_path / "snap.bin"
        with open(path, "wb") as fh:
            store.write_snapshot_binary(fh)
        assert path.read_bytes().startswith(b"ECLS1")
        assert load_snapshot(str(path)) == store.labels()

    def test_canonical_snapshot_loads_as_written_without_a_store(self, tmp_path):
        rng = Random(5)
        store = ClusterSet()
        store.register(500)
        for _ in range(300):
            store.merge_scripts(rng.sample(range(500), 2))
        csv_path, bin_path = tmp_path / "snap.csv", tmp_path / "snap.bin"
        with open(csv_path, "w", newline="") as fh:
            store.write_snapshot_csv(fh)
        with open(bin_path, "wb") as fh:
            store.write_snapshot_binary(fh)
        refuse = mock.Mock(side_effect=AssertionError("a canonical column built a store"))
        with mock.patch.object(ClusterSet, "register", refuse), \
                mock.patch.object(ClusterSet, "merge_scripts", refuse):
            for path in (csv_path, bin_path):
                loaded = load_snapshot(str(path))
                assert type(loaded) is list and loaded == store.labels()

    def test_one_row_off_canonical_loads_to_its_closure(self, tmp_path):
        # Script 2 is labelled 1, which is not a root's label: the file joins all three.
        csv_path, bin_path = tmp_path / "snap.csv", tmp_path / "snap.bin"
        csv_path.write_text("script_id,cluster_id\n0,0\n1,0\n2,1\n")
        bin_path.write_bytes(b"ECLS1" + struct.pack("<4Q", 3, 0, 0, 1))
        expected = closure_labels(3, [(0, 0), (1, 0), (2, 1)])
        assert expected == [0, 0, 0]
        for path in (csv_path, bin_path):
            assert load_snapshot(str(path)) == expected

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(DataError):
            load_snapshot(str(path))

    @pytest.mark.parametrize(
        "rows",
        ["x,0\n", "1\n", "1,0,0\n", "5000000,0\n", "1,5000000\n", "10000000000,0\n",
         "-1,0\n", "1,-1\n", "0,0\n", "1,1\n1,0\n", "1,1\n\n-1,0\n"],
    )
    def test_malformed_csv_row_rejected(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text("script_id,cluster_id\n0,0\n" + rows)
        line = 3 + rows.count("\n") - 1
        with pytest.raises(DataError, match=re.escape(f"snapshot {path} line {line}: ")):
            load_snapshot(str(path))

    def test_csv_rows_in_any_order_load(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("script_id,cluster_id\n2,0\n0,0\n1,1\n")
        assert load_snapshot(str(path)) == [0, 1, 0]

    @pytest.mark.parametrize("row", ["1,-1", "1,x"])
    def test_a_row_with_two_faults_is_named_by_its_repeat(self, tmp_path, row):
        # A row is checked as the truth's rows are: the id's form, its repeat,
        # the label's form, then a negative. So a repeated id masks a bad label.
        path = tmp_path / "bad.csv"
        path.write_text(f"script_id,cluster_id\n0,0\n1,0\n{row}\n")
        with pytest.raises(DataError, match=re.escape(f"snapshot {path} line 4: script id 1 repeats")):
            load_snapshot(str(path))

    @pytest.mark.parametrize(
        "body",
        [
            struct.pack("<Q2Q", 2, 0, 9),  # label 9 >= count 2
            struct.pack("<Q2Q", 2, 0, 2),  # label 2 == count 2
            struct.pack("<Q", 2) + struct.pack("<Q", 0),  # one label short
            b"\x02\x00",  # count truncated
            struct.pack("<Q2Q", 2, 0, 0) + b"\x00",  # trailing byte
        ],
    )
    def test_bad_binary_snapshot_rejected(self, tmp_path, body):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"ECLS1" + body)
        with pytest.raises(DataError):
            load_snapshot(str(path))

    def test_binary_labels_below_count_load(self, tmp_path):
        path = tmp_path / "ok.bin"
        path.write_bytes(b"ECLS1" + struct.pack("<Q2Q", 2, 1, 1))
        assert load_snapshot(str(path)) == [0, 0]


# Snapshots past the first bulk chunk: each chunk of CSV_CHUNK_ROWS rows is
# converted at once, and only a faulty file is walked again row by row. A
# fault anywhere must be named by the line the row walk names.
_SCRIPTS = 2 * CSV_CHUNK_ROWS + 500  # two full chunks and a partial third


def _chunked_snapshot(path, replace=None, blank_before=None):
    """Rows `sid,label` for every script, clusters of three; `replace` maps a
    row index to its text, and a blank line may come before one row."""
    rows = [f"{sid},{sid - sid % 3}" for sid in range(_SCRIPTS)]
    for row, text in (replace or {}).items():
        rows[row] = text
    if blank_before is not None:
        rows[blank_before] = "\n" + rows[blank_before]
    path.write_text("script_id,cluster_id\n" + "\n".join(rows) + "\n")
    return path


class TestSnapshotFaultsPastTheFirstChunk:
    N = _SCRIPTS

    @pytest.mark.parametrize("row", [CSV_CHUNK_ROWS + 1000, _SCRIPTS - 1])
    @pytest.mark.parametrize("blank", [False, True])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,{row}", "expected an integer, got 'x'"),
            ("{row},1.5", "expected an integer, got '1.5'"),
            ("{row},{row},0", "expected 2 columns, got 3"),
            ("{row}", "expected 2 columns, got 1"),
            ("5,3", "script id 5 repeats"),
            ("{N},{row}", "script id {N} is not below the {N} ids"),
            ("{row},{N}", "cluster id {N} is not below the {N} ids"),
            ("-1,0", "id -1 is negative"),
            ("{row},-4", "id -4 is negative"),
        ],
    )
    def test_fault_named_by_its_line(self, tmp_path, row, blank, text, message):
        path = _chunked_snapshot(
            tmp_path / "snap.csv", {row: text.format(row=row, N=self.N)},
            blank_before=CSV_CHUNK_ROWS + 10 if blank else None,
        )
        line = row + 2 + blank
        with pytest.raises(DataError) as err:
            load_snapshot(str(path))
        assert str(err.value) == f"snapshot {path} line {line}: {message.format(N=self.N)}"

    def test_row_fault_named_before_a_label_beyond_the_count(self, tmp_path):
        # The walk names a bad row anywhere before it checks the labels against
        # the row count, which is known only at the end.
        path = _chunked_snapshot(tmp_path / "snap.csv", {10: f"10,{self.N}", self.N - 1: "x,0"})
        with pytest.raises(DataError, match=re.escape(f"line {self.N + 1}: expected an integer")):
            load_snapshot(str(path))

    def test_first_fault_of_a_chunk_named(self, tmp_path):
        row = CSV_CHUNK_ROWS + 7
        path = _chunked_snapshot(tmp_path / "snap.csv", {row: "5,3", row + 100: "x,0"})
        with pytest.raises(DataError, match=re.escape(f"line {row + 2}: script id 5 repeats")):
            load_snapshot(str(path))

    def test_blank_lines_skipped_across_chunks(self, tmp_path):
        path = _chunked_snapshot(tmp_path / "snap.csv", blank_before=CSV_CHUNK_ROWS - 1)
        assert load_snapshot(str(path)) == [sid - sid % 3 for sid in range(self.N)]

    def test_csv_rows_in_any_order_load_across_chunks(self, tmp_path):
        rng = Random(17)
        store = ClusterSet()
        store.register(self.N)
        for _ in range(self.N // 2):
            store.merge_scripts(rng.sample(range(self.N), 2))
        rows = [f"{sid},{label}\n" for sid, label in enumerate(store.labels())]
        rng.shuffle(rows)
        path = tmp_path / "snap.csv"
        path.write_text("script_id,cluster_id\n" + "".join(rows))
        assert load_snapshot(str(path)) == store.labels()


_merge_groups = st.integers(1, 40).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4), max_size=30)
    )
)


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("snapshots")


@settings(max_examples=200, deadline=None)
@given(case=_merge_groups, chunk=st.integers(1, 5))
def test_merge_sequences_round_trip(snapshot_dir, case, chunk):
    """A random merge sequence comes back from CSV and `.bin` with its labels."""
    n, groups = case
    store = ClusterSet()
    store.register(n)
    for group in groups:
        store.merge_scripts(group)
    csv_path, bin_path = snapshot_dir / "snap.csv", snapshot_dir / "snap.bin"
    with open(csv_path, "w", newline="") as fh:
        store.write_snapshot_csv(fh)
    with open(bin_path, "wb") as fh:
        store.write_snapshot_binary(fh)
    expected = closure_labels(n, groups)
    _check_store(store, expected)
    with mock.patch.object(errors, "CSV_CHUNK_ROWS", chunk):
        for path in (csv_path, bin_path):
            assert load_snapshot(str(path)) == expected


_label_files = st.integers(1, 30).flatmap(
    lambda n: st.tuples(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), st.randoms())
)


@settings(max_examples=300, deadline=None)
@given(case=_label_files, chunk=st.integers(1, 5))
@example(case=([1, 0], Random(0)), chunk=1)  # a cycle: 0 labelled 1 and 1 labelled 0
@example(case=([1, 2, 0, 3], Random(0)), chunk=2)
def test_non_canonical_label_files_load_to_their_closure(snapshot_dir, case, chunk):
    """Any labels below n, in rows of any order, join each script with its label."""
    labels, rng = case
    n = len(labels)
    expected = closure_labels(n, list(enumerate(labels)))
    rows = [f"{sid},{label}\n" for sid, label in enumerate(labels)]
    rng.shuffle(rows)
    csv_path, bin_path = snapshot_dir / "labels.csv", snapshot_dir / "labels.bin"
    csv_path.write_text("script_id,cluster_id\n" + "".join(rows))
    bin_path.write_bytes(b"ECLS1" + struct.pack(f"<{n + 1}Q", n, *labels))
    with mock.patch.object(errors, "CSV_CHUNK_ROWS", chunk):
        for path in (csv_path, bin_path):
            assert load_snapshot(str(path)) == expected


def _roots(store):
    return {sid for sid, up in enumerate(store._parent) if up == ROOT}


def _check_store(store, expected):
    """The store's layout: each slot holds `ROOT` or a smaller id, `num_clusters` counts the
    `ROOT` slots, and the labels are `expected`."""
    parent = store._parent
    assert all(up == ROOT or 0 <= up < sid for sid, up in enumerate(parent))
    assert store.num_clusters == parent.count(ROOT)
    assert store.labels() == expected


@settings(max_examples=200, deadline=None)
@given(case=_merge_groups)
def test_every_root_is_its_clusters_least_id_after_each_merge(case):
    """Each cluster's root is its least id, so the roots are the labels' values."""
    n, groups = case
    store = ClusterSet()
    store.register(n)
    for done in range(len(groups) + 1):
        if done:
            store.merge_scripts(groups[done - 1])
        expected = closure_labels(n, groups[:done])
        _check_store(store, expected)
        assert _roots(store) == set(expected)


@settings(max_examples=300, deadline=None)
@given(case=_label_files)
@example(case=([1, 1], Random(0)))  # a label above its row, labelled with itself
@example(case=([1, 0], Random(0)))  # a cycle
@example(case=([2, 0, 1], Random(0)))
def test_every_root_is_its_clusters_least_id_after_a_load(snapshot_dir, case):
    labels, _ = case
    n = len(labels)
    expected = closure_labels(n, list(enumerate(labels)))
    csv_path, bin_path = snapshot_dir / "roots.csv", snapshot_dir / "roots.bin"
    rows = "".join(f"{sid},{label}\n" for sid, label in enumerate(labels))
    csv_path.write_text("script_id,cluster_id\n" + rows)
    bin_path.write_bytes(b"ECLS1" + struct.pack(f"<{n + 1}Q", n, *labels))
    labelled = ClusterSet.labels
    for path in (csv_path, bin_path):
        built = []
        with mock.patch.object(ClusterSet, "labels", autospec=True,
                               side_effect=lambda store: built.append(store) or labelled(store)):
            assert load_snapshot(str(path)) == expected
        for store in built:  # a non-canonical file's store, after the load's merges
            _check_store(store, expected)
            assert _roots(store) == set(expected)


class TestLabelsList:
    @pytest.mark.parametrize("groups", [[], [(2, 1)], [(3, 2), (1, 0), (0, 3)]])
    def test_changing_the_labels_leaves_the_store(self, groups):
        store = ClusterSet()
        store.register(4)
        for group in groups:
            store.merge_scripts(group)
        labels = store.labels()
        expected = list(labels)
        labels[:] = [9] * 4
        assert store.labels() == expected
        assert store.labels() is not store.labels()

    def test_descending_chain_labels_every_script_zero(self, tmp_path):
        # Linking the larger root under the smaller makes this one chain,
        # the deepest tree the merges can build.
        n = 50_000
        store = ClusterSet()
        store.register(n)
        for k in range(n - 1, 0, -1):
            assert store.merge_scripts((k - 1, k)) == 1
        assert store._parent == [ROOT, *range(n - 1)]
        assert store.labels() == [0] * n and store.num_clusters == 1
        path = tmp_path / "chain.bin"
        with open(path, "wb") as fh:
            store.write_snapshot_binary(fh)
        assert load_snapshot(str(path)) == [0] * n
        assert store.merge_scripts((n - 1, 0)) == 0  # a find from the leaf
        assert store.labels() == [0] * n
