import io
from pathlib import Path

import pytest

from entityforge.chain import ScriptTable, iter_blocks
from entityforge.clusters import ClusterSet
from entityforge.engine import RunConfig, run
from entityforge.errors import DataError, GenerationError
from entityforge.synth import GenParams, generate_files, read_truth, score

from conftest import generate_text
from oracles import refines


def _parse(text):
    table = ScriptTable()
    blocks = list(iter_blocks(io.StringIO(text), table))
    return blocks, table


def _source(text, tmp_path, name="s.jsonl"):
    from entityforge.chain import JsonlSource

    path = tmp_path / name
    path.write_text(text)
    return JsonlSource(str(path))


class TestDeterminism:
    def test_same_seed_same_stream(self):
        params = GenParams(users=5, blocks=6, txs_per_block=5)
        a = generate_text(7, params)
        b = generate_text(7, params)
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert a[2] == b[2]

    def test_different_seeds_differ(self):
        params = GenParams(users=5, blocks=6, txs_per_block=5)
        assert generate_text(1, params)[0] != generate_text(2, params)[0]

    def test_generated_files_byte_identical(self, tmp_path):
        params = GenParams(users=5, blocks=5, txs_per_block=5)
        p1 = generate_files(str(tmp_path / "one"), 3, params)
        p2 = generate_files(str(tmp_path / "two"), 3, params)
        for key in ("jsonl", "truth", "meta"):
            assert Path(p1[key]).read_bytes() == Path(p2[key]).read_bytes()


class TestStreamValidity:
    def test_stream_parses_and_validates(self):
        text, truth, meta = generate_text(11, GenParams(users=8, blocks=10, txs_per_block=10))
        blocks, table = _parse(text)
        assert sum(len(b.transactions) for b in blocks) == meta["counts"]["transactions"]
        assert len(table) == meta["counts"]["scripts"]

    def test_fee_never_negative(self):
        text, _, _ = generate_text(12, GenParams(users=6, blocks=8, txs_per_block=8))
        blocks, _ = _parse(text)  # ingestion validates v_in >= v_out
        for b in blocks:
            for t in b.transactions:
                assert sum(t.in_values) >= sum(t.out_values)

    def test_truth_covers_every_observed_script(self):
        text, truth, _ = generate_text(13, GenParams(users=6, blocks=8, txs_per_block=8))
        _, table = _parse(text)
        assert set(truth) == set(range(len(table)))

    def test_block_indices_dense_from_zero(self):
        text, _, _ = generate_text(14, GenParams(users=4, blocks=7, txs_per_block=4))
        blocks, _ = _parse(text)
        assert [b.index for b in blocks] == list(range(7))

    def test_params_echoed_in_metadata(self):
        params = GenParams(users=4, blocks=3, txs_per_block=4, coinjoin_rate=0.2)
        _, _, meta = generate_text(15, params)
        assert meta["params"]["coinjoin_rate"] == 0.2
        assert meta["seed"] == 15


class TestParamValidation:
    def test_single_user_rejected(self):
        with pytest.raises(GenerationError):
            GenParams(users=1)

    def test_bad_probability_rejected(self):
        with pytest.raises(GenerationError):
            GenParams(fresh_change_prob=1.5)

    def test_unknown_key_rejected(self):
        with pytest.raises(GenerationError):
            GenParams.from_dict({"wat": 1})

    @pytest.mark.parametrize(
        "raw",
        [{"users": "six"}, {"users": 6.0}, {"blocks": True}, {"coinjoin_rate": "0.1"},
         {"coinjoin_rate": False}, {"round_exponent": None}],
    )
    def test_wrongly_typed_value_rejected(self, raw):
        (name,) = raw
        with pytest.raises(GenerationError, match=name):
            GenParams.from_dict(raw)

    def test_non_object_rejected(self):
        with pytest.raises(GenerationError):
            GenParams.from_dict(["users"])

    def test_int_accepted_for_float_field(self):
        assert GenParams.from_dict({"coinjoin_rate": 0, "users": 3}).coinjoin_rate == 0

    def test_unfunded_users_cannot_pay(self):
        params = GenParams(users=2, blocks=2, txs_per_block=3, initial_balance=0, endowment_utxos=1)
        with pytest.raises(GenerationError):
            generate_text(1, params)


def _h5_shape_possible(t):
    """Index-free part of the forced-merge conditions (a, b, e)."""
    in_scripts = set(t.in_scripts)
    if len(t.in_scripts) < 2 or len(in_scripts) != len(t.in_scripts):
        return False
    if len(t.out_scripts) != 2 or t.out_scripts[0] == t.out_scripts[1]:
        return False
    if t.out_values[0] == t.out_values[1]:
        return False
    return sum(t.in_values) - min(t.in_values) < max(t.out_values)


class TestBehaviorKnobs:
    def test_zero_consolidation_never_permits_forced_merge(self):
        text, _, _ = generate_text(
            21,
            GenParams(
                users=8, blocks=12, txs_per_block=10,
                consolidation_rate=0.0, coinjoin_rate=0.1, deposit_sweep_rate=0.2,
                deposit_min_inputs=4, multi_pay_rate=0.2,
            ),
        )
        blocks, _ = _parse(text)
        for b in blocks:
            for t in b.transactions:
                assert not _h5_shape_possible(t)

    def test_consolidations_trigger_forced_merge(self, tmp_path):
        text, _, meta = generate_text(
            22,
            GenParams(
                users=5, blocks=10, txs_per_block=8,
                consolidation_rate=0.4, fresh_change_prob=1.0, address_reuse_prob=0.0,
            ),
        )
        assert meta["counts"]["consolidations"] > 0
        report, _ = run(
            RunConfig("force-merge", horizon="online", checkpoint_interval=100),
            _source(text, tmp_path),
        )
        assert report.metadata["counts"]["merges_applied"] > 0

    def test_zero_coinjoin_makes_cio_variants_identical(self, tmp_path):
        text, _, _ = generate_text(
            23, GenParams(users=6, blocks=10, txs_per_block=8, coinjoin_rate=0.0)
        )
        _, h1 = run(RunConfig("cio", checkpoint_interval=100), _source(text, tmp_path, "a.jsonl"))
        _, h2 = run(RunConfig("cio-cj", checkpoint_interval=100), _source(text, tmp_path, "b.jsonl"))
        assert h1.labels() == h2.labels()

    def test_zero_coinjoin_never_trips_default_detector(self):
        from entityforge.heuristics import is_coinjoin

        text, _, _ = generate_text(
            26,
            GenParams(
                users=8, blocks=14, txs_per_block=10, coinjoin_rate=0.0,
                multi_pay_rate=0.5, consolidation_rate=0.2,
                deposit_sweep_rate=0.3, deposit_min_inputs=4,
            ),
        )
        blocks, _ = _parse(text)
        for b in blocks:
            for t in b.transactions:
                assert not is_coinjoin(t)

    def test_coinjoins_split_the_cio_variants(self, tmp_path):
        text, _, meta = generate_text(
            24, GenParams(users=6, blocks=12, txs_per_block=8, coinjoin_rate=0.4)
        )
        assert meta["counts"]["coinjoins"] > 0
        _, h1 = run(RunConfig("cio", checkpoint_interval=100), _source(text, tmp_path, "a.jsonl"))
        _, h2 = run(RunConfig("cio-cj", checkpoint_interval=100), _source(text, tmp_path, "b.jsonl"))
        assert h2.num_clusters > h1.num_clusters
        assert refines(h2.labels(), h1.labels())

    def test_sweeps_have_min_inputs_and_merge_fully(self, tmp_path):
        text, truth, meta = generate_text(
            25,
            GenParams(
                users=6, blocks=15, txs_per_block=8,
                deposit_sweep_rate=0.5, deposit_min_inputs=5, service_payee_prob=0.5,
            ),
        )
        assert meta["counts"]["sweeps"] > 0
        from entityforge.heuristics import HeuristicConfig

        blocks, table = _parse(text)
        _, store = run(
            RunConfig("deposit", params=HeuristicConfig(min_deposit_inputs=5), checkpoint_interval=100),
            _source(text, tmp_path),
        )
        sweeps = 0
        for b in blocks:
            for t in b.transactions:
                in_scripts = set(t.in_scripts)
                if len(set(t.out_scripts)) == 1 and len(in_scripts) >= 5:
                    sweeps += 1
                    assert len({store.find(s) for s in in_scripts}) == 1
                    # sweep inputs all belong to the service user
                    assert len({truth[s] for s in in_scripts}) == 1
        assert sweeps == meta["counts"]["sweeps"]


class TestScore:
    def _store(self, n):
        store = ClusterSet()
        store.register(n)
        return store

    def test_perfect_partition(self):
        truth = {0: 0, 1: 0, 2: 1, 3: 1}
        store = self._store(4)
        store.merge_scripts({0, 1})
        store.merge_scripts({2, 3})
        metrics = score(store, truth)
        assert metrics["pairwise_precision"] == 1.0
        assert metrics["pairwise_recall"] == 1.0
        assert metrics["cluster_collapse"] == 0

    def test_atomic_partition_convention(self):
        truth = {0: 0, 1: 0, 2: 1}
        metrics = score(self._store(3), truth)
        assert metrics["pairwise_precision"] == 1.0  # vacuous: no claimed pairs
        assert metrics["pairwise_recall"] == 0.0
        assert metrics["cluster_collapse"] == 0

    def test_collapsed_cluster_counted(self):
        truth = {0: 0, 1: 1, 2: 1}
        store = self._store(3)
        store.merge_scripts({0, 1, 2})
        metrics = score(store, truth)
        assert metrics["cluster_collapse"] == 1
        assert metrics["pairwise_precision"] == pytest.approx(1 / 3)
        assert metrics["pairwise_recall"] == 1.0

    def test_unknown_truth_script_rejected(self):
        for sid in (5, 2, -1):
            with pytest.raises(DataError, match=f"truth script {sid} is not in the partition"):
                score(self._store(2), {0: 0, sid: 1})

    def test_partition_extras_ignored(self):
        truth = {0: 0, 1: 0}
        store = self._store(5)
        store.merge_scripts({0, 1})
        store.merge_scripts({3, 4})
        metrics = score(store, truth)
        assert metrics["pairwise_precision"] == 1.0
        assert metrics["pairwise_recall"] == 1.0
        assert metrics["scripts"] == 2

    def test_truth_round_trip(self, tmp_path):
        params = GenParams(users=4, blocks=4, txs_per_block=4)
        paths = generate_files(str(tmp_path / "x"), 5, params)
        _, truth, _ = generate_text(5, params)
        assert read_truth(paths["truth"]) == truth

    @pytest.mark.parametrize("rows", ["x,1\n", "0\n", "0,1,2\n", "0,1.5\n", "0,1\n"])
    def test_malformed_truth_row_rejected(self, tmp_path, rows):
        path = tmp_path / "truth.csv"
        path.write_text("script_id,user_id\n0,0\n" + rows)
        with pytest.raises(DataError, match="line 3"):
            read_truth(str(path))
