import gc
import gzip
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from entityforge.cli import main
from entityforge.synth import GenParams, generate_files

CONSTANT_PRICES = "block_index,usd_per_btc\n0,10000\n"
REPORT_HEADER = "block_index,num_scripts,num_clusters,ratio,merges_applied,tx_processed\n"
SAMPLE_PRICES = str(Path(__file__).resolve().parent.parent / "data" / "sample_prices.csv")

ONE_TX = (
    '{"txid":"t1","block":100,"inputs":[{"script":"pA","value":5},'
    '{"script":"pB","value":4}],"outputs":[{"script":"pC","value":8}]}\n'
)


def _cli(*argv, **env):
    """Run the CLI in a child process, in this environment plus `env`.

    Inheriting the environment matters: the suite may run from a source
    checkout through PYTHONPATH rather than an installed package.
    """
    return subprocess.run(
        [sys.executable, "-m", "entityforge.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, **env),
    )


@pytest.fixture
def stream(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(ONE_TX)
    return str(path)


@pytest.fixture
def synth_files(tmp_path):
    params = GenParams(
        users=6, blocks=10, txs_per_block=8, consolidation_rate=0.1, coinjoin_rate=0.0
    )
    return generate_files(str(tmp_path / "synth"), 42, params)


class TestRun:
    def test_stdout_report(self, stream, capsys):
        assert main(["run", "--tx", stream, "--heuristic", "cio", "--checkpoints", "100"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "block_index,num_scripts,num_clusters,ratio,merges_applied,tx_processed"
        assert out[1] == "100,3,2,0.666667,1,1"

    def test_deposit_threshold_row(self, stream, capsys):
        assert main(["run", "--tx", stream, "--heuristic", "deposit", "--a", "25", "--checkpoints", "100"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "100,3,3,1.000000,0,1"

    def test_round_without_prices_fails_usage(self, stream, capsys):
        assert main(["run", "--tx", stream, "--heuristic", "round"]) == 2
        assert "--prices" in capsys.readouterr().err

    def test_report_and_snapshot_files(self, stream, tmp_path):
        out = tmp_path / "r.csv"
        snap = tmp_path / "snap.csv"
        code = main(
            ["run", "--tx", stream, "--heuristic", "cio", "--checkpoints", "100",
             "--out", str(out), "--snapshot", str(snap)]
        )
        assert code == 0
        assert out.read_text().splitlines()[1] == "100,3,2,0.666667,1,1"
        meta = json.loads((tmp_path / "r.meta.json").read_text())
        assert meta["heuristic"] == "cio"
        assert snap.read_text().splitlines()[0] == "script_id,cluster_id"

    def test_combined_with_prices(self, synth_files, tmp_path, capsys):
        prices = tmp_path / "p.csv"
        prices.write_text(CONSTANT_PRICES)
        code = main(
            ["run", "--tx", synth_files["jsonl"], "--heuristic", "combined",
             "--prices", str(prices), "--checkpoints", "5,9"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3

    def test_bad_data_exits_three(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"txid":"t","block":1,"inputs":[{"script":"a","value":1}],"outputs":[{"script":"b","value":9}]}\n')
        assert main(["run", "--tx", str(path), "--heuristic", "cio"]) == 3
        assert "error[value-inflation]" in capsys.readouterr().err

    def test_missing_file_exits_three(self, tmp_path):
        assert main(["run", "--tx", str(tmp_path / "none.jsonl"), "--heuristic", "cio"]) == 3

    def test_unknown_heuristic_exits_two(self, stream):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--tx", stream, "--heuristic", "wat"])
        assert exc.value.code == 2

    def test_horizon_flag_accepted(self, synth_files, capsys):
        code = main(
            ["run", "--tx", synth_files["jsonl"], "--heuristic", "change",
             "--horizon", "online", "--checkpoints", "9"]
        )
        assert code == 0

    def test_config_file_supplies_defaults(self, stream, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"checkpoints": "100", "a": 2}))
        assert main(["run", "--tx", stream, "--heuristic", "deposit", "--config", str(config)]) == 0
        # a=2 from the config file: the two-input sweep now merges
        assert capsys.readouterr().out.splitlines()[1] == "100,3,2,0.666667,1,1"

    def test_flags_override_config_file(self, stream, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"checkpoints": "100", "a": 2}))
        assert main(["run", "--tx", stream, "--heuristic", "deposit",
                     "--config", str(config), "--a", "25"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "100,3,3,1.000000,0,1"

    def test_unknown_config_key_exits_two(self, stream, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"wat": 1}))
        assert main(["run", "--tx", stream, "--heuristic", "cio", "--config", str(config)]) == 2

    def test_binary_snapshot_by_extension(self, stream, tmp_path, capsys):
        snap = tmp_path / "snap.bin"
        assert main(["run", "--tx", stream, "--heuristic", "cio",
                     "--checkpoints", "100", "--snapshot", str(snap)]) == 0
        capsys.readouterr()
        assert snap.read_bytes().startswith(b"ECLS1")
        from entityforge.clusters import load_snapshot

        assert load_snapshot(str(snap)).num_scripts == 3


class TestSynthAndScore:
    def test_synth_writes_three_files(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"users": 4, "blocks": 4, "txs_per_block": 4}))
        code = main(["synth", "--seed", "1", "--params", str(params), "--out-prefix", str(tmp_path / "x")])
        assert code == 0
        paths = json.loads(capsys.readouterr().out)
        for key in ("jsonl", "truth", "meta"):
            assert (tmp_path / f"x{'.jsonl' if key == 'jsonl' else '.' + key + ('.csv' if key == 'truth' else '.json')}").exists() or paths[key]

    def test_synth_deterministic_across_invocations(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"users": 4, "blocks": 4, "txs_per_block": 4}))
        main(["synth", "--seed", "9", "--params", str(params), "--out-prefix", str(tmp_path / "a")])
        main(["synth", "--seed", "9", "--params", str(params), "--out-prefix", str(tmp_path / "b")])
        capsys.readouterr()
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        main(["synth", "--seed", "10", "--params", str(params), "--out-prefix", str(tmp_path / "c")])
        capsys.readouterr()
        assert (tmp_path / "a.jsonl").read_bytes() != (tmp_path / "c.jsonl").read_bytes()

    def test_synth_missing_params_file_exits_three(self, tmp_path):
        assert main(["synth", "--seed", "1", "--params", str(tmp_path / "no.json"), "--out-prefix", str(tmp_path / "x")]) == 3

    def test_synth_bad_params_exit_three(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"users": 1}))
        assert main(["synth", "--seed", "1", "--params", str(params), "--out-prefix", str(tmp_path / "x")]) == 3

    def test_score_pipeline(self, synth_files, tmp_path, capsys):
        snap = tmp_path / "snap.csv"
        main(["run", "--tx", synth_files["jsonl"], "--heuristic", "cio",
              "--checkpoints", "9", "--out", str(tmp_path / "r.csv"), "--snapshot", str(snap)])
        code = main(["score", "--snapshot", str(snap), "--truth", synth_files["truth"]])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["pairwise_precision"] == 1.0  # no coinjoins in this stream
        assert 0.0 <= metrics["pairwise_recall"] <= 1.0
        assert metrics["cluster_collapse"] == 0


class TestMalformedInputs:
    """A bad row ends in exit 3 and one error line that names it, never a traceback."""

    def assert_data_error(self, proc, where):
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error[data]: ")
        assert where in proc.stderr

    @pytest.mark.parametrize("rows", ["abc,100\n", "1.5,100\n"])
    def test_non_integer_price_block(self, stream, tmp_path, rows):
        prices = tmp_path / "prices.csv"
        prices.write_text("block_index,usd_per_btc\n0,10000\n" + rows)
        self.assert_data_error(
            _cli("exponent-series", "--prices", str(prices), "--blocks", "1"),
            f"price file {prices} line 3: ",
        )
        self.assert_data_error(
            _cli("run", "--tx", stream, "--heuristic", "round", "--prices", str(prices)),
            f"price file {prices} line 3: ",
        )

    @pytest.mark.parametrize("row, error", [
        ("1,x", "bad price 'x'"),
        ("1,inf", "bad price 'inf'"),
        ("0,20000", "price series block indices must strictly increase (saw 0 after 0)"),
        ("\n\n-1,20000", "price series block indices must strictly increase (saw -1 after 0)"),
        ("1,0", "non-positive price at block 1"),
        ("1,-0.5", "non-positive price at block 1"),
    ])
    def test_bad_price_row_named_by_file_and_line(self, stream, tmp_path, capsys, row, error):
        prices = tmp_path / "prices.csv"
        prices.write_text("block_index,usd_per_btc\n0,10000\n" + row + "\n")
        line = 3 + row.count("\n")
        for argv in (["exponent-series", "--prices", str(prices), "--blocks", "1"],
                     ["run", "--tx", stream, "--heuristic", "round", "--prices", str(prices)]):
            assert main(argv) == 3
            assert capsys.readouterr().err == f"error[data]: price file {prices} line {line}: {error}\n"

    def test_price_file_without_rows_named(self, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        prices.write_text("block_index,usd_per_btc\n\n")
        assert main(["exponent-series", "--prices", str(prices), "--blocks", "1"]) == 3
        assert capsys.readouterr().err == f"error[data]: price file {prices}: no price rows\n"

    @pytest.mark.parametrize("rows", ["x,1\n", "0\n"])
    def test_malformed_truth_row(self, tmp_path, rows):
        snapshot = tmp_path / "part.csv"
        snapshot.write_text("script_id,cluster_id\n0,0\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("script_id,user_id\n" + rows)
        self.assert_data_error(
            _cli("score", "--snapshot", str(snapshot), "--truth", str(truth)), "line 2"
        )

    def test_binary_snapshot_label_beyond_count(self, tmp_path):
        snapshot = tmp_path / "part.bin"
        snapshot.write_bytes(b"ECLS1" + struct.pack("<Q2Q", 2, 0, 9))  # count 2, labels 0, 9
        truth = tmp_path / "truth.csv"
        truth.write_text("script_id,user_id\n0,0\n1,0\n")
        self.assert_data_error(
            _cli("score", "--snapshot", str(snapshot), "--truth", str(truth)), "label"
        )

    def test_wrongly_typed_synth_param(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"users": "six"}))
        proc = _cli("synth", "--seed", "1", "--params", str(params), "--out-prefix", str(tmp_path / "x"))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error[generation]: ") and "users" in proc.stderr

    @pytest.mark.parametrize("content", [b'{"users": ', b"\xff{}"], ids=["truncated", "not-utf8"])
    def test_synth_params_not_json(self, tmp_path, content):
        params = tmp_path / "params.json"
        params.write_bytes(content)
        out = str(tmp_path / "x")
        proc = _cli("synth", "--seed", "1", "--params", str(params), "--out-prefix", out)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error[generation]: params file {params}: invalid JSON")

    @pytest.mark.parametrize(
        "row", ["abc,3,2,0.666667,1,1\n", "5,0,0,0.000000,0,0\n", "5,3\n"],
        ids=["non-integer", "zero-scripts", "short"],
    )
    def test_malformed_report_row(self, tmp_path, row):
        report = tmp_path / "r.csv"
        report.write_text(REPORT_HEADER + row)
        self.assert_data_error(_cli("compare", str(report)), f"report {report} line 2")

    def test_report_sidecar_not_json(self, tmp_path):
        report = tmp_path / "r.csv"
        report.write_text(REPORT_HEADER + "5,3,2,0.666667,1,1\n")
        (tmp_path / "r.meta.json").write_text('{"heuristic": ')
        self.assert_data_error(_cli("compare", str(report)), "r.meta.json")

    @pytest.mark.parametrize(
        "text",
        ['{"a": ', "5", '{"x": "abc"}', '{"x": "NaN"}', '{"x": true}', '{"j": "1"}',
         '{"j": true}', '{"prices": 5}'],
    )
    def test_bad_config_file_exits_two(self, stream, tmp_path, text):
        config = tmp_path / "run.json"
        config.write_text(text)
        proc = _cli("run", "--tx", stream, "--heuristic", "cio", "--config", str(config))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error[config]: ")

    def test_non_finite_x_flag_exits_two(self, stream):
        proc = _cli("run", "--tx", stream, "--heuristic", "cio", "--x", "nan")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "not a decimal number" in proc.stderr

    @pytest.mark.parametrize(
        "name, content",
        [
            ("s.jsonl", ONE_TX.encode().replace(b'"pA"', b'"p\xff"')),
            ("s.jsonl.gz", gzip.compress(ONE_TX.encode() * 50)[:30]),
            ("s.jsonl.gz", ONE_TX.encode()),
            # a gzip header, then a deflate block of the reserved type
            ("s.jsonl.gz", b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff\x07" + bytes(16)),
        ],
        ids=["not-utf8", "gzip-cut-short", "not-gzip", "corrupt-deflate"],
    )
    def test_unreadable_stream_bytes(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        for argv in (["validate"], ["run", "--heuristic", "cio"]):
            proc = _cli(*argv, "--tx", str(path))
            assert proc.returncode == 3
            assert "Traceback" not in proc.stderr
            assert proc.stderr.startswith(f"error[ingest]: {path}: cannot read the stream: ")

    @pytest.mark.parametrize("name", ["s.jsonl", "s.jsonl.gz"])
    def test_non_utf8_byte_named_by_line_and_offset(self, tmp_path, name):
        lines = [ONE_TX.encode()] * 3000
        lines[10] = ONE_TX.encode().replace(b"\n", b"\r\n")  # one line, as in text mode
        lines[20] = b"\n"
        lines[2500] = ONE_TX.encode().replace(b'"pA"', b'"p\xff"')
        data = b"".join(lines)
        path = tmp_path / name
        path.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
        for argv in (["validate"], ["run", "--heuristic", "cio"]):
            proc = _cli(*argv, "--tx", str(path))
            assert proc.returncode == 3
            assert proc.stderr == (
                f"error[ingest]: {path}: cannot read the stream: "
                "line 2501: byte 0xff at offset 47 is not UTF-8\n"
            )

    @pytest.mark.parametrize("cut", [9, 10, 11, 12])
    def test_non_utf8_byte_on_the_cut_short_line_of_a_gzip(self, tmp_path, cut):
        # The text decoder meets the bad byte before the gzip reader meets the
        # damage; re-reading the bytes to find its line must not raise either.
        lines = [ONE_TX.encode()] * 3000
        lines[-1] = ONE_TX.encode().replace(b'"pA"', b'"p\xff"')
        path = tmp_path / "s.jsonl.gz"
        path.write_bytes(gzip.compress(b"".join(lines))[:-cut])
        proc = _cli("validate", "--tx", str(path))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr in (
            f"error[ingest]: {path}: cannot read the stream: "
            "line 3000: byte 0xff at offset 47 is not UTF-8\n",
            f"error[ingest]: {path}: cannot read the stream: "
            "Compressed file ended before the end-of-stream marker was reached\n",
        )

    @pytest.mark.parametrize("blocks", ["abc", "1:abc", "1:5:x", "1.5"])
    def test_non_integer_blocks_exit_two(self, tmp_path, blocks):
        prices = tmp_path / "prices.csv"
        prices.write_text(CONSTANT_PRICES)
        proc = _cli("exponent-series", "--prices", str(prices), "--blocks", blocks)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error[config]: bad --blocks item: {blocks!r}")

    @pytest.mark.parametrize("flag", ["--tx", "--snapshot", "--config", "--prices"])
    def test_directory_path_exits_three(self, stream, tmp_path, flag):
        argv = {"--tx": stream, "--heuristic": "round", "--prices": SAMPLE_PRICES}
        argv[flag] = str(tmp_path)
        proc = _cli("run", *(item for pair in argv.items() for item in pair))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error[io]: ") and "Is a directory" in proc.stderr

    def test_directory_snapshot_to_score_exits_three(self, tmp_path):
        truth = tmp_path / "truth.csv"
        truth.write_text("script_id,user_id\n0,0\n")
        proc = _cli("score", "--snapshot", str(tmp_path), "--truth", str(truth))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error[io]: ")


class TestCompare:
    def test_wide_table(self, synth_files, tmp_path, capsys):
        for name in ("cio", "deposit"):
            main(["run", "--tx", synth_files["jsonl"], "--heuristic", name,
                  "--checkpoints", "5,9", "--out", str(tmp_path / f"{name}.csv")])
        code = main(["compare", str(tmp_path / "cio.csv"), str(tmp_path / "deposit.csv")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "block_index,cio,deposit"
        assert len(lines) == 3

    def test_mismatched_checkpoints_exit_three(self, synth_files, tmp_path, capsys):
        main(["run", "--tx", synth_files["jsonl"], "--heuristic", "cio",
              "--checkpoints", "5,9", "--out", str(tmp_path / "a.csv")])
        main(["run", "--tx", synth_files["jsonl"], "--heuristic", "cio",
              "--checkpoints", "9", "--out", str(tmp_path / "b.csv")])
        capsys.readouterr()
        assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 3


class TestExponentSeries:
    def test_constant_price_single_value(self, tmp_path, capsys):
        prices = tmp_path / "p.csv"
        prices.write_text(CONSTANT_PRICES)
        code = main(["exponent-series", "--prices", str(prices), "--x", "1", "--blocks", "0,10,20"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "block_index,i"
        assert {ln.split(",")[1] for ln in lines[1:]} == {"4"}

    def test_sample_staircase_ends_at_three(self, capsys):
        code = main(
            ["exponent-series", "--prices", SAMPLE_PRICES,
             "--x", "1", "--blocks", "600000:700000:10000"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        values = [int(ln.split(",")[1]) for ln in lines]
        assert set(values) <= {3, 4}
        assert values[-1] == 3

    def test_x_shift_moves_series(self, tmp_path, capsys):
        prices = tmp_path / "p.csv"
        prices.write_text(CONSTANT_PRICES)
        main(["exponent-series", "--prices", str(prices), "--x", "1", "--blocks", "0,10"])
        one = capsys.readouterr().out
        main(["exponent-series", "--prices", str(prices), "--x", "10", "--blocks", "0,10"])
        ten = capsys.readouterr().out
        parse = lambda text: [int(ln.split(",")[1]) for ln in text.splitlines()[1:]]
        assert [i + 1 for i in parse(one)] == parse(ten)

    @pytest.mark.parametrize("price, x, i", [
        ("1e5000", "1", -4992),
        ("1e-5000", "1", 5008),
        ("10000", "1e5000", 5004),
        ("1e999999999", "1", -999999991),
        ("10000", "1e-999999999", -999999995),
    ])
    def test_extreme_price_or_amount_exact(self, tmp_path, capsys, price, x, i):
        prices = tmp_path / "p.csv"
        prices.write_text(f"block_index,usd_per_btc\n0,{price}\n")
        assert main(["exponent-series", "--prices", str(prices), "--x", x, "--blocks", "0"]) == 0
        assert capsys.readouterr().out == f"block_index,i\n0,{i}\n"

    @pytest.mark.parametrize("price, x", [
        ("1e5000", "1"), ("1e-5000", "1"), ("10000", "1e5000"), ("1e999999999", "1"),
        ("10000", "1e-999999999"), ("10000", "1e999999999"),
    ])
    def test_extreme_price_or_amount_in_round_run(self, synth_files, tmp_path, capsys, price, x):
        """Every exponent is either at most j or above every value, so round never fires."""
        prices = tmp_path / "p.csv"
        prices.write_text(f"block_index,usd_per_btc\n0,{price}\n")
        argv = ["run", "--tx", synth_files["jsonl"], "--heuristic", "round", "--prices",
                str(prices), "--x", x, "--checkpoints", "9"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1].split(",")[4] == "0"

    def test_no_price_blocks_warn(self, tmp_path, capsys):
        prices = tmp_path / "p.csv"
        prices.write_text("block_index,usd_per_btc\n100,10000\n")
        code = main(["exponent-series", "--prices", str(prices), "--x", "1", "--blocks", "50,150"])
        assert code == 0
        captured = capsys.readouterr()
        assert "omitted" in captured.err
        assert len(captured.out.splitlines()) == 2


class TestValidate:
    def test_summary_counts(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        path.write_text(
            '{"txid":"cb","block":1,"inputs":[],"outputs":[{"script":"m","value":50}]}\n' + ONE_TX.replace('"block":100', '"block":7')
        )
        assert main(["validate", "--tx", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == {
            "blocks": 1,
            "transactions": 1,
            "distinct_scripts": 3,
            "coinbase_dropped": 1,
            "first_block": 7,
            "last_block": 7,
        }


class TestCollectorPause:
    """A command runs without the cyclic collector: it builds no cycles that
    grow with the stream, and the caller's collector setting comes back."""

    @pytest.fixture
    def prefixes(self, tmp_path):
        """The 200- and 2,000-transaction prefixes of one synthetic stream."""
        paths = generate_files(str(tmp_path / "synth"), 5, GenParams(users=40, txs_per_block=100))
        lines = Path(paths["jsonl"]).read_text().splitlines(keepends=True)
        assert len(lines) == 2000
        out = []
        for n in (200, 2000):
            path = tmp_path / f"s{n}.jsonl"
            path.write_text("".join(lines[:n]))
            out.append(str(path))
        return out

    def test_leftover_cycles_do_not_grow_with_the_stream(self, prefixes, tmp_path, capsys):
        prices = tmp_path / "p.csv"
        prices.write_text(CONSTANT_PRICES)
        commands = [
            ["run", "--heuristic", "combined", "--prices", str(prices), "--checkpoints", "5"],
            ["run", "--heuristic", "one-time-change", "--checkpoints", "5",
             "--snapshot", str(tmp_path / "part.csv")],
            ["validate"],
        ]
        for command in commands:
            found = []
            for path in (prefixes[0], *prefixes):  # the first run warms one-time caches
                gc.collect()
                assert main([command[0], "--tx", path, *command[1:]]) == 0
                found.append(gc.collect())
            capsys.readouterr()
            assert found[1] == found[2], command

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_setting_restored(self, stream, tmp_path, capsys, enabled):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{\n")
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert main(["validate", "--tx", stream]) == 0
            assert gc.isenabled() is enabled
            assert main(["validate", "--tx", str(bad)]) == 3
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


class TestEntryPoint:
    def test_installed_console_script(self, stream):
        proc = subprocess.run(
            [sys.executable, "-m", "entityforge.cli", "run", "--tx", stream,
             "--heuristic", "cio", "--checkpoints", "100"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "100,3,2,0.666667,1,1"

    def _validate_with_log(self, stream, level):
        return _cli("validate", "--tx", stream, ENTITYFORGE_LOG=level)

    def test_log_env_accepted(self, stream):
        proc = self._validate_with_log(stream, "debug")
        assert proc.returncode == 0
        # log output goes to stderr; stdout holds only the summary JSON
        summary = json.loads(proc.stdout)
        assert summary["blocks"] == 1
        assert summary["transactions"] == 1
        assert summary["distinct_scripts"] == 3

    def test_log_env_unknown_level_falls_back(self, stream):
        # BASIC_FORMAT is a logging attribute but not a level name
        proc = self._validate_with_log(stream, "basic_format")
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["transactions"] == 1
