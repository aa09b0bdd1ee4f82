import argparse
import contextlib
import csv
import gc
import gzip
import io
import json
import os
import re
import stat
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entityforge import cli, engine
from entityforge.chain import JsonlSource, MemorySource, iter_blocks
from entityforge.cli import main
from entityforge.errors import CSV_CHUNK_ROWS, DataError, is_int_text, output_files
from entityforge.heuristics import HEURISTICS
from entityforge.pricing import load_price_csv
from entityforge.synth import GenParams, generate_files

from conftest import collect

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
        assert main(["run", "--tx", stream, "--heuristic", "wat"]) == 2

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

        assert len(load_snapshot(str(snap))) == 3


@pytest.fixture(scope="module")
def firing_stream(tmp_path_factory):
    """A synthetic stream on which every rule fires, and a constant price file: (jsonl, prices)."""
    where = tmp_path_factory.mktemp("firing")
    params = GenParams(users=8, blocks=10, txs_per_block=10, endowment_utxos=20,
                       address_reuse_prob=0.5, service_payee_prob=0.4, round_value_rate=0.5,
                       coinjoin_rate=0.15, consolidation_rate=0.2, multi_pay_rate=0.2)
    prices = where / "p.csv"
    prices.write_text(CONSTANT_PRICES)
    return generate_files(str(where / "s"), 1, params)["jsonl"], str(prices)


def _run_outputs(argv, where):
    """Exit code, stderr category, and the report and sidecar bytes of one in-process `run`."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(where / "r.csv")])
    files = {path.name: path.read_bytes() for path in where.iterdir()
             if path.name.startswith("r.")}
    return code, err.getvalue().partition("]")[0], files


_INT_TEXTS = st.sampled_from(["1_0", " 7", "+2", "", "x", "1.0"])
_RUN_FLAG_TEXTS = st.fixed_dictionaries({}, optional={
    "a": st.integers(-1, 30).map(str) | _INT_TEXTS,
    "x": st.sampled_from(["1", "0.5", "20", "1e2", "0", "-1", "nan", "1_0", ""]),
    "j": st.integers(-1, 4).map(str) | _INT_TEXTS,
    "checkpoints": st.integers(0, 12).map(str) | st.sampled_from(["2,5,9", "5,2", "", ",", "1_0"]),
    "horizon": st.sampled_from(["online", "fixed", "bogus"]),
})


class TestRunSettings:
    """A run setting reads the same as a flag or as a --config key: the file's
    values are flag text ahead of the command line, so a flag wins."""

    @staticmethod
    def _config(where, settings):
        path = where / "run.json"
        path.write_text(json.dumps(settings))
        return ["--config", str(path)]

    @staticmethod
    def _flags(texts):
        return [item for key, text in texts.items() for item in (f"--{key}", text)]

    @settings(max_examples=80, deadline=None)
    @given(heuristic=st.sampled_from(sorted(HEURISTICS)), texts=_RUN_FLAG_TEXTS)
    def test_flags_and_config_give_the_same_run(self, firing_stream, heuristic, texts):
        jsonl, prices = firing_stream
        base = ["run", "--tx", jsonl, "--heuristic", heuristic, "--prices", prices]
        # An integer key takes a JSON integer; any other text is a string, which it refuses.
        values = {key: int(text) if key in ("a", "j") and is_int_text(text) else text
                  for key, text in texts.items()}
        with tempfile.TemporaryDirectory() as flag_dir, tempfile.TemporaryDirectory() as file_dir:
            by_flags = _run_outputs(base + self._flags(texts), Path(flag_dir))
            by_file = _run_outputs(base + self._config(Path(file_dir), values), Path(file_dir))
        assert by_flags == by_file
        assert by_flags[0] in (0, 2) and bool(by_flags[2]) == (by_flags[0] == 0)

    def test_a_flag_beats_the_file(self, firing_stream, tmp_path):
        jsonl, prices = firing_stream
        base = ["run", "--tx", jsonl, "--heuristic", "combined", "--prices", prices]
        flags = self._flags({"a": "3", "x": "20", "j": "2", "checkpoints": "4", "horizon": "online"})
        config = self._config(tmp_path, {"a": 2, "x": "0.5", "j": 0, "checkpoints": "2,5",
                                         "horizon": "fixed"})
        runs = {}
        for name, argv in (("flags", flags), ("file", config), ("both", config + flags)):
            (tmp_path / name).mkdir()
            runs[name] = _run_outputs(base + argv, tmp_path / name)
            assert runs[name][:2] == (0, "")
        assert runs["both"] == runs["flags"] != runs["file"]

    def test_null_keeps_the_default(self, firing_stream, tmp_path):
        jsonl, _ = firing_stream
        base = ["run", "--tx", jsonl, "--heuristic", "one-time-change"]
        config = self._config(tmp_path, {"horizon": None, "checkpoints": None, "prices": None})
        runs = []
        for name, argv in (("plain", []), ("nulls", config)):
            (tmp_path / name).mkdir()
            runs.append(_run_outputs(base + argv, tmp_path / name))
        assert runs[0] == runs[1] and runs[0][0] == 0

    @pytest.mark.parametrize("key, bad, good, named", [
        ("x", "nan", "1", "--x"),
        ("checkpoints", "1_0", "5", "--checkpoints"),
        ("horizon", "bogus", "online", "--horizon"),
        ("a", "25", "25", "config key a"),
    ])
    def test_a_bad_file_value_is_refused_under_a_flag(self, stream, tmp_path, capsys,
                                                      key, bad, good, named):
        config = self._config(tmp_path, {key: bad})
        argv = ["run", "--tx", stream, "--heuristic", "cio", *config, f"--{key}", good]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ") and err.count("\n") == 1 and named in err


# Each refused command line, and the flag, argument or range its message names.
REFUSALS = [
    ([], "command"),
    (["run", "--heuristic", "cio"], "--tx"),
    (["run", "--tx", "{stream}", "--heuristic", "cio", "--wat"], "--wat"),
    (["run", "--tx", "{stream}", "--heuristic", "wat"], "--heuristic"),
    (["run", "--tx", "{stream}", "--heuristic", "cio", "--horizon", "bogus"], "--horizon"),
    (["run", "--tx", "{stream}", "--heuristic", "cio", "--a", "1_0"], "--a"),
    (["run", "--tx", "{stream}", "--heuristic", "cio", "--x", "nan"], "--x"),
    (["run", "--tx", "{stream}", "--heuristic", "cio", "--j", "-1"], "round_offset must be >= 0"),
    (["synth", "--seed", " +5", "--out-prefix", "{tmp}/x"], "--seed"),
    (["exponent-series", "--prices", SAMPLE_PRICES], "--blocks"),
    (["compare"], "reports"),
]


class TestRefusals:
    """Every usage refusal, argparse's own included, is exit 2 and one
    `error[config]` line; argparse's wording differs between Python versions,
    so only the flag it names is checked."""

    @pytest.mark.parametrize("argv, named", REFUSALS,
                             ids=["no-command", "no-tx", "unknown-flag", "heuristic", "horizon",
                                  "a", "x", "j-negative", "seed", "no-blocks", "no-reports"])
    def test_refusal_is_one_config_line(self, stream, tmp_path, capsys, argv, named):
        argv = [arg.format(stream=stream, tmp=tmp_path) for arg in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error[config]: ")
        proc = _cli(*argv)
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error[config]: ") and named in proc.stderr
        assert "usage:" not in proc.stderr and "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == [Path(stream)]

    def test_every_typed_option_refuses_malformed_text(self, stream, tmp_path, capsys):
        """Each option with a `type=` or `choices=`, on every command, now and when added."""
        valid = {
            "run": ["--tx", stream, "--heuristic", "cio"],
            "compare": ["r.csv"],
            "synth": ["--seed", "1", "--out-prefix", str(tmp_path / "x")],
            "score": ["--snapshot", "s.csv", "--truth", "t.csv"],
            "exponent-series": ["--prices", SAMPLE_PRICES, "--blocks", "1"],
            "validate": ["--tx", stream],
        }
        parser = cli.build_parser()
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(commands.choices) == set(valid)
        checked = set()
        for command, command_parser in commands.choices.items():
            parser.parse_args([command, *valid[command]])  # the base line parses
            for action in command_parser._actions:
                if action.option_strings and (action.type or action.choices):
                    flag = action.option_strings[-1]
                    bad = "bogus" if action.choices else "1_0"
                    assert main([command, *valid[command], flag, bad]) == 2, flag
                    err = capsys.readouterr().err
                    assert err.startswith("error[config]: ") and err.count("\n") == 1, flag
                    assert flag in err
                    checked.add(f"{command} {flag}")
        assert checked >= {"run --heuristic", "run --a", "run --x", "run --j", "run --horizon",
                           "run --checkpoints", "synth --seed", "exponent-series --x",
                           "exponent-series --blocks"}
        assert list(tmp_path.iterdir()) == [Path(stream)]

    @pytest.mark.parametrize("command", ["run", "synth", "exponent-series"])
    def test_help_exits_zero(self, command):
        proc = _cli(command, "--help")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith(f"usage: entityforge {command} ")


class TestReuseChange:
    def test_is_one_time_change_at_the_fixed_horizon(self, synth_files, tmp_path, capsys):
        """Reports and snapshots match; the sidecars differ only in the heuristic's name."""
        runs = {}
        for name, horizon in (("reuse-change", []), ("one-time-change", ["--horizon", "fixed"])):
            out = tmp_path / f"{name}.csv"
            snapshots = [tmp_path / f"{name}.{ext}" for ext in ("bin", "snap.csv")]
            for snapshot in snapshots:
                assert main(["run", "--tx", synth_files["jsonl"], "--heuristic", name, *horizon,
                             "--checkpoints", "3", "--out", str(out),
                             "--snapshot", str(snapshot)]) == 0
            meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
            assert meta.pop("heuristic") == name
            runs[name] = out.read_text(), [path.read_bytes() for path in snapshots], meta
        assert capsys.readouterr().err == ""
        assert runs["reuse-change"] == runs["one-time-change"]
        assert runs["reuse-change"][2]["counts"]["merges_applied"] > 0


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

    def test_score_same_for_csv_and_binary_snapshot(self, synth_files, tmp_path, capsys):
        snaps = []
        for name in ("snap.csv", "snap.bin"):
            snaps.append(str(tmp_path / name))
            assert main(["run", "--tx", synth_files["jsonl"], "--heuristic", "combined",
                         "--prices", SAMPLE_PRICES, "--snapshot", snaps[-1],
                         "--out", str(tmp_path / "r.csv")]) == 0
        # The same partition, each cluster named by its largest member and the rows
        # reversed: a column `run` never writes, so the loader must join it up.
        with open(snaps[0], newline="") as fh:
            labels = [int(label) for _, label in list(csv.reader(fh))[1:]]
        largest = {label: sid for sid, label in enumerate(labels)}
        relabelled = [largest[label] for label in labels]
        assert relabelled != labels
        snaps.append(str(tmp_path / "largest.csv"))
        Path(snaps[-1]).write_text("script_id,cluster_id\n" + "".join(
            f"{sid},{label}\n" for sid, label in reversed(list(enumerate(relabelled)))))
        snaps.append(str(tmp_path / "largest.bin"))
        Path(snaps[-1]).write_bytes(
            b"ECLS1" + struct.pack(f"<{len(labels) + 1}Q", len(labels), *relabelled))
        printed = []
        for snap in snaps:
            assert main(["score", "--snapshot", snap, "--truth", synth_files["truth"]]) == 0
            printed.append(capsys.readouterr().out)
        assert printed == [printed[0]] * 4
        assert json.loads(printed[0])["pairs"]["same_cluster"] > 0


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
        ("1, 1_0000", "bad price ' 1_0000'"),
        ("1,+5", "bad price '+5'"),
        ("1,\u0663", "bad price '\u0663'"),
        ("1,1.2.3", "bad price '1.2.3'"),
        ("1,1e", "bad price '1e'"),
        ("1,1e99999999999999999999", "bad price '1e99999999999999999999'"),
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

    @pytest.mark.parametrize("brk", ["\n", "\r", "\u2028"])
    def test_line_break_in_a_txid_is_escaped(self, tmp_path, capsys, brk):
        """A refusal stays one line, so a txid cannot forge a second `error[...]` line."""
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps({"txid": f"a{brk}error[fake]: b", "block": 1,
                                    "inputs": [{"script": "p", "value": -5}],
                                    "outputs": [{"script": "q", "value": 1}]}) + "\n")
        assert main(["validate", "--tx", str(path)]) == 3
        assert capsys.readouterr().err == (f"error[format]: transaction a{repr(brk)[1:-1]}"
                                           "error[fake]: b: negative input value -5\n")

    def test_line_break_in_a_price_path_is_escaped(self, tmp_path, capsys):
        folder = tmp_path / "p\nq"
        folder.mkdir()
        (folder / "p.csv").write_text("block_index,usd_per_btc\n0,x\n")
        assert main(["exponent-series", "--prices", str(folder / "p.csv"), "--blocks", "1"]) == 3
        assert capsys.readouterr().err == (
            f"error[data]: price file {tmp_path}/p\\nq/p.csv line 2: bad price 'x'\n")

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

    @pytest.mark.parametrize("params, error", [
        ({"blocks": 0}, "need at least one block and one tx per block"),
        ({"txs_per_block": 0}, "need at least one block and one tx per block"),
        ({"initial_balance": -1}, "initial balance must be non-negative"),
        ({"endowment_utxos": 0}, "each user needs at least one endowment UTXO"),
        ({"deposit_min_inputs": 1}, "deposit_min_inputs must be >= 2"),
        ({"round_exponent": 1}, "round_exponent must be >= 2"),
        ({"consolidation_rate": 0.6, "coinjoin_rate": 0.5}, "consolidation_rate + coinjoin_rate exceeds 1"),
    ], ids=["blocks", "txs-per-block", "initial-balance", "endowment-utxos", "deposit-min-inputs",
            "round-exponent", "rate-sum"])
    def test_synth_param_out_of_range(self, tmp_path, params, error):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"users": 4, "blocks": 4, "txs_per_block": 4, **params}))
        proc = _cli("synth", "--seed", "1", "--params", str(path), "--out-prefix", str(tmp_path / "x"))
        assert proc.returncode == 3
        assert (proc.stdout, proc.stderr) == ("", f"error[generation]: {error}\n")
        assert list(tmp_path.iterdir()) == [path]

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
        "text", ["1_0", " 7", "+2", "\u0663", "9" * (sys.get_int_max_str_digits() + 1)],
        ids=["underscore", "space", "plus", "arabic-indic-digit", "past-digit-limit"],
    )
    @pytest.mark.parametrize("place", ["truth", "snapshot", "snapshot-past-first-chunk",
                                       "report", "price-block"])
    def test_integer_is_minus_then_ascii_digits(self, tmp_path, capsys, text, place):
        """`int()` reads the first four texts as 10, 7, 2 and 3, and raises ValueError on
        more digits than `sys.get_int_max_str_digits()`; every integer field refuses them."""
        n = CSV_CHUNK_ROWS + 20 if place == "snapshot-past-first-chunk" else 3
        row = n - 5 if n > 3 else 1
        snapshot_rows = [f"{sid},{sid}" for sid in range(n)]
        truth_rows = [f"{sid},0" for sid in range(n)]
        path = tmp_path / "in.csv"
        if place == "truth":
            truth_rows[row] = f"{row},{text}"
        elif place.startswith("snapshot"):
            snapshot_rows[row] = f"{row},{text}"
        if place == "report":
            path.write_text(REPORT_HEADER + f"5,{text},2,0.666667,1,1\n", encoding="utf-8")
            argv, where = ["compare", str(path)], f"report {path} line 2"
        elif place == "price-block":
            path.write_text(f"block_index,usd_per_btc\n0,100\n{text},100\n", encoding="utf-8")
            argv, where = (["exponent-series", "--prices", str(path), "--blocks", "1"],
                           f"price file {path} line 3")
        else:
            snapshot, truth = tmp_path / "snap.csv", tmp_path / "truth.csv"
            snapshot.write_text("\n".join(["script_id,cluster_id", *snapshot_rows, ""]), encoding="utf-8")
            truth.write_text("\n".join(["script_id,user_id", *truth_rows, ""]), encoding="utf-8")
            argv = ["score", "--snapshot", str(snapshot), "--truth", str(truth)]
            where = (f"ground truth {truth}" if place == "truth" else f"snapshot {snapshot}") + f" line {row + 2}"
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error[data]: {where}: expected an integer, got {text!r}\n"

    @pytest.mark.parametrize("clusters", ["0", "-1", "4"])
    def test_report_clusters_outside_one_to_scripts_refused(self, tmp_path, capsys, clusters):
        report = tmp_path / "r.csv"
        report.write_text(REPORT_HEADER + "5,3,2,0.666667,1,1\n" + f"9,3,{clusters},0.000000,1,2\n")
        assert main(["compare", str(report)]) == 3
        assert capsys.readouterr().err == (
            f"error[data]: report {report} line 3: num_clusters must be in 1..3, got {clusters}\n")

    @pytest.mark.parametrize("row, error", [
        ("9,3,2,banana,1,2", "ratio must be 0.666667, got 'banana'"),
        ("9,3,2,0.67,1,2", "ratio must be 0.666667, got '0.67'"),
        ("9,3,2,0.500000,1,2", "ratio must be 0.666667, got '0.500000'"),
        ("9,3,2,0.666667,-1,2", "merges_applied must be non-negative, got -1"),
        ("9,3,2,0.666667,1,-7", "tx_processed must be non-negative, got -7"),
        ("3,3,2,0.666667,1,2", "block_index 3 is not above the previous row's 5"),
        ("5,3,2,0.666667,1,2", "block_index 5 is not above the previous row's 5"),
        ("9,0,1,0.000000,1,2", "num_scripts must be positive, got 0"),
        ("09,3,2,0.666667,1,2", "block_index must be 9, got '09'"),
        ("9,03,2,0.666667,1,2", "num_scripts must be 3, got '03'"),
        ("9,3,02,0.666667,1,2", "num_clusters must be 2, got '02'"),
        ("9,3,2,0.666667,-0,2", "merges_applied must be 0, got '-0'"),
        ("9,3,2,0.666667,1,002", "tx_processed must be 2, got '002'"),
    ])
    def test_report_row_that_run_cannot_write_refused(self, tmp_path, capsys, row, error):
        report = tmp_path / "r.csv"
        report.write_text(REPORT_HEADER + "5,3,2,0.666667,1,1\n" + row + "\n")
        assert main(["compare", str(report)]) == 3
        assert capsys.readouterr().err == f"error[data]: report {report} line 3: {error}\n"

    @pytest.mark.parametrize("row, error", [
        ("9,2,1,0.500000,0,1", "num_scripts 2 is below the previous row's 3"),
        ("9,3,1,0.333333,0,9", "merges_applied 0 is below the previous row's 1"),
        ("9,3,1,0.333333,1,8", "tx_processed 8 is below the previous row's 9"),
    ])
    def test_report_count_below_the_row_before_refused(self, tmp_path, capsys, row, error):
        """`run`'s script, merge and transaction counts never go down from row to row."""
        report = tmp_path / "r.csv"
        report.write_text(REPORT_HEADER + "5,3,2,0.666667,1,9\n" + row + "\n")
        assert main(["compare", str(report)]) == 3
        assert capsys.readouterr().err == f"error[data]: report {report} line 3: {error}\n"

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

    @pytest.mark.parametrize("checkpoints", ["", ","])
    @pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
    def test_empty_checkpoints_exit_two(self, stream, tmp_path, capsys, checkpoints, by_config):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"checkpoints": checkpoints}))
        given = ["--config", str(config)] if by_config else ["--checkpoints", checkpoints]
        assert main(["run", "--tx", stream, "--heuristic", "cio", *given]) == 2
        assert capsys.readouterr().err == "error[config]: --checkpoints needs at least one integer\n"

    @pytest.mark.parametrize("text", ["1_0", " 1_0", "+5", "\u0663", ".", "1e", "1e+", "0x1",
                                      "Infinity", "1e99999999999999999999"])
    @pytest.mark.parametrize("place", ["run", "exponent-series", "config"])
    def test_x_is_a_plain_decimal(self, stream, tmp_path, capsys, text, place):
        """`Decimal()` reads the first four as 10, 10, 5 and 3; `--x` and config `x` refuse them."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"x": text}))
        argv = {
            "run": ["run", "--tx", stream, "--heuristic", "cio", "--x", text],
            "exponent-series": ["exponent-series", "--prices", SAMPLE_PRICES, "--blocks", "1",
                                "--x", text],
            "config": ["run", "--tx", stream, "--heuristic", "cio", "--config", str(config)],
        }[place]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"not a decimal number: {text!r}" in err

    @pytest.mark.parametrize("text", ["1e5000", "1E+3", "2.5e-999999999", ".5", "5."])
    def test_decimal_forms_that_load(self, tmp_path, capsys, text):
        prices = tmp_path / "prices.csv"
        prices.write_text(f"block_index,usd_per_btc\n0,10000\n1,{text}\n")
        assert main(["exponent-series", "--prices", str(prices), "--blocks", "1", "--x", text]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("text", ["1_0", " +5", "\u0663"])
    @pytest.mark.parametrize("flag", ["--checkpoints", "--blocks", "--a", "--j", "--seed",
                                      "config checkpoints"])
    def test_integer_flag_is_minus_then_ascii_digits(self, stream, tmp_path, capsys, text, flag):
        """`int()` reads these texts as 10, 5 and 3; every integer flag refuses them."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"checkpoints": text}))
        run = ["run", "--tx", stream, "--heuristic", "cio"]
        argv = {
            "--checkpoints": run + ["--checkpoints", text],
            "--blocks": ["exponent-series", "--prices", SAMPLE_PRICES, "--blocks", text],
            "--a": run + ["--a", text],
            "--j": run + ["--j", text],
            "--seed": ["synth", "--seed", text, "--out-prefix", str(tmp_path / "x")],
            "config checkpoints": run + ["--config", str(config)],
        }[flag]
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and repr(text) in err
        assert sorted(tmp_path.iterdir()) == before

    def test_non_finite_x_flag_exits_two(self, stream):
        proc = _cli("run", "--tx", stream, "--heuristic", "cio", "--x", "nan")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "not a decimal number" in proc.stderr

    @pytest.mark.parametrize("horizon", ["online", "fixed"])
    @pytest.mark.parametrize("inputs", [[2**62, 2**62 - 1], [2**63 - 1], [2**62, 2**62], [2**63]])
    def test_input_total_bound(self, tmp_path, horizon, inputs):
        """Every value fits a signed 64-bit integer: the input total is at most 2^63-1."""
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps({
            "txid": "big", "block": 1,
            "inputs": [{"script": f"in{k}", "value": v} for k, v in enumerate(inputs)],
            "outputs": [{"script": "out", "value": 2**63 - 1}],
        }) + "\n")
        proc = _cli("run", "--tx", str(path), "--heuristic", "change", "--horizon", horizon,
                    "--checkpoints", "1")
        if sum(inputs) < 2**63:
            assert (proc.returncode, proc.stderr) == (0, "")
            assert proc.stdout.splitlines()[-1] == f"1,{len(inputs) + 1},{len(inputs) + 1},1.000000,0,1"
        else:
            assert proc.returncode == 3
            assert "Traceback" not in proc.stderr
            assert proc.stderr == (f"error[value-range]: transaction big: inputs {sum(inputs)} "
                                   f"exceed the 64-bit bound {2**63 - 1}\n")

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

    @pytest.mark.parametrize("name", ["s.jsonl", "s.jsonl.gz"])
    def test_first_fault_in_file_order_is_reported(self, tmp_path, name):
        # Line 5's byte lies in the text reader's first read-ahead chunk, past line 2's fault.
        lines = [ONE_TX.encode()] * 300
        lines[1] = b'{"txid":\n'
        lines[4] = ONE_TX.encode().replace(b'"pA"', b'"p\xff"')
        data = b"".join(lines)
        path = tmp_path / name
        path.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
        for argv in (["validate"], ["run", "--heuristic", "cio"]):
            proc = _cli(*argv, "--tx", str(path))
            assert proc.returncode == 3
            assert proc.stderr == (
                "error[ingest]: line 2: invalid JSON: Expecting value: line 1 column 9 (char 8)\n"
            )

    @pytest.mark.parametrize("cut", [9, 10, 11, 12])
    def test_non_utf8_byte_on_the_cut_short_line_of_a_gzip(self, tmp_path, cut):
        # The bad byte is named if its line is read whole before the gzip reader meets
        # the damage, and the damage otherwise; neither ends in a traceback.
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


class TestNoPartialOutput:
    """Every output is open before the replay, and a failed command leaves no new
    file and every existing one as it was."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        calls = []
        blocks = JsonlSource.blocks
        monkeypatch.setattr(JsonlSource, "blocks", lambda self: calls.append(self) or blocks(self))
        return calls

    @pytest.mark.parametrize("flag", ["--out", "--snapshot"])
    def test_unwritable_output_fails_before_the_decode(self, synth_files, tmp_path, capsys,
                                                       decodes, flag):
        outputs = {"--out": str(tmp_path / "ok.csv"), "--snapshot": str(tmp_path / "ok.bin")}
        outputs[flag] = str(tmp_path / "missing" / "x.bin")
        before = sorted(tmp_path.iterdir())
        argv = ["run", "--tx", synth_files["jsonl"], "--heuristic", "cio", "--checkpoints", "5"]
        assert main(argv + [item for pair in outputs.items() for item in pair]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[io]: ") and f"'{outputs[flag]}'" in err
        assert decodes == []
        assert sorted(tmp_path.iterdir()) == before

    def test_mid_stream_data_error_keeps_the_existing_outputs(self, synth_files, tmp_path, capsys):
        jsonl = Path(synth_files["jsonl"])
        lines = jsonl.read_text().splitlines(keepends=True)
        jsonl.write_text("".join(lines[:40] + [lines[0].replace('"t1"', '"late"')] + lines[40:]))
        out, snap = tmp_path / "r.csv", tmp_path / "snap.csv"
        for path in (out, tmp_path / "r.meta.json", snap):
            path.write_text(f"earlier {path.name}\n")
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        code = main(["run", "--tx", str(jsonl), "--heuristic", "cio", "--checkpoints", "5",
                     "--out", str(out), "--snapshot", str(snap)])
        assert code == 3
        assert capsys.readouterr().err.startswith("error[ingest]: line 41: transaction late: block 0")
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_replaced_output_keeps_its_mode(self, stream, tmp_path, capsys):
        out, snap = tmp_path / "r.csv", tmp_path / "snap.csv"
        modes = {out: 0o600, tmp_path / "r.meta.json": 0o640, snap: 0o604}
        for path, mode in modes.items():
            path.write_text("earlier\n")
            path.chmod(mode)
        assert main(["run", "--tx", stream, "--heuristic", "cio", "--checkpoints", "100",
                     "--out", str(out), "--snapshot", str(snap)]) == 0
        assert capsys.readouterr().err == ""
        assert {path: stat.S_IMODE(path.stat().st_mode) for path in modes} == modes
        assert out.read_text().splitlines()[1] == "100,3,2,0.666667,1,1"

    @pytest.mark.parametrize("out, snapshot", [
        ("r.csv", "r.csv"),
        ("r", "r.meta.json"),
        ("x/../r.csv", "r.csv"),
        ("r.csv", "link.csv"),
    ], ids=["same-path", "snapshot-is-sidecar", "dot-dot", "symlink"])
    def test_output_named_twice_exits_two(self, stream, tmp_path, capsys, out, snapshot):
        (tmp_path / "x").mkdir()
        (tmp_path / "link.csv").symlink_to(tmp_path / "r.csv")
        before = sorted(tmp_path.iterdir())
        code = main(["run", "--tx", stream, "--heuristic", "cio", "--out", str(tmp_path / out),
                     "--snapshot", str(tmp_path / snapshot)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error[config]: two outputs name one file: {str(tmp_path / snapshot)!r}\n")
        assert sorted(tmp_path.iterdir()) == before

    def test_device_named_twice_is_opened_twice(self):
        with output_files() as open_output:
            for _ in range(2):
                open_output(os.devnull).write("discarded\n")

    def test_device_out_gets_no_sidecar(self, synth_files, tmp_path, capsys):
        out = tmp_path / "report.csv"
        out.symlink_to(os.devnull)
        before = sorted(tmp_path.iterdir())
        code = main(["run", "--tx", synth_files["jsonl"], "--heuristic", "cio",
                     "--checkpoints", "5", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr() == ("", "")
        assert not (tmp_path / "report.meta.json").exists()
        assert sorted(tmp_path.iterdir()) == before and out.is_symlink()

    def test_failed_synth_leaves_no_file(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(
            {"users": 3, "blocks": 50, "txs_per_block": 50, "initial_balance": 20000}))
        code = main(["synth", "--seed", "1", "--params", str(params),
                     "--out-prefix", str(tmp_path / "x")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error[generation]: ")
        assert list(tmp_path.iterdir()) == [params]

    def test_score_opens_its_output_before_the_inputs(self, synth_files, tmp_path, capsys,
                                                      monkeypatch):
        loads = []
        monkeypatch.setattr(cli, "load_snapshot", loads.append)
        out = tmp_path / "missing" / "score.json"
        code = main(["score", "--snapshot", str(tmp_path / "snap.csv"),
                     "--truth", synth_files["truth"], "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error[io]: ") and f"'{out}'" in err
        assert loads == []

    @pytest.mark.parametrize("command", ["score", "compare", "exponent-series"])
    def test_failed_command_keeps_the_existing_output(self, synth_files, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,header\n")
        out = tmp_path / "result.txt"
        out.write_text("earlier result\n")
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        argv = {
            "score": ["score", "--snapshot", str(bad), "--truth", synth_files["truth"]],
            "compare": ["compare", str(bad)],
            "exponent-series": ["exponent-series", "--prices", str(bad), "--blocks", "1"],
        }[command]
        assert main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error[data]: bad ")
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_exponent_series_failing_mid_stream_keeps_the_existing_output(
            self, tmp_path, capsys, monkeypatch):
        def series(*args):
            yield 0, 4
            raise DataError("late failure")

        monkeypatch.setattr(cli, "exponent_series", series)
        prices = tmp_path / "p.csv"
        prices.write_text(CONSTANT_PRICES)
        out = tmp_path / "series.csv"
        out.write_text("earlier series\n")
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        code = main(["exponent-series", "--prices", str(prices), "--blocks", "0:9",
                     "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "error[data]: late failure\n"
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


class TestPackedReplay:
    """A fixed-horizon `run` replays its one decode from per-block `marshal`
    strings; an engine run over a `MemorySource` of the same stream never packs.
    Their outputs are byte-identical."""

    CASES = [(name, None) for name, spec in HEURISTICS.items() if spec.horizon in ("fixed", "full")]
    CASES += [("shadow", "fixed"), ("one-time-change", "fixed")]

    @staticmethod
    def _stream(tmp_path, seed):
        """A synthetic stream on which the rules fire, with a coinbase line opening each block."""
        params = GenParams(users=8, blocks=10, txs_per_block=10, endowment_utxos=20,
                           address_reuse_prob=0.5, service_payee_prob=0.4, round_value_rate=0.5,
                           coinjoin_rate=0.15, consolidation_rate=0.2, multi_pay_rate=0.2)
        jsonl = Path(generate_files(str(tmp_path / f"s{seed}"), seed, params)["jsonl"])
        lines, last = [], None
        for line in jsonl.read_text().splitlines(keepends=True):
            block = json.loads(line)["block"]
            if block != last:
                lines.append(json.dumps({"txid": f"cb{block}", "block": block, "inputs": [],
                                         "outputs": [{"script": f"miner{block}", "value": 50}]}) + "\n")
                last = block
            lines.append(line)
        jsonl.write_text("".join(lines))
        return jsonl

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cli_matches_memory_source_run(self, tmp_path, seed):
        jsonl = self._stream(tmp_path, seed)
        prices = tmp_path / "p.csv"
        prices.write_text(CONSTANT_PRICES)
        table, blocks = {}, []
        with open(jsonl, encoding="utf-8") as fh:
            coinbase_dropped = collect(iter_blocks(fh, table), blocks)
        memory = MemorySource(blocks, table)
        memory.coinbase_dropped = coinbase_dropped
        assert coinbase_dropped == 10
        for heuristic, horizon in self.CASES:
            for checkpoints in ("3", "2,5,9,40"):
                tag = f"{heuristic}-{horizon}-{checkpoints}"
                argv = ["run", "--tx", str(jsonl), "--heuristic", heuristic, "--prices", str(prices),
                        "--checkpoints", checkpoints, "--out", str(tmp_path / f"cli-{tag}.csv"),
                        "--snapshot", str(tmp_path / f"cli-{tag}.snap.csv")]
                assert main(argv + (["--horizon", horizon] if horizon else [])) == 0
                config = engine.RunConfig(heuristic, horizon=horizon, checkpoints=[2, 5, 9, 40]
                                          if "," in checkpoints else int(checkpoints))
                with open(prices, encoding="utf-8") as fh:
                    report, store = engine.run(config, memory, price_series=load_price_csv(fh))
                with output_files() as open_output:
                    report.write(open_output(str(tmp_path / f"mem-{tag}.csv")),
                                 open_output(str(tmp_path / f"mem-{tag}.meta.json")))
                with open(tmp_path / f"mem-{tag}.snap.csv", "w", newline="", encoding="utf-8") as fh:
                    store.write_snapshot_csv(fh)
                counts = report.metadata["counts"]
                assert counts["coinbase_dropped"] == 10 and counts["merges_applied"] > 0, tag
                for suffix in (".csv", ".meta.json", ".snap.csv"):
                    cli_bytes = (tmp_path / f"cli-{tag}{suffix}").read_bytes()
                    assert cli_bytes == (tmp_path / f"mem-{tag}{suffix}").read_bytes(), tag + suffix


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

    def test_names_that_need_quoting_survive(self, synth_files, tmp_path, capsys):
        """A sidecar's heuristic may hold a comma, a quote or a line break, or not be a
        string: the table still reads back with one field per column."""
        reports = [str(tmp_path / f"{i}.csv") for i in range(3)]
        for report, name in zip(reports, ['dep,o"sit\nx', ["a", "b"], "a\rb"]):
            main(["run", "--tx", synth_files["jsonl"], "--heuristic", "cio",
                  "--checkpoints", "5,9", "--out", report])
            sidecar = engine.sidecar_path(report)
            sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "heuristic": name}))
        capsys.readouterr()
        assert main(["compare", *reports]) == 0
        table = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
        assert table[0] == ["block_index", 'dep,o"sit\nx', "['a', 'b']", "a\rb"]
        assert len(table) == 3 and all(len(row) == 4 for row in table)

    def test_mismatched_checkpoints_exit_three(self, synth_files, tmp_path, capsys):
        main(["run", "--tx", synth_files["jsonl"], "--heuristic", "cio",
              "--checkpoints", "5,9", "--out", str(tmp_path / "a.csv")])
        main(["run", "--tx", synth_files["jsonl"], "--heuristic", "cio",
              "--checkpoints", "9", "--out", str(tmp_path / "b.csv")])
        capsys.readouterr()
        assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 3


class TestExponentSeries:
    @pytest.mark.parametrize("x", ["0", "-1"])
    def test_non_positive_x_is_a_usage_error(self, tmp_path, capsys, x):
        prices = tmp_path / "p.csv"
        prices.write_text(CONSTANT_PRICES)
        code = main(["exponent-series", "--prices", str(prices), "--x", x, "--blocks", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error[config]: small_amount must be positive\n"

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

    @pytest.mark.parametrize("text, dropped", [
        ("", 0),
        ('{"txid":"cb","block":1,"inputs":[],"outputs":[{"script":"m","value":50}]}\n'
         '\n{"txid":"cb2","block":4,"inputs":[],"outputs":[{"script":"n","value":50}]}\n', 2),
    ], ids=["empty", "all-coinbase"])
    def test_stream_without_kept_blocks(self, tmp_path, capsys, text, dropped):
        """A block of coinbase lines only is no block: nothing is kept or interned."""
        path = tmp_path / "s.jsonl"
        path.write_text(text)
        assert main(["validate", "--tx", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "blocks": 0,
            "transactions": 0,
            "distinct_scripts": 0,
            "coinbase_dropped": dropped,
            "first_block": None,
            "last_block": None,
        }

    def test_coinbase_line_is_sorted_too(self, tmp_path):
        """A payment at a block below the coinbase line before it is out of order."""
        path = tmp_path / "s.jsonl"
        path.write_text('{"txid":"cb","block":5,"inputs":[],"outputs":[{"script":"m","value":50}]}\n'
                        + ONE_TX.replace('"t1","block":100', '"t","block":4'))
        proc = _cli("validate", "--tx", str(path))
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == ("error[ingest]: line 2: transaction t: block 4 after block 5 "
                               "(stream must be sorted by block)\n")

    def test_synth_stream_matches_its_meta(self, synth_files, capsys):
        with open(synth_files["meta"], encoding="utf-8") as fh:
            meta = json.load(fh)
        assert main(["validate", "--tx", synth_files["jsonl"]]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "blocks": meta["params"]["blocks"],
            "transactions": meta["counts"]["transactions"],
            "distinct_scripts": meta["counts"]["scripts"],
            "coinbase_dropped": 0,
            "first_block": 0,
            "last_block": meta["params"]["blocks"] - 1,
        }


_MUTATION_TOKENS = [b"1_0", b"+2", b"\xff", b"\r", b'"', b"9" * (sys.get_int_max_str_digits() + 1)]
# An edit is (kind, position, argument): delete up to 8 bytes, cut the file short,
# change one byte, or insert one of the tokens above.
_edits = st.lists(st.tuples(st.sampled_from(["delete", "truncate", "byte", "insert"]),
                            st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=3)


def _mutate(data: bytes, edits, tokens=_MUTATION_TOKENS) -> bytes:
    for kind, at, arg in edits:
        i = at % (len(data) + 1)
        if kind == "delete":
            data = data[:i] + data[i + 1 + arg % 8:]
        elif kind == "truncate":
            data = data[:i]
        elif kind == "byte":
            data = data[:i] + bytes([arg]) + data[i + 1:]
        else:
            data = data[:i] + tokens[arg % len(tokens)] + data[i:]
    return data


# A stream also takes JSON's own tokens, and line edits that leave each line valid JSON: drop a
# line, copy one to another place, or rename one script to one of 40 names, new or already seen.
_STREAM_TOKENS = _MUTATION_TOKENS + [b"NaN", b"1e400", b"-1", b"0", b"null", b"[]", b"{}", b",",
                                     b"\n", b'"x"', b'"a\\nb"']
_stream_edits = st.lists(st.tuples(
    st.sampled_from(["delete", "truncate", "byte", "insert", "drop", "copy", "rename"]),
    st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=3)


def _mutate_stream(data: bytes, edits) -> bytes:
    for kind, at, arg in edits:
        lines = data.splitlines(keepends=True)
        names = list(re.finditer(rb'"script":"(\w+)"', data))
        if kind == "drop" and lines:
            del lines[at % len(lines)]
            data = b"".join(lines)
        elif kind == "copy" and lines:
            lines.insert(arg % (len(lines) + 1), lines[at % len(lines)])
            data = b"".join(lines)
        elif kind == "rename" and names:
            name = names[at % len(names)]
            data = data[:name.start(1)] + b"a%d" % (arg % 40) + data[name.end(1):]
        else:
            data = _mutate(data, [(kind, at, arg)], _STREAM_TOKENS)
    return data


# A JSON settings file takes the stream's edits, or edits that leave it valid JSON: a value
# swapped for one of these, or a key renamed to another of the file's keys or to an unknown one.
_JSON_VALUES = [b"NaN", b"1e400", b"-1", b"0", b"1.5", b"null", b"[]", b"{}", b"true", b'"x"',
                b'"online"', b'"0.01"', _MUTATION_TOKENS[-1]]
_json_edits = st.lists(st.tuples(st.sampled_from(["value", "key"]), st.integers(0, 10**6),
                                 st.integers(0, 255)), min_size=1, max_size=3) | _edits


def _mutate_json(data: bytes, edits) -> bytes:
    for kind, at, arg in edits:
        keys = list(re.finditer(rb'"(\w+)": ', data))
        values = list(re.finditer(rb': ([^,}]+)', data))
        if kind == "value" and values:
            found = values[at % len(values)]
            data = data[:found.start(1)] + _JSON_VALUES[arg % len(_JSON_VALUES)] + data[found.end(1):]
        elif kind == "key" and keys:
            names = [key.group(1) for key in keys] + [b"unknown"]
            found = keys[at % len(keys)]
            data = data[:found.start(1)] + names[arg % len(names)] + data[found.end(1):]
        else:
            data = _mutate(data, [(kind, at, arg)], _STREAM_TOKENS)
    return data


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One small valid file of each CSV, snapshot and JSON settings input kind, by name."""
    where = tmp_path_factory.mktemp("valid")
    files = generate_files(str(where / "synth"), 3, GenParams(users=5, blocks=6, txs_per_block=5))
    prices = where / "prices.csv"
    prices.write_text("block_index,usd_per_btc\n0,10000\n3,20000.5\n5,1E+4\n")
    config = where / "config.json"
    config.write_text(json.dumps({"a": 3, "x": "0.01", "j": 1, "horizon": "fixed",
                                  "checkpoints": "2", "prices": str(prices)}))
    params = where / "params.json"
    params.write_text(json.dumps({"users": 4, "blocks": 3, "txs_per_block": 4,
                                  "coinjoin_rate": 0.2, "deposit_min_inputs": 3}))
    paths = {"stream": files["jsonl"], "truth": files["truth"], "prices": str(prices),
             "config": str(config), "params": str(params)}
    for name in ("snapshot.csv", "snapshot.bin"):
        paths[name] = str(where / name)
        assert main(["run", "--tx", files["jsonl"], "--heuristic", "cio", "--checkpoints", "2",
                     "--out", str(where / "report.csv"), "--snapshot", paths[name]]) == 0
    paths["report"], paths["sidecar"] = str(where / "report.csv"), str(where / "report.meta.json")
    return paths


class TestMutatedInputs:
    """A mutated input file ends in exit 0, 2 or 3, never an exception; a refusal
    is exactly one `error[...]` line and leaves no new file."""

    @staticmethod
    def _commands(kind, mutated, valid, out):
        """The commands that read the `kind` of file, with `mutated` in its place."""
        snapshot, truth = valid["snapshot.csv"], valid["truth"]
        if kind.startswith("snapshot"):
            return [["score", "--snapshot", mutated, "--truth", truth, "--out", out]]
        if kind == "truth":
            return [["score", "--snapshot", snapshot, "--truth", mutated, "--out", out]]
        if kind in ("report", "sidecar"):
            return [["compare", mutated, valid["report"], "--out", out]]
        return [["exponent-series", "--prices", mutated, "--blocks", "0:6", "--out", out],
                ["run", "--tx", valid["stream"], "--heuristic", "round", "--prices", mutated,
                 "--out", out]]

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["snapshot.csv", "snapshot.bin", "truth", "report", "sidecar",
                                 "prices"]), edits=_edits)
    def test_every_mutation_exits_by_the_contract(self, valid_inputs, kind, edits):
        with tempfile.TemporaryDirectory() as where:
            # A report and its sidecar go together, one of them mutated, so compare reads both.
            together = {"report": "m.csv", "sidecar": "m.meta.json"}
            if kind in together:
                for part, name in together.items():
                    Path(where, name).write_bytes(Path(valid_inputs[part]).read_bytes())
            name = together.get(kind, "m.bin" if kind == "snapshot.bin" else "m.csv")
            Path(where, name).write_bytes(_mutate(Path(valid_inputs[kind]).read_bytes(), edits))
            mutated = os.path.join(where, "m.bin" if kind == "snapshot.bin" else "m.csv")
            self._exit_by_the_contract(
                where, self._commands(kind, mutated, valid_inputs, os.path.join(where, "out.csv")))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(edits=_stream_edits)
    def test_every_stream_mutation_exits_by_the_contract(self, valid_inputs, edits):
        """The replay trusts its source for every id, so a mutated stream must be refused
        by the decoder or replayed whole."""
        with tempfile.TemporaryDirectory() as where:
            mutated = os.path.join(where, "m.jsonl")
            stream = Path(valid_inputs["stream"]).read_bytes()
            Path(mutated).write_bytes(_mutate_stream(stream, edits))
            out = os.path.join(where, "out.csv")
            self._exit_by_the_contract(where, [
                *(["run", "--tx", mutated, "--heuristic", heuristic, "--checkpoints", "2",
                   "--out", out] for heuristic in ("cio", "shadow", "reuse-change")),
                ["validate", "--tx", mutated],
            ])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["config", "params"]), edits=_json_edits)
    def test_every_settings_mutation_exits_by_the_contract(self, valid_inputs, kind, edits):
        """A mutated `run --config` or synth `--params` file is refused or used whole."""
        with tempfile.TemporaryDirectory() as where:
            mutated = os.path.join(where, "m.json")
            Path(mutated).write_bytes(_mutate_json(Path(valid_inputs[kind]).read_bytes(), edits))
            if kind == "config":
                commands = [["run", "--tx", valid_inputs["stream"], "--heuristic", heuristic,
                             "--config", mutated, "--out", os.path.join(where, "out.csv")]
                            for heuristic in ("round", "deposit")]
            else:
                commands = [["synth", "--seed", "1", "--params", mutated,
                             "--out-prefix", os.path.join(where, "s")]]
            self._exit_by_the_contract(where, commands)

    @staticmethod
    def _exit_by_the_contract(where, commands):
        """Run each command in `where`: exit 0, 2 or 3, and a refusal is exactly one
        `error[...]` line that leaves no new file there."""
        for argv in commands:
            before = sorted(os.listdir(where))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3), (argv, err.getvalue())
            if code:
                assert len(err.getvalue().splitlines()) == 1, err.getvalue()
                assert err.getvalue().startswith("error["), err.getvalue()
                assert sorted(os.listdir(where)) == before
            for output in ("out.csv", "out.meta.json"):
                Path(where, output).unlink(missing_ok=True)


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

    @pytest.mark.parametrize("level", ["info", "error", None])
    def test_log_env_info_prints_progress(self, stream, level):
        """The program logs only at INFO: `info` prints its progress line, `error` or
        no value prints nothing."""
        env = {k: v for k, v in os.environ.items() if k != "ENTITYFORGE_LOG"}
        if level:
            env["ENTITYFORGE_LOG"] = level
        proc = subprocess.run(
            [sys.executable, "-m", "entityforge.cli", "run", "--tx", stream, "--heuristic", "cio"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        progress = f"INFO entityforge: running heuristic cio over {stream}\n"
        assert proc.stderr == (progress if level == "info" else "")

    def test_log_env_unknown_level_falls_back(self, stream):
        # BASIC_FORMAT is a logging attribute but not a level name
        proc = self._validate_with_log(stream, "basic_format")
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["transactions"] == 1
