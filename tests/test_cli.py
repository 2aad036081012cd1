import json
import struct
import threading
import zlib

import numpy as np
import pytest

from nervedecode.checkpoint import load_checkpoint_file
from nervedecode.cli import main
from nervedecode.synthgen import load_session

from loopback import decode_over_socket


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    """Two small two-gesture sessions on the 16-channel default profile."""
    root = tmp_path_factory.mktemp("cli_data")
    args = ["synth", "--gestures", "100000,010000", "--reps", "6",
            "--hold", "2.0", "--rest", "1.2"]
    assert run_cli(*args, "--out", str(root / "a"), "--seed", "31") == 0
    assert run_cli(*args, "--out", str(root / "b"), "--seed", "32") == 0
    return root / "a", root / "b"


@pytest.fixture(scope="module")
def cli_model(cli_dataset, tmp_path_factory):
    a, b = cli_dataset
    out = tmp_path_factory.mktemp("cli_model") / "model.ndm"
    code = run_cli("train", "--data", str(a), str(b), "--out", str(out),
                   "--seeds", "1", "--epochs", "15",
                   "--conv-out", "32", "--gru-hidden", "32", "--fc-hidden", "16",
                   "--history", "0.5")
    assert code == 0
    return out


class TestSynth:
    def test_dataset_loadable_and_manifest_written(self, cli_dataset):
        a, _ = cli_dataset
        session = load_session(a)
        assert session.recording.channels == 16
        manifest = json.loads((a / "run_manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seeds"] == [31]

    def test_bad_gesture_string_is_usage_error(self, tmp_path):
        code = run_cli("synth", "--out", str(tmp_path / "x"), "--gestures", "10000")
        assert code == 2

    def test_refuses_nonempty_out_without_force(self, cli_dataset):
        a, _ = cli_dataset
        assert run_cli("synth", "--out", str(a), "--gestures", "100000") == 2

    def test_same_seed_byte_identical_dataset(self, tmp_path):
        args = ["synth", "--gestures", "100000", "--reps", "2", "--hold", "0.8",
                "--rest", "0.6", "--seed", "77"]
        assert run_cli(*args, "--out", str(tmp_path / "fst")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "snd")) == 0
        for name in sorted(p.name for p in (tmp_path / "fst").iterdir()):
            if name == "run_manifest.json":
                continue  # carries wall-clock timing
            assert (tmp_path / "fst" / name).read_bytes() == \
                (tmp_path / "snd" / name).read_bytes()


class TestTrain:
    def test_single_session_without_split_is_usage_error(self, cli_dataset, tmp_path):
        a, _ = cli_dataset
        assert run_cli("train", "--data", str(a), "--out", str(tmp_path / "m.ndm")) == 2

    def test_split_with_two_sessions_is_usage_error(self, cli_dataset, tmp_path, capsys):
        """--split holds out part of the one session given; with a second
        session it would be ignored, so the combination is refused."""
        a, b = cli_dataset
        out = tmp_path / "m.ndm"
        assert run_cli("train", "--data", str(a), str(b), "--out", str(out),
                       "--split", "0.3") == 2
        assert "--split" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["0", "nan", "inf", "-10"])
    def test_bad_frame_rate_is_usage_error(self, cli_dataset, tmp_path, rate):
        a, b = cli_dataset
        assert run_cli("train", "--data", str(a), str(b), "--out", str(tmp_path / "m.ndm"),
                       "--frame-rate", rate) == 2

    def test_single_seed_matches_library_train(self, cli_dataset, cli_model):
        from nervedecode.dataset import build_training_data, session_frames
        from nervedecode.features import FeatureWindowSpec
        from nervedecode.network import ModelConfig
        from nervedecode.training import TrainConfig, train

        a, b = cli_dataset
        window = FeatureWindowSpec(history_s=0.5)
        data = build_training_data(
            session_frames(load_session(a), window),
            session_frames(load_session(b), window))
        cfg = ModelConfig(input_rows=224, steps=window.steps, conv_out=32,
                          gru_hidden=32, fc_hidden=16)
        params, _ = train(data, TrainConfig(max_epochs=15, seeds=(1,)), seed=1,
                          model_cfg=cfg)
        from_cli = load_checkpoint_file(cli_model)
        for name, arr in params.tensors.items():
            np.testing.assert_array_equal(
                from_cli.tensors[name], arr.astype(np.float32).astype(np.float64))

    def test_manifest_records_the_environment(self, cli_model):
        """The train manifest names the versions and the BLAS thread setting
        its numbers and timings depend on."""
        import os
        import platform

        manifest = json.loads(
            (cli_model.parent / (cli_model.stem + "_report") / "run_manifest.json").read_text())
        env = manifest["environment"]
        assert set(env) == {"python", "numpy", "scipy", "blas", "OPENBLAS_NUM_THREADS"}
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["blas"] and env["scipy"]
        assert env["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")

    def test_report_files_written(self, cli_model):
        report = cli_model.parent / (cli_model.stem + "_report")
        assert (report / "summary.json").exists()
        assert (report / "per_dof.jsonl").exists()
        summary = json.loads((report / "summary.json").read_text())
        assert len(summary["per_dof"]) == 6

    def test_split_mode_trains_from_one_session(self, cli_dataset, tmp_path):
        a, _ = cli_dataset
        out = tmp_path / "split.ndm"
        code = run_cli("train", "--data", str(a), "--out", str(out), "--split", "0.3",
                       "--seeds", "1", "--epochs", "1", "--conv-out", "16",
                       "--gru-hidden", "16", "--fc-hidden", "8", "--history", "0.5")
        assert code == 0
        assert out.exists()


class TestEval:
    def test_eval_on_training_session_low_error(self, cli_dataset, cli_model, tmp_path):
        a, _ = cli_dataset
        out = tmp_path / "evalrep"
        assert run_cli("eval", "--model", str(cli_model), "--data", str(a),
                       "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean_pred_error"] < 0.08

    def test_checkpoint_that_misses_its_fingerprint_is_refused(self, cli_dataset, cli_model,
                                                                  tmp_path, capsys):
        """A weight changed after saving, under a fresh CRC, loads; its
        stored fingerprint probabilities then no longer reproduce."""
        a, _ = cli_dataset
        blob = bytearray(cli_model.read_bytes())
        at = blob.index(b"\x05\x00fc2_b\x01") + 8 + 4  # name entry, then one u32 dim
        (value,) = struct.unpack_from("<f", blob, at)
        struct.pack_into("<f", blob, at, value + 0.5)
        body = bytes(blob[:-4])
        tampered = tmp_path / "tampered.ndm"
        tampered.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        load_checkpoint_file(tampered)
        capsys.readouterr()
        assert run_cli("eval", "--model", str(tampered), "--data", str(a),
                       "--out", str(tmp_path / "rep")) == 1
        assert "fingerprint" in capsys.readouterr().err

    def test_missing_checkpoint_is_usage_error(self, cli_dataset, tmp_path):
        a, _ = cli_dataset
        assert run_cli("eval", "--model", str(tmp_path / "missing.ndm"),
                       "--data", str(a)) == 2

    def test_malformed_manifest_is_usage_error(self, cli_dataset, cli_model, tmp_path):
        """A session whose manifest is not JSON is a data error: exit 2 from
        train and from eval."""
        a, _ = cli_dataset
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text("{")
        assert run_cli("train", "--data", str(a), str(bad), "--out", str(tmp_path / "m.ndm"),
                       "--seeds", "1", "--epochs", "1") == 2
        assert run_cli("eval", "--model", str(cli_model), "--data", str(bad),
                       "--out", str(tmp_path / "rep")) == 2


class TestMatch:
    def test_trial_log_and_stats_written(self, cli_model, tmp_path):
        out = tmp_path / "match"
        code = run_cli("match", "--model", str(cli_model), "--trials", "6",
                       "--seed", "3", "--out", str(out))
        assert code == 0
        lines = (out / "trials.jsonl").read_text().splitlines()
        assert len(lines) == 6
        stats = json.loads((out / "stats.json").read_text())
        assert stats["trials"] == 6

    def test_tight_cutoff_gives_zero_success(self, cli_model, tmp_path):
        out = tmp_path / "match0"
        code = run_cli("match", "--model", str(cli_model), "--trials", "4",
                       "--cutoff", "0.01", "--seed", "3", "--out", str(out))
        assert code == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["success_rate"] == 0.0

    def test_same_seed_identical_trial_log(self, cli_model, tmp_path):
        """The trial log and the session statistics hold no wall-clock value,
        so the same seed writes the same bytes."""
        outs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            assert run_cli("match", "--model", str(cli_model), "--trials", "5",
                           "--seed", "9", "--out", str(out)) == 0
            outs.append([(out / f).read_bytes() for f in ("trials.jsonl", "stats.json")])
        assert outs[0] == outs[1]

    def test_restricted_targets_match_trained_gestures(self, cli_model, tmp_path):
        out = tmp_path / "restricted"
        code = run_cli("match", "--model", str(cli_model), "--targets", "100000,010000",
                       "--trials", "8", "--seed", "5", "--out", str(out))
        assert code == 0
        stats = json.loads((out / "stats.json").read_text())
        assert set(stats["per_gesture"]) <= {"100000", "010000"}
        assert stats["success_rate"] >= 0.75
        # rest + 2 gestures at 2 selections per trial
        assert stats["info_per_trial_bits"] == pytest.approx(3.0)


class TestSweep:
    def test_single_length_degenerate_table(self, cli_dataset, tmp_path):
        a, b = cli_dataset
        out = tmp_path / "sweep"
        code = run_cli("sweep-input-length", "--data", str(a), str(b),
                       "--lengths", "0.5", "--seeds", "1",
                       "--conv-out", "16", "--gru-hidden", "16", "--fc-hidden", "8",
                       "--out", str(out))
        assert code == 0
        rows = json.loads((out / "sweep.json").read_text())
        assert len(rows) == 1
        assert rows[0]["history_s"] == 0.5
        assert rows[0]["decode_p95_us"] > 0


class TestServe:
    def test_port_in_use_is_usage_error(self, cli_model):
        import socket

        sock = socket.create_server(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        try:
            code = run_cli("serve", "--model", str(cli_model),
                           "--endpoint", f"127.0.0.1:{port}")
            assert code == 2
        finally:
            sock.close()

    @pytest.mark.parametrize("port", ["99999", "\u00b2", "-1", ""],
                             ids=["too-large", "superscript-two", "negative", "empty"])
    def test_bad_endpoint_port_is_usage_error(self, cli_model, capsys, port):
        code = run_cli("serve", "--model", str(cli_model),
                       "--endpoint", f"127.0.0.1:{port}", "--max-connections", "0")
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("body", [
        "rate_hz = 25\n",                            # no [engine] header
        "[engine]\nrate_hz = 25\n[window]\nwindow_ms = 90\n",
    ], ids=["no-header", "window-section"])
    def test_bad_engine_config_is_usage_error(self, cli_model, tmp_path, body):
        ini = tmp_path / "engine.ini"
        ini.write_text(body)
        code = run_cli("serve", "--model", str(cli_model), "--config", str(ini),
                       "--endpoint", "127.0.0.1:0", "--max-connections", "0")
        assert code == 2

    def test_engine_config_sets_the_rate(self, cli_model, tmp_path, capsys):
        ini = tmp_path / "engine.ini"
        ini.write_text("[engine]\nrate_hz = 25\n")
        code = run_cli("serve", "--model", str(cli_model), "--config", str(ini),
                       "--endpoint", "127.0.0.1:0", "--max-connections", "0")
        assert code == 0
        assert "at 25.0 Hz" in capsys.readouterr().out

    def test_smoke_serve_and_decode(self, cli_dataset, cli_model, capsys):
        import re
        import time

        a, _ = cli_dataset
        thread = threading.Thread(
            target=run_cli,
            args=("serve", "--model", str(cli_model), "--endpoint", "127.0.0.1:0",
                  "--max-connections", "1"),
            daemon=True)
        thread.start()
        out = ""
        deadline = time.time() + 10.0
        while "serving" not in out and time.time() < deadline:
            time.sleep(0.05)
            out += capsys.readouterr().out
        bound = re.search(r"serving \S+ on (127\.0\.0\.1:(\d+)) ", out)
        assert bound, f"no bound endpoint printed: {out!r}"
        assert int(bound.group(2)) != 0
        preds, _ = decode_over_socket(load_session(a).recording, bound.group(1))
        thread.join(timeout=10.0)
        assert preds, "no predictions received over loopback"

    def test_unknown_command_usage_error(self):
        assert run_cli("frobnicate") == 2
