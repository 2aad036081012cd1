"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

The synthetic 16-channel benchmark (7 gestures x 10 repetitions x 2 sessions,
3-seed restart training) backs the end-to-end criteria.
"""
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from nervedecode.chronometry import (
    MatchingTaskConfig, SimulatedSubject, cross_session_eval, reaction_stats,
    run_matching_session, write_trial_log,
)
from nervedecode.checkpoint import save_checkpoint
from nervedecode.dataset import build_training_data, session_frames
from nervedecode.engine import EngineConfig, decode_over_socket, replay_blocks, run_pipeline
from nervedecode.features import (
    FeatureThresholds, FeatureWindowSpec, NormStats, extract_features,
)
from nervedecode.gestures import REST
from nervedecode.metrics import (
    ConfusionCounts, GestureDistribution, balanced_accuracy, info_per_trial,
    information_throughput, mean_balanced_accuracy,
)
from nervedecode.network import ModelConfig, init_params
from nervedecode.synthgen import (
    DriftSpec, SessionSpec, apply_drift, generate_session, make_profile, save_session,
)
from nervedecode.training import TrainConfig, evaluate_frames, multi_seed_train, train

from oracles import brute_features

BENCH_GESTURES = ("100000", "010000", "001000", "000100", "000010", "111110", "000001")
BENCH_WINDOW = FeatureWindowSpec()
BENCH_MODEL = ModelConfig(input_rows=224, steps=50, conv_out=96, gru_hidden=96,
                          fc_hidden=48, dropout_rate=0.5)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def checked(criterion: str, detail_fn):
    """Run detail_fn, print the criterion verdict, re-raise on failure."""
    try:
        detail = detail_fn()
    except BaseException as exc:
        report(criterion, False, str(exc))
        raise
    report(criterion, True, detail)


@pytest.fixture(scope="module")
def bench():
    """Benchmark datasets + 3-seed trained model; timed for ACC-07."""
    started = time.perf_counter()
    profile = make_profile()
    spec = SessionSpec(gestures=BENCH_GESTURES, repetitions=10, hold_s=2.0, rest_s=1.5,
                       session_id="bench")
    train_session = generate_session(profile, spec, seed=301)
    val_session = generate_session(profile, spec, seed=302)
    data = build_training_data(session_frames(train_session, BENCH_WINDOW),
                               session_frames(val_session, BENCH_WINDOW))
    params, summaries = multi_seed_train(data, TrainConfig(seeds=(1, 2, 3)), BENCH_MODEL)
    metrics = evaluate_frames(params, data.x_val, data.y_val)
    elapsed = time.perf_counter() - started
    return {
        "profile": profile, "spec": spec, "train_session": train_session,
        "val_session": val_session, "data": data, "params": params,
        "summaries": summaries, "metrics": metrics, "elapsed_s": elapsed,
    }


def test_acc01_information_per_trial_exact():
    def run():
        started = time.perf_counter()
        dist = GestureDistribution.rest_plus_uniform([f"g{i}" for i in range(8)])
        bits = info_per_trial(dist, selections_per_trial=2)
        elapsed = time.perf_counter() - started
        assert abs(bits - 5.0) <= 1e-12, f"got {bits!r}"
        assert elapsed < 1.0
        return f"rest 0.5 + 8 x 0.0625, 2 selections -> {bits} bits (tol 1e-12)"

    checked("ACC-01 info-per-trial", run)


def test_acc02_throughput_consistency():
    def run():
        started = time.perf_counter()
        out = information_throughput(0.992, 5.0, 0.81)
        elapsed = time.perf_counter() - started
        assert abs(out["bps"] - 6.09) <= 0.05, f"bps {out['bps']:.4f} vs 6.09"
        assert out["bpm"] == 60.0 * out["bps"]
        assert elapsed < 1.0
        return (f"(0.992, 5 bits, 0.81 s) -> {out['bps']:.4f} bps "
                f"(within 0.05 of 6.09), bpm = 60 x bps exactly")

    checked("ACC-02 throughput", run)


def test_acc03_metrics_exact():
    def run():
        counts = ConfusionCounts(np.array([946]), np.array([999]),
                                 np.array([1]), np.array([54]))
        m = balanced_accuracy(counts)[0]
        assert abs(m.tpr - 0.946) <= 1e-12
        assert abs(m.tnr - 0.999) <= 1e-12
        assert abs(m.bal_acc - 0.9725) <= 1e-12
        assert abs(m.pred_error - 0.0275) <= 1e-12
        return f"TPR 0.946, TNR 0.999 -> balanced accuracy {m.bal_acc} (tol 1e-12)"

    checked("ACC-03 metrics-exact", run)


def test_acc04_feature_oracle_equivalence():
    def run():
        started = time.perf_counter()
        rng = np.random.default_rng(42)
        thr = FeatureThresholds()
        worst_rel = 0.0
        # 1e-12 relative with a 1e-14 absolute floor: MAVS is a difference of
        # two means and crosses zero, where a pure ratio is ill-posed; the
        # floor sits two decades above double-precision rounding of these
        # O(1) windows and far below any feature's working magnitude.
        for _ in range(1000):
            window = rng.uniform(-1.0, 1.0, size=500)
            got = extract_features(window, thr)
            want = np.asarray(brute_features(window, thr))
            assert_allclose(got, want, rtol=1e-12, atol=1e-14)
            worst_rel = max(worst_rel, float(np.max(
                np.abs(got - want) / np.maximum(np.abs(want), 1e-14))))
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f} s"
        return (f"1000 windows x 14 features vs brute force: worst rel err "
                f"{worst_rel:.2e} (rtol 1e-12, atol floor 1e-14) in {elapsed:.1f} s")

    checked("ACC-04 feature-oracle", run)


def test_acc05_gradient_check():
    def run():
        from nervedecode.network import TRAINABLE, batch_loss_and_grads, forward_batch, loss
        from oracles import finite_difference_grads

        started = time.perf_counter()
        tiny = ModelConfig(input_rows=2 * 14, steps=5, conv_out=8, gru_hidden=8,
                           fc_hidden=8, dropout_rate=0.5)
        rng = np.random.default_rng(11)
        params = init_params(tiny, rng)
        params.bn_mean = rng.normal(0.0, 0.2, size=tiny.conv_out)
        params.bn_var = rng.uniform(0.5, 1.5, size=tiny.conv_out)
        for name in ("conv_b", "gru_b", "fc1_b", "fc2_b", "bn_beta"):
            params.tensors[name] = rng.normal(0.0, 0.1, size=params.tensors[name].shape)
        x = rng.normal(size=(4, tiny.input_rows, tiny.steps))
        y = rng.integers(0, 2, size=(4, 6)).astype(np.float64)
        keep = 1.0 - tiny.dropout_rate
        mask = (rng.random((4, tiny.gru_hidden)) < keep) / keep

        _, grads, _ = batch_loss_and_grads(x, y, params, dropout_mask=mask)

        def batch_loss(p):
            probs, _ = forward_batch(x, p, train=True, dropout_mask=mask)
            return loss(probs, y)

        fd = finite_difference_grads(batch_loss, params, TRAINABLE, h=1e-5)
        worst = 0.0
        total = 0
        for name in TRAINABLE:
            a, b = grads[name].ravel(), fd[name].ravel()
            scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
            worst = max(worst, float(np.max(np.abs(a - b) / scale)))
            total += a.size
        elapsed = time.perf_counter() - started
        assert worst < 1e-4, f"worst relative error {worst:.3e}"
        assert elapsed < 60.0, f"took {elapsed:.1f} s"
        return (f"{total} parameters, central differences h=1e-5: worst rel err "
                f"{worst:.2e} (tol 1e-4) in {elapsed:.1f} s")

    checked("ACC-05 gradient-check", run)


def test_acc06_determinism(tmp_path, tiny_profile, tiny_training_data, tiny_model_cfg,
                           tiny_trained):
    def run():
        # datasets
        spec = SessionSpec(gestures=("100000",), repetitions=2, hold_s=0.8, rest_s=0.6,
                           session_id="det")
        for name in ("d1", "d2"):
            save_session(generate_session(tiny_profile, spec, seed=55), tmp_path / name)
        names = sorted(p.name for p in (tmp_path / "d1").iterdir())
        for name in names:
            assert (tmp_path / "d1" / name).read_bytes() == \
                (tmp_path / "d2" / name).read_bytes(), f"dataset file {name} differs"
        # checkpoints
        cfg = TrainConfig(max_epochs=2)
        p1, _ = train(tiny_training_data, cfg, seed=7, model_cfg=tiny_model_cfg)
        p2, _ = train(tiny_training_data, cfg, seed=7, model_cfg=tiny_model_cfg)
        assert save_checkpoint(p1) == save_checkpoint(p2), "checkpoints differ"
        # trial logs
        params, _ = tiny_trained
        subject = SimulatedSubject(profile=tiny_profile)
        mcfg = MatchingTaskConfig(targets=(REST, "100000", "010000"), trials=5)
        for name in ("t1.jsonl", "t2.jsonl"):
            write_trial_log(run_matching_session(params, subject, mcfg, seed=23),
                            tmp_path / name)
        assert (tmp_path / "t1.jsonl").read_bytes() == (tmp_path / "t2.jsonl").read_bytes()
        return "datasets, checkpoints, and trial logs byte-identical across reruns"

    checked("ACC-06 determinism", run)


def test_acc07_benchmark_accuracy(bench):
    def run():
        acc = mean_balanced_accuracy(bench["metrics"])
        per_dof = ", ".join(f"{m.name} {m.bal_acc:.3f}" for m in bench["metrics"])
        assert acc > 0.95, f"mean balanced accuracy {acc:.4f} (need > 0.95); {per_dof}"
        assert bench["elapsed_s"] < 600.0, f"took {bench['elapsed_s']:.0f} s (budget 600)"
        return (f"3-seed restart on 7 gestures x 10 reps x 2 sessions: mean balanced "
                f"accuracy {acc:.4f} (> 0.95) in {bench['elapsed_s']:.0f} s; {per_dof}")

    checked("ACC-07 benchmark", run)


def test_acc08_matching_task(bench):
    def run():
        started = time.perf_counter()
        subject = SimulatedSubject(profile=bench["profile"])
        cfg = MatchingTaskConfig(trials=200)
        results = run_matching_session(bench["params"], subject, cfg, seed=2024)
        stats = reaction_stats(results, cfg)
        elapsed = time.perf_counter() - started
        assert stats["success_rate"] >= 0.99, f"success rate {stats['success_rate']:.3f}"
        assert 0.6 <= stats["median_rt_s"] <= 1.0, f"median RT {stats['median_rt_s']:.3f} s"
        recomputed = information_throughput(stats["success_rate"],
                                            stats["info_per_trial_bits"],
                                            stats["median_rt_s"])
        assert stats["throughput"] == recomputed, "session ITR inconsistent with formula"
        assert elapsed < 300.0, f"took {elapsed:.0f} s (budget 300)"
        return (f"200 trials: success {stats['success_rate']:.3f} (>= 0.99), median RT "
                f"{stats['median_rt_s']:.2f} s (in [0.6, 1.0]), "
                f"{stats['throughput']['bps']:.2f} bps in {elapsed:.0f} s")

    checked("ACC-08 matching-task", run)


def test_acc09_input_length_sweep(bench):
    def run():
        errors = {}
        for history in (0.2, 1.0):
            window = FeatureWindowSpec(history_s=history)
            data = build_training_data(
                session_frames(bench["train_session"], window),
                session_frames(bench["val_session"], window))
            model_cfg = ModelConfig(input_rows=224, steps=window.steps, conv_out=96,
                                    gru_hidden=96, fc_hidden=48)
            params, _ = train(data, TrainConfig(), seed=1, model_cfg=model_cfg)
            metrics = evaluate_frames(params, data.x_val, data.y_val)
            errors[history] = 1.0 - mean_balanced_accuracy(metrics)
        assert errors[1.0] <= errors[0.2], \
            f"error at 1.0 s ({errors[1.0]:.4f}) > error at 0.2 s ({errors[0.2]:.4f})"

        # decode-latency spread across lengths at fixed 10 Hz
        rng = np.random.default_rng(0)
        from nervedecode.sigproc import RAW_SAMPLE_RATE_HZ, Recording

        probe = Recording(RAW_SAMPLE_RATE_HZ,
                          rng.normal(0, 2.0, (16, 20 * RAW_SAMPLE_RATE_HZ)).astype(np.float32))
        p50 = {}
        for history in (0.2, 0.5, 1.0, 2.0):
            window = FeatureWindowSpec(history_s=history)
            cfg_m = ModelConfig(input_rows=224, steps=window.steps, conv_out=96,
                                gru_hidden=96, fc_hidden=48)
            params = init_params(cfg_m, np.random.default_rng(1))
            params.norm_stats = NormStats.identity(224)
            params.channels = 16
            params.window = window
            _, rep = run_pipeline(probe, params)
            p50[history] = rep.percentile("decode_us", 50)
        spread = max(p50.values()) / min(p50.values())
        lat = ", ".join(f"{h}s: {v:.0f}us" for h, v in p50.items())
        assert spread < 2.0, (
            f"decode latency varies {spread:.1f}x across 0.2-2 s ({lat}); "
            f"errors 0.2s={errors[0.2]:.4f} >= 1.0s={errors[1.0]:.4f} held")
        return (f"error 1.0 s {errors[1.0]:.4f} <= error 0.2 s {errors[0.2]:.4f}; "
                f"decode p50 spread {spread:.2f}x ({lat})")

    checked("ACC-09 input-length-sweep", run)


def test_acc10_drift_persistence(bench):
    def run():
        started = time.perf_counter()
        drift = DriftSpec()
        eval_spec = SessionSpec(gestures=BENCH_GESTURES, repetitions=4, hold_s=2.0,
                                rest_s=1.5, session_id="drift-eval")
        errors = []
        for days in (0, 23, 46, 70):
            profile_d = apply_drift(bench["profile"], drift, days)
            session = generate_session(profile_d, eval_spec, seed=500, )
            rep = cross_session_eval([], session, reuse_params=bench["params"])
            errors.append((days, rep.mean_pred_error))
        for (d0, e0), (d1, e1) in zip(errors, errors[1:]):
            assert e1 > e0, f"error at day {d1} ({e1:.4f}) not above day {d0} ({e0:.4f})"

        profile_70 = apply_drift(bench["profile"], drift, 70)
        retrain_spec = SessionSpec(gestures=BENCH_GESTURES, repetitions=8, hold_s=2.0,
                                   rest_s=1.5, session_id="drift-retrain")
        sess_train = generate_session(profile_70, retrain_spec, seed=701)
        sess_eval = generate_session(profile_70, eval_spec, seed=702)
        data = build_training_data(session_frames(sess_train, BENCH_WINDOW),
                                   session_frames(sess_eval, BENCH_WINDOW))
        params70, _ = train(data, TrainConfig(), seed=1, model_cfg=BENCH_MODEL)
        err70 = 1.0 - mean_balanced_accuracy(
            evaluate_frames(params70, data.x_val, data.y_val))
        baseline = errors[0][1]
        elapsed = time.perf_counter() - started
        assert abs(err70 - baseline) <= 0.02, \
            f"retrained error {err70:.4f} vs baseline {baseline:.4f} (> 2 pp apart)"
        assert elapsed < 900.0, f"took {elapsed:.0f} s (budget 900)"
        curve = ", ".join(f"day {d}: {e:.4f}" for d, e in errors)
        return (f"no-retrain errors rise monotonically ({curve}); retrained day-70 "
                f"error {err70:.4f} within 2 pp of baseline {baseline:.4f} "
                f"in {elapsed:.0f} s")

    checked("ACC-10 drift-persistence", run)


def test_acc11_pipeline_equivalence(bench):
    def run():
        import threading

        from nervedecode.engine import serve

        spec = SessionSpec(gestures=("100000", "111110"), repetitions=2, hold_s=1.2,
                           rest_s=0.8, session_id="equiv")
        rec = generate_session(bench["profile"], spec, seed=888).recording
        params = bench["params"]
        cfg = EngineConfig()

        offline, _ = run_pipeline(rec, params, cfg)
        paced, _ = run_pipeline(replay_blocks(rec, 1500), params, cfg, realtime=True)
        assert len(offline) == len(paced) > 0
        for a, b in zip(offline, paced):
            assert_array_equal(a.probabilities, b.probabilities)

        stop = threading.Event()
        ready = threading.Event()
        addr = {}

        def on_ready(sockname):
            addr["ep"] = f"{sockname[0]}:{sockname[1]}"
            ready.set()

        thread = threading.Thread(target=serve, args=("127.0.0.1:0", params, cfg),
                                  kwargs={"stop": stop, "max_connections": 1,
                                          "on_ready": on_ready}, daemon=True)
        thread.start()
        assert ready.wait(5.0)
        try:
            served, _ = decode_over_socket(rec, addr["ep"])
        finally:
            stop.set()
            thread.join(timeout=5.0)
        assert len(served) == len(offline)
        for msg, pred in zip(served, offline):
            assert_array_equal(np.asarray(msg.probabilities, dtype=np.float32),
                               pred.probabilities.astype(np.float32))

        # wire golden bytes
        from nervedecode import wire

        frame = wire.encode_frame(wire.PredictionMsg(
            1_000_000, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0x01, 250, 5000))
        golden_hex = ("444e01022900000040420f00000000000000803f0000000000000000"
                      "00000000000000000000000001fa00000088130000df7efab6")
        assert frame.hex() == golden_hex, "prediction frame bytes deviate from golden"
        return (f"offline == paced realtime == served loopback over {len(offline)} "
                f"frames; golden wire bytes bit-exact")

    checked("ACC-11 pipeline-equivalence", run)


def test_acc12_latency_budget(bench):
    # Hardware-qualified: run on an otherwise idle machine. The 60 s replay
    # (~590 frames) keeps the p95 estimate stable against scheduler bursts.
    def run():
        rng = np.random.default_rng(0)
        from nervedecode.sigproc import RAW_SAMPLE_RATE_HZ, Recording

        probe = Recording(RAW_SAMPLE_RATE_HZ,
                          rng.normal(0, 2.0, (16, 60 * RAW_SAMPLE_RATE_HZ)).astype(np.float32))
        default_cfg = ModelConfig()
        params = init_params(default_cfg, np.random.default_rng(1))
        params.norm_stats = NormStats.identity(default_cfg.input_rows)
        params.channels = 16
        _, rep = run_pipeline(probe, params)
        feat = rep.percentile("feature_us", 95)
        dec = rep.percentile("decode_us", 95)
        assert feat < 1000.0, f"feature p95 {feat:.0f} us (budget 1000)"
        assert dec < 20000.0, f"decode p95 {dec:.0f} us (budget 20000)"
        return (f"default model ({params.parameter_count} parameters), 16 ch, 10 Hz, "
                f"{rep.frames} frames: feature p95 {feat:.0f} us < 1 ms, "
                f"decode p95 {dec:.0f} us < 20 ms (hardware-qualified)")

    checked("ACC-12 latency-budget", run)
