"""The four workloads. Each builds its inputs from the seed, sets up, runs its
measured phase, checks the outputs and returns an `Outcome`.

A measured phase returns its raw observations. End-to-end metrics come only
from a phase that times at most the one boundary they need. With tracing on,
the same work runs a second time with every layer traced: that phase gives
the spans and the per-layer figures, and the wall (or, for `serve`, server
CPU) difference between the two phases is the tracing overhead.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import json
import math
import resource
import select
import socket
import statistics
import subprocess
import sys
import time

import numpy as np

import common
import reference
from tracing import Tracer, layer_metrics, read_spans
from nervedecode import (
    checkpoint, chronometry, dataset, engine, errors, gestures, metrics, network,
    synthgen, training, wire,
)

RAW_HZ = 10_000
SETUP_REPEATS = 3
REPLAY_BLOCK = 1000          # 100 ms, the engine's own ingest chunk
SERVE_BLOCK = 100            # 10 ms
SERVE_PACE = 1.0             # real time: signal seconds sent per wall-clock second
SERVE_BAL_ACC_FLOOR = 0.80
MATCH_TRIALS = 200           # the size of ACC-08
CALIBRATE_REPS = 2
CALIBRATE_TRAIN = dict(lr0=1e-3)
CALIBRATE_TRAIN_SEED = 1
REPLAY_TOL = 1e-9            # float64 program vs float64 reference
WIRE_TOL = 1e-6              # float32 wire vs float64 reference
FRAME_RTOL, FRAME_ATOL = 1e-6, 1e-9   # float32 frames vs float64 reference


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int = 0
    checks: list = field(default_factory=list)     # (name, ok, detail)
    info: dict = field(default_factory=dict)       # printed, not in the JSON
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))


def _session(seed: int, tag: int, repetitions: int, hold_s: float = 2.0,
             rest_s: float = 1.5):
    spec = synthgen.SessionSpec(gestures=common.GESTURES, repetitions=repetitions,
                                hold_s=hold_s, rest_s=rest_s)
    ss = np.random.SeedSequence(common.workload_seed(seed, tag))
    return synthgen.generate_session(synthgen.make_profile(), spec,
                                     int(ss.generate_state(1)[0]))


def _median_setup(fn, repeats: int = SETUP_REPEATS):
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _cpu_s() -> float:
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pcts_ms(latencies_s) -> tuple[float, float]:
    """Median and 95th percentile in ms. Only the median is an end-to-end
    metric: on a shared two-core host the 95th percentile follows the host's
    own stalls and is printed for information."""
    arr = np.asarray(latencies_s) * 1e3
    return float(np.percentile(arr, 50)), float(np.percentile(arr, 95))


def _expected_ticks(fed_raw: int, params, rate_hz: float = 10.0) -> tuple[list, int]:
    """Tick end samples (raw) the sample clock allows for `fed_raw` samples
    under either firing rule, and the one tick ending exactly at the last
    sample (or -1), which only the inclusive rule emits."""
    need_raw = 2 * params.window.min_history_samples(RAW_HZ // 2)
    per_tick = int(RAW_HZ / rate_hz)
    ends = [m * per_tick for m in range(fed_raw // per_tick + 1)]
    required = [e for e in ends if e >= need_raw and e < fed_raw]
    optional = fed_raw if fed_raw % per_tick == 0 and fed_raw >= need_raw else -1
    return required, optional


def _block_of(end_raw: int, block: int) -> int:
    """Index of the block that holds raw sample end_raw - 1."""
    return -(-end_raw // block) - 1


def _tracer_overhead(plain_cost: float, traced_cost: float) -> float:
    return 100.0 * (traced_cost - plain_cost) / plain_cost


# ---------------------------------------------------------------------------
# replay: one held-out session, in-process, unpaced and closed-loop
# ---------------------------------------------------------------------------

def _replay_phase(params, samples, seconds=None, blocks=None):
    """Feed REPLAY_BLOCK blocks until `seconds` pass or `blocks` are fed,
    starting a fresh pipeline at each end of the session."""
    n_raw = samples.shape[1] - samples.shape[1] % REPLAY_BLOCK
    passes, fed = [], 0
    cpu0, t0 = _cpu_s(), time.perf_counter()
    while True:
        pos = fed % n_raw
        if pos == 0:
            pipe = engine.DecodePipeline(params)
            passes.append([])
        passes[-1].extend(pipe.ingest(samples[:, pos:pos + REPLAY_BLOCK]))
        fed += REPLAY_BLOCK
        if blocks is not None:
            if fed >= blocks * REPLAY_BLOCK:
                break
        elif time.perf_counter() - t0 >= seconds:
            break
    return {"wall": time.perf_counter() - t0, "cpu": _cpu_s() - cpu0, "fed": fed,
            "n_raw": n_raw, "passes": passes}


def replay(seed: int, seconds: float, trace: bool) -> Outcome:
    held = _session(seed, 1, repetitions=10).recording.samples
    norm_session = _session(seed, 2, repetitions=1, hold_s=1.0, rest_s=0.5)

    def build():
        params = network.init_params(network.ModelConfig(),
                                     np.random.default_rng(common.workload_seed(seed, 3)))
        frames = dataset.session_frames(norm_session)
        params.norm_stats = dataset.build_training_data(frames, None).stats
        engine.DecodePipeline(params)
        return params

    setup_s, params = _median_setup(build)
    with Tracer(only={"engine.ingest"}) as probe:
        run = _replay_phase(params, held, seconds=seconds / 2 if trace else seconds)
    rss = _peak_rss_mb()
    ticks = [p for pas in run["passes"] for p in pas]
    signal_s = run["fed"] / RAW_HZ
    p50, p95 = _pcts_ms(probe.tick_latencies_s())
    out = Outcome(metrics={
        "setup_s": setup_s, "tick_latency_p50_ms": p50,
        "realtime_factor": signal_s / run["wall"],
        "cpu_ms_per_signal_s": 1e3 * run["cpu"] / signal_s, "peak_rss_mb": rss,
    }, attempted=len(ticks))
    out.info = {"tick_latency_p95_ms": p95, "ticks": len(ticks), "signal_s": signal_s,
                "passes": len(run["passes"]), "parameters": params.parameter_count}

    clock_ok = True
    for i, pas in enumerate(run["passes"]):
        fed = min(run["n_raw"], run["fed"] - i * run["n_raw"])
        required, optional = _expected_ticks(fed, params)
        got = [round(p.frame_timestamp_s * RAW_HZ) for p in pas]
        clock_ok &= got in (required, required + [optional])
    out.check("tick clock", clock_ok,
              "tick count and timestamps follow the sample clock in every pass")
    bits_ok = all(p.label == gestures.bits_to_gesture(p.probabilities >= 0.5) for p in ticks)
    out.check("labels", bits_ok, "labels are the probabilities thresholded at 0.5")
    first = run["passes"][0]
    picks = np.random.default_rng(common.workload_seed(seed, 4)).choice(
        len(first), size=min(4, len(first)), replace=False)
    worst = max(float(np.max(np.abs(
        reference.tick_probabilities(held, round(first[i].frame_timestamp_s * RAW_HZ), params)
        - first[i].probabilities))) for i in picks)
    out.check("reference", worst <= REPLAY_TOL,
              f"{len(picks)} sampled ticks: max |p - p_ref| = {worst:.2e} (tol {REPLAY_TOL})")

    if trace:
        with Tracer() as tracer:
            traced = _replay_phase(params, held, blocks=run["fed"] // REPLAY_BLOCK)
        n = sum(len(p) for p in traced["passes"])
        out.layers = layer_metrics(tracer.spans, tracer.engine_e2e_us, n)
        out.layers["trace.overhead_pct"] = _tracer_overhead(run["wall"], traced["wall"])
        out.spans = tracer.spans
    return out


# ---------------------------------------------------------------------------
# serve: the service in its own process, one open-loop client
# ---------------------------------------------------------------------------

class Server:
    """One `server.py` process; the constructor returns once it listens."""

    def __init__(self, spans_path=None):
        cmd = [sys.executable, str(common.HERE / "server.py"), "--model",
               str(common.CHECKPOINT)]
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     cwd=str(common.ROOT))
        ready, _, _ = select.select([self.proc.stdout], [], [], 120.0)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            self.close()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])

    def result(self, timeout_s: float = 60.0) -> dict:
        """Wait for the server to exit after its session; its last line."""
        out, _ = self.proc.communicate(timeout=timeout_s)
        return json.loads(out.strip().splitlines()[-1])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _stream(port: int, samples: np.ndarray, n_blocks: int) -> dict:
    """Send n_blocks SERVE_BLOCK blocks open-loop at SERVE_PACE; collect the
    prediction frames with their arrival times."""
    interval = SERVE_BLOCK / RAW_HZ / SERVE_PACE
    reader = wire.FrameReader()
    preds, arrivals, lateness = [], [], []
    with socket.create_connection(("127.0.0.1", port), timeout=30.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        t0 = time.perf_counter() + 0.05
        k = 0

        def receive(data, now):
            for msg in reader.feed(data):
                if isinstance(msg, wire.PredictionMsg):
                    preds.append(msg)
                    arrivals.append(now)
                elif isinstance(msg, wire.ErrorMsg):
                    raise RuntimeError(f"server error {msg.code}: {msg.message}")

        while k < n_blocks:
            now = time.perf_counter()
            due = t0 + k * interval
            if now >= due:
                block = np.ascontiguousarray(
                    samples[:, k * SERVE_BLOCK:(k + 1) * SERVE_BLOCK], dtype=np.float32)
                sock.sendall(wire.encode_frame(wire.SampleBlockMsg(k * SERVE_BLOCK, block)))
                lateness.append(now - due)
                k += 1
                continue
            ready, _, _ = select.select([sock], [], [], due - now)
            if ready:
                data = sock.recv(1 << 16)
                if not data:
                    raise RuntimeError("server closed the connection early")
                receive(data, time.perf_counter())
        sock.shutdown(socket.SHUT_WR)
        while True:
            data = sock.recv(1 << 16)
            if not data:
                break
            receive(data, time.perf_counter())
        t_done = time.perf_counter()
    latencies = [arr - (t0 + _block_of(m.timestamp_us // 100, SERVE_BLOCK) * interval)
                 for m, arr in zip(preds, arrivals)]
    return {"preds": preds, "latencies": latencies, "wall": t_done - t0,
            "lateness_max_ms": 1e3 * max(lateness)}


def serve(seed: int, seconds: float, trace: bool) -> Outcome:
    phase_s = seconds / 2 if trace else seconds
    n_blocks = int(phase_s * SERVE_PACE * RAW_HZ) // SERVE_BLOCK
    reps = math.ceil(n_blocks * SERVE_BLOCK / RAW_HZ / 24.5)
    session = _session(seed, 5, repetitions=reps)
    samples = session.recording.samples
    params = checkpoint.load_checkpoint_file(common.CHECKPOINT)

    starts = []
    for _ in range(SETUP_REPEATS):
        if starts:
            server.close()
        t0 = time.perf_counter()
        server = Server()
        starts.append(time.perf_counter() - t0)
    setup_s = statistics.median(starts)
    try:
        run = _stream(server.port, samples, n_blocks)
        srv = server.result()
    finally:
        server.close()
    signal_s = n_blocks * SERVE_BLOCK / RAW_HZ
    sent = samples[:, :n_blocks * SERVE_BLOCK]
    served = {m.timestamp_us // 100: m for m in run["preds"]}
    required, optional = _expected_ticks(n_blocks * SERVE_BLOCK, params)
    missing = [e for e in required if e not in served]
    p50, p95 = _pcts_ms(run["latencies"])
    out = Outcome(metrics={
        "setup_s": setup_s, "tick_latency_p50_ms": p50,
        "realtime_factor": signal_s / run["wall"],
        "cpu_ms_per_signal_s": 1e3 * srv["cpu_s"] / signal_s,
        "peak_rss_mb": srv["maxrss_kb"] / 1024.0,
    }, attempted=len(required), failed=len(missing))

    local = engine.DecodePipeline(params)
    in_process = {}
    for k in range(n_blocks):
        for p in local.ingest(np.ascontiguousarray(
                sent[:, k * SERVE_BLOCK:(k + 1) * SERVE_BLOCK], dtype=np.float32)):
            in_process[round(p.frame_timestamp_s * RAW_HZ)] = p
    extra = set(served) - set(required) - {optional}
    equal = all(e in in_process and np.array_equal(
        np.asarray(m.probabilities, dtype=np.float32),
        in_process[e].probabilities.astype(np.float32)) for e, m in served.items())
    out.check("served == in-process", equal and not extra,
              f"{len(served)} served ticks equal in-process replay at float32; "
              f"{len(missing)} required ticks missing, {len(extra)} unexpected")
    picks = [int(e) for e in np.random.default_rng(common.workload_seed(seed, 6)).choice(
        required, size=3, replace=False) if int(e) in served]
    worst = max((float(np.max(np.abs(
        reference.tick_probabilities(sent, e, params)
        - np.asarray(served[e].probabilities)))) for e in picks), default=math.inf)
    out.check("reference", worst <= WIRE_TOL,
              f"{len(picks)} sampled ticks: max |p_served - p_ref| = {worst:.2e} "
              f"(tol {WIRE_TOL})")
    truth = [gestures.gesture_to_bits(session.labels[min(e // 200, len(session.labels) - 1)])
             for e in sorted(served)]
    guess = [gestures.gesture_to_bits(gestures.mask_to_gesture(served[e].mask))
             for e in sorted(served)]
    bal = _bal_acc(np.array(guess), np.array(truth))
    out.check("bal_acc", bal >= SERVE_BAL_ACC_FLOOR,
              f"served labels vs generator labels: {bal:.4f} (floor {SERVE_BAL_ACC_FLOOR})")
    out.info = {"tick_latency_p95_ms": p95, "ticks": len(served), "signal_s": signal_s,
                "pace": SERVE_PACE, "bal_acc": bal,
                "send_lateness_ms_max": run["lateness_max_ms"]}

    if trace:
        spans_path = common.OUT / f"server_spans_{seed}.jsonl"
        server = Server(spans_path)
        try:
            traced = _stream(server.port, samples, n_blocks)
            tsrv = server.result()
        finally:
            server.close()
        spans = read_spans(spans_path)
        spans_path.unlink()
        out.layers = layer_metrics(spans, tsrv["engine_e2e_us"], len(traced["preds"]))
        out.layers["client.send_lateness_ms_max"] = traced["lateness_max_ms"]
        out.layers["trace.overhead_pct"] = _tracer_overhead(srv["cpu_s"], tsrv["cpu_s"])
        out.spans = spans
    return out


def _bal_acc(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean over DOFs that have both classes of (TPR + TNR) / 2."""
    vals = []
    for d in range(truth.shape[1]):
        pos, neg = truth[:, d] == 1, truth[:, d] == 0
        if pos.any() and neg.any():
            vals.append((np.mean(pred[pos, d] == 1) + np.mean(pred[neg, d] == 0)) / 2)
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# match: the reaction-time study against the simulated subject
# ---------------------------------------------------------------------------

def _match_phase(params, subject, seed: int):
    """MATCH_TRIALS one-trial sessions, each with its own session seed. A
    trial whose schedule the generator refuses (a segment shorter than one
    sample) is left out and returned apart."""
    cfg = chronometry.MatchingTaskConfig(trials=1)
    results, left_out = [], []
    for k in range(MATCH_TRIALS):
        ss = np.random.SeedSequence(common.workload_seed(seed, 100 + k))
        try:
            results += chronometry.run_matching_session(
                params, subject, cfg, seed=int(ss.generate_state(1)[0]))
        except errors.ConfigError as exc:
            left_out.append(str(exc))
    return results, left_out


def match(seed: int, seconds: float, trace: bool) -> Outcome:
    def load():
        params = checkpoint.load_checkpoint_file(common.CHECKPOINT)
        subject = chronometry.SimulatedSubject(profile=synthgen.make_profile())
        engine.DecodePipeline(params)
        return params, subject

    setup_s, (params, subject) = _median_setup(load, repeats=21)
    with Tracer(only={"engine.ingest"}) as probe:
        cpu0, t0 = _cpu_s(), time.perf_counter()
        results, left_out = _match_phase(params, subject, seed)
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    rss = _peak_rss_mb()
    stats = chronometry.reaction_stats(results)
    signal_s = probe.fed_s()
    p50, p95 = _pcts_ms(probe.tick_latencies_s())
    out = Outcome(metrics={
        "setup_s": setup_s, "tick_latency_p50_ms": p50,
        "realtime_factor": signal_s / wall, "cpu_ms_per_signal_s": 1e3 * cpu / signal_s,
        "peak_rss_mb": rss,
    }, attempted=len(results))

    out.check("trials", len(left_out) <= 2 and all("too short" in m for m in left_out),
              f"{len(results)} trials ran; {len(left_out)} left out by the generator's "
              f"too-short-segment fault (at most 2 allowed)")
    successes = [r for r in results if r.success]
    rate = len(successes) / len(results)
    median_rt = float(np.median([r.reaction_time_s for r in successes]))
    # two selections per trial over rest (p = 1/2) and 8 equally likely targets
    probs = np.array([0.5] + [0.5 / 8] * 8)
    bits = 2.0 * float(-np.sum(probs * np.log2(probs)))
    itr = rate * bits / median_rt
    out.check("success", rate >= 0.99, f"success rate {rate:.3f} (>= 0.99)")
    # Reaction times are whole ticks after the target is shown; the program
    # subtracts float timestamps, so six ticks read 0.6 - 1e-16 s. Compare at
    # the microsecond resolution of the wire's timestamps.
    rt_us = round(median_rt * 1e6)
    out.check("reaction time", 600_000 <= rt_us <= 1_000_000,
              f"median RT {median_rt:.6f} s (in [0.6, 1.0] at 1 us resolution)")
    reported = stats["throughput"]["bps"]
    out.check("itr", abs(reported - itr) <= 1e-12 * itr,
              f"itr {reported:.6f} bps, recomputed {itr:.6f} bps")
    out.info = {"tick_latency_p95_ms": p95, "trials_per_s": len(results) / wall,
                "itr_bps": reported, "success_rate": rate, "median_rt_s": median_rt,
                "signal_s": signal_s, "trials_left_out": len(left_out)}

    if trace:
        with Tracer() as tracer:
            t0 = time.perf_counter()
            _match_phase(params, subject, seed)
            traced_wall = time.perf_counter() - t0
        ticks = sum(len(s[4][2]) for s in tracer.spans if s[0] == "engine.ingest")
        out.layers = layer_metrics(tracer.spans, tracer.engine_e2e_us, ticks)
        out.layers["trace.overhead_pct"] = _tracer_overhead(wall, traced_wall)
        out.spans = tracer.spans
    return out


# ---------------------------------------------------------------------------
# calibrate: sessions -> frames -> training data -> one seed -> evaluation
# ---------------------------------------------------------------------------

def _calibrate_phase(sessions, tracer: Tracer):
    """One calibration; training steps are timed between the starts of
    consecutive `batch_loss_and_grads` spans (forward, backward, Adam)."""
    train_cfg = training.TrainConfig(**CALIBRATE_TRAIN)
    with tracer:
        cpu0, t0 = _cpu_s(), time.perf_counter_ns()
        frames = [dataset.session_frames(s) for s in sessions]
        data = dataset.build_training_data(frames[0], frames[1])
        params, history = training.train(data, train_cfg, CALIBRATE_TRAIN_SEED,
                                         network.ModelConfig(**common.BENCH_SHAPE))
        t_trained = time.perf_counter_ns()
        per_dof = training.evaluate_frames(params, data.x_val, data.y_val)
        wall, cpu = (time.perf_counter_ns() - t0) / 1e9, _cpu_s() - cpu0
    starts = [s[1] for s in tracer.spans if s[0] == "training.batch_loss_and_grads"]
    steps = list(np.diff(starts + [t_trained]) / 1e9)
    return {"wall": wall, "cpu": cpu, "frames": frames, "history": history,
            "bal_acc": metrics.mean_balanced_accuracy(per_dof), "steps": steps,
            "batches": len(history) * math.ceil(data.x_train.shape[0] / train_cfg.batch_size)}


def calibrate(seed: int, seconds: float, trace: bool) -> Outcome:
    sessions = []

    def generate():
        sessions.append(_session(seed, 7 + len(sessions), repetitions=CALIBRATE_REPS))

    setup_s, _ = _median_setup(generate, repeats=2)
    run = _calibrate_phase(sessions, Tracer(only={"training.batch_loss_and_grads"}))
    rss = _peak_rss_mb()
    signal_s = sum(s.recording.duration_s for s in sessions)
    p50, p95 = _pcts_ms(run["steps"])
    out = Outcome(metrics={
        "setup_s": setup_s, "tick_latency_p50_ms": p50,
        "realtime_factor": signal_s / run["wall"],
        "cpu_ms_per_signal_s": 1e3 * run["cpu"] / signal_s, "peak_rss_mb": rss,
    }, attempted=run["batches"])
    losses = [rec.loss for rec in run["history"]]
    out.check("bal_acc", run["bal_acc"] > 0.95,
              f"held-out mean balanced accuracy {run['bal_acc']:.4f} (> 0.95)")
    out.check("loss", losses[-1] < losses[0],
              f"epoch loss {losses[0]:.4f} -> {losses[-1]:.4f}")
    frames = run["frames"][1]
    decimated = reference.bandpass_decimated(sessions[1].recording.samples)
    picks = np.random.default_rng(common.workload_seed(seed, 9)).choice(
        frames.x.shape[0], size=3, replace=False)
    ok, worst = True, 0.0
    for i in picks:
        ref = reference.frame_features(decimated, int(frames.t_ms[i]) * 5,
                                       frames.x.shape[2], frames.thresholds)
        ok &= bool(np.allclose(frames.x[i], ref, rtol=FRAME_RTOL, atol=FRAME_ATOL))
        worst = max(worst, float(np.max(np.abs(frames.x[i] - ref) /
                                        np.maximum(np.abs(ref), FRAME_ATOL))))
    out.check("reference", ok, f"3 sampled held-out frames: max rel err {worst:.2e} "
                               f"(rtol {FRAME_RTOL}, atol {FRAME_ATOL})")
    out.info = {"step_latency_p95_ms": p95, "calibrate_s": run["wall"],
                "bal_acc": run["bal_acc"], "batches": run["batches"], "signal_s": signal_s,
                "frames_mb": sum(f.x.nbytes + f.y.nbytes + f.t_ms.nbytes
                                 for f in run["frames"]) / 2 ** 20}

    if trace:
        del run, frames, decimated
        tracer = Tracer()
        traced = _calibrate_phase(sessions, tracer)
        n_frames = sum(f.x.shape[0] for f in traced["frames"])
        out.layers = layer_metrics(tracer.spans, tracer.engine_e2e_us, n_frames)
        out.layers["dataset.frames_mb"] = out.info["frames_mb"]
        out.layers["trace.overhead_pct"] = _tracer_overhead(out.info["calibrate_s"],
                                                            traced["wall"])
        out.spans = tracer.spans
    return out


WORKLOADS = {"replay": replay, "serve": serve, "match": match, "calibrate": calibrate}
