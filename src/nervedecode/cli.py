"""Operator command line: synth / train / eval / match / sweep-input-length / serve.

Every command writes a run manifest (command, config hash, seeds, paths,
tool version, timing) next to its outputs, and given the same seeds and
inputs reproduces identical outputs. Exit codes: 0 success, 1 runtime fault,
2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import signal
import sys
import threading
import time

import numpy as np

from . import __version__
from .chronometry import (
    MatchingTaskConfig, SimulatedSubject, kde_density, reaction_stats, run_matching_session,
    write_density_curve, write_trial_log,
)
from .checkpoint import load_checkpoint_file, save_checkpoint_file
from .dataset import (
    DEFAULT_FRAME_RATE_HZ, build_training_data, concat_frames, evaluate_session,
    session_frames, split_frames,
)
from .engine import EngineConfig, load_engine_config, run_pipeline, serve
from .errors import CheckpointError, ConfigError, DataError
from .features import FeatureWindowSpec
from .gestures import (
    FIST, INDIVIDUAL_FLEXES, MATCHING_TARGETS, REST, WRIST_PRONATION, validate_gesture,
)
from .metrics import mean_balanced_accuracy, write_metrics_report
from .network import ModelConfig, forward_batch, init_params
from .synthgen import (
    DriftSpec, SessionSpec, apply_drift, generate_session, load_session,
    make_profile, make_ulnar_profile, save_session,
)
from .training import TrainConfig, multi_seed_train

DEFAULT_GESTURES = INDIVIDUAL_FLEXES + (FIST, WRIST_PRONATION)


def _hash_inputs(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(str(part).encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def _write_manifest(out_dir, command: str, args: dict, seeds, inputs, outputs,
                    elapsed_s: float) -> None:
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config_hash": _hash_inputs([json.dumps(args, sort_keys=True, default=str)]),
        "args": args,
        "seeds": list(seeds),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "tool_version": __version__,
        "elapsed_s": round(elapsed_s, 3),
    }
    (out / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")


def _print_dof_table(metrics, title: str) -> None:
    print(title)
    print(f"{'DOF':<8} {'TPR %':>8} {'TNR %':>8} {'BalAcc %':>9} {'PredErr %':>10}")
    for m in metrics:
        if m.defined:
            print(f"{m.name:<8} {100 * m.tpr:>8.1f} {100 * m.tnr:>8.1f} "
                  f"{100 * m.bal_acc:>9.1f} {100 * m.pred_error:>10.1f}")
        else:
            print(f"{m.name:<8} {'--':>8} {'--':>8} {'--':>9} {'--':>10}")
    mean = mean_balanced_accuracy(metrics)
    print(f"{'mean':<8} {'':>8} {'':>8} {100 * mean:>9.1f} {100 * (1 - mean):>10.1f}")


def _profile_for(name: str):
    if name == "default16":
        return make_profile()
    if name == "ulnar8":
        return make_ulnar_profile()
    raise ConfigError(f"unknown profile {name!r} (default16 or ulnar8)")


# Largest difference from the stored fingerprint probabilities (float32) that
# a reloaded model may show. A checkpoint reproduces them exactly on the
# machine that saved it; the slack covers BLAS summation order elsewhere.
FINGERPRINT_ATOL = 1e-6


def _load_model(path: pathlib.Path):
    """Load a checkpoint for eval, match or serve, and refuse one whose weights
    no longer reproduce the fingerprint probabilities stored with them."""
    if not path.exists():
        raise ConfigError(f"checkpoint {path} does not exist")
    params = load_checkpoint_file(path)
    if params.fingerprint is not None:
        fp = params.fingerprint
        probs = forward_batch(fp["inputs"].astype(np.float64), params, train=False)
        diff = float(np.max(np.abs(probs.astype(np.float32) - fp["probs"]), initial=0.0))
        if not diff <= FINGERPRINT_ATOL:
            raise CheckpointError(f"checkpoint {path} does not reproduce its fingerprint: "
                                  f"max |dp| {diff:.3g} > {FINGERPRINT_ATOL:g}")
    return params


# -- synth -------------------------------------------------------------------

def cmd_synth(args) -> int:
    started = time.time()
    out = pathlib.Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise ConfigError(f"output dir {out} is not empty (use --force)")
    gestures = tuple(validate_gesture(g) for g in args.gestures.split(","))
    profile = _profile_for(args.profile)
    if args.drift_days:
        profile = apply_drift(profile, DriftSpec(), args.drift_days)
    spec = SessionSpec(gestures=gestures, repetitions=args.reps, hold_s=args.hold,
                       rest_s=args.rest, session_id=args.session_id, day_index=args.day)
    session = generate_session(profile, spec, args.seed)
    save_session(session, out)
    _write_manifest(out, "synth", vars(args), [args.seed], [], [out], time.time() - started)
    print(f"wrote {len(session.segments)} segments "
          f"({session.recording.duration_s:.1f} s, {profile.channels} ch) to {out}")
    return 0


# -- train -------------------------------------------------------------------

def _window_from_args(args) -> FeatureWindowSpec:
    return FeatureWindowSpec(window_ms=args.window_ms, step_ms=args.step_ms,
                             history_s=args.history)


def _load_frames(dirs, window, frame_rate):
    sessions = [load_session(d) for d in dirs]
    return [session_frames(s, window, frame_rate_hz=frame_rate) for s in sessions]


def cmd_train(args) -> int:
    started = time.time()
    data_dirs = args.data
    if (len(data_dirs) < 2) == (args.split is None):
        raise ConfigError("give one session dir with --split, or >= 2 session dirs "
                          "(last is validation) without it")
    window = _window_from_args(args)
    frames = _load_frames(data_dirs, window, args.frame_rate)
    if args.split is not None:
        train_frames, val_frames = split_frames(frames[0], args.split)
    else:
        train_frames = concat_frames(frames[:-1])
        val_frames = frames[-1]
    data = build_training_data(train_frames, val_frames)

    seeds = tuple(int(s) for s in args.seeds.split(","))
    train_cfg = TrainConfig(seeds=seeds, batch_size=args.batch, lr0=args.lr,
                            max_epochs=args.epochs)
    model_cfg = ModelConfig(
        input_rows=data.x_train.shape[1], steps=window.steps,
        conv_out=args.conv_out, gru_hidden=args.gru_hidden, fc_hidden=args.fc_hidden,
        dropout_rate=args.dropout)
    print(f"training on {data.x_train.shape[0]} frames "
          f"({init_params(model_cfg, np.random.default_rng(0)).parameter_count} parameters), "
          f"validating on {data.x_val.shape[0]}")
    params, summaries, metrics = multi_seed_train(data, train_cfg, model_cfg)

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint_file(params, out)
    report_dir = out.parent / (out.stem + "_report")
    write_metrics_report(metrics, report_dir, extra={
        "seeds": [s["seed"] for s in summaries],
        "selected_seed": params.metadata.get("seed"),
        "per_seed": [{k: v for k, v in s.items() if k != "history"} for s in summaries],
    })
    _write_manifest(report_dir, "train", vars(args), seeds, data_dirs, [out],
                    time.time() - started)
    _print_dof_table(metrics, f"validation metrics (seed {params.metadata.get('seed')}):")
    return 0


# -- eval --------------------------------------------------------------------

def cmd_eval(args) -> int:
    started = time.time()
    model_path = pathlib.Path(args.model)
    params = _load_model(model_path)
    session = load_session(args.data)
    metrics = evaluate_session(params, session, args.frame_rate)
    out_dir = pathlib.Path(args.out) if args.out else pathlib.Path(args.data) / "eval_report"
    write_metrics_report(metrics, out_dir)
    _write_manifest(out_dir, "eval", vars(args), [], [args.model, args.data], [out_dir],
                    time.time() - started)
    _print_dof_table(metrics, f"evaluation of {model_path.name} on {args.data}:")
    return 0


# -- match -------------------------------------------------------------------

def cmd_match(args) -> int:
    started = time.time()
    params = _load_model(pathlib.Path(args.model))
    subject = SimulatedSubject(profile=_profile_for(args.profile),
                               error_rate=args.error_rate)
    if args.targets:
        targets = tuple(validate_gesture(g) for g in args.targets.split(","))
        if REST not in targets:
            targets = (REST,) + targets
    else:
        targets = MATCHING_TARGETS
    cfg = MatchingTaskConfig(targets=targets, cutoff_s=args.cutoff,
                             prediction_rate_hz=args.rate, trials=args.trials)
    results = run_matching_session(params, subject, cfg, seed=args.seed)
    stats = reaction_stats(results, cfg)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trial_log(results, out / "trials.jsonl")
    (out / "stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    rts = [r.reaction_time_s for r in results if r.success]
    if len(rts) >= 2:
        curve = kde_density(rts, grid_lo=0.0, grid_hi=cfg.cutoff_s)
        write_density_curve(curve, out / "rt_density.txt")
    _write_manifest(out, "match", vars(args), [args.seed], [args.model], [out],
                    time.time() - started)

    print(f"{'gesture':<8} {'trials':>7} {'success %':>10} {'median RT s':>12}")
    for g, slot in sorted(stats["per_gesture"].items()):
        rt = f"{slot['median_rt_s']:.2f}" if slot["median_rt_s"] is not None else "--"
        print(f"{g:<8} {slot['trials']:>7} {100 * slot['success_rate']:>10.1f} {rt:>12}")
    rt = f"{stats['median_rt_s']:.2f}" if stats["median_rt_s"] is not None else "--"
    print(f"{'all':<8} {stats['trials']:>7} {100 * stats['success_rate']:>10.1f} {rt:>12}")
    if "throughput" in stats:
        print(f"throughput: {stats['throughput']['bps']:.2f} bps "
              f"({stats['throughput']['bpm']:.1f} bpm) at "
              f"{stats['info_per_trial_bits']:.1f} bits/trial")
    return 0


# -- sweep-input-length --------------------------------------------------------

def cmd_sweep_input_length(args) -> int:
    started = time.time()
    lengths = [float(x) for x in args.lengths.split(",")]
    data_dirs = args.data
    if len(data_dirs) < 2:
        raise ConfigError("sweep needs >= 2 session dirs (last is validation)")
    sessions = [load_session(d) for d in data_dirs]
    rows = []
    for length in lengths:
        window = FeatureWindowSpec(window_ms=args.window_ms, step_ms=args.step_ms,
                                   history_s=length)
        frames = [session_frames(s, window, frame_rate_hz=args.frame_rate)
                  for s in sessions]
        data = build_training_data(concat_frames(frames[:-1]), frames[-1])
        model_cfg = ModelConfig(input_rows=data.x_train.shape[1], steps=window.steps,
                                conv_out=args.conv_out, gru_hidden=args.gru_hidden,
                                fc_hidden=args.fc_hidden)
        cfg = TrainConfig(seeds=tuple(int(s) for s in args.seeds.split(",")))
        params, _, metrics = multi_seed_train(data, cfg, model_cfg)
        err = 1.0 - mean_balanced_accuracy(metrics)

        probe = sessions[-1].recording
        probe_len = min(probe.n_samples, int(20.0 * probe.sample_rate_hz))
        probe_rec = type(probe)(probe.sample_rate_hz, probe.samples[:, :probe_len].copy())
        _, report = run_pipeline(probe_rec, params,
                                 EngineConfig(prediction_rate_hz=args.rate))
        rows.append({
            "history_s": length,
            "mean_pred_error": err,
            "decode_p50_us": report.percentile("decode_us", 50),
            "decode_p95_us": report.percentile("decode_us", 95),
            "feature_p95_us": report.percentile("feature_us", 95),
        })

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.json").write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, "sweep-input-length", vars(args),
                    [int(s) for s in args.seeds.split(",")], data_dirs, [out],
                    time.time() - started)
    print(f"{'history s':>9} {'err %':>7} {'decode p50 us':>14} {'decode p95 us':>14} {'feat p95 us':>12}")
    for r in rows:
        print(f"{r['history_s']:>9.2f} {100 * r['mean_pred_error']:>7.2f} "
              f"{r['decode_p50_us']:>14.0f} {r['decode_p95_us']:>14.0f} "
              f"{r['feature_p95_us']:>12.0f}")
    return 0


# -- serve ---------------------------------------------------------------------

def cmd_serve(args) -> int:
    model_path = pathlib.Path(args.model)
    params = _load_model(model_path)
    cfg = load_engine_config(args.config) if args.config else EngineConfig()
    endpoint = args.endpoint or cfg.endpoint
    stop = threading.Event()

    def _stop(signum, frame):
        stop.set()

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGINT, _stop)
        signal.signal(signal.SIGTERM, _stop)

    def _ready(address) -> None:
        # the bound address, so that port 0 reports the port it was given
        print(f"serving {model_path.name} on {address[0]}:{address[1]} at "
              f"{cfg.prediction_rate_hz} Hz ({params.parameter_count} parameters)", flush=True)

    serve(endpoint, params, cfg, stop=stop, max_connections=args.max_connections,
          on_ready=_ready)
    print("server stopped")
    return 0


# -- entry ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nervedecode",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic recording session")
    p.add_argument("--out", required=True)
    p.add_argument("--profile", default="default16")
    p.add_argument("--gestures", default=",".join(DEFAULT_GESTURES))
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--hold", type=float, default=2.0)
    p.add_argument("--rest", type=float, default=1.5)
    p.add_argument("--day", type=int, default=0)
    p.add_argument("--drift-days", type=int, default=0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--session-id", default="session")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the decoder on recorded sessions")
    p.add_argument("--data", nargs="+", required=True,
                   help="session dirs; the last one is the validation session, "
                        "unless a single dir is split with --split")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--split", type=float, default=None,
                   help="hold out this tail fraction of the one session given; "
                        "refused with more than one")
    p.add_argument("--seeds", default="1,2,3")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--conv-out", type=int, default=96)
    p.add_argument("--gru-hidden", type=int, default=96)
    p.add_argument("--fc-hidden", type=int, default=48)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--history", type=float, default=1.0)
    p.add_argument("--window-ms", type=float, default=100.0)
    p.add_argument("--step-ms", type=float, default=20.0)
    p.add_argument("--frame-rate", type=float, default=DEFAULT_FRAME_RATE_HZ)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a session")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--frame-rate", type=float, default=DEFAULT_FRAME_RATE_HZ)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("match", help="run the gesture matching task")
    p.add_argument("--model", required=True)
    p.add_argument("--profile", default="default16")
    p.add_argument("--targets", default=None,
                   help="comma list of target gestures (default: the 9-way set)")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--cutoff", type=float, default=3.0)
    p.add_argument("--rate", type=float, default=10.0)
    p.add_argument("--error-rate", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("sweep-input-length", help="accuracy/latency vs history length")
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--lengths", default="0.2,0.5,1.0,2.0")
    p.add_argument("--seeds", default="1")
    p.add_argument("--rate", type=float, default=10.0)
    p.add_argument("--conv-out", type=int, default=96)
    p.add_argument("--gru-hidden", type=int, default=96)
    p.add_argument("--fc-hidden", type=int, default=48)
    p.add_argument("--window-ms", type=float, default=100.0)
    p.add_argument("--step-ms", type=float, default=20.0)
    p.add_argument("--frame-rate", type=float, default=DEFAULT_FRAME_RATE_HZ)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_input_length)

    p = sub.add_parser("serve", help="serve the decoder over a socket")
    p.add_argument("--model", required=True)
    p.add_argument("--endpoint", default=None)
    p.add_argument("--config", default=None, help="engine INI file")
    p.add_argument("--max-connections", type=int, default=None)
    p.set_defaults(func=cmd_serve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime fault
        print(f"fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
