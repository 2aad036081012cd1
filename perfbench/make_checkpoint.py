"""Make the trained bench-shape decoder that `serve` and `match` load.

    python3 perfbench/make_checkpoint.py [--out perfbench/bench_model.ndm]

ACC-07's two sessions (seeds 301 and 302, 7 gestures x 10 repetitions),
default training settings, one training seed (1), the 96/96/48 shape that
`nervedecode train` makes. The checkpoint is committed so that no run of the
benchmark pays for training in its set-up.
"""
from __future__ import annotations

import argparse
import sys

import common

TRAIN_SEED = 1
SESSION_SEEDS = (301, 302)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(common.CHECKPOINT))
    args = parser.parse_args()
    common.use_source_tree()
    from nervedecode import checkpoint, dataset, metrics, network, synthgen, training

    profile = synthgen.make_profile()
    spec = synthgen.SessionSpec(gestures=common.GESTURES, repetitions=10, hold_s=2.0,
                                rest_s=1.5, session_id="bench")
    frames = [dataset.session_frames(synthgen.generate_session(profile, spec, seed))
              for seed in SESSION_SEEDS]
    data = dataset.build_training_data(frames[0], frames[1])
    params, _ = training.train(data, training.TrainConfig(), TRAIN_SEED,
                               network.ModelConfig(**common.BENCH_SHAPE))
    acc = metrics.mean_balanced_accuracy(
        training.evaluate_frames(params, data.x_val, data.y_val))
    checkpoint.save_checkpoint_file(params, args.out)
    print(f"wrote {args.out}: {params.parameter_count} parameters, "
          f"held-out mean balanced accuracy {acc:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
