"""Classification metrics and information-throughput math.

Per-DOF counts feed sensitivity/specificity/balanced accuracy:

    TPR = TP / (TP + FN)          TNR = TN / (TN + FP)
    balanced accuracy = (TPR + TNR) / 2
    prediction error  = 1 - balanced accuracy

Information per trial is selections_per_trial times the Shannon entropy of
the gesture distribution, and throughput is

    bps = success_rate * bits_per_trial / reaction_time_s

with bpm = 60 * bps exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
import json
import math

import numpy as np

from .errors import ConfigError, DataError
from .gestures import DOF_NAMES, NUM_DOF, gesture_to_bits


@dataclass(frozen=True)
class ConfusionCounts:
    """Per-DOF TP/TN/FP/FN; positive means flexing (bit 1)."""

    tp: np.ndarray
    tn: np.ndarray
    fp: np.ndarray
    fn: np.ndarray

    def __post_init__(self):
        arrs = [np.asarray(a, dtype=np.int64) for a in (self.tp, self.tn, self.fp, self.fn)]
        if len({a.shape for a in arrs}) != 1 or arrs[0].ndim != 1:
            raise ConfigError("count arrays must be matching vectors")
        if any(np.any(a < 0) for a in arrs):
            raise ConfigError("counts must be non-negative")
        totals = arrs[0] + arrs[1] + arrs[2] + arrs[3]
        if totals.size and np.any(totals != totals[0]):
            raise ConfigError("per-DOF counts must sum to the same number of frames")
        for name, a in zip(("tp", "tn", "fp", "fn"), arrs):
            object.__setattr__(self, name, a)

    @property
    def dof(self) -> int:
        return self.tp.shape[0]

    @property
    def total(self) -> int:
        return int(self.tp[0] + self.tn[0] + self.fp[0] + self.fn[0]) if self.dof else 0


@dataclass(frozen=True)
class DofMetrics:
    name: str
    tpr: float
    tnr: float
    bal_acc: float
    pred_error: float
    defined: bool

    def as_dict(self) -> dict:
        return {"dof": self.name, "tpr": self.tpr, "tnr": self.tnr,
                "bal_acc": self.bal_acc, "pred_error": self.pred_error,
                "defined": self.defined}


@dataclass(frozen=True)
class GestureDistribution:
    """Outcome distribution over gestures; probabilities sum to 1."""

    entries: tuple

    def __post_init__(self):
        probs = np.array([p for _, p in self.entries], dtype=np.float64)
        if np.any(probs < 0):
            raise ConfigError("gesture probabilities must be non-negative")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ConfigError(f"gesture probabilities sum to {probs.sum()}, not 1")

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.entries], dtype=np.float64)

    @staticmethod
    def rest_plus_uniform(others, rest_p: float = 0.5) -> "GestureDistribution":
        """Rest at rest_p, remaining mass split evenly over the other gestures."""
        others = list(others)
        if not others:
            raise ConfigError("need at least one non-rest gesture")
        p = (1.0 - rest_p) / len(others)
        return GestureDistribution((("000000", rest_p),) + tuple((g, p) for g in others))


def _labels_to_bits(labels) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.dtype.kind in "US":
        return np.stack([gesture_to_bits(str(g)) for g in arr])
    if arr.ndim != 2 or arr.shape[1] != NUM_DOF:
        raise DataError(f"labels must be [n x {NUM_DOF}] bits or gesture strings, got {arr.shape}")
    return arr.astype(np.uint8)


def confusion(predictions, truth) -> ConfusionCounts:
    """Per-DOF confusion counts from aligned label sequences."""
    pred = _labels_to_bits(predictions)
    true = _labels_to_bits(truth)
    if pred.shape != true.shape:
        raise DataError(f"prediction/truth length mismatch: {pred.shape} vs {true.shape}")
    p = pred.astype(bool)
    t = true.astype(bool)
    tp = np.count_nonzero(p & t, axis=0)
    tn = np.count_nonzero(~p & ~t, axis=0)
    fp = np.count_nonzero(p & ~t, axis=0)
    fn = np.count_nonzero(~p & t, axis=0)
    return ConfusionCounts(tp, tn, fp, fn)


def balanced_accuracy(counts: ConfusionCounts, names=DOF_NAMES) -> list[DofMetrics]:
    """Per-DOF TPR/TNR/balanced accuracy; empty classes are flagged, not skipped."""
    out = []
    for d in range(counts.dof):
        tp, tn, fp, fn = (int(counts.tp[d]), int(counts.tn[d]),
                          int(counts.fp[d]), int(counts.fn[d]))
        name = names[d] if d < len(names) else f"dof{d}"
        if tp + fn == 0 or tn + fp == 0:
            out.append(DofMetrics(name, math.nan, math.nan, math.nan, math.nan, False))
            continue
        tpr = tp / (tp + fn)
        tnr = tn / (tn + fp)
        bal = (tpr + tnr) / 2.0
        out.append(DofMetrics(name, tpr, tnr, bal, 1.0 - bal, True))
    return out


def mean_balanced_accuracy(metrics: list[DofMetrics]) -> float:
    vals = [m.bal_acc for m in metrics if m.defined]
    if not vals:
        return math.nan
    return float(np.mean(vals))


def info_per_trial(dist: GestureDistribution, selections_per_trial: int) -> float:
    """Shannon entropy of the gesture distribution, in bits, times the number
    of conscious selections per trial. Zero-probability entries contribute 0."""
    if selections_per_trial < 1:
        raise ConfigError("selections_per_trial must be >= 1")
    p = dist.probabilities
    nz = p[p > 0.0]
    entropy = -float(np.sum(nz * np.log2(nz)))
    return selections_per_trial * entropy


def information_throughput(success_rate: float, info_per_trial_bits: float,
                           reaction_time_s: float) -> dict:
    """Information transfer rate in bits/s and bits/min."""
    if not 0.0 <= success_rate <= 1.0:
        raise ConfigError(f"success_rate must be in [0, 1], got {success_rate}")
    if reaction_time_s <= 0.0:
        raise ConfigError(f"reaction_time_s must be positive, got {reaction_time_s}")
    bps = success_rate * info_per_trial_bits / reaction_time_s
    return {"bps": bps, "bpm": 60.0 * bps}


# ---------------------------------------------------------------------------
# Report emission: one JSON record per DOF (line-delimited) plus a summary
# file the CLI table printer consumes.
# ---------------------------------------------------------------------------

def metrics_records(metrics: list[DofMetrics]) -> str:
    return "\n".join(json.dumps(m.as_dict(), sort_keys=True) for m in metrics) + "\n"


def metrics_summary(metrics: list[DofMetrics], extra: dict | None = None) -> dict:
    summary = {
        "per_dof": [m.as_dict() for m in metrics],
        "mean_bal_acc": mean_balanced_accuracy(metrics),
        "mean_pred_error": 1.0 - mean_balanced_accuracy(metrics),
    }
    if extra:
        summary.update(extra)
    return summary


def write_metrics_report(metrics: list[DofMetrics], out_dir, extra: dict | None = None) -> dict:
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "per_dof.jsonl").write_text(metrics_records(metrics))
    summary = metrics_summary(metrics, extra)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary
