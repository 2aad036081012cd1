"""Settings that no caller changes are module constants, not parameters."""
import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import nervedecode
from nervedecode import engine, sigproc, wire
from nervedecode.chronometry import SimulatedSubject, kde_density
from nervedecode.errors import ConfigError
from nervedecode.features import NormStats
from nervedecode.metrics import GestureDistribution, balanced_accuracy
from nervedecode.network import ModelConfig
from nervedecode.synthgen import (
    SessionData, SubjectProfile, _drift_signs, make_profile, make_ulnar_profile, pulse_shape,
)
from nervedecode.training import TrainConfig, predict_batch


def _program_callables():
    """(qualified name, function) of every function and method defined in
    the package, dataclass `__init__`s included."""
    for info in pkgutil.iter_modules(nervedecode.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"nervedecode.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


class TestConstantsNotKnobs:
    def test_remaining_settings(self):
        assert [f.name for f in dataclasses.fields(TrainConfig)] == \
            ["batch_size", "lr0", "max_epochs", "seeds"]
        assert [f.name for f in dataclasses.fields(SimulatedSubject)] == \
            ["profile", "error_rate"]
        assert not inspect.signature(make_profile).parameters
        assert not inspect.signature(make_ulnar_profile).parameters
        # the conv kernel and the output count are constants
        assert [f.name for f in dataclasses.fields(ModelConfig)] == \
            ["input_rows", "steps", "conv_out", "gru_hidden", "fc_hidden", "dropout_rate"]
        # the eval batch is a constant; perfbench reads argument 1 as the frames
        assert list(inspect.signature(predict_batch).parameters) == ["params", "x"]

    def test_values_nothing_set_are_gone(self):
        """Parameters no caller passed and fields nothing read."""
        params = lambda fn: list(inspect.signature(fn).parameters)
        assert params(GestureDistribution.rest_plus_uniform) == ["others"]
        assert params(balanced_accuracy) == ["counts"]
        assert params(pulse_shape) == ["width_ms"]
        assert params(_drift_signs) == ["rows", "cols"]
        assert "n_grid" not in params(kde_density)
        names = lambda cls: [f.name for f in dataclasses.fields(cls)]
        assert "wrist_distinct" not in names(SubjectProfile)
        assert "channel_ids" not in names(sigproc.Recording)
        assert "profile" not in names(SessionData)

    @pytest.mark.parametrize("value", [96.0, True])
    def test_model_sizes_are_positive_integers(self, value):
        with pytest.raises(ConfigError):
            ModelConfig(conv_out=value)

    def test_only_the_per_window_definition_takes_thresholds(self):
        """The program computes features with `features.THRESHOLDS`; only
        `extract_features` and the kernel state it shares with
        `window_features` take thresholds, to state properties of the
        definition."""
        takers = set()
        for name, fn in _program_callables():
            for param in inspect.signature(fn).parameters.values():
                if param.name == "thresholds" or "FeatureThresholds" in str(param.annotation):
                    takers.add(name)
        assert takers == {"features.extract_features", "features.BlockSums.__init__"}


class TestProgramOnlySurface:
    def test_test_only_names_are_gone(self):
        """The SNR helpers and the identity stats live in `tests/oracles.py`,
        the loopback client in `tests/loopback.py`; the config frame is
        retired."""
        gone = {sigproc: ("SnrReport", "snr_report", "snr", "signal_power_db"),
                engine: ("decode_over_socket",),
                wire: ("ConfigMsg", "TYPE_CONFIG"),
                NormStats: ("identity",)}
        for module, names in gone.items():
            for name in names:
                assert not hasattr(module, name), f"{module.__name__}.{name}"

    def test_wire_frame_types(self):
        """Four frame types at version 1: retiring 0x03 changed no other frame."""
        types = {k: v for k, v in vars(wire).items() if k.startswith("TYPE_")}
        assert types == {"TYPE_SAMPLE_BLOCK": 0x01, "TYPE_PREDICTION": 0x02,
                         "TYPE_LATENCY": 0x04, "TYPE_ERROR": 0x05}
        assert wire.VERSION == 1
