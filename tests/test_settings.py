"""Settings that no caller changes are module constants, not parameters."""
import dataclasses
import importlib
import inspect
import pkgutil

import nervedecode
from nervedecode.chronometry import SimulatedSubject
from nervedecode.synthgen import make_profile, make_ulnar_profile
from nervedecode.training import TrainConfig


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

    def test_only_the_per_window_definition_takes_thresholds(self):
        """The program computes features with `features.THRESHOLDS`; only
        `extract_features` and the kernel it shares with `window_features`
        take thresholds, to state properties of the definition."""
        takers = set()
        for name, fn in _program_callables():
            for param in inspect.signature(fn).parameters.values():
                if param.name == "thresholds" or "FeatureThresholds" in str(param.annotation):
                    takers.add(name)
        assert takers == {"features.extract_features", "features._feature_block"}
