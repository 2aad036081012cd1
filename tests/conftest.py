import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")


def pytest_report_header(config):
    """The versions and BLAS thread count every wall time of the suite
    depends on (the time clauses of ACC-07, ACC-09 and ACC-12 among them):
    the environment block of every run manifest."""
    from nervedecode.cli import environment

    env = environment()
    return (f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
            f"BLAS {env['blas']}, "
            f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS'] or 'unset'}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """-q hides the header, so the same line then comes before the totals."""
    if config.get_verbosity() < 0:
        terminalreporter.write_line(pytest_report_header(config))


@pytest.fixture(scope="session")
def tiny_profile():
    """4-channel profile for fast separability tests: two gestures, disjoint
    channel groups."""
    from nervedecode.synthgen import BurstSpec, SubjectProfile, _calibrated_amplitude

    gains = np.zeros((6, 4))
    gains[0, 0] = gains[0, 1] = 1.0     # thumb
    gains[1, 2] = gains[1, 3] = 1.0     # index
    burst = BurstSpec(rate_hz=60.0, width_ms=8.0,
                      amplitude=_calibrated_amplitude(2.0, 2.2, BurstSpec(60.0, 1.0, 8.0)))
    return SubjectProfile(channels=4, gains=gains, vcap_burst=burst,
                          noise_floor=2.0, snr_db_target=2.2)


@pytest.fixture(scope="session")
def tiny_sessions(tiny_profile):
    """Two short two-gesture sessions (train + held-out)."""
    from nervedecode.synthgen import SessionSpec, generate_session

    spec = SessionSpec(gestures=("100000", "010000"), repetitions=10,
                       hold_s=2.4, rest_s=1.2, session_id="tiny")
    return (generate_session(tiny_profile, spec, seed=101),
            generate_session(tiny_profile, spec, seed=202))


@pytest.fixture(scope="session")
def tiny_window():
    from nervedecode.features import FeatureWindowSpec

    return FeatureWindowSpec(window_ms=100.0, step_ms=20.0, history_s=0.5)


@pytest.fixture(scope="session")
def tiny_training_data(tiny_sessions, tiny_window):
    from nervedecode.dataset import build_training_data, session_frames

    train_frames = session_frames(tiny_sessions[0], tiny_window)
    val_frames = session_frames(tiny_sessions[1], tiny_window)
    return build_training_data(train_frames, val_frames)


@pytest.fixture(scope="session")
def tiny_model_cfg(tiny_training_data):
    from nervedecode.network import ModelConfig

    return ModelConfig(input_rows=tiny_training_data.x_train.shape[1],
                       steps=tiny_training_data.x_train.shape[2],
                       conv_out=24, gru_hidden=24, fc_hidden=16, dropout_rate=0.5)


@pytest.fixture(scope="session")
def tiny_trained(tiny_training_data, tiny_model_cfg):
    """Small but properly converged decoder; 15 epochs because the tiny set
    offers far fewer optimizer steps per epoch than a real session."""
    from nervedecode.training import TrainConfig, train

    params, history = train(tiny_training_data, TrainConfig(max_epochs=15), seed=5,
                            model_cfg=tiny_model_cfg)
    return params, history
