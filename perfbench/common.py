"""Paths, fixed workload inputs and the environment record shared by the
benchmark's scripts. Importing it puts the checkout's `src/` first on
sys.path, so the package is always the one in this source tree."""
from __future__ import annotations

import ctypes
import os
import pathlib
import platform
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHECKPOINT = HERE / "bench_model.ndm"

# ACC-07's gesture set: five single-finger flexes, a fist and wrist pronation.
GESTURES = ("100000", "010000", "001000", "000100", "000010", "111110", "000001")
# The shape `nervedecode train` makes: 125,334 parameters.
BENCH_SHAPE = dict(input_rows=224, steps=50, conv_out=96, gru_hidden=96, fc_hidden=48,
                   dropout_rate=0.5)


def use_source_tree() -> None:
    """Import `nervedecode` from this checkout or stop with exit code 2."""
    if not (SRC / "nervedecode" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def workload_seed(seed: int, tag: int) -> list:
    """Seed material for one input of one workload; distinct tags keep the
    inputs of a run independent of each other."""
    return [int(seed), 0xBE7C, int(tag)]


def _blas_threads() -> int | None:
    import numpy as np

    libdir = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }
