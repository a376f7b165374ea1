"""HAFFormer: hierarchical attention-free transformer for long-sequence classification."""

import importlib as _importlib
import os as _os
import sys as _sys
import warnings as _warnings

# Cap numeric-library threading before numpy first loads; single-threaded
# BLAS keeps results bit-reproducible across processes. HAFF_THREADS, a
# positive integer, raises the cap; any other value is refused with a
# warning and the cap stays at 1, since BLAS would read it as "every core".
# BLAS reads these variables once, when numpy loads, so the cap has no
# effect if numpy was already imported; say so unless every variable
# already held the cap.
_threads = _os.environ.get("HAFF_THREADS", "1")
if not (_threads.isascii() and _threads.isdigit() and int(_threads) > 0):
    _warnings.warn(
        f"HAFF_THREADS={_threads!r} is not a positive integer; the thread cap stays at 1",
        RuntimeWarning,
        stacklevel=2,
    )
    _threads = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in _sys.modules and any(_os.environ.get(v) != _threads for v in _THREAD_VARS):
    _warnings.warn(
        f"numpy was imported before hafformer, so the thread cap of {_threads} "
        f"({'/'.join(_THREAD_VARS)}) had no effect; import hafformer first "
        "or set those variables before starting Python",
        RuntimeWarning,
        stacklevel=2,
    )
for _var in _THREAD_VARS:
    _os.environ.setdefault(_var, _threads)

from . import data, mixers, model, tensor, training  # noqa: E402

__version__ = "0.1.0"


def __getattr__(name):
    # the cost model, which only `haff analyze` runs, loads on first access
    if name == "analysis":
        return _importlib.import_module(f"{__name__}.analysis")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
