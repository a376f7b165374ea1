"""HAFFormer: hierarchical attention-free transformer for long-sequence classification."""

import os as _os
import sys as _sys
import warnings as _warnings

# Cap numeric-library threading before numpy first loads; single-threaded
# BLAS keeps results bit-reproducible across processes. HAFF_THREADS
# raises the cap. BLAS reads these variables once, when numpy loads, so the
# cap has no effect if numpy was already imported; say so unless every
# variable already held the cap.
_threads = _os.environ.get("HAFF_THREADS", "1")
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

from . import analysis, data, mixers, model, tensor, training  # noqa: E402

__version__ = "0.1.0"
