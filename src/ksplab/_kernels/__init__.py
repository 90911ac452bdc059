"""Hot numerical kernels with a compiled core and a numpy fallback.

At import time the Cython extension ``_core`` is preferred; if it is not
built the pure-numpy module ``_numpy`` provides the same functions with
identical semantics (and identical bits; see ``_numpy`` docstring).
``BACKEND`` names the selected implementation.  ``heston_variance_sum``
exists only in ``_numpy`` and is exported on both backends.
"""

from . import _numpy

try:
    from . import _core as _impl

    BACKEND = "cython"
except ImportError:  # extension not built
    _impl = _numpy
    BACKEND = "numpy"

heston_paths = _impl.heston_paths
fd_substep = _impl.fd_substep
resample_indices = _impl.resample_indices
heston_variance_sum = _numpy.heston_variance_sum


def backends() -> dict:
    """All importable backends, keyed by name (for benchmarks and tests)."""
    out = {"numpy": _numpy}
    if BACKEND == "cython":
        out["cython"] = _impl
    return out
