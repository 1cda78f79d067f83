"""Native-speed kernel layer.

Compiled implementations of the enumeration and evidence-build hot paths —
the per-tile predicate pass, the evidence-row dedup, and the explicit-stack
search arena (criticality planes included) — behind a feature-detected
dispatch (:mod:`repro.native.dispatch`).  The pure-numpy
reference (:mod:`repro.native.numpy_backend`) defines the semantics; a
compiled backend is only used after reproducing it bit for bit on a probe.

Backend selection is controlled by ``REPRO_NATIVE``: ``0`` forces numpy,
``1``/``cext`` require the C extension, unset auto-detects (C extension,
else numpy).
"""

from repro.native.dispatch import (
    Backend,
    NUMPY_BACKEND,
    get_backend,
    resolve_backend,
    set_backend,
    use_backend,
)
from repro.native.numpy_backend import (
    DESCENDED,
    PRUNED,
    REPLAYED,
    SELECT_MAX,
    SELECT_MIN,
    SELECT_RANDOM,
    NumpyKernels,
    NumpySearchWorkspace,
    selection_code,
)

__all__ = [
    "Backend",
    "NUMPY_BACKEND",
    "get_backend",
    "resolve_backend",
    "set_backend",
    "use_backend",
    "DESCENDED",
    "PRUNED",
    "REPLAYED",
    "SELECT_MAX",
    "SELECT_MIN",
    "SELECT_RANDOM",
    "NumpyKernels",
    "NumpySearchWorkspace",
    "selection_code",
]
