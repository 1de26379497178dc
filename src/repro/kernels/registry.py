"""Backend registry: named engines with graceful degradation.

The library core is zero-dependency, so the vectorized backend is an
optional extra: ``pip install repro-lcrb[perf]``. This module is the one
place that maps a backend name to an engine, for the forward kernels and
for RR-world sampling (:func:`repro.sketch.kernels.sample_worlds`):

* ``resolve_backend("python")`` — always works;
* ``resolve_backend("numpy")`` — raises
  :class:`~repro.errors.BackendUnavailableError` (with the install hint)
  when NumPy is missing;
* ``resolve_backend("auto")`` — the fastest backend that actually loads,
  falling back to pure Python silently.

Backend instances are cached (the NumPy backend keeps a per-graph array
cache worth preserving across calls).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import BackendUnavailableError, KernelError
from repro.kernels.base import KernelBackend

__all__ = [
    "available_backends",
    "resolve_backend",
    "BACKEND_AUTO",
]

#: Resolve to the fastest importable backend.
BACKEND_AUTO = "auto"

#: Preference order for ``auto`` resolution (fastest first).
_AUTO_ORDER = ("numpy", "python")


def _make_python() -> KernelBackend:
    from repro.kernels.python_backend import PythonKernelBackend

    return PythonKernelBackend()


def _make_numpy() -> KernelBackend:
    from repro.kernels.numpy_backend import NumpyKernelBackend

    return NumpyKernelBackend()


#: Backend factories, in ``available_backends`` order. A factory runs on
#: the first :func:`resolve_backend` of its name; an :exc:`ImportError`
#: it raises is reported as :class:`BackendUnavailableError`.
_FACTORIES: Dict[str, Callable[[], KernelBackend]] = {
    "python": _make_python,
    "numpy": _make_numpy,
}
_INSTANCES: Dict[str, KernelBackend] = {}


def resolve_backend(name: Optional[str] = BACKEND_AUTO) -> KernelBackend:
    """The backend registered under ``name`` (``None`` == ``"auto"``).

    Raises:
        BackendUnavailableError: the backend exists but its dependency is
            not installed (never raised for ``"auto"``, which falls back).
        KernelError: no backend of that name exists.
    """
    if name is None or name == BACKEND_AUTO:
        for candidate in _AUTO_ORDER:
            try:
                return resolve_backend(candidate)
            except BackendUnavailableError:
                continue
        raise KernelError("no kernel backend could be loaded")  # unreachable
    cached = _INSTANCES.get(name)
    if cached is not None:
        return cached
    factory = _FACTORIES.get(name)
    if factory is None:
        raise KernelError(
            f"unknown kernel backend {name!r}; "
            f"registered: {sorted(_FACTORIES)}"
        )
    try:
        instance = factory()
    except ImportError as error:
        raise BackendUnavailableError(
            f"kernel backend {name!r} needs an optional dependency "
            f"({error}); install the 'perf' extra: pip install repro-lcrb[perf]"
        ) from error
    _INSTANCES[name] = instance
    return instance


def available_backends() -> List[str]:
    """Names of backends that load on this machine, in registration order."""
    names: List[str] = []
    for name in _FACTORIES:
        try:
            resolve_backend(name)
        except BackendUnavailableError:
            continue
        names.append(name)
    return names
