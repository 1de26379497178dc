"""Batched diffusion kernels behind one backend registry.

Public API:

* :func:`~repro.kernels.registry.resolve_backend` /
  :func:`~repro.kernels.registry.available_backends` — pick an engine
  (``"python"`` always works; ``"numpy"`` needs the ``perf`` extra;
  ``"auto"`` prefers the fastest available).
* :class:`~repro.kernels.spec.KernelSpec` /
  :func:`~repro.kernels.spec.spec_for_model` — reduce a diffusion model
  to its world-sample semantics.
* :class:`~repro.kernels.worlds.WorldBatch` /
  :func:`~repro.kernels.worlds.sample_worlds` — pre-sampled randomness:
  replica ``i``'s world is a pure function of ``(seed, i)``, identical
  on every backend.
* :class:`~repro.kernels.base.KernelBackend` /
  :class:`~repro.kernels.base.BatchOutcome` — the engine contract.
* :class:`~repro.kernels.sigma.BatchedSigmaEvaluator` — the old name of
  :class:`~repro.algorithms.greedy.SigmaEstimator` (the same class).

See ``docs/kernels.md`` for backend selection and the bit-identity
guarantee.
"""

from repro.kernels.base import BatchOutcome, KernelBackend
from repro.kernels.registry import BACKEND_AUTO, available_backends, resolve_backend
from repro.kernels.sigma import BatchedSigmaEvaluator
from repro.kernels.spec import KERNEL_KINDS, KernelSpec, spec_for_model
from repro.kernels.worlds import WorldBatch, sample_worlds

__all__ = [
    "BACKEND_AUTO",
    "BatchOutcome",
    "BatchedSigmaEvaluator",
    "KERNEL_KINDS",
    "KernelBackend",
    "KernelSpec",
    "WorldBatch",
    "available_backends",
    "resolve_backend",
    "sample_worlds",
    "spec_for_model",
]
