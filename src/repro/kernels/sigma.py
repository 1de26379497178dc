"""The kernel-era name of the one σ̂ estimator.

:class:`~repro.algorithms.greedy.SigmaEstimator` races either engine
(``backend=None`` per replica, or a kernel backend name on sampled
worlds), so this name is the same class object, not a subclass. The
end-to-end benchmark imports it from here and times its
``protected_fraction``, and its tracer looks methods up in the owning
class's own ``__dict__``, which a subclass would not have.
"""

from repro.algorithms.greedy import SigmaEstimator

BatchedSigmaEvaluator = SigmaEstimator

__all__ = ["BatchedSigmaEvaluator"]
