"""RR-set sketch engine: sampling-based σ estimation for rumor blocking.

The Monte-Carlo estimators in :mod:`repro.algorithms` pay a full
diffusion simulation per candidate evaluation; this package replaces
that with Reverse Influence Sampling (Tong et al., arXiv:1701.02368
brought the technique to rumor blocking): sample random worlds once,
keep one reverse-reachable (RR) set per at-risk bridge end, and score
any protector set by sketch coverage. Four modules:

* :mod:`repro.sketch.rrset` — samplers producing the RR sets under the
  paper's two semantics (OPOAO timestamp process, DOAM arrival times).
* :mod:`repro.sketch.kernels` — :func:`sample_worlds`, the one way to
  sample RR worlds: a batched NumPy kernel racing many OPOAO worlds on
  CSR arrays, bit-identical to the per-world samplers it defers to.
* :mod:`repro.sketch.store` — :class:`SketchStore`: flat-array set
  storage, inverted node index, incremental doubling with an (ε, δ)
  stopping rule, and footprint-based incremental invalidation
  (:meth:`SketchStore.refresh`) for dynamic graphs.
* :mod:`repro.sketch.coverage` — :func:`max_coverage`, the lazy-greedy
  (CELF) selection core shared by the batch selector and the query
  service.

The selector built on top lives in :mod:`repro.algorithms.ris_greedy`;
the long-running query service in :mod:`repro.serve`.
"""

from repro.sketch.coverage import max_coverage, protected_fraction
from repro.sketch.kernels import sample_worlds
from repro.sketch.rrset import (
    SKETCH_SEMANTICS,
    DOAMRRSampler,
    OPOAORRSampler,
    WorldSample,
    sampler_for,
)
from repro.sketch.store import SketchStore

__all__ = [
    "SKETCH_SEMANTICS",
    "WorldSample",
    "OPOAORRSampler",
    "DOAMRRSampler",
    "sampler_for",
    "SketchStore",
    "max_coverage",
    "protected_fraction",
    "sample_worlds",
]
