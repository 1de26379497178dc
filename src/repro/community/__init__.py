"""Community structure: detection and the paper's community model.

Definition 1 of the paper models a social network as a directed graph
*together with* a disjoint community cover; the LCRB problem then singles
out a *rumor community* and its *R-neighbor communities*. This package
provides:

* :mod:`repro.community.structure` — the validated
  :class:`CommunityStructure` cover and rumor/neighbor community queries.
* :mod:`repro.community.modularity` — Newman modularity over the
  symmetrised weighted graph.
* :mod:`repro.community.louvain` — the Blondel et al. Louvain method, from
  scratch (the paper's detector, reference [25]).
* :mod:`repro.community.label_prop` — label propagation, a second detector
  used for cross-validation in tests.
* :mod:`repro.community.metrics` — partition-quality metrics (NMI, purity,
  conductance).
"""

from repro.community.label_prop import label_propagation
from repro.community.louvain import louvain
from repro.community.modularity import modularity
from repro.community.structure import CommunityStructure

__all__ = [
    "CommunityStructure",
    "modularity",
    "louvain",
    "label_propagation",
]
