"""Shared diffusion-model infrastructure.

Node states, validated seed sets, the outcome record, and the
:class:`DiffusionModel` base class every model implements. All models run
on an :class:`repro.graph.compact.IndexedDiGraph` (integer node ids) for
speed; higher layers translate labels at the boundary.

The engine races **K >= 2 competing cascades**: cascade 0 is always the
rumor and cascades ``1 .. K-1`` are positive campaigns. Node states
encode the winning cascade as ``cascade_index + 1``, so the paper's
two-cascade R/P model (K=2) keeps its historical encoding:
``INFECTED == 1`` is cascade 0 (the rumor) and ``PROTECTED == 2`` is
cascade 1 (the protector campaign).

The three common properties of Section III are enforced here and tested
property-based:

1. every cascade starts at step 0 (seeds are hop 0 of the trace);
2. when several cascades reach a node in the same step, the earliest
   cascade in the :class:`CascadeSet` priority order wins — the default
   ``positives-first`` order reproduces the paper's "P wins" rule;
3. activation is progressive — a state array entry only ever moves
   ``INACTIVE -> active`` and then never changes.
"""

from __future__ import annotations

import abc
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import SeedError
from repro.graph.compact import IndexedDiGraph
from repro.diffusion.trace import HopTrace
from repro.obs.registry import metrics
from repro.rng import RngStream
from repro.utils.validation import check_positive

__all__ = [
    "INACTIVE",
    "INFECTED",
    "PROTECTED",
    "PRIORITY_RULES",
    "priority_order",
    "CascadeSet",
    "SeedSets",
    "DiffusionOutcome",
    "DiffusionModel",
    "DEFAULT_MAX_HOPS",
    "seeded_start",
]

#: Node states. Small ints rather than an Enum: the simulators index state
#: arrays millions of times, and int compares are measurably faster.
#: Cascade ``k`` activates nodes into state ``k + 1``; INFECTED/PROTECTED
#: are the K=2 names of states 1 and 2.
INACTIVE = 0
INFECTED = 1
PROTECTED = 2

#: The paper runs OPOAO comparisons for 31 hops (Section VI.B.2).
DEFAULT_MAX_HOPS = 31

#: Named cascade priority rules (see :func:`priority_order`).
PRIORITY_RULES = ("positives-first", "rumor-first")


def priority_order(rule: str, cascade_count: int) -> Tuple[int, ...]:
    """Resolve a named priority rule to a cascade-index permutation.

    ``positives-first`` (the default, and the paper's common property 2
    generalised): every positive campaign beats the rumor on simultaneous
    arrival, campaigns tie-breaking among themselves by index. For K=2
    this is exactly "P wins". ``rumor-first`` inverts the tie: the rumor
    claims contested nodes — the adversarial worst case the distributed
    blocking scenario also reports.
    """
    if rule == "positives-first":
        return tuple(range(1, cascade_count)) + (0,)
    if rule == "rumor-first":
        return tuple(range(cascade_count))
    raise SeedError(
        f"unknown priority rule {rule!r}; expected one of {PRIORITY_RULES}"
    )


class CascadeSet:
    """Validated family of K pairwise-disjoint cascade seed sets.

    ``cascades[0]`` is the rumor and must be non-empty (there is no
    rumor-blocking problem without a rumor); positive campaigns
    ``cascades[1:]`` may be empty (the paper's NoBlocking baseline).

    Args:
        cascades: one iterable of node ids per cascade, rumor first.
        priority: tie-break order on simultaneous arrival — a named rule
            from :data:`PRIORITY_RULES` or an explicit permutation of
            cascade indices. Defaults to ``positives-first``.
    """

    __slots__ = ("cascades", "priority")

    def __init__(
        self,
        cascades: Sequence[Iterable[int]],
        priority: Union[str, Sequence[int], None] = None,
    ) -> None:
        sets: Tuple[FrozenSet[int], ...] = tuple(
            frozenset(cascade) for cascade in cascades
        )
        if len(sets) < 2:
            raise SeedError(
                f"a cascade race needs at least 2 cascades (rumor + positives); "
                f"got {len(sets)}"
            )
        if not sets[0]:
            raise SeedError("rumor seed set must not be empty")
        seen: set = set()
        overlap: set = set()
        for cascade in sets:
            overlap |= seen & cascade
            seen |= cascade
        if overlap:
            raise SeedError(
                f"seed sets must be disjoint; both contain {sorted(overlap)[:5]}"
            )
        self.cascades = sets
        if priority is None:
            priority = "positives-first"
        if isinstance(priority, str):
            order = priority_order(priority, len(sets))
        else:
            order = tuple(int(index) for index in priority)
            if sorted(order) != list(range(len(sets))):
                raise SeedError(
                    f"priority must be a permutation of cascade indices "
                    f"0..{len(sets) - 1}; got {order}"
                )
        self.priority: Tuple[int, ...] = order

    @property
    def cascade_count(self) -> int:
        """Number of competing cascades, K."""
        return len(self.cascades)

    def all_seeds(self) -> FrozenSet[int]:
        """Union of every cascade's seed set."""
        return frozenset().union(*self.cascades)

    def validate_against(self, graph: IndexedDiGraph) -> None:
        """Check every seed id is a valid node of ``graph``."""
        n = graph.node_count
        for seed in self.all_seeds():
            if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < n:
                raise SeedError(f"seed {seed!r} is not a node id in [0, {n})")

    def __repr__(self) -> str:
        sizes = ", ".join(str(len(cascade)) for cascade in self.cascades)
        return f"CascadeSet(K={self.cascade_count}, sizes=[{sizes}])"


class SeedSets(CascadeSet):
    """The two-cascade case: disjoint rumor (``S_R``) / protector (``S_P``) seeds.

    Kept as the K=2 view over :class:`CascadeSet` so the paper-facing
    API (and every existing call site) is unchanged: ``positives-first``
    priority is exactly Section III's "P wins simultaneous arrival".
    """

    __slots__ = ()

    def __init__(self, rumors: Iterable[int], protectors: Iterable[int] = ()) -> None:
        super().__init__((rumors, protectors))

    @property
    def rumors(self) -> FrozenSet[int]:
        return self.cascades[0]

    @property
    def protectors(self) -> FrozenSet[int]:
        return self.cascades[1]

    def __repr__(self) -> str:
        return f"SeedSets(|R|={len(self.rumors)}, |P|={len(self.protectors)})"


def seeded_start(node_count: int, seeds: CascadeSet) -> Tuple[List[int], HopTrace]:
    """The seeded state row (cascade ``k`` -> state ``k + 1``) and a trace
    whose hop 0 holds each cascade's sorted seeds (common property 1)."""
    states = [INACTIVE] * node_count
    for index, cascade in enumerate(seeds.cascades):
        state = index + 1
        for node in cascade:
            states[node] = state
    trace = HopTrace(cascade_count=seeds.cascade_count)
    trace.record_cascades([sorted(cascade) for cascade in seeds.cascades])
    return states, trace


class DiffusionOutcome:
    """Final state of one diffusion run.

    Attributes:
        states: per-node final state (``INACTIVE`` or ``cascade + 1``),
            indexed by node id.
        trace: the hop-by-hop :class:`~repro.diffusion.trace.HopTrace`.
    """

    __slots__ = ("states", "trace")

    def __init__(self, states: Sequence[int], trace: HopTrace) -> None:
        self.states: List[int] = list(states)
        self.trace = trace

    @property
    def infected_count(self) -> int:
        """Total infected nodes — cascade 0, the rumor (seeds included)."""
        return sum(1 for state in self.states if state == INFECTED)

    @property
    def protected_count(self) -> int:
        """Total nodes taken by *any* positive campaign (seeds included)."""
        return sum(1 for state in self.states if state >= PROTECTED)

    def cascade_counts(self) -> List[int]:
        """Per-cascade final activation counts, indexed by cascade."""
        counts = [0] * self.trace.cascade_count
        for state in self.states:
            if state != INACTIVE:
                counts[state - 1] += 1
        return counts

    def infected_ids(self) -> List[int]:
        """Ids of infected nodes."""
        return [node for node, state in enumerate(self.states) if state == INFECTED]

    def protected_ids(self) -> List[int]:
        """Ids of nodes taken by any positive campaign."""
        return [node for node, state in enumerate(self.states) if state >= PROTECTED]

    def cascade_ids(self, cascade: int) -> List[int]:
        """Ids of the nodes cascade ``cascade`` activated."""
        wanted = cascade + 1
        return [node for node, state in enumerate(self.states) if state == wanted]

    def state_of(self, node_id: int) -> int:
        """Final state of one node."""
        return self.states[node_id]

    def __repr__(self) -> str:
        return (
            f"DiffusionOutcome(infected={self.infected_count}, "
            f"protected={self.protected_count}, hops={self.trace.hops})"
        )


class DiffusionModel(abc.ABC):
    """Base class for competitive K-cascade diffusion models.

    Subclasses implement :meth:`_spread`, receiving pre-validated inputs
    and the state array and trace from :func:`seeded_start`; the template
    method :meth:`run` handles validation and seeding so every model
    enforces the common Section III properties identically.
    """

    #: human-readable name used in reports.
    name: str = "diffusion"

    #: whether the model consumes randomness (DOAM does not).
    stochastic: bool = True

    def run(
        self,
        graph: IndexedDiGraph,
        seeds: CascadeSet,
        rng: Optional[RngStream] = None,
        max_hops: int = DEFAULT_MAX_HOPS,
    ) -> DiffusionOutcome:
        """Run one realisation of the model.

        Args:
            graph: indexed graph to diffuse on.
            seeds: validated (disjoint) cascade seed sets, as node ids.
            rng: random stream; required for stochastic models.
            max_hops: horizon; diffusion also stops early once no further
                activation is possible.

        Returns:
            The final :class:`DiffusionOutcome`.
        """
        check_positive(max_hops, "max_hops")
        seeds.validate_against(graph)
        if self.stochastic and rng is None:
            raise ValueError(f"{self.name} is stochastic and needs an RngStream")
        states, trace = seeded_start(graph.node_count, seeds)
        self._spread(graph, states, seeds, trace, rng, max_hops)
        outcome = DiffusionOutcome(states, trace)
        registry = metrics()
        if registry.enabled:
            registry.counter("sim.runs").add(1)
            registry.counter("sim.rounds").add(trace.hops - 1)
            registry.counter("sim.activations.infected").add(outcome.infected_count)
            registry.counter("sim.activations.protected").add(outcome.protected_count)
        return outcome

    @abc.abstractmethod
    def _spread(
        self,
        graph: IndexedDiGraph,
        states: List[int],
        seeds: CascadeSet,
        trace: HopTrace,
        rng: Optional[RngStream],
        max_hops: int,
    ) -> None:
        """Advance the cascades in place, recording each hop on ``trace``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
