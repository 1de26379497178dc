"""Backend-shared kernel infrastructure.

A kernel backend runs **B diffusion worlds at once** over one graph: it
consumes a :class:`~repro.kernels.worlds.WorldBatch` (the entire
randomness of every world, pre-sampled) plus one seed configuration and
returns a :class:`BatchOutcome` — final per-world node states and the
per-hop cumulative activation series the simulation aggregate needs.

:class:`KernelBackend` is the template: :meth:`KernelBackend.run_worlds`
validates inputs, times the run (``time.kernel``), and reports the obs
counters (``kernel.worlds``, ``kernel.batches``, ``kernel.hops``,
``kernel.activations``, histogram ``kernel.batch_worlds``); concrete
backends implement only :meth:`KernelBackend._run`. Backends do not
sample: every world comes from
:func:`~repro.kernels.worlds.sample_worlds`, so all backends race the
same worlds.
"""

from __future__ import annotations

import abc
from typing import FrozenSet, Iterable, List, Optional, Sequence

from repro.diffusion.base import (
    DEFAULT_MAX_HOPS,
    INFECTED,
    CascadeSet,
)
from repro.graph.compact import IndexedDiGraph
from repro.kernels.spec import KernelSpec
from repro.kernels.worlds import WorldBatch
from repro.obs.registry import metrics
from repro.utils.validation import check_positive

__all__ = ["BatchOutcome", "KernelBackend"]


class BatchOutcome:
    """Final states and per-hop series of a batched kernel run.

    Attributes:
        kind: model kind that produced the batch.
        batch: number of worlds.
        node_count: nodes per world.
        states: per-world final node states; ``states[b][v]`` is INACTIVE
            or ``cascade + 1`` (INFECTED/PROTECTED for K=2).
            Backend-native storage (nested lists or a NumPy ``int8``
            matrix) — use the accessors, which normalise to plain Python
            values.
        cascade_hops: one hop-major plane per cascade;
            ``cascade_hops[k][h][b]`` is world ``b``'s total cascade-``k``
            nodes after hop ``h`` (hop 0 = seeds). The series ends at the
            last hop *any* world was still spreading.
        infected_hops: ``cascade_hops[0]`` — the rumor plane.
        protected_hops: all positive campaigns summed; for K=2 this is
            literally ``cascade_hops[1]``.
    """

    __slots__ = (
        "kind",
        "batch",
        "node_count",
        "states",
        "cascade_hops",
        "infected_hops",
        "protected_hops",
    )

    def __init__(
        self,
        kind: str,
        node_count: int,
        states: Sequence[Sequence[int]],
        infected_hops: Optional[Sequence[Sequence[int]]] = None,
        protected_hops: Optional[Sequence[Sequence[int]]] = None,
        cascade_hops: Optional[Sequence[Sequence[Sequence[int]]]] = None,
    ) -> None:
        self.kind = kind
        self.node_count = int(node_count)
        self.states = states
        self.batch = len(states)
        if cascade_hops is None:
            if infected_hops is None or protected_hops is None:
                raise ValueError(
                    "BatchOutcome needs cascade_hops or both two-cascade planes"
                )
            cascade_hops = (infected_hops, protected_hops)
        self.cascade_hops = list(cascade_hops)
        self.infected_hops = self.cascade_hops[0]
        if len(self.cascade_hops) == 2:
            self.protected_hops = self.cascade_hops[1]
        else:
            # K > 2: the compat "protected" plane sums every positive
            # campaign (cold path; scenarios read cascade_hops directly).
            self.protected_hops = [
                [
                    int(sum(values))
                    for values in zip(
                        *(plane[hop] for plane in self.cascade_hops[1:])
                    )
                ]
                for hop in range(len(self.cascade_hops[0]))
            ]

    @property
    def hops(self) -> int:
        """Hops actually executed (series length minus the seed entry)."""
        return len(self.infected_hops) - 1

    def infected_at(self, world: int, hop: int) -> int:
        """World ``world``'s cumulative infected count at ``hop`` (clamped)."""
        return int(self.infected_hops[min(hop, self.hops)][world])

    def protected_at(self, world: int, hop: int) -> int:
        """World ``world``'s cumulative protected count at ``hop`` (clamped)."""
        return int(self.protected_hops[min(hop, self.hops)][world])

    def final_infected(self, world: int) -> int:
        """World ``world``'s final infected count."""
        return int(self.infected_hops[-1][world])

    def final_protected(self, world: int) -> int:
        """World ``world``'s final protected count."""
        return int(self.protected_hops[-1][world])

    def cascade_at(self, world: int, cascade: int, hop: int) -> int:
        """World ``world``'s cumulative cascade-``cascade`` count at ``hop``."""
        plane = self.cascade_hops[cascade]
        return int(plane[min(hop, len(plane) - 1)][world])

    def final_cascade(self, world: int, cascade: int) -> int:
        """World ``world``'s final cascade-``cascade`` count."""
        return int(self.cascade_hops[cascade][-1][world])

    def state_of(self, world: int, node_id: int) -> int:
        """Final state of one node in one world, as a plain int."""
        return int(self.states[world][node_id])

    def infected_members(
        self, world: int, node_ids: Iterable[int]
    ) -> FrozenSet[int]:
        """Which of ``node_ids`` ended INFECTED in ``world``."""
        row = self.states[world]
        return frozenset(node for node in node_ids if int(row[node]) == INFECTED)

    def cascade_members(
        self, world: int, cascade: int, node_ids: Iterable[int]
    ) -> FrozenSet[int]:
        """Which of ``node_ids`` cascade ``cascade`` claimed in ``world``."""
        row = self.states[world]
        wanted = cascade + 1
        return frozenset(node for node in node_ids if int(row[node]) == wanted)

    def states_row(self, world: int) -> List[int]:
        """One world's final states as a plain list of ints."""
        return [int(state) for state in self.states[world]]

    def total_activations(self) -> int:
        """Infected + protected totals summed over all worlds."""
        return int(
            sum(self.infected_hops[-1]) + sum(self.protected_hops[-1])
        )

    def __repr__(self) -> str:
        return (
            f"BatchOutcome(kind={self.kind!r}, batch={self.batch}, "
            f"nodes={self.node_count}, hops={self.hops})"
        )


class KernelBackend(abc.ABC):
    """A batched diffusion engine.

    Concrete backends implement :meth:`_run` — the hop loop consuming a
    sampled :class:`WorldBatch` — and inherit validation, timing, and obs
    reporting from :meth:`run_worlds`. Two backends given the *same*
    world batch must return bit-identical outcomes; that contract is what
    ``tests/kernels/test_backend_equivalence.py`` enforces.
    """

    #: registry key (``"python"``, ``"numpy"``).
    name: str = "abstract"

    def run_worlds(
        self,
        graph: IndexedDiGraph,
        spec: KernelSpec,
        worlds: WorldBatch,
        seeds: CascadeSet,
        max_hops: int = DEFAULT_MAX_HOPS,
    ) -> BatchOutcome:
        """Run every world in ``worlds`` under one seed configuration.

        Args:
            graph: the indexed graph (backends read its CSR snapshot).
            spec: which model semantics to race.
            worlds: pre-sampled randomness; must match ``spec.kind`` and
                cover ``max_hops``.
            seeds: validated cascade seed ids (``SeedSets`` for the
                two-cascade case, any :class:`CascadeSet` for K > 2).
            max_hops: horizon per world.

        Returns:
            The :class:`BatchOutcome` over all ``worlds.batch`` worlds.
        """
        check_positive(max_hops, "max_hops")
        seeds.validate_against(graph)
        worlds.check_run(spec.kind, max_hops)
        registry = metrics()
        with registry.timer("time.kernel"):
            outcome = self._run(graph, spec, worlds, seeds, max_hops)
        if registry.enabled:
            registry.counter("kernel.batches").add(1)
            registry.counter("kernel.worlds").add(outcome.batch)
            registry.counter("kernel.hops").add(outcome.hops)
            registry.counter("kernel.activations").add(
                outcome.total_activations()
            )
            registry.histogram("kernel.batch_worlds").observe(outcome.batch)
        return outcome

    @abc.abstractmethod
    def _run(
        self,
        graph: IndexedDiGraph,
        spec: KernelSpec,
        worlds: WorldBatch,
        seeds: CascadeSet,
        max_hops: int,
    ) -> BatchOutcome:
        """Race the cascades through every world (inputs pre-validated)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

