"""Edge-timestamp machinery from the submodularity proof (Section V.A.1).

The paper proves OPOAO submodularity by materialising each random run as a
pair of *timestamped random graphs* ``G_R`` and ``G_P``: every time an
active node ``u`` chooses a target ``w`` at step ``t``, the edge ``(u, w)``
receives a timestamp ``t_s`` for each seed ``s`` whose cascade has already
reached ``u``; only the **smallest** timestamp per (edge, seed) is kept
(Fig. 1(b)'s simplification). The arrival time of seed ``s`` at a node is
then the smallest timestamp labelled ``s`` on its in-edges (Lemma 1), and a
bridge end is protected exactly when some protector timestamp on its
in-edges is no larger than the smallest rumor timestamp (Lemma 2).

This module reifies that construction so tests can reproduce the paper's
Fig. 1 worked example exactly (via a scripted chooser) and so the library
offers a second, proof-faithful estimator of the protector influence
``σ(A)`` to cross-check the direct simulator.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import SeedError
from repro.graph.compact import IndexedDiGraph
from repro.rng import RngStream
from repro.utils.validation import check_positive

__all__ = ["CascadeRecord", "record_cascade", "protected_by_timestamps"]

#: chooser(node, neighbors, step) -> chosen neighbor; ``None`` = skip turn.
Chooser = Callable[[int, Sequence[int], int], Optional[int]]


class CascadeRecord:
    """Timestamped random graph of one cascade's OPOAO selection process.

    Attributes:
        edge_timestamps: ``(tail, head) -> {seed: smallest step}`` — the
            preserved timestamps of Fig. 1(b).
        arrival: ``node -> {seed: earliest arrival step}``; seeds arrive at
            themselves at step 0.
        steps: number of selection steps executed.
    """

    __slots__ = ("edge_timestamps", "arrival", "steps")

    def __init__(self) -> None:
        self.edge_timestamps: Dict[Tuple[int, int], Dict[int, int]] = {}
        self.arrival: Dict[int, Dict[int, int]] = {}
        self.steps = 0

    def reached(self, node: int) -> bool:
        """True if any seed's cascade reached ``node``."""
        return node in self.arrival

    def earliest_arrival(self, node: int) -> Optional[int]:
        """Smallest arrival step at ``node`` over all seeds, or ``None``."""
        times = self.arrival.get(node)
        return min(times.values()) if times else None

    def min_in_timestamp(self, node: int, in_neighbors: Iterable[int]) -> Optional[int]:
        """Smallest preserved timestamp on ``node``'s in-edges (Lemma 1/2)."""
        best: Optional[int] = None
        for tail in in_neighbors:
            stamps = self.edge_timestamps.get((tail, node))
            if not stamps:
                continue
            smallest = min(stamps.values())
            if best is None or smallest < best:
                best = smallest
        return best

    def __repr__(self) -> str:
        return (
            f"CascadeRecord(edges={len(self.edge_timestamps)}, "
            f"reached={len(self.arrival)}, steps={self.steps})"
        )


def record_cascade(
    graph: IndexedDiGraph,
    seeds: Iterable[int],
    steps: int,
    rng: Optional[RngStream] = None,
    chooser: Optional[Chooser] = None,
) -> CascadeRecord:
    """Run one cascade's selection process, recording timestamps.

    The process follows Section III.A for a *single* cascade (the proof
    builds ``G_R`` and ``G_P`` separately): at every step each reached node
    picks one out-neighbor — uniformly via ``rng``, or via the scripted
    ``chooser`` (used by tests to replay Fig. 1 exactly, and by
    :class:`repro.sketch.rrset.OPOAORRSampler` for its counter-keyed
    picks).

    Args:
        graph: indexed graph.
        seeds: cascade originators (node ids).
        steps: number of selection steps to run.
        rng: random stream (required unless ``chooser`` is given).
        chooser: scripted target choice; returning ``None`` skips the
            node's turn that step.

    Returns:
        The populated :class:`CascadeRecord`.
    """
    check_positive(steps, "steps")
    seed_list = sorted(set(seeds))
    if not seed_list:
        raise SeedError("cascade needs at least one seed")
    for seed in seed_list:
        if not 0 <= seed < graph.node_count:
            raise SeedError(f"seed {seed!r} is not a node id")
    if chooser is None:
        if rng is None:
            raise ValueError("record_cascade needs an rng or a chooser")

        def chooser(node: int, neighbors: Sequence[int], _step: int) -> Optional[int]:
            return neighbors[rng.randrange(len(neighbors))]

    record = CascadeRecord()
    for seed in seed_list:
        record.arrival[seed] = {seed: 0}

    for step in range(1, steps + 1):
        record.steps = step
        # Snapshot: only nodes reached before this step choose this step.
        reached_now: List[Tuple[int, Dict[int, int]]] = [
            (node, dict(times)) for node, times in sorted(record.arrival.items())
        ]
        for node, times in reached_now:
            neighbors = graph.out[node]
            if not neighbors:
                continue
            if min(times.values()) >= step:
                continue  # activated this very step; chooses from the next one
            target = chooser(node, neighbors, step)
            if target is None:
                continue
            if target not in neighbors:
                raise ValueError(
                    f"chooser picked {target!r}, not an out-neighbor of {node!r}"
                )
            stamps = record.edge_timestamps.setdefault((node, target), {})
            target_arrival = record.arrival.setdefault(target, {})
            for seed, seed_arrival in times.items():
                if seed_arrival >= step:
                    continue  # this seed's influence reached `node` too late
                if seed not in stamps or step < stamps[seed]:
                    stamps[seed] = step
                if seed not in target_arrival or step < target_arrival[seed]:
                    target_arrival[seed] = step
    return record


def protected_by_timestamps(
    rumor_record: CascadeRecord,
    protector_record: CascadeRecord,
    graph: IndexedDiGraph,
    candidates: Iterable[int],
) -> Set[int]:
    """Apply Lemma 2 to decide which candidate nodes end up protected.

    A node ``v`` is protected when it is reached in ``G_P`` with some
    protector timestamp on an in-edge **no larger than** the smallest rumor
    timestamp on its in-edges (P wins ties), per Lemma 2. Nodes never
    reached by the rumor are not "protected" — they were never at risk.

    Args:
        rumor_record: ``G_R`` from :func:`record_cascade`.
        protector_record: ``G_P`` from :func:`record_cascade`.
        graph: the graph both records were built on.
        candidates: nodes to classify (typically the bridge ends).

    Returns:
        The subset of ``candidates`` that the protector cascade saves.
    """
    saved: Set[int] = set()
    for node in candidates:
        rumor_stamp = rumor_record.min_in_timestamp(node, graph.inn[node])
        if rumor_stamp is None:
            continue  # rumor never arrives; nothing to save
        protector_stamp = protector_record.min_in_timestamp(node, graph.inn[node])
        if protector_stamp is not None and protector_stamp <= rumor_stamp:
            saved.add(node)
    return saved
