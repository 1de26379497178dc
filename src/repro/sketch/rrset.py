"""Reverse-reachable (RR) set samplers for the paper's two semantics.

Reverse Influence Sampling (Borgs et al.; Tong et al., arXiv:1701.02368
for the rumor-blocking variant) turns protector evaluation inside out:
instead of forward-simulating every candidate set, sample random *worlds*
once, extract for each at-risk bridge end the set of nodes that could
have saved it in that world, and score any protector set by how many of
those RR sets it intersects. Coverage of the sampled sets is an unbiased
estimator of σ(A), and maximising coverage is plain weighted max
coverage — submodular, lazily greedifiable, and embarrassingly cheap per
candidate compared to Monte-Carlo simulation.

Two samplers, one per diffusion semantics:

* :class:`OPOAORRSampler` — the OPOAO selection process, proof-style
  (Section V.A.1): each world draws an independent rumor record via
  :func:`repro.diffusion.timestamps.record_cascade` (``G_R``) and one
  *shared* protector choice table (``G_P``): a per-node row of uniform
  out-neighbor picks, one per step, lazily sampled during reverse
  traversal. A node ``u`` belongs to ``RR(v)`` exactly when a protector
  cascade seeded at ``u`` alone would, under that choice table, reach
  ``v`` no later than the rumor does in ``G_R`` (Lemma 2's timestamp
  comparison; P wins ties). Because the whole table is shared, the
  arrival of a protector *set* is the min over its members, so
  ``A ∩ RR(v) ≠ ∅  ⇔  A saves v`` holds world by world.
* :class:`DOAMRRSampler` — DOAM is deterministic, so there is exactly
  one world: the rumor front arrives at ``v`` at its BFS distance
  ``t_R(v)`` from the nearest rumor seed (the fixpoint of
  :mod:`repro.diffusion.arrival`), and ``u`` saves ``v`` iff
  ``d(u → v) <= t_R(v)`` (Theorem 2's coverage criterion). ``RR(v)`` is
  a reverse BFS of depth ``t_R(v)`` — the BBST of ``v``, flattened.

Every random draw of an OPOAO world is a pure function of (world key,
node, step) through one counter-keyed rule, :func:`pick`: world ``i``
has two keys (:func:`world_keys`, one for the rumor record and one for
the choice table), and the out-neighbor a node picks at a step hashes
the key with the (node, step) cell. No draw depends on another, so world
``i`` is identical no matter when, in what order, or in which process
it is sampled — the property that makes
:class:`repro.sketch.store.SketchStore` incrementally extendable and
parallel-safe — and a batched kernel can evaluate any block of cells
at once (:mod:`repro.sketch.kernels`).

Each sampled world also carries a **dependency footprint**: the set of
node ids whose adjacency rows the sampling actually read (rumor-reached
nodes, lazily drawn choice rows, every RR-set member, and all bridge
ends). When the graph mutates in place
(:meth:`repro.graph.compact.IndexedDiGraph.apply_updates`), a world
whose footprint avoids every touched endpoint would replay to the exact
same draws and sets on the mutated graph — so the store only resamples
worlds whose footprint intersects the touched set (see
:meth:`repro.sketch.store.SketchStore.refresh`).
"""

from __future__ import annotations

from array import array
from collections import deque
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.diffusion.base import DEFAULT_MAX_HOPS
from repro.diffusion.timestamps import record_cascade
from repro.errors import SeedError, ValidationError
from repro.graph.compact import IndexedDiGraph
from repro.rng import RngStream, pick, world_keys
from repro.utils.validation import check_positive

__all__ = [
    "WorldSample",
    "OPOAORRSampler",
    "DOAMRRSampler",
    "sampler_for",
    "rebuild_sampler",
    "SKETCH_SEMANTICS",
]

#: semantics names accepted by :func:`sampler_for` (and the CLI).
SKETCH_SEMANTICS = ("opoao", "doam")


class WorldSample:
    """One sampled world: an RR set per bridge end the rumor reaches.

    Sets and footprint are stored CSR-packed in int32/int64 machine
    arrays rather than per-set Python tuples, so a world costs a few
    flat buffers however many sets it holds — and pickles (pool workers
    ship worlds back to the parent; checkpoints embed them) shrink
    accordingly. The ``rr_sets`` / ``footprint`` views below present
    the packed data in the historical tuple shapes.

    Attributes:
        index: the replica index the world was derived from.
        rr_sets: ``(root, members)`` pairs — ``root`` is the at-risk
            bridge end, ``members`` the sorted node ids whose singleton
            protector cascade saves it in this world.
        footprint: sorted node ids whose adjacency rows sampling read
            (what :meth:`repro.sketch.store.SketchStore.refresh` tests
            an update against).
    """

    __slots__ = ("index", "_roots", "_offsets", "_members", "_footprint", "_view")

    def __init__(
        self,
        index: int,
        rr_sets: Sequence[Tuple[int, Tuple[int, ...]]],
        footprint: Sequence[int],
    ) -> None:
        self.index = index
        roots = array("i")
        offsets = array("q", [0])
        members = array("i")
        for root, set_members in rr_sets:
            roots.append(root)
            members.extend(set_members)
            offsets.append(len(members))
        self._roots = roots
        self._offsets = offsets
        self._members = members
        self._footprint = array("i", sorted(footprint))
        self._view: Optional[List[Tuple[int, Tuple[int, ...]]]] = None

    @classmethod
    def from_packed(
        cls,
        index: int,
        roots: array,
        offsets: array,
        members: array,
        footprint: array,
    ) -> "WorldSample":
        """A world from arrays already in :meth:`packed` form.

        ``roots``, ``members`` and ``footprint`` are ``array("i")``
        (``footprint`` sorted), ``offsets`` an ``array("q")`` starting
        at 0; they are kept, not copied.
        """
        world = cls.__new__(cls)
        world.__setstate__((index, roots, offsets, members, footprint))
        return world

    @property
    def rr_sets(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """``(root, members)`` tuples, materialised lazily from the arrays."""
        if self._view is None:
            offsets = self._offsets
            members = self._members
            self._view = [
                (root, tuple(members[offsets[i] : offsets[i + 1]]))
                for i, root in enumerate(self._roots)
            ]
        return self._view

    @property
    def footprint(self) -> Tuple[int, ...]:
        """Sorted dependency footprint."""
        return tuple(self._footprint)

    def packed(self) -> Tuple[array, array, array, array]:
        """The raw ``(roots, offsets, members, footprint)`` arrays
        (read-only use)."""
        return self._roots, self._offsets, self._members, self._footprint

    def __getstate__(self):
        return (self.index, self._roots, self._offsets, self._members, self._footprint)

    def __setstate__(self, state) -> None:
        self.index, self._roots, self._offsets, self._members, self._footprint = state
        self._view = None

    def __repr__(self) -> str:
        return f"WorldSample(index={self.index}, rr_sets={len(self._roots)})"


def _check_ids(graph: IndexedDiGraph, ids: Sequence[int], name: str) -> List[int]:
    out = sorted(set(ids))
    for node in out:
        if not isinstance(node, int) or isinstance(node, bool) or not (
            0 <= node < graph.node_count
        ):
            raise SeedError(f"{name} id {node!r} is not a node id")
    return out


class OPOAORRSampler:
    """RR sets under the OPOAO selection-process (timestamp) semantics.

    Args:
        graph: indexed graph.
        rumor_ids: rumor originators (node ids; non-empty).
        bridge_end_ids: the bridge ends ``B`` (node ids).
        steps: selection-step horizon (paper: 31).
        rng: base stream; world ``i`` draws only under
            ``world_keys(rng.seed, i)``.
    """

    name = "OPOAO-RR"
    stochastic = True

    def __init__(
        self,
        graph: IndexedDiGraph,
        rumor_ids: Sequence[int],
        bridge_end_ids: Sequence[int],
        steps: int = DEFAULT_MAX_HOPS,
        rng: Optional[RngStream] = None,
    ) -> None:
        self.graph = graph
        self.rumor_ids = _check_ids(graph, rumor_ids, "rumor seed")
        if not self.rumor_ids:
            raise SeedError("rumor seed set must not be empty")
        self.end_ids = _check_ids(graph, bridge_end_ids, "bridge end")
        self.steps = int(check_positive(steps, "steps"))
        self.rng = rng or RngStream(name="opoao-rr")

    def _choice_row(self, key: int, node: int) -> Tuple[int, ...]:
        """The node's out-neighbor pick for every step of this world.

        Each cell is :func:`pick` of (``key``, node, step), so the row is
        identical regardless of the order reverse traversals touch it.
        """
        neighbors = self.graph.out[node]
        count = len(neighbors)
        return tuple(
            neighbors[pick(key, node, step, count)]
            for step in range(1, self.steps + 1)
        )

    def _reverse_reachable(
        self,
        end: int,
        deadline: int,
        rows: Dict[int, Tuple[int, ...]],
        key: int,
    ) -> Tuple[int, ...]:
        """Nodes whose singleton cascade reaches ``end`` by ``deadline``.

        Runs a max-slack Dijkstra backwards from ``end``: ``slack(x)`` is
        the latest step a cascade may *arrive* at ``x`` and still be
        relayed to ``end`` by the deadline. A node belongs to the RR set
        iff its slack is >= 0 (a seed arrives at itself at step 0).
        """
        graph = self.graph
        slack: Dict[int, int] = {end: deadline}
        heap: List[Tuple[int, int]] = [(-deadline, end)]
        while heap:
            negative, node = heappop(heap)
            arrive_by = -negative
            if arrive_by < slack.get(node, -1):
                continue  # stale heap entry
            if arrive_by < 1:
                continue  # cannot relay further: choices happen at steps >= 1
            for tail in graph.inn[node]:
                row = rows.get(tail)
                if row is None:
                    row = self._choice_row(key, tail)
                    rows[tail] = row
                # Latest step t <= arrive_by at which `tail` picks `node`;
                # the cascade must have arrived at `tail` strictly before t.
                candidate = -1
                for step in range(min(arrive_by, self.steps), 0, -1):
                    if row[step - 1] == node:
                        candidate = step - 1
                        break
                if candidate > slack.get(tail, -1):
                    slack[tail] = candidate
                    heappush(heap, (-candidate, tail))
        return tuple(sorted(slack))

    def worker_payload(self) -> Dict[str, object]:
        """Graph-free description a pool worker rebuilds this sampler from.

        Only the base seed matters for reproduction: world ``i`` derives
        everything from ``world_keys(rng.seed, i)``, so a rebuilt sampler yields
        bit-identical :class:`WorldSample`\\ s for every index.
        """
        return {
            "semantics": "opoao",
            "rumor_ids": list(self.rumor_ids),
            "end_ids": list(self.end_ids),
            "steps": self.steps,
            "seed": self.rng.seed,
        }

    def sample_world(self, index: int) -> WorldSample:
        """Sample world ``index``: one rumor record, one RR set per at-risk end.

        The returned sample's footprint is every node whose rows the
        world read: rumor-reached nodes (their out-rows drive the
        cascade), nodes with a drawn choice row, all RR-set members
        (their in-rows drive the reverse Dijkstra), and every bridge end
        (its in-row feeds the deadline lookup).
        """
        rumor_key, choices_key = world_keys(self.rng.seed, index)

        def chooser(node: int, neighbors: Sequence[int], step: int) -> int:
            return neighbors[pick(rumor_key, node, step, len(neighbors))]

        rumor = record_cascade(
            self.graph, self.rumor_ids, steps=self.steps, chooser=chooser
        )
        rows: Dict[int, Tuple[int, ...]] = {}
        rr_sets: List[Tuple[int, Tuple[int, ...]]] = []
        for end in self.end_ids:
            deadline = rumor.min_in_timestamp(end, self.graph.inn[end])
            if deadline is None:
                continue  # the rumor never arrives; nothing to save
            rr_sets.append(
                (end, self._reverse_reachable(end, deadline, rows, choices_key))
            )
        footprint = set(rumor.arrival)
        footprint.update(rows)
        footprint.update(self.end_ids)
        for _, members in rr_sets:
            footprint.update(members)
        return WorldSample(index, rr_sets, footprint=sorted(footprint))

    def __repr__(self) -> str:
        return (
            f"OPOAORRSampler(|R|={len(self.rumor_ids)}, |B|={len(self.end_ids)}, "
            f"steps={self.steps})"
        )


class DOAMRRSampler:
    """RR sets under DOAM: the flattened BBST of each at-risk bridge end.

    DOAM consumes no randomness, so every world index yields the same
    sample; the sets are computed once per :attr:`graph.version
    <repro.graph.compact.IndexedDiGraph.version>` and cached, so an
    in-place :meth:`~repro.graph.compact.IndexedDiGraph.apply_updates`
    is followed with no hook. ``rng`` is accepted for interface
    symmetry and ignored.
    """

    name = "DOAM-RR"
    stochastic = False

    def __init__(
        self,
        graph: IndexedDiGraph,
        rumor_ids: Sequence[int],
        bridge_end_ids: Sequence[int],
        max_hops: int = DEFAULT_MAX_HOPS,
        rng: Optional[RngStream] = None,
    ) -> None:
        self.graph = graph
        self.rumor_ids = _check_ids(graph, rumor_ids, "rumor seed")
        if not self.rumor_ids:
            raise SeedError("rumor seed set must not be empty")
        self.end_ids = _check_ids(graph, bridge_end_ids, "bridge end")
        self.max_hops = int(check_positive(max_hops, "max_hops"))
        self.rng = rng
        # (graph version, rr_sets, footprint) of the one world.
        self._cached: Optional[Tuple[int, List, Tuple[int, ...]]] = None

    def _rumor_arrival(self) -> Dict[int, int]:
        """Multi-source BFS hop distance from the nearest rumor seed."""
        distance: Dict[int, int] = {seed: 0 for seed in self.rumor_ids}
        queue = deque(self.rumor_ids)
        while queue:
            node = queue.popleft()
            hops = distance[node]
            if hops >= self.max_hops:
                continue
            for head in self.graph.out[node]:
                if head not in distance:
                    distance[head] = hops + 1
                    queue.append(head)
        return distance

    def _reverse_ball(self, end: int, depth: int) -> Tuple[int, ...]:
        """All nodes within ``depth`` reverse hops of ``end``."""
        distance: Dict[int, int] = {end: 0}
        queue = deque([end])
        while queue:
            node = queue.popleft()
            hops = distance[node]
            if hops >= depth:
                continue
            for tail in self.graph.inn[node]:
                if tail not in distance:
                    distance[tail] = hops + 1
                    queue.append(tail)
        return tuple(sorted(distance))

    def worker_payload(self) -> Dict[str, object]:
        """Graph-free description a pool worker rebuilds this sampler from."""
        return {
            "semantics": "doam",
            "rumor_ids": list(self.rumor_ids),
            "end_ids": list(self.end_ids),
            "steps": self.max_hops,
            "seed": None,
        }

    def sample_world(self, index: int) -> WorldSample:
        """The (unique) DOAM world, whatever ``index`` is passed."""
        version = self.graph.version
        if self._cached is None or self._cached[0] != version:
            arrival = self._rumor_arrival()
            rr_sets = [
                (end, self._reverse_ball(end, arrival[end]))
                for end in self.end_ids
                if end in arrival
            ]
            footprint = set(arrival)
            footprint.update(self.end_ids)
            for _, members in rr_sets:
                footprint.update(members)
            self._cached = (version, rr_sets, tuple(sorted(footprint)))
        _version, rr_sets, footprint = self._cached
        return WorldSample(index, rr_sets, footprint=footprint)

    def __repr__(self) -> str:
        return (
            f"DOAMRRSampler(|R|={len(self.rumor_ids)}, |B|={len(self.end_ids)}, "
            f"max_hops={self.max_hops})"
        )


def sampler_for(
    semantics: str,
    context,
    steps: int = DEFAULT_MAX_HOPS,
    rng: Optional[RngStream] = None,
):
    """Build the RR sampler for a resolved LCRB instance.

    Args:
        semantics: ``"opoao"`` or ``"doam"``.
        context: a :class:`repro.algorithms.base.SelectionContext`.
        steps: horizon (OPOAO selection steps / DOAM hops).
        rng: base stream (OPOAO only).

    Returns:
        An :class:`OPOAORRSampler` or :class:`DOAMRRSampler` bound to the
        context's indexed graph, rumor seeds, and bridge ends.
    """
    if semantics not in SKETCH_SEMANTICS:
        raise ValidationError(
            f"semantics must be one of {SKETCH_SEMANTICS}, got {semantics!r}"
        )
    graph = context.indexed
    rumor_ids = context.rumor_seed_ids()
    end_ids = context.bridge_end_ids()
    if semantics == "opoao":
        return OPOAORRSampler(graph, rumor_ids, end_ids, steps=steps, rng=rng)
    return DOAMRRSampler(graph, rumor_ids, end_ids, max_hops=steps, rng=rng)


def rebuild_sampler(graph: IndexedDiGraph, payload: Dict[str, object]):
    """Reconstruct a sampler from its :meth:`worker_payload` in a worker.

    The stream *name* is cosmetic (only the seed feeds
    :func:`repro.rng.derive_seed`), so the rebuilt sampler's worlds are
    bit-identical to the original's.
    """
    semantics = payload["semantics"]
    if semantics == "opoao":
        return OPOAORRSampler(
            graph,
            payload["rumor_ids"],
            payload["end_ids"],
            steps=payload["steps"],
            rng=RngStream(payload["seed"], name="opoao-rr"),
        )
    if semantics == "doam":
        return DOAMRRSampler(
            graph,
            payload["rumor_ids"],
            payload["end_ids"],
            max_hops=payload["steps"],
        )
    raise ValidationError(f"unknown sampler semantics {semantics!r}")
