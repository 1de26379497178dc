"""Lazy-greedy weighted max coverage over a :class:`SketchStore`.

The selection core shared by :class:`repro.algorithms.ris_greedy.\
RISGreedySelector` and the query service (:mod:`repro.serve`): picking
the node contained in the most not-yet-covered RR sets maximises the σ̂
marginal gain exactly, so the CELF-style lazy heap applies with *exact*
stale bounds — coverage counts are integers, not noisy estimates.

Both problem flavours come through the usual ``budget`` convention:
``budget=k`` stops after ``k`` picks (LCRB); ``budget=None`` keeps
covering until the estimated protected fraction of bridge ends reaches
``alpha`` (LCRB-P), raising :class:`~repro.errors.SelectionError` when
the sketches run dry first.

Each node's exact current gain lives in an array, seeded from the
store's postings row lengths and decremented for every member of each
set a pick newly covers, so a heap pop reads a gain in O(1).

The pass is a pure function of the store's arrays and its arguments —
no RNG — so two stores with bit-identical arrays yield bit-identical
picks. That determinism is what the serve layer's concurrency tests
lean on. Ties do **not** break by ascending node id. The heap is keyed
``(-bound, node)``, so among equal bounds the smaller id pops first, and
a popped node is taken as soon as its exact gain reaches the next
entry's bound, which may be stale. With sets ``{1,2}, {1}, {0}, {0},
{2}, {2}, {1}, {2}``, ``budget=2`` picks 2, then pops 1 on its stale
bound of 3; its exact gain of 2 ties node 0's bound of 2, so the pass
returns ``[2, 1]``, not ``[2, 0]``.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Iterable, List, Optional, Tuple

from repro.errors import SelectionError
from repro.obs.registry import metrics

__all__ = ["max_coverage", "protected_fraction"]


def protected_fraction(store, covered_total: int, end_count: int) -> float:
    """Estimated fraction of bridge ends protected at ``covered_total``.

    Per world, ``end_count - at_risk + covered`` ends are safe (never
    reached, or reached but their RR set is covered); averaging over
    worlds gives the sketch estimate of the protected fraction.
    """
    safe = store.worlds * end_count - store.at_risk_total + covered_total
    return safe / (store.worlds * end_count)


def max_coverage(
    store,
    *,
    budget: Optional[int] = None,
    excluded: Iterable[int] = (),
    alpha: Optional[float] = None,
    end_count: Optional[int] = None,
) -> List[int]:
    """One lazy-greedy pass over the store's current sets.

    Args:
        store: a :class:`~repro.sketch.store.SketchStore` with at least
            one sampled world.
        budget: stop after this many picks; ``None`` selects until the
            protected fraction reaches ``alpha`` (which then requires
            ``alpha`` and ``end_count``).
        excluded: node ids never to pick (the rumor seeds).
        alpha: protection target for the budget-free mode.
        end_count: number of bridge ends ``|B|`` (budget-free mode).

    Returns:
        Picked node ids in selection order.

    Raises:
        SelectionError: budget-free mode exhausted every useful node
            below the ``alpha`` target.
    """
    excluded_set = set(excluded)
    indptr, set_ids, members, offsets, np_mod, nodes = store.postings_index()
    # gains[node]: the number of not-yet-covered sets containing node.
    if np_mod is not None:
        covered = np_mod.zeros(store.set_count, dtype=np_mod.bool_)
        gains = np_mod.diff(indptr)
    else:
        covered = bytearray(store.set_count)
        gains = array(
            "q", [indptr[node + 1] - indptr[node] for node in range(len(indptr) - 1)]
        )
    # Reads the int64 cells as Python ints (no NumPy scalar per pop) and
    # sees the in-place updates below.
    gain_of = memoryview(gains)
    covered_total = 0

    # Heap of (-bound, node); a bound is a gain from when the node was
    # last pushed. Gains only fall, so a popped node whose exact gain
    # still reaches the next bound is the true argmax.
    heap: List[Tuple[int, int]] = [
        (-gain_of[node], node)
        for node in nodes
        if node not in excluded_set
    ]
    heapq.heapify(heap)

    # Coverage-gain queries play the role σ̂ evaluations play in the
    # Monte-Carlo selectors; the initial exact gains count too.
    sigma_evaluations = len(heap)
    queue_hits = 0
    reevaluations = 0

    picked: List[int] = []
    node: Optional[int] = None

    def done() -> bool:
        if budget is not None:
            return len(picked) >= budget
        return protected_fraction(store, covered_total, end_count) >= alpha

    while not done():
        gain = 0
        while heap:
            _, node = heapq.heappop(heap)
            gain = gain_of[node]
            sigma_evaluations += 1
            if not heap or gain >= -heap[0][0]:
                queue_hits += 1
                break  # fresh gain still on top -> true argmax
            reevaluations += 1
            if gain:
                heapq.heappush(heap, (-gain, node))
        else:
            node = None
        if node is None or gain == 0:
            if budget is None:
                raise SelectionError(
                    f"sketches exhausted at protected fraction "
                    f"{protected_fraction(store, covered_total, end_count):.3f}"
                    f" < alpha={alpha}"
                )
            break  # nothing left worth adding; return a short set
        picked.append(node)
        postings = set_ids[indptr[node] : indptr[node + 1]]
        if np_mod is not None:
            newly = postings[~covered[postings]]
            covered[newly] = True
            covered_total += len(newly)
            # Members of the newly covered sets, gathered as one flat
            # run of positions into the set -> members column.
            starts = offsets[newly]
            lengths = offsets[newly + 1] - starts
            positions = np_mod.repeat(
                starts - (np_mod.cumsum(lengths) - lengths), lengths
            ) + np_mod.arange(lengths.sum())
            gains -= np_mod.bincount(members[positions], minlength=len(gains))
        else:
            for set_id in postings:
                if not covered[set_id]:
                    covered[set_id] = 1
                    covered_total += 1
                    for member in members[offsets[set_id] : offsets[set_id + 1]]:
                        gains[member] -= 1
    registry = metrics()
    if registry.enabled:
        registry.counter("selector.sigma_evaluations").add(sigma_evaluations)
        registry.counter("selector.marginal_gain_calls").add(sigma_evaluations)
        registry.counter("selector.celf_queue_hits").add(queue_hits)
        registry.counter("selector.celf_reevaluations").add(reevaluations)
    return picked
