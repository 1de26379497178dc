"""Frozen lazy-greedy max-coverage pass (differential-test reference).

This module is a verbatim copy of :func:`repro.sketch.coverage.\
max_coverage` as it stood before the pass kept each node's exact gain
incrementally: every heap pop recounts the node's uncovered sets by
masking ``covered[postings]``. ``test_coverage.py`` runs the live pass
and this reference on the same stores and arguments and requires
identical picks, error messages and ``selector.*`` counters.

Do not "improve" this file: its whole value is that it never changes.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Tuple

from repro.errors import SelectionError
from repro.obs.registry import metrics

try:  # pragma: no cover - exercised by the no-NumPy CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None  # type: ignore[assignment]


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
    covered = bytearray(store.set_count)
    covered_total = 0
    # NumPy view sharing the bytearray's memory: writes through either
    # side are visible to the other, so `covered[postings]` masking and
    # the scalar fallback stay interchangeable mid-pass.
    covered_np = None
    if _np is not None:
        covered_np = _np.frombuffer(covered, dtype=_np.uint8)

    # Heap of (-gain, node); gains are exact set counts, so a lazy
    # re-evaluation that stays on top is provably the argmax. Node-id
    # order breaks ties deterministically.
    heap: List[Tuple[int, int]] = []
    for node in store.nodes():
        if node in excluded_set:
            continue
        count = len(store.sets_containing(node))
        if count:
            heap.append((-count, node))
    heapq.heapify(heap)

    # Coverage-gain queries play the role σ̂ evaluations play in the
    # Monte-Carlo selectors; the initial exact gains count too.
    sigma_evaluations = len(heap)
    queue_hits = 0
    reevaluations = 0

    picked: List[int] = []

    def done() -> bool:
        if budget is not None:
            return len(picked) >= budget
        return protected_fraction(store, covered_total, end_count) >= alpha

    while not done():
        gain = 0
        postings: Iterable[int] = ()
        while heap:
            negative, node = heapq.heappop(heap)
            # Bind the postings once per pop: the recount below and the
            # cover loop after a winning pop reuse the same slice.
            postings = store.sets_containing(node)
            if covered_np is not None and isinstance(postings, _np.ndarray):
                gain = int(len(postings) - covered_np[postings].sum())
            else:
                gain = sum(
                    1 for set_id in postings if not covered[set_id]
                )
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
        if covered_np is not None and isinstance(postings, _np.ndarray):
            newly = postings[covered_np[postings] == 0]
            covered_np[newly] = 1
            covered_total += int(len(newly))
        else:
            for set_id in postings:
                if not covered[set_id]:
                    covered[set_id] = 1
                    covered_total += 1
    registry = metrics()
    if registry.enabled:
        registry.counter("selector.sigma_evaluations").add(sigma_evaluations)
        registry.counter("selector.marginal_gain_calls").add(sigma_evaluations)
        registry.counter("selector.celf_queue_hits").add(queue_hits)
        registry.counter("selector.celf_reevaluations").add(reevaluations)
    return picked
