"""Frozen OPOAO RR-world sampler with the earlier draws (statistical reference).

Before the counter-keyed pick rule, a world's choice row for node ``u``
came from its own ``random.Random`` stream, ``world.fork("choices", u)``,
and the rumor record from ``record_cascade(rng=world.fork("rumor"))``.
This module keeps that sampler so ``test_pick_rule.py`` can check that
the current draws sample the same distribution of RR worlds: the two
never agree bit for bit, only in their statistics.

Do not "improve" this file: its whole value is that it never changes.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Tuple

from repro.diffusion.timestamps import record_cascade


def _choice_row(graph, steps: int, world, node: int) -> Tuple[int, ...]:
    neighbors = graph.out[node]
    stream = world.fork("choices", node)
    count = len(neighbors)
    return tuple(neighbors[stream.randrange(count)] for _ in range(steps))


def _reverse_reachable(graph, steps, end, deadline, rows, world) -> Tuple[int, ...]:
    slack: Dict[int, int] = {end: deadline}
    heap: List[Tuple[int, int]] = [(-deadline, end)]
    while heap:
        negative, node = heappop(heap)
        arrive_by = -negative
        if arrive_by < slack.get(node, -1) or arrive_by < 1:
            continue
        for tail in graph.inn[node]:
            row = rows.get(tail)
            if row is None:
                row = rows[tail] = _choice_row(graph, steps, world, tail)
            candidate = -1
            for step in range(min(arrive_by, steps), 0, -1):
                if row[step - 1] == node:
                    candidate = step - 1
                    break
            if candidate > slack.get(tail, -1):
                slack[tail] = candidate
                heappush(heap, (-candidate, tail))
    return tuple(sorted(slack))


def sample_world(sampler, index: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """World ``index`` of an ``OPOAORRSampler``'s instance, earlier draws."""
    graph, steps = sampler.graph, sampler.steps
    world = sampler.rng.replica(index)
    rumor = record_cascade(graph, sampler.rumor_ids, steps=steps, rng=world.fork("rumor"))
    rows: Dict[int, Tuple[int, ...]] = {}
    rr_sets = []
    for end in sampler.end_ids:
        deadline = rumor.min_in_timestamp(end, graph.inn[end])
        if deadline is not None:
            rr_sets.append(
                (end, _reverse_reachable(graph, steps, end, deadline, rows, world))
            )
    return rr_sets
