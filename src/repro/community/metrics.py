"""Partition-quality metrics.

Used by tests (recovering planted partitions) and by experiment reports
(conductance of the chosen rumor community quantifies "dense inside,
sparse across").
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Set, Tuple

from repro.graph.digraph import DiGraph, Node

__all__ = [
    "normalized_mutual_information",
    "purity",
    "conductance",
]


def _joint_counts(
    left: Mapping[Node, int], right: Mapping[Node, int]
) -> Tuple[Dict[Tuple[int, int], int], Dict[int, int], Dict[int, int], int]:
    if set(left) != set(right):
        raise ValueError("partitions cover different node sets")
    joint: Dict[Tuple[int, int], int] = {}
    left_counts: Dict[int, int] = {}
    right_counts: Dict[int, int] = {}
    for node, left_id in left.items():
        right_id = right[node]
        joint[(left_id, right_id)] = joint.get((left_id, right_id), 0) + 1
        left_counts[left_id] = left_counts.get(left_id, 0) + 1
        right_counts[right_id] = right_counts.get(right_id, 0) + 1
    return joint, left_counts, right_counts, len(left)


def normalized_mutual_information(
    left: Mapping[Node, int], right: Mapping[Node, int]
) -> float:
    """NMI between two partitions of the same node set (in [0, 1]).

    Uses arithmetic-mean normalisation; 1.0 means identical partitions (up
    to relabeling), ~0 means independent. Degenerate single-community /
    all-singleton cases return 1.0 when the partitions are identical and
    0.0 otherwise.
    """
    joint, left_counts, right_counts, n = _joint_counts(left, right)
    if n == 0:
        return 1.0

    def entropy(counts: Dict[int, int]) -> float:
        total = 0.0
        for count in counts.values():
            p = count / n
            total -= p * math.log(p)
        return total

    h_left = entropy(left_counts)
    h_right = entropy(right_counts)
    if h_left == 0.0 and h_right == 0.0:
        return 1.0
    if h_left == 0.0 or h_right == 0.0:
        return 0.0
    mutual = 0.0
    for (left_id, right_id), count in joint.items():
        p_joint = count / n
        p_left = left_counts[left_id] / n
        p_right = right_counts[right_id] / n
        mutual += p_joint * math.log(p_joint / (p_left * p_right))
    return 2.0 * mutual / (h_left + h_right)


def purity(found: Mapping[Node, int], truth: Mapping[Node, int]) -> float:
    """Fraction of nodes in the majority-truth class of their found community."""
    joint, found_counts, _, n = _joint_counts(found, truth)
    if n == 0:
        return 1.0
    best: Dict[int, int] = {}
    for (found_id, _), count in joint.items():
        best[found_id] = max(best.get(found_id, 0), count)
    return sum(best.values()) / n


def conductance(graph: DiGraph, nodes: Iterable[Node]) -> float:
    """Directed conductance of a node set: cut edges / min(vol(S), vol(V\\S)).

    Volume is the number of directed edges with tail in the set. Low
    conductance = strong community (sparse boundary), the paper's Section
    IV premise.
    """
    inside: Set[Node] = set(nodes)
    cut = 0
    volume_in = 0
    for tail in inside:
        for head in graph.successors(tail):
            volume_in += 1
            if head not in inside:
                cut += 1
    for head in inside:
        for tail in graph.predecessors(head):
            if tail not in inside:
                cut += 1
    volume_out = graph.edge_count - volume_in
    denominator = min(volume_in, volume_out)
    if denominator == 0:
        return 1.0 if cut else 0.0
    return cut / denominator
