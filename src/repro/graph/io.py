"""Graph persistence: edge lists and community sidecars.

Formats
-------
* **Edge list** (``.edges``): one ``tail head`` pair per line, ``#``
  comments allowed — the format SNAP distributes the paper's datasets in,
  so a user with the real Enron/Hep files can load them directly.
* **Community file** (``.communities``): ``node community_id`` per line, a
  sidecar for :class:`repro.community.structure.CommunityStructure`.

All readers accept paths or open text handles; all node labels in text
formats are strings unless ``node_type`` converts them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, IO, Union

from repro.errors import DatasetError
from repro.graph.digraph import DiGraph

__all__ = [
    "write_edge_list",
    "read_edge_list",
    "write_communities",
    "read_communities",
]

PathOrHandle = Union[str, Path, IO[str]]


class _Opened:
    """Context manager that opens paths and passes handles through."""

    def __init__(self, target: PathOrHandle, mode: str) -> None:
        self._target = target
        self._mode = mode
        self._owned: bool = isinstance(target, (str, Path))
        self._handle: IO[str] = None  # type: ignore[assignment]

    def __enter__(self) -> IO[str]:
        if self._owned:
            self._handle = open(self._target, self._mode, encoding="utf-8")
        else:
            self._handle = self._target  # type: ignore[assignment]
        return self._handle

    def __exit__(self, *exc_info: object) -> None:
        if self._owned:
            self._handle.close()


def write_edge_list(graph: DiGraph, target: PathOrHandle) -> None:
    """Write ``tail head`` lines (SNAP-style), with a header comment."""
    with _Opened(target, "w") as handle:
        handle.write(f"# repro edge list: {graph.name or 'unnamed'}\n")
        handle.write(f"# nodes: {graph.node_count} edges: {graph.edge_count}\n")
        for tail, head in graph.edges():
            handle.write(f"{tail} {head}\n")


def read_edge_list(
    source: PathOrHandle,
    node_type: Callable[[str], object] = int,
    name: str = "",
) -> DiGraph:
    """Read a SNAP-style edge list (``#`` comments skipped).

    Args:
        source: path or open handle.
        node_type: converter applied to each token (default ``int``; SNAP
            files use integer ids).
        name: name for the resulting graph.
    """
    graph = DiGraph(name=name)
    with _Opened(source, "r") as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise DatasetError(
                    f"line {line_number}: expected 'tail head', got {text!r}"
                )
            try:
                tail, head = node_type(parts[0]), node_type(parts[1])
            except (TypeError, ValueError) as exc:
                raise DatasetError(f"line {line_number}: bad node token ({exc})")
            graph.add_edge(tail, head)
    return graph


def write_communities(membership: Dict[object, int], target: PathOrHandle) -> None:
    """Write a ``node community_id`` sidecar file."""
    with _Opened(target, "w") as handle:
        handle.write("# repro community membership\n")
        for node, community_id in membership.items():
            handle.write(f"{node} {community_id}\n")


def read_communities(
    source: PathOrHandle,
    node_type: Callable[[str], object] = int,
) -> Dict[object, int]:
    """Read a sidecar written by :func:`write_communities`."""
    membership: Dict[object, int] = {}
    with _Opened(source, "r") as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise DatasetError(
                    f"line {line_number}: expected 'node community', got {text!r}"
                )
            try:
                membership[node_type(parts[0])] = int(parts[1])
            except (TypeError, ValueError) as exc:
                raise DatasetError(f"line {line_number}: bad token ({exc})")
    return membership
