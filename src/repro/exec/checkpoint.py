"""JSON checkpointing for the library's long loops.

Three loops dominate production wall-clock time: greedy/CELF selection
rounds, :class:`~repro.sketch.store.SketchStore` doubling, and the
Monte-Carlo replica sweeps. All are *prefix-deterministic* — the state
after round ``k`` is a pure function of the run configuration — so a
crash-interrupted run can resume from its last completed round and still
finish bit-identical to an uninterrupted one (asserted in
``tests/exec/test_checkpoint.py``; contract in ``docs/parallel.md``).

Every replica sweep — diffusion Monte-Carlo, gossip, impressions — goes
through :func:`run_replicas`: it resumes a saved prefix, runs the rest
in batches of :data:`REPLICA_BATCH` replicas, and saves after each.

File format (``repro.ckpt/v1``)::

    {
      "schema": "repro.ckpt/v1",
      "entries": {
        "<kind>": {"key": "<run key>", "rounds": k, "state": {...}}
      }
    }

One file holds one entry per loop *kind* (``greedy``, ``sketch``,
``mc``, ``gossip``, ``impressions``), so a ``repro simulate --checkpoint
run.ckpt`` pipeline can checkpoint its selection stage and its
evaluation stage side by side. Each entry carries the :func:`run_key`
fingerprint of the configuration that wrote it; loading an entry whose
key differs from the resuming run's raises
:class:`~repro.errors.CheckpointError` rather than quietly resuming from
foreign state. Writes are atomic (temp file + ``os.replace``), so a
crash mid-save leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.errors import CheckpointError
from repro.obs.registry import metrics

__all__ = [
    "CHECKPOINT_SCHEMA",
    "REPLICA_BATCH",
    "CheckpointStore",
    "as_store",
    "run_key",
    "run_replicas",
]

#: schema tag written into (and required of) every checkpoint file.
CHECKPOINT_SCHEMA = "repro.ckpt/v1"

#: replicas per saved batch of a checkpointed :func:`run_replicas` sweep.
REPLICA_BATCH = 64


def run_key(**parts: Any) -> str:
    """Deterministic fingerprint of a run configuration.

    Keyword arguments are serialised to canonical JSON (sorted keys,
    ``repr`` fallback for non-JSON values) and hashed; two runs share a
    key exactly when every named part matches. Callers deliberately
    *omit* parameters the loop is prefix-consistent in — greedy's
    ``budget``, Monte-Carlo ``runs`` — so a checkpoint from a shorter
    run seeds a longer one.
    """
    canonical = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class CheckpointStore:
    """Reader/writer for one ``repro.ckpt/v1`` file.

    Args:
        path: the checkpoint file (created on first :meth:`save`).
        resume: when ``False`` (a fresh run that only *writes*
            checkpoints), :meth:`load` always returns ``None``; when
            ``True``, :meth:`load` returns the saved entry for a kind —
            raising :class:`CheckpointError` if its run key does not
            match the resuming configuration.
    """

    __slots__ = ("path", "resume")

    def __init__(self, path: Union[str, os.PathLike], resume: bool = True) -> None:
        self.path = os.fspath(path)
        self.resume = bool(resume)

    # -- IO ---------------------------------------------------------------------

    def _read(self) -> Dict[str, Any]:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"cannot read checkpoint {self.path!r}: {exc}"
            ) from exc
        if (
            not isinstance(document, dict)
            or document.get("schema") != CHECKPOINT_SCHEMA
            or not isinstance(document.get("entries"), dict)
        ):
            raise CheckpointError(
                f"{self.path!r} is not a {CHECKPOINT_SCHEMA} checkpoint"
            )
        return document

    def _read_or_empty(self) -> Dict[str, Any]:
        if not os.path.exists(self.path):
            return {"schema": CHECKPOINT_SCHEMA, "entries": {}}
        return self._read()

    # -- API --------------------------------------------------------------------

    def load(self, kind: str, key: str) -> Optional[Dict[str, Any]]:
        """The saved entry for ``kind`` (``{"key", "rounds", "state"}``).

        Returns ``None`` when not resuming, when the file does not exist
        yet, or when it holds no entry of this kind. A key mismatch —
        the file was written by a differently-configured run — raises
        :class:`CheckpointError`.
        """
        if not self.resume or not os.path.exists(self.path):
            return None
        entry = self._read()["entries"].get(kind)
        if entry is None:
            return None
        if entry.get("key") != key:
            raise CheckpointError(
                f"checkpoint {self.path!r} entry {kind!r} was written by a "
                f"different run configuration (key {entry.get('key')!r} != "
                f"{key!r}); delete the file or drop --resume"
            )
        return entry

    def save(
        self, kind: str, key: str, state: Dict[str, Any], rounds: int
    ) -> None:
        """Atomically write/replace the entry for ``kind``.

        Other kinds' entries are preserved, so selection and evaluation
        stages can share one file. ``state`` must be JSON-serialisable.
        """
        document = self._read_or_empty()
        document["entries"][kind] = {
            "key": key,
            "rounds": int(rounds),
            "state": state,
        }
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(self.path) + ".", dir=directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle, sort_keys=True)
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def clear(self) -> None:
        """Delete the checkpoint file (no-op when absent)."""
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass

    def __repr__(self) -> str:
        return f"CheckpointStore(path={self.path!r}, resume={self.resume})"


def as_store(
    checkpoint: Union[str, os.PathLike, CheckpointStore, None]
) -> Optional[CheckpointStore]:
    """Normalise a ``checkpoint`` argument to a store (or ``None``).

    A bare path gets ``resume=True`` — the friendly library default:
    point at a file, and the run resumes from it when it exists and
    matches, else starts fresh and writes it.
    """
    if checkpoint is None or isinstance(checkpoint, CheckpointStore):
        return checkpoint
    return CheckpointStore(checkpoint, resume=True)


def run_replicas(
    run_range: Callable[[List[int]], Sequence[Any]],
    runs: int,
    checkpoint: Union[str, os.PathLike, CheckpointStore, None],
    kind: str,
    key: Callable[[], str],
    make: Callable[[Iterable[Any]], Any] = tuple,
    field: str = "records",
) -> List[Any]:
    """Records of replicas ``0 .. runs - 1`` in replica order.

    ``run_range(indices)`` returns one record (a tuple of ints and int
    tuples, typically a ``NamedTuple``) per index. Without a checkpoint
    it runs once over every index. With one, a saved ``kind`` entry
    whose run key matches ``key()`` seeds the prefix (counted in
    ``exec.resumed_rounds``), and the rest runs in batches of
    :data:`REPLICA_BATCH`, saving after each. ``runs`` is outside the
    key on purpose: replica ``i`` is a pure function of its index, so a
    shorter run's prefix seeds a longer one and a longer one truncates.

    The entry's state is ``{field: rows}``, one JSON row per record
    with tuple fields written as lists; ``make`` rebuilds a record from
    a row (``SomeRecord._make`` for a ``NamedTuple``).
    """
    store = as_store(checkpoint)
    if store is None:
        return list(run_range(list(range(runs))))
    entry_key = key()
    records: List[Any] = []
    entry = store.load(kind, entry_key)
    if entry is not None:
        records = [
            make(tuple(value) if isinstance(value, list) else value for value in row)
            for row in entry["state"][field][:runs]
        ]
        if records:
            metrics().inc("exec.resumed_rounds", len(records))
    while len(records) < runs:
        stop = min(runs, len(records) + REPLICA_BATCH)
        records.extend(run_range(list(range(len(records), stop))))
        rows = [
            [list(value) if isinstance(value, tuple) else value for value in record]
            for record in records
        ]
        store.save(kind, entry_key, {field: rows}, rounds=len(records))
    return records
