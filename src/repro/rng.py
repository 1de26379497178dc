"""Seeded, forkable random-number streams.

Monte-Carlo experiments in this library need three properties from their
randomness:

1. **Reproducibility** — a run with ``seed=7`` gives identical output on
   every machine, every time.
2. **Independence** — parallel simulation replicas must not share a stream,
   or their samples are correlated.
3. **Coupling** — the paper's ``PB(A)`` estimator (Section V.A.1) compares a
   no-protector world against a protected world *on the same random
   realisation*; we therefore need to replay a stream exactly.

:class:`RngStream` wraps :class:`random.Random` and adds deterministic
``fork`` / ``replica`` derivation so a single experiment seed fans out into
arbitrarily many independent, individually reproducible streams.

The batched samplers need a fourth, **order-free draws**: the
counter-keyed rule below makes every draw of a sampled world a pure
function of (world key, cell) — :func:`pick` and :func:`uniform` hash
the key with the cell through SplitMix64's finaliser (:func:`mix64`) —
so a kernel can fill any block of cells at once, in any order and
process. The functions take python ints one cell at a time or NumPy
``uint64`` blocks and return the same bits either way; the RR-set
samplers (:mod:`repro.sketch`) and the forward kernel worlds
(:mod:`repro.kernels.worlds`) both draw through them.
"""

from __future__ import annotations

import hashlib
import random
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

__all__ = [
    "EventOrder",
    "RngStream",
    "derive_seed",
    "DEFAULT_SEED",
    "PICK_RULE_VERSION",
    "mix64",
    "pick",
    "step_cell",
    "uniform",
    "keyed_uniform",
    "world_keys",
]

T = TypeVar("T")

#: Seed used when the caller does not supply one. Fixed (rather than entropy
#: from the OS) so that "I forgot to pass a seed" still reproduces.
DEFAULT_SEED = 0x5EED


def derive_seed(base_seed: int, *path: object) -> int:
    """Derive a child seed from ``base_seed`` and a label path.

    The derivation hashes the base seed together with the path components,
    so ``derive_seed(s, "replica", 3)`` is stable across runs and
    statistically unrelated to ``derive_seed(s, "replica", 4)``.

    Args:
        base_seed: parent seed.
        *path: any printable components naming the child stream.

    Returns:
        A 63-bit non-negative integer seed.
    """
    digest = hashlib.sha256()
    digest.update(str(int(base_seed)).encode("ascii"))
    for part in path:
        digest.update(b"/")
        digest.update(repr(part).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


#: Version of the counter-keyed draw rule (:func:`mix64`, :func:`pick`,
#: :func:`uniform`, :func:`world_keys`). Checkpoint keys of runs whose
#: worlds it draws carry it, so worlds drawn under another rule never
#: resume.
PICK_RULE_VERSION = 1

_MASK64 = (1 << 64) - 1

#: 2**-53: scales a 53-bit integer onto [0, 1) exactly in float64.
_UNIT = 2.0**-53


def mix64(value: Any) -> Any:
    """SplitMix64's finaliser: a bijective mix of a 64-bit value.

    Takes a python int or a NumPy ``uint64`` array; the mask is a no-op
    on ``uint64``'s wrapping arithmetic, so both give the same bits.
    """
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def step_cell(node: Any, step: Any) -> Any:
    """The cell of ``node`` at ``step``: ``(node << 32) | step``."""
    return (node << 32) | step


def pick(key: Any, node: Any, step: Any, degree: Any) -> Any:
    """The out-neighbor position ``node`` picks at ``step`` under ``key``.

    ``h = mix64(key ^ mix64(step_cell(node, step)))`` and the pick is
    ``((h >> 32) * degree) >> 32``: uniform over ``range(degree)`` up to
    a bias below ``degree / 2**32``, and exact in 64-bit arithmetic for
    node ids, steps and degrees below ``2**32``. Scalars and broadcast
    ``uint64`` blocks (a python int ``key`` or ``step`` mixes with them)
    give the same picks.
    """
    mixed = mix64(key ^ mix64(step_cell(node, step)))
    return ((mixed >> 32) * degree) >> 32


def keyed_uniform(key: Any, mixed_cell: Any) -> Any:
    """:func:`uniform` of a cell whose :func:`mix64` is already known.

    The inner mix depends on the cell alone, so a sampler drawing many
    worlds over one graph computes it once and keys it per world.
    """
    return (mix64(key ^ mixed_cell) >> 11) * _UNIT


def uniform(key: Any, cell: Any) -> Any:
    """The uniform float in ``[0, 1)`` of ``cell`` in the world keyed ``key``.

    ``(mix64(key ^ mix64(cell)) >> 11) * 2**-53``: the top 53 bits of
    the mix, scaled exactly, so a python int and a NumPy ``uint64`` cell
    give the same float64. Cells are any ints below ``2**64``; the
    kernels use edge positions, node ids, and :func:`step_cell`.
    """
    return keyed_uniform(key, mix64(cell))


def world_keys(base_seed: int, index: int) -> Tuple[int, int]:
    """``(rumor_key, choices_key)`` of RR world ``index`` under ``base_seed``.

    The rumor record's picks use the first, the protector choice
    table's the second: :func:`derive_seed` of the replica seed
    ``derive_seed(base_seed, "replica", index)`` with ``"rumor"`` and
    ``"choices"``.
    """
    world_seed = derive_seed(base_seed, "replica", int(index))
    return derive_seed(world_seed, "rumor"), derive_seed(world_seed, "choices")


class RngStream:
    """A named, seeded random stream with deterministic forking.

    Thin wrapper over :class:`random.Random` exposing only the operations
    the library uses, plus :meth:`fork` (derive an independent child stream)
    and :meth:`replica` (derive the stream for Monte-Carlo replica ``i``).

    Example:
        >>> root = RngStream(42)
        >>> a = root.fork("greedy")
        >>> b = root.fork("greedy")     # same label -> identical stream
        >>> a.randrange(10**9) == b.randrange(10**9)
        True
    """

    __slots__ = ("seed", "name", "_rng")

    def __init__(self, seed: Optional[int] = None, name: str = "root") -> None:
        self.seed = DEFAULT_SEED if seed is None else int(seed)
        self.name = name
        self._rng = random.Random(self.seed)

    # -- derivation ---------------------------------------------------------

    def fork(self, *path: object) -> "RngStream":
        """Return an independent child stream named by ``path``.

        Forking depends only on this stream's *seed* and the path, never on
        how much randomness has already been consumed, so forks commute with
        draws.
        """
        child_seed = derive_seed(self.seed, *path)
        label = "/".join([self.name, *map(str, path)])
        return RngStream(child_seed, name=label)

    def replica(self, index: int) -> "RngStream":
        """Return the stream for Monte-Carlo replica ``index``."""
        return self.fork("replica", int(index))

    def replicas(self, count: int) -> Iterator["RngStream"]:
        """Yield ``count`` independent replica streams."""
        for index in range(count):
            yield self.replica(index)

    def restart(self) -> None:
        """Rewind this stream to its initial state (exact replay)."""
        self._rng = random.Random(self.seed)

    def event_order(self, *path: object) -> "EventOrder":
        """An :class:`EventOrder` whose jitter draws come from a fork.

        The fork path defaults to ``("event-order",)`` so repeated calls
        with the same path produce identical key sequences.
        """
        return EventOrder(self.fork(*(path or ("event-order",))))

    # -- checkpointable state ------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot of the stream, mid-consumption.

        Unlike :meth:`restart`, which rewinds to the seed, restoring this
        snapshot via :meth:`from_state` resumes the stream *exactly where
        it left off* — the property event-queue checkpointing needs.
        """
        version, internal, gauss_next = self._rng.getstate()
        return {
            "seed": self.seed,
            "name": self.name,
            "version": version,
            "internal": list(internal),
            "gauss_next": gauss_next,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "RngStream":
        """Rebuild a stream from a :meth:`state_dict` snapshot."""
        stream = cls(state["seed"], name=state["name"])
        stream._rng.setstate(
            (state["version"], tuple(state["internal"]), state["gauss_next"])
        )
        return stream

    # -- draws --------------------------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def randrange(self, stop: int) -> int:
        """Uniform integer in [0, stop)."""
        return self._rng.randrange(stop)

    def choice_each(self, rows: Iterable[Sequence[T]]) -> List[T]:
        """One uniform element of each non-empty row, in one call.

        Returns ``[row[self.randrange(len(row))] for row in rows]`` and
        leaves the stream in the same state: CPython's ``randrange``
        rule, ``getrandbits(len(row).bit_length())`` redrawn while it is
        ``>= len(row)``, run in one frame instead of three per row.
        """
        getrandbits = self._rng.getrandbits
        chosen: List[T] = []
        append = chosen.append
        for row in rows:
            stop = len(row)
            bits = stop.bit_length()
            index = getrandbits(bits)
            while index >= stop:
                if not stop:  # getrandbits(0) is 0: it would redraw forever
                    raise ValueError("choice_each() got an empty row")
                index = getrandbits(bits)
            append(row[index])
        return chosen

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._rng.randint(low, high)

    def choice(self, seq: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._rng.choice(seq)

    def sample(self, population: Sequence[T], k: int) -> list:
        """Sample ``k`` distinct items from ``population``."""
        return self._rng.sample(population, k)

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._rng.shuffle(items)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._rng.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        """Exponential variate with the given rate."""
        return self._rng.expovariate(rate)

    def paretovariate(self, alpha: float) -> float:
        """Pareto variate with shape ``alpha``."""
        return self._rng.paretovariate(alpha)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, name={self.name!r})"


class EventOrder:
    """Deterministic total order for discrete-event queues.

    Produces ``(time, priority, jitter, seq)`` keys: ``time`` orders
    events chronologically, ``priority`` breaks simultaneity by kind
    (lower first — e.g. protector messages before rumor messages so P
    wins ties, matching the diffusion models), ``jitter`` optionally
    shuffles equal-priority simultaneous events by a seeded draw (so
    per-round processing order carries no node-insertion bias, yet stays
    reproducible), and ``seq`` — a monotone insertion counter — makes
    the order total even when everything else ties.

    Construct with an :class:`RngStream` to enable jitter, or with
    ``None`` for pure insertion-order tie-breaking (what the
    deterministic DOAM arrival worklist uses).
    """

    __slots__ = ("_rng", "_seq")

    def __init__(self, rng: Optional[RngStream] = None) -> None:
        self._rng = rng
        self._seq = 0

    def key(
        self, time: float, priority: int = 0, jitter: bool = False
    ) -> Tuple[float, int, int, int]:
        """The next ordering key for an event at ``time``.

        ``jitter=True`` (requires a stream) draws the third component
        randomly; otherwise it is 0, leaving ``seq`` (insertion order)
        as the final tie-breaker.
        """
        draw = 0
        if jitter and self._rng is not None:
            draw = self._rng.randrange(1 << 30)
        seq = self._seq
        self._seq += 1
        return (float(time), int(priority), draw, seq)

    @property
    def seq(self) -> int:
        """Keys issued so far (the next key's insertion counter)."""
        return self._seq

    # -- checkpointable state ------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot (jitter stream included, if any)."""
        return {
            "seq": self._seq,
            "rng": None if self._rng is None else self._rng.state_dict(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "EventOrder":
        """Rebuild an order from a :meth:`state_dict` snapshot."""
        rng = None if state["rng"] is None else RngStream.from_state(state["rng"])
        order = cls(rng)
        order._seq = int(state["seq"])
        return order

    def __repr__(self) -> str:
        return f"EventOrder(seq={self._seq}, jitter={self._rng is not None})"
