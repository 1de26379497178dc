"""Unit tests for seeded RNG streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import DEFAULT_SEED, RngStream, derive_seed

_POWERS = st.integers(0, 40).map(lambda k: 1 << k)

#: Row lengths where ``randrange``'s rejection rule is easiest to get
#: wrong: 1, powers of two and their neighbours, and stops past 2**32
#: (more than one 32-bit word per draw).
STOPS = st.one_of(
    st.just(1),
    _POWERS,
    _POWERS.map(lambda power: power + 1),
    _POWERS.map(lambda power: max(1, power - 1)),
    st.integers(1, 1000),
    st.integers(2**32 + 1, 2**48),
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_path_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a", 1) != derive_seed(1, "a", 2)
        assert derive_seed(1) != derive_seed(2)

    def test_non_negative_63_bit(self):
        for seed in range(20):
            value = derive_seed(seed, "x")
            assert 0 <= value < 2**63


class TestRngStream:
    def test_default_seed_is_fixed(self):
        assert RngStream().seed == DEFAULT_SEED
        assert RngStream().randrange(10**9) == RngStream().randrange(10**9)

    def test_same_seed_same_draws(self):
        a, b = RngStream(42), RngStream(42)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_fork_independent_of_consumption(self):
        a, b = RngStream(42), RngStream(42)
        a.random()  # consume some entropy
        assert a.fork("child").randrange(10**9) == b.fork("child").randrange(10**9)

    def test_fork_label_distinguishes(self):
        root = RngStream(42)
        assert root.fork("x").seed != root.fork("y").seed

    def test_replicas_distinct(self):
        root = RngStream(42)
        seeds = {replica.seed for replica in root.replicas(50)}
        assert len(seeds) == 50

    def test_restart_replays(self):
        stream = RngStream(7)
        first = [stream.random() for _ in range(4)]
        stream.restart()
        assert [stream.random() for _ in range(4)] == first

    def test_draw_helpers(self):
        stream = RngStream(3)
        assert 0 <= stream.randint(0, 5) <= 5
        assert stream.choice(["a"]) == "a"
        sample = stream.sample(list(range(10)), 4)
        assert len(set(sample)) == 4
        items = [1, 2, 3]
        stream.shuffle(items)
        assert sorted(items) == [1, 2, 3]
        assert 1.0 <= stream.uniform(1.0, 2.0) <= 2.0
        assert stream.expovariate(2.0) >= 0.0
        assert stream.paretovariate(2.0) >= 1.0

    def test_name_tracks_forks(self):
        stream = RngStream(1, name="root").fork("louvain", 3)
        assert stream.name == "root/louvain/3"


class TestStateDict:
    def test_round_trip_resumes_draw_sequence(self):
        stream = RngStream(11, name="ckpt")
        [stream.random() for _ in range(7)]
        state = stream.state_dict()
        tail = [stream.random() for _ in range(5)]
        restored = RngStream.from_state(state)
        assert [restored.random() for _ in range(5)] == tail
        assert restored.seed == stream.seed and restored.name == stream.name

    def test_state_is_json_serialisable(self):
        import json

        stream = RngStream(5)
        stream.random()
        round_tripped = json.loads(json.dumps(stream.state_dict()))
        assert RngStream.from_state(round_tripped).random() == stream.random()


class TestChoiceEach:
    """``choice_each`` is the per-row ``randrange`` loop in one call."""

    @staticmethod
    def assert_matches_randrange(seed, stops):
        batched, looped = RngStream(seed), RngStream(seed)
        rows = [range(stop) for stop in stops]
        expected = [row[looped.randrange(len(row))] for row in rows]
        assert batched.choice_each(rows) == expected
        assert batched.state_dict() == looped.state_dict()

    @given(st.integers(0, 2**32), st.lists(STOPS, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_equals_randrange_loop(self, seed, stops):
        self.assert_matches_randrange(seed, stops)

    def test_named_stops(self):
        stops = [1, 2, 3, 4, 5, 7, 8, 9, 2**31, 2**32 - 1, 2**32, 2**32 + 1]
        for seed in range(20):
            self.assert_matches_randrange(seed, stops * 3)

    def test_returns_row_elements(self):
        rows = [("a", "b", "c"), ("d",), ["e", "f"]]
        chosen = RngStream(4).choice_each(rows)
        assert [value in row for value, row in zip(chosen, rows)] == [True] * 3

    def test_empty_row_rejected_like_randrange(self):
        with pytest.raises(ValueError):
            RngStream(1).randrange(0)
        with pytest.raises(ValueError):
            RngStream(1).choice_each([[1, 2], []])


class TestEventOrder:
    def test_keys_sort_by_time_then_priority_then_seq(self):
        from repro.rng import EventOrder

        order = EventOrder()
        later = order.key(2.0, 0)
        early_low = order.key(1.0, -1)
        early_high = order.key(1.0, 3)
        tie_a = order.key(1.5, 1)
        tie_b = order.key(1.5, 1)
        ranked = sorted([later, early_low, early_high, tie_a, tie_b])
        assert ranked == [early_low, early_high, tie_a, tie_b, later]
        # equal (time, priority) ties break on insertion order via seq
        assert tie_a < tie_b

    def test_jitter_requires_stream_and_is_deterministic(self):
        from repro.rng import EventOrder

        bare = EventOrder()
        assert bare.key(1.0, 0, jitter=True)[2] == 0
        a = RngStream(3).event_order()
        b = RngStream(3).event_order()
        keys_a = [a.key(1.0, 0, jitter=True) for _ in range(5)]
        keys_b = [b.key(1.0, 0, jitter=True) for _ in range(5)]
        assert keys_a == keys_b
        assert len({key[2] for key in keys_a}) > 1

    def test_state_round_trip_continues_sequence(self):
        import json

        from repro.rng import EventOrder

        order = RngStream(9).event_order()
        [order.key(1.0, 0, jitter=True) for _ in range(4)]
        state = json.loads(json.dumps(order.state_dict()))
        restored = EventOrder.from_state(state)
        assert restored.key(2.0, 1, jitter=True) == order.key(2.0, 1, jitter=True)
        assert restored.seq == order.seq
