"""Tests for the K-cascade scenarios (distributed blocking, impressions).

The Monte-Carlo scenarios are checked against the module's own exact
live-edge oracles on a 7-edge graph (the oracles themselves are pinned to
an independent implementation in ``tests/kernels/
test_multicascade_oracle.py``), and the bookkeeping — per-campaign seed
validation, dedup/waste accounting, the price ratio's edge cases, and
checkpoint resumption — is exercised directly.
"""

import pytest

from repro.algorithms.base import ProtectorSelector, SelectionContext
from repro.diffusion.doam import DOAMModel
from repro.diffusion.ic import CompetitiveICModel
from repro.errors import CheckpointError, SeedError, ValidationError
from repro.graph.digraph import DiGraph
from repro.lcrb.multicascade import (
    CampaignSelection,
    DistributedBlockingResult,
    DistributedBlockingScenario,
    ImpressionScenario,
    dominated_count,
    exact_cascade_expectation,
    exact_dominated_expectation,
    impression_counts,
    resolve_campaign_seeds,
    _enumerate_worlds,
)
from repro.obs import MetricsRegistry, use_registry
from repro.rng import RngStream


def tiny_graph() -> DiGraph:
    """7 edges — small enough for the 2^|E| oracles."""
    graph = DiGraph()
    graph.add_nodes(range(6))
    for tail, head in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 4), (4, 5)]:
        graph.add_edge(tail, head)
    return graph


@pytest.fixture
def tiny_context() -> SelectionContext:
    graph = tiny_graph()
    return SelectionContext(graph, rumor_community=[0, 1], rumor_seeds=[0])


class TestResolveCampaignSeeds:
    def test_valid_labels_resolve(self, tiny_context):
        indexed = tiny_context.indexed
        resolved = resolve_campaign_seeds(indexed, [[2], [4, 5]], rumor_ids=[0])
        assert resolved == [indexed.indices([2]), indexed.indices([4, 5])]

    def test_unknown_labels_named_all_at_once(self, tiny_context):
        with pytest.raises(SeedError) as excinfo:
            resolve_campaign_seeds(
                tiny_context.indexed, [[2], ["ghost", 99, 4]], rumor_ids=[0]
            )
        message = str(excinfo.value)
        assert "campaign 2" in message
        assert "'ghost'" in message and "99" in message

    def test_rumor_overlap_rejected(self, tiny_context):
        with pytest.raises(SeedError, match="campaign 1.*rumor"):
            resolve_campaign_seeds(
                tiny_context.indexed,
                [[0, 2]],
                rumor_ids=tiny_context.rumor_seed_ids(),
            )


class TestImpressionHelpers:
    def test_counts_include_self_and_in_neighbors(self, tiny_context):
        indexed = tiny_context.indexed
        # Node 3 has in-neighbors {1, 2}; give 1 to the rumor, 2 to
        # campaign 1, and node 3 itself to campaign 2.
        states = [0] * indexed.node_count
        states[1] = 1
        states[2] = 2
        states[3] = 3
        counts = impression_counts(indexed, states, [2.0, 1.0, 5.0], node=3)
        assert counts == [2.0, 1.0, 5.0]

    def test_dominated_requires_threshold_and_majority(self, tiny_context):
        indexed = tiny_context.indexed
        # Everything rumor-held: every node with an active in-neighbor or
        # itself active is dominated.
        states = [1] * indexed.node_count
        assert dominated_count(indexed, states, [1.0, 1.0], 1.0) == 6
        # Raise the threshold past any node's impression mass: none.
        assert dominated_count(indexed, states, [1.0, 1.0], 100.0) == 0

    def test_tie_is_not_domination(self):
        graph = DiGraph()
        graph.add_nodes(range(3))
        graph.add_edge(0, 2)
        graph.add_edge(1, 2)
        indexed = graph.to_indexed()
        # Node 2 hears the rumor (from 0) and campaign 1 (from 1) at
        # equal weight — a tie, so the rumor does not dominate it.
        states = [1, 2, 0]
        assert dominated_count(indexed, states, [1.0, 1.0], 1.0) == 1  # node 0


class TestExactOracleGuards:
    def test_enumeration_rejects_large_graphs(self):
        graph = DiGraph()
        graph.add_nodes(range(22))
        for tail in range(21):
            graph.add_edge(tail, tail + 1)
        with pytest.raises(ValidationError, match="intractable"):
            list(_enumerate_worlds(graph.to_indexed(), 0.5))

    def test_world_weights_sum_to_one(self):
        indexed = tiny_graph().to_indexed()
        total = sum(weight for _mask, weight in _enumerate_worlds(indexed, 0.3))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestImpressionScenario:
    def test_monte_carlo_matches_exact_oracle(self, tiny_context):
        indexed = tiny_context.indexed
        scenario = ImpressionScenario(
            CompetitiveICModel(probability=0.5),
            weights=[1.0, 1.0, 1.0],
            threshold=1.0,
            runs=600,
            max_hops=8,
        )
        result = scenario.run(tiny_context, [[2], [5]], RngStream(7))
        seeds = scenario.build_seeds(tiny_context, [[2], [5]])
        exact_dominated = exact_dominated_expectation(
            indexed, seeds, [1.0, 1.0, 1.0], 1.0, probability=0.5, max_hops=8
        )
        exact_cascades = exact_cascade_expectation(
            indexed, seeds, probability=0.5, max_hops=8
        )
        # Dominated counts live in [0, 6]: sd <= 3, 4-sigma half-width.
        bound = 4 * 3 / 600 ** 0.5
        assert abs(result.mean_dominated - exact_dominated) <= bound
        for cascade in range(3):
            assert (
                abs(result.cascade_means[cascade] - exact_cascades[cascade])
                <= bound
            )

    def test_deterministic_model_runs_once(self, tiny_context):
        scenario = ImpressionScenario(
            DOAMModel(), weights=[1.0, 1.0], runs=50, max_hops=8
        )
        result = scenario.run(tiny_context, [[2]], RngStream(7))
        assert result.runs == 1
        assert result.dominated.minimum == result.dominated.maximum

    def test_campaign_count_must_match_weights(self, tiny_context):
        scenario = ImpressionScenario(DOAMModel(), weights=[1.0, 1.0])
        with pytest.raises(ValidationError, match="campaign"):
            scenario.run(tiny_context, [[2], [5]], RngStream(7))

    def test_weights_validated(self):
        with pytest.raises(ValidationError):
            ImpressionScenario(DOAMModel(), weights=[1.0])
        with pytest.raises(ValidationError):
            ImpressionScenario(DOAMModel(), weights=[1.0, -1.0])
        with pytest.raises(ValidationError):
            ImpressionScenario(DOAMModel(), weights=[1.0, 1.0], threshold=0.0)

    def test_to_dict_is_json_ready(self, tiny_context):
        import json

        scenario = ImpressionScenario(
            CompetitiveICModel(probability=0.5), weights=[1.0, 2.0], runs=10
        )
        result = scenario.run(tiny_context, [[2]], RngStream(7))
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["runs"] == 10
        assert payload["weights"] == [1.0, 2.0]
        assert len(payload["cascade_means"]) == 2

    def checkpointed(self, runs, path, **overrides):
        options = dict(
            weights=[1.0, 1.0, 1.0],
            threshold=1.0,
            runs=runs,
            max_hops=8,
            checkpoint=path,
        )
        options.update(overrides)
        return ImpressionScenario(CompetitiveICModel(probability=0.5), **options)

    def test_resume_is_bit_identical(self, tiny_context, tmp_path):
        path = tmp_path / "imp.ckpt"
        campaigns = [[2], [5]]
        full = self.checkpointed(16, None).run(
            tiny_context, campaigns, RngStream(7)
        )
        # "Interrupt" after 8 replicas, then resume out to 16.
        self.checkpointed(8, path).run(tiny_context, campaigns, RngStream(7))
        resumed = self.checkpointed(16, path).run(
            tiny_context, campaigns, RngStream(7)
        )
        assert resumed.mean_dominated == full.mean_dominated
        assert resumed.cascade_means == full.cascade_means
        assert resumed.dominated.maximum == full.dominated.maximum

    def test_resume_counts_restored_replicas(self, tiny_context, tmp_path):
        path = tmp_path / "imp.ckpt"
        campaigns = [[2], [5]]
        full = self.checkpointed(12, None).run(
            tiny_context, campaigns, RngStream(7)
        )
        self.checkpointed(6, path).run(tiny_context, campaigns, RngStream(7))
        registry = MetricsRegistry()
        with use_registry(registry):
            resumed = self.checkpointed(12, path).run(
                tiny_context, campaigns, RngStream(7)
            )
        assert registry.counter_value("exec.resumed_rounds") == 6
        assert resumed.to_dict() == full.to_dict()

    def test_changed_configuration_refuses_to_resume(self, tiny_context, tmp_path):
        path = tmp_path / "imp.ckpt"
        campaigns = [[2], [5]]
        self.checkpointed(8, path).run(tiny_context, campaigns, RngStream(7))
        with pytest.raises(CheckpointError):
            self.checkpointed(8, path, threshold=2.0).run(
                tiny_context, campaigns, RngStream(7)
            )
        with pytest.raises(CheckpointError):
            self.checkpointed(8, path, priority="rumor-first").run(
                tiny_context, campaigns, RngStream(7)
            )


class FixedSelector(ProtectorSelector):
    """Deterministic stand-in: returns a fixed label list per campaign."""

    name = "fixed"

    def __init__(self, picks):
        self.picks = list(picks)

    def select(self, context, budget):
        return self.picks[: budget if budget is not None else None]


class TestDistributedBlocking:
    def test_dedup_charges_the_later_campaign(self, tiny_context):
        scenario = DistributedBlockingScenario(
            DOAMModel(),
            campaigns=2,
            budget=2,
            runs=4,
            max_hops=8,
            campaign_seeds=[[2, 4], [4, 5]],
        )
        result = scenario.run(tiny_context, RngStream(7))
        first, second = result.selections
        indexed = tiny_context.indexed
        assert list(first.kept) == indexed.indices([2, 4])
        assert first.wasted == 0
        # Campaign 2 duplicated node 4; only 5 survives for it.
        assert list(second.kept) == indexed.indices([5])
        assert second.wasted == 1
        assert result.wasted_budget == 1

    def test_selector_factory_drives_both_sides(self, tiny_context):
        seen = []

        def factory(campaign, rng):
            seen.append(campaign)
            return FixedSelector([[2], [4]][campaign] if campaign >= 0 else [2, 4])

        scenario = DistributedBlockingScenario(
            DOAMModel(),
            campaigns=2,
            budget=1,
            runs=4,
            max_hops=8,
            selector_factory=factory,
        )
        result = scenario.run(tiny_context, RngStream(7))
        assert seen == [0, 1, -1]  # two campaigns, then the planner
        assert result.wasted_budget == 0
        # The planner fields the same nodes here, so the race is a wash.
        assert result.price_of_noncooperation == pytest.approx(1.0)

    def test_centralized_pool_with_explicit_seeds(self, tiny_context):
        # With explicit seeds the centralized planner fields the deduped
        # union, which cannot do worse than the fragmented campaigns.
        scenario = DistributedBlockingScenario(
            CompetitiveICModel(probability=0.5),
            campaigns=2,
            budget=1,
            runs=64,
            max_hops=8,
            campaign_seeds=[[2], [2]],  # fully duplicated
        )
        result = scenario.run(tiny_context, RngStream(7))
        assert result.wasted_budget == 1
        price = result.price_of_noncooperation
        assert price is None or price >= 1.0 - 1e-9

    def test_campaign_seed_count_validated(self):
        with pytest.raises(ValidationError):
            DistributedBlockingScenario(
                DOAMModel(), campaigns=2, campaign_seeds=[[2]]
            )

    def test_price_edge_cases(self):
        selections = [CampaignSelection(1, (2,), (2,))]

        def result(distributed, centralized):
            return DistributedBlockingResult(
                selections, distributed, centralized, [], [], runs=1,
                priority=(1, 0),
            )

        assert result(3.0, 2.0).price_of_noncooperation == pytest.approx(1.5)
        assert result(0.0, 0.0).price_of_noncooperation == 1.0
        assert result(2.0, 0.0).price_of_noncooperation is None
        assert "inf" in result(2.0, 0.0).to_table()

    def test_to_dict_is_json_ready(self, tiny_context):
        import json

        scenario = DistributedBlockingScenario(
            DOAMModel(),
            campaigns=2,
            budget=1,
            runs=2,
            max_hops=8,
            campaign_seeds=[[2], [4]],
        )
        payload = json.loads(
            json.dumps(scenario.run(tiny_context, RngStream(7)).to_dict())
        )
        assert payload["wasted_budget"] == 0
        assert len(payload["campaigns"]) == 2
        assert payload["priority"] == [1, 2, 0]
