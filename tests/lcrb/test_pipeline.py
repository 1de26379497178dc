"""Unit tests for the end-to-end pipeline helpers."""

import pytest

from repro.community.structure import CommunityStructure
from repro.errors import SeedError, ValidationError
from repro.graph.generators import planted_partition
from repro.lcrb.pipeline import build_context, detect_communities, draw_rumor_seeds
from repro.rng import RngStream


@pytest.fixture
def blocks():
    graph, membership = planted_partition(
        [20, 20, 20], 0.4, 0.02, RngStream(1), directed=True
    )
    return graph, membership


class TestDetectCommunities:
    def test_cover_is_valid(self, blocks):
        graph, _ = blocks
        cover = detect_communities(graph, rng=RngStream(2))
        assert set(cover.membership()) == set(graph.nodes())


class TestDrawRumorSeeds:
    def test_draws_from_requested_community(self, blocks):
        graph, membership = blocks
        cover = CommunityStructure(graph, membership)
        seeds = draw_rumor_seeds(cover, 1, 5, RngStream(3))
        assert len(seeds) == 5
        assert all(cover.community_of(s) == 1 for s in seeds)

    def test_distinct(self, blocks):
        graph, membership = blocks
        cover = CommunityStructure(graph, membership)
        seeds = draw_rumor_seeds(cover, 0, 10, RngStream(4))
        assert len(set(seeds)) == 10

    def test_too_many_rejected(self, blocks):
        graph, membership = blocks
        cover = CommunityStructure(graph, membership)
        with pytest.raises(SeedError):
            draw_rumor_seeds(cover, 0, 21, RngStream(5))

    def test_reproducible(self, blocks):
        graph, membership = blocks
        cover = CommunityStructure(graph, membership)
        assert draw_rumor_seeds(cover, 0, 4, RngStream(6)) == draw_rumor_seeds(
            cover, 0, 4, RngStream(6)
        )


class TestBuildContext:
    def test_fully_defaulted(self, blocks):
        graph, _ = blocks
        context, cover, community_id = build_context(graph, rng=RngStream(7))
        assert community_id in cover.community_ids
        assert set(context.rumor_seeds) <= cover.members(community_id)

    def test_explicit_everything(self, blocks):
        graph, membership = blocks
        cover = CommunityStructure(graph, membership)
        context, out_cover, community_id = build_context(
            graph,
            communities=cover,
            rumor_community=2,
            rumor_seeds=[40, 41],
        )
        assert out_cover is cover
        assert community_id == 2
        assert context.rumor_seeds == (40, 41)

    def test_rumor_fraction_controls_seed_count(self, blocks):
        graph, membership = blocks
        cover = CommunityStructure(graph, membership)
        context, _, _ = build_context(
            graph,
            communities=cover,
            rumor_community=0,
            rumor_fraction=0.25,
            rng=RngStream(8),
        )
        assert len(context.rumor_seeds) == 5  # 25% of 20

    def test_foreign_communities_rejected(self, blocks, toy):
        graph, _ = blocks
        _, toy_cover, _ = toy
        with pytest.raises(ValidationError):
            build_context(graph, communities=toy_cover)
