"""Span recording, self time, and import-site patching."""

from __future__ import annotations

import asyncio
import sys
import types

import pytest

from benchmarks.e2e.spans import Site, Span, Tracer, patched, self_times, union_length


def _span(index, start, end, parent=None, name="s"):
    span = Span(index, name, start, parent, op=0)
    span.end = end
    return span


class TestSelfTime:
    def test_nested_children(self):
        spans = [
            _span(0, 0.0, 10.0),
            _span(1, 1.0, 4.0, parent=0),
            _span(2, 2.0, 3.0, parent=1),
            _span(3, 6.0, 7.0, parent=0),
        ]
        assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_count_once(self):
        spans = [
            _span(0, 0.0, 10.0),
            _span(1, 1.0, 4.0, parent=0),
            _span(2, 3.0, 6.0, parent=0),  # overlaps the first child
            _span(3, 5.5, 5.8, parent=0),  # inside the second
        ]
        assert self_times(spans)[0] == pytest.approx(5.0)

    def test_children_clipped_to_parent(self):
        assert union_length([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)

    def test_disjoint_union(self):
        assert union_length([(0, 1), (2, 3), (2.5, 4)], 0, 10) == pytest.approx(3.0)


@pytest.fixture
def fake_modules():
    """A function defined in one module and imported into another."""
    core = types.ModuleType("e2e_fake_core")

    def work(value, again=None):
        return again(value) if again is not None else value + 1

    async def handle(value):
        await asyncio.sleep(0)
        return core.work(value)

    class Engine:
        def run(self, value):
            return core.work(value)

    work.__module__ = handle.__module__ = Engine.__module__ = core.__name__
    core.work, core.handle, core.Engine = work, handle, Engine
    user = types.ModuleType("e2e_fake_user")
    user.work = core.work  # ``from e2e_fake_core import work``
    sys.modules[core.__name__] = core
    sys.modules[user.__name__] = user
    yield core, user
    del sys.modules[core.__name__], sys.modules[user.__name__]


SITES = (
    Site("e2e_fake_core", "work", "work"),
    Site("e2e_fake_user", "work", "work"),
    Site("e2e_fake_core", "handle", "handle"),
    Site("e2e_fake_core", "Engine.run", "engine.run"),
)


class TestPatching:
    def test_two_import_sites_share_one_wrapper(self, fake_modules):
        core, user = fake_modules
        original = core.work
        tracer = Tracer()
        with patched(tracer, SITES):
            assert core.work is user.work is not original
            with tracer.span("op", op=0):
                assert user.work(1) == 2
                assert core.work(1) == 2
        assert [span.name for span in tracer.spans] == ["op", "work", "work"]
        assert core.work is user.work is original

    def test_call_through_second_site_is_not_counted_twice(self, fake_modules):
        core, user = fake_modules
        tracer = Tracer()
        with patched(tracer, SITES), tracer.span("op", op=0):
            assert user.work(1, again=core.work) == 2
        assert [span.name for span in tracer.spans] == ["op", "work"]

    def test_site_listed_twice_installs_once(self, fake_modules):
        core, _ = fake_modules
        tracer = Tracer()
        with patched(tracer, SITES + SITES[:1]), tracer.span("op", op=0):
            core.work(1)
        assert len(tracer.spans) == 2

    def test_methods_patched_on_the_class(self, fake_modules):
        core, _ = fake_modules
        tracer = Tracer()
        with patched(tracer, SITES), tracer.span("op", op=0):
            assert core.Engine().run(3) == 4
        names = [(s.name, s.parent) for s in tracer.spans]
        assert names == [("op", None), ("engine.run", 0), ("work", 1)]
        assert "run" in vars(core.Engine) and core.Engine.run.__name__ == "run"

    def test_restored_after_an_exception(self, fake_modules):
        core, _ = fake_modules
        original = core.work
        with pytest.raises(RuntimeError):
            with patched(Tracer(), SITES):
                raise RuntimeError("boom")
        assert core.work is original

    def test_unknown_attribute_is_an_error(self, fake_modules):
        with pytest.raises(AttributeError):
            with patched(Tracer(), [Site("e2e_fake_core", "missing", "x")]):
                pass


class TestAsyncSpans:
    def test_coroutine_spans_nest_across_await(self, fake_modules):
        core, _ = fake_modules
        tracer = Tracer()
        with patched(tracer, SITES), tracer.span("op", op=7):
            assert asyncio.run(core.handle(1)) == 2
        op, handle, work = tracer.spans
        assert (handle.name, handle.parent, handle.op) == ("handle", op.index, 7)
        assert (work.name, work.parent, work.op) == ("work", handle.index, 7)
        assert op.start <= handle.start <= work.start <= work.end <= handle.end <= op.end

    def test_concurrent_tasks_keep_their_own_parents(self, fake_modules):
        core, _ = fake_modules
        tracer = Tracer()

        async def both():
            return await asyncio.gather(core.handle(1), core.handle(2))

        with patched(tracer, SITES), tracer.span("op", op=0):
            assert asyncio.run(both()) == [2, 3]
        handles = [s.index for s in tracer.spans if s.name == "handle"]
        works = [s.parent for s in tracer.spans if s.name == "work"]
        assert sorted(works) == sorted(handles)
