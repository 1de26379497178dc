"""Backend registry: resolution, graceful degradation, spec mapping.

The registry is the one place a backend name becomes an engine, for the
forward kernels and for RR-world sampling alike, so the resolution cases
of :func:`repro.sketch.kernels.sample_worlds` live here too.
"""

import pytest

from repro.diffusion.doam import DOAMModel
from repro.diffusion.ic import CompetitiveICModel
from repro.diffusion.lt import CompetitiveLTModel
from repro.diffusion.opoao import OPOAOModel
from repro.errors import BackendUnavailableError, KernelError, UnsupportedModelError
from repro.graph.compact import IndexedDiGraph
from repro.kernels import registry as registry_module
from repro.kernels.python_backend import PythonKernelBackend
from repro.kernels.registry import available_backends, resolve_backend
from repro.kernels.spec import KernelSpec, spec_for_model
from repro.kernels.worlds import WorldBatch
from repro.rng import RngStream
from repro.sketch.kernels import sample_worlds
from repro.sketch.rrset import OPOAORRSampler


def numpy_importable() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


class TestResolveBackend:
    def test_python_always_resolves(self):
        backend = resolve_backend("python")
        assert isinstance(backend, PythonKernelBackend)
        assert backend.name == "python"

    def test_instances_are_cached(self):
        assert resolve_backend("python") is resolve_backend("python")

    def test_unknown_name_raises_kernel_error(self):
        with pytest.raises(KernelError, match="unknown kernel backend"):
            resolve_backend("fortran")

    def test_auto_resolves_to_fastest_available(self):
        backend = resolve_backend("auto")
        expected = "numpy" if numpy_importable() else "python"
        assert backend.name == expected

    def test_none_means_auto(self):
        assert resolve_backend(None) is resolve_backend("auto")

    def test_available_backends_lists_python(self):
        names = available_backends()
        assert "python" in names
        assert ("numpy" in names) == numpy_importable()

    def test_missing_dependency_reported_with_install_hint(self, monkeypatch):
        def broken():
            raise ImportError("no such module")

        monkeypatch.setitem(registry_module._FACTORIES, "broken", broken)
        monkeypatch.delitem(
            registry_module._INSTANCES, "broken", raising=False
        )
        with pytest.raises(BackendUnavailableError, match="perf"):
            resolve_backend("broken")
        assert "broken" not in available_backends()


def block_numpy(monkeypatch):
    """Make ``numpy`` resolve as a backend whose dependency is missing
    (what a machine without NumPy sees), undone at test teardown."""

    def broken():
        raise ImportError("No module named 'numpy'")

    monkeypatch.setitem(registry_module._FACTORIES, "numpy", broken)
    monkeypatch.delitem(registry_module._INSTANCES, "numpy", raising=False)


class TestSketchSampling:
    """``sample_worlds`` resolves its ``backend`` through this registry."""

    @pytest.fixture
    def sampler(self):
        # A 6-cycle with chords: the rumor at 0 reaches the ends 3 and 4.
        out = [[1, 2], [2, 3], [3, 4], [4, 5], [5, 0], [0, 3]]
        inn = [[] for _ in out]
        for tail, heads in enumerate(out):
            for head in heads:
                inn[head].append(tail)
        graph = IndexedDiGraph(list(range(6)), out, inn)
        return OPOAORRSampler(graph, [0], [3, 4], steps=4, rng=RngStream(5))

    def test_missing_dependency_maps_to_backend_unavailable(
        self, monkeypatch, sampler
    ):
        """``backend="numpy"`` without NumPy names the ``perf`` extra."""
        block_numpy(monkeypatch)
        with pytest.raises(BackendUnavailableError, match="perf"):
            sample_worlds(sampler, [0], backend="numpy")

    def test_unknown_backend_raises(self, sampler):
        with pytest.raises(KernelError, match="unknown kernel backend"):
            sample_worlds(sampler, [0], backend="fortran")

    def test_auto_degrades_to_fastest_available(self, monkeypatch, sampler):
        """``auto``/``None`` sample the same worlds with or without NumPy."""
        expected = [sampler.sample_world(index) for index in range(4)]
        loaded = sample_worlds(sampler, range(4), backend="auto")
        block_numpy(monkeypatch)
        assert resolve_backend("auto").name == "python"
        degraded = sample_worlds(sampler, range(4), backend=None)
        for worlds in (loaded, degraded):
            assert [world.index for world in worlds] == [0, 1, 2, 3]
            assert [world.rr_sets for world in worlds] == [
                world.rr_sets for world in expected
            ]
            assert [world.footprint for world in worlds] == [
                world.footprint for world in expected
            ]


class TestSpecForModel:
    def test_doam(self):
        spec = spec_for_model(DOAMModel())
        assert spec == KernelSpec("doam")

    def test_ic_carries_probability(self):
        spec = spec_for_model(CompetitiveICModel(probability=0.25))
        assert spec.kind == "ic"
        assert spec.probability == 0.25

    def test_lt(self):
        assert spec_for_model(CompetitiveLTModel()) == KernelSpec("lt")

    def test_opoao(self):
        assert spec_for_model(OPOAOModel()) == KernelSpec("opoao")

    def test_weighted_opoao_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            spec_for_model(OPOAOModel(weighted=True))

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnsupportedModelError):
            KernelSpec("sir")


class TestWorldBatchContract:
    def test_kind_mismatch_fails_loudly(self):
        batch = WorldBatch("ic", 2, 4, {"live": [[], []]})
        with pytest.raises(KernelError, match="cannot run"):
            batch.check_run("lt", 4)

    def test_horizon_overrun_fails_loudly(self):
        batch = WorldBatch("opoao", 1, 4, {"picks": [[[0.0]] * 4]})
        with pytest.raises(KernelError, match="hops"):
            batch.check_run("opoao", 5)
