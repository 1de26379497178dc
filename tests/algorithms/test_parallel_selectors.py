"""Per-run σ̂ on a worker pool: the selectors pick what they pick serially.

With ``backend=None`` the σ̂ estimator races ``DiffusionModel.run`` per
replica; its candidate rounds fan out over the executor like the
kernel engine's. Picks, ``last_evaluations`` and merged work counters
must equal the serial run (``time.*`` and ``exec.*`` aside: wall clock
and fault bookkeeping are not work).
"""

import pytest

from repro.algorithms.celf import CELFGreedySelector
from repro.algorithms.greedy import GreedySelector
from repro.diffusion.doam import DOAMModel
from repro.diffusion.opoao import OPOAOModel
from repro.obs import MetricsRegistry, use_registry
from repro.rng import RngStream


def work_counters(registry):
    return {
        name: value
        for name, value in registry.counter_values().items()
        if not name.startswith("time.") and not name.startswith("exec.")
    }


@pytest.mark.parametrize("selector_class", [GreedySelector, CELFGreedySelector])
@pytest.mark.parametrize(
    "model", [OPOAOModel(), DOAMModel()], ids=lambda model: model.name
)
def test_two_workers_equal_serial(fig2_context, two_workers, selector_class, model):
    def select(executor):
        selector = selector_class(
            model=model,
            runs=6,
            max_hops=8,
            rng=RngStream(3, name="per-run-pool"),
            executor=executor,
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            picks = selector.select(fig2_context, budget=2)
        published = registry.counter_values().get("exec.publications", 0)
        return (picks, selector.last_evaluations, work_counters(registry)), published

    serial, _ = select(None)
    parallel, published = select(two_workers)
    assert published == 1  # the candidate rounds ran on the pool
    assert parallel == serial
    picks, evaluations, counters = serial
    assert len(picks) == 2
    assert evaluations == counters["selector.sigma_evaluations"] > 0
    assert counters["sim.runs"] > 0
