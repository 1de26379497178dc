"""Ablation — community-detector quality feeding the pipeline.

The paper delegates community detection to Louvain [25] and cites the
comparative analysis of [32]. The LCRB pipeline's bridge-end set depends
entirely on the detected cover, so detector quality is a hidden input to
every experiment. This bench scores the three detectors in this library
against planted ground truth (NMI/purity/wall-clock) at increasing mixing,
confirming Louvain's adequacy across the regimes the replicas use.
"""

from benchmarks.conftest import FAST
from repro.community.label_prop import label_propagation
from repro.community.louvain import louvain
from repro.community.metrics import normalized_mutual_information, purity
from repro.graph.generators import planted_partition
from repro.obs.timers import Timer
from repro.rng import RngStream
from repro.utils.tables import format_table


def test_detector_quality(benchmark, report_result):
    block = 20 if FAST else 40
    blocks = [block] * (3 if FAST else 4)
    p_in = 0.3
    regimes = [0.005, 0.02, 0.05]

    def evaluate():
        rows = []
        for p_out in regimes:
            graph, truth = planted_partition(
                blocks, p_in, p_out, RngStream(81).fork("net", p_out), directed=True
            )
            detectors = {
                "louvain": lambda g: louvain(g, rng=RngStream(82)).membership,
                "label-prop": lambda g: label_propagation(g, rng=RngStream(83)),
            }
            for name, detect in detectors.items():
                timer = Timer(name)
                with timer:
                    found = detect(graph)
                rows.append(
                    [
                        f"{p_out:.3f}",
                        name,
                        normalized_mutual_information(found, truth),
                        purity(found, truth),
                        round(timer.elapsed, 3),
                    ]
                )
        return rows

    rows = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    text = format_table(
        ["p_out", "detector", "NMI", "purity", "seconds"],
        [[r[0], r[1], f"{r[2]:.3f}", f"{r[3]:.3f}", r[4]] for r in rows],
        title=f"Detector quality on planted partitions (blocks={blocks}, p_in={p_in})",
    )
    report_result(text, "detector_quality")

    # Louvain must recover the clean regimes essentially perfectly.
    louvain_rows = [r for r in rows if r[1] == "louvain"]
    assert louvain_rows[0][2] > 0.95  # NMI at the cleanest regime
    assert all(r[3] > 0.8 for r in louvain_rows)  # purity everywhere
