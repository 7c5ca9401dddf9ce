"""Counts recorded by the traced pass repeat exactly between runs."""

import run
from workloads import REFERENCE_SEED


def test_traced_counts_repeat(tmp_path):
    counts = []
    for attempt in range(2):
        runner = run.Runner("hdi-sweep", REFERENCE_SEED, tmp_path / str(attempt))
        iteration = runner.iteration(traced=True)
        assert iteration.problems == []
        metrics = run.layer_metrics(iteration.dumps)
        counts.append({name: metrics[name] for name in run.EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["nw_attention.attend_many.calls"] > 0
