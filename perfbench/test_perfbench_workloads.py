"""Work counts come from the shipped configs, not from a trace."""

import json
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, head_evals

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, expected", [
    ("arch-trend", 7440),   # 3 sample sizes x R=80 x (16+8+4+2+1) heads
    ("hdi-sweep", 7200),    # 6 mixes x R=300 x H=4
    ("lab-small", 5200),    # decompose 400x4 + 2 x weights-compare (150+300)x4
])
def test_head_evals_from_configs(workload, expected):
    assert head_evals(workload, ROOT) == expected


def test_every_invocation_has_a_reference_table():
    for invocations in WORKLOADS.values():
        for inv in invocations:
            assert (ROOT / "perfbench" / "reference" / f"{inv.name}.csv").is_file()
            assert (ROOT / inv.source).is_file()


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
