"""The benchmark's workloads: the CLI invocations that make up one iteration.

Each workload runs shipped configs through ``mha-nw-lab`` unchanged; the
benchmark's ``--seed`` is passed on as the CLI's ``--seed`` (the ``hdi``
subcommand takes no seed).  ``head_evals`` counts the head-replicate
evaluations an iteration requests, read from the configs rather than from
a trace, so a change that skips duplicate work reads as higher throughput.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

#: the shipped configs' master_seed; reference tables were made at this seed
REFERENCE_SEED = 20260808

#: replicate-pool size of the timed runs (equals nproc on the 2-vCPU box
#: the baseline was taken on); BLAS is pinned to one thread beside it
POOL_THREADS = 2

#: the first call to any of these ends a run's set-up: everything before it
#: is interpreter start, import, config load and task/projection construction
SETUP_END = (
    ("synthetic", "sample_queries"),
    ("synthetic", "sample_dataset"),
    ("diversity", "optimize_projections"),
    ("diversity", "make_diversity_report"),
)


def rebind(original, replacement) -> None:
    """Point every name bound to ``original`` in the loaded ``mha_nw_lab``
    modules at ``replacement``, so names made by ``from .x import f`` see it too."""
    for name, module in list(sys.modules.items()):
        if name == "mha_nw_lab" or name.startswith("mha_nw_lab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


@dataclass(frozen=True)
class Invocation:
    """One CLI call; ``name`` is also the stem of its reference table."""

    name: str
    command: str
    source: str              # config path, or head-weight file for ``hdi``

    @property
    def seeded(self) -> bool:
        return self.command != "hdi"

    def cli_args(self, seed: int, out: str) -> list[str]:
        if self.command == "hdi":
            return ["hdi", "--weights", self.source, "--out", str(out)]
        return [self.command, "--config", self.source, "--seed", str(seed),
                "--out", str(out)]


def _config(name: str, command: str) -> Invocation:
    return Invocation(name, command, f"configs/{name}.json")


def _weights(name: str) -> Invocation:
    return Invocation(f"hdi_{name}", "hdi", f"configs/fixtures/{name}.json")


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    # bound by the attention kernel: 7,440 attend_many calls over n up to 4000
    "arch-trend": (_config("sweep_arch", "sweep-arch"),),
    # small calls, each dataset drawn once per mix, identical heads at mix 0
    "hdi-sweep": (_config("sweep_hdi", "sweep-hdi"),),
    # six process starts, config and report I/O, the optimizer and HDI paths
    "lab-small": (
        _config("decompose_canonical", "decompose"),
        _config("weights_compare_hetero", "weights-compare"),
        _config("weights_compare_homog", "weights-compare"),
        _config("optimize_proj", "optimize-proj"),
        _weights("weights_identical"),
        _weights("weights_orthogonal"),
    ),
}


def _divisor_allocations(D: int, p: int) -> list[tuple[int, int]]:
    """(H, d_k) with H * d_k = D that fit in p input dimensions."""
    return [(D // d_k, d_k) for d_k in range(1, D + 1) if D % d_k == 0 and D <= p]


def invocation_head_evals(inv: Invocation, root: Path) -> int:
    """Sum of R * H over every sweep point and pilot the invocation requests."""
    if inv.command in ("hdi", "optimize-proj"):
        return 0
    config = json.loads((root / inv.source).read_text(encoding="utf-8"))
    R = int(config["R"])
    if inv.command == "sweep-arch":
        n_points = len(config.get("n_grid") or [config.get("n")])
        heads = sum(H for H, _ in _divisor_allocations(
            int(config["budget_D"]), int(config["task"]["p"])))
        return n_points * R * heads
    H = int(config["projection"]["H"])
    if inv.command == "decompose":
        return R * H
    if inv.command == "sweep-hdi":
        return len(config["mix_grid"]) * R * H
    if inv.command == "weights-compare":
        return (max(2, R // 2) + R) * H      # pilot ordering run, then the main run
    raise ValueError(f"no work count for subcommand {inv.command!r}")


def head_evals(workload: str, root: Path) -> int:
    return sum(invocation_head_evals(inv, root) for inv in WORKLOADS[workload])
