"""Benchmark of the ``mha-nw-lab`` CLI on three workloads of shipped configs.

Usage (from the repository root, no install needed)::

    python3 perfbench/run.py --workload {arch-trend,hdi-sweep,lab-small,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Every CLI invocation runs in its own child process with the replicate pool
pinned to ``workloads.POOL_THREADS`` workers and BLAS to one thread; the
runner sets these itself rather than inheriting them.  Each iteration's
outputs are checked (``checks.py``); a failed check fails the iteration.

``--trace 0`` times untraced iterations until they have taken ``--seconds``,
with set-up-only passes spread evenly between them (``SETUP_PASSES``, and
more where those take less than ``SETUP_SHARE`` of the iterations' time),
and reports the end-to-end metrics.  On a shared virtual machine the
hypervisor steals CPU time in episodes of minutes, which stretch wall
time by up to half while the program does the same work.  So an
iteration or set-up pass during which ``/proc/stat`` records more than
``STEAL_LIMIT`` steal is checked but left out of the timings, and the run
goes on, until its iterations have taken ``STEAL_WAIT`` times ``--seconds``,
to get at least three iterations and three set-up passes below that limit.

``--trace 1`` runs one serial iteration, then untraced and traced
iterations in pairs until ``--seconds`` have passed, and reports the
per-layer metrics from the traced ones.

Human-readable lines come first; the last line of stdout is the JSON
result, whose ``correct`` field says whether every check passed.  The
exit code is 0 whenever a result is printed and 2 when the benchmark
cannot run.  Results and the traced spans are also written to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks
from workloads import POOL_THREADS, REFERENCE_SEED, SETUP_END, WORKLOADS, head_evals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: set-up passes per run, spread over its iterations; more where they take
#: less than SETUP_SHARE of the iterations' time (a single 0.3 s set-up child
#: varies by a third between passes), and to replace passes left out for steal
SETUP_PASSES = 5
SETUP_SHARE = 0.25
#: the fewest iterations, and set-up passes, a run's timings are taken from
MIN_ITERATIONS = 3
#: an iteration or set-up pass during which the hypervisor stole more than this
#: share of the machine's CPU time is left out of the timings
STEAL_LIMIT = 0.05
#: iterations stop replacing those left out for steal once they have taken
#: this many times --seconds; this bounds a run's length in a steal episode
STEAL_WAIT = 2.0
#: wall_s_hi is the highest percentile with at least this many samples beyond it
HI_TAIL = 10
#: no iteration starts after this many seconds, so a run ends well within 180 s
DEADLINE_S = 140
CHILD_TIMEOUT_S = 120

END_TO_END = {  # name -> unit, as listed in BENCHMARK.json
    "wall_s": "s", "setup_s": "s", "cpu_s": "s",
    "head_evals_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "nw_attention.attend_many.calls": "count",
    "nw_attention.attend_many.self_s": "s",
    "nw_attention.logit_elems": "count",
    "nw_attention.ns_per_logit": "ns",
    "nw_attention.unique_head_ratio": "ratio",
    "synthetic.sample_dataset.calls": "count",
    "synthetic.sample_dataset.self_s": "s",
    "synthetic.dataset_reuse_ratio": "ratio",
    "synthetic.make_task.self_s": "s",
    "cli.setup_s": "s",
    "cli.io_s": "s",
    "cli.bytes_written": "bytes",
    "decomposition.self_s": "s",
    "decomposition.replicates": "count",
    "decomposition.pool_busy_frac": "ratio",
    "decomposition.pool_speedup": "ratio",
    "diversity.optimizer_steps": "count",
    "trace.overhead_frac": "ratio",
}
#: printed, but left out of the JSON result: exactly 0 on workloads that never
#: enter the layer (arch-trend never calls diversity, only arch-trend arch_search)
PER_LAYER_PRINTED = {"diversity.self_s": "s", "arch_search.self_s": "s"}
#: per-layer metrics that must repeat exactly between traced iterations
EXACT_COUNTS = (
    "nw_attention.attend_many.calls", "synthetic.sample_dataset.calls",
    "nw_attention.logit_elems", "synthetic.dataset_reuse_ratio",
    "nw_attention.unique_head_ratio", "diversity.optimizer_steps",
    "decomposition.replicates", "cli.bytes_written",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    returncode: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Iteration:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    steal: float = 0.0
    problems: list[str] = field(default_factory=list)
    dumps: list[dict] = field(default_factory=list)


@dataclass
class SetupPass:
    wall: float
    steal: float


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies over all CPUs from /proc/stat, if readable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return None


def _steal_share(before, after) -> float:
    """Share of the machine's CPU time stolen between two ``_cpu_ticks``."""
    if before and after and after[1] > before[1]:
        return (after[0] - before[0]) / (after[1] - before[1])
    return 0.0


def _quiet(samples: list) -> list:
    return [s for s in samples if s.steal <= STEAL_LIMIT]


def _least_stolen(samples: list) -> list:
    """The samples with at most STEAL_LIMIT steal, or, when fewer than
    MIN_ITERATIONS of those exist, the MIN_ITERATIONS least stolen."""
    quiet = _quiet(samples)
    if len(quiet) >= MIN_ITERATIONS:
        return quiet
    return sorted(samples, key=lambda s: s.steal)[:MIN_ITERATIONS]


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["MHA_NW_LAB_THREADS"] = str(threads)
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], env: dict, log: Path) -> Child:
    """Run one child to exit; wall time from spawn to reaping, rusage via wait4."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        env["PERFBENCH_SPAWN"] = repr(start)
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        reaped = threading.Event()
        lock = threading.Lock()

        def kill():
            with lock:
                if not reaped.is_set():
                    proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            timer.cancel()
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        with lock:
            reaped.set()
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0,
                 out_path.read_text(encoding="utf-8", errors="replace"),
                 err_path.read_text(encoding="utf-8", errors="replace"))


class Runner:
    """Runs one workload's iterations in a private work directory."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.invocations = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.references = {}
        for inv in self.invocations:
            path = HERE / "reference" / f"{inv.name}.csv"
            for needed in (path, ROOT / inv.source):
                if not needed.is_file():
                    raise BenchError(f"missing {needed}")
            self.references[inv.name] = path.read_text(encoding="utf-8")
        self.first_output: dict[str, tuple] = {}
        self.verdicts: set[str] = set()   # gates failing at a non-reference seed
        work.mkdir(parents=True, exist_ok=True)

    def setup_pass(self) -> SetupPass:
        """Summed wall time of one set-up-only child per invocation."""
        total = 0.0
        ticks = _cpu_ticks()
        for inv in self.invocations:
            out = self.work / "setup" / inv.name
            shutil.rmtree(out, ignore_errors=True)
            argv = [sys.executable, str(HERE / "child_setup.py"),
                    *inv.cli_args(self.seed, os.path.relpath(out, ROOT))]
            child = run_child(argv, child_env(POOL_THREADS), self.work / f"setup-{inv.name}")
            if child.returncode != 0:
                raise BenchError(f"set-up child for {inv.name} exited {child.returncode}: "
                                 f"{child.stderr.strip()[-500:]}")
            total += child.wall
        return SetupPass(total, _steal_share(ticks, _cpu_ticks()))

    def iteration(self, threads: int = POOL_THREADS, traced: bool = False) -> Iteration:
        it = Iteration()
        ticks = _cpu_ticks()
        for run_id, inv in enumerate(self.invocations):
            out = self.work / "out" / inv.name
            shutil.rmtree(out, ignore_errors=True)
            args = inv.cli_args(self.seed, os.path.relpath(out, ROOT))
            if traced:
                spans = self.work / f"spans-{run_id}.json"
                spans.unlink(missing_ok=True)
                argv = [sys.executable, str(HERE / "child_traced.py"), str(spans), str(run_id), *args]
            else:
                argv = [sys.executable, "-m", "mha_nw_lab.cli", *args]
            child = run_child(argv, child_env(threads), self.work / f"log-{inv.name}")
            it.wall += child.wall
            it.cpu += child.cpu
            it.rss_mb = max(it.rss_mb, child.rss_mb)
            exact = self.seed == REFERENCE_SEED or not inv.seeded
            found = checks.check_invocation(child.returncode, child.stdout, out,
                                            self.references[inv.name], exact)
            manifest = out / "MANIFEST"
            output = (child.returncode,
                      manifest.read_text(encoding="utf-8") if manifest.is_file() else None)
            if self.first_output.setdefault(inv.name, output) != output:
                found.append("exit code or outputs differ from this run's first iteration")
            if not exact:
                self.verdicts.update(f"{inv.name}: {gate}"
                                     for gate in checks.failing_gates(child.stdout))
            it.problems += [f"{inv.name}: {p}" for p in found]
            if traced:
                if spans.is_file():
                    it.dumps.append(json.loads(spans.read_text(encoding="utf-8")))
                else:
                    it.problems.append(f"{inv.name}: traced child wrote no spans")
        it.steal = _steal_share(ticks, _cpu_ticks())
        return it


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(dumps: list[dict], pool_threads: int = POOL_THREADS) -> dict:
    """Per-layer times and counts of one traced iteration (all its invocations)."""
    spans = [s for d in dumps for s in d["spans"]]
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["run"], s["parent"])].append(s)
    by_key = {(s["run"], s["id"]): s for s in spans}

    def layer(s):
        return s["name"].split(".")[0]

    self_by_layer, self_by_name = defaultdict(float), defaultdict(float)
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children[(s["run"], s["id"])]]
        own = (s["end"] - s["start"]) - _covered(kids)
        self_by_layer[layer(s)] += own
        self_by_name[s["name"]] += own

    attend = [s for s in spans if s["name"] == "nw_attention.attend_many"]
    logits = sum(s.get("logits", 0) for s in attend)
    heads = {(s["run"], s["head"]) for s in attend if "head" in s}
    draws = [s for s in spans if s["name"] == "synthetic.sample_dataset"]
    datasets = {(s["run"], s["data"]) for s in draws if "data" in s}

    def is_driver(s):   # only driver-layer spans record process CPU time
        return s is not None and "cpu" in s

    outer = [s for s in spans if is_driver(s)
             and not is_driver(by_key.get((s["run"], s["parent"])))]
    driver_wall = sum(s["end"] - s["start"] for s in outer)

    boundary = {f"{module}.{name}" for module, name in SETUP_END}
    setup = 0.0
    for d in dumps:
        starts = [s["start"] for s in d["spans"] if s["name"] in boundary]
        if d.get("spawn") is not None:
            setup += (min(starts) if starts else d["exit"]) - d["spawn"]
    io = [s for s in spans if s["name"].startswith("cli.io.")]

    return {
        "nw_attention.attend_many.calls": len(attend),
        "nw_attention.attend_many.self_s": self_by_name["nw_attention.attend_many"],
        "nw_attention.logit_elems": logits,
        "nw_attention.ns_per_logit": (self_by_name["nw_attention.attend_many"] / logits * 1e9
                                      if logits else 0.0),
        "nw_attention.unique_head_ratio": len(heads) / len(attend) if attend else 1.0,
        "synthetic.sample_dataset.calls": len(draws),
        "synthetic.sample_dataset.self_s": self_by_name["synthetic.sample_dataset"],
        "synthetic.dataset_reuse_ratio": len(datasets) / len(draws) if draws else 1.0,
        "synthetic.make_task.self_s": self_by_name["synthetic.make_task"],
        "cli.setup_s": setup,
        "cli.io_s": sum(s["end"] - s["start"] for s in io),
        "cli.bytes_written": sum(s.get("bytes", 0) for s in io),
        "decomposition.self_s": self_by_layer["decomposition"],
        "decomposition.replicates": sum(s.get("replicates", 0) for s in spans),
        "decomposition.pool_busy_frac": (sum(s.get("cpu", 0.0) for s in outer)
                                         / (pool_threads * driver_wall) if driver_wall else 0.0),
        "diversity.optimizer_steps": sum(s.get("steps", 0) for s in spans),
        "diversity.self_s": self_by_layer["diversity"],
        "arch_search.self_s": self_by_layer["arch_search"],
    }


# ---------------------------------------------------------------------------


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, IQR {q1:.4g}..{q3:.4g}"


def measure_untraced(runner: Runner, head_evals_count: int, seconds: float,
                     t_program: float):
    runner.setup_pass()   # warm-up: on a fresh checkout this compiles the bytecode
    setups: list[SetupPass] = []
    iterations: list[Iteration] = []
    measured = 0.0   # seconds spent in iterations; set-up passes come on top
    while True:
        progress = measured / seconds
        due = min(progress, 1.0)
        while (len(setups) < math.ceil(SETUP_PASSES * due)
               or sum(s.wall for s in setups) < SETUP_SHARE * seconds * due):
            setups.append(runner.setup_pass())
        if progress >= 1 and len(_quiet(setups)) < MIN_ITERATIONS:
            setups.append(runner.setup_pass())
        quiet = (len(_quiet(iterations)) >= MIN_ITERATIONS
                 and len(_quiet(setups)) >= MIN_ITERATIONS)
        if iterations and (time.perf_counter() - t_program >= DEADLINE_S or (
                progress >= 1 and len(iterations) >= MIN_ITERATIONS
                and (quiet or progress >= STEAL_WAIT))):
            break
        start = time.perf_counter()
        iterations.append(runner.iteration())
        measured += time.perf_counter() - start
    timed = _least_stolen(iterations)
    setup_timed = _least_stolen(setups)
    walls = [it.wall for it in timed]
    setup_walls = [s.wall for s in setup_timed]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_walls),
        "cpu_s": statistics.median([it.cpu for it in timed]),
        "head_evals_per_s": head_evals_count / wall,
        "peak_rss_mb": max(it.rss_mb for it in iterations),
    }

    def left_out(kept, of, what):
        return (f"{len(of) - len(kept)} of {len(of)} {what} left out for steal > "
                f"{STEAL_LIMIT:.0%}; median steal {statistics.median(x.steal for x in kept):.1%}")

    notes = {
        "wall_s": f"{_spread(walls)}; {left_out(timed, iterations, 'iterations')}",
        "setup_s": f"{_spread(setup_walls)}; {left_out(setup_timed, setups, 'set-up passes')}",
        "cpu_s": _spread([it.cpu for it in timed]),
        "head_evals_per_s": f"{head_evals_count} head evaluations per iteration / wall_s",
        "peak_rss_mb": "max over every child",
    }
    printed = {}
    n = len(walls)
    if n > HI_TAIL:
        k = n - HI_TAIL - 1
        printed["wall_s_hi"] = (sorted(walls)[k],
                                f"p{100.0 * (k + 1) / n:.0f} of {n} iterations, {HI_TAIL} beyond it")
    else:
        printed["wall_s_hi"] = (None, f"needs more than {HI_TAIL} iterations, have {n}")
    return iterations, metrics, notes, printed


def measure_traced(runner: Runner, seconds: float, t_program: float):
    serial = runner.iteration(threads=1)
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start < seconds
                         and time.perf_counter() - t_program < DEADLINE_S):
        plain.append(runner.iteration())
        traced.append(runner.iteration(traced=True))
    per_iteration = [layer_metrics(it.dumps) for it in traced]
    first = per_iteration[0]
    metrics = {name: first[name] if name in EXACT_COUNTS
               else statistics.median([m[name] for m in per_iteration])
               for name in first}
    plain_wall = statistics.median([it.wall for it in plain])
    metrics["decomposition.pool_speedup"] = serial.wall / plain_wall
    metrics["trace.overhead_frac"] = (statistics.median([it.wall for it in traced])
                                      / plain_wall - 1.0)
    for it, m in zip(traced[1:], per_iteration[1:]):
        moved = [name for name in EXACT_COUNTS if m[name] != first[name]]
        if moved:
            it.problems.append(f"counts differ from the first traced iteration: {moved}")
    notes = {name: f"median of {len(traced)} traced iterations" for name in metrics}
    notes.update({name: "exact count" for name in EXACT_COUNTS})
    notes["decomposition.pool_speedup"] = (f"serial {serial.wall:.3f} s / "
                                           f"{POOL_THREADS}-worker median {plain_wall:.3f} s")
    notes["trace.overhead_frac"] = f"traced vs untraced median wall, {len(traced)} pairs"
    if traced[-1].dumps:
        missing = sorted({m for d in traced[-1].dumps for m in d.get("missing", [])})
        if missing:
            notes["trace.overhead_frac"] += f"; targets not found: {missing}"
    return [serial] + plain + traced, metrics, notes, traced[-1].dumps


def environment(seed: int) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "pool_threads": POOL_THREADS,
        "blas_threads": {name: 1 for name in BLAS_THREAD_VARS},
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    t_program = time.perf_counter()
    if not (ROOT / "src" / "mha_nw_lab" / "cli.py").is_file():
        raise BenchError(f"no mha_nw_lab sources under {ROOT / 'src'}")
    # children get output paths relative to the checkout, under a fixed name,
    # so the echoed output_dir and the bytes written are alike between runs and
    # checkouts; runs in one checkout therefore go one at a time
    work = RESULTS / "work"
    try:
        runner = Runner(workload, seed, work)
        if trace:
            iterations, metrics, notes, dumps = measure_traced(runner, seconds, t_program)
            names = PER_LAYER
            RESULTS.joinpath(f"spans-{workload}.json").write_text(
                json.dumps(dumps), encoding="utf-8")
        else:
            count = head_evals(workload, ROOT)
            iterations, metrics, notes, printed = measure_untraced(runner, count, seconds,
                                                                   t_program)
            names = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for it in iterations if it.problems)
    env = environment(seed)
    print(f"perfbench {workload} seed={seed} trace={trace} iterations={len(iterations)}")
    print("env " + json.dumps(env, sort_keys=True))
    for it in iterations:
        for problem in it.problems:
            print(f"FAILED {problem}")
    for verdict in sorted(runner.verdicts):
        print(f"gate verdict at this seed (not a failure): {verdict}")
    units = {**PER_LAYER, **PER_LAYER_PRINTED} if trace else END_TO_END
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]:6s} ({notes.get(name, '')})")
    if not trace:
        for name, (value, note) in printed.items():
            shown = f"{value:.6g}" if value is not None else "n/a"
            print(f"  {name:34s} {shown:>16s} {'s':6s} ({note})")
        print(f"  {'failed_frac':34s} {failed / len(iterations):>16.6g} {'1':6s} "
              f"({failed} of {len(iterations)} iterations failed)")
    result = {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }
    RESULTS.joinpath(f"result-{workload}-trace{trace}.json").write_text(
        json.dumps({"env": env, **result, "all_metrics": metrics, "iterations": [
            {"wall": it.wall, "cpu": it.cpu, "steal": it.steal, "problems": it.problems}
            for it in iterations]}, indent=1) + "\n",
        encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    RESULTS.mkdir(exist_ok=True)
    try:
        for name in names:
            print(json.dumps(run_workload(name, args.seed, args.seconds, args.trace)),
                  flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
