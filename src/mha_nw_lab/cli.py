"""Batch experiment harness.

Usage: ``mha-nw-lab <subcommand> --config <path> [--seed N] [--out DIR]``.

Every run echoes its effective configuration next to the results, writes a
flat CSV and a structured JSON report, and finishes with a MANIFEST of
content hashes, so a run directory is self-describing and reproducible.
Exit codes: 0 success, 1 usage or data error, 2 scientific-gate failure.
Numeric config fields and gates are type-checked before anything is
written; a mistyped or non-finite value exits 1 naming its dotted field.

Concurrent invocations must target distinct output directories; a lock
file inside the directory enforces this.  ``MHA_NW_LAB_THREADS`` caps the
replicate-level worker pool (0 = auto) and must be a nonnegative integer.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .arch_search import scaling_trend, sweep_architectures
from .decomposition import (
    ExperimentPlan,
    FamilySpec,
    hdi_sweep,
    mc_decompose,
    weighting_compare,
    worker_count,
)
from .diversity import load_weight_file, make_diversity_report, optimize_projections
from .errors import ConfigError, Infeasible, LabError
from .mha import make_weights
from .synthetic import make_task

DEFAULT_GATES = {
    "residual_sigma": 4.0,        # identity residual vs propagated stderr
    "cov_sigma": 4.0,             # orthogonal-pair covariance vs stderr
    "spearman_max": -0.8,         # diversity sweep rank correlation
    "endpoint_sigma": 4.0,        # paired mse(mix=0) - mse(mix=1) significance
    "weighting_sigma": 2.0,       # geometric-vs-uniform significance
    "optimizer_objective": 1e-8,  # final pairwise Gram mass
    "arch_interior": True,        # strict interior argmin at the largest n
    "arch_nondecreasing": True,   # d_k* non-decreasing in n
}
#: float-noise floor used when a gate compares against a vanishing stderr
RESIDUAL_FLOOR = 1e-12

_TASK_KEYS = {"family", "p", "sigma", "input_law", "param_seed", "heteroscedastic"}
_PROJ_KEYS = {"d_k", "H", "mix", "query_gain", "value_mode", "noise_scales", "weight_file"}
_WEIGHT_KEYS = {"kind", "rho", "alphas"}
_TOP_KEYS = {
    "version", "task", "projection", "weights", "n", "R", "Q", "master_seed",
    "output_dir", "mix_grid", "rho_grid", "budget_D", "n_grid", "optimizer",
    "gates",
}
_OPT_KEYS = {"steps", "step_size"}


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config missing required field: {key}")
    return config[key]


_REQUIRED = object()
_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number"}


def _checked(value, field: str, kind):
    """``value`` as ``kind``: bool, int, float (ints accepted, must be finite),
    or a one-item list such as ``[float]`` for a list of them.  JSON booleans
    are not numbers; any mismatch raises a ConfigError naming ``field``."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"config field {field} must be a list, got {value!r}")
        return [_checked(v, f"{field}[{i}]", kind[0]) for i, v in enumerate(value)]
    if kind is bool:
        ok = isinstance(value, bool)
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        try:  # also rejects text, null, and integers too large for a float
            ok = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):
            ok = False
    if not ok:
        raise ConfigError(f"config field {field} must be {_KIND_NAMES[kind]}, got {value!r}")
    return kind(value)


def _read(config: dict, field: str, kind, default=_REQUIRED):
    """The value at dotted ``field`` (``"task.sigma"``) checked as ``kind``."""
    *sections, key = field.split(".")
    section = config
    for name in sections:
        section = section.get(name, {})
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"config missing required field: {field}")
        return default
    return _checked(section[key], field, kind)


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown config key(s) in {where}: {sorted(unknown)}")


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: parse error at byte offset {exc.pos}: {exc.msg}")
    except OSError as exc:
        raise ConfigError(f"config {path}: {exc}")
    if not isinstance(config, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    _check_keys(config, _TOP_KEYS, "top level")
    version = _require(config, "version")
    if version != 1:
        raise ConfigError(f"unsupported config version {version!r}; this build reads version 1")
    for section, keys in (("task", _TASK_KEYS), ("projection", _PROJ_KEYS),
                          ("weights", _WEIGHT_KEYS), ("optimizer", _OPT_KEYS),
                          ("gates", set(DEFAULT_GATES))):
        if section in config:
            if not isinstance(config[section], dict):
                raise ConfigError(f"config section {section!r} must be an object")
            _check_keys(config[section], keys, f"section '{section}'")
    return config


def _build_task(config: dict):
    section = _require(config, "task")
    for key in ("family", "input_law"):
        if key not in section:
            raise ConfigError(f"config missing required field: task.{key}")
    return make_task(
        family=section["family"], p=_read(config, "task.p", int),
        sigma=_read(config, "task.sigma", float), input_law=section["input_law"],
        param_seed=_read(config, "task.param_seed", int, 0),
        heteroscedastic=_read(config, "task.heteroscedastic", bool, False),
    )


def _build_projection(config: dict, task):
    section = _require(config, "projection")
    if "weight_file" in section:
        extra = set(section) - {"weight_file"}
        if extra:
            raise ConfigError(
                f"projection.weight_file excludes other projection keys, got {sorted(extra)}"
            )
        return load_weight_file(section["weight_file"])
    noise_scales = _read(config, "projection.noise_scales", [float], None)
    return FamilySpec(
        p=task.p, d_k=_read(config, "projection.d_k", int),
        H=_read(config, "projection.H", int),
        mix=_read(config, "projection.mix", float, 1.0),
        query_gain=_read(config, "projection.query_gain", float, 1.0),
        value_mode=section.get("value_mode", "balanced"),
        noise_scales=tuple(noise_scales) if noise_scales else None,
    )


def _build_weights(config: dict, H: int):
    section = config.get("weights", {"kind": "uniform"})
    kind = section.get("kind", "uniform")
    alphas = _read(config, "weights.alphas", [float], None)
    return make_weights(
        kind, H, rho=_read(config, "weights.rho", float, None),
        custom=None if alphas is None else np.asarray(alphas, dtype=np.float64),
    )


def _build_plan(config: dict) -> ExperimentPlan:
    task = _build_task(config)
    projection = _build_projection(config, task)
    weights = _build_weights(config, projection.H)
    return ExperimentPlan(
        task=task, projection=projection, weights=weights,
        n=_read(config, "n", int), R=_read(config, "R", int), Q=_read(config, "Q", int),
        master_seed=_read(config, "master_seed", int),
    )


def _gates(config: dict) -> dict:
    gates = dict(DEFAULT_GATES)
    for key in config.get("gates", {}):
        gates[key] = _read(config, f"gates.{key}", type(DEFAULT_GATES[key]))
    return gates


# ---------------------------------------------------------------------------
# output directory plumbing


class RunDirectory:
    """Locked output directory that removes partial results on failure."""

    def __init__(self, out: Path):
        self.out = Path(out)
        self.written: list[Path] = []
        self.lock = self.out / ".lock"

    def __enter__(self) -> "RunDirectory":
        self.out.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigError(
                f"output directory {self.out} is locked by another run "
                f"(remove {self.lock} if stale)"
            )
        os.close(fd)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for path in self.written:
                try:
                    path.unlink()
                except OSError:
                    pass
        self.lock.unlink(missing_ok=True)

    def write_text(self, name: str, text: str) -> Path:
        path = self.out / name
        path.write_text(text, encoding="utf-8")
        self.written.append(path)
        return path

    def write_csv(self, name: str, header: list[str], rows) -> Path:
        path = self.out / name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(["" if v is None else _cell(v) for v in row])
        self.written.append(path)
        return path

    def finish_manifest(self) -> Path:
        lines = []
        for path in sorted(self.written, key=lambda p: p.name):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.name}")
        manifest = self.out / "MANIFEST"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return manifest


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # numpy 2 reprs its scalars as np.float64(...)
    return str(value)


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _echo_config(rundir: RunDirectory, config: dict) -> None:
    rundir.write_text(
        "config.json", json.dumps(_jsonify(config), indent=2, sort_keys=True) + "\n"
    )


def _write_report(rundir: RunDirectory, payload: dict) -> None:
    payload = dict(payload)
    payload["code_version"] = __version__
    rundir.write_text(
        "report.json", json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n"
    )


def _gate_line(name: str, passed: bool, detail: str) -> bool:
    print(f"GATE {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    return passed


# ---------------------------------------------------------------------------
# subcommands


def cmd_decompose(config: dict, out: Path) -> int:
    plan = _build_plan(config)
    gates = _gates(config)
    with RunDirectory(out) as rundir:
        _echo_config(rundir, config)
        report = mc_decompose(plan)
        residual_limit = max(
            gates["residual_sigma"] * report.stderr["identity_residual"],
            RESIDUAL_FLOOR * max(1.0, abs(report.mse_direct)),
        )
        ok = report.identity_residual <= residual_limit

        rows = []
        H = report.per_head_bias.shape[0]
        for h in range(H):
            rows.append(["head", h, None, report.per_head_bias[h],
                         report.per_head_var[h], None, report.per_head_mse[h],
                         None, None, None])
        for h in range(H):
            for h2 in range(h + 1, H):
                rows.append(["pair", h, h2, None, None, report.cross_cov[h, h2],
                             None, report.cov_stderr[h, h2], None, None])
        rows.append(["ensemble", None, None, report.ensemble_bias_sq,
                     report.variance_term, report.covariance_term,
                     report.mse_direct, report.stderr["mse_direct"],
                     report.identity_residual, report.degenerate_weights])
        rundir.write_csv(
            "table.csv",
            ["record", "h", "h2", "bias", "variance", "covariance", "mse",
             "stderr", "identity_residual", "degenerate_weights"],
            rows,
        )
        _write_report(rundir, {
            "command": "decompose",
            "master_seed": plan.master_seed,
            "n": plan.n, "R": plan.R, "Q": plan.Q,
            "per_head_bias": report.per_head_bias,
            "per_head_var": report.per_head_var,
            "per_head_mse": report.per_head_mse,
            "cross_cov": report.cross_cov,
            "cov_stderr": report.cov_stderr,
            "ensemble_bias_sq": report.ensemble_bias_sq,
            "variance_term": report.variance_term,
            "covariance_term": report.covariance_term,
            "mse_direct": report.mse_direct,
            "identity_residual": report.identity_residual,
            "stderr": report.stderr,
            "degenerate_weights": report.degenerate_weights,
            "gate_identity": ok,
        })
        rundir.finish_manifest()
        passed = _gate_line(
            "identity_residual", ok,
            f"residual {report.identity_residual:.3e} vs limit {residual_limit:.3e}",
        )
        # constructively orthogonal families must show vanishing cross-head
        # covariance; identical families must show covariance equal to the
        # per-head variance
        spec = plan.projection
        if isinstance(spec, FamilySpec) and spec.mix in (0.0, 1.0) and H > 1:
            worst = 0.0
            for h in range(H):
                for h2 in range(h + 1, H):
                    target = report.per_head_var[h] if spec.mix == 0.0 else 0.0
                    gap = abs(report.cross_cov[h, h2] - target)
                    se = max(report.cov_stderr[h, h2],
                             RESIDUAL_FLOOR * max(1.0, abs(report.mse_direct)))
                    worst = max(worst, gap / se)
            cov_ok = worst <= gates["cov_sigma"]
            label = "cov_equals_variance" if spec.mix == 0.0 else "cov_vanishes"
            passed = _gate_line(
                label, cov_ok,
                f"worst pair {worst:.2f} sigma vs {gates['cov_sigma']:.1f}",
            ) and passed
    return 0 if passed else 2


def cmd_hdi(weight_file: str, out: Path | None) -> int:
    proj = load_weight_file(weight_file)
    report = make_diversity_report(proj)
    print(f"heads: {proj.H}  p: {proj.p}  d_k: {proj.d_k}")
    for (h, h2), angles in sorted(report.principal_angles.items()):
        print(
            f"pair ({h},{h2}): ||G||_F^2 = {report.gram_frobsq[h, h2]:.6g}  "
            f"angles [{angles.min():.4f}, {angles.max():.4f}] rad"
        )
    print(f"hdi = {report.hdi:.6g}")
    print(f"hdi_normalized = {report.hdi_normalized:.6g}")
    if out is not None:
        with RunDirectory(out) as rundir:
            rows = [
                [h, h2, report.gram_frobsq[h, h2],
                 float(a.min()), float(a.max())]
                for (h, h2), a in sorted(report.principal_angles.items())
            ]
            rundir.write_csv(
                "table.csv", ["h", "h2", "gram_frobsq", "min_angle", "max_angle"], rows
            )
            _write_report(rundir, {
                "command": "hdi",
                "weight_file": str(weight_file),
                "H": proj.H, "p": proj.p, "d_k": proj.d_k,
                "gram_frobsq": report.gram_frobsq,
                "hdi": report.hdi,
                "hdi_normalized": report.hdi_normalized,
            })
            rundir.finish_manifest()
    return 0


def cmd_sweep_hdi(config: dict, out: Path) -> int:
    plan = _build_plan(config)
    gates = _gates(config)
    mix_grid = _read(config, "mix_grid", [float])
    with RunDirectory(out) as rundir:
        _echo_config(rundir, config)
        result = hdi_sweep(plan, mix_grid)
        rundir.write_csv(
            "table.csv", ["mix", "hdi", "hdi_normalized", "mse", "stderr"],
            result.rows,
        )
        payload = {
            "command": "sweep-hdi",
            "master_seed": plan.master_seed,
            "rows": [list(r) for r in result.rows],
            "spearman": result.spearman,
            "endpoint_diff": result.endpoint_diff,
            "endpoint_diff_stderr": result.endpoint_diff_stderr,
        }
        ok_spearman = result.spearman <= gates["spearman_max"]
        payload["gate_spearman"] = ok_spearman
        passed = _gate_line(
            "spearman", ok_spearman,
            f"rho = {result.spearman:.3f} vs max {gates['spearman_max']}",
        )
        if result.endpoint_diff is not None:
            limit = gates["endpoint_sigma"] * result.endpoint_diff_stderr
            ok_endpoint = result.endpoint_diff > limit
            payload["gate_endpoint"] = ok_endpoint
            passed = _gate_line(
                "endpoint_diff", ok_endpoint,
                f"diff = {result.endpoint_diff:.4e} vs {limit:.4e}",
            ) and passed
        _write_report(rundir, payload)
        rundir.finish_manifest()
    return 0 if passed else 2


def cmd_weights_compare(config: dict, out: Path) -> int:
    plan = _build_plan(config)
    gates = _gates(config)
    rho_grid = _read(config, "rho_grid", [float])
    with RunDirectory(out) as rundir:
        _echo_config(rundir, config)
        result = weighting_compare(plan, rho_grid, gates["weighting_sigma"])
        rundir.write_csv(
            "table.csv",
            ["scheme", "rho", "mse", "stderr", "diff_vs_uniform", "diff_stderr"],
            result.rows,
        )
        payload = {
            "command": "weights-compare",
            "master_seed": plan.master_seed,
            "rows": [list(r) for r in result.rows],
            "head_order": result.head_order,
            "variance_spread": result.variance_spread,
            "best_scheme": result.best_scheme,
            "best_rho": result.best_rho,
            "geometric_beats_uniform": result.geometric_beats_uniform,
            "best_margin_sigmas": result.best_margin_sigmas,
        }
        # expected verdict follows the construction: heterogeneous value
        # noise -> geometric should win; identical heads -> it must not
        spec = plan.projection
        passed = True
        if isinstance(spec, FamilySpec) and spec.noise_scales:
            ok = result.geometric_beats_uniform
            payload["gate_geometric_beats_uniform"] = ok
            passed = _gate_line(
                "geometric_beats_uniform", ok,
                f"margin {result.best_margin_sigmas:.2f} sigma vs "
                f"{gates['weighting_sigma']:.1f} required",
            )
        elif isinstance(spec, FamilySpec) and spec.mix == 0.0:
            ok = not result.geometric_beats_uniform
            payload["gate_uniform_not_beaten"] = ok
            passed = _gate_line(
                "uniform_not_beaten", ok,
                f"best margin {result.best_margin_sigmas:.2f} sigma",
            )
        print(f"best scheme: {result.best_scheme}"
              + (f" (rho = {result.best_rho})" if result.best_rho else ""))
        _write_report(rundir, payload)
        rundir.finish_manifest()
    return 0 if passed else 2


def cmd_sweep_arch(config: dict, out: Path) -> int:
    task = _build_task(config)
    gates = _gates(config)
    D = _read(config, "budget_D", int)
    R = _read(config, "R", int)
    Q = _read(config, "Q", int)
    seed = _read(config, "master_seed", int)
    query_gain = _read(config, "projection.query_gain", float, 9.0)
    n_grid = _read(config, "n_grid", [int], None)
    n = _read(config, "n", int) if n_grid is None else None
    with RunDirectory(out) as rundir:
        _echo_config(rundir, config)
        passed = True
        if n_grid is None:
            sweep = sweep_architectures(task, D, n, R, Q, seed, query_gain=query_gain)
            sweeps = {sweep.n: sweep}
            trend = None
        else:
            trend = scaling_trend(task, D, n_grid, R, Q, seed, query_gain=query_gain)
            sweeps = {n: trend.sweeps[n] for n, *_ in trend.rows}
        rows = []
        for n, sweep in sorted(sweeps.items()):
            for row in sweep.rows:
                rows.append([n, row.H, row.d_k, row.mse, row.stderr,
                             row.bias_sq, row.var_term])
        rundir.write_csv(
            "table.csv",
            ["n", "H", "d_k", "mse", "stderr", "bias_sq", "var_term"], rows,
        )
        largest = max(sweeps)
        plot_lines = [
            f"{row.d_k} {row.mse!r} {row.stderr!r}" for row in sweeps[largest].rows
        ]
        rundir.write_text("dk_mse.dat", "\n".join(plot_lines) + "\n")
        payload = {
            "command": "sweep-arch",
            "master_seed": seed,
            "budget_D": D,
            "argmin": {n: [sweeps[n].argmin_H, sweeps[n].argmin_dk] for n in sweeps},
            "fit": {n: [sweeps[n].c1, sweeps[n].c2, sweeps[n].fit_residual] for n in sweeps},
            "flat": {n: sweeps[n].flat for n in sweeps},
            "skipped": {n: sweeps[n].skipped for n in sweeps},
        }
        if trend is not None:
            payload["trend_rows"] = [list(r) for r in trend.rows]
            payload["nondecreasing"] = trend.nondecreasing
            payload["sublinear"] = trend.sublinear
            payload["log_slope"] = trend.log_slope
            if gates["arch_nondecreasing"]:
                passed = _gate_line(
                    "dk_nondecreasing", trend.nondecreasing,
                    f"d_k* sequence {[r[1] for r in trend.rows]}",
                ) and passed
        final = sweeps[largest]
        if gates["arch_interior"] and not final.flat:
            interior = final.argmin_dk not in (1, D)
            payload["gate_interior"] = interior
            passed = _gate_line(
                "interior_argmin", interior,
                f"argmin d_k = {final.argmin_dk} at n = {largest}",
            ) and passed
        for n, sweep in sorted(sweeps.items()):
            print(f"n = {n}: argmin (H, d_k) = ({sweep.argmin_H}, {sweep.argmin_dk})"
                  + ("  [flat]" if sweep.flat else ""))
        _write_report(rundir, payload)
        rundir.finish_manifest()
    return 0 if passed else 2


def cmd_optimize_proj(config: dict, out: Path) -> int:
    task = _build_task(config)
    gates = _gates(config)
    d_k = _read(config, "projection.d_k", int)
    H = _read(config, "projection.H", int)
    seed = _read(config, "master_seed", int)
    steps = _read(config, "optimizer.steps", int, 5000)
    step_size = _read(config, "optimizer.step_size", float, 1.0)
    with RunDirectory(out) as rundir:
        _echo_config(rundir, config)
        proj, trace = optimize_projections(
            p=task.p, d_k=d_k, H=H, seed=seed, steps=steps, step_size=step_size,
        )
        rundir.write_csv("table.csv", ["step", "objective"],
                         list(enumerate(trace)))
        final = trace[-1]
        ok = final <= gates["optimizer_objective"]
        _write_report(rundir, {
            "command": "optimize-proj",
            "master_seed": seed,
            "final_objective": final,
            "steps_accepted": len(trace) - 1,
            "gate_objective": ok,
        })
        rundir.finish_manifest()
        passed = _gate_line(
            "optimizer_objective", ok,
            f"final J = {final:.3e} vs {gates['optimizer_objective']:.1e}",
        )
    return 0 if passed else 2


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mha-nw-lab",
        description="Kernel-regression laboratory for multi-head attention ensembles.",
        epilog="MHA_NW_LAB_THREADS caps replicate-level parallelism (0 = auto).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, needs_config: bool = True):
        cmd = sub.add_parser(name, help=help_text)
        if needs_config:
            cmd.add_argument("--config", required=True, help="path to a version-1 JSON config")
        cmd.add_argument("--seed", type=int, default=None, help="override master_seed")
        cmd.add_argument("--out", default=None, help="override the output directory")
        return cmd

    add("decompose", "bias-variance-covariance decomposition of one ensemble")
    hdi_cmd = sub.add_parser("hdi", help="diversity diagnostics of a head-weight file")
    hdi_cmd.add_argument("--weights", required=True, help="JSON head-weight document")
    hdi_cmd.add_argument("--out", default=None, help="optional output directory")
    add("sweep-hdi", "decomposition across a projection-diversity grid")
    add("sweep-arch", "budget-constrained architecture sweep")
    add("weights-compare", "uniform vs Fibonacci vs geometric head weighting")
    add("optimize-proj", "projected gradient descent toward orthogonal frames")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        worker_count()  # reject a malformed MHA_NW_LAB_THREADS on every subcommand
        if args.command == "hdi":
            out = Path(args.out) if args.out else None
            return cmd_hdi(args.weights, out)
        config = load_config(args.config)
        if args.seed is not None:
            config["master_seed"] = int(args.seed)
        out = args.out or config.get("output_dir")
        if out is None:
            raise ConfigError("config missing required field: output_dir (or pass --out)")
        config["output_dir"] = str(out)
        handler = {
            "decompose": cmd_decompose,
            "sweep-hdi": cmd_sweep_hdi,
            "sweep-arch": cmd_sweep_arch,
            "weights-compare": cmd_weights_compare,
            "optimize-proj": cmd_optimize_proj,
        }[args.command]
        return handler(config, Path(out))
    except Infeasible as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return 1
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
