"""Batch experiment harness.

Usage: ``mha-nw-lab <subcommand> --config <path> [--seed N] [--out DIR]``.

Each subcommand reads its config fields, computes, then hands the results
to ``_publish``, which writes the echoed config, a flat CSV, a JSON report
and a MANIFEST of content hashes; nothing is written before the results
exist, and the files are staged, then moved into place together, MANIFEST
last, removing any file the previous MANIFEST listed that this run does not
write.  Every JSON report is the command's metadata and every field of its
result dataclass (``_fields``), plus a ``gates`` map ``{name: ok}`` made from
the verdicts that ``_publish`` prints as ``GATE`` lines.  Exit codes: 0
success, 1 usage or data error, 2 scientific-gate failure.  The fields a
subcommand reads are its schema: each is type-checked, and any other field
exits 1, named, before any Monte-Carlo work.  A config holds experiment
inputs only: each gate is one of the paper's claims at a fixed tolerance, and
which gates apply follows from the run itself.

Concurrent invocations must target distinct output directories; a lock
file inside the directory, holding the writer's pid, guards the write phase.
``MHA_NW_LAB_THREADS`` caps the replicate worker processes (0 = auto) and
must be a nonnegative integer.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from . import decomposition
from .arch_search import scaling_trend
from .decomposition import (
    ExperimentPlan,
    FamilySpec,
    hdi_sweep,
    mc_decompose,
    noise_floor,
    weighting_compare,
    worker_count,
)
from .diversity import load_weight_file, make_diversity_report, optimize_projections
from .errors import (ConfigError, EmptySweep, Infeasible, LabError, NeedsTwoHeads, ShapeMismatch,
                     WeightFileError)
from .mha import WEIGHT_KINDS, make_weights
from .synthetic import FAMILIES, INPUT_LAWS, make_task

# gate tolerances; weights-compare's is decomposition.WEIGHTING_SIGMA
RESIDUAL_SIGMA = 4.0        # identity residual vs propagated stderr
COV_SIGMA = 4.0             # cross-head covariance vs its stderr
SPEARMAN_MAX = -0.8         # diversity sweep rank correlation
ENDPOINT_SIGMA = 4.0        # paired mse(mix=0) - mse(mix=1) significance
OPTIMIZER_OBJECTIVE = 1e-8  # final pairwise Gram mass

_REQUIRED = object()
_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string"}


def _checked(value, field: str, kind, least=None, heads=None):
    """``value`` as ``kind``: int, str, float (ints accepted, must be finite),
    a tuple of the strings it may be, or a one-item list such as ``[float]`` for
    a list of them.  When given, ``least`` bounds a number or each list entry
    (``field[i]``) from below, and ``heads`` fixes a list's length at one entry
    per head.  JSON booleans are not numbers; any mismatch raises a ConfigError
    naming the field."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"config field {field} must be one of {kind}, got {value!r}")
        return value
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"config field {field} must be a list, got {value!r}")
        entries = [_checked(v, f"{field}[{i}]", kind[0], least) for i, v in enumerate(value)]
        if heads is not None and len(entries) != heads:
            raise ConfigError(f"config field {field} has {len(entries)} "
                              f"entries for projection.H = {heads} heads")
        return entries
    if kind is str:
        ok = isinstance(value, str)
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        try:  # also rejects text, null, and integers too large for a float
            ok = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):
            ok = False
    if not ok:
        raise ConfigError(f"config field {field} must be {_KIND_NAMES[kind]}, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"config field {field} must be >= {least}, got {value}")
    return kind(value)


class Config(dict):
    """A parsed config that records each dotted field a subcommand reads.

    The reads are the schema: ``reject_unread`` names every field that no
    read asked for.  As a ``dict`` it echoes to ``config.json`` unchanged.
    """

    def __init__(self, data: dict):
        super().__init__(data)
        self.fields_read: set[str] = set()

    def read(self, field: str, kind, default=_REQUIRED, least=None, heads=None):
        """The value at dotted ``field`` (``"task.p"``) checked as ``kind``,
        ``least`` and ``heads`` by ``_checked``, or ``default`` if it is absent."""
        *sections, key = field.split(".")
        section, where = self, ""
        for name in sections:
            where = f"{where}.{name}" if where else name
            section = section.get(name, {})
            if not isinstance(section, dict):
                raise ConfigError(f"config section {where} must be an object")
            self.fields_read.add(where)
        self.fields_read.add(field)
        if key in section:
            return _checked(section[key], field, kind, least, heads)
        if default is not _REQUIRED:
            return default
        # list what the section does set, such as a key no subcommand reads
        has = f" ({where} has {sorted(section)})" if where and section else ""
        raise ConfigError(f"config missing required field: {field}{has}")

    def reject_unread(self) -> None:
        """Raise a ConfigError naming every field no read asked for, down to
        the leaves of a section that was never read."""
        def unread(section: dict, prefix: str):
            for key, value in section.items():
                name = prefix + key
                if isinstance(value, dict) and value:
                    yield from unread(value, name + ".")
                elif name not in self.fields_read:
                    yield name

        names = sorted(unread(self, ""))
        if names:
            raise ConfigError(f"config field(s) not read by this subcommand: {', '.join(names)}")


def load_config(path) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: parse error at byte offset {exc.pos}: {exc.msg}")
    except OSError as exc:
        raise ConfigError(f"config {path}: {exc}")
    if not isinstance(config, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    config = Config(config)
    version = config.read("version", int)
    if version != 1:
        raise ConfigError(f"unsupported config version {version!r}; this build reads version 1")
    return config


def _build_task(config: Config):
    # noiseless: heads average projected inputs, never responses; the radial
    # family draws no parameters, so it leaves task.param_seed unread
    family = config.read("task.family", FAMILIES)
    return make_task(
        family=family, p=config.read("task.p", int, least=1), sigma=0.0,
        input_law=config.read("task.input_law", INPUT_LAWS),
        param_seed=0 if family == "radial" else config.read("task.param_seed", int, 0),
    )


def _build_weights(config: Config, H: int):
    kind = config.read("weights.kind", WEIGHT_KINDS, "uniform")
    rho = config.read("weights.rho", float) if kind == "geometric" else None
    alphas = config.read("weights.alphas", [float], heads=H) if kind == "custom" else None
    try:   # make_weights checks rho, and weight_vector the custom vector's sum
        return make_weights(kind, H, rho=rho, custom=alphas)
    except ShapeMismatch as exc:
        field = "weights.rho" if kind == "geometric" else "weights.alphas"
        raise ConfigError(f"config field {field}: {exc}") from None


def _build_plan(config: Config, reads_mix: bool = True,
                reads_weights: bool = True) -> ExperimentPlan:
    """A command that sweeps its own mixes or weights does not read them."""
    task = _build_task(config)
    d_k = config.read("projection.d_k", int, least=1)
    H = config.read("projection.H", int, least=1)
    noise_scales = config.read("projection.noise_scales", [float], None, heads=H)
    mix = config.read("projection.mix", float, 1.0) if reads_mix else 1.0
    if not 0.0 <= mix <= 1.0:
        raise ConfigError(f"config field projection.mix must lie in [0, 1], got {mix}")
    projection = FamilySpec(
        p=task.p, d_k=d_k, H=H, mix=mix,
        query_gain=config.read("projection.query_gain", float, 1.0),
        noise_scales=None if noise_scales is None else tuple(noise_scales),
    )
    weights = (_build_weights(config, projection.H) if reads_weights
               else make_weights("uniform", projection.H))
    return ExperimentPlan(
        task=task, projection=projection, weights=weights,
        n=config.read("n", int, least=1), R=config.read("R", int, least=2),
        Q=config.read("Q", int, least=1), master_seed=config.read("master_seed", int),
    )


# ---------------------------------------------------------------------------
# output directory plumbing


class RunDirectory:
    """Locked output directory that is published whole or not at all.

    Files are written under ``.stage``; ``finish_manifest`` moves them into
    place with ``os.replace``, ``MANIFEST`` last, so a directory holds a
    complete run exactly when it holds a ``MANIFEST``.  On exit the stage,
    whatever is left of it, and the lock are removed.
    """

    def __init__(self, out: Path):
        self.out = Path(out)
        self.lock = self.out / ".lock"
        self.stage = self.out / ".stage"

    def __enter__(self) -> "RunDirectory":
        self.out.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pid = _dead_pid(self.lock)
            if pid is not None:
                raise ConfigError(f"output directory {self.out} has a stale lock: pid {pid}, "
                                  f"which wrote it, is not running (remove {self.lock})")
            raise ConfigError(
                f"output directory {self.out} is locked by another run "
                f"(remove {self.lock} if stale)"
            )
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        try:
            shutil.rmtree(self.stage, ignore_errors=True)   # left by a killed run
            self.stage.mkdir()
        except OSError:
            self.lock.unlink()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        shutil.rmtree(self.stage, ignore_errors=True)
        self.lock.unlink(missing_ok=True)

    def write_text(self, name: str, text: str) -> Path:
        path = self.stage / name
        path.write_text(text, encoding="utf-8")
        return path

    def write_csv(self, name: str, header: list[str], rows) -> Path:
        path = self.stage / name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(["" if v is None else _cell(v) for v in row])
        return path

    def finish_manifest(self) -> Path:
        """Hash the staged files into MANIFEST, then publish them, MANIFEST last.

        A file the previous MANIFEST lists and this run does not write is
        removed; files no MANIFEST lists are left alone."""
        staged = sorted(self.stage.iterdir())
        lines = [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}"
                 for path in staged]
        manifest = self.stage / "MANIFEST"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        old = self.out / "MANIFEST"
        listed = old.read_text(encoding="utf-8").splitlines() if old.is_file() else []
        old.unlink(missing_ok=True)   # the old run is now incomplete
        for name in {line.partition("  ")[2] for line in listed} - {path.name for path in staged}:
            if name and Path(name).name == name:   # a plain name inside out, never a path
                (self.out / name).unlink(missing_ok=True)
        for path in staged + [manifest]:
            os.replace(path, self.out / path.name)
        return self.out / "MANIFEST"


def _dead_pid(lock: Path) -> int | None:
    """The pid written in ``lock`` if no process has it, else None."""
    try:
        pid = int(lock.read_text(encoding="utf-8"))
        os.kill(pid, 0)   # signal 0 sends nothing: it only checks that the pid exists
    except (ProcessLookupError, OverflowError):
        return pid
    except (OSError, ValueError):   # no pid in the lock, or another user's process
        return None
    return None


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # numpy 2 reprs its scalars as np.float64(...)
    return str(value)


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):   # numpy scalars, np.bool_ included
        return obj.item()
    if dataclasses.is_dataclass(obj):
        return _jsonify(_fields(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    return json.dumps(_jsonify(obj), indent=2, sort_keys=True) + "\n"


#: result fields kept out of report.json: the per-replicate MSEs, and the
#: angle spectra, which table.csv summarises by each pair's extremes
_UNREPORTED = ("mse_replicates", "principal_angles")


def _fields(result) -> dict:
    """Every field of the result dataclass ``result`` but the unreported ones."""
    return {field.name: getattr(result, field.name) for field in dataclasses.fields(result)
            if field.name not in _UNREPORTED}


def _publish(out: Path | None, config: Config | None, header: list[str], rows,
             payload: dict, verdicts=(), lines=()) -> int:
    """Write config.json, table.csv, report.json and MANIFEST into ``out`` (unless
    None), then print a GATE line per ``(gate, ok, detail)`` verdict and the other
    ``lines``; 0, or 2 if a gate failed.  report.json is ``payload`` plus the
    verdicts as a ``gates`` map {gate: ok}."""
    if out is not None:
        try:
            with RunDirectory(out) as rundir:
                if config is not None:
                    rundir.write_text("config.json", _json_text(config))
                rundir.write_csv("table.csv", header, rows)
                gates = {gate: ok for gate, ok, _ in verdicts}
                rundir.write_text("report.json", _json_text(
                    {**payload, "gates": gates, "code_version": __version__}))
                rundir.finish_manifest()
        except OSError as exc:
            raise ConfigError(f"output directory {out}: {exc.strerror or exc}")
    for gate, ok, detail in verdicts:
        print(f"GATE {gate}: {'PASS' if ok else 'FAIL'} ({detail})")
    for line in lines:
        print(line)
    return 0 if all(ok for _, ok, _ in verdicts) else 2


# ---------------------------------------------------------------------------
# subcommands


def cmd_decompose(config: Config, out: Path) -> int:
    plan = _build_plan(config)
    config.reject_unread()
    report = mc_decompose(plan)
    residual_limit = max(
        RESIDUAL_SIGMA * report.stderr["identity_residual"],
        noise_floor(report.mse_direct),
    )
    ok = report.identity_residual <= residual_limit

    H = report.per_head_bias.shape[0]
    pairs = [(h, h2) for h in range(H) for h2 in range(h + 1, H)]
    rows = [["head", h, None, report.per_head_bias[h], report.per_head_var[h], None,
             report.per_head_mse[h], None, None, None] for h in range(H)]
    rows += [["pair", h, h2, None, None, report.cross_cov[h, h2], None,
              report.cov_stderr[h, h2], None, None] for h, h2 in pairs]
    rows.append(["ensemble", None, None, report.ensemble_bias_sq,
                 report.variance_term, report.covariance_term,
                 report.mse_direct, report.stderr["mse_direct"],
                 report.identity_residual, report.degenerate_weights])
    payload = {"command": "decompose", "master_seed": plan.master_seed,
               "n": plan.n, "R": plan.R, "Q": plan.Q, **_fields(report)}
    verdicts = [("identity_residual", ok,
                 f"residual {report.identity_residual:.3e} vs limit {residual_limit:.3e}")]
    # constructively orthogonal families must show vanishing cross-head
    # covariance; identical heads are evaluated once and copied, so their
    # covariance equals their variance by construction and is not gated
    if plan.projection.mix == 1.0 and H > 1:
        floor = noise_floor(report.mse_direct)
        worst = max(abs(report.cross_cov[h, h2]) / max(report.cov_stderr[h, h2], floor)
                    for h, h2 in pairs)
        verdicts.append(("cov_vanishes", worst <= COV_SIGMA,
                         f"worst pair {worst:.2f} sigma vs {COV_SIGMA:.1f}"))
    return _publish(
        out, config,
        ["record", "h", "h2", "bias", "variance", "covariance", "mse",
         "stderr", "identity_residual", "degenerate_weights"],
        rows, payload, verdicts,
    )


def cmd_hdi(weight_file: str, out: Path | None) -> int:
    heads = load_weight_file(weight_file)
    try:
        report = make_diversity_report(heads)
    except NeedsTwoHeads as exc:
        raise WeightFileError(f"weight file {weight_file}: {exc}") from None
    H, p, d_k = len(heads), heads[0].p, heads[0].d_k
    pairs = sorted(report.principal_angles.items())
    lines = [f"heads: {H}  p: {p}  d_k: {d_k}"]
    for (h, h2), angles in pairs:
        lines.append(
            f"pair ({h},{h2}): ||G||_F^2 = {report.gram_frobsq[h, h2]:.6g}  "
            f"angles [{angles.min():.4f}, {angles.max():.4f}] rad"
        )
    lines.append(f"hdi = {report.hdi:.6g}")
    lines.append(f"hdi_normalized = {report.hdi_normalized:.6g}")
    rows = [[h, h2, report.gram_frobsq[h, h2], float(a.min()), float(a.max())]
            for (h, h2), a in pairs]
    payload = {"command": "hdi", "weight_file": str(weight_file),
               "H": H, "p": p, "d_k": d_k, **_fields(report)}
    return _publish(out, None, ["h", "h2", "gram_frobsq", "min_angle", "max_angle"],
                    rows, payload, lines=lines)


def cmd_sweep_hdi(config: Config, out: Path) -> int:
    plan = _build_plan(config, reads_mix=False)
    config.read("projection.H", int, least=2)   # the diversity index compares pairs of heads
    mix_grid = config.read("mix_grid", [float])
    config.reject_unread()
    result = hdi_sweep(plan, mix_grid)
    ok_spearman = result.spearman <= SPEARMAN_MAX
    limit = ENDPOINT_SIGMA * result.endpoint_diff_stderr
    ok_endpoint = result.endpoint_diff > limit
    payload = {"command": "sweep-hdi", "master_seed": plan.master_seed, **_fields(result)}
    verdicts = [("spearman", ok_spearman,
                 f"rho = {result.spearman:.3f} vs max {SPEARMAN_MAX}"),
                ("endpoint_diff", ok_endpoint,
                 f"diff = {result.endpoint_diff:.4e} vs {limit:.4e}")]
    return _publish(out, config, ["mix", "hdi", "hdi_normalized", "mse", "stderr"],
                    result.rows, payload, verdicts)


def cmd_weights_compare(config: Config, out: Path) -> int:
    plan = _build_plan(config, reads_weights=False)
    config.read("projection.H", int, least=2)   # one head has one weighting, [1]
    rho_grid = config.read("rho_grid", [float])
    config.reject_unread()
    # expected verdict follows the construction: heads of unequal value
    # noise -> geometric should win; heads of equal quality -> it must not.
    # Under the gaussian law each head's spare direction is independent of
    # all else the heads read, so its scale acts only through its square.
    spec = plan.projection
    gaussian = plan.task.input_law == "gaussian"
    unequal = len({abs(s) if gaussian else s for s in spec.noise_scales or ()}) > 1
    if not unequal and spec.mix != 0.0:
        raise ConfigError("config field projection.mix must be 0 when projection.noise_scales "
                          "is unset or all equal (in magnitude, under the gaussian law), or "
                          f"weights-compare has no gate; got {spec.mix}")
    result = weighting_compare(plan, rho_grid)
    payload = {"command": "weights-compare", "master_seed": plan.master_seed,
               **_fields(result)}
    if unequal:
        ok = result.geometric_beats_uniform
        verdicts = [("geometric_beats_uniform", ok,
                     f"margin {result.best_margin_sigmas:.2f} sigma vs "
                     f"{decomposition.WEIGHTING_SIGMA:.1f} required")]
    else:
        ok = not result.geometric_beats_uniform
        verdicts = [("uniform_not_beaten", ok,
                     f"best margin {result.best_margin_sigmas:.2f} sigma")]
    best = (f"best scheme: {result.best_scheme}"
            + (f" (rho = {result.best_rho})" if result.best_rho else ""))
    return _publish(
        out, config,
        ["scheme", "rho", "mse", "stderr", "diff_vs_uniform", "diff_stderr"],
        result.rows, payload, verdicts, [best],
    )


def cmd_sweep_arch(config: Config, out: Path) -> int:
    task = _build_task(config)
    D = config.read("budget_D", int, least=2)   # budget 1 has one allocation, (1, 1)
    R = config.read("R", int, least=2)
    Q = config.read("Q", int, least=1)
    seed = config.read("master_seed", int)
    query_gain = config.read("projection.query_gain", float, 9.0)
    n_grid = config.read("n_grid", [int], least=1)
    config.reject_unread()
    try:
        trend = scaling_trend(task, D, n_grid, R, Q, seed, query_gain=query_gain)
    except EmptySweep as exc:   # raised only for a budget above task.p
        raise ConfigError(f"config field budget_D: {exc}") from None
    sweeps = trend.sweeps
    rows = [[n, row.H, row.d_k, row.mse, row.stderr, row.bias_sq, row.var_term]
            for n, sweep in sweeps.items() for row in sweep.rows]
    largest = max(sweeps)
    final = sweeps[largest]
    payload = {"command": "sweep-arch", "master_seed": seed, "budget_D": D, **_fields(trend)}
    verdicts = [("dk_nondecreasing", trend.nondecreasing,
                 f"d_k* sequence {[r[1] for r in trend.rows]}")]
    # only a budget with a divisor strictly between 1 and D has an interior allocation
    if any(1 < row.d_k < D for row in final.rows):
        verdicts.append(("interior_argmin", final.argmin_dk not in (1, D),
                         f"argmin d_k = {final.argmin_dk} at n = {largest}"))
    lines = [f"n = {n}: argmin (H, d_k) = ({sweep.argmin_H}, {sweep.argmin_dk})"
             + ("  [flat]" if sweep.flat else "") for n, sweep in sweeps.items()]
    return _publish(out, config, ["n", "H", "d_k", "mse", "stderr", "bias_sq", "var_term"],
                    rows, payload, verdicts, lines)


def cmd_optimize_proj(config: Config, out: Path) -> int:
    p = config.read("task.p", int, least=1)
    d_k = config.read("projection.d_k", int, least=1)
    H = config.read("projection.H", int, least=1)
    # seeds the generator directly, not through derive_seed
    seed = config.read("master_seed", int, least=0)
    config.reject_unread()
    _, trace = optimize_projections(p=p, d_k=d_k, H=H, seed=seed)
    final = trace[-1]
    ok = final <= OPTIMIZER_OBJECTIVE
    payload = {"command": "optimize-proj", "master_seed": seed, "final_objective": final,
               "steps_accepted": len(trace) - 1}
    verdict = ("optimizer_objective", ok,
               f"final J = {final:.3e} vs {OPTIMIZER_OBJECTIVE:.1e}")
    return _publish(out, config, ["step", "objective"], list(enumerate(trace)),
                    payload, [verdict])


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mha-nw-lab",
        description="Kernel-regression laboratory for multi-head attention ensembles.",
        epilog="MHA_NW_LAB_THREADS caps the replicate worker processes (0 = auto).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
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
    with warnings.catch_warnings():
        # one line per warning of any category; its location would tell the
        # user nothing (under python -m no frame lies outside the package)
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            worker_count()  # reject a malformed MHA_NW_LAB_THREADS on every subcommand
            if args.command == "hdi":
                out = Path(args.out) if args.out else None
                return cmd_hdi(args.weights, out)
            config = load_config(args.config)
            if args.seed is not None:
                config["master_seed"] = int(args.seed)
            configured_out = config.read("output_dir", str, None)
            out = args.out or configured_out
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
        except Infeasible as exc:   # only config subcommands build head families
            print(f"error: config fields projection.H, projection.d_k and task.p: "
                  f"infeasible: {exc}", file=sys.stderr)
            return 1
        except LabError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except MemoryError as exc:
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
