import copy
import csv
import dataclasses
import errno
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mha_nw_lab import arch_search, cli, decomposition, diversity
from mha_nw_lab.diversity import DiversityReport

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
FIXTURES = CONFIG_DIR / "fixtures"


def small_decompose_config(out_dir, **overrides):
    config = {
        "version": 1,
        "task": {"family": "quadratic", "p": 8, "input_law": "gaussian"},
        "projection": {"d_k": 2, "H": 4, "mix": 1.0, "query_gain": 4.0},
        "weights": {"kind": "uniform"},
        "n": 120, "R": 40, "Q": 12,
        "master_seed": 5,
        "output_dir": str(out_dir),
    }
    config.update(overrides)
    return config


def small_config(command, out_dir):
    """A small config that ``command`` runs to completion."""
    if command == "sweep-arch":
        task = {"family": "sine_mixture", "p": 8, "input_law": "gaussian"}
        return {"version": 1, "task": task, "budget_D": 7,
                "n_grid": [50, 100, 200], "R": 20, "Q": 8, "master_seed": 3,
                "output_dir": str(out_dir)}
    if command == "optimize-proj":
        return {"version": 1, "task": {"p": 8}, "projection": {"d_k": 2, "H": 4},
                "master_seed": 3, "output_dir": str(out_dir)}
    config = small_decompose_config(out_dir)
    if command == "sweep-hdi":   # mix_grid takes the place of projection.mix
        del config["projection"]["mix"]
        config["mix_grid"] = [0.0, 0.5, 1.0]
    if command == "weights-compare":   # compares its own weight schemes
        del config["weights"]
        config["rho_grid"] = [0.5, 1.0]
        config["projection"]["mix"] = 0.0   # identical heads: the uniform-not-beaten gate
    return config


#: the gate tolerances and optimizer controls a config could once set; every
#: subcommand now rejects them as fields it does not read
FORMER_SETTINGS = {
    "gates": {"residual_sigma": 4.0, "cov_sigma": 4.0, "spearman_max": -0.8,
              "endpoint_sigma": 4.0, "weighting_sigma": 2.0, "optimizer_objective": 1e-8,
              "arch_interior": True, "arch_nondecreasing": True},
    "optimizer": {"steps": 5000, "step_size": 1.0},
}
FORMER_NAMES = ", ".join(sorted(f"{section}.{key}" for section, fields in FORMER_SETTINGS.items()
                                for key in fields))


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def printed_gates(stdout: str) -> dict:
    """The ``GATE name: PASS|FAIL`` lines of ``stdout`` as {name: passed}."""
    lines = [line.split(":")[0:2] for line in stdout.splitlines() if line.startswith("GATE ")]
    return {name[len("GATE "):]: verdict.split()[0] == "PASS" for name, verdict in lines}


class TestConfigValidation:
    def test_missing_n_names_field(self, tmp_path, capsys):
        config = small_decompose_config(tmp_path / "out")
        del config["n"]
        path = write_config(tmp_path, config)
        code = cli.main(["decompose", "--config", str(path)])
        assert code == 1
        assert "n" in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        config = small_decompose_config(tmp_path / "out", bogus_knob=3)
        path = write_config(tmp_path, config)
        code = cli.main(["decompose", "--config", str(path)])
        assert code == 1
        assert "bogus_knob" in capsys.readouterr().err

    def test_unknown_section_key(self, tmp_path, capsys):
        config = small_decompose_config(tmp_path / "out")
        config["task"]["smoothness"] = 2
        path = write_config(tmp_path, config)
        assert cli.main(["decompose", "--config", str(path)]) == 1
        assert "smoothness" in capsys.readouterr().err

    def test_wrong_version(self, tmp_path, capsys):
        config = small_decompose_config(tmp_path / "out", version=2)
        path = write_config(tmp_path, config)
        assert cli.main(["decompose", "--config", str(path)]) == 1
        assert "version" in capsys.readouterr().err

    def test_malformed_json_reports_byte_offset(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "task": ')
        assert cli.main(["decompose", "--config", str(path)]) == 1
        assert "byte offset" in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["config", "weights"])
    @pytest.mark.parametrize("text, message", [
        (b'{"version": 1, "R": 400, "R": 7}', "repeated key 'R'"),
        (b'{"version": 1, "\xff": 7}', "not UTF-8 text: byte offset 16: invalid start byte"),
        # the offset counts bytes: a two-byte character, and a CRLF line end
        # that text mode would read as one character, each move it
        ('{"version": 1, "task": {"family": "ééé",\n x}}'.encode(),
         "parse error at byte offset 45: Expecting property name enclosed in double quotes"),
        (b'{\r\n"version": 1,\r\n x}',
         "parse error at byte offset 19: Expecting property name enclosed in double quotes"),
    ], ids=["repeated-key", "non-utf8", "multibyte-offset", "crlf-offset"])
    def test_bad_json_text_exits_1_with_one_line(self, tmp_path, capsys, reader, text,
                                                 message):
        # json would keep a repeated key's last value, and a byte that is not
        # UTF-8 would escape as a UnicodeDecodeError
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        argv = (["decompose", "--config", str(path)] if reader == "config"
                else ["hdi", "--weights", str(path)])
        assert cli.main(argv) == 1
        what = "config" if reader == "config" else "weight file"
        assert capsys.readouterr().err == f"error: {what} {path}: {message}\n"

    @pytest.mark.parametrize("argv, field", [
        (["optimize-proj", "--config", "empty.json"], "config field output_dir"),
        (["optimize-proj", "--config", "config.json", "--out", ""], "--out"),
        (["hdi", "--weights", str(FIXTURES / "weights_orthogonal.json"), "--out", ""], "--out"),
    ], ids=["output_dir", "out", "hdi-out"])
    def test_empty_output_path_exits_1_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                       argv, field):
        # an empty path would publish into the working directory, and remove
        # any file that an older MANIFEST there lists
        monkeypatch.chdir(tmp_path)
        config = small_config("optimize-proj", tmp_path / "configured")
        write_config(tmp_path, config)
        write_config(tmp_path, dict(config, output_dir=""), "empty.json")
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {field} must be a nonempty path\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "empty.json"]

    @pytest.mark.parametrize("threads", ["abc", "-3", "2.5"])
    def test_malformed_thread_count_names_variable(self, tmp_path, capsys, monkeypatch,
                                                   threads):
        monkeypatch.setenv("MHA_NW_LAB_THREADS", threads)
        path = write_config(tmp_path, small_decompose_config(tmp_path / "out"))
        assert cli.main(["decompose", "--config", str(path)]) == 1
        assert "MHA_NW_LAB_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "out" / "MANIFEST").exists()
        hdi = ["hdi", "--weights", str(FIXTURES / "weights_orthogonal.json")]
        assert cli.main(hdi) == 1
        assert "MHA_NW_LAB_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("field, edit", [
        ("n", lambda c: c.update(n="abc")),
        ("projection.mix", lambda c: c["projection"].update(mix=True)),
        ("R", lambda c: c.update(R=2.9)),
        ("projection.query_gain", lambda c: c["projection"].update(query_gain=float("nan"))),
        ("projection.query_gain", lambda c: c["projection"].update(query_gain=10**400)),
        ("projection.noise_scales[1]",
         lambda c: c["projection"].update(noise_scales=[0.0, "1", 2.0, 3.0])),
    ], ids=["n-text", "mix-bool", "R-fraction", "query-gain-nan", "query-gain-huge-int",
            "noise-scale-text"])
    def test_mistyped_field_named_before_any_output(self, tmp_path, capsys, field, edit):
        config = small_decompose_config(tmp_path / "out")
        edit(config)
        path = write_config(tmp_path, config)
        assert cli.main(["decompose", "--config", str(path)]) == 1
        assert f"config field {field} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, edit, fragment", [
        ("decompose", lambda c: c.update(rho_grid=[0.5, 1.0]), "subcommand: rho_grid"),
        ("decompose", lambda c: c["weights"].update(rho=0.5), "subcommand: weights.rho"),
        ("sweep-arch", lambda c: c.update(projection={"H": 4}), "subcommand: projection.H"),
        ("sweep-arch", lambda c: c.update(n=100), "subcommand: n"),
        ("optimize-proj", lambda c: c.update(R=40), "subcommand: R"),
        ("decompose", lambda c: c.update(
            projection={"weight_file": str(FIXTURES / "weights_orthogonal.json")}),
         "projection has ['weight_file']"),
        ("decompose", lambda c: c["projection"].update(value_mode="balanced"),
         "subcommand: projection.value_mode"),
        ("sweep-hdi", lambda c: c.update(mix_grid=[0.0, 1.5]), "mix_grid must lie"),
        ("weights-compare", lambda c: c.update(rho_grid=[0.5, 1.2]), "rho_grid must lie"),
        ("weights-compare", lambda c: c.update(weights={"kind": "uniform"}),
         "subcommand: weights"),
        ("sweep-hdi", lambda c: c["projection"].update(mix=1.0),
         "subcommand: projection.mix"),
        ("optimize-proj", lambda c: c["task"].update(sigma=1.0), "subcommand: task.sigma"),
        ("sweep-arch", lambda c: c.update(budget_D=0), "config field budget_D must be >= 2, got 0"),
        ("sweep-arch", lambda c: c.update(budget_D=-4),
         "config field budget_D must be >= 2, got -4"),
        ("sweep-arch", lambda c: c.update(n_grid=[50, 50, 70]),
         "n_grid must be strictly ascending, got [50, 50, 70]"),
        ("sweep-arch", lambda c: c.update(n_grid=[50, 100]),
         "n_grid needs >= 3 sample sizes, got 2"),
        ("optimize-proj", lambda c: c.update(master_seed=-1),
         "config field master_seed must be >= 0, got -1"),
        ("sweep-hdi", lambda c: c.update(mix_grid=[0.5]), "mix_grid needs >= 2 mixes, got [0.5]"),
        ("sweep-hdi", lambda c: c.update(mix_grid=[]), "mix_grid needs >= 2 mixes, got []"),
        ("weights-compare", lambda c: c.update(rho_grid=[]), "rho_grid needs >= 1 rho, got []"),
        ("weights-compare", lambda c: c.update(rho_grid=[0.5, 0.5]),
         "rho_grid repeats a rho, got [0.5, 0.5]"),
        ("weights-compare", lambda c: c["projection"].update(noise_scales=[]),
         "config field projection.noise_scales has 0 entries for projection.H = 4 heads"),
        ("sweep-hdi", lambda c: c.update(mix_grid=[0.5, 0.5]),
         "mix_grid repeats a mix, got [0.5, 0.5]"),
        ("sweep-hdi", lambda c: c.update(mix_grid=[0.0, 0.5, 0.5, 1.0]),
         "mix_grid repeats a mix"),
        ("sweep-hdi", lambda c: c.update(mix_grid=[0.2, 0.5, 0.8]),
         "mix_grid must hold 0.0 and 1.0, got [0.2, 0.5, 0.8]"),
        ("sweep-hdi", lambda c: c.update(mix_grid=[0.0, 0.5]),
         "mix_grid must hold 0.0 and 1.0"),
        ("weights-compare", lambda c: c["projection"].update(mix=0.5),
         "config field projection.mix must be 0 when projection.noise_scales is unset"),
        ("weights-compare", lambda c: c["projection"].update(mix=1.0, noise_scales=[1.0] * 4),
         "config field projection.mix must be 0 when projection.noise_scales is unset or all "
         "equal"),
        ("decompose", lambda c: c["task"].update(sigma=1.0), "subcommand: task.sigma"),
        ("sweep-arch", lambda c: c["task"].update(heteroscedastic=True),
         "subcommand: task.heteroscedastic"),
        ("sweep-arch", lambda c: c["task"].update(family="quadratic"),
         "task.family and task.input_law give a task with no linear component "
         "(quadratic under the gaussian law)"),
        ("sweep-arch", lambda c: c["task"].update(family="quadratic", input_law="uniform"),
         "task.family and task.input_law give a task with no linear component "
         "(quadratic under the uniform law)"),
        ("sweep-arch", lambda c: c["task"].update(family="radial", input_law="uniform"),
         "task.family and task.input_law give a task with no linear component "
         "(radial under the uniform law)"),
        ("sweep-arch", lambda c: c["task"].update(family="radial"),
         "task.family and task.input_law give a task with no linear component "
         "(radial under the gaussian law)"),
        ("weights-compare", lambda c: c["task"].update(family="radial", param_seed=7),
         "subcommand: task.param_seed"),
        ("decompose", lambda c: c["task"].update(p=0), "config field task.p must be >= 1, got 0"),
        ("decompose", lambda c: c["projection"].update(H=0),
         "config field projection.H must be >= 1, got 0"),
        ("decompose", lambda c: c["projection"].update(d_k=0),
         "config field projection.d_k must be >= 1, got 0"),
        ("sweep-hdi", lambda c: c["projection"].update(H=-1),
         "config field projection.H must be >= 1, got -1"),
        ("weights-compare", lambda c: c["projection"].update(d_k=-2),
         "config field projection.d_k must be >= 1, got -2"),
        ("sweep-arch", lambda c: c["task"].update(p=0), "config field task.p must be >= 1, got 0"),
        ("optimize-proj", lambda c: c["task"].update(p=-1),
         "config field task.p must be >= 1, got -1"),
        ("optimize-proj", lambda c: c["projection"].update(H=0),
         "config field projection.H must be >= 1, got 0"),
        ("decompose", lambda c: c.update(weights={"kind": "custom", "alphas": [0.5, 0.5]}),
         "config field weights.alphas has 2 entries for projection.H = 4 heads"),
        ("decompose", lambda c: c["projection"].update(noise_scales=[0, 1]),
         "config field projection.noise_scales has 2 entries for projection.H = 4 heads"),
        ("decompose", lambda c: c["projection"].update(mix=1.5),
         "config field projection.mix must lie in [0, 1], got 1.5"),
        ("decompose", lambda c: c.update(weights={"kind": "geometric", "rho": 1.5}),
         "config field weights.rho: geometric weights need rho in (0, 1], got 1.5"),
        ("decompose", lambda c: c.update(weights={"kind": "custom", "alphas": [0.3] * 4}),
         "config field weights.alphas: weights sum to 1.2, expected 1"),
        ("decompose", lambda c: c["weights"].update(kind="harmonic"),
         "config field weights.kind must be one of ('uniform', 'geometric', 'fibonacci', "
         "'custom'), got 'harmonic'"),
        ("sweep-arch", lambda c: c["task"].update(family="cubic"),
         "config field task.family must be one of"),
        ("weights-compare", lambda c: c["task"].update(input_law="laplace"),
         "config field task.input_law must be one of ('gaussian', 'uniform'), got 'laplace'"),
        ("decompose", lambda c: c.update(R=1), "config field R must be >= 2, got 1"),
        ("sweep-arch", lambda c: c.update(n_grid=[0, 1000, 4000]),
         "config field n_grid[0] must be >= 1, got 0"),
        ("sweep-hdi", lambda c: c["projection"].update(H=1),
         "config field projection.H must be >= 2, got 1"),
        *[(command, lambda c: c.update(copy.deepcopy(FORMER_SETTINGS)),
           f"subcommand: {FORMER_NAMES}")
          for command in ("decompose", "sweep-hdi", "weights-compare", "sweep-arch",
                          "optimize-proj")],
    ], ids=["decompose-rho-grid", "uniform-weights-rho",
            "arch-projection-H", "arch-n-and-n-grid", "optimize-R", "weight-file",
            "value-mode", "mix-grid-range", "rho-grid-range", "compare-weights-kind",
            "hdi-projection-mix", "optimize-task-sigma", "arch-budget-zero",
            "arch-budget-negative", "arch-n-grid-repeat", "arch-n-grid-two-sizes",
            "optimize-negative-seed", "mix-grid-one", "mix-grid-empty", "rho-grid-empty",
            "rho-grid-repeat", "noise-scales-empty", "mix-grid-repeat", "mix-grid-inner-repeat",
            "mix-grid-no-endpoints", "mix-grid-no-mix-1", "compare-no-gate",
            "compare-equal-scales-mix-1", "task-sigma", "task-heteroscedastic",
            "arch-zero-skeleton",
            "arch-zero-skeleton-uniform-quadratic", "arch-zero-skeleton-uniform-radial",
            "arch-zero-skeleton-gaussian-radial", "radial-param-seed", "task-p-zero",
            "projection-H-zero", "projection-dk-zero", "hdi-projection-H-negative",
            "compare-projection-dk-negative", "arch-task-p-zero", "optimize-task-p-negative",
            "optimize-projection-H-zero", "custom-alphas-too-few", "noise-scales-too-few",
            "mix-above-1", "geometric-rho-above-1", "custom-alphas-sum", "unknown-weight-kind",
            "unknown-family", "unknown-input-law", "R-one", "arch-n-grid-entry-zero",
            "hdi-projection-H-one", "decompose-former-settings",
            "hdi-former-settings", "compare-former-settings", "arch-former-settings",
            "optimize-former-settings"])
    def test_field_that_cannot_count_exits_1_before_any_output(self, tmp_path, capsys,
                                                               monkeypatch, command, edit,
                                                               fragment):
        draws = []
        monkeypatch.setattr(decomposition, "sample_dataset", lambda *args: draws.append(args))
        monkeypatch.setattr(cli, "optimize_projections", lambda **kw: draws.append(kw))
        config = small_config(command, tmp_path / "out")
        edit(config)
        path = write_config(tmp_path, config)
        assert cli.main([command, "--config", str(path)]) == 1
        assert fragment in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not draws   # rejected before any Monte-Carlo work

    @pytest.mark.parametrize("command, write, message", [
        ("decompose", lambda tmp: write_config(tmp, [1, 2]),
         "config {}: top level must be an object"),
        ("decompose", lambda tmp: write_config(tmp, small_decompose_config(tmp / "out", task=5)),
         "config section task must be an object"),
        ("sweep-hdi", lambda tmp: write_config(tmp, dict(small_config("sweep-hdi", tmp / "out"),
                                                         mix_grid=0.5)),
         "config field mix_grid must be a list, got 0.5"),
        ("decompose", lambda tmp: tmp, "config {}: [Errno 21] Is a directory: '{}'"),
        ("decompose", lambda tmp: write_config(tmp, small_decompose_config(tmp / "out", n=0)),
         "config field n must be >= 1, got 0"),
        ("decompose", lambda tmp: write_config(tmp, small_decompose_config(tmp / "out", Q=0)),
         "config field Q must be >= 1, got 0"),
    ], ids=["top-level-list", "task-not-an-object", "mix-grid-not-a-list", "config-a-directory",
            "n-zero", "Q-zero"])
    def test_rejected_config_prints_one_error_line(self, tmp_path, capsys, command, write,
                                                   message):
        path = write(tmp_path)
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message.format(path, path)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, name, H, line", [
        ("decompose", "decompose_canonical", 5, "got 5*2 > 8"),
        ("weights-compare", "weights_compare_homog", 7, "got 7*2 > 12"),
    ], ids=["decompose", "weights-compare"])
    def test_mix_0_family_needs_room_for_orthogonal_heads(self, tmp_path, capsys, monkeypatch,
                                                          command, name, H, line):
        draws = []
        monkeypatch.setattr(decomposition, "sample_dataset", lambda *args: draws.append(args))
        config = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        config["projection"].update(mix=0.0, H=H)
        path = write_config(tmp_path, config)
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: config fields projection.H, projection.d_k and task.p: infeasible: "
            f"orthogonal construction needs H*d_k <= p, {line}\n")
        assert not (tmp_path / "out").exists()
        assert not draws

    @pytest.mark.parametrize("command, edit, message", [
        ("weights-compare", lambda c: c["projection"].update(H=1),
         "config field projection.H must be >= 2, got 1"),
        ("sweep-arch", lambda c: c.update(budget_D=1), "config field budget_D must be >= 2, got 1"),
        ("weights-compare", lambda c: c.update(rho_grid=[1.0]),
         "rho_grid needs a rho < 1, got [1.0]"),
        ("sweep-arch", lambda c: c.update(budget_D=9),
         "config field budget_D: no feasible allocation for budget_D = 9: H * d_k = D exceeds "
         "the input dimension p = 8"),
        ("weights-compare", lambda c: c["projection"].update(mix=1.0, noise_scales=[0, 1, 2, 3]),
         "config fields projection.H, projection.d_k and task.p: infeasible: noise_scales needs "
         "p >= H*d_k + H = 12, got p = 8"),
    ], ids=["compare-one-head", "arch-budget-one", "compare-rho-grid-all-uniform",
            "arch-budget-above-p", "compare-noise-scales-without-room"])
    def test_gate_without_a_contrast_or_infeasible_plan_exits_1_naming_fields(
            self, tmp_path, capsys, monkeypatch, command, edit, message):
        # one head, budget 1 or rho 1 alone would let the gate compare a result with itself
        draws = []
        monkeypatch.setattr(decomposition, "sample_dataset", lambda *args: draws.append(args))
        config = small_config(command, tmp_path / "out")
        edit(config)
        path = write_config(tmp_path, config)
        assert cli.main([command, "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()
        assert not draws

    def test_missing_output_dir(self, tmp_path, capsys):
        config = small_decompose_config(tmp_path / "out")
        del config["output_dir"]
        path = write_config(tmp_path, config)
        assert cli.main(["decompose", "--config", str(path)]) == 1
        assert "output_dir" in capsys.readouterr().err


class TestDecomposeCommand:
    def test_writes_files_and_passes(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, small_decompose_config(out))
        assert cli.main(["decompose", "--config", str(path)]) == 0
        for name in ("config.json", "report.json", "table.csv", "MANIFEST"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["gates"] == {"identity_residual": True, "cov_vanishes": True}
        assert report["code_version"]

    def test_manifest_hashes_match(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, small_decompose_config(out))
        cli.main(["decompose", "--config", str(path)])
        for line in (out / "MANIFEST").read_text().splitlines():
            digest, name = line.split("  ")
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert actual == digest

    def test_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        p1 = write_config(tmp_path, small_decompose_config(out1), "a.json")
        p2 = write_config(tmp_path, small_decompose_config(out2), "b.json")
        assert cli.main(["decompose", "--config", str(p1)]) == 0
        assert cli.main(["decompose", "--config", str(p2)]) == 0
        assert (out1 / "table.csv").read_bytes() == (out2 / "table.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_byte_identical_across_thread_counts(self, tmp_path, monkeypatch):
        # B = 4: the 40 replicates make 10 batches, so 4 workers fork
        monkeypatch.setattr(decomposition, "BATCH_BYTES", 4 * 12 * 120 * 8)
        outs = []
        for threads, tag in (("1", "t1"), ("4", "t4")):
            monkeypatch.setenv("MHA_NW_LAB_THREADS", threads)
            out = tmp_path / tag
            path = write_config(tmp_path, small_decompose_config(out), f"{tag}.json")
            assert cli.main(["decompose", "--config", str(path)]) == 0
            outs.append(out)
        for name in ("table.csv", "report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_seed_override_echoed(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, small_decompose_config(out))
        assert cli.main(["decompose", "--config", str(path), "--seed", "77"]) == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["master_seed"] == 77

    def test_echoed_config_round_trips(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        path = write_config(tmp_path, small_decompose_config(out1))
        assert cli.main(["decompose", "--config", str(path)]) == 0
        assert cli.main(["decompose", "--config", str(out1 / "config.json"),
                         "--out", str(out2)]) == 0
        assert (out1 / "table.csv").read_bytes() == (out2 / "table.csv").read_bytes()

    def test_lock_file_blocks_concurrent_use(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").touch()
        path = write_config(tmp_path, small_decompose_config(out))
        assert cli.main(["decompose", "--config", str(path)]) == 1
        assert "locked" in capsys.readouterr().err

    def test_lock_names_its_writer_while_held(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        path = write_config(tmp_path, small_decompose_config(out))
        write = cli.RunDirectory.write_text
        held = []

        def watched(self, name, text):
            held.append((self.lock.read_text(), os.getpid()))
            return write(self, name, text)

        monkeypatch.setattr(cli.RunDirectory, "write_text", watched)
        assert cli.main(["decompose", "--config", str(path)]) == 0
        assert held and all(text == str(pid) for text, pid in held)

    def test_stale_lock_names_its_pid_and_stays(self, tmp_path, capsys):
        finished = subprocess.Popen([sys.executable, "-c", "pass"])
        finished.wait()
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text(str(finished.pid))
        path = write_config(tmp_path, small_decompose_config(out))
        assert cli.main(["decompose", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"stale lock: pid {finished.pid}" in err and "not running" in err
        assert (out / ".lock").read_text() == str(finished.pid)
        assert not (out / "MANIFEST").exists()

    @pytest.mark.parametrize("command", ["decompose", "hdi"])
    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
    def test_out_that_cannot_be_a_directory_exits_1(self, tmp_path, capsys, command,
                                                    under_file):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = blocker / "sub" if under_file else blocker
        if command == "hdi":
            argv = ["hdi", "--weights", str(FIXTURES / "weights_orthogonal.json")]
        else:
            argv = ["decompose", "--config",
                    str(write_config(tmp_path, small_decompose_config(tmp_path / "unused")))]
        assert cli.main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: output directory {out}: " in err
        assert "Traceback" not in err
        assert blocker.read_text() == "kept\n"

    def test_write_failure_removes_partial_files(self, tmp_path, capsys, monkeypatch):
        def full_disk(self):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.RunDirectory, "finish_manifest", full_disk)
        out = tmp_path / "run"
        path = write_config(tmp_path, small_decompose_config(out))
        assert cli.main(["decompose", "--config", str(path)]) == 1
        assert f"error: output directory {out}: No space left on device" in \
            capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("failing", ["config.json", "table.csv", "report.json", "MANIFEST"])
    def test_failed_write_leaves_the_previous_run_intact(self, tmp_path, capsys, monkeypatch,
                                                         failing):
        out = tmp_path / "run"
        path = write_config(tmp_path, small_decompose_config(out))
        assert cli.main(["decompose", "--config", str(path)]) == 0
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        assert set(before) == {"config.json", "table.csv", "report.json", "MANIFEST"}

        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        if failing == "table.csv":
            monkeypatch.setattr(csv, "writer", full_disk)
        else:
            write_text = Path.write_text
            monkeypatch.setattr(Path, "write_text", lambda self, *args, **kwargs: (
                full_disk() if self.name == failing else write_text(self, *args, **kwargs)))
        assert cli.main(["decompose", "--config", str(path), "--seed", "6"]) == 1
        assert "No space left on device" in capsys.readouterr().err
        monkeypatch.undo()
        # no .stage, no .lock, and the first run byte for byte, MANIFEST verifying
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before
        for line in before["MANIFEST"].decode().splitlines():
            digest, name = line.split("  ")
            assert hashlib.sha256(before[name]).hexdigest() == digest

    def test_stage_left_by_a_killed_run_is_cleared(self, tmp_path):
        out = tmp_path / "run"
        (out / ".stage").mkdir(parents=True)
        (out / ".stage" / "table.csv").write_text("partial\n")
        (out / ".stage" / "leftover.txt").write_text("partial\n")
        path = write_config(tmp_path, small_decompose_config(out))
        assert cli.main(["decompose", "--config", str(path)]) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "MANIFEST", "config.json", "report.json", "table.csv"]
        assert "leftover.txt" not in (out / "MANIFEST").read_text()
        assert (out / "table.csv").read_text().startswith("record,")

    def test_publish_removes_what_the_previous_manifest_listed(self, tmp_path):
        # a sweep-arch directory from a version that also wrote dk_mse.dat,
        # reused by decompose, then by hdi, which writes no config.json
        out = tmp_path / "run"
        arch = write_config(tmp_path, small_config("sweep-arch", out), "arch.json")
        assert cli.main(["sweep-arch", "--config", str(arch)]) == 0
        stale = b"8 0.1 0.01\n"
        (out / "dk_mse.dat").write_bytes(stale)
        with open(out / "MANIFEST", "a", encoding="utf-8") as fh:
            fh.write(f"{hashlib.sha256(stale).hexdigest()}  dk_mse.dat\n")
        (out / "notes.txt").write_text("mine\n")   # listed by no MANIFEST
        path = write_config(tmp_path, small_decompose_config(out))
        assert cli.main(["decompose", "--config", str(path)]) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "MANIFEST", "config.json", "notes.txt", "report.json", "table.csv"]
        hdi = ["hdi", "--weights", str(FIXTURES / "weights_orthogonal.json")]
        assert cli.main(hdi + ["--out", str(out)]) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "MANIFEST", "notes.txt", "report.json", "table.csv"]
        assert (out / "notes.txt").read_text() == "mine\n"
        assert [line.split("  ")[1] for line in (out / "MANIFEST").read_text().splitlines()] \
            == ["report.json", "table.csv"]

    def test_lock_removed_after_success(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, small_decompose_config(out))
        cli.main(["decompose", "--config", str(path)])
        assert not (out / ".lock").exists()

    def test_idempotent_rerun_into_same_directory(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, small_decompose_config(out))
        assert cli.main(["decompose", "--config", str(path)]) == 0
        first = (out / "table.csv").read_bytes()
        assert cli.main(["decompose", "--config", str(path)]) == 0
        assert (out / "table.csv").read_bytes() == first

    def test_partial_results_removed_on_failure(self, tmp_path, monkeypatch):
        from mha_nw_lab.errors import LabError

        def boom(plan):
            raise LabError("synthetic failure")

        monkeypatch.setattr(cli, "mc_decompose", boom)
        out = tmp_path / "run"
        path = write_config(tmp_path, small_decompose_config(out))
        assert cli.main(["decompose", "--config", str(path)]) == 1
        assert not (out / "config.json").exists()
        assert not (out / ".lock").exists()

    def test_killed_replicate_worker_exits_1(self, tmp_path, capsys, monkeypatch):
        caller, draw = os.getpid(), decomposition.sample_dataset

        def killed_in_workers(task, n, seed):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return draw(task, n, seed)

        monkeypatch.setattr(decomposition, "sample_dataset", killed_in_workers)
        monkeypatch.setattr(decomposition, "BATCH_BYTES", 1)   # 40 batches: a worker forks
        monkeypatch.setenv("MHA_NW_LAB_THREADS", "2")
        out = tmp_path / "run"
        path = write_config(tmp_path, small_decompose_config(out))
        assert cli.main(["decompose", "--config", str(path)]) == 1
        assert "killed by signal 9 (Killed)" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ChildProcessError):   # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_failed_fork_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch):
        def no_fork():   # what a process limit gives
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(decomposition, "BATCH_BYTES", 1)   # 40 batches: a worker forks
        monkeypatch.setenv("MHA_NW_LAB_THREADS", "2")
        out = tmp_path / "run"
        path = write_config(tmp_path, small_decompose_config(out))
        assert cli.main(["decompose", "--config", str(path)]) == 1
        assert capsys.readouterr().err == ("error: cannot start the worker process for "
                                           f"replicates 20 to 39: {os.strerror(errno.EAGAIN)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command, config_name", [("decompose", "decompose_canonical"),
                                                      ("sweep-hdi", "sweep_hdi")],
                             ids=["decompose", "sweep-hdi"])
    def test_overflowing_run_prints_one_error_line(self, tmp_path, package_env, threads,
                                                   command, config_name):
        # a value vector at the float ceiling overflows head 2's estimates (in
        # every one of sweep-hdi's six head sets); the numpy overflow warnings
        # of each worker are not printed
        config = json.loads((CONFIG_DIR / f"{config_name}.json").read_text())
        config["task"]["p"] = 12
        config["projection"]["noise_scales"] = [0, 0, 1e308, 0]
        out = tmp_path / "run"
        path = write_config(tmp_path, dict(config, R=8, output_dir=str(out)))
        proc = subprocess.run([sys.executable, "-m", "mha_nw_lab", command, "--config",
                               str(path)], capture_output=True, text=True,
                              env=package_env(MHA_NW_LAB_THREADS=threads))
        assert proc.returncode == 1
        assert proc.stderr == "error: non-finite head estimate at replicate 0, head 2, query 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("size", [{"n": 10**13}, {"R": 10**13}, {"R": 10**17}],
                             ids=["n-582-TiB", "R-18-PiB", "R-beyond-ssize_t"])
    def test_run_too_large_for_memory_prints_one_error_line(self, tmp_path, capsys,
                                                            monkeypatch, size):
        # past the 47-bit address space, so nothing is allocated under any
        # overcommit policy: n's inputs take 582 TiB, R's tensor 18 PiB or more
        monkeypatch.setenv("MHA_NW_LAB_THREADS", "1")
        config = json.loads((CONFIG_DIR / "decompose_canonical.json").read_text())
        out = tmp_path / "run"
        path = write_config(tmp_path, dict(config, **size, output_dir=str(out)))
        assert cli.main(["decompose", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: out of memory: ")
        assert not out.exists()

    def test_nothing_written_while_computing(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        compute = cli.mc_decompose

        def watched(plan):
            assert not out.exists()
            return compute(plan)

        monkeypatch.setattr(cli, "mc_decompose", watched)
        path = write_config(tmp_path, small_decompose_config(out))
        assert cli.main(["decompose", "--config", str(path)]) == 0
        assert (out / "MANIFEST").exists()

    def test_byte_identical_across_blas_thread_counts(self, tmp_path, package_env):
        config = json.loads((CONFIG_DIR / "decompose_canonical.json").read_text())
        path = write_config(tmp_path, dict(config, n=4000, R=8))
        tables = []
        for threads in ("1", "2"):
            env = package_env(OPENBLAS_NUM_THREADS=threads, MHA_NW_LAB_THREADS="1")
            out = tmp_path / f"blas{threads}"
            proc = subprocess.run([sys.executable, "-m", "mha_nw_lab", "decompose", "--config",
                                   str(path), "--out", str(out)], capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
            tables.append((out / "table.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_gate_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # an unattainable rank-correlation gate forces the failure path
        monkeypatch.setattr(cli, "SPEARMAN_MAX", -1.01)
        out = tmp_path / "run"
        path = write_config(tmp_path, small_config("sweep-hdi", out))
        assert cli.main(["sweep-hdi", "--config", str(path)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["gates"]["spearman"] is False
        assert report["gates"] == printed_gates(capsys.readouterr().out)


class TestTableCells:
    def test_numeric_cells_parse_as_floats(self, tmp_path):
        dec, hdi = tmp_path / "dec", tmp_path / "hdi"
        assert cli.main(["decompose", "--config",
                         str(write_config(tmp_path, small_decompose_config(dec)))]) == 0
        assert cli.main(["hdi", "--weights", str(FIXTURES / "weights_identical.json"),
                         "--out", str(hdi)]) == 0
        for table in (dec / "table.csv", hdi / "table.csv"):
            with open(table, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert rows
            for row in rows:
                for column, cell in row.items():
                    if column != "record" and cell:
                        float(cell)


class TestReportJson:
    @pytest.mark.parametrize("command, result_type, metadata", [
        ("decompose", decomposition.DecompositionReport, {"command", "master_seed", "n", "R", "Q"}),
        ("sweep-hdi", decomposition.HdiSweepResult, {"command", "master_seed"}),
        ("weights-compare", decomposition.WeightingCompareResult, {"command", "master_seed"}),
        ("hdi", DiversityReport, {"command", "weight_file", "H", "p", "d_k"}),
        ("sweep-arch", arch_search.ScalingTrendResult, {"command", "master_seed", "budget_D"}),
        ("optimize-proj", None,
         {"command", "master_seed", "final_objective", "steps_accepted"}),
    ])
    def test_every_result_field_is_reported(self, tmp_path, capsys, command, result_type,
                                            metadata):
        out = tmp_path / "out"
        if command == "hdi":
            argv = ["hdi", "--weights", str(FIXTURES / "weights_orthogonal.json")]
        else:
            argv = [command, "--config", str(write_config(tmp_path, small_config(command, out)))]
        assert cli.main(argv + ["--out", str(out)]) in (0, 2)
        report = json.loads((out / "report.json").read_text())
        fields = {f.name for f in dataclasses.fields(result_type)} if result_type else set()
        omitted = {"mse_replicates", "principal_angles"}
        assert set(report) == (fields - omitted) | metadata | {"gates", "code_version"}
        assert report["gates"] == printed_gates(capsys.readouterr().out)
        assert report["gates"] or command == "hdi"

    def test_nested_results_keep_every_field(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, small_config("sweep-arch", out))
        assert cli.main(["sweep-arch", "--config", str(path)]) == 0
        report = json.loads((out / "report.json").read_text())
        sweep_fields = {f.name for f in dataclasses.fields(arch_search.ArchSweepResult)}
        row_fields = {f.name for f in dataclasses.fields(arch_search.ArchRow)}
        assert sorted(report["sweeps"], key=int) == ["50", "100", "200"]
        for sweep in report["sweeps"].values():
            assert set(sweep) == sweep_fields
            assert all(set(row) == row_fields for row in sweep["rows"])
        assert [row[0] for row in report["rows"]] == [50, 100, 200]

    def test_numpy_scalars_and_nested_dataclasses_serialise(self):
        @dataclasses.dataclass
        class Inner:
            value: float
            mse_replicates: list

        @dataclasses.dataclass
        class Outer:
            flag: object
            inner: Inner

        text = cli._json_text({"r": Outer(np.bool_(True), Inner(np.float64(0.5), [1.0])),
                               "k": np.int64(3)})
        assert json.loads(text) == {"r": {"flag": True, "inner": {"value": 0.5}}, "k": 3}


class TestHdiCommand:
    def test_orthogonal_fixture(self, capsys):
        code = cli.main(["hdi", "--weights", str(FIXTURES / "weights_orthogonal.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "hdi = 1" in out
        assert "hdi_normalized = 1" in out

    def test_identical_fixture_reports_both_indices(self, capsys):
        code = cli.main(["hdi", "--weights", str(FIXTURES / "weights_identical.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "hdi = 0.75" in out
        assert "hdi_normalized = 0" in out

    def test_truncated_file_exit_1_with_offset(self, tmp_path, capsys):
        bad = tmp_path / "trunc.json"
        bad.write_text('{"heads": [{"p": 2, "d_k": 1, "data": [1.0,')
        assert cli.main(["hdi", "--weights", str(bad)]) == 1
        assert "byte offset" in capsys.readouterr().err

    def test_shape_mismatch_names_head(self, tmp_path, capsys):
        bad = tmp_path / "shape.json"
        bad.write_text(json.dumps({"heads": [
            {"p": 2, "d_k": 2, "data": [1.0, 0.0, 0.0, 1.0]},
            {"p": 2, "d_k": 2, "data": [1.0, 0.0, 0.0]},
        ]}))
        assert cli.main(["hdi", "--weights", str(bad)]) == 1
        assert "head 1" in capsys.readouterr().err

    @pytest.mark.parametrize("head", [
        '{"p": true, "d_k": true, "data": [1.0]}',
        '{"p": 2, "d_k": 1, "data": ["abc", 1.0]}',
        '{"p": 2, "d_k": 1, "data": {"a": 1}}',
        '{"p": 2, "d_k": 1, "data": ["1.0", "0"]}',
        '{"p": 2, "d_k": 1, "data": [true, 0.0]}',
        '{"p": 2, "d_k": 1, "data": [[1.0], [0.0]]}',
        '{"p": 2, "d_k": 1, "data": [1' + "0" * 400 + ', 0.0]}',
    ], ids=["bool-shape", "text-entry", "object-data", "numeric-text", "bool-entry",
            "nested-list", "int-beyond-float"])
    def test_malformed_head_exit_1_names_head(self, tmp_path, capsys, head):
        bad = tmp_path / "bad.json"
        bad.write_text('{"heads": [' + head + ', {"p": 2, "d_k": 1, "data": [1.0, 0.0]}]}')
        assert cli.main(["hdi", "--weights", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error: weight file" in err and "head 0" in err
        assert "Traceback" not in err

    def test_one_head_file_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"heads": [{"p": 3, "d_k": 1, "data": [1, 0, 0]}]}))
        assert cli.main(["hdi", "--weights", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: weight file {path}: diversity report needs H >= 2 heads, got 1\n")
        assert not (tmp_path / "out").exists()

    def test_optional_output_directory(self, tmp_path):
        out = tmp_path / "hdi_out"
        code = cli.main(["hdi", "--weights", str(FIXTURES / "weights_orthogonal.json"),
                         "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "MANIFEST").exists()


class TestOtherCommands:
    def test_optimize_proj_infeasible_exit_1(self, tmp_path, capsys):
        config = {
            "version": 1,
            "task": {"p": 4},
            "projection": {"d_k": 2, "H": 4},
            "master_seed": 3,
            "output_dir": str(tmp_path / "out"),
        }
        path = write_config(tmp_path, config)
        assert cli.main(["optimize-proj", "--config", str(path)]) == 1
        assert "infeasible" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("d_k", [0, -1])
    def test_optimize_proj_without_a_key_column_exits_1(self, tmp_path, capsys, d_k):
        config = small_config("optimize-proj", tmp_path / "out")
        config["projection"]["d_k"] = d_k
        path = write_config(tmp_path, config)
        assert cli.main(["optimize-proj", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: config field projection.d_k must be >= 1, got {d_k}\n"
        assert not (tmp_path / "out").exists()

    def test_optimize_proj_success(self, tmp_path):
        config = {
            "version": 1,
            "task": {"p": 8},
            "projection": {"d_k": 2, "H": 4},
            "master_seed": 3,
            "output_dir": str(tmp_path / "out"),
        }
        path = write_config(tmp_path, config)
        assert cli.main(["optimize-proj", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["final_objective"] <= 1e-8

    @pytest.mark.parametrize("budget, allocations", [
        (7, [("7", "1"), ("1", "7")])], ids=["prime"])
    def test_sweep_arch_budget_without_interior_runs_one_gate(self, tmp_path, capsys, budget,
                                                              allocations):
        # no divisor strictly between 1 and budget_D, so no allocation is interior
        config = small_config("sweep-arch", tmp_path / "out")
        config["budget_D"] = budget
        path = write_config(tmp_path, config)
        assert cli.main(["sweep-arch", "--config", str(path)]) == 0
        assert printed_gates(capsys.readouterr().out) == {"dk_nondecreasing": True}
        with open(tmp_path / "out" / "table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["n"], r["H"], r["d_k"]) for r in rows] == [
            (n, H, d_k) for n in ("50", "100", "200") for H, d_k in allocations]

    def test_flat_sweep_still_evaluates_the_interior_gate(self, tmp_path, capsys, monkeypatch):
        trend = cli.scaling_trend

        def all_flat(*args, **kwargs):
            result = trend(*args, **kwargs)
            sweeps = {n: dataclasses.replace(s, flat=True) for n, s in result.sweeps.items()}
            return dataclasses.replace(result, sweeps=sweeps)

        monkeypatch.setattr(cli, "scaling_trend", all_flat)
        config = small_config("sweep-arch", tmp_path / "out")
        config["budget_D"] = 8
        code = cli.main(["sweep-arch", "--config", str(write_config(tmp_path, config))])
        out = capsys.readouterr().out
        gates = printed_gates(out)
        assert set(gates) == {"dk_nondecreasing", "interior_argmin"} and "[flat]" in out
        assert code == (0 if all(gates.values()) else 2)

    def test_sweep_hdi_gate_verdict_line(self, tmp_path, capsys):
        config = small_config("sweep-hdi", tmp_path / "out")
        config["R"] = 80
        path = write_config(tmp_path, config)
        code = cli.main(["sweep-hdi", "--config", str(path)])
        out = capsys.readouterr().out
        assert "GATE spearman" in out
        assert "GATE endpoint_diff" in out
        assert code in (0, 2)

    def test_optimize_proj_negative_seed_flag_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config("optimize-proj", tmp_path / "out"))
        assert cli.main(["optimize-proj", "--config", str(path), "--seed", "-1"]) == 1
        assert "config field master_seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_weights_compare_requires_rho_grid(self, tmp_path, capsys):
        config = small_config("weights-compare", tmp_path / "out")
        del config["rho_grid"]
        path = write_config(tmp_path, config)
        assert cli.main(["weights-compare", "--config", str(path)]) == 1
        assert "rho_grid" in capsys.readouterr().err

    def test_weights_compare_honours_weighting_sigma(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(decomposition, "WEIGHTING_SIGMA", 100.0)
        config = json.loads((CONFIG_DIR / "weights_compare_hetero.json").read_text())
        config["output_dir"] = str(tmp_path / "out")
        path = write_config(tmp_path, config)
        assert cli.main(["weights-compare", "--config", str(path)]) == 2
        out = capsys.readouterr().out
        assert "GATE geometric_beats_uniform: FAIL" in out and "vs 100.0 required" in out

    @pytest.mark.parametrize("scales, law, gate", [
        (None, "gaussian", "uniform_not_beaten"), ([0.0] * 4, "gaussian", "uniform_not_beaten"),
        ([1.0] * 4, "gaussian", "uniform_not_beaten"),
        ([0.0, 1.0, 2.0, 3.0], "gaussian", "geometric_beats_uniform"),
        ([1.0, -1.0, 1.0, -1.0], "gaussian", "uniform_not_beaten"),
        ([1.0, -1.0, 1.0, -1.0], "uniform", "geometric_beats_uniform"),
    ], ids=["unset", "all-zero", "all-equal", "unequal", "sign-only-gaussian",
            "sign-only-uniform"])
    def test_weights_compare_gate_follows_whether_heads_differ_in_quality(
            self, tmp_path, capsys, scales, law, gate):
        # equal scales give heads of one quality, as unset scales do; under the
        # gaussian law so do scales that differ only in sign, under the uniform
        # law they need not
        config = small_config("weights-compare", tmp_path / "out")
        config["task"].update(family="radial", p=12, input_law=law)
        if scales is not None:
            config["projection"].update(noise_scales=scales)
        path = write_config(tmp_path, config)
        code = cli.main(["weights-compare", "--config", str(path)])
        gates = printed_gates(capsys.readouterr().out)
        assert list(gates) == [gate]
        assert code == (0 if gates[gate] else 2)

    @pytest.mark.parametrize("mix, scales, gates", [
        (0.0, None, {"identity_residual"}),
        (0.0, [0.0] * 4, {"identity_residual"}),
        (0.0, [1.0] * 4, {"identity_residual"}),
        (0.0, [0.0, 1.0, 2.0, 3.0], {"identity_residual"}),
        (1.0, [0.0, 1.0, 2.0, 3.0], {"identity_residual", "cov_vanishes"}),
        (0.5, None, {"identity_residual"}),
    ], ids=["identical", "all-zero-scales", "equal-scales", "unequal-scales",
            "orthogonal-unequal-scales", "blend"])
    def test_decompose_cov_gate_follows_the_heads(self, tmp_path, capsys, mix, scales, gates):
        # only the orthogonal family (mix 1) gets a covariance gate; identical
        # heads' covariance equals their variance by construction, so is not gated
        config = small_decompose_config(tmp_path / "out")
        config["task"]["p"] = 12
        config["projection"].update(mix=mix)
        if scales is not None:
            config["projection"].update(noise_scales=scales)
        path = write_config(tmp_path, config)
        code = cli.main(["decompose", "--config", str(path)])
        printed = printed_gates(capsys.readouterr().out)
        assert set(printed) == gates
        assert code == (0 if all(printed.values()) else 2)

    def test_all_zero_scales_need_no_spare_dimensions(self, tmp_path, capsys):
        # at p = 8 = H*d_k there is no spare dimension; all-zero scales need
        # none, run, and write the table of the unset scales' identical heads
        tables = []
        for name, scales in (("unset", None), ("all-zero", [0, 0, 0, 0])):
            config = small_decompose_config(tmp_path / name, R=8, n=60, Q=6)
            config["projection"].update(mix=0.0)
            if scales is not None:
                config["projection"].update(noise_scales=scales)
            path = write_config(tmp_path, config, f"{name}.json")
            assert cli.main(["decompose", "--config", str(path)]) == 0, capsys.readouterr().err
            tables.append((tmp_path / name / "table.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_stalled_optimizer_exits_1_with_no_output(self, tmp_path, capsys, monkeypatch):
        # every candidate scores worse than the last, so each step is rejected
        calls = iter(range(1, 1000))
        monkeypatch.setattr(diversity, "projection_objective", lambda wks, d_k: float(next(calls)))
        path = write_config(tmp_path, small_config("optimize-proj", tmp_path / "out"))
        assert cli.main(["optimize-proj", "--config", str(path)]) == 1
        assert "error: objective stuck at 1.000e+00 after 10 consecutive step rejections" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestEntryPoint:
    def test_version_flag(self, package_env):
        proc = subprocess.run(
            [sys.executable, "-m", "mha_nw_lab.cli", "--version"],
            capture_output=True, text=True, env=package_env(),
        )
        assert proc.returncode == 0
        assert "mha-nw-lab" in proc.stdout

    def test_package_runs_as_module(self, package_env):
        proc = subprocess.run(
            [sys.executable, "-m", "mha_nw_lab", "--version"],
            capture_output=True, text=True, env=package_env(),
        )
        assert proc.returncode == 0
        assert "mha-nw-lab" in proc.stdout

    def test_warnings_print_as_warning_lines_naming_their_head_set(self, tmp_path, package_env):
        # sharp heads: the pilot (5 replicates) and the main run (10) each warn
        config = small_config("weights-compare", tmp_path / "out")
        config["task"]["p"] = 4
        config["projection"].update(d_k=1, H=2, query_gain=200.0)
        config.update(n=50, R=10, Q=8, master_seed=3)
        proc = subprocess.run([sys.executable, "-m", "mha_nw_lab", "weights-compare", "--config",
                               str(write_config(tmp_path, config))],
                              capture_output=True, text=True, env=package_env())
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 2 and all(line.startswith("warning: ") for line in lines)
        for line, R in zip(lines, (5, 10)):
            assert f"degenerate (entropy < 1e-06 nats) in head set 1 of 1 ({R} replicates) " \
                   "at n=50, H=2, d_k=1; per head [" in line

    def test_every_exported_name_resolves(self):
        import mha_nw_lab

        assert [n for n in mha_nw_lab.__all__ if not hasattr(mha_nw_lab, n)] == []

    def test_help_lists_subcommands(self, package_env):
        proc = subprocess.run(
            [sys.executable, "-m", "mha_nw_lab.cli", "--help"],
            capture_output=True, text=True, env=package_env(),
        )
        assert proc.returncode == 0
        for name in ("decompose", "hdi", "sweep-hdi", "sweep-arch",
                     "weights-compare", "optimize-proj"):
            assert name in proc.stdout
