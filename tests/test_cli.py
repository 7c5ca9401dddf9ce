import csv
import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mha_nw_lab import arch_search, cli, decomposition
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
                "gates": {"arch_interior": False, "arch_nondecreasing": True},
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
        ("gates.residual_sigma", lambda c: c.update(gates={"residual_sigma": "4"})),
        ("R", lambda c: c.update(R=2.9)),
        ("projection.query_gain", lambda c: c["projection"].update(query_gain=float("nan"))),
        ("projection.query_gain", lambda c: c["projection"].update(query_gain=10**400)),
        ("projection.noise_scales[1]",
         lambda c: c["projection"].update(noise_scales=[0.0, "1", 2.0, 3.0])),
    ], ids=["n-text", "gate-text", "R-fraction", "query-gain-nan", "query-gain-huge-int",
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
        ("decompose", lambda c: c.update(gates={"spearman_max": -0.8}),
         "subcommand: gates.spearman_max"),
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
        ("sweep-arch", lambda c: c.update(budget_D=0), "budget_D must be >= 1, got 0"),
        ("sweep-arch", lambda c: c.update(budget_D=-4), "budget_D must be >= 1, got -4"),
        ("sweep-arch", lambda c: c.update(n_grid=[50, 50, 70]),
         "n_grid must be strictly ascending, got [50, 50, 70]"),
        ("sweep-arch", lambda c: c.update(n_grid=[50, 100]),
         "n_grid needs >= 3 sample sizes, got 2"),
        ("optimize-proj", lambda c: c.update(master_seed=-1),
         "master_seed must be nonnegative"),
        ("sweep-hdi", lambda c: c.update(mix_grid=[0.5]), "mix_grid needs >= 2 mixes, got [0.5]"),
        ("sweep-hdi", lambda c: c.update(mix_grid=[]), "mix_grid needs >= 2 mixes, got []"),
        ("weights-compare", lambda c: c.update(rho_grid=[]), "rho_grid needs >= 1 rho, got []"),
        ("weights-compare", lambda c: c["projection"].update(noise_scales=[]),
         "noise_scales has 0 entries for H = 4 heads"),
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
        ("sweep-arch", lambda c: c["gates"].update(arch_nondecreasing=False),
         "config fields gates.arch_interior and gates.arch_nondecreasing are both false"),
        ("sweep-arch", lambda c: c["gates"].update(arch_interior=True),
         "config field gates.arch_interior must be false for budget_D = 7"),
        ("sweep-arch", lambda c: (c.update(budget_D=1), c["gates"].update(arch_interior=True)),
         "config field gates.arch_interior must be false for budget_D = 1"),
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
        ("optimize-proj", lambda c: c.update(optimizer={"steps": 0}),
         "config field optimizer.steps must be >= 1, got 0"),
        ("optimize-proj", lambda c: c.update(optimizer={"steps": -3}),
         "config field optimizer.steps must be >= 1, got -3"),
        ("optimize-proj", lambda c: c.update(optimizer={"step_size": 0}),
         "config field optimizer.step_size must be > 0, got 0.0"),
        ("optimize-proj", lambda c: c.update(optimizer={"step_size": -1.0}),
         "config field optimizer.step_size must be > 0, got -1.0"),
    ], ids=["decompose-rho-grid", "decompose-foreign-gate", "uniform-weights-rho",
            "arch-projection-H", "arch-n-and-n-grid", "optimize-R", "weight-file",
            "value-mode", "mix-grid-range", "rho-grid-range", "compare-weights-kind",
            "hdi-projection-mix", "optimize-task-sigma", "arch-budget-zero",
            "arch-budget-negative", "arch-n-grid-repeat", "arch-n-grid-two-sizes",
            "optimize-negative-seed", "mix-grid-one", "mix-grid-empty", "rho-grid-empty",
            "noise-scales-empty", "mix-grid-repeat", "mix-grid-inner-repeat",
            "mix-grid-no-endpoints", "mix-grid-no-mix-1", "compare-no-gate",
            "arch-no-gate", "arch-interior-prime-budget", "arch-interior-budget-1",
            "task-sigma", "task-heteroscedastic", "arch-zero-skeleton",
            "arch-zero-skeleton-uniform-quadratic", "arch-zero-skeleton-uniform-radial",
            "arch-zero-skeleton-gaussian-radial", "optimize-steps-zero",
            "optimize-steps-negative", "optimize-step-size-zero",
            "optimize-step-size-negative"])
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
        outs = []
        for threads, tag in (("1", "t1"), ("4", "t4")):
            monkeypatch.setenv("MHA_NW_LAB_THREADS", threads)
            out = tmp_path / tag
            path = write_config(tmp_path, small_decompose_config(out), f"{tag}.json")
            assert cli.main(["decompose", "--config", str(path)]) == 0
            outs.append(out)
        assert (outs[0] / "table.csv").read_bytes() == (outs[1] / "table.csv").read_bytes()

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
        monkeypatch.setenv("MHA_NW_LAB_THREADS", "2")
        out = tmp_path / "run"
        path = write_config(tmp_path, small_decompose_config(out))
        assert cli.main(["decompose", "--config", str(path)]) == 1
        assert "killed by signal 9 (Killed)" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ChildProcessError):   # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

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

    def test_byte_identical_across_blas_thread_counts(self, tmp_path):
        config = json.loads((CONFIG_DIR / "decompose_canonical.json").read_text())
        path = write_config(tmp_path, dict(config, n=4000, R=8))
        src = str(Path(cli.__file__).resolve().parents[1])
        tables = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, MHA_NW_LAB_THREADS="1",
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            out = tmp_path / f"blas{threads}"
            proc = subprocess.run([sys.executable, "-m", "mha_nw_lab", "decompose", "--config",
                                   str(path), "--out", str(out)], capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
            tables.append((out / "table.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_gate_failure_exits_2(self, tmp_path, capsys):
        # an unattainable rank-correlation gate forces the failure path
        out = tmp_path / "run"
        config = small_config("sweep-hdi", out)
        config["gates"] = {"spearman_max": -1.01}
        path = write_config(tmp_path, config)
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

    def test_sweep_arch_prime_budget_two_rows(self, tmp_path, capsys):
        config = {
            "version": 1,
            "task": {"family": "sine_mixture", "p": 8, "input_law": "gaussian"},
            "budget_D": 7,
            "n_grid": [50, 100, 200], "R": 20, "Q": 8,
            "master_seed": 3,
            "gates": {"arch_interior": False, "arch_nondecreasing": True},
            "output_dir": str(tmp_path / "out"),
        }
        path = write_config(tmp_path, config)
        assert cli.main(["sweep-arch", "--config", str(path)]) == 0
        assert "GATE dk_nondecreasing: PASS" in capsys.readouterr().out
        with open(tmp_path / "out" / "table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # (7, 1) and (1, 7) at each n
        assert [(r["n"], r["H"], r["d_k"]) for r in rows] == [
            (n, H, d_k) for n in ("50", "100", "200") for H, d_k in (("7", "1"), ("1", "7"))]

    def test_flat_sweep_still_evaluates_the_interior_gate(self, tmp_path, capsys, monkeypatch):
        trend = cli.scaling_trend

        def all_flat(*args, **kwargs):
            result = trend(*args, **kwargs)
            sweeps = {n: dataclasses.replace(s, flat=True) for n, s in result.sweeps.items()}
            return dataclasses.replace(result, sweeps=sweeps)

        monkeypatch.setattr(cli, "scaling_trend", all_flat)
        config = small_config("sweep-arch", tmp_path / "out")
        config.update(budget_D=8, gates={"arch_interior": True, "arch_nondecreasing": False})
        code = cli.main(["sweep-arch", "--config", str(write_config(tmp_path, config))])
        out = capsys.readouterr().out
        assert "GATE interior_argmin: " in out and "[flat]" in out
        assert code == (0 if "GATE interior_argmin: PASS" in out else 2)

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
        assert "master_seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_weights_compare_requires_rho_grid(self, tmp_path, capsys):
        config = small_config("weights-compare", tmp_path / "out")
        del config["rho_grid"]
        path = write_config(tmp_path, config)
        assert cli.main(["weights-compare", "--config", str(path)]) == 1
        assert "rho_grid" in capsys.readouterr().err

    def test_weights_compare_honours_weighting_sigma(self, tmp_path, capsys):
        config = json.loads((CONFIG_DIR / "weights_compare_hetero.json").read_text())
        config["output_dir"] = str(tmp_path / "out")
        config["gates"] = {"weighting_sigma": 100}
        path = write_config(tmp_path, config)
        assert cli.main(["weights-compare", "--config", str(path)]) == 2
        assert "GATE geometric_beats_uniform: FAIL" in capsys.readouterr().out


class TestEntryPoint:
    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mha_nw_lab.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "mha-nw-lab" in proc.stdout

    def test_package_runs_as_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mha_nw_lab", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "mha-nw-lab" in proc.stdout

    def test_every_exported_name_resolves(self):
        import mha_nw_lab

        assert [n for n in mha_nw_lab.__all__ if not hasattr(mha_nw_lab, n)] == []

    def test_help_lists_subcommands(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mha_nw_lab.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for name in ("decompose", "hdi", "sweep-hdi", "sweep-arch",
                     "weights-compare", "optimize-proj"):
            assert name in proc.stdout
