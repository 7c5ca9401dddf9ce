"""Every config field a subcommand reads is a live knob.

Each shipped config is shrunk (``SHRUNK``) and run once; then every leaf that
run read (``Config.fields_read``) is moved one step at a time: an int gains 1,
a float 0.1, each list entry moves alone, a string with a fixed set of choices
takes each other choice and any other string gains a suffix.  A move passes
if the output changes (stdout, or any ``table.csv`` by its path, so moving
``output_dir`` counts), or if the run exits 1 with exactly one stderr line
that names the moved field, or a field the move made the command read (a
``weights.kind`` of ``geometric`` asks for ``weights.rho``).
"""

import json
import re
from pathlib import Path

import pytest

from mha_nw_lab import cli

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
COMMANDS = {
    "decompose_canonical": "decompose",
    "sweep_hdi": "sweep-hdi",
    "sweep_arch": "sweep-arch",
    "weights_compare_hetero": "weights-compare",
    "weights_compare_homog": "weights-compare",
    "optimize_proj": "optimize-proj",
}
SHRUNK = {"R": 6, "n": 120, "Q": 8, "n_grid": [40, 80, 160]}


def leaves(config: dict, prefix=""):
    """(dotted name, value) of every non-section entry of ``config``."""
    for key, value in config.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def step(value):
    """``value`` moved one step: an int by 1, a float by 0.1, a string by a suffix."""
    if isinstance(value, str):
        return value + "_moved"
    return value + (1 if isinstance(value, int) else 0.1)


def moves(value, kind):
    """Every moved value of a leaf read as ``kind``."""
    if isinstance(kind, tuple):
        return [choice for choice in kind if choice != value]
    if isinstance(value, list):
        return [value[:i] + [step(v)] + value[i + 1:] for i, v in enumerate(value)]
    return [step(value)]


def moved(config: dict, field: str, value) -> dict:
    config = json.loads(json.dumps(config))
    *sections, key = field.split(".")
    section = config
    for name in sections:
        section = section[name]
    section[key] = value
    return config


class Runner:
    """Runs a subcommand in process, each run in a directory of its own, and
    keeps the ``Config`` each run read and the kind each field was read as."""

    def __init__(self, tmp_path, monkeypatch, capsys):
        self.tmp_path, self.monkeypatch, self.capsys = tmp_path, monkeypatch, capsys
        self.runs = 0
        self.configs = []
        self.kinds = {}
        load, read = cli.load_config, cli.Config.read

        def loading(path):
            self.configs.append(load(path))
            return self.configs[-1]

        def reading(config, field, kind, *args, **kwargs):
            self.kinds[field] = kind
            return read(config, field, kind, *args, **kwargs)

        monkeypatch.setattr(cli, "load_config", loading)
        monkeypatch.setattr(cli.Config, "read", reading)
        monkeypatch.setenv("MHA_NW_LAB_THREADS", "1")

    def __call__(self, command: str, config: dict):
        """(exit code, stderr, output, fields read) of one run."""
        self.runs += 1
        self.configs.clear()
        root = self.tmp_path / f"run{self.runs}"
        root.mkdir()
        (root / "config.json").write_text(json.dumps(config))
        self.monkeypatch.chdir(root)   # the shipped output_dir is relative
        code = cli.main([command, "--config", "config.json"])
        out, err = self.capsys.readouterr()
        tables = {str(path.relative_to(root)): path.read_bytes()
                  for path in sorted(root.rglob("table.csv"))}
        fields = self.configs[0].fields_read if self.configs else set()   # none if unloadable
        return code, err, (out, tables), fields


def names(err: str, field: str) -> bool:
    """``field`` appears in ``err`` as a whole dotted name (``n_grid[0]`` names n_grid)."""
    return re.search(rf"(?<![\w.]){re.escape(field)}(?![\w.])", err) is not None


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_field_read_changes_the_output_or_is_rejected_by_name(tmp_path, monkeypatch,
                                                                    capsys, name):
    command = COMMANDS[name]
    base = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    base.update({key: value for key, value in SHRUNK.items() if key in base})
    run = Runner(tmp_path, monkeypatch, capsys)
    code, err, base_output, read = run(command, base)
    assert code in (0, 2), err
    failures = []
    for field, value in leaves(base):
        assert field in read and moves(value, run.kinds[field])
        for value_moved in moves(value, run.kinds[field]):
            code, err, output, fields = run(command, moved(base, field, value_moved))
            asked = [field, *(fields - read)]
            rejected = code == 1 and err.count("\n") == 1 and any(names(err, f) for f in asked)
            if not (rejected or (code != 1 and output != base_output)):
                failures.append((field, value_moved, code, err))
    assert failures == []
