"""An iteration fails on a perturbed cell, a missing MANIFEST or exit code 2."""

import hashlib
from pathlib import Path

import pytest

import checks

REFERENCE = (Path(__file__).parent / "reference" / "decompose_canonical.csv").read_text()


def _write_run(out: Path, table: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "table.csv").write_text(table)
    digest = hashlib.sha256(table.encode()).hexdigest()
    (out / "MANIFEST").write_text(f"{digest}  table.csv\n")


def _perturb(table: str, old: str, new: str) -> str:
    assert old in table
    return table.replace(old, new, 1)


def test_reference_output_passes(tmp_path):
    _write_run(tmp_path, REFERENCE)
    assert checks.check_invocation(0, "GATE identity_residual: PASS (x)\n",
                                   tmp_path, REFERENCE, exact=True) == []


def test_last_bit_changes_and_plain_floats_pass(tmp_path):
    table = _perturb(REFERENCE, "np.float64(0.11721610162309401)", "0.11721610162309405")
    _write_run(tmp_path, _perturb(table, "1.7763568394002505e-15", "3.552713678800501e-15"))
    assert checks.check_invocation(0, "", tmp_path, REFERENCE, exact=True) == []


@pytest.mark.parametrize("new", ["np.float64(0.11721612162309401)", "0.12", ""])
def test_perturbed_cell_fails(tmp_path, new):
    _write_run(tmp_path, _perturb(REFERENCE, "np.float64(0.11721610162309401)", new))
    problems = checks.check_invocation(0, "", tmp_path, REFERENCE, exact=True)
    assert len(problems) == 1 and "bias" in problems[0]


OPTIMIZER = (Path(__file__).parent / "reference" / "optimize_proj.csv").read_text()


@pytest.mark.parametrize("new, passes", [
    ("8.471454903796679e-13", True),    # a last-bit change
    ("8.4e-13", False),                 # wrong in the second digit
    ("0.0", False),
])
def test_small_tail_cells_are_checked(tmp_path, new, passes):
    _write_run(tmp_path, _perturb(OPTIMIZER, "107,8.471454903796676e-13", f"107,{new}"))
    problems = checks.check_invocation(0, "", tmp_path, OPTIMIZER, exact=True)
    assert (problems == []) == passes


def test_changed_count_fails(tmp_path):
    _write_run(tmp_path, _perturb(REFERENCE, "1.7763568394002505e-15,0", "1.7763568394002505e-15,1"))
    assert checks.check_invocation(0, "", tmp_path, REFERENCE, exact=True)


def test_missing_manifest_fails(tmp_path):
    _write_run(tmp_path, REFERENCE)
    (tmp_path / "MANIFEST").unlink()
    assert checks.check_invocation(0, "", tmp_path, REFERENCE, exact=True) == ["MANIFEST missing"]


def test_manifest_hash_mismatch_fails(tmp_path):
    _write_run(tmp_path, REFERENCE)
    (tmp_path / "table.csv").write_text(REFERENCE + "\n")
    assert any("hash mismatch" in p for p in
               checks.check_invocation(0, "", tmp_path, REFERENCE, exact=True))


def test_exit_code_two_and_failing_gate_fail(tmp_path):
    _write_run(tmp_path, REFERENCE)
    problems = checks.check_invocation(
        2, "GATE identity_residual: FAIL (residual 1e-3 vs limit 1e-9)\n",
        tmp_path, REFERENCE, exact=True)
    assert problems == ["exit code 2",
                        "failing gate: GATE identity_residual: FAIL"]


def test_failing_gate_is_a_verdict_at_other_seeds(tmp_path):
    _write_run(tmp_path, REFERENCE)
    gate = "GATE dk_nondecreasing: FAIL (d_k* sequence [8, 4, 8])\n"
    assert checks.check_invocation(2, gate, tmp_path, REFERENCE, exact=False) == []
    assert checks.check_invocation(2, "", tmp_path, REFERENCE, exact=False)
    assert checks.check_invocation(1, gate, tmp_path, REFERENCE, exact=False)
    assert checks.check_invocation(0, gate, tmp_path, REFERENCE, exact=False)


def test_other_seeds_check_shape_only(tmp_path):
    table = _perturb(REFERENCE, "np.float64(0.11721610162309401)", "0.5")
    _write_run(tmp_path, table)
    assert checks.check_invocation(0, "", tmp_path, REFERENCE, exact=False) == []
    _write_run(tmp_path, _perturb(table, "0.5", "nan"))
    assert checks.check_invocation(0, "", tmp_path, REFERENCE, exact=False)
