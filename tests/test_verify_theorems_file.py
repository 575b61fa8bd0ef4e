"""`verify-theorems` on an input file runs the same checks as on the catalog entry.

The file's name takes the place of the entry name in every line.  An input
whose checks would scan more than a budget allows is refused with exit 2 and
an `error:` line.
"""

from pathlib import Path

import pytest

from orthokit import catalog, entry, serialize_ioa
from orthokit.catalog_io import boolean_lattice
from orthokit.cli import main
from orthokit.core import as_orthosemilattice
from orthokit.implication import derive_bullet

GOLDEN = Path(__file__).parent / "golden"
REDUCTS = [e.name for e in catalog() if e.kind == "implication"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", REDUCTS)
def test_every_catalog_reduct_written_to_a_file_prints_its_catalog_lines(tmp_path, capsys, name):
    f = tmp_path / f"{name}.ioa"
    f.write_text(serialize_ioa(entry(name).payload), encoding="utf-8")
    code, out, _ = run(capsys, "verify-theorems", str(f), "--seed", "3")
    want_code, want, _ = run(capsys, "verify-theorems", "--catalog", name, "--seed", "3")
    assert code == want_code
    assert out == want.replace(f"{name}:", f"{name}.ioa:").replace(f"theorems {name} ", f"theorems {name}.ioa ")


def test_file_over_the_term_scan_budget_is_exit_2(tmp_path, capsys):
    f = tmp_path / "bool32_reduct.ioa"
    f.write_text(serialize_ioa(derive_bullet(as_orthosemilattice(boolean_lattice(5)))), encoding="utf-8")
    code, out, err = run(capsys, "verify-theorems", str(f))
    assert code == 2 and out == ""
    assert err.startswith("error: term scan size ")


@pytest.mark.parametrize("argv", [
    (),
    ("--catalog", "bool4_reduct", str(GOLDEN / "bool4_reduct.ioa")),
    ("--all", str(GOLDEN / "bool4_reduct.ioa")),
], ids=["no-input", "file-and-catalog", "file-and-all"])
def test_no_input_or_two_inputs_is_exit_2(capsys, argv):
    code, out, _ = run(capsys, "verify-theorems", *argv)
    assert code == 2 and out == ""
