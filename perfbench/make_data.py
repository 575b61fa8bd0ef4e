"""Regenerate the frozen inputs under perfbench/data from the checkout's orthokit.

    python3 perfbench/make_data.py

The files are committed so that every commit is measured on the same inputs:
the `.ioa` tables of the catalog reducts, the reducts of three generated
families (whole lattice, unrelabeled), and the `verify-theorems --all --seed 0`
transcript that catalog-verify compares against.  Rerun it only to change the
benchmark's inputs, never as part of a change being measured.
"""

import io
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import families  # noqa: E402
from orthokit import catalog_io, cli, core, implication  # noqa: E402
from workloads import DATA, GOLDEN_VERIFY, QUERY_FILES  # noqa: E402

FAMILY_FILES = {"mo3_reduct": families.horizontal_sum((2, 2, 2)),
                "hs3_2_reduct": families.horizontal_sum((3, 2)),
                "mo5_reduct": families.horizontal_sum((2,) * 5)}


def main() -> None:
    DATA.mkdir(exist_ok=True)
    for name in QUERY_FILES:
        (DATA / f"{name}.ioa").write_text(catalog_io.serialize_ioa(catalog_io.entry(name).payload), encoding="utf-8")
    for name, model in FAMILY_FILES.items():
        identity = families.Relabeled(model, tuple(range(model.n)))
        L = catalog_io.parse_olat(identity.olat(random.Random(0)))
        T = implication.derive_bullet(core.as_orthosemilattice(L))
        (DATA / f"{name}.ioa").write_text(catalog_io.serialize_ioa(T), encoding="utf-8")
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(["verify-theorems", "--all", "--seed", "0"])
    if rc != 0:
        sys.exit(f"verify-theorems exited {rc}; not freezing a failing transcript")
    GOLDEN_VERIFY.write_text(buf.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    main()
