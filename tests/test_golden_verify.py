"""The verify-theorems check lines of each catalog entry match the pinned seed-0 transcript.

`golden/verify_all_seed0.txt` is the full stdout of
`orthokit verify-theorems --all --seed 0`.  The three slowest entries are
left to the end-to-end run; the ten checked here still cover every check
kind, including the all-subsets sweep.
"""

from pathlib import Path

import pytest

from orthokit import catalog, verify

GOLDEN = Path(__file__).parent / "golden" / "verify_all_seed0.txt"
SLOW = ("bool8_reduct", "fig2_reduct", "fig2_filter_no0_reduct")


def golden_lines(name):
    return [line for line in GOLDEN.read_text(encoding="utf-8").splitlines()
            if line.startswith(f"check {name}: ")]


@pytest.mark.parametrize("e", [e for e in catalog() if e.name not in SLOW], ids=lambda e: e.name)
def test_entry_checks_match_the_golden_transcript(e):
    assert [c.line() for c in verify.entry_checks(e, seed=0)] == golden_lines(e.name)


def test_every_golden_check_line_belongs_to_one_entry():
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    checks = [line for line in lines if line.startswith("check ")]
    assert sum(len(golden_lines(e.name)) for e in catalog()) == len(checks) == 105
