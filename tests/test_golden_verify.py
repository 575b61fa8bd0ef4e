"""The verify-theorems check lines of each catalog entry match the pinned seed-0 transcript.

`golden/verify_all_seed0.txt` is the full stdout of
`orthokit verify-theorems --all --seed 0`; every entry is checked here.
"""

from pathlib import Path

import pytest

from orthokit import catalog, verify

GOLDEN = Path(__file__).parent / "golden" / "verify_all_seed0.txt"


def golden_lines(name):
    return [line for line in GOLDEN.read_text(encoding="utf-8").splitlines()
            if line.startswith(f"check {name}: ")]


@pytest.mark.parametrize("e", catalog(), ids=lambda e: e.name)
def test_entry_checks_match_the_golden_transcript(e):
    assert [c.line() for c in verify.entry_checks(e, seed=0)] == golden_lines(e.name)


def test_every_golden_check_line_belongs_to_one_entry():
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    checks = [line for line in lines if line.startswith("check ")]
    assert sum(len(golden_lines(e.name)) for e in catalog()) == len(checks) == 105
