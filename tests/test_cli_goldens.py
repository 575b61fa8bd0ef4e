"""The CLI prints the pinned transcripts of `tests/golden` byte for byte, with the pinned exit codes.

Each case runs `orthokit.cli.main` on a golden input file and compares all of
stdout with a golden transcript.  The `verify-theorems --all` transcript is
pinned at seed 0; other seeds draw other random terms, yet only the header
line, which names the seed, may differ.
"""

from pathlib import Path

import pytest

from orthokit.cli import main

GOLDEN = Path(__file__).parent / "golden"
BENCH_COPY = Path(__file__).parent.parent / "perfbench" / "data" / "verify_all_seed0.txt"


def golden(name: str) -> str:
    return str(GOLDEN / name)


# (argv, golden transcript, replacement for its header line or None, exit code)
CASES = [
    # 0,3 and 1,11 break both kernel rules, 1,3 is an ideal, 1,2,3 breaks D1 only
    (("ideals", golden("bool4_reduct.ioa"), "--check", "0,3"), "ideals_check_bool4_reduct_0_3.txt", None, 0),
    (("ideals", golden("fig2_reduct.ioa"), "--check", "1,11"), "ideals_check_fig2_reduct_1_11.txt", None, 0),
    (("ideals", golden("bool4_reduct.ioa"), "--check", "1,3"), "ideals_check_bool4_reduct_1_3.txt", None, 0),
    (("ideals", golden("bool4_reduct.ioa"), "--check", "1,2,3"), "ideals_check_bool4_reduct_1_2_3.txt", None, 0),
    # these files fail some checks by construction
    (("validate", golden("mo2_comp_swapped.olat")), "validate_mo2_comp_swapped.txt", None, 1),
    (("validate", golden("o6_comp_crossed.olat"), "--strong"), "validate_o6_comp_crossed.txt", None, 1),
    # fig2_reduct (n = 12) is above the brute-force limit: closure only, then kernels-distinct
    (("congruences", golden("fig2_reduct.ioa")), "congruences_fig2_reduct.txt", None, 0),
    (("congruences", golden("bool4_reduct.ioa"), "--method", "both"), "congruences_bool4_reduct_both.txt", None, 0),
    (("verify-theorems", "--all", "--seed", "0"), "verify_all_seed0.txt", None, 0),
    (("verify-theorems", "--all", "--seed", "1"), "verify_all_seed0.txt", "command: verify-theorems --all seed=1", 0),
    (("verify-theorems", "--all", "--seed", "7"), "verify_all_seed0.txt", "command: verify-theorems --all seed=7", 0),
]


@pytest.mark.parametrize("argv, transcript, header, code", CASES,
                         ids=[" ".join(Path(arg).name for arg in case[0]) for case in CASES])
def test_stdout_is_the_golden_transcript(capsys, argv, transcript, header, code):
    want = (GOLDEN / transcript).read_text(encoding="utf-8")
    if header is not None:
        want = header + "\n" + want.split("\n", 1)[1]
    got = main(list(argv))
    assert capsys.readouterr().out == want
    assert got == code


@pytest.mark.parametrize("name", ["bool4_reduct", "chain2_reduct"])
def test_ideals_enumerate_on_reduct_files_matches_the_kernels(capsys, name):
    assert main(["ideals", golden(f"{name}.ioa"), "--enumerate"]) == 0
    assert "check ideals-match-kernels PASS" in capsys.readouterr().out.splitlines()


def test_the_benchmark_checks_against_the_golden_transcript():
    assert BENCH_COPY.read_bytes() == (GOLDEN / "verify_all_seed0.txt").read_bytes()
