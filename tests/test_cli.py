import os
import re
import subprocess
import sys

import pytest

import orthokit
from orthokit import entry, serialize_ioa, serialize_olat
from orthokit.cli import main

RESULT_RE = re.compile(r"^RESULT (pass|fail) checks=\d+ failures=\d+$")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_result_line(out, status):
    last = out.rstrip("\n").splitlines()[-1]
    assert RESULT_RE.match(last), last
    assert last.startswith(f"RESULT {status} ")


@pytest.mark.parametrize("argv, code", [
    (("validate", "--catalog", "fig1_o6", "--strong"), 1),
    (("derive", "--catalog", "fig1_o6"), 1),
    (("congruences", "--catalog", "bool4_reduct", "--method", "both"), 0),
    (("ideals", "--catalog", "bool4_reduct", "--check", "1,2,3"), 0),
    (("ideals", "--catalog", "bool4_reduct", "--term", "x0"), 1),
    (("ideals", "--catalog", "mo2_reduct", "--enumerate"), 0),
    (("verify-theorems", "--catalog", "fig1_o6"), 0),
])
def test_result_line_counts_the_printed_checks(capsys, argv, code):
    got, out, _ = run(capsys, *argv)
    lines = out.rstrip("\n").splitlines()
    checks = [line for line in lines if line.startswith("check ")]
    # a passing check line ends in PASS; only a failing one carries a detail
    failures = [line for line in checks if not line.endswith(" PASS")]
    assert all(" FAIL" in line for line in failures)
    assert [line for line in lines if line.startswith("RESULT ")] == [lines[-1]]
    assert lines[-1] == f"RESULT {'fail' if failures else 'pass'} checks={len(checks)} failures={len(failures)}"
    assert got == code == (1 if failures else 0)


def test_validate_catalog_pass(capsys):
    code, out, _ = run(capsys, "validate", "--catalog", "fig2_strong12")
    assert code == 0
    assert_result_line(out, "pass")


def test_validate_semilattice_entry(capsys):
    code, out, _ = run(capsys, "validate", "--catalog", "fig2_filter_no0")
    assert code == 0
    assert "interval-meet-de-morgan" in out


def test_validate_broken_file_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "broken.olat"
    bad.write_text("olat 1\nn 2\nle 0 1\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "error:" in err and "RESULT" not in out


def test_validate_undecodable_file_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "latin1.olat"
    bad.write_bytes("olat 1\nn 1\nname 0 \u00e9\ncomp 0 0\n".encode("latin-1"))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == "" and err.startswith(f"error: cannot read {bad}")


def test_derive_to_missing_directory_is_exit_2(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "x.ioa"
    code, out, err = run(capsys, "derive", "--catalog", "bool4", "--out", str(target))
    assert code == 2
    assert out == "" and err.startswith(f"error: cannot write {target}")


def test_validate_strong_flag_failure_is_exit_1(capsys):
    code, out, _ = run(capsys, "validate", "--catalog", "fig1_o6", "--strong")
    assert code == 1
    assert "check strong FAIL" in out and "p=a" in out
    assert_result_line(out, "fail")


def test_validate_semantically_broken_file_is_exit_1(tmp_path, capsys):
    # hexagon with complements swapped: parses fine, fails antitonicity
    text = serialize_olat(entry("fig1_o6").payload).replace("comp 1 4", "comp 1 3").replace("comp 2 3", "comp 2 4")
    f = tmp_path / "swapped.olat"
    f.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 1
    assert "check comp-antitone FAIL" in out


def test_validate_ioa_file_runs_the_identity_checks(tmp_path, capsys):
    f = tmp_path / "t.ioa"
    f.write_text(serialize_ioa(entry("mo2_reduct").payload), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 0
    assert "check ident-d-agreement PASS" in out


def test_validate_reduct_catalog_entry(capsys):
    code, out, _ = run(capsys, "validate", "--catalog", "bool4_reduct")
    assert code == 0
    assert "check ident-a PASS" in out


def test_derive_bool4_emits_the_classical_table(capsys):
    code, out, _ = run(capsys, "derive", "--catalog", "bool4")
    assert code == 0
    assert "row 1 2 3 2 3" in out


def test_derive_writes_a_loadable_file(tmp_path, capsys):
    out_path = tmp_path / "t.ioa"
    code, out, _ = run(capsys, "derive", "--catalog", "mo2", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == serialize_ioa(entry("mo2_reduct").payload)


def test_derive_non_strong_input_is_exit_1(capsys):
    code, out, _ = run(capsys, "derive", "--catalog", "fig1_o6")
    assert code == 1
    assert "first failing interval p=a" in out


def test_derive_with_principal_filter(tmp_path, capsys):
    out_path = tmp_path / "above_e.ioa"
    code, out, _ = run(capsys, "derive", "--catalog", "fig2_strong12", "--filter", "1",
                       "--out", str(out_path))
    assert code == 0
    assert "info filter p=1 keeps 4 elements" in out
    # must equal the reduct of the filter computed directly
    from orthokit import derive_bullet, restrict_to_filter, semilattice

    S = semilattice("fig2_strong12")
    members = [x for x in range(S.n) if S.le(1, x)]
    expected = serialize_ioa(derive_bullet(restrict_to_filter(S, members)))
    assert out_path.read_text(encoding="utf-8") == expected


def test_derive_file_input_round_trip(tmp_path, capsys):
    f = tmp_path / "bool4.olat"
    f.write_text(serialize_olat(entry("bool4").payload), encoding="utf-8")
    out_path = tmp_path / "out.ioa"
    code, _, _ = run(capsys, "derive", str(f), "--out", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == serialize_ioa(entry("bool4_reduct").payload)


def test_congruences_two_chain(capsys):
    code, out, _ = run(capsys, "congruences", "--catalog", "chain2_reduct")
    assert code == 0
    assert out.count("congruence ") == 2
    assert "check kernel-map-injective PASS" in out


def test_congruences_methods_agree(capsys):
    code, out, _ = run(capsys, "congruences", "--catalog", "bool4_reduct", "--method", "both")
    assert code == 0
    assert "check methods-agree PASS" in out


def test_congruences_above_the_brute_force_limit_check_the_listed_kernels_differ(capsys):
    assert entry("fig2_reduct").payload.n > orthokit.congruence.BRUTE_FORCE_LIMIT
    code, out, _ = run(capsys, "congruences", "--catalog", "fig2_reduct")
    assert code == 0
    assert out.count("congruence ") == 2
    assert "check kernels-distinct PASS" in out and "kernel-map-injective" not in out


def test_congruences_brute_guard_is_exit_2(capsys):
    code, _, err = run(capsys, "congruences", "--catalog", "fig2_reduct", "--method", "brute")
    assert code == 2
    assert "exceeds limit" in err


def test_congruences_reject_non_algebra_files(tmp_path, capsys):
    f = tmp_path / "bad.ioa"
    f.write_text("ioa 1\nn 2\none 1\nrow 0 1 1\nrow 1 1 1\n", encoding="utf-8")
    code, _, err = run(capsys, "congruences", str(f))
    assert code == 2
    assert "identities" in err


def test_ideals_check_unit_singleton(capsys):
    code, out, _ = run(capsys, "ideals", "--catalog", "bool4_reduct", "--check", "3")
    assert code == 0
    assert "check verdicts-agree PASS" in out
    assert "info ideal: yes" in out


def test_ideals_check_non_ideal_still_agrees(capsys):
    code, out, _ = run(capsys, "ideals", "--catalog", "bool4_reduct", "--check", "1,2,3")
    assert code == 0
    assert "info ideal: no" in out
    assert "check verdicts-agree PASS" in out


def test_ideals_check_requires_the_unit(capsys):
    code, _, err = run(capsys, "ideals", "--catalog", "bool4_reduct", "--check", "0,1")
    assert code == 2
    assert "must contain" in err


def test_ideals_enumerate_matches_kernels(capsys):
    code, out, _ = run(capsys, "ideals", "--catalog", "bool4_reduct", "--enumerate")
    assert code == 0
    assert "check ideals-match-kernels PASS" in out
    assert out.count("ideal ") == 4


def test_ideals_term_accepted(capsys):
    code, out, _ = run(capsys, "ideals", "--catalog", "bool4_reduct", "--term", "(b x0 y0)")
    assert code == 0
    assert "check ideal-term PASS" in out


def test_ideals_term_rejected_is_exit_1(capsys):
    code, out, _ = run(capsys, "ideals", "--catalog", "bool4_reduct", "--term", "x0")
    assert code == 1
    assert "check ideal-term FAIL" in out


def test_ideals_term_with_subset_closure(capsys):
    code, out, _ = run(capsys, "ideals", "--catalog", "bool4_reduct", "--term", "(b x0 y0)", "--check", "1,3")
    assert code == 0
    assert "check subset-closed-under-term PASS" in out


def test_ideals_bad_term_syntax_is_exit_2(capsys):
    code, _, err = run(capsys, "ideals", "--catalog", "bool4_reduct", "--term", "(b x0")
    assert code == 2
    assert "bad term" in err


def test_ideals_needs_a_mode(capsys):
    code, _, err = run(capsys, "ideals", "--catalog", "bool4_reduct")
    assert code == 2


def test_verify_theorems_single_entries(capsys):
    for name in ("fig1_o6", "fig2_strong12", "bool4_reduct"):
        code, out, _ = run(capsys, "verify-theorems", "--catalog", name)
        assert code == 0, out
        assert_result_line(out, "pass")


def test_verify_theorems_reports_expected_hexagon_failures_as_pass(capsys):
    code, out, _ = run(capsys, "verify-theorems", "--catalog", "fig1_o6")
    assert code == 0
    assert "comp(a) v b = 1 = comp(b) v a PASS" in out
    assert "not strong, first failing interval is [a, 1] PASS" in out


def test_unknown_catalog_name_is_exit_2(capsys):
    code, _, err = run(capsys, "validate", "--catalog", "nosuch")
    assert code == 2
    assert "no catalog entry" in err


def test_missing_input_is_exit_2(capsys):
    code, _, err = run(capsys, "validate")
    assert code == 2


def test_usage_error_from_argparse_is_exit_2(capsys):
    assert main(["congruences", "--catalog", "bool4_reduct", "--method", "weird"]) == 2


def test_reports_are_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "verify-theorems", "--catalog", "mo2_reduct", "--seed", "7")
    _, second, _ = run(capsys, "verify-theorems", "--catalog", "mo2_reduct", "--seed", "7")
    assert first == second


def fresh(*argv):
    """Exit code, stdout and stderr of one CLI call in a new interpreter."""
    src = os.path.dirname(os.path.dirname(orthokit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys; from orthokit.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_calls_in_one_process_match_fresh_calls_after_a_usage_error(capsys):
    bad = ("congruences", "--catalog", "bool4_reduct", "--method", "weird")
    good = ("verify-theorems", "--catalog", "mo2_reduct")
    calls = [bad, good, good, ("verify-theorems", "--catalog", "mo2_reduct", "--seed", "7"), good]
    assert [run(capsys, *argv) for argv in calls] == [fresh(*argv) for argv in calls]


@pytest.mark.parametrize("term, message", [
    ("(b x4000000 y0)", "error: term scan size 4000002 exceeds limit 1000000"),
    ("(b x0 y4000000)", "error: term scan size 4000002 exceeds limit 1000000"),
    ("(b x0 y\u00b2)", "error: bad term: unknown token"),
    ("x" + "1" * 5000, "error: bad term: index of x has 5000 digits"),
], ids=["x-arity", "y-arity", "superscript", "5000-digits"])
def test_unscannable_terms_are_exit_2(capsys, term, message):
    code, out, err = run(capsys, "ideals", "--catalog", "bool4_reduct", "--term", term)
    assert code == 2 and out == ""
    assert err.startswith(message)


@pytest.mark.parametrize("argv", [
    ("verify-theorems", "--catalog", "bool8_reduct"),
    ("congruences", "--catalog", "bool8_reduct", "--method", "both"),
], ids=["verify-theorems", "congruences-both"])
def test_brute_force_congruences_are_enumerated_once(monkeypatch, capsys, argv):
    calls = []
    real = orthokit.congruence.all_congruences_bruteforce

    def counted(T):
        calls.append(T.n)
        return real(T)

    monkeypatch.setattr(orthokit.congruence, "all_congruences_bruteforce", counted)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "kernel" in out
    assert calls == [8]


@pytest.mark.parametrize("name, message", [
    ("bool4", "error: bool4 is not an implication table"),
    ("bool4_reduct", "error: give one of --check, --enumerate, --term"),
])
def test_ideals_without_a_query_reports_a_bad_input_first(capsys, name, message):
    code, out, err = run(capsys, "ideals", "--catalog", name)
    assert code == 2 and out == ""
    assert err.startswith(message)
