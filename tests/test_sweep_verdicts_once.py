"""The subset sweep decides each verdict once and reports what one-subset checks report.

`verify._reduct_checks` builds the t1..t6 verdicts over every subset
containing 1 once, answers the kernel line from them and hands them to the
sweep.  Inside the sweep D1 is decided once per subset, D2 at most once,
`theta_from_kernel` runs on exactly the subsets satisfying both rules, and the
lemma chain takes its conclusions from those verdicts.  Every line must equal
a naive loop over the one-subset functions, also on tables that are not
reducts and on kernel sets that are wrong.
"""

import dataclasses
from collections import Counter

import pytest

from orthokit import entry, verify
from orthokit import congruence as cong
from orthokit import terms as tms
from orthokit.errors import AlgebraError
from test_mutants import cell_mutants

SWEPT = ["chain2_reduct", "bool4_reduct", "bool8_reduct", "mo2_reduct"]
BUILTINS = set(tms.builtin_terms().values())


def kernels_of(T):
    return {cong.kernel(T, P).members for P in cong.congruence_lattice(T)}


def rebuilt(T, D):
    try:
        cong.theta_from_kernel(T, D)
        return True
    except AlgebraError:
        return False


def naive_sweep_lines(name, T, kernels):
    """The three sweep lines, each subset decided on its own by the one-subset functions."""
    subsets = list(cong.subsets_with_one(T))
    rules = next((D for D in subsets if not (
        (cong.check_d1(T, D).ok and cong.check_d2(T, D).ok) == (D in kernels) == rebuilt(T, D))), None)
    terms = next((D for D in subsets if tms.is_ideal_by_terms(T, D).ok != (D in kernels)), None)
    lemma = all(tms.check_lemma_chain(T, D).ok for D in subsets)

    def line(check, first):
        return f"check {name}: {check} " + ("PASS" if first is None else f"FAIL first mismatch at D={sorted(first)}")

    return [
        line("D1+D2 = kernel = rebuilt congruence, all subsets", rules),
        line("closed under t1..t6 = kernel, all subsets", terms),
        f"check {name}: closure implications for D1/D2 never violated {'PASS' if lemma else 'FAIL'}",
    ]


@pytest.fixture
def spies(monkeypatch):
    """Calls made through check_d1, check_d2 and theta_from_kernel, by subset, and the calls of
    closed_subsets on one of t1..t6, under the key "t1..t6"."""
    calls = {"d1": Counter(), "d2": Counter(), "theta": Counter(), "closed": Counter()}

    def counting(key, fn):
        def spy(T, D, *rest):
            calls[key][frozenset(D)] += 1
            return fn(T, D, *rest)
        return spy

    d1 = counting("d1", cong.check_d1)
    monkeypatch.setattr(cong, "check_d1", d1)
    monkeypatch.setattr(tms, "check_d1", d1)
    d2 = counting("d2", cong.check_d2)
    monkeypatch.setattr(cong, "check_d2", d2)
    monkeypatch.setattr(tms, "check_d2", d2, raising=False)
    monkeypatch.setattr(cong, "theta_from_kernel", counting("theta", cong.theta_from_kernel))
    shared = tms.closed_subsets

    def closed_spy(T, subsets, term):
        calls["closed"]["t1..t6"] += term in BUILTINS
        return shared(T, subsets, term)

    monkeypatch.setattr(tms, "closed_subsets", closed_spy)
    return calls


@pytest.mark.parametrize("name", SWEPT)
def test_one_sweep_decides_each_verdict_once(name, spies):
    e = entry(name)
    T = e.payload
    subsets = list(cong.subsets_with_one(T))
    both = {D for D in subsets if cong.check_d1(T, D).ok and cong.check_d2(T, D).ok}
    lemma = all(tms.check_lemma_chain(T, D).ok for D in subsets)
    for counts in spies.values():
        counts.clear()
    checks = verify.entry_checks(e, seed=0)
    assert set(spies["d1"]) == set(subsets) and max(spies["d1"].values()) == 1
    assert max(spies["d2"].values()) == 1
    assert both <= set(spies["d2"])
    assert spies["theta"] == Counter(both)
    assert spies["closed"]["t1..t6"] == 6
    (line,) = [c for c in checks if c.name.endswith("closure implications for D1/D2 never violated")]
    assert line.passed == lemma
    assert [c.line() for c in checks[-3:]] == naive_sweep_lines(name, T, kernels_of(T))


@pytest.mark.parametrize("name", SWEPT)
def test_wrong_kernel_sets_report_the_naive_first_mismatch(name):
    T = entry(name).payload
    kernels = kernels_of(T)
    ordered = sorted(kernels, key=lambda k: (len(k), sorted(k)))
    wrongs = [kernels - {ordered[-1]}, kernels - {ordered[0]}]
    # the last non-kernel in sweep order, where there is one (chain2 has none)
    wrongs += [kernels | {D} for D in reversed(list(cong.subsets_with_one(T))) if D not in kernels][:1]
    for wrong in wrongs:
        got = [c.line() for c in verify._subset_sweep_checks(name, T, wrong)]
        assert got == naive_sweep_lines(name, T, wrong)
        assert not all(c.endswith("PASS") for c in got[:2])


def bool8_mutants():
    T = entry("bool8_reduct").payload
    return [dataclasses.replace(T, bullet=table) for table in cell_mutants(T.bullet, T.n)][::23]


@pytest.mark.parametrize("M", bool8_mutants())
def test_tables_that_are_not_reducts_match_the_naive_sweep(M):
    assert [c.line() for c in verify._subset_sweep_checks("m", M, kernels_of(M))] == \
        naive_sweep_lines("m", M, kernels_of(M))


def test_some_mutant_breaks_the_lemma_chain():
    # without a failing lemma line the comparison above would only ever see PASS
    lines = [verify._subset_sweep_checks("m", M, kernels_of(M))[2].line() for M in bool8_mutants()]
    assert any(line.endswith("FAIL") for line in lines)
