"""Closure of many subsets from one shared table agrees with the one-subset decision.

`closed_subsets` folds a single table over the union of the subsets into one
Horn clause per y-assignment; each of its verdicts must equal
`bool(closed_under_term(T, D, t))`.  The verify check lines that use it name
their counterexample, computed by the one-subset functions on failure.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokit import catalog, entry, verify
from orthokit import terms as tms
from orthokit.congruence import congruence_lattice, kernel, subsets_with_one
from orthokit.errors import TooLarge
from orthokit.implication import ImplicationTable
from orthokit.report import Verdict
from orthokit.terms import (
    TERM_SCAN_LIMIT,
    Term,
    builtin_terms,
    closed_subsets,
    closed_under_term,
    parse_term,
    random_ideal_terms,
    random_term,
    serialize_term,
)

REDUCTS = [e for e in catalog() if e.kind == "implication"]
SMALL = [e for e in REDUCTS if e.payload.n <= verify.SWEEP_LIMIT]
ARITY_ZERO = [parse_term("1"), parse_term("(b 1 1)")]


def padded(term, extra_x, extra_y):
    """The same tree with declared arities beyond the variables it uses."""
    return Term(term.root, term.xarity + extra_x, term.yarity + extra_y)


def assert_agrees(T, subsets, term):
    expected = tuple(bool(closed_under_term(T, D, term)) for D in subsets)
    assert closed_subsets(T, subsets, term) == expected


def ordered_kernels(T):
    return sorted((kernel(T, P).members for P in congruence_lattice(T)), key=lambda k: (len(k), sorted(k)))


@pytest.mark.parametrize("e", SMALL, ids=lambda e: e.name)
def test_every_subset_with_one_matches_the_single_subset_decision(e):
    T = e.payload
    rng = random.Random(T.n)
    subsets = list(subsets_with_one(T))
    terms = list(builtin_terms().values()) + ARITY_ZERO
    terms += [random_term(rng) for _ in range(20)]
    terms += [padded(random_term(rng, xarity=1, yarity=1, max_depth=4), 1, 1) for _ in range(3)]
    terms += [padded(t, 0, 1) for t in ARITY_ZERO]
    for term in terms:
        assert_agrees(T, subsets, term)


@pytest.mark.parametrize("name", ["fig2_reduct", "fig2_filter_no0_reduct"])
def test_kernels_and_random_subsets_of_the_large_reducts(name):
    T = entry(name).payload
    rng = random.Random(T.n)
    subsets = ordered_kernels(T)
    subsets += [frozenset(rng.sample(range(T.n), rng.randrange(T.n))) | {T.one} for _ in range(20)]
    terms = list(builtin_terms().values()) + random_ideal_terms(T, 3, seed=1)
    terms += [random_term(rng, max_depth=4) for _ in range(3)]
    for term in terms:
        assert_agrees(T, subsets, term)


@st.composite
def operation_tables(draw):
    """Any binary operation on up to 6 elements, any element as the constant."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n))
    return ImplicationTable(n, tuple(map(tuple, rows)), draw(st.integers(0, n - 1)))


@settings(max_examples=150, deadline=None)
@given(T=operation_tables(), seed=st.integers(0, 10_000), data=st.data())
def test_any_operation_table_matches_the_single_subset_decision(T, seed, data):
    term = padded(random_term(random.Random(seed), xarity=2, yarity=2, max_depth=4), *data.draw(
        st.tuples(st.integers(0, 1), st.integers(0, 1))))
    subsets = data.draw(st.lists(st.frozensets(st.integers(0, T.n - 1), min_size=1), min_size=1, max_size=8))
    assert_agrees(T, subsets, term)


def test_an_empty_subset_is_refused_as_by_closed_under_term():
    T = entry("mo2_reduct").payload
    t1 = builtin_terms()["t1"]
    with pytest.raises(ValueError):
        closed_under_term(T, set(), t1)
    with pytest.raises(ValueError):
        closed_subsets(T, [{T.one}, set()], t1)
    assert closed_subsets(T, [], t1) == ()


def test_the_union_table_is_budgeted_before_any_table_is_built(monkeypatch):
    T = entry("fig2_reduct").payload
    term = padded(builtin_terms()["t1"], 4, 0)
    others = [x for x in range(T.n) if x != T.one]
    subsets = [{T.one, others[0], others[1]}, {T.one, others[2], others[3]}]
    # each subset alone is within the budget, their union of five is not
    assert T.n ** 5 * 3 <= TERM_SCAN_LIMIT < T.n ** 5 * 5

    def no_tables(*args):
        raise AssertionError("table built before the budget check")

    monkeypatch.setattr(tms, "_tabulate", no_tables)
    with pytest.raises(TooLarge):
        closed_subsets(T, subsets, term)


def line_of(checks, suffix):
    (line,) = [c.line() for c in checks if c.name.endswith(suffix)]
    return line


def reject(monkeypatch, pairs, witness):
    """Make both closure functions report each (kernel, term) pair in `pairs` as not closed."""
    shared, single = tms.closed_subsets, tms.closed_under_term

    def fake_shared(T, subsets, term):
        subsets = [frozenset(D) for D in subsets]
        return tuple(ok and (D, term) not in pairs for D, ok in zip(subsets, shared(T, subsets, term)))

    def fake_single(T, I, term):
        return Verdict(False, witness) if (frozenset(I), term) in pairs else single(T, I, term)

    monkeypatch.setattr(tms, "closed_subsets", fake_shared)
    monkeypatch.setattr(tms, "closed_under_term", fake_single)


def test_ideal_term_check_names_the_first_failing_term_and_assignment(monkeypatch):
    T = entry("mo2_reduct").payload
    ts = builtin_terms()
    real = tms.is_ideal_term
    bad = {ts["t5"]: (2, 3, 4), ts["t3"]: (0, 1)}
    monkeypatch.setattr(tms, "is_ideal_term", lambda T, t: Verdict(False, bad[t]) if t in bad else real(T, t))
    checks = verify._reduct_checks("mo2_reduct", T, seed=0)
    assert line_of(checks, "t1..t6 are ideal terms") == (
        "check mo2_reduct: t1..t6 are ideal terms FAIL t3 fails at x-assignment (0, 1)"
    )


def test_kernel_check_names_the_first_kernel_and_its_failing_term(monkeypatch):
    T = entry("bool8_reduct").payload
    ts = builtin_terms()
    kernels = ordered_kernels(T)
    small, big = kernels[1], kernels[-2]
    assert len(small) < len(big)
    reject(monkeypatch, {(big, ts["t2"]), (small, ts["t5"])}, ((0, 0, 0), (1,), 2))
    checks = verify._reduct_checks("bool8_reduct", T, seed=0)
    assert line_of(checks, "every kernel closed under t1..t6") == (
        f"check bool8_reduct: every kernel closed under t1..t6 FAIL kernel {sorted(small)} not closed under t5"
    )
    assert line_of(checks, "random ideal terms").endswith("PASS")


def test_random_term_check_names_the_kernel_term_and_witness(monkeypatch):
    T = entry("fig2_filter_no0_reduct").payload
    rand = random_ideal_terms(T, verify.RANDOM_TERM_COUNT, seed=0)
    kernels = ordered_kernels(T)
    K = kernels[2]
    witness = ((0, 1), (2, 3), 4)
    reject(monkeypatch, {(K, rand[7]), (K, rand[12]), (kernels[3], rand[0])}, witness)
    checks = verify._reduct_checks("fig2_filter_no0_reduct", T, seed=0)
    assert line_of(checks, "random ideal terms") == (
        f"check fig2_filter_no0_reduct: every kernel closed under {verify.RANDOM_TERM_COUNT} random ideal terms"
        f" FAIL kernel {sorted(K)} not closed under {serialize_term(rand[7])}: witness {witness}"
    )
    assert line_of(checks, "every kernel closed under t1..t6").endswith("PASS")
