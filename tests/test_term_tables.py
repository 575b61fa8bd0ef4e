"""Closure and ideal-term decisions from value tables agree with a plain product scan.

Both the verdict and the witness must match: the witness is the first
failing assignment in `product` order, so a table decoded at the wrong
position, or unused declared variables not set to their least value, shows
up here even where the verdict is right.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokit import catalog, entry
from orthokit.congruence import congruence_lattice, kernel
from orthokit.errors import TooLarge
from orthokit.implication import ImplicationTable
from orthokit.terms import Term, builtin_terms, closed_under_term, is_ideal_term, parse_term, random_term

from oracles import naive_first_outside

REDUCTS = [e for e in catalog() if e.kind == "implication"]
ARITY_ZERO = [parse_term("1"), parse_term("(b 1 1)")]


def assert_agrees(T, D, term):
    expected = naive_first_outside(T, D, term)
    v = closed_under_term(T, D, term)
    assert v.ok == (expected is None)
    assert v.witness == expected


def assert_ideal_term_agrees(T, term):
    expected = naive_first_outside(T, {T.one}, term)
    v = is_ideal_term(T, term)
    assert v.ok == (expected is None)
    assert v.witness == (None if expected is None else expected[0])


def padded(term, extra_x, extra_y):
    """The same tree with declared arities beyond the variables it uses."""
    return Term(term.root, term.xarity + extra_x, term.yarity + extra_y)


def subsets(T, rng):
    """{1}, a random subset with 1, the least non-trivial kernel, and the carrier up to n = 8.

    On the larger carriers the oracle's full scan of the carrier takes seconds.
    """
    kernels = sorted((kernel(T, P).members for P in congruence_lattice(T)), key=lambda k: (len(k), sorted(k)))
    picked = [frozenset({T.one}), frozenset(rng.sample(range(T.n), T.n // 2)) | {T.one}]
    picked += [K for K in kernels if 1 < len(K) < T.n][:1]
    if T.n <= 8:
        picked.append(frozenset(range(T.n)))
    return picked


@pytest.mark.parametrize("e", REDUCTS, ids=lambda e: e.name)
def test_builtins_and_arity_zero_terms_match_the_product_scan(e):
    T = e.payload
    rng = random.Random(T.n)
    terms = list(builtin_terms().values()) + ARITY_ZERO
    for term in terms:
        assert_ideal_term_agrees(T, term)
    for D in subsets(T, rng):
        for term in terms:
            assert_agrees(T, D, term)


@pytest.mark.parametrize("e", REDUCTS, ids=lambda e: e.name)
def test_random_terms_with_unused_declared_variables_match_the_product_scan(e):
    T = e.payload
    rng = random.Random(1000 + T.n)
    for D in subsets(T, rng):
        for _ in range(3):
            term = padded(random_term(rng, xarity=1, yarity=1, max_depth=4), 1, 1)
            assert_agrees(T, D, term)
            assert_ideal_term_agrees(T, term)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), name=st.sampled_from(["chain2_reduct", "bool4_reduct", "mo2_reduct"]),
       extra=st.tuples(st.integers(0, 1), st.integers(0, 1)), data=st.data())
def test_random_terms_and_subsets_match_the_product_scan(seed, name, extra, data):
    T = entry(name).payload
    term = padded(random_term(random.Random(seed), xarity=2, yarity=1, max_depth=5), *extra)
    rest = data.draw(st.sets(st.integers(0, T.n - 1)))
    D = frozenset(rest) | {T.one}
    assert_agrees(T, D, term)
    assert_ideal_term_agrees(T, term)


def test_carriers_beyond_one_byte_values_are_refused_before_tabulating():
    n = 257
    T = ImplicationTable(n=n, bullet=((n - 1,) * n,) * n, one=n - 1)
    t1 = builtin_terms()["t1"]
    with pytest.raises(TooLarge):
        is_ideal_term(T, t1)
    with pytest.raises(TooLarge):
        closed_under_term(T, {T.one}, t1)

