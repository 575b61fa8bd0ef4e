"""Term tables on random operation tables on both sides of the 16-element pair code.

Carriers of at most 16 elements build every product node from pair codes
l << 4 | r; larger ones go span by span or entry by entry.  Random tables of
1, 2, 15, 16, 17 and 23 elements, and random terms over up to three x- and
two y-variables, some declared but unused, must give the verdict and the
witness of a plain `product` scan, and `closed_subsets` must agree with
`closed_under_term`.  A random table fails almost every closure early, so
each size also gets a table whose products all fall in a subset D of at most
two elements holding 1, with x*1 = 1: D is closed under every term whose
root is a product, and every term ending in *y or *1 is an ideal term, so
passing scans run over the whole table (with two x-variables, to keep the
plain scan short).
"""

import random
from itertools import product

import pytest

from orthokit.implication import ImplicationTable
from orthokit.terms import Term, _broadcast, closed_subsets, closed_under_term, is_ideal_term, random_term

from oracles import naive_first_outside

SIZES = [1, 2, 15, 16, 17, 23]


def random_table(n, rng, image=None):
    """A random operation on n elements with a random 1; with `image`, products fall in
    `image` + {1} and x*1 = 1."""
    one = rng.randrange(n)
    values = range(n) if image is None else sorted({one, *image})
    rows = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
    if image is not None:
        for row in rows:
            row[one] = one
    return ImplicationTable(n, tuple(map(tuple, rows)), one)


def random_terms(rng, count, xarity=3):
    """Terms declaring `xarity` x- and two y-variables, drawn over as many or fewer."""
    terms = []
    for _ in range(count):
        tree = random_term(rng, xarity=rng.randint(1, xarity), yarity=rng.randint(0, 2), max_depth=4)
        terms.append(Term(tree.root, xarity, 2))
    return terms


def assert_matches_the_product_scan(T, D, term):
    expected = naive_first_outside(T, D, term)
    v = closed_under_term(T, D, term)
    assert (v.ok, v.witness) == (expected is None, expected)


def assert_ideal_term_matches_the_product_scan(T, term):
    expected = naive_first_outside(T, {T.one}, term)
    v = is_ideal_term(T, term)
    assert (v.ok, v.witness) == (expected is None, None if expected is None else expected[0])


@pytest.mark.parametrize("n", SIZES)
def test_random_tables_give_the_verdict_and_witness_of_the_product_scan(n):
    rng = random.Random(n)
    T = random_table(n, rng)
    subsets = [{T.one}, {T.one, rng.randrange(n)}, set(rng.sample(range(n), min(n, 3)))]
    for term in random_terms(rng, 8):
        assert_ideal_term_matches_the_product_scan(T, term)
        for D in subsets:
            assert_matches_the_product_scan(T, D, term)
        assert closed_subsets(T, subsets, term) == tuple(bool(closed_under_term(T, D, term)) for D in subsets)


@pytest.mark.parametrize("n", SIZES)
def test_closed_subsets_pass_over_the_whole_table(n):
    rng = random.Random(100 + n)
    other = rng.randrange(n)
    T = random_table(n, rng, image={other})
    D = {T.one, other}
    subsets = [D, {T.one}, {other}, set(rng.sample(range(n), min(n, 3)))]
    # two x-variables keep the plain scan of every passing entry short
    for term in random_terms(rng, 6, xarity=2):
        assert_ideal_term_matches_the_product_scan(T, term)
        assert_matches_the_product_scan(T, D, term)
        assert closed_under_term(T, D, term)
        got = closed_subsets(T, subsets, term)
        assert got == tuple(bool(closed_under_term(T, S, term)) for S in subsets)


def naive_broadcast(values, have, want, size):
    """The table over `want` read entry by entry from the table over `have`."""
    strides, stride = {}, 1
    for v in reversed(have):
        strides[v] = stride
        stride *= size[v]
    return bytes(values[sum(a * strides[v] for a, v in zip(assignment, want) if v in strides)]
                 for assignment in product(*(range(size[v]) for v in want)))


@pytest.mark.parametrize("seed", range(40))
def test_broadcast_matches_an_entry_by_entry_reindex(seed):
    rng = random.Random(seed)
    size = [rng.randint(1, 6) for _ in range(rng.randint(1, 6))]
    want = tuple(range(len(size)))
    have = tuple(v for v in want if rng.random() < 0.5)
    entries = 1
    for v in have:
        entries *= size[v]
    values = bytes(rng.randrange(256) for _ in range(entries))
    assert _broadcast(values, have, want, size) == naive_broadcast(values, have, want, size)
