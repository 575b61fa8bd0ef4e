"""Term tables that fold constants through the operation table agree with a plain product scan.

`_tabulate` assumes no identity of the table: a constant right side c
absorbs its product when column c is constant, a constant side is one
translate through a row or column, and a table whose entries are all equal
becomes a constant over no variables.  Random operation tables of 1, 2, 15,
16, 17 and 23 elements, with constant columns, constant rows and a constant
diagonal planted in them (so that x*x is a subterm with all-equal values),
must give the verdict and the witness of `oracles.naive_first_outside`, and
`closed_subsets` must agree with `closed_under_term`, on terms whose
declared variables are partly unused or absorbed.
"""

import random
from itertools import product

import pytest

from orthokit import terms as tms
from orthokit.implication import ImplicationTable
from orthokit.terms import Bullet, Const1, Term, XVar, YVar, closed_subsets, closed_under_term, is_ideal_term, parse_term

from oracles import naive_eval, naive_first_outside

SIZES = [1, 2, 15, 16, 17, 23]


def table(n, rng, kind):
    """A random operation on n elements with a random 1, and by `kind`:

    - "random": nothing planted;
    - "implicative": x*1 = 1, x*x = 1 and 0*x = 1 for a random 0 (a constant
      column, a constant diagonal and a constant row, all of value 1);
    - "planted": column c, row r and the diagonal constant with one value d,
      none of them tied to 1.
    """
    one = rng.randrange(n)
    rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    if kind == "random":
        return ImplicationTable(n, tuple(map(tuple, rows)), one)
    d, c, r = (one, one, rng.randrange(n)) if kind == "implicative" else (rng.randrange(n) for _ in range(3))
    for i, row in enumerate(rows):
        row[c] = row[i] = d
    rows[r] = [d] * n
    return ImplicationTable(n, tuple(map(tuple, rows)), one)


def random_tree(rng, depth):
    """A random tree over x0, x1, y0, y1, 1 and the diagonal subterms x_i*x_i."""
    if depth == 0 or rng.random() < 0.3:
        leaves = [Const1(), XVar(0), XVar(1), YVar(0), YVar(1), Bullet(XVar(0), XVar(0)), Bullet(XVar(1), XVar(1))]
        return rng.choice(leaves)
    return Bullet(random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def random_terms(rng, count):
    """Terms declaring two x- and two y-variables (two x-variables keep the plain scan short)."""
    return [Term(Bullet(random_tree(rng, 3), random_tree(rng, 3)), 2, 2) for _ in range(count)]


# absorbed subterms (s*1, s*(x*x)), an unused declared variable, constant and one-sided products
FIXED = [
    "(b (b x1 y1) 1)",
    "(b (b y0 x1) (b x0 x0))",
    "(b (b x0 (b x1 y1)) (b (b x1 x1) y0))",
    "(b 1 (b x1 y0))",
    "(b (b x0 x0) x1)",
    "(b (b (b x1 x1) (b x0 x0)) y1)",
]


def fixed_terms():
    return [Term(parse_term(text).root, 2, 2) for text in FIXED]


def check_against_the_product_scan(T, term, subsets):
    expected = naive_first_outside(T, {T.one}, term)
    v = is_ideal_term(T, term)
    assert (v.ok, v.witness) == (expected is None, None if expected is None else expected[0])
    for D in subsets:
        expected = naive_first_outside(T, D, term)
        v = closed_under_term(T, D, term)
        assert (v.ok, v.witness) == (expected is None, expected)
    assert closed_subsets(T, subsets, term) == tuple(bool(closed_under_term(T, D, term)) for D in subsets)


@pytest.mark.parametrize("kind", ["random", "implicative", "planted"])
@pytest.mark.parametrize("n", SIZES)
def test_folded_tables_give_the_verdict_and_witness_of_the_product_scan(n, kind):
    rng = random.Random(f"{n}-{kind}")
    T = table(n, rng, kind)
    subsets = [{T.one}, {T.one, rng.randrange(n)}, set(rng.sample(range(n), min(n, 3))), set(range(n))]
    if n > 2:
        subsets.pop()  # the plain scan of a passing carrier is long
    for term in fixed_terms() + random_terms(rng, 8):
        check_against_the_product_scan(T, term, subsets)


@pytest.mark.parametrize("n", SIZES)
def test_a_folded_table_holds_every_value_whatever_its_dropped_variables(n):
    rng = random.Random(n)
    T = table(n, rng, "planted")
    ydomain = sorted({T.one, rng.randrange(n)})
    domains = [range(n)] * 2 + [ydomain] * 2
    for term in fixed_terms() + random_terms(rng, 8):
        vs, values = tms._tabulate(T, term, ydomain)
        assert list(vs) == sorted(set(vs)) and set(vs) <= set(range(4))
        assert (vs == ()) == (len(set(values)) == 1)
        assignments = list(product(*[domains[v] for v in vs]))
        assert len(values) == len(assignments)
        for kept, value in zip(assignments, values):
            full = [rng.choice(domain) for domain in domains]  # dropped variables at random values
            for v, a in zip(vs, kept):
                full[v] = a
            assert naive_eval(T, term.root, full[:2], full[2:]) == value


@pytest.mark.parametrize("n", SIZES)
def test_an_absorbed_ideal_term_needs_no_whole_table_product(n, monkeypatch):
    T = table(n, random.Random(n), "implicative")

    def refuse(*args, **kwargs):
        raise AssertionError("whole-table product built")

    monkeypatch.setattr(tms, "_paired", refuse)
    monkeypatch.setattr(tms, "_bullet", refuse)
    term = parse_term("(b (b x0 x1) y0)")
    assert is_ideal_term(T, term)
    assert tms._tabulate(T, term, (T.one,)) == ((), bytes((T.one,)))


def test_only_a_column_constant_over_the_carrier_absorbs():
    # column 0 is (0, 0, 1): equal but for its last entry, so s*1 keeps s
    T = ImplicationTable(3, ((0, 1, 2), (0, 2, 1), (1, 0, 0)), 0)
    assert tms._tabulate(T, parse_term("(b x0 1)"), (0,)) == ((0,), bytes((0, 0, 1)))
    check_against_the_product_scan(T, Term(parse_term("(b (b x0 x1) 1)").root, 2, 1), [{0}, {0, 2}])
    # column 1 is (2, 2, 2), a value the zero padding of the column does not hold
    T = ImplicationTable(3, ((0, 2, 1), (1, 2, 0), (2, 2, 2)), 1)
    assert tms._tabulate(T, parse_term("(b (b x0 x1) 1)"), (1,)) == ((), bytes((2,)))
    check_against_the_product_scan(T, Term(parse_term("(b (b x0 x1) 1)").root, 2, 1), [{1}, {1, 2}])
