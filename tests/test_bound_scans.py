"""The bitset bound scans against naive oracles.

Every fast path here must give the same answer as the plain scan on every
input, valid or not: the same table, or the same exception naming the same
pair.  Random relations are not orders in general, and the cell mutants of
the reducts and the changed join tables are mostly not joins, so the
first-candidate rule of the scans matters as much as the bound they find.
"""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from orthokit import catalog, interval, semilattice
from orthokit.core import (
    IntervalWitness,
    OrthosemilatticeTable,
    PosetTable,
    check_overlap_consistency,
    lattice_from_order,
    validate_orthosemilattice,
)
from orthokit.errors import NoBottom, NoJoin, NoMeet, NoTop
from orthokit.implication import ImplicationTable, induced_join
from orthokit.report import first_failure

from oracles import closure_from_covers, naive_least, naive_lub
from validator_oracles import naive_induced_join, naive_validate_orthosemilattice

REDUCTS = [e for e in catalog() if e.kind == "implication"]


def outcome(f, *args):
    """The value of f, or the type and arguments of what it raised."""
    try:
        return "value", f(*args)
    except Exception as exc:  # compared as data
        return "raised", type(exc), exc.args


def naive_lattice_from_order(leq):
    """(join, meet, bot, top) by the predicate scan, raising as lattice_from_order does."""
    n = len(leq)
    tops = [i for i in range(n) if all(leq[j][i] for j in range(n))]
    if not tops:
        raise NoTop()
    bots = [i for i in range(n) if all(leq[i][j] for j in range(n))]
    if not bots:
        raise NoBottom()
    join = [[None] * n for _ in range(n)]
    meet = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            join[i][j] = naive_least(lambda a, b: leq[a][b], [k for k in range(n) if leq[i][k] and leq[j][k]])
            if join[i][j] is None:
                raise NoJoin(i, j)
            meet[i][j] = naive_least(lambda a, b: leq[b][a], [k for k in range(n) if leq[k][i] and leq[k][j]])
            if meet[i][j] is None:
                raise NoMeet(i, j)
    return tuple(map(tuple, join)), tuple(map(tuple, meet)), bots[0], tops[0]


@st.composite
def reflexive_relations(draw):
    """A reflexive relation on up to 8 elements, of random density; half of them get a common
    top and bottom, so that the scans reach the pairs instead of stopping at a missing extremum."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    n = rnd.randint(1, 8)
    density = rnd.random()
    leq = [[i == j or rnd.random() < density for j in range(n)] for i in range(n)]
    if rnd.random() < 0.5:
        top, bot = rnd.randrange(n), rnd.randrange(n)
        for i in range(n):
            leq[i][top] = True
            leq[bot][i] = True
    return tuple(map(tuple, leq))


@st.composite
def orders_with_top(draw):
    """A partial order on up to 8 elements with a greatest element and, half the time, a least
    one, under a random labeling.  The other elements form two levels, each upper element
    above a random set of lower ones, so that two elements often have two minimal upper
    bounds and the order is not a lattice."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    lower, upper = rnd.randint(0, 3), rnd.randint(0, 3)
    least = rnd.random() < 0.5
    n = least + lower + upper + 1
    perm = rnd.sample(range(n), n)
    lows, highs, top = perm[least:least + lower], perm[least + lower:n - 1], perm[n - 1]
    covers = [(a, b) for a in lows for b in highs if rnd.random() < 0.7]
    covers += [(x, top) for x in perm[:-1]]
    if least:
        covers += [(perm[0], x) for x in perm[1:]]
    return tuple(map(tuple, closure_from_covers(n, covers)))


@settings(max_examples=400, deadline=None)
@given(leq=st.one_of(reflexive_relations(), orders_with_top()))
def test_lattice_from_order_matches_the_predicate_scan_on_any_reflexive_relation(leq):
    assert outcome(lattice_from_order, PosetTable(len(leq), leq)) == outcome(naive_lattice_from_order, leq)


@settings(max_examples=400, deadline=None)
@given(leq=st.one_of(reflexive_relations(), orders_with_top()), seed=st.integers(0, 2**32))
def test_induced_join_accepts_and_rejects_where_the_oracle_does(leq, seed):
    """A table whose induced order is the drawn relation; each other entry is the naive lub
    or any element other than 1, so that genuine joins occur as well as wrong ones."""
    rnd = random.Random(seed)
    n = len(leq)
    one = rnd.randrange(n)
    others = [v for v in range(n) if v != one] or [one]
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            lub = naive_lub(leq, x, y)
            if leq[x][y]:
                row.append(one)
            elif lub not in (None, one) and rnd.random() < 0.7:
                row.append(lub)
            else:
                row.append(rnd.choice(others))
        rows.append(tuple(row))
    T = ImplicationTable(n, tuple(rows), one)
    assert outcome(induced_join, T) == outcome(naive_induced_join, T)


def test_induced_join_matches_the_oracle_on_reducts_and_their_cell_mutants():
    for e in REDUCTS:
        T = e.payload
        assert induced_join(T) == naive_induced_join(T)
        if T.n > 8:
            continue
        for x in range(T.n):
            for y in range(T.n):
                for v in range(T.n):
                    rows = list(T.bullet)
                    rows[x] = rows[x][:y] + (v,) + rows[x][y + 1:]
                    M = dataclasses.replace(T, bullet=tuple(rows))
                    assert outcome(induced_join, M) == outcome(naive_induced_join, M)


def naive_overlap(S):
    """The report of check_overlap_consistency, by plain loops.  A witness undefined at a or b
    leaves the meet undefined (None)."""
    jn, lab, rng = S.join, S.label, range(S.n)
    w = [S.witnesses[p].cmap for p in rng]

    def meet(p, a, b):
        return None if w[p][a] is None or w[p][b] is None else w[p][jn[w[p][a]][w[p][b]]]

    return (first_failure("overlap-meets", (
        f"p={lab(p)} q={lab(q)} a={lab(a)} b={lab(b)}: "
        f"meet {lab(meet(p, a, b))} in [p,1] vs {lab(meet(q, a, b))} in [q,1]"
        for p in rng for q in rng if jn[p][q] == q
        for a in interval(S, q) for b in interval(S, q)
        if meet(p, a, b) != meet(q, a, b)
    )),)


def checks_of(f, S):
    """The checks of f's report, or the type and arguments of what f raised."""
    got = outcome(f, S)
    return ("value", tuple(got[1].checks)) if got[0] == "value" and hasattr(got[1], "checks") else got


@st.composite
def witnessed_join_tables(draw):
    """A small catalog semilattice with a few join cells changed, or a random table on up to
    5 elements, with witnesses whose domains are the new intervals: each keeps its old image
    where that stays inside, else takes a random one.  The domain check passes, so every
    later check runs, on tables that mostly are not semilattices."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    if rnd.random() < 0.5:
        S = semilattice(rnd.choice(("chain2", "bool4", "bool8", "mo2")))
        n, top, names = S.n, S.top, S.names
        rows = [list(row) for row in S.join]
        for _ in range(rnd.randint(0, 3)):
            rows[rnd.randrange(n)][rnd.randrange(n)] = rnd.randrange(n)
        old = [w.cmap for w in S.witnesses]
    else:
        n = rnd.randint(1, 5)
        top, names = rnd.randrange(n), None
        rows = [[rnd.randrange(n) for _ in range(n)] for _ in range(n)]
        old = [(None,) * n] * n
    witnesses = []
    for p in range(n):
        members = [a for a in range(n) if rows[p][a] == a]
        cmap = [None] * n
        for a in members:
            keep = old[p][a] in members and rnd.random() < 0.8
            cmap[a] = old[p][a] if keep else rnd.choice(members)
        witnesses.append(IntervalWitness(p, tuple(cmap)))
    return OrthosemilatticeTable(n, tuple(map(tuple, rows)), top, tuple(witnesses), names)


@settings(max_examples=300, deadline=None)
@given(S=witnessed_join_tables())
def test_validator_and_overlap_details_match_plain_loops_on_witnessed_tables(S):
    assert checks_of(validate_orthosemilattice, S) == checks_of(naive_validate_orthosemilattice, S)
    assert checks_of(check_overlap_consistency, S) == checks_of(naive_overlap, S)
