"""The validators decided by whole-row and bitset tests, held report for report to the plain scans.

`validate_poset`, `validate_ortholattice`, `validate_orthosemilattice` and
`induced_join` must give exactly what the ordered scans of
`tests/validator_oracles.py` give: the same report, detail strings included,
or the same exception type and arguments.  The inputs are every catalog
model, its order and, for a strong lattice, its principal filters; the
models, principal filters and reducts of the families passes at seeds 0
and 1; one-element tables, where a row getter reads a single entry; entries
outside the carrier; every single-entry corruption of the join, meet and
complement tables of the catalog ortholattices, of their order relations
and those of the reducts, of the witness maps and join tables of the strong
catalog orthosemilattices, and of the reducts' tables; and three tables that
only one clause of a fast test rejects.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from orthokit import catalog, semilattice
from orthokit.catalog_io import parse_olat
from orthokit.core import (
    IntervalWitness,
    OrtholatticeTable,
    OrthosemilatticeTable,
    as_orthosemilattice,
    is_strong,
    restrict_to_filter,
    validate_ortholattice,
    validate_orthosemilattice,
    validate_poset,
)
from orthokit.implication import ImplicationTable, derive_bullet, induced_join
from test_mutants import STRONG, cell_mutants, witness_mutants
from validator_oracles import (
    naive_induced_join,
    naive_validate_ortholattice,
    naive_validate_orthosemilattice,
    naive_validate_poset,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

CATALOG = {e.name: e for e in catalog()}
LATTICES = [name for name, e in CATALOG.items() if e.kind == "ortholattice"]
REDUCTS = [name for name, e in CATALOG.items() if e.kind == "implication"]


def outcome(f, x):
    """The checks of f(x)'s report, its value, or the type and arguments of what it raised."""
    try:
        got = f(x)
    except Exception as exc:  # compared as data
        return "raised", type(exc), exc.args
    return "value", got.checks if hasattr(got, "checks") else got


def fresh(T: ImplicationTable) -> ImplicationTable:
    """A copy of T, which keeps none of the facts decided on T."""
    return dataclasses.replace(T)


def assert_same(x):
    """Every validator that applies to x gives what its oracle gives."""
    if isinstance(x, OrtholatticeTable):
        assert outcome(validate_ortholattice, x) == outcome(naive_validate_ortholattice, x)
    elif isinstance(x, OrthosemilatticeTable):
        assert outcome(validate_orthosemilattice, x) == outcome(naive_validate_orthosemilattice, x)
    elif isinstance(x, ImplicationTable):
        assert outcome(induced_join, fresh(x)) == outcome(naive_induced_join, x)
    else:
        assert outcome(validate_poset, x) == outcome(naive_validate_poset, x)


def leq_of(x):
    """The relation x <= y of a table with a join, or x*y = 1 of an implication table."""
    rng = range(x.n)
    if isinstance(x, ImplicationTable):
        return tuple(tuple(x.bullet[a][b] == x.one for b in rng) for a in rng)
    return tuple(tuple(x.join[a][b] == b for b in rng) for a in rng)


def leq_mutants(leq):
    """Copies of a boolean relation with one entry flipped."""
    for i, row in enumerate(leq):
        for j, v in enumerate(row):
            yield leq[:i] + (row[:j] + (not v,) + row[j + 1:],) + leq[i + 1:]


def filters(L):
    """The principal filters of a strong ortholattice, as orthosemilattices, or none."""
    strong = is_strong(L)
    if not strong:
        return []
    S = as_orthosemilattice(L, strong.witnesses)
    return [restrict_to_filter(S, [x for x in range(S.n) if S.le(p, x)]) for p in range(S.n)]


def rewitnessed(S, join):
    """S with the join table `join` and witnesses whose domains are its intervals: each keeps
    its old image where that stays inside the interval, else maps to the interval's least member."""
    rng = range(S.n)
    witnesses = []
    for p, w in enumerate(S.witnesses):
        members = [a for a in rng if join[p][a] == a]
        cmap = [None] * S.n
        for a in members:
            cmap[a] = w.cmap[a] if w.cmap[a] in members else members[0]
        witnesses.append(IntervalWitness(p, tuple(cmap)))
    return dataclasses.replace(S, join=join, witnesses=tuple(witnesses))


ONE = OrtholatticeTable(1, ((0,),), ((0,),), (0,), 0, 0)


@pytest.mark.parametrize("name", list(CATALOG))
def test_every_catalog_model(name):
    x = CATALOG[name].payload
    assert_same(x)
    assert_same(leq_of(x))
    if isinstance(x, OrtholatticeTable):
        for F in filters(x):
            assert_same(F)


def test_one_element_tables():
    S = as_orthosemilattice(ONE)
    for x in (ONE, S, derive_bullet(S), ((True,),), ((False,),)):
        assert_same(x)
    assert validate_ortholattice(ONE).ok and validate_orthosemilattice(S).ok


@pytest.mark.parametrize("seed", [0, 1])
def test_every_families_filter(seed):
    for model in workloads.prepare_families(seed, 0, None, {})["models"]:
        L = parse_olat(model["olat"])
        assert_same(L)
        for F in filters(L):
            assert_same(F)
            assert_same(derive_bullet(F))


@pytest.mark.parametrize("name", LATTICES)
def test_join_meet_and_comp_corruptions(name):
    L = CATALOG[name].payload
    for field in ("join", "meet"):
        for table in cell_mutants(getattr(L, field), L.n):
            assert_same(dataclasses.replace(L, **{field: table}))
    for i, c in enumerate(L.comp):
        for v in range(L.n):
            if v != c:
                assert_same(dataclasses.replace(L, comp=L.comp[:i] + (v,) + L.comp[i + 1:]))


@pytest.mark.parametrize("name", LATTICES + REDUCTS)
def test_order_corruptions(name):
    for leq in leq_mutants(leq_of(CATALOG[name].payload)):
        assert_same(leq)


@pytest.mark.parametrize("name", STRONG + ("fig2_filter_no0",))
def test_witness_and_join_corruptions(name):
    S = semilattice(name)
    for M in witness_mutants(S):
        assert_same(M)
    for join in cell_mutants(S.join, S.n):
        assert_same(dataclasses.replace(S, join=join))
        assert_same(rewitnessed(S, join))


@pytest.mark.parametrize("name", REDUCTS)
def test_reduct_corruptions(name):
    T = CATALOG[name].payload
    for bullet in cell_mutants(T.bullet, T.n):
        assert_same(dataclasses.replace(T, bullet=bullet))


def test_tables_that_need_every_clause():
    """Inputs no single-entry corruption of a catalog table reaches.

    The join of 1 and 2 in T is the upper bound 4, symmetric, though their
    lub is 3: only the test that every upper bound lies above x v y rejects
    it.  The join of S is commutative and every De Morgan meet of [0, 1] is
    a greatest lower bound, yet 0 <= 2 while comp(2) = 1 is not below
    comp(0) = 0: antitonicity follows from the meets only on a reflexive
    order, and 1 v 1 = 0 here.  The witness stored at 0 in W has the map of
    [0, 1] but claims p = 1.
    """
    T = ImplicationTable(6, ((5, 5, 5, 5, 5, 5), (1, 5, 3, 5, 5, 5), (2, 3, 5, 5, 5, 5),
                             (3, 4, 4, 5, 5, 5), (4, 3, 3, 4, 5, 5), (0, 1, 2, 3, 4, 5)), 5)
    S = OrthosemilatticeTable(3, ((0, 1, 2), (1, 0, 0), (2, 0, 0)), 0, (
        IntervalWitness(0, (0, 0, 1)), IntervalWitness(1, (None,) * 3), IntervalWitness(2, (None,) * 3)))
    W = semilattice("bool4")
    W = dataclasses.replace(W, witnesses=(IntervalWitness(1, W.witnesses[0].cmap),) + W.witnesses[1:])
    for x in (T, S, W):
        assert_same(x)
    assert not validate_orthosemilattice(S)["witness-antitone"].passed


@pytest.mark.parametrize("v", [-1, 4])
def test_entries_out_of_range(v):
    """An entry outside the carrier of bool4 raises the same BadIndex in every validator."""
    L, S, T = CATALOG["bool4"].payload, semilattice("bool4"), CATALOG["bool4_reduct"].payload

    def put(table):
        return ((v,) + table[0][1:],) + table[1:]

    for x in (dataclasses.replace(L, join=put(L.join)), dataclasses.replace(L, meet=put(L.meet)),
              dataclasses.replace(L, comp=(v,) + L.comp[1:]), dataclasses.replace(S, join=put(S.join)),
              dataclasses.replace(T, bullet=put(T.bullet))):
        assert_same(x)
