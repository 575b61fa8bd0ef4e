"""`congruence_lattice` generates from the covering pairs, held to the all-pairs oracle.

Where `induced_join` accepts a table, x v y = (x*y)*y is a term operation and
the least upper bound of the induced order, so every congruence class is
convex and the principal congruences of the covering pairs generate every
congruence under join.  Any other table takes all n(n-1)/2 pairs.  Both
routes must list exactly what `oracles.naive_congruence_lattice` lists, which
closes every pair with its own fixpoint.  The same cover scan writes the `le`
lines of `serialize_olat`.
"""

import dataclasses
import sys
from itertools import combinations
from pathlib import Path

import pytest

from oracles import naive_congruence_lattice, naive_cover_pairs
from orthokit import catalog, entry
from orthokit import congruence as cong
from orthokit.catalog_io import boolean_lattice, parse_olat, serialize_olat
from orthokit.core import _cover_pairs, as_orthosemilattice, is_strong, restrict_to_filter
from orthokit.errors import NotAJoin, NotAnOrder
from orthokit.implication import derive_bullet, induced_join
from test_mutants import cell_mutants
from test_relabeling import horizontal_sum, times_chain2

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

LARGE = {
    "bool32": lambda: boolean_lattice(5),
    "mo15": lambda: horizontal_sum(*[2] * 15),
    "bool16x2": lambda: times_chain2(boolean_lattice(4)),
}


def reduct(L):
    return derive_bullet(as_orthosemilattice(L))


def reps(T):
    return [P.rep for P in cong.congruence_lattice(T)]


def families_lattices():
    """The ortholattices of one families-pipeline pass at seed 0, as relabeled there."""
    return [parse_olat(m["olat"]) for m in workloads.prepare_families(0, 0, None, {})["models"]]


def filter_reducts(L):
    strong = is_strong(L)
    if not strong:
        return []
    S = as_orthosemilattice(L, strong.witnesses)
    return [derive_bullet(restrict_to_filter(S, [x for x in range(S.n) if S.le(p, x)])) for p in range(S.n)]


def induced_leq(T):
    return [[v == T.one for v in row] for row in T.bullet]


# --- the cover scan ---------------------------------------------------------------


def cover_inputs():
    out = [(e.name, e.payload.poset().leq) for e in catalog() if e.kind == "ortholattice"]
    out += [(e.name, induced_leq(e.payload)) for e in catalog() if e.kind == "implication"]
    out += [(name, build().poset().leq) for name, build in LARGE.items()]
    return [pytest.param(leq, id=name) for name, leq in out]


@pytest.mark.parametrize("leq", cover_inputs())
def test_cover_scan_equals_the_naive_triple_loop(leq):
    assert _cover_pairs(leq) == naive_cover_pairs(leq)


def test_olat_order_lines_are_the_naive_covers():
    lattices = [e.payload for e in catalog() if e.kind == "ortholattice"]
    lattices += [build() for build in LARGE.values()] + families_lattices()
    for L in lattices:
        lines = serialize_olat(L).splitlines()
        assert [line for line in lines if line.startswith("le ")] == [
            f"le {a} {d}" for a, d in naive_cover_pairs(L.poset().leq)
        ]
        assert parse_olat("\n".join(lines) + "\n") == L


# --- the cover route against the all-pairs oracle ----------------------------------


def reduct_inputs():
    out = [(e.name, e.payload) for e in catalog() if e.kind == "implication"]
    out += [(name, reduct(build())) for name, build in LARGE.items()]
    return [pytest.param(T, id=name) for name, T in out]


@pytest.mark.parametrize("T", reduct_inputs())
def test_lattice_equals_the_all_pairs_oracle_list_for_list(T):
    induced_join(T)  # raises unless T takes the cover route
    assert reps(T) == naive_congruence_lattice(T)


def test_every_families_filter_reduct_equals_the_all_pairs_oracle():
    tables = [T for L in families_lattices() for T in filter_reducts(L)]
    assert len(tables) == 176
    for T in tables:
        assert reps(T) == naive_congruence_lattice(T)


def test_boolean_64_has_one_congruence_per_filter():
    L = boolean_lattice(6)
    T = reduct(L)
    lattice = cong.congruence_lattice(T)
    assert len(lattice) == 64
    assert all(cong.congruence_violation(T, P) is None for P in lattice)
    filters = {frozenset(x for x in range(L.n) if L.le(p, x)) for p in range(L.n)}
    assert {cong.kernel(T, P).members for P in lattice} == filters


# --- tables that are not reducts ----------------------------------------------------


def bool8_mutants():
    """Every single-cell mutant of bool8_reduct, grouped by what `induced_join` says of it."""
    T = entry("bool8_reduct").payload
    groups = {"join": [], NotAJoin: [], NotAnOrder: []}
    for table in cell_mutants(T.bullet, T.n):
        M = dataclasses.replace(T, bullet=table)
        try:
            induced_join(M)
            groups["join"].append(M)
        except (NotAJoin, NotAnOrder) as exc:
            groups[type(exc)].append(M)
    return groups


@pytest.fixture
def generators_and_lattice(monkeypatch):
    """A function of T giving the pairs `congruence_lattice` closes principally, and its result."""
    seen = []
    principal = cong.principal_congruence

    def spy(T, a, b):
        seen.append((a, b))
        return principal(T, a, b)

    def run(T):
        seen.clear()
        got = reps(T)
        return list(seen), got

    monkeypatch.setattr(cong, "principal_congruence", spy)
    return run


def test_mutants_with_a_join_take_the_covers_and_equal_the_oracle(generators_and_lattice):
    mutants = bool8_mutants()["join"]
    assert len(mutants) == 36
    for M in mutants:
        seen, got = generators_and_lattice(M)
        assert seen == list(dict.fromkeys((M.one, M.bullet[d][a]) for a, d in _cover_pairs(induced_leq(M))))
        assert got == naive_congruence_lattice(M)


@pytest.mark.parametrize("error, count", [(NotAJoin, 252), (NotAnOrder, 160)], ids=["not-a-join", "not-an-order"])
def test_mutants_without_a_join_take_every_pair(generators_and_lattice, error, count):
    mutants = bool8_mutants()[error]
    assert len(mutants) == count
    for M in mutants:
        seen, got = generators_and_lattice(M)
        assert seen == list(combinations(range(M.n), 2))
        assert got == naive_congruence_lattice(M)
