"""Every single-cell corruption of a catalog table must be rejected by its validator.

Mutants are built from the join and meet tables of each catalog
ortholattice, the operation table of each reduct, and each interval-witness
entry of the orthosemilattices; a mutant passes this test when its
validator reports a failure or raises AlgebraError.
"""

import dataclasses

from orthokit import catalog, semilattice
from orthokit.core import IntervalWitness, is_strong, validate_ortholattice, validate_orthosemilattice
from orthokit.errors import AlgebraError
from orthokit.implication import check_ioa_identities

STRONG = ("chain2", "bool4", "bool8", "mo2", "fig2_strong12")


def cell_mutants(table, n):
    """Copies of a square table with one cell changed to each other value in range(n)."""
    for i in range(n):
        for j in range(n):
            for v in range(n):
                if v != table[i][j]:
                    rows = list(table)
                    rows[i] = rows[i][:j] + (v,) + rows[i][j + 1:]
                    yield tuple(rows)


def witness_mutants(S):
    """Copies of S with one in-interval witness entry changed to each other element."""
    for p, w in enumerate(S.witnesses):
        for a in w.domain():
            for v in range(S.n):
                if v != w.cmap[a]:
                    witnesses = list(S.witnesses)
                    witnesses[p] = IntervalWitness(p, w.cmap[:a] + (v,) + w.cmap[a + 1:])
                    yield dataclasses.replace(S, witnesses=tuple(witnesses))


def rejected(validate, mutant) -> bool:
    try:
        return not validate(mutant).ok
    except AlgebraError:
        return True


def all_mutants():
    for e in catalog():
        if e.kind == "ortholattice":
            L = e.payload
            for field in ("join", "meet"):
                for table in cell_mutants(getattr(L, field), L.n):
                    yield validate_ortholattice, dataclasses.replace(L, **{field: table})
        elif e.kind == "implication":
            T = e.payload
            for table in cell_mutants(T.bullet, T.n):
                yield check_ioa_identities, dataclasses.replace(T, bullet=table)
    for name in STRONG + ("fig2_filter_no0",):
        for S in witness_mutants(semilattice(name)):
            yield validate_orthosemilattice, S


def test_strong_list_is_every_strong_catalog_ortholattice():
    strong = tuple(e.name for e in catalog() if e.kind == "ortholattice" and is_strong(e.payload))
    assert strong == STRONG


def test_every_single_cell_mutant_is_rejected():
    count = 0
    survivors = []
    for validate, mutant in all_mutants():
        count += 1
        if not rejected(validate, mutant):
            survivors.append(mutant)
    assert count == 9439
    assert survivors == []
