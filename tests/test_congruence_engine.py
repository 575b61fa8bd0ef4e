"""The pruned partition search and the principal-join lattice against naive oracles.

The search is held to the plain filter of every set partition by the
two-pair definition, the lattice to the search, and the join to a closure
over both partitions' pairs.  The verify check lines name the congruence a
broken enumeration loses or the pair of congruences a kernel collision joins.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokit import catalog, entry, verify
from orthokit.catalog_io import boolean_lattice, ortholattice_from_covers
from orthokit.congruence import (
    BRUTE_FORCE_LIMIT,
    Partition,
    all_congruences_bruteforce,
    congruence_closure,
    congruence_join,
    congruence_lattice,
    congruence_violation,
    iter_partitions,
    kernel,
)
from orthokit.core import as_orthosemilattice, is_strong, restrict_to_filter
from orthokit.implication import ImplicationTable, derive_bullet

from oracles import naive_is_congruence


def mo(k):
    """The horizontal sum MO_k of k four-element Boolean blocks: 0, 1 and the pairs (2i, 2i+1)."""
    atoms = range(2, 2 * k + 2)
    covers = [(0, a) for a in atoms] + [(a, 1) for a in atoms]
    return ortholattice_from_covers(2 * k + 2, covers, [(0, 1)] + [(a, a + 1) for a in atoms[::2]])


def filter_reducts():
    """(name, table) for the catalog reducts and every principal-filter reduct of a strong
    catalog ortholattice, of MO_3, MO_4 (n = 10, the brute-force limit) and 2^4."""
    out = [(e.name, e.payload) for e in catalog() if e.kind == "implication"]
    lattices = [(e.name, e.payload) for e in catalog() if e.kind == "ortholattice"]
    lattices += [("mo3", mo(3)), ("mo4", mo(4)), ("bool16", boolean_lattice(4))]
    for name, L in lattices:
        strong = is_strong(L)
        if not strong:
            continue
        S = as_orthosemilattice(L, strong.witnesses)
        for p in range(S.n):
            F = restrict_to_filter(S, [x for x in range(S.n) if S.le(p, x)])
            out.append((f"{name}[{S.label(p)},1]", derive_bullet(F)))
    return out


def up_to(max_n):
    return [pytest.param(T, id=name) for name, T in filter_reducts() if T.n <= max_n]


def block_pairs(P):
    return [(block[0], x) for block in P.blocks() for x in block[1:]]


@pytest.mark.parametrize("T", up_to(8))
def test_search_equals_the_naive_partition_filter(T):
    naive = [Partition(rep) for rep in iter_partitions(T.n) if naive_is_congruence(T, Partition(rep))]
    naive.sort(key=Partition.sort_key)
    assert all_congruences_bruteforce(T) == naive


@pytest.mark.parametrize("T", up_to(BRUTE_FORCE_LIMIT))
def test_lattice_equals_the_search_list_for_list(T):
    assert congruence_lattice(T) == all_congruences_bruteforce(T)


def test_lattice_of_mo4_has_the_two_trivial_congruences():
    (T,) = [T for name, T in filter_reducts() if name == "mo4[0,1]"]
    assert T.n == BRUTE_FORCE_LIMIT
    assert all_congruences_bruteforce(T) == congruence_lattice(T) == [Partition.total(10), Partition.identity(10)]


@st.composite
def partitions(draw, n):
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    first = {}
    return Partition(tuple(first.setdefault(label, x) for x, label in enumerate(labels)))


@pytest.mark.parametrize("name", ["mo2_reduct", "bool8_reduct"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_join_equals_the_closure_of_both_partitions(name, data):
    T = entry(name).payload
    P = data.draw(st.sampled_from(congruence_lattice(T)))
    Q = data.draw(partitions(T.n))
    assert congruence_join(T, P, Q) == congruence_closure(T, block_pairs(P) + block_pairs(Q))


@st.composite
def operation_tables(draw):
    """Any binary operation on up to 6 elements, its values drawn from the first few, so that
    congruences beyond the principal ones occur."""
    n = draw(st.integers(1, 6))
    values = st.integers(0, min(n - 1, draw(st.integers(0, 3))))
    rows = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n))
    return ImplicationTable(n, tuple(map(tuple, rows)), 0)


@settings(max_examples=300, deadline=None)
@given(T=operation_tables())
def test_both_routes_equal_the_naive_filter_on_any_operation(T):
    naive = [Partition(rep) for rep in iter_partitions(T.n) if naive_is_congruence(T, Partition(rep))]
    naive.sort(key=Partition.sort_key)
    assert all_congruences_bruteforce(T) == naive
    assert congruence_lattice(T) == naive


def relabeled(T, perm):
    rows = [[0] * T.n for _ in range(T.n)]
    for x in range(T.n):
        for y in range(T.n):
            rows[perm[x]][perm[y]] = perm[T.bullet[x][y]]
    return ImplicationTable(T.n, tuple(map(tuple, rows)), perm[T.one])


@pytest.mark.parametrize("T", up_to(12))
def test_relabeled_reduct_has_the_same_congruences(T):
    perm = list(range(T.n))
    random.Random(T.n).shuffle(perm)
    U = relabeled(T, perm)
    moved = {Partition.from_blocks(T.n, [[perm[x] for x in b] for b in P.blocks()]) for P in congruence_lattice(T)}
    assert set(congruence_lattice(U)) == moved
    if T.n <= BRUTE_FORCE_LIMIT:
        assert len(all_congruences_bruteforce(U)) == len(moved)


def line_of(checks, suffix):
    (line,) = [c.line() for c in checks if c.name.endswith(suffix)]
    return line


def test_agreement_check_names_the_congruence_closure_lost(monkeypatch):
    T = entry("mo2_reduct").payload
    full = congruence_lattice(T)
    lost = full[1]
    monkeypatch.setattr(verify.cong, "congruence_lattice", lambda T: [P for P in full if P != lost])
    checks = verify._reduct_checks("mo2_reduct", T, seed=0)
    assert line_of(checks, "closure and brute-force congruences agree") == (
        f"check mo2_reduct: closure and brute-force congruences agree FAIL {lost.blocks()} found only by brute force"
    )


def test_injectivity_check_names_the_colliding_pair(monkeypatch):
    T = entry("bool4_reduct").payload
    first, second = all_congruences_bruteforce(T)[:2]
    monkeypatch.setattr(verify.cong, "kernel", lambda T, P: kernel(T, first))
    checks = verify._reduct_checks("bool4_reduct", T, seed=0)
    assert line_of(checks, "kernel map injective") == (
        f"check bool4_reduct: kernel map injective FAIL {first.blocks()} and {second.blocks()}"
        f" share the kernel {sorted(kernel(T, first).members)}"
    )


def test_compatibility_check_names_the_bad_congruence_and_its_violation(monkeypatch):
    T = entry("fig2_filter_no0_reduct").payload
    assert T.n > BRUTE_FORCE_LIMIT
    bad = next(P for P in (Partition.from_blocks(T.n, [(0, y)] + [(x,) for x in range(1, T.n) if x != y])
                           for y in range(1, T.n))
               if congruence_violation(T, P) is not None)
    full = congruence_lattice(T)
    monkeypatch.setattr(verify.cong, "congruence_lattice", lambda T: full + [bad])
    checks = verify._reduct_checks("fig2_filter_no0_reduct", T, seed=0)
    assert line_of(checks, "every closure congruence is compatible") == (
        f"check fig2_filter_no0_reduct: every closure congruence is compatible FAIL"
        f" {bad.blocks()} violated at {congruence_violation(T, bad)}"
    )
