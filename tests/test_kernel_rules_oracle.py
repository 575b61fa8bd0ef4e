"""The kernel rules decided on θ_D's classes, held witness for witness to the plain triple scans.

`check_d1`, `check_d2`, each D2 half, `congruence_violation` and
`theta_from_kernel` must give exactly what the scans of `tests/oracles.py`
give, exception type and witness included.  The inputs are every subset
containing 1 of the catalog reducts with n <= 8 and of the one-element
reduct, whose row and column getters read one entry; the kernels and seeded
random subsets of the families filters at seeds 0 and 1 (n <= 16); seeded
random partitions; and the single-entry corruptions of bool4_reduct and
fig2_reduct, where θ_D can fail to be an equivalence or to be compatible.
"""

import dataclasses
import random

import pytest

from oracles import (
    naive_congruence_violation,
    naive_d1_failure,
    naive_d2_failure,
    naive_theta_from_kernel,
    subsets_containing,
)
from orthokit import catalog, entry
from orthokit import congruence as cong
from orthokit.errors import AlgebraError
from orthokit.implication import ImplicationTable
from test_congruence_generators import families_filters
from test_mutants import cell_mutants


def outcome(f, *args):
    """f(*args), or the type and message of the AlgebraError it raised."""
    try:
        return f(*args)
    except AlgebraError as exc:
        return type(exc), str(exc)


def assert_rules_match(T, D):
    members = frozenset(D)
    for got, naive in ((cong.check_d1(T, D), naive_d1_failure(T, D)), (cong.check_d2(T, D), naive_d2_failure(T, D))):
        assert (got.ok, got.witness) == (naive is None, naive)
    for half in ({"right": False}, {"left": False}):
        assert cong._d2_failure(T, members, **half) == naive_d2_failure(T, D, **half)
    assert outcome(lambda: cong.theta_from_kernel(T, D).rep) == outcome(naive_theta_from_kernel, T, D)


def random_subsets(T, rng, count):
    """`count` subsets containing 1, each other element kept with probability 1/2."""
    return [frozenset(x for x in range(T.n) if rng.random() < 0.5) | {T.one} for _ in range(count)]


def random_partition(n, rng):
    """A partition of 0..n-1 from random labels, as a least-representative `Partition`."""
    labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    first: dict[int, int] = {}
    return cong.Partition(tuple(first.setdefault(label, x) for x, label in enumerate(labels)))


def is_equivalence(T, D):
    """Whether x ~ y iff x*y, y*x in D is reflexive and transitive (it is symmetric by definition)."""
    B, rng = T.bullet, range(T.n)
    rel = [[B[x][y] in D and B[y][x] in D for y in rng] for x in rng]
    return all(rel[x][x] for x in rng) and all(
        rel[x][z] for x in rng for y in rng if rel[x][y] for z in rng if rel[y][z])


def kernels(T):
    return [cong.kernel(T, P).members for P in cong.congruence_lattice(T)]


ONE_ELEMENT = ImplicationTable(1, ((0,),), 0)


@pytest.mark.parametrize("T", [pytest.param(e.payload, id=e.name) for e in catalog()
                               if e.kind == "implication" and e.payload.n <= 8]
                         + [pytest.param(ONE_ELEMENT, id="one-element")])
def test_every_subset_of_a_small_catalog_reduct(T):
    for D in subsets_containing(T.n, T.one):
        assert_rules_match(T, D)


@pytest.mark.parametrize("seed", [0, 1])
def test_kernels_and_random_subsets_of_the_families_filters(seed):
    rng = random.Random(seed)
    tables = families_filters(seed)
    assert max(T.n for T in tables) == 16
    for T in tables:
        for D in kernels(T) + random_subsets(T, rng, 3):
            assert_rules_match(T, D)


@pytest.mark.parametrize("seed", [0, 1])
def test_random_partitions(seed):
    rng = random.Random(seed)
    tables = [e.payload for e in catalog() if e.kind == "implication"] + families_filters(seed)[::4]
    tables.append(ONE_ELEMENT)
    for T in tables:
        for P in cong.congruence_lattice(T) + [random_partition(T.n, rng) for _ in range(8)]:
            assert cong.congruence_violation(T, P) == naive_congruence_violation(T, P)


@pytest.mark.parametrize("name, stride", [("bool4_reduct", 1), ("fig2_reduct", 3)])
def test_single_entry_corruptions(name, stride):
    T = entry(name).payload
    rng = random.Random(name)
    reached = {"not an equivalence": 0, "not compatible": 0}
    for table in list(cell_mutants(T.bullet, T.n))[::stride]:
        M = dataclasses.replace(T, bullet=table)
        for D in kernels(T) + random_subsets(M, rng, 3):
            assert_rules_match(M, D)
            equivalence = is_equivalence(M, D)
            assert cong._theta(*cong._line_bits(M, frozenset(D)))[1] == equivalence
            if not equivalence:
                reached["not an equivalence"] += 1
            elif naive_d2_failure(M, D) is not None:
                reached["not compatible"] += 1
        P = random_partition(M.n, rng)
        assert cong.congruence_violation(M, P) == naive_congruence_violation(M, P)
    assert all(reached.values()), reached


@pytest.mark.parametrize("seed", [0, 1])
def test_every_partition_and_subset_of_random_tables(seed):
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randint(2, 5)
        T = ImplicationTable(n, tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)), rng.randrange(n))
        for rep in cong.iter_partitions(n):
            P = cong.Partition(rep)
            assert cong.congruence_violation(T, P) == naive_congruence_violation(T, P)
        for D in subsets_containing(n, T.one):
            assert_rules_match(T, D)
