"""Derived structures do not depend on how the carrier is labeled.

Each model is relabeled by 12 seeded permutations.  The modular,
orthomodular and strong verdicts, the congruences of the derived reduct and
their kernels, and the first failing interval must all follow the
permutation.  The expected congruence counts come from theory: MO_k x 2 has
the 2 congruences of MO_k times the 2 of the chain, a horizontal sum of
Boolean blocks has 2, and 2^3 x 2 = 2^4 has 2^4.
"""

import random

import pytest

from orthokit import entry
from orthokit.catalog_io import boolean_lattice, ortholattice_from_covers
from orthokit.congruence import congruence_lattice, kernel
from orthokit.core import (
    OrtholatticeTable,
    as_orthosemilattice,
    find_interval_orthocomplementation,
    is_modular,
    is_orthomodular,
    is_strong,
)
from orthokit.errors import WitnessNotFound
from orthokit.implication import derive_bullet


def horizontal_sum(*heights):
    """Boolean blocks 2^h glued at a shared bottom 0 and top 1."""
    covers, comp_pairs, n = [], [(0, 1)], 2
    for h in heights:
        full = (1 << h) - 1
        index = {0: 0, full: 1}
        for mask in range(1, full):
            index[mask], n = n, n + 1
        covers += [(index[m], index[m | 1 << i]) for m in range(full) for i in range(h) if not m >> i & 1]
        comp_pairs += [(index[m], index[full ^ m]) for m in range(1, full) if m < full ^ m]
    return ortholattice_from_covers(n, covers, comp_pairs)


def times_chain2(L):
    """L x 2 with (a, c) at index 2a + c; every operation is componentwise."""
    rng = range(2 * L.n)
    return OrtholatticeTable(
        n=2 * L.n,
        join=tuple(tuple(2 * L.join[x >> 1][y >> 1] + ((x | y) & 1) for y in rng) for x in rng),
        meet=tuple(tuple(2 * L.meet[x >> 1][y >> 1] + (x & y & 1) for y in rng) for x in rng),
        comp=tuple(2 * L.comp[x >> 1] + (~x & 1) for x in rng),
        bot=2 * L.bot,
        top=2 * L.top + 1,
    )


def relabel(L, perm):
    """The isomorphic copy of L in which element x is called perm[x]."""
    rng = range(L.n)
    inv = sorted(rng, key=perm.__getitem__)

    def table(t):
        return tuple(tuple(perm[t[inv[x]][inv[y]]] for y in rng) for x in rng)

    return OrtholatticeTable(L.n, table(L.join), table(L.meet), tuple(perm[L.comp[inv[x]]] for x in rng),
                             perm[L.bot], perm[L.top])


def facts(L):
    strong = is_strong(L)
    kernels = None
    if strong:
        T = derive_bullet(as_orthosemilattice(L, strong.witnesses))
        kernels = [kernel(T, P).members for P in congruence_lattice(T)]
    return is_modular(L).ok, is_orthomodular(L).ok, strong, kernels


def bad_elements(L):
    """The p whose interval [p, 1] has no orthocomplementation at all."""
    bad = set()
    for p in range(L.n):
        try:
            find_interval_orthocomplementation(L, p)
        except WitnessNotFound:
            bad.add(p)
    return bad


MODELS = [
    ("mo2x2", lambda: times_chain2(entry("mo2").payload), 4),
    ("mo3x2", lambda: times_chain2(horizontal_sum(2, 2, 2)), 4),
    ("hs3_3", lambda: horizontal_sum(3, 3), 2),
    ("bool8x2", lambda: times_chain2(boolean_lattice(3)), 16),
    ("hexagonx2", lambda: times_chain2(entry("fig1_o6").payload), None),
]


@pytest.mark.parametrize("build, congruences", [pytest.param(b, c, id=name) for name, b, c in MODELS])
def test_derived_structures_follow_every_relabeling(build, congruences):
    base = build()
    modular, orthomodular, strong, kernels = facts(base)
    assert (len(kernels) if strong else None) == congruences
    bad = set() if strong else bad_elements(base)
    for seed in range(12):
        perm = list(range(base.n))
        random.Random(seed).shuffle(perm)
        got_modular, got_orthomodular, got_strong, got_kernels = facts(relabel(base, perm))
        assert (got_modular, got_orthomodular, got_strong.strong) == (modular, orthomodular, strong.strong), seed
        if strong:
            assert len(got_kernels) == len(kernels), seed
            assert set(got_kernels) == {frozenset(perm[x] for x in K) for K in kernels}, seed
        else:
            # several elements fail and is_strong reports the least index, so which one depends on perm
            assert got_strong.failing_p == min(perm[p] for p in bad), seed
