"""`closed_subsets` decides its clauses for all subsets at once, on bitsets over subset positions.

Bit i of each bitset stands for the i-th subset of the list, so lists longer
than a machine word (64) and than a thousand entries spread every clause over
several words; duplicates, ranges, unsorted lists and the carrier among proper
subsets must not move a verdict off its position.  Every verdict must equal
`bool(closed_under_term(T, D, term))`.
"""

import random

import pytest

from orthokit import entry
from orthokit.catalog_io import boolean_lattice
from orthokit.congruence import congruence_lattice, kernel, subsets_with_one
from orthokit.core import as_orthosemilattice
from orthokit.implication import derive_bullet
from orthokit.terms import builtin_terms, closed_subsets, closed_under_term, random_ideal_terms

TERMS = builtin_terms()


def single(T, D, term):
    return bool(closed_under_term(T, D, term))


@pytest.fixture(scope="module")
def bool16():
    T = derive_bullet(as_orthosemilattice(boolean_lattice(4)))
    return T, list(subsets_with_one(T))


@pytest.mark.parametrize("count", [100, 1025])
def test_lists_longer_than_a_word_match_the_single_subset_decision(bool16, count):
    T, subsets = bool16
    sample = random.Random(count).sample(subsets, count)
    assert sample.count(frozenset(range(T.n))) <= 1
    for term in [*TERMS.values(), *random_ideal_terms(T, 1, seed=3)]:
        assert closed_subsets(T, sample, term) == tuple(single(T, D, term) for D in sample)


def test_all_32768_subsets_of_the_2_4_reduct(bool16):
    T, subsets = bool16
    assert len(subsets) == 2 ** 15
    kernels = {kernel(T, P).members for P in congruence_lattice(T)}
    at_kernels = [i for i, D in enumerate(subsets) if D in kernels]
    # every verdict of t1, whose one-subset check is cheap; for the rest the kernels, a stride
    # through every word of the bitsets and the last positions, where the highest bits sit
    checked = {"t1": range(len(subsets))}
    spread = sorted({*at_kernels, *range(0, len(subsets), 97), *range(len(subsets) - 64, len(subsets))})
    for name, term in TERMS.items():
        got = closed_subsets(T, subsets, term)
        assert len(got) == len(subsets)
        assert all(got[i] for i in at_kernels)
        for i in checked.get(name, spread):
            assert got[i] == single(T, subsets[i], term), (name, sorted(subsets[i]))


@pytest.mark.parametrize("name", ["bool4_reduct", "mo2_reduct", "bool8_reduct"])
def test_duplicates_ranges_unsorted_and_the_carrier_in_the_middle(name):
    T = entry(name).payload
    rng = random.Random(T.n)
    proper = [D for D in subsets_with_one(T) if len(D) < T.n]
    picked = rng.sample(proper, min(len(proper), 12))
    carrier = frozenset(range(T.n))
    subsets = picked[:6] + [carrier] + picked[6:]
    subsets += [picked[0], picked[0], sorted(picked[1], reverse=True), list(picked[2]) * 2]
    subsets += [range(T.n), range(1, T.n), range(T.n - 1), range(T.one, T.one + 1)]
    rng.shuffle(subsets)
    for term in TERMS.values():
        got = closed_subsets(T, subsets, term)
        assert got == tuple(single(T, D, term) for D in subsets)
        # a verdict is a function of the set alone, wherever and however often it appears
        by_set = {}
        for D, ok in zip(subsets, got):
            assert by_set.setdefault(frozenset(D), ok) == ok


@pytest.mark.parametrize("name", ["bool4_reduct", "bool8_reduct"])
def test_the_carrier_alone_or_repeated_needs_no_clause(name):
    T = entry(name).payload
    carrier = frozenset(range(T.n))
    for term in TERMS.values():
        assert closed_subsets(T, [range(T.n)], term) == (True,)
        assert closed_subsets(T, [carrier, range(T.n), {T.one}, carrier], term) == (
            True, True, single(T, {T.one}, term), True)
