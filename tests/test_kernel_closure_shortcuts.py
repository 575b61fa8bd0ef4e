"""Closure verdicts that hold by definition, answered without tables.

The carrier is closed under every term, so `closed_subsets` answers it with
no table and spans its one table, and the budget, over the proper subsets
only.  `random_ideal_terms` draws one candidate stream per seed; it must
return exactly the terms of a fresh draw on every call.
"""

import random

import pytest

from orthokit import catalog, entry
from orthokit import terms as tms
from orthokit.congruence import congruence_lattice, kernel
from orthokit.errors import TooLarge
from orthokit.terms import TERM_SCAN_LIMIT, Term, builtin_terms, closed_subsets, closed_under_term, random_ideal_terms

from oracles import naive_random_ideal_terms

REDUCTS = [e for e in catalog() if e.kind == "implication"]


def kernels(T):
    return sorted((kernel(T, P).members for P in congruence_lattice(T)), key=lambda k: (len(k), sorted(k)))


@pytest.mark.parametrize("e", REDUCTS, ids=lambda e: e.name)
@pytest.mark.parametrize("name", sorted(builtin_terms()))
def test_the_carrier_among_proper_subsets_matches_the_single_subset_decision(e, name):
    T, term = e.payload, builtin_terms()[name]
    carrier = frozenset(range(T.n))
    rng = random.Random(T.n)
    proper = [K for K in kernels(T) if K != carrier]
    proper += [frozenset(rng.sample(range(T.n), rng.randrange(T.n))) | {T.one} for _ in range(4)]
    proper = [D for D in proper if D != carrier]
    for subsets in ([carrier] + proper, proper + [carrier], proper[:1] + [carrier] + proper[1:] + [carrier]):
        assert closed_subsets(T, subsets, term) == tuple(bool(closed_under_term(T, D, term)) for D in subsets)


@pytest.mark.parametrize("e", REDUCTS, ids=lambda e: e.name)
def test_the_carrier_alone_builds_no_table(e, monkeypatch):
    T = e.payload

    def no_tables(*args):
        raise AssertionError("a table was built for the carrier")

    monkeypatch.setattr(tms, "_tabulate", no_tables)
    for term in builtin_terms().values():
        assert closed_subsets(T, [range(T.n)], term) == (True,)
        assert closed_subsets(T, [set(range(T.n))] * 3, term) == (True, True, True)


def test_the_budget_spans_the_proper_subsets_only():
    T = entry("fig2_reduct").payload
    t1 = builtin_terms()["t1"]
    term = Term(t1.root, t1.xarity + 4, t1.yarity)
    carrier = frozenset(range(T.n))
    # y over {1} fits the budget, y over the whole carrier does not
    assert T.n ** 5 <= TERM_SCAN_LIMIT < T.n ** 6
    with pytest.raises(TooLarge):
        closed_under_term(T, carrier, term)
    assert closed_subsets(T, [carrier, {T.one}], term) == (True, bool(closed_under_term(T, {T.one}, term)))


def test_random_ideal_terms_match_a_fresh_draw_per_call():
    seeds = range(4)
    # seeds interleaved across tables, then tables interleaved on one seed; counts that shrink and grow
    calls = [(e, seed, 20) for e in REDUCTS for seed in seeds]
    calls += [(e, seed, count) for seed in seeds for e in REDUCTS for count in (5, 20, 24)]
    for e, seed, count in calls:
        assert random_ideal_terms(e.payload, count, seed=seed) == naive_random_ideal_terms(e.payload, count, seed)
    assert list(tms._streams) == [seeds[-1]]


def test_a_stream_too_short_for_the_count_is_refused(monkeypatch):
    T = entry("bool4_reduct").payload
    monkeypatch.setattr(tms, "RANDOM_TERM_TRIES", 5)
    monkeypatch.setattr(tms, "_streams", {})
    for fn in (lambda: random_ideal_terms(T, 20, seed=0), lambda: naive_random_ideal_terms(T, 20, 0)):
        with pytest.raises(RuntimeError):
            fn()
    assert random_ideal_terms(T, 0, seed=0) == naive_random_ideal_terms(T, 0, 0) == []
