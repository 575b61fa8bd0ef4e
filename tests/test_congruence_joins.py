"""Joins of known congruences in Eq(A), and the kernel rules on carriers too large for bytes.

A table object keeps the partitions it has been shown to be congruences of.
`congruence_join` joins two of them by merging classes alone (Con(A) is a
sublattice of Eq(A)); any other join runs the closure.  Both routes must
give the same join of every pair of congruences: after `congruence_lattice`
a table knows all of its congruences, while a fresh copy knows none.  The
lattice makes its joins through `congruence_join`, and closes one principal
congruence per distinct generator and nothing else.  The kernel rules read
their line bitsets from one translate of the flattened table where every
entry fits in a byte, and entry by entry otherwise; both must give what the
plain scans of `tests/oracles.py` give.
"""

import dataclasses
import random
from itertools import product

import pytest

from orthokit import catalog, entry
from orthokit import congruence as cong
from orthokit.catalog_io import boolean_lattice
from orthokit.core import _cover_pairs
from orthokit.implication import ImplicationTable, induced_order
from test_congruence_covers import bool8_mutants, reduct
from test_congruence_generators import families_filters
from test_kernel_rules_oracle import assert_rules_match
from test_relabeling import horizontal_sum


@pytest.fixture
def closes(monkeypatch):
    """The table of each `_close` call made so far, in call order."""
    calls = []
    close = cong._close

    def counted(T, start, pending):
        calls.append(T)
        return close(T, start, pending)

    monkeypatch.setattr(cong, "_close", counted)
    return calls


@pytest.mark.parametrize("tables", [
    pytest.param(lambda: [e.payload for e in catalog() if e.kind == "implication"], id="catalog"),
    pytest.param(lambda: families_filters(0), id="families-seed0"),
    pytest.param(lambda: bool8_mutants()["join"], id="bool8-join-mutants"),
])
def test_every_join_of_two_congruences_is_the_same_by_both_routes(tables, closes):
    for T in tables():
        T = dataclasses.replace(T)
        lattice = cong.congruence_lattice(T)
        closes.clear()
        for P, Q in product(lattice, repeat=2):
            assert cong.congruence_join(T, P, Q) == cong.congruence_join(dataclasses.replace(T), P, Q)
        # the table that knows every congruence merged classes alone; a fresh copy closed every pair
        assert len(closes) == len(lattice) ** 2 and all(C is not T for C in closes)


def test_a_join_with_a_partition_that_is_no_congruence_still_closes(closes):
    T = dataclasses.replace(entry("bool8_reduct").payload)
    lattice = cong.congruence_lattice(T)
    Q = cong.Partition.from_blocks(T.n, [(0, 1)] + [(x,) for x in range(2, T.n)])
    assert Q not in lattice
    closes.clear()
    joined = cong.congruence_join(T, lattice[-1], Q)
    assert len(closes) == 1 and closes[0] is T
    assert joined in lattice and joined.rep[1] == 0


@pytest.mark.parametrize("k", [5, 6])
def test_the_lattice_joins_through_congruence_join_and_closes_once_per_generator(k, closes, monkeypatch):
    T = reduct(boolean_lattice(k))
    joins = []
    join = cong.congruence_join

    def counted(T, P, Q):
        joins.append(join(T, P, Q))
        return joins[-1]

    monkeypatch.setattr(cong, "congruence_join", counted)
    lattice = cong.congruence_lattice(T)
    generators = dict.fromkeys((T.one, T.bullet[d][a]) for a, d in _cover_pairs(induced_order(T).leq))
    assert len(closes) == len(generators) == k
    principals = {cong.principal_congruence(T, a, b) for a, b in generators}
    assert len(lattice) == 2 ** k and set(lattice) == {cong.Partition.identity(T.n), *principals, *joins}


def test_kernel_rules_on_a_carrier_above_256_elements_match_the_plain_scans():
    T = reduct(horizontal_sum(*[2] * 128))  # MO_128: 128 four-element Boolean blocks glued at 0 and 1
    assert T.n == 258 and not isinstance(cong._flat(T)[0], bytes)
    rng = random.Random(258)
    subsets = [{T.one}, {0, T.one}, {2, T.one}, {2, 3, T.one}, {2, 4, T.one}]
    subsets += [set(rng.sample(range(T.n), rng.randint(1, 5))) | {T.one} for _ in range(10)]
    for D in subsets:
        assert_rules_match(T, D)


def test_a_table_with_a_negative_entry_reads_its_lines_entry_by_entry():
    T = entry("bool4_reduct").payload
    for x, y in product(range(T.n), repeat=2):
        rows = list(T.bullet)
        rows[x] = rows[x][:y] + (-1,) + rows[x][y + 1:]
        M = ImplicationTable(T.n, tuple(rows), T.one)
        assert not isinstance(cong._flat(M)[0], bytes)
        for D in cong.subsets_with_one(M):
            assert_rules_match(M, D)
