"""An implication table's identity report, induced order, induced join and brute-force congruences
are decided once.

The four facts are kept on the table object: the first call decides, later
calls on the same object return what it decided, and a value-equal copy
decides afresh.  Exceptions are not kept, the brute-force list handed out is
a fresh one each time, and what a table keeps changes neither its ==, its
hash nor its repr.
"""

import dataclasses
import sys
from collections import Counter
from pathlib import Path

import pytest

from oracles import naive_congruence_lattice
from orthokit import catalog, catalog_io, core, entry, verify
from orthokit import congruence as cong
from orthokit import implication as imp
from orthokit.catalog_io import parse_olat
from orthokit.errors import BadIndex, NotAJoin, NotAnOrder, TooLarge
from orthokit.implication import ImplicationTable
from test_congruence_covers import filter_reducts

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

FACTS = {
    "identities": imp.check_ioa_identities,
    "induced_order": imp.induced_order,
    "induced_join": imp.induced_join,
    "bruteforce": cong._congruences_bruteforce,
}

ANTICHAIN = ImplicationTable(3, ((2, 0, 2), (1, 2, 2), (0, 1, 2)), 2)  # an order, but (0*1)*1 = 0 is no join
SYMMETRIC = ImplicationTable(3, ((2, 2, 2), (2, 2, 2), (0, 1, 2)), 2)  # 0 <= 1 <= 0: no order
OUT_OF_RANGE = ImplicationTable(2, ((1, 1), (0, 2)), 1)


@pytest.fixture
def decisions(monkeypatch):
    """Per fact, the table objects it was decided on, in call order."""
    seen = {key: [] for key in FACTS}

    def spy(key, decide):
        def counted(T):
            seen[key].append(T)
            return decide(T)
        return counted

    for key, fact in FACTS.items():
        monkeypatch.setattr(fact, "__wrapped__", spy(key, fact.__wrapped__))
    return seen


def pipeline(T):
    """What the families pipeline asks of one filter reduct, each fact at least twice."""
    imp.check_ioa_identities(T)
    imp.reconstruct_orthosemilattice(T)
    cong.congruence_lattice(T)
    if T.n <= cong.BRUTE_FORCE_LIMIT:
        cong.all_congruences_bruteforce(T)
        cong.verify_kernel_injectivity(T)


def catalog_reducts():
    return [dataclasses.replace(e.payload) for e in catalog() if e.kind == "implication"]


def family_filter_reducts(seed):
    """The filter reducts of one families-pipeline pass, as relabeled there."""
    models = workloads.prepare_families(seed, 0, None, {})["models"]
    return [T for m in models for T in filter_reducts(parse_olat(m["olat"]))]


@pytest.mark.parametrize("tables", [
    pytest.param(catalog_reducts, id="catalog"),
    pytest.param(lambda: family_filter_reducts(0), id="families-seed0"),
    pytest.param(lambda: family_filter_reducts(1), id="families-seed1"),
])
def test_each_fact_is_decided_once_per_table_and_equals_a_fresh_decision(decisions, tables):
    tables = tables()
    for T in tables:
        pipeline(T)
        pipeline(T)
    small = [T for T in tables if T.n <= cong.BRUTE_FORCE_LIMIT]
    for key, expected in (("identities", tables), ("induced_order", tables), ("induced_join", tables),
                          ("bruteforce", small)):
        counts = Counter(map(id, decisions[key]))
        assert len(decisions[key]) == len(expected) and counts == Counter(map(id, expected)), key
    for T in tables:
        fresh = dataclasses.replace(T)
        assert imp.check_ioa_identities(T) == imp.check_ioa_identities(fresh)
        assert imp.induced_order(T) == imp.induced_order(fresh)
        assert imp.induced_join(T) == imp.induced_join(fresh)
        if T.n <= cong.BRUTE_FORCE_LIMIT:
            assert cong.all_congruences_bruteforce(T) == cong.all_congruences_bruteforce(fresh)


def test_a_kept_report_is_the_same_object_and_a_copy_decides_again(decisions):
    T = dataclasses.replace(entry("mo2_reduct").payload)
    assert imp.check_ioa_identities(T) is imp.check_ioa_identities(T)
    assert imp.induced_order(T) is imp.induced_order(T)
    assert imp.induced_join(T) is imp.induced_join(T)
    assert imp.check_ioa_identities(dataclasses.replace(T)) == imp.check_ioa_identities(T)
    assert len(decisions["identities"]) == 2
    assert len(decisions["induced_order"]) == len(decisions["induced_join"]) == 1


def test_verify_theorems_all_decides_one_identity_report_per_catalog_reduct(decisions, monkeypatch):
    """The reduct each strong ortholattice and the semilattice entry derive is the catalog reduct
    equal to it in value and in names, so its report is decided once, on that object."""
    fresh = catalog_io.catalog.__wrapped__()
    monkeypatch.setattr(catalog_io, "catalog", lambda: fresh)
    verify.all_checks(seed=0)
    reducts = [e.payload for e in fresh if e.kind == "implication"]
    assert len(reducts) == 6
    assert Counter(map(id, decisions["identities"])) == Counter(map(id, reducts))


def test_value_equal_tables_keep_their_own_labels():
    T = entry("bool4_reduct").payload
    rows = [list(r) for r in T.bullet]
    rows[T.one][1] = T.one  # 1*a must be a: identity (a) fails at a
    bullet = tuple(map(tuple, rows))
    named, plain = ImplicationTable(T.n, bullet, T.one, T.names), ImplicationTable(T.n, bullet, T.one)
    assert named == plain and hash(named) == hash(plain)
    for _ in range(2):
        assert imp.check_ioa_identities(named)["ident-a"].detail == "x=a"
        assert imp.check_ioa_identities(plain)["ident-a"].detail == "x=1"


@pytest.mark.parametrize("key, call, T, error", [
    ("induced_join", imp.induced_join, ANTICHAIN, NotAJoin),
    ("induced_join", imp.induced_join, SYMMETRIC, NotAnOrder),
    ("induced_join", imp.induced_join, OUT_OF_RANGE, BadIndex),
    ("induced_order", imp.induced_order, SYMMETRIC, NotAnOrder),
    ("induced_order", imp.induced_order, OUT_OF_RANGE, BadIndex),
    ("identities", imp.check_ioa_identities, OUT_OF_RANGE, BadIndex),
    ("bruteforce", cong.all_congruences_bruteforce, entry("fig2_filter_no0_reduct").payload, TooLarge),
], ids=["not-a-join", "not-an-order", "bad-index-join", "order-not-an-order", "bad-index-order",
        "bad-index-identities", "too-large-n11"])
def test_an_exception_is_raised_again_on_every_call(decisions, key, call, T, error):
    T = dataclasses.replace(T)
    for _ in range(3):
        with pytest.raises(error):
            call(T)
    assert decisions[key] == [T] * 3


@pytest.mark.parametrize("T", [ANTICHAIN, SYMMETRIC], ids=["not-a-join", "not-an-order"])
def test_tables_without_a_join_still_take_every_pair(T):
    T = dataclasses.replace(T)
    for _ in range(2):
        assert [P.rep for P in cong.congruence_lattice(T)] == naive_congruence_lattice(T)
        with pytest.raises((NotAJoin, NotAnOrder)):
            imp.induced_join(T)


def test_a_mutated_brute_force_list_leaves_the_fact_alone():
    T = dataclasses.replace(entry("bool8_reduct").payload)
    first = cong.all_congruences_bruteforce(T)
    want = list(first)
    first.reverse()
    first.append(first[0])
    second = cong.all_congruences_bruteforce(T)
    assert second == want and second is not first
    assert cong.all_congruences_bruteforce(dataclasses.replace(T)) == want
    assert cong.verify_kernel_injectivity(T).ok


def test_kept_facts_change_neither_equality_nor_hash_nor_repr():
    T = dataclasses.replace(entry("bool8_reduct").payload)
    copy = dataclasses.replace(T)
    before = (repr(T), hash(T))
    pipeline(T)
    assert (repr(T), hash(T)) == before == (repr(copy), hash(copy))
    assert T == copy and copy == T
    assert {T: 1}[copy] == 1


def spy_on(monkeypatch, facts):
    """Per fact, the objects it was decided on, in call order, counted through `__wrapped__`."""
    seen = {key: [] for key in facts}
    for key, fact in facts.items():
        decide = fact.__wrapped__
        monkeypatch.setattr(fact, "__wrapped__", lambda T, decide=decide, into=seen[key]: into.append(T) or decide(T))
    return seen


def round_trip_facts():
    return {"validations": core.validate_orthosemilattice, "up_down": core._up_down, "covers": cong._covers}


@pytest.mark.parametrize("seed", [0, 1])
def test_a_families_pass_validates_each_filter_once_and_computes_each_order_bitsets_once(monkeypatch, seed):
    """One validation per filter, counting the filter and the table rebuilt from its reduct together,
    one set of bitsets per induced order, and one set of covers per table over two lattice runs."""
    seen = spy_on(monkeypatch, round_trip_facts())
    models = workloads.prepare_families(seed, 0, None, {})["models"]
    filters = [f for m in models for f in workloads._pipeline(m["olat"])["filters"]]
    assert filters
    for f in filters:
        cong.congruence_lattice(f["T"])
    validated = Counter(map(id, seen["validations"]))
    assert [validated[id(f["F"])] + validated[id(f["rebuilt"])] for f in filters] == [1] * len(filters)
    assert len(seen["validations"]) == len(filters)
    computed = Counter(map(id, seen["up_down"]))
    assert [computed[id(imp.induced_order(f["T"]))] for f in filters] == [1] * len(filters)
    assert Counter(map(id, seen["covers"])) == Counter(id(f["T"]) for f in filters)


def test_an_induced_order_computes_its_bitsets_inside_induced_order(monkeypatch):
    seen = spy_on(monkeypatch, round_trip_facts())
    T = dataclasses.replace(entry("fig2_filter_no0_reduct").payload)
    poset = imp.induced_order(T)
    assert seen["up_down"] == [poset]
    imp.induced_join(T)
    cong.congruence_lattice(T)
    cong.congruence_lattice(T)
    assert seen["up_down"] == [poset] and seen["covers"] == [T]
    assert cong._covers(T) is cong._covers(T)
