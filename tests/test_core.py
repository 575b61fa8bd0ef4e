import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokit import (
    IntervalWitness,
    as_orthosemilattice,
    check_overlap_consistency,
    entry,
    find_interval_orthocomplementation,
    interval,
    is_modular,
    is_orthomodular,
    is_strong,
    lattice_from_order,
    order_filter_to_orthosemilattice,
    restrict_to_filter,
    semilattice,
    validate_interval_witness,
    validate_ortholattice,
    validate_orthosemilattice,
    validate_poset,
)
from orthokit.core import OrtholatticeTable
from orthokit.errors import (
    BadIndex,
    NoJoin,
    NotAntisymmetric,
    NoTop,
    NotReflexive,
    NotStrong,
    NotTransitive,
    NotUpwardClosed,
    WitnessNotFound,
)

from oracles import (
    closure_from_covers,
    naive_glb,
    naive_interval_glb,
    naive_is_partial_order,
    naive_lub,
    relative_complement,
)

FIG1_COVERS = [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)]
FIG2_COVERS = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
    (1, 6), (1, 7), (2, 6), (2, 8), (3, 7), (3, 9),
    (4, 8), (4, 10), (5, 9), (5, 10),
    (6, 11), (7, 11), (8, 11), (9, 11), (10, 11),
]


def fig1():
    return entry("fig1_o6").payload


def fig2():
    return entry("fig2_strong12").payload


# --- posets -----------------------------------------------------------------


def test_singleton_poset():
    p = validate_poset([[True]])
    assert p.n == 1


def test_fig1_order_is_a_valid_poset():
    leq = closure_from_covers(6, FIG1_COVERS)
    p = validate_poset(leq)
    assert p.n == 6
    assert p.le(1, 2) and not p.le(2, 1)  # a < b
    assert p.le(3, 4)                     # b' < a'
    assert not p.le(1, 3) and not p.le(3, 1)


def test_two_cycle_is_not_antisymmetric():
    leq = [[True, True], [True, True]]
    with pytest.raises(NotAntisymmetric):
        validate_poset(leq)


def test_non_reflexive_and_non_transitive_relations():
    with pytest.raises(NotReflexive):
        validate_poset([[False]])
    leq = [[True, True, False], [False, True, True], [False, False, True]]
    with pytest.raises(NotTransitive):
        validate_poset(leq)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 5), data=st.data())
def test_poset_validation_matches_the_naive_definition(n, data):
    bits = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    leq = [[bits[i * n + j] or i == j for j in range(n)] for i in range(n)]
    try:
        validate_poset(leq)
        accepted = True
    except (NotReflexive, NotAntisymmetric, NotTransitive):
        accepted = False
    assert accepted == naive_is_partial_order(leq)


# --- lattice construction ---------------------------------------------------


def test_fig1_lattice_tables_match_bound_scans():
    leq = closure_from_covers(6, FIG1_COVERS)
    join, meet, bot, top = lattice_from_order(validate_poset(leq))
    assert (bot, top) == (0, 5)
    for i in range(6):
        for j in range(6):
            assert join[i][j] == naive_lub(leq, i, j)
            assert meet[i][j] == naive_glb(leq, i, j)
    # a v b' reaches the top: 1 is their only common upper bound
    assert join[1][3] == 5


def test_antichain_has_no_top():
    leq = [[True, False], [False, True]]
    with pytest.raises(NoTop):
        lattice_from_order(validate_poset(leq))


def test_incomparable_coatoms_with_two_joins():
    # 0 below a, b; a, b both below c, d; c, d below 1: a v b is ambiguous
    covers = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)]
    leq = closure_from_covers(6, covers)
    with pytest.raises(NoJoin):
        lattice_from_order(validate_poset(leq))


def test_fig2_is_a_twelve_element_lattice():
    leq = closure_from_covers(12, FIG2_COVERS)
    join, meet, bot, top = lattice_from_order(validate_poset(leq))
    L = fig2()
    assert (L.join, L.meet, L.bot, L.top) == (join, meet, 0, 11)


# --- ortholattice validation ------------------------------------------------


def test_fig1_and_fig2_pass_all_axioms():
    assert validate_ortholattice(fig1()).ok
    assert validate_ortholattice(fig2()).ok


def test_broken_involution_is_reported():
    L = fig1()
    comp = list(L.comp)
    comp[1] = 3  # comp(a) points at b' while comp(b') still points back at b
    broken = OrtholatticeTable(L.n, L.join, L.meet, tuple(comp), L.bot, L.top, L.names)
    report = validate_ortholattice(broken)
    assert not report.ok
    assert not report["comp-involution"].passed
    assert "a" in report["comp-involution"].detail


def test_swapped_complements_break_antitonicity_and_de_morgan():
    L = fig1()
    comp = [5, 3, 4, 1, 2, 0]  # a <-> b' and b <-> a'
    broken = OrtholatticeTable(L.n, L.join, L.meet, tuple(comp), L.bot, L.top, L.names)
    report = validate_ortholattice(broken)
    assert report["comp-involution"].passed
    assert report["complement-join"].passed and report["complement-meet"].passed
    assert not report["comp-antitone"].passed
    assert not report["de-morgan-join"].passed


def test_de_morgan_follows_from_involution_and_antitonicity_on_catalog():
    from orthokit import catalog

    for e in catalog():
        if e.kind != "ortholattice":
            continue
        report = validate_ortholattice(e.payload)
        assert report["comp-involution"].passed
        assert report["comp-antitone"].passed
        assert report["de-morgan-join"].passed and report["de-morgan-meet"].passed


# --- intervals and witnesses ------------------------------------------------


def test_interval_contents():
    assert interval(fig1(), 1) == (1, 2, 5)            # [a, 1] = {a, b, 1}
    assert interval(fig1(), 5) == (5,)
    assert interval(fig2(), 1) == (1, 6, 7, 11)        # [e, 1] = {e, c', d', 1}
    for e in ("fig1_o6", "fig2_strong12", "bool8"):
        L = entry(e).payload
        assert interval(L, L.bot) == tuple(range(L.n))
        assert interval(L, L.top) == (L.top,)
    with pytest.raises(BadIndex):
        interval(fig1(), 6)


def test_three_chain_interval_has_no_witness():
    with pytest.raises(WitnessNotFound) as exc:
        find_interval_orthocomplementation(fig1(), 1)
    assert exc.value.p == 1
    assert exc.value.element == 2  # b, the middle of the 3-chain {a, b, 1}


def test_fig2_interval_above_e_has_the_forced_witness():
    from orthokit.errors import OutOfInterval

    w = find_interval_orthocomplementation(fig2(), 1)
    # [e, 1] is a 4-element Boolean interval: e <-> 1 and c' <-> d'
    assert w.cmap[1] == 11 and w.cmap[11] == 1
    assert w.cmap[6] == 7 and w.cmap[7] == 6
    assert w.cmap[0] is None and w.cmap[2] is None
    assert w.domain() == (1, 6, 7, 11)
    assert w.comp_of(6) == 7
    with pytest.raises(OutOfInterval):
        w.comp_of(0)


def test_witness_at_bottom_is_valid_and_deterministic():
    for name in ("bool4", "mo2", "fig2_strong12"):
        L = entry(name).payload
        w1 = find_interval_orthocomplementation(L, L.bot)
        w2 = find_interval_orthocomplementation(L, L.bot)
        assert w1 == w2
        assert validate_interval_witness(L, w1).ok


def test_bottom_interval_always_has_a_witness():
    # the global complementation itself complements [bot, 1], so the search
    # must succeed there even on non-strong lattices
    from orthokit import catalog

    for e in catalog():
        if e.kind != "ortholattice":
            continue
        L = e.payload
        global_cmap = IntervalWitness(L.bot, tuple(L.comp))
        assert validate_interval_witness(L, global_cmap).ok
        found = find_interval_orthocomplementation(L, L.bot)
        assert validate_interval_witness(L, found).ok


def test_interval_witness_failures_name_the_domain_and_the_complement_meet():
    L = entry("bool8").payload
    # a map also set at 0, which lies below p = 1: the domain it claims is reported
    cmap = list(find_interval_orthocomplementation(L, 1).cmap)
    cmap[0] = 0
    assert validate_interval_witness(L, IntervalWitness(1, tuple(cmap))).witness == ("domain", (0, 1, 3, 5, 7))
    # a v comp(a) = 1 still holds everywhere, but a ^ comp(a) now reads 2 at a = 1
    meet = [list(row) for row in L.meet]
    meet[1][6] = 2
    M = dataclasses.replace(L, meet=tuple(map(tuple, meet)))
    assert validate_interval_witness(M, IntervalWitness(0, L.comp)).witness == ("complement-meet", 1)


def _all_valid_witness_maps(L, p):
    # brute-force oracle: enumerate every self-map of the interval, keep the
    # valid orthocomplementations as full-length cmap tuples
    from itertools import product

    members = interval(L, p)
    valid = []
    for images in product(members, repeat=len(members)):
        cmap = dict(zip(members, images))
        if any(cmap[cmap[a]] != a for a in members):
            continue
        if any(L.join[a][cmap[a]] != L.top or L.meet[a][cmap[a]] != p for a in members):
            continue
        if any(L.le(a, b) and not L.le(cmap[b], cmap[a]) for a in members for b in members):
            continue
        valid.append(tuple(cmap.get(a) for a in range(L.n)))
    return valid


def test_search_returns_the_lexicographically_least_witness():
    for name in ("mo2", "bool4", "fig1_o6"):
        L = entry(name).payload
        valid = _all_valid_witness_maps(L, L.bot)
        assert valid
        found = find_interval_orthocomplementation(L, L.bot)
        assert tuple(found.cmap) == min(valid)


def test_search_agrees_with_the_oracle_on_every_small_interval():
    # every interval with at most 6 elements, across all catalog lattices:
    # the search succeeds exactly when the oracle finds any witness, and
    # then returns the least one
    from orthokit import catalog

    for e in catalog():
        if e.kind != "ortholattice":
            continue
        L = e.payload
        for p in range(L.n):
            if len(interval(L, p)) > 6:
                continue
            valid = _all_valid_witness_maps(L, p)
            if valid:
                assert tuple(find_interval_orthocomplementation(L, p).cmap) == min(valid)
            else:
                with pytest.raises(WitnessNotFound):
                    find_interval_orthocomplementation(L, p)


def test_witness_search_guard():
    from orthokit.catalog_io import boolean_lattice
    from orthokit.errors import TooLarge
    from test_relabeling import times_chain2

    big = boolean_lattice(5)
    with pytest.raises(TooLarge):
        find_interval_orthocomplementation(big, 0)
    # hexagon x 2^3: the first interval without a relative-complement witness has 3 * 8 = 24 elements
    o6_cube = times_chain2(times_chain2(times_chain2(entry("fig1_o6").payload)))
    with pytest.raises(TooLarge, match="interval size 24"):
        is_strong(o6_cube)


@pytest.mark.parametrize("search", [is_strong, lambda L: find_interval_orthocomplementation(L, 0)],
                         ids=["is_strong", "find_interval_orthocomplementation"])
@pytest.mark.parametrize("corrupt", [
    lambda L: dataclasses.replace(L, comp=L.comp[:-1]),
    lambda L: dataclasses.replace(L, join=((L.n, *L.join[0][1:]), *L.join[1:])),
    lambda L: dataclasses.replace(L, comp=(-1, *L.comp[1:])),
], ids=["comp-one-short", "join-entry-n", "comp-entry-negative"])
def test_strongness_rejects_malformed_tables(search, corrupt):
    """A table that validate_ortholattice refuses is refused, not answered "not strong at p=0"."""
    L = corrupt(entry("bool4").payload)
    with pytest.raises(BadIndex):
        validate_ortholattice(L)
    with pytest.raises(BadIndex):
        search(L)


def test_boolean_witnesses_are_relative_complements():
    for name in ("bool4", "bool8"):
        L = entry(name).payload
        result = is_strong(L)
        assert result.strong
        for p in range(L.n):
            for a in interval(L, p):
                assert result.witnesses[p].cmap[a] == relative_complement(L, p, a)


def test_strongness_results():
    r1 = is_strong(fig1())
    assert not r1.strong and r1.failing_p == 1 and r1.witnesses is None
    for name in ("chain2", "bool4", "bool8", "mo2", "fig2_strong12"):
        result = is_strong(entry(name).payload)
        assert result.strong
        L = entry(name).payload
        for w in result.witnesses:
            assert validate_interval_witness(L, w).ok


def test_comp_join_map_is_a_witness_on_orthomodular_models():
    for name in ("mo2", "bool8", "bool4", "chain2"):
        L = entry(name).payload
        for p in range(L.n):
            cmap = tuple(L.join[L.comp[a]][p] if L.le(p, a) else None for a in range(L.n))
            assert validate_interval_witness(L, IntervalWitness(p, cmap)).ok


def test_witness_validation_catches_broken_antitonicity():
    # a full involution on fig2 with all complement laws intact but the
    # order reversed incorrectly: e <= c' yet cmap(c') = a' is not below d
    L = fig2()
    pairs = {0: 11, 11: 0, 1: 4, 4: 1, 2: 5, 5: 2, 3: 8, 8: 3, 6: 9, 9: 6, 7: 10, 10: 7}
    w = IntervalWitness(0, tuple(pairs[a] for a in range(12)))
    for a in range(12):
        assert L.join[a][w.cmap[a]] == L.top and L.meet[a][w.cmap[a]] == L.bot
    v = validate_interval_witness(L, w)
    assert not v.ok and v.witness[0] == "antitone"


# --- modularity and orthomodularity ------------------------------------------


def test_fig2_fails_the_modular_law_inside_the_pentagon():
    L = fig2()
    zero, e, d, bp, one = 0, 1, 4, 8, 11
    # {0, e, d, b', 1} is closed under join and meet
    pent = [zero, e, d, bp, one]
    for x in pent:
        for y in pent:
            assert L.join[x][y] in pent and L.meet[x][y] in pent
    # the law fails at x=d <= z=b' with y=e
    assert L.le(d, bp)
    assert L.join[d][L.meet[e][bp]] == d
    assert L.meet[L.join[d][e]][bp] == bp
    v = is_modular(L)
    assert not v.ok
    x, y, z = v.witness
    assert L.le(x, z) and L.join[x][L.meet[y][z]] != L.meet[L.join[x][y]][z]


def test_fig2_fails_orthomodularity_at_a_below_c_prime():
    L = fig2()
    a, cp_ = 2, 6
    assert L.le(a, cp_)
    assert L.join[a][L.meet[L.comp[a]][cp_]] == a != cp_
    v = is_orthomodular(L)
    assert not v.ok
    x, y = v.witness
    assert L.le(x, y) and L.join[x][L.meet[L.comp[x]][y]] != y


def test_mo2_is_orthomodular_and_modular():
    L = entry("mo2").payload
    assert is_orthomodular(L).ok
    assert is_modular(L).ok


def test_fig1_is_neither_modular_nor_orthomodular():
    L = fig1()
    # pentagon {0, a, b, b', 1}: a <= b but a v (b' ^ b) = a != b = (a v b') ^ b
    assert L.join[1][L.meet[3][2]] == 1
    assert L.meet[L.join[1][3]][2] == 2
    assert not is_modular(L).ok
    assert not is_orthomodular(L).ok


# --- order filters and orthosemilattices -------------------------------------


def test_whole_carrier_filter_is_the_lattice_itself():
    L = fig2()
    S = order_filter_to_orthosemilattice(L, range(L.n))
    assert S.n == L.n and S.join == L.join and S.top == L.top
    assert validate_orthosemilattice(S).ok


def test_bottomless_filter_has_no_global_meets():
    L = fig2()
    S = order_filter_to_orthosemilattice(L, range(1, 12))
    assert S.n == 11
    assert validate_orthosemilattice(S).ok
    # e and a (now 0 and 1) have no common lower bound left
    leq = [[S.le(i, j) for j in range(S.n)] for i in range(S.n)]
    lows = [x for x in range(S.n) if leq[x][0] and leq[x][1]]
    assert lows == []


def test_filter_of_a_non_strong_lattice_is_rejected():
    with pytest.raises(NotStrong) as exc:
        order_filter_to_orthosemilattice(fig1(), [0, 1, 2, 3, 4, 5])
    assert exc.value.failing_p == 1


def test_non_upward_closed_set_is_rejected():
    S = semilattice("fig2_strong12")
    with pytest.raises(NotUpwardClosed):
        restrict_to_filter(S, [1, 11])  # e without its covers c', d'


def test_singleton_orthosemilattice_is_valid():
    S = restrict_to_filter(semilattice("bool4"), [3])
    assert S.n == 1
    assert validate_orthosemilattice(S).ok


def test_corrupted_witness_is_rejected():
    S = semilattice("fig2_strong12")
    witnesses = list(S.witnesses)
    cmap = list(witnesses[1].cmap)
    cmap[6], cmap[7], cmap[11], cmap[1] = 6, 7, 11, 1  # every element self-paired
    witnesses[1] = IntervalWitness(1, tuple(cmap))
    from orthokit.core import OrthosemilatticeTable

    broken = OrthosemilatticeTable(S.n, S.join, S.top, tuple(witnesses), S.names)
    report = validate_orthosemilattice(broken)
    assert not report.ok
    assert not report["complement-join"].passed


def test_interval_meets_match_bound_scans():
    for name in ("fig2_strong12", "fig2_filter_no0", "bool8", "mo2"):
        S = semilattice(name)
        leq = [[S.le(i, j) for j in range(S.n)] for i in range(S.n)]
        for p in range(S.n):
            members = interval(S, p)
            w = S.witnesses[p].cmap
            for a in members:
                for b in members:
                    got = w[S.join[w[a]][w[b]]]
                    assert got == naive_interval_glb(leq, members, a, b)


def test_overlap_consistency_on_catalog_semilattices():
    for name in ("chain2", "bool4", "bool8", "mo2", "fig2_strong12", "fig2_filter_no0"):
        assert check_overlap_consistency(semilattice(name)).ok
    singleton = restrict_to_filter(semilattice("bool4"), [3])
    assert check_overlap_consistency(singleton).ok


def test_as_orthosemilattice_requires_strongness():
    with pytest.raises(NotStrong):
        as_orthosemilattice(fig1())
