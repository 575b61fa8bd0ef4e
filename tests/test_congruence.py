import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokit import catalog, entry
from orthokit.congruence import (
    BRUTE_FORCE_LIMIT,
    Partition,
    all_congruences_bruteforce,
    check_d1,
    check_d2,
    congruence_lattice,
    is_congruence,
    iter_partitions,
    kernel,
    principal_congruence,
    theta_from_kernel,
    verify_kernel_injectivity,
)
from orthokit.errors import BadIndex, MissingOne, NotD1, TooLarge
from orthokit.implication import ImplicationTable

from oracles import naive_is_congruence, subsets_containing


def reducts(max_n=None):
    out = [e for e in catalog() if e.kind == "implication"]
    if max_n is not None:
        out = [e for e in out if e.payload.n <= max_n]
    return out


SINGLETON = ImplicationTable(1, ((0,),), 0)


# --- partitions -----------------------------------------------------------------


def test_partition_invariants_enforced():
    Partition((0, 0, 2))
    with pytest.raises(BadIndex):
        Partition((1, 1))  # rep must be the least element of its block
    with pytest.raises(BadIndex):
        Partition((0, 2, 2))  # rep of a rep must be itself


def test_partition_blocks_and_lookup():
    P = Partition((0, 0, 2, 2, 0))
    assert P.blocks() == ((0, 1, 4), (2, 3))
    assert P.same(0, 4) and not P.same(1, 2)
    assert Partition.from_blocks(4, [(1, 3), (0,), (2,)]) == Partition((0, 1, 2, 1))


def test_partition_count_is_the_bell_number():
    counts = [sum(1 for _ in iter_partitions(n)) for n in range(1, 7)]
    assert counts == [1, 2, 5, 15, 52, 203]


# --- congruence recognition --------------------------------------------------------


def test_trivial_partitions_are_congruences_everywhere():
    for e in reducts():
        T = e.payload
        assert is_congruence(T, Partition.identity(T.n)).ok
        assert is_congruence(T, Partition.total(T.n)).ok


def test_gluing_bottom_to_an_atom_is_not_a_congruence():
    T = entry("bool4_reduct").payload
    P = Partition.from_blocks(4, [(0, 1), (2,), (3,)])
    assert not naive_is_congruence(T, P)
    v = is_congruence(T, P)
    assert not v.ok
    a, b, c, d = v.witness
    assert P.same(a, b) and P.same(c, d)
    assert not P.same(T.bullet[a][c], T.bullet[b][d])


def test_recognition_matches_the_two_pair_definition_exhaustively():
    for name in ("chain2_reduct", "bool4_reduct"):
        T = entry(name).payload
        for rep in iter_partitions(T.n):
            P = Partition(rep)
            assert is_congruence(T, P).ok == naive_is_congruence(T, P)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_recognition_matches_the_definition_on_mo2(data):
    T = entry("mo2_reduct").payload
    rep = data.draw(st.sampled_from(sorted(iter_partitions(T.n))))
    P = Partition(rep)
    assert is_congruence(T, P).ok == naive_is_congruence(T, P)


# --- enumeration ----------------------------------------------------------------


def test_two_chain_has_exactly_the_trivial_congruences():
    T = entry("chain2_reduct").payload
    assert all_congruences_bruteforce(T) == [Partition.total(2), Partition.identity(2)]


def test_singleton_has_one_congruence():
    assert all_congruences_bruteforce(SINGLETON) == [Partition.identity(1)]


def test_brute_force_guard():
    with pytest.raises(TooLarge):
        all_congruences_bruteforce(entry("fig2_reduct").payload)


def test_closure_enumeration_matches_brute_force():
    for e in reducts(max_n=BRUTE_FORCE_LIMIT):
        T = e.payload
        assert set(congruence_lattice(T)) == set(all_congruences_bruteforce(T))


def test_closure_enumeration_is_sound_beyond_the_guard():
    for name in ("fig2_reduct", "fig2_filter_no0_reduct"):
        T = entry(name).payload
        lattice = congruence_lattice(T)
        assert Partition.identity(T.n) in lattice
        assert Partition.total(T.n) in lattice
        for P in lattice:
            assert is_congruence(T, P).ok


def test_enumeration_order_is_canonical():
    T = entry("bool4_reduct").payload
    listed = all_congruences_bruteforce(T)
    assert listed == sorted(listed, key=Partition.sort_key)


# --- principal congruences ----------------------------------------------------------


def test_principal_of_a_diagonal_pair_is_identity():
    for e in reducts():
        T = e.payload
        assert principal_congruence(T, 0, 0) == Partition.identity(T.n)


def test_principal_on_the_two_chain():
    T = entry("chain2_reduct").payload
    assert principal_congruence(T, 0, 1) == Partition.total(2)


def test_principal_is_the_least_congruence_containing_the_pair():
    for e in reducts(max_n=BRUTE_FORCE_LIMIT):
        T = e.payload
        every = all_congruences_bruteforce(T)
        for a in range(T.n):
            for b in range(a + 1, T.n):
                P = principal_congruence(T, a, b)
                assert is_congruence(T, P).ok and P.same(a, b)
                containing = [Q for Q in every if Q.same(a, b)]
                for Q in containing:
                    # least: P refines every congruence gluing a and b
                    assert all(Q.same(x, y) for x in range(T.n) for y in range(T.n) if P.same(x, y))


# --- kernels --------------------------------------------------------------------


def test_kernels_of_the_trivial_congruences():
    for e in reducts():
        T = e.payload
        assert kernel(T, Partition.identity(T.n)).members == {T.one}
        assert kernel(T, Partition.total(T.n)).members == set(range(T.n))


def test_principal_kernel_contains_both_endpoints():
    T = entry("bool4_reduct").payload
    K = kernel(T, principal_congruence(T, 1, 3))
    assert 1 in K and 3 in K


def test_kernel_map_is_injective_on_small_reducts():
    for e in reducts(max_n=BRUTE_FORCE_LIMIT):
        assert verify_kernel_injectivity(e.payload).ok
    assert verify_kernel_injectivity(SINGLETON).ok


def test_a_kernel_collision_is_named_the_same_by_every_caller(monkeypatch, capsys):
    from orthokit import congruence, verify
    from orthokit.cli import main

    T = entry("bool4_reduct").payload
    # merging 0 and 1 keeps the kernel {3} of the identity: a collision the real table never has
    ident, merged = Partition.identity(4), Partition.from_blocks(4, [(0, 1), (2,), (3,)])
    monkeypatch.setattr(congruence, "all_congruences_bruteforce", lambda T: [ident, merged])
    v = verify_kernel_injectivity(T)
    assert not v.ok and v.witness == (ident, merged)
    (line,) = [c.line() for c in verify._reduct_checks("bool4_reduct", T, 0) if c.name.endswith("kernel map injective")]
    assert line == ("check bool4_reduct: kernel map injective FAIL "
                    "((0,), (1,), (2,), (3,)) and ((0, 1), (2,), (3,)) share the kernel [3]")
    assert main(["congruences", "--catalog", "bool4_reduct", "--method", "brute"]) == 1
    assert "check kernel-map-injective FAIL" in capsys.readouterr().out.splitlines()


# --- kernel characterization ----------------------------------------------------------


def test_the_unit_singleton_satisfies_both_rules():
    for e in reducts():
        T = e.payload
        assert check_d1(T, {T.one}).ok
        assert check_d2(T, {T.one}).ok


def test_the_whole_carrier_satisfies_both_rules():
    for e in reducts():
        T = e.payload
        D = set(range(T.n))
        assert check_d1(T, D).ok and check_d2(T, D).ok


def test_rules_require_the_unit():
    T = entry("bool4_reduct").payload
    with pytest.raises(MissingOne):
        check_d1(T, {0})
    with pytest.raises(MissingOne):
        theta_from_kernel(T, {0, 1})


def test_kernel_of_a_filter_passes_and_a_non_filter_fails():
    T = entry("bool4_reduct").payload
    assert check_d1(T, {1, 3}).ok and check_d2(T, {1, 3}).ok
    v = check_d1(T, {1, 2, 3})
    assert not v.ok
    x, y, z = v.witness
    B = T.bullet
    assert x in {1, 2, 3} and B[y][z] in {1, 2, 3} and B[B[x][y]][z] not in {1, 2, 3}


def test_theta_from_unit_singleton_is_identity():
    for e in reducts():
        T = e.payload
        assert theta_from_kernel(T, {T.one}) == Partition.identity(T.n)


def test_theta_from_carrier_is_total():
    for e in reducts():
        T = e.payload
        assert theta_from_kernel(T, range(T.n)) == Partition.total(T.n)


def test_theta_rejects_non_kernels():
    T = entry("bool4_reduct").payload
    with pytest.raises(NotD1):
        theta_from_kernel(T, {1, 2, 3})


def test_every_enumerated_kernel_rebuilds_its_congruence():
    for e in reducts(max_n=BRUTE_FORCE_LIMIT):
        T = e.payload
        for P in all_congruences_bruteforce(T):
            assert theta_from_kernel(T, kernel(T, P).members) == P


def test_rule_equivalence_over_all_subsets():
    for e in reducts(max_n=8):
        T = e.payload
        kernels = {kernel(T, P).members for P in all_congruences_bruteforce(T)}
        for D in subsets_containing(T.n, T.one):
            rules = check_d1(T, D).ok and check_d2(T, D).ok
            assert rules == (D in kernels)


def test_identity_c_restated_for_transitivity():
    # ((x v y)*z)*(x*z) = 1 with x v y spelled as (x*y)*y
    for e in reducts():
        T = e.payload
        B, one = T.bullet, T.one
        for x in range(T.n):
            for y in range(T.n):
                xy = B[B[x][y]][y]
                for z in range(T.n):
                    assert B[B[xy][z]][B[x][z]] == one


def test_rules_reject_members_outside_the_carrier():
    # the subset is at fault, not the table: BadIndex, as congruence_closure raises for pairs
    T = entry("bool4_reduct").payload
    for bad in ({T.one, 99}, {T.one, -1}):
        with pytest.raises(BadIndex):
            check_d1(T, bad)
        with pytest.raises(BadIndex):
            check_d2(T, bad)
        with pytest.raises(BadIndex):
            theta_from_kernel(T, bad)
