"""Acceptance suite: every structural criterion, checked exactly and exhaustively.

Each test prints one `ACCEPTANCE <k> <name>: PASS` line on success (visible
with `pytest -s` or in the captured output section).  All comparisons are
exact integer table equalities; there are no tolerances to tune.
"""

import pytest

from orthokit import (
    IntervalWitness,
    catalog,
    check_ioa_identities,
    check_overlap_consistency,
    derive_bullet,
    entry,
    is_modular,
    is_orthomodular,
    is_strong,
    reconstruct_orthosemilattice,
    semilattice,
    validate_interval_witness,
    validate_ortholattice,
    verify,
)
from orthokit.congruence import (
    all_congruences_bruteforce,
    check_d1,
    check_d2,
    congruence_lattice,
    is_congruence,
    kernel,
    theta_from_kernel,
    verify_kernel_injectivity,
)
from orthokit.errors import AlgebraError
from orthokit.terms import (
    builtin_terms,
    check_lemma_chain,
    closed_under_term,
    is_ideal_by_terms,
    is_ideal_term,
    random_ideal_terms,
)

from oracles import subsets_containing

SEMILATTICE_NAMES = ["chain2", "bool4", "bool8", "mo2", "fig2_strong12", "fig2_filter_no0"]


def reducts(max_n=None):
    out = [e for e in catalog() if e.kind == "implication"]
    if max_n is not None:
        out = [e for e in out if e.payload.n <= max_n]
    return out


def kernels_of(T):
    enum = all_congruences_bruteforce if T.n <= 10 else congruence_lattice
    return {kernel(T, P).members for P in enum(T)}


def done(k, name):
    print(f"ACCEPTANCE {k} {name}: PASS")


def test_01_hexagon_implication_anomaly():
    L = entry("fig1_o6").payload
    a, b = 1, 2
    assert L.join[L.comp[a]][b] == L.top
    assert L.join[L.comp[b]][a] == L.top
    done(1, "hexagon comp(a) v b = 1 = comp(b) v a")


def test_02_hexagon_is_not_strong():
    result = is_strong(entry("fig1_o6").payload)
    assert not result.strong
    assert result.failing_p == 1  # the 3-chain interval [a, 1]
    done(2, "hexagon not strong, failing at p=a")


def test_03_twelve_element_model_claims():
    L = entry("fig2_strong12").payload
    assert validate_ortholattice(L).ok
    mod = is_modular(L)
    assert not mod.ok
    pent = [0, 1, 4, 8, 11]  # 0, e, d, b', 1
    assert all(L.join[x][y] in pent and L.meet[x][y] in pent for x in pent for y in pent)
    zero, e, d, bp, one = pent
    assert L.le(d, bp) and not L.le(e, d) and not L.le(d, e) and not L.le(e, bp)
    assert L.join[e][d] == one and L.meet[e][d] == zero
    assert L.join[d][L.meet[e][bp]] == d != bp == L.meet[L.join[d][e]][bp]
    omod = is_orthomodular(L)
    assert not omod.ok
    a, cp_ = 2, 6
    assert L.le(a, cp_) and L.join[a][L.meet[L.comp[a]][cp_]] == a != cp_
    assert is_strong(L).strong
    done(3, "12-element model: valid, pentagon, orthomodularity fails at (a, c'), strong")


def test_04_derived_tables_satisfy_all_identities():
    for name in SEMILATTICE_NAMES:
        T = derive_bullet(semilattice(name))
        report = check_ioa_identities(T)
        assert report.ok, (name, report.failures())
        assert report["ident-d-agreement"].passed
    done(4, "identities (a)-(d) and (d') hold on every derived table")


def test_05_round_trips_are_table_exact():
    for name in SEMILATTICE_NAMES:
        S = semilattice(name)
        T = derive_bullet(S)
        assert reconstruct_orthosemilattice(T) == S
    for e in reducts():
        T = e.payload
        assert derive_bullet(reconstruct_orthosemilattice(T)) == T
    done(5, "reconstruct(derive(S)) = S and derive(reconstruct(T)) = T")


def test_06_overlapping_interval_meets_agree():
    for name in SEMILATTICE_NAMES:
        assert check_overlap_consistency(semilattice(name)).ok, name
    done(6, "interval meets agree on overlaps for every catalog orthosemilattice")


def test_07_kernel_injectivity_and_enumeration_agreement():
    for e in reducts(max_n=10):
        T = e.payload
        assert verify_kernel_injectivity(T).ok, e.name
        assert set(all_congruences_bruteforce(T)) == set(congruence_lattice(T)), e.name
    done(7, "kernel map injective; brute-force and closure enumerations agree (n <= 10)")


def test_08_kernel_characterization_over_all_subsets():
    for e in reducts(max_n=8):
        T = e.payload
        kernels = kernels_of(T)
        for D in subsets_containing(T.n, T.one):
            rules = check_d1(T, D).ok and check_d2(T, D).ok
            is_ker = D in kernels
            try:
                P = theta_from_kernel(T, D)
                rebuilt = is_congruence(T, P).ok and kernel(T, P).members == D
            except AlgebraError:
                rebuilt = False
            assert rules == is_ker == rebuilt, (e.name, sorted(D))
    done(8, "D1+D2 = enumerated kernel = rebuilt congruence, all 2^(n-1) subsets (n <= 8)")


def test_09_term_closure_characterizes_ideals():
    for e in reducts(max_n=8):
        T = e.payload
        kernels = kernels_of(T)
        for D in subsets_containing(T.n, T.one):
            assert is_ideal_by_terms(T, D).ok == (D in kernels), (e.name, sorted(D))
    done(9, "closed under t1..t6 = enumerated kernel, all 2^(n-1) subsets (n <= 8)")


def test_10_ideal_terms_and_the_closure_implications():
    terms = builtin_terms()
    for e in reducts():
        T = e.payload
        for name, t in terms.items():
            assert is_ideal_term(T, t).ok, (e.name, name)
        kernels = kernels_of(T)
        for K in kernels:
            for t in terms.values():
                assert closed_under_term(T, K, t).ok
        for t in random_ideal_terms(T, 20, seed=0):
            for K in kernels:
                assert closed_under_term(T, K, t).ok, e.name
    for e in reducts(max_n=8):
        T = e.payload
        for D in subsets_containing(T.n, T.one):
            assert check_lemma_chain(T, D).ok, (e.name, sorted(D))
    done(10, "t1..t6 ideal everywhere; kernels closed under them and 20 seeded random "
             "ideal terms; closure implications never violated (n <= 8)")


def test_11_boolean_reducts_are_classical_implication():
    for name in ("bool4", "bool8"):
        L = entry(name).payload
        T = entry(f"{name}_reduct").payload
        for x in range(L.n):
            for y in range(L.n):
                assert T.bullet[x][y] == L.join[L.comp[x]][y]
    done(11, "Boolean reduct tables equal comp(x) v y pointwise")


def test_12_orthomodular_models_admit_the_comp_join_witnesses():
    for name in ("mo2", "bool8"):
        L = entry(name).payload
        for p in range(L.n):
            cmap = tuple(L.join[L.comp[a]][p] if L.le(p, a) else None for a in range(L.n))
            assert validate_interval_witness(L, IntervalWitness(p, cmap)).ok, (name, p)
    done(12, "a -> comp(a) v p is a valid interval witness for every p on mo2 and bool8")


@pytest.mark.parametrize("name", ["fig2_reduct", "fig2_filter_no0_reduct"])
def test_13_subset_sweeps_hold_on_the_non_orthomodular_reducts(name):
    # n = 12 and 11 are above verify.SWEEP_LIMIT, so verify-theorems skips these sweeps
    T = entry(name).payload
    kernels = {kernel(T, P).members for P in congruence_lattice(T)}
    checks = verify._subset_sweep_checks(name, T, kernels)
    assert len(checks) == 3 and all(c.passed for c in checks), [c.line() for c in checks]
    done(13, f"{name}: D1+D2, t1..t6 closure and the closure implications agree with the "
             f"kernels on all {2 ** (T.n - 1)} subsets containing 1")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
