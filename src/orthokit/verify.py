"""Whole-catalog verification: every structural claim as a flat check list.

This backs the `verify-theorems` CLI command.  Known counterexample models
(the hexagon) have their failures encoded as expected outcomes, so a fully
healthy catalog yields an all-pass report.
"""

from __future__ import annotations

from functools import cache, partial

from . import catalog_io as cat
from . import congruence as cong
from . import terms as tms
from .core import (
    as_orthosemilattice,
    check_overlap_consistency,
    is_modular,
    is_orthomodular,
    is_strong,
    relative_complement,
    StrongnessResult,
    validate_interval_witness,
    validate_ortholattice,
    validate_orthosemilattice,
)
from .errors import AlgebraError
from .implication import check_ioa_identities, derive_bullet, reconstruct_orthosemilattice
from .report import Check, first_failure

SWEEP_LIMIT = 8  # all 2^(n-1) subsets are scanned below this carrier size
RANDOM_TERM_COUNT = 20


def _idx(L, label: str) -> int:
    return L.names.index(label)


def _ortholattice_checks(name: str, L, strong: StrongnessResult) -> list[Check]:
    checks = [Check(f"{name}: ortholattice-axioms", validate_ortholattice(L).ok)]

    if name == "fig1_o6":
        a, b, one = _idx(L, "a"), _idx(L, "b"), L.top
        degenerate = L.join[L.comp[a]][b] == one and L.join[L.comp[b]][a] == one
        checks.append(Check(f"{name}: comp(a) v b = 1 = comp(b) v a", degenerate))
        checks.append(Check(
            f"{name}: not strong, first failing interval is [a, 1]",
            not strong and strong.failing_p == a,
            f"strong={strong.strong} failing_p={strong.failing_p}",
        ))
        return checks

    if name == "fig2_strong12":
        mod = is_modular(L)
        omod = is_orthomodular(L)
        pent = [_idx(L, x) for x in ("0", "e", "d", "b'", "1")]
        closed = all(
            L.join[x][y] in pent and L.meet[x][y] in pent
            for x in pent for y in pent
        )
        zero, e, d, bp, one = pent
        pentagon = (
            L.le(d, bp)
            and not L.le(e, d) and not L.le(d, e)
            and not L.le(e, bp) and not L.le(bp, e)
            and L.join[e][d] == one and L.meet[e][bp] == zero
        )
        checks.append(Check(f"{name}: not modular", not mod.ok, f"witness={mod.witness}"))
        checks.append(Check(f"{name}: 0,e,d,b',1 is a pentagon sublattice", closed and pentagon))
        a, cp_ = _idx(L, "a"), _idx(L, "c'")
        om_at = L.le(a, cp_) and L.join[a][L.meet[L.comp[a]][cp_]] == a and a != cp_
        checks.append(Check(f"{name}: not orthomodular at (a, c')", not omod.ok and om_at))
        checks.append(Check(f"{name}: strong", bool(strong)))
        return checks

    checks.append(Check(f"{name}: strong", bool(strong)))
    if name == "mo2":
        checks.append(Check(f"{name}: orthomodular", is_orthomodular(L).ok))
        checks.append(Check(f"{name}: modular", is_modular(L).ok))
    if name in ("mo2", "bool4", "bool8"):
        ok = all(validate_interval_witness(L, relative_complement(L, p)).ok for p in range(L.n))
        checks.append(Check(f"{name}: comp(a) v p complements every interval", ok))
    return checks


def _boolean_reduct_check(name: str, L, T) -> Check:
    ok = all(
        T.bullet[x][y] == L.join[L.comp[x]][y]
        for x in range(L.n) for y in range(L.n)
    )
    return Check(f"{name}: reduct is comp(x) v y", ok)


def _reduct_of(S):
    """`derive_bullet(S)`, as the catalog reduct object where one equals it in value and in `names`,
    so the facts that table keeps are decided once for both entries."""
    T = derive_bullet(S)
    return next((e.payload for e in cat.catalog()
                 if e.kind == "implication" and e.payload == T and e.payload.names == T.names), T)


def _semilattice_checks(name: str, S, T) -> list[Check]:
    """The checks of an orthosemilattice S and of T, its reduct `derive_bullet(S)`."""
    checks = [
        Check(f"{name}: orthosemilattice-axioms", validate_orthosemilattice(S).ok),
        Check(f"{name}: overlapping interval meets agree", check_overlap_consistency(S).ok),
    ]
    rep = check_ioa_identities(T)
    checks.append(Check(f"{name}: reduct satisfies the defining identities", rep.ok,
                        "" if rep.ok else ", ".join(c.name for c in rep.failures())))
    if rep.ok:
        checks.append(Check(f"{name}: reconstruct(derive(S)) = S", reconstruct_orthosemilattice(T) == S))
    return checks


def _kernel_order(kernels) -> list[frozenset[int]]:
    """The kernels by size, then by their sorted members."""
    return sorted(kernels, key=lambda k: (len(k), sorted(k)))


def _builtin_verdicts(T, subsets) -> dict[str, tuple[bool, ...]]:
    """Each of t1..t6 mapped to its `closed_subsets` verdicts over the subsets, in their order."""
    return {t: tms.closed_subsets(T, subsets, term) for t, term in tms.builtin_terms().items()}


def _reduct_checks(name: str, T, seed: int) -> list[Check]:
    checks = []
    rep = check_ioa_identities(T)
    checks.append(Check(f"{name}: defining identities", rep.ok))
    if not rep.ok:
        return checks

    checks.append(Check(f"{name}: ((x v y)*z)*(x*z) = 1", rep["ident-c"].passed))

    checks.append(Check(f"{name}: derive(reconstruct(T)) = T",
                        derive_bullet(reconstruct_orthosemilattice(T)) == T))

    lattice = cong.congruence_lattice(T)
    kernels = {cong.kernel(T, P).members for P in lattice}
    if T.n <= cong.BRUTE_FORCE_LIMIT:
        brute = cong.all_congruences_bruteforce(T)
        differ = sorted(set(brute) ^ set(lattice), key=cong.Partition.sort_key)
        checks.append(first_failure(
            f"{name}: closure and brute-force congruences agree",
            (f"{P.blocks()} found only by {'closure' if P in lattice else 'brute force'}" for P in differ),
        ))
        checks.append(first_failure(f"{name}: kernel map injective", (
            f"{P.blocks()} and {Q.blocks()} share the kernel {sorted(cong.kernel(T, P).members)}"
            for P, Q in cong.kernel_collisions(T, brute))))
    else:
        checks.append(first_failure(
            f"{name}: every closure congruence is compatible",
            (f"{P.blocks()} violated at {v}"
             for P in lattice if (v := cong.congruence_violation(T, P)) is not None),
        ))

    checks.append(first_failure(
        f"{name}: t1..t6 are ideal terms",
        (f"{t} fails at x-assignment {v.witness}"
         for t, term in tms.builtin_terms().items() if not (v := tms.is_ideal_term(T, term))),
    ))

    ordered = _kernel_order(kernels)
    # where the subset sweep runs, its t1..t6 verdicts over every subset also answer the kernels
    sweep = T.n <= SWEEP_LIMIT
    subsets = list(cong.subsets_with_one(T)) if sweep else ordered
    closed = _builtin_verdicts(T, subsets)
    at = {D: i for i, D in enumerate(subsets)}
    checks.append(first_failure(
        f"{name}: every kernel closed under t1..t6",
        (f"kernel {sorted(K)} not closed under {tms.is_ideal_by_terms(T, K).witness[0]}"
         for K in ordered if not all(oks[at[K]] for oks in closed.values())),
    ))

    rand = tms.random_ideal_terms(T, RANDOM_TERM_COUNT, seed=seed)
    # {1} is closed under a term exactly when it is an ideal term, which random_ideal_terms decided
    above = [K for K in ordered if K != {T.one}]
    random_closed = [tms.closed_subsets(T, above, t) for t in rand]
    checks.append(first_failure(
        f"{name}: every kernel closed under {RANDOM_TERM_COUNT} random ideal terms",
        (f"kernel {sorted(K)} not closed under {tms.serialize_term(t)}:"
         f" witness {tms.closed_under_term(T, K, t).witness}"
         for i, K in enumerate(above) for t, oks in zip(rand, random_closed) if not oks[i]),
    ))

    if sweep:
        checks.extend(_subset_sweep_checks(name, T, kernels, closed))
    return checks


def _subset_sweep_checks(name: str, T, kernels: set[frozenset[int]], closed=None) -> list[Check]:
    """Scan every subset containing 1 and compare all three ideal criteria.

    `closed` maps each of t1..t6 to its `closed_subsets` verdicts over
    `subsets_with_one(T)`, in that order; they are computed here when not given.
    """
    subsets = list(cong.subsets_with_one(T))
    if closed is None:
        closed = _builtin_verdicts(T, subsets)
    d1 = [cong.check_d1(T, D).ok for D in subsets]

    @cache
    def d2(i: int) -> bool:
        # decided on first use: where D1 holds, and where the lemma chain needs it
        return cong.check_d2(T, subsets[i]).ok

    def rebuilt(D) -> bool:
        # theta_from_kernel raises unless its result is a congruence with kernel D; it raises
        # NotD1 or NotD2 on a subset breaking either rule, so it is called only where both hold
        try:
            cong.theta_from_kernel(T, D)
            return True
        except AlgebraError:
            return False

    rules = [ok and d2(i) for i, ok in enumerate(d1)]
    theta = [ok and rebuilt(D) for D, ok in zip(subsets, rules)]
    return [
        first_failure(f"{name}: D1+D2 = kernel = rebuilt congruence, all subsets", (
            f"first mismatch at D={sorted(D)}" for i, D in enumerate(subsets)
            if not rules[i] == (D in kernels) == theta[i])),
        first_failure(f"{name}: closed under t1..t6 = kernel, all subsets", (
            f"first mismatch at D={sorted(D)}" for i, D in enumerate(subsets)
            if all(oks[i] for oks in closed.values()) != (D in kernels))),
        Check(f"{name}: closure implications for D1/D2 never violated", all(
            tms._lemma_chain(T, D, lambda t: closed[t][i], partial(bool, d1[i]), partial(d2, i)).ok
            for i, D in enumerate(subsets))),
    ]


def entry_checks(entry: cat.CatalogEntry, seed: int = 0) -> list[Check]:
    if entry.kind == "ortholattice":
        L = entry.payload
        strong = is_strong(L)
        checks = _ortholattice_checks(entry.name, L, strong)
        if strong:
            S = as_orthosemilattice(L, strong.witnesses)
            T = _reduct_of(S)
            checks.extend(_semilattice_checks(entry.name, S, T))
            if entry.name in ("bool4", "bool8"):
                checks.append(_boolean_reduct_check(entry.name, L, T))
        return checks
    if entry.kind == "orthosemilattice":
        return _semilattice_checks(entry.name, entry.payload, _reduct_of(entry.payload))
    return _reduct_checks(entry.name, entry.payload, seed)


def all_checks(seed: int = 0) -> list[Check]:
    out: list[Check] = []
    for entry in cat.catalog():
        out.extend(entry_checks(entry, seed=seed))
    return out
