#!/usr/bin/env python3
"""Time the order, congruence and term layers on Boolean 2^k, on every principal filter of one families pass,
and the term layer of `verify-theorems` on every catalog reduct.

Boolean 2^k comes from `perfbench/families.py`.  Every time is the best of
`reps` in-process calls, in seconds; `reconstruct` includes the identities,
`induced_join` and the validator, and `ideal_terms` is `is_ideal_term` on
t1..t6, printed as refused, with the `TooLarge` message, where a term's
scan is over `TERM_SCAN_LIMIT` (from 2^7 on).  `kernel_rules` is
`theta_from_kernel` (D1, D2, the relation and its checks) on the kernel of
every congruence that `congruence_lattice` finds, the kernels found before
the clock starts.  An `ImplicationTable`
keeps its identity report, induced order, induced join and brute-force
congruences once decided, an `OrthosemilatticeTable` its validation report
and a `PosetTable` its bitsets, so each rep runs on fresh copies of the
tables (`dataclasses.replace`, made before the clock starts) and times the
decisions, not lookups of kept facts.  A copy records no source, so
`reconstruct` times the validation of the rebuilt table, which a table
that `derive_bullet` returned takes from its source instead.  In one run of `congruence_lattice`
(on every filter, in `--families`) the `closures` column counts the
principal congruences it closes, `joins` its `congruence_join` calls and
`closes` the `congruence._close` runs under both, each by wrapping the
function here; a join of two congruences the table is known to have merges
classes without a close.  Like `products` below these counts do not move
with the host's speed.  The
`decided` column of `--families` runs `workloads._pipeline` once on every
model of the pass and counts the identity reports, induced orders, induced
joins, brute-force searches and semilattice validations it actually decides,
by wrapping the functions behind the kept facts here, and in `up_down` the
bitset computations (`core._bitsets`) of the induced orders' relations.
The script exits with status 1 when a filter and the table rebuilt from it
are validated more than once between them, or when an induced order's
bitsets are computed more than once; like the other counts, these do not
move with the host's speed.

`--catalog` prints one line per catalog reduct with the term work of
`verify-theorems --all --seed 0` on it: `closed_subsets` on t1..t6 of the
kernels, or of every subset containing 1 where the reduct is small enough
for the subset sweep, `random_ideal_terms` (its seed's candidate stream
already drawn, as on every reduct after the first), `closed_subsets` of the
kernels above {1} on those random terms, and the sweep, given the t1..t6
verdicts as `verify-theorems` gives them.  Its `products` column counts the whole-table products of one run of
that work (`terms._paired` and `terms._bullet` calls, counted by wrapping
them here); unlike the times it does not move with the host's speed.

Usage: PYTHONPATH=src python3 scripts/layer_timings.py <k> [reps]
       PYTHONPATH=src python3 scripts/layer_timings.py --families <seed> [reps]
       PYTHONPATH=src python3 scripts/layer_timings.py --catalog [reps]
"""

import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import families  # noqa: E402
import workloads  # noqa: E402
from orthokit import catalog, catalog_io, core, verify  # noqa: E402
from orthokit import congruence as cong  # noqa: E402
from orthokit import implication as imp  # noqa: E402
from orthokit import terms  # noqa: E402
from orthokit.errors import TooLarge  # noqa: E402

T1_T6 = list(terms.builtin_terms().values())


def best(f, reps, tables=()):
    """Least time of `reps` calls of f on fresh copies of `tables`."""
    times = []
    for _ in range(reps):
        fresh = [replace(T) for T in tables]
        t0 = time.perf_counter()
        f(*fresh)
        times.append(time.perf_counter() - t0)
    return round(min(times), 4)


def boolean(k, reps):
    m = families.boolean(k)
    lines = ["olat 1", f"n {m.n}"] + [f"le {i} {j}" for i, j in m.covers]
    lines += [f"comp {i} {m.comp[i]}" for i in range(m.n) if i <= m.comp[i]]
    L = catalog_io.parse_olat("\n".join(lines) + "\n")
    S = core.as_orthosemilattice(L)
    T = imp.derive_bullet(S)
    P = L.poset()
    return {
        "n": L.n,
        "lattice_from_order_s": best(core.lattice_from_order, reps, [P]),
        "is_strong_s": best(lambda: core.is_strong(L), reps),
        "validate_ortholattice_s": best(lambda: core.validate_ortholattice(L), reps),
        "validate_orthosemilattice_s": best(core.validate_orthosemilattice, reps, [S]),
        "reconstruct_s": best(imp.reconstruct_orthosemilattice, reps, [T]),
        "overlap_s": best(lambda: core.check_overlap_consistency(S), reps),
        "identities_s": best(imp.check_ioa_identities, reps, [T]),
        "induced_join_s": best(imp.induced_join, reps, [T]),
        "congruence_lattice_s": best(cong.congruence_lattice, reps, [T]),
        **lattice_calls(lambda: cong.congruence_lattice(replace(T))),
        "kernel_rules_s": best(kernel_rules([T]), reps, [T]),
        "ideal_terms_s": refused(lambda: best(lambda: [terms.is_ideal_term(T, t) for t in T1_T6], reps)),
    }


def refused(f):
    """f(), or the refusal of a scan over the term budget: on 2^7, t4 and t5 scan 128^3 x-assignments."""
    try:
        return f()
    except TooLarge as exc:
        return f"refused: TooLarge: {exc}"


def families_pass(seed, reps):
    models = workloads.prepare_families(seed, 0, None, {})["models"]
    lattices = [catalog_io.parse_olat(model["olat"]) for model in models]
    filters = []
    for L in lattices:
        strong = core.is_strong(L)
        if not strong:
            continue
        S = core.as_orthosemilattice(L, strong.witnesses)
        filters += [core.restrict_to_filter(S, [x for x in range(S.n) if S.le(p, x)]) for p in range(S.n)]
    tables = [imp.derive_bullet(F) for F in filters]
    return {
        "filters": len(filters),
        "validate_ortholattice_s": best(lambda: [core.validate_ortholattice(L) for L in lattices], reps),
        "validate_orthosemilattice_s": best(lambda *fs: [core.validate_orthosemilattice(F) for F in fs], reps, filters),
        "reconstruct_s": best(lambda *ts: [imp.reconstruct_orthosemilattice(T) for T in ts], reps, tables),
        "overlap_s": best(lambda: [core.check_overlap_consistency(F) for F in filters], reps),
        "induced_join_s": best(lambda *ts: [imp.induced_join(T) for T in ts], reps, tables),
        "congruence_lattice_s": best(lambda *ts: [cong.congruence_lattice(T) for T in ts], reps, tables),
        **lattice_calls(lambda: [cong.congruence_lattice(replace(T)) for T in tables]),
        "kernel_rules_s": best(kernel_rules(tables), reps, tables),
        "ideal_terms_s": best(lambda: [terms.is_ideal_term(T, t) for T in tables for t in T1_T6], reps),
        "decided": decided(models),
    }


def kernel_rules(tables):
    """A call of `theta_from_kernel` on the kernel of every congruence of each table, for `best`.

    The kernels are found here, before the clock starts."""
    kernels = [[cong.kernel(T, P).members for P in cong.congruence_lattice(T)] for T in tables]
    return lambda *ts: [cong.theta_from_kernel(T, K) for T, ks in zip(ts, kernels) for K in ks]


def counted(fn, calls):
    def call(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)
    return call


def lattice_calls(f):
    """Calls of `principal_congruence`, `congruence_join` and `_close` in one run of f."""
    names = {"closures": "principal_congruence", "joins": "congruence_join", "closes": "_close"}
    calls = {key: [0] for key in names}
    real = {key: getattr(cong, name) for key, name in names.items()}
    for key, name in names.items():
        setattr(cong, name, counted(real[key], calls[key]))
    try:
        f()
    finally:
        for key, name in names.items():
            setattr(cong, name, real[key])
    return {key: c[0] for key, c in calls.items()}


def decided(models):
    """Facts the tables keep, decided over one `workloads._pipeline` run of every model.

    `up_down` counts the `core._bitsets` calls on an induced order's relation,
    rebound in every orthokit module that holds it.  `repeats` counts the
    filters validated more than once, the filter and its rebuilt table
    together, and the induced orders whose bitsets were computed more than
    once."""
    facts = {"identities": imp.check_ioa_identities, "induced_order": imp.induced_order,
             "induced_join": imp.induced_join, "bruteforce": cong._congruences_bruteforce,
             "validations": core.validate_orthosemilattice}
    seen = {key: [] for key in [*facts, "up_down"]}

    def noted(fn, into):
        def call(arg, *rest):
            into.append(arg)
            return fn(arg, *rest)
        return call

    real = {key: fact.__wrapped__ for key, fact in facts.items()}
    bitsets = core._bitsets
    holders = [mod for name, mod in sys.modules.items()
               if name.startswith("orthokit.") and getattr(mod, "_bitsets", None) is bitsets]
    for key, fact in facts.items():
        fact.__wrapped__ = noted(real[key], seen[key])
    for mod in holders:
        mod._bitsets = noted(bitsets, seen["up_down"])
    try:
        filters = [f for model in models for f in workloads._pipeline(model["olat"])["filters"]]
    finally:
        for key, fact in facts.items():
            fact.__wrapped__ = real[key]
        for mod in holders:
            mod._bitsets = bitsets
    validated = Counter(map(id, seen["validations"]))
    computed = Counter(map(id, seen["up_down"]))
    orders = [imp.induced_order(f["T"]) for f in filters]
    counts = {key: len(calls) for key, calls in seen.items()}
    counts["up_down"] = sum(computed[id(P.leq)] for P in orders)
    counts["repeats"] = (sum(validated[id(f["F"])] + validated[id(f["rebuilt"])] > 1 for f in filters)
                         + sum(computed[id(P.leq)] > 1 for P in orders))
    return counts


def catalog_reducts(reps):
    products = [0]
    terms._paired, terms._bullet = counted(terms._paired, products), counted(terms._bullet, products)
    for e in catalog():
        if e.kind != "implication":
            continue
        T = e.payload
        kernels = {cong.kernel(T, P).members for P in cong.congruence_lattice(T)}
        ordered = verify._kernel_order(kernels)
        above = [K for K in ordered if K != {T.one}]
        rand = terms.random_ideal_terms(T, verify.RANDOM_TERM_COUNT, seed=0)
        sweep = T.n <= verify.SWEEP_LIMIT
        subsets = list(cong.subsets_with_one(T)) if sweep else ordered
        closed = verify._builtin_verdicts(T, subsets)
        work = {
            "t1_t6_closure_s": lambda: [terms.closed_subsets(T, subsets, t) for t in T1_T6],
            "random_ideal_terms_s": lambda: terms.random_ideal_terms(T, verify.RANDOM_TERM_COUNT, seed=0),
            "random_closure_s": lambda: [terms.closed_subsets(T, above, t) for t in rand],
        }
        if sweep:
            work["sweep_s"] = lambda: verify._subset_sweep_checks(e.name, T, kernels, closed)
        products[0] = 0
        for f in work.values():
            f()
        row = {"n": T.n, "kernels": len(ordered), "products": products[0]}
        row.update((key, best(f, reps)) for key, f in work.items())
        print(e.name, row)


if __name__ == "__main__":
    args = sys.argv[1:]
    if args and args[0] == "--families":
        row = families_pass(int(args[1]), int(args[2]) if len(args) > 2 else 5)
        print(row)
        sys.exit(1 if row["decided"]["repeats"] else 0)
    elif args and args[0] == "--catalog":
        catalog_reducts(int(args[1]) if len(args) > 1 else 5)
    else:
        print(boolean(int(args[0]), int(args[1]) if len(args) > 1 else 3))
