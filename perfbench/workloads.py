"""The three workloads: seeded inputs, one timed pass, and the answer checks.

Each workload has a parent side (`prepare`, run before any timing and without
orthokit) and a child side (`run_pass`, then `check` once the clock has
stopped), which runs in a fresh interpreter started by `run.py`.

* catalog-verify: `orthokit verify-theorems --all --seed S` in-process, the
  paper's whole check list.  Term closure dominates it.
* families-pipeline: generated ortholattices (n <= 16) under seeded
  relabelings, each through parse, the validators, strongness, and for every
  principal filter the orthosemilattice, implication and congruence layers.
  No term closure runs here.
* ideal-queries: one client sending `orthokit ideals` calls back to back
  (a closed loop) against `.ioa` files; each call reparses its file.
"""

from __future__ import annotations

import io
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import families

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
GOLDEN_VERIFY = DATA / "verify_all_seed0.txt"

clock = time.perf_counter

# ideal-queries mix per file and pass
CHECKS_PER_FILE = 16
KERNEL_CHECKS_PER_FILE = 4  # of those, drawn from the true kernels; the rest are random subsets
TERMS_PER_FILE = 8
# Enough enumerations that the slowest of them, not the boundary between them
# and the kernel checks, set query_p95_ms.
ENUMERATES_PER_FILE = 3
SWEEP_LIMIT = 8  # `ideals --enumerate` adds its subset sweep up to this size
# catalog reducts as shipped, plus family reducts that are relabeled per pass
QUERY_FILES = ("chain2_reduct", "bool4_reduct", "bool8_reduct", "mo2_reduct", "fig2_reduct",
               "fig2_filter_no0_reduct")
RELABELED_QUERY_FILES = ("mo3_reduct", "hs3_2_reduct", "mo5_reduct")
BRUTE_FORCE_LIMIT = 10  # the library's guard on all_congruences_bruteforce


def _rng(workload: str, seed: int, variant: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{variant}")


def _capture(argv):
    """Run the CLI in-process; return (exit code, stdout)."""
    from orthokit import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# catalog-verify


def prepare_catalog_verify(seed: int, variant: int, workdir: Path, cache: dict) -> dict:
    return {"cli_seed": seed * 1000 + variant}


def run_catalog_verify(spec: dict):
    t0 = clock()
    result = _capture(["verify-theorems", "--all", "--seed", str(spec["cli_seed"])])
    t1 = clock()
    return t1 - t0, [(t0, t1)], result


def check_catalog_verify(spec: dict, result) -> tuple[int, int, list[str]]:
    """One operation per transcript line plus the exit code; the seed header may differ."""
    rc, out = result
    want = GOLDEN_VERIFY.read_text(encoding="utf-8").splitlines()
    want[0] = f"command: verify-theorems --all seed={spec['cli_seed']}"
    got = out.splitlines()
    errors = [f"line {i + 1}: {g!r} != {w!r}" for i, (g, w) in enumerate(zip(got, want)) if g != w]
    if len(got) != len(want):
        errors.append(f"{len(got)} lines, expected {len(want)}")
    if rc != 0:
        errors.append(f"exit code {rc}")
    return len(want) + 1, min(len(errors), len(want) + 1), errors


# ---------------------------------------------------------------------------
# families-pipeline


def prepare_families(seed: int, variant: int, workdir: Path, cache: dict) -> dict:
    rng = _rng("families-pipeline", seed, variant)
    models = []
    for model in families.catalog_of_families():
        r = families.relabel(model, rng)
        models.append({"olat": r.olat(rng), "expected": r.expected()})
    return {"models": models}


def _pipeline(text: str) -> dict:
    from orthokit import catalog_io, congruence as cong, core, implication as imp, terms

    L = catalog_io.parse_olat(text)
    res = {
        "L": L,
        "axioms": core.validate_ortholattice(L),
        "modular": core.is_modular(L),
        "orthomodular": core.is_orthomodular(L),
        "strong": core.is_strong(L),
        "filters": [],
    }
    if not res["strong"]:
        return res
    S = core.as_orthosemilattice(L, res["strong"].witnesses)
    builtins = list(terms.builtin_terms().values())
    for p in range(S.n):
        F = core.restrict_to_filter(S, [x for x in range(S.n) if S.le(p, x)])
        f = {"F": F, "axioms": core.validate_orthosemilattice(F), "overlap": core.check_overlap_consistency(F)}
        T = f["T"] = imp.derive_bullet(F)
        f["identities"] = imp.check_ioa_identities(T)
        f["rebuilt"] = imp.reconstruct_orthosemilattice(T)
        con = f["con"] = cong.congruence_lattice(T)
        if T.n <= BRUTE_FORCE_LIMIT:
            f["brute"] = cong.all_congruences_bruteforce(T)
            f["injective"] = cong.verify_kernel_injectivity(T)
        f["theta"] = [(P, cong.theta_from_kernel(T, cong.kernel(T, P).members)) for P in con]
        f["ideal_terms"] = [terms.is_ideal_term(T, t) for t in builtins]
        res["filters"].append(f)
    return res


def run_families(spec: dict):
    results, spans = [], []
    t0 = clock()
    for model in spec["models"]:
        t = clock()
        try:
            results.append(_pipeline(model["olat"]))
        except Exception as exc:  # counted as a failed operation by check_families
            results.append({"error": repr(exc)})
        spans.append((t, clock()))
    return clock() - t0, spans, results


def _filter_errors(f: dict, size: int, ncon: int) -> list[str]:
    errs = []
    if f["F"].n != size:
        errs.append(f"filter has {f['F'].n} elements, theory {size}")
    if not (f["axioms"].ok and f["overlap"].ok and f["identities"].ok):
        errs.append("validator or identities rejected a genuine filter")
    if f["rebuilt"] != f["F"]:
        errs.append("reconstruct(derive(S)) != S")
    if len(f["con"]) != ncon:
        errs.append(f"{len(f['con'])} congruences, theory {ncon}")
    if "brute" in f and (set(f["brute"]) != set(f["con"]) or not f["injective"].ok):
        errs.append("closure and brute-force congruences differ or kernels collide")
    if any(P != theta for P, theta in f["theta"]):
        errs.append("theta_from_kernel did not rebuild a congruence")
    if not all(f["ideal_terms"]):
        errs.append("t1..t6 not all ideal terms")
    return errs


def check_families(spec: dict, results) -> tuple[int, int, list[str]]:
    """One operation per model (lattice verdicts) and one per filter."""
    attempted = failed = 0
    errors: list[str] = []
    for model, res in zip(spec["models"], results):
        exp = model["expected"]
        attempted += 1 + len(exp["filters"])
        if "error" in res:
            failed += 1 + len(exp["filters"])
            errors.append(f"{exp['name']}: {res['error']}")
            continue
        errs = []
        if not res["axioms"].ok:
            errs.append("ortholattice axioms rejected")
        for key in ("modular", "orthomodular", "strong"):
            if bool(res[key]) != exp[key]:
                errs.append(f"{key}={bool(res[key])}, theory {exp[key]}")
        if res["strong"].failing_p != exp["failing_p"]:
            errs.append(f"failing interval p={res['strong'].failing_p}, theory {exp['failing_p']}")
        if len(res["filters"]) != len(exp["filters"]):
            errs.append(f"{len(res['filters'])} filters, theory {len(exp['filters'])}")
        failed += bool(errs)
        errors += [f"{exp['name']}: {e}" for e in errs]
        for p, (f, (size, ncon)) in enumerate(zip(res["filters"], exp["filters"])):
            errs = _filter_errors(f, size, ncon)
            failed += bool(errs)
            errors += [f"{exp['name']} filter {p}: {e}" for e in errs]
    return attempted, failed, errors


# ---------------------------------------------------------------------------
# ideal-queries


def read_ioa(text: str) -> tuple[list[list[int]], int]:
    """Rows and the constant 1 of an `.ioa` file; a minimal reader for the benchmark's own data."""
    rows: dict[int, list[int]] = {}
    one = None
    for line in text.splitlines():
        toks = line.split("#", 1)[0].split()
        if toks[:1] == ["one"]:
            one = int(toks[1])
        elif toks[:1] == ["row"]:
            rows[int(toks[1])] = [int(v) for v in toks[2:]]
    return [rows[i] for i in range(len(rows))], one


class _Table:
    def __init__(self, rows, one):
        self.n, self.bullet, self.one = len(rows), rows, one


class _Partition:
    def __init__(self, rep):
        self.rep = rep


def theta_rep(rows, D) -> tuple[int, ...] | None:
    """Least-representative form of x ~ y iff x*y, y*x in D, or None if that is no equivalence."""
    n = len(rows)
    rel = [[rows[x][y] in D and rows[y][x] in D for y in range(n)] for x in range(n)]
    if not all(rel[x][x] for x in range(n)):
        return None
    rep = tuple(min(y for y in range(n) if rel[x][y]) for x in range(n))
    if any(rel[x][y] != (rep[x] == rep[y]) for x in range(n) for y in range(n)):
        return None
    return rep


def oracle_kernels(rows, one) -> dict[frozenset, tuple[int, ...]]:
    """Every kernel with its congruence, by the naive two-pair congruence check.

    A congruence of these algebras is determined by its kernel D as
    x ~ y iff x*y, y*x in D, so D is a kernel exactly when that relation is a
    congruence whose class of 1 is D.
    """
    from oracles import naive_is_congruence, subsets_containing

    T = _Table(rows, one)
    found = {}
    for D in subsets_containing(len(rows), one):
        rep = theta_rep(rows, D)
        if rep is None or frozenset(x for x in range(T.n) if rep[x] == rep[one]) != D:
            continue
        if naive_is_congruence(T, _Partition(rep)):
            found[D] = rep
    return found


def random_term(rng: random.Random, depth: int = 0):
    """A term tree over 1, x0, x1, y0, y1 as nested tuples; the root is always a product."""
    if depth > 0 and (depth >= 4 or rng.random() < 0.35):
        return rng.choice((("1",), ("x", 0), ("x", 1), ("y", 0), ("y", 1)))
    return ("b", random_term(rng, depth + 1), random_term(rng, depth + 1))


def term_text(t) -> str:
    if t[0] == "b":
        return f"(b {term_text(t[1])} {term_text(t[2])})"
    return "1" if t[0] == "1" else f"{t[0]}{t[1]}"


def term_arity(t, kind: str) -> int:
    if t[0] == "b":
        return max(term_arity(t[1], kind), term_arity(t[2], kind))
    return t[1] + 1 if t[0] == kind else 0


def term_value(rows, one, t, xs, ys) -> int:
    if t[0] == "b":
        return rows[term_value(rows, one, t[1], xs, ys)][term_value(rows, one, t[2], xs, ys)]
    if t[0] == "1":
        return one
    return xs[t[1]] if t[0] == "x" else ys[t[1]]


def _fmt_set(members) -> str:
    return "{" + ",".join(str(x) for x in sorted(members)) + "}"


def _fmt_partition(rep) -> str:
    blocks: dict[int, list[int]] = {}
    for x, r in enumerate(rep):
        blocks.setdefault(r, []).append(x)
    return " | ".join(",".join(map(str, blocks[r])) for r in sorted(blocks))


def _result_line(checks: int, failures: int) -> str:
    return f"RESULT {'pass' if failures == 0 else 'fail'} checks={checks} failures={failures}"


def _query_file(name: str, relabel: bool, rng: random.Random, cache: dict):
    """(rows, one, kernels) of a data file, relabeled when asked; kernels come from the oracle."""
    if name not in cache:
        rows, one = read_ioa((DATA / f"{name}.ioa").read_text(encoding="utf-8"))
        cache[name] = (rows, one, oracle_kernels(rows, one))
    rows, one, kernels = cache[name]
    if not relabel:
        return rows, one, kernels
    new_rows, new_one, perm = families.relabel_table(rows, one, rng)
    moved = (frozenset(perm[x] for x in D) for D in kernels)
    return new_rows, new_one, {D: theta_rep(new_rows, D) for D in moved}


def prepare_ideal_queries(seed: int, variant: int, workdir: Path, cache: dict) -> dict:
    rng = _rng("ideal-queries", seed, variant)
    vdir = workdir / f"ioa-{variant}"
    vdir.mkdir(parents=True, exist_ok=True)
    queries = []
    for name in QUERY_FILES + RELABELED_QUERY_FILES:
        rows, one, kernels = _query_file(name, name in RELABELED_QUERY_FILES, rng, cache)
        path = vdir / f"{name}.ioa"
        path.write_text(families.ioa_text(rows, one), encoding="utf-8")
        n, fname = len(rows), path.name
        head = f"command: ideals {fname}"
        klist = sorted(kernels, key=lambda k: (len(k), sorted(k)))
        # Kernels are checked in a seeded order that every pass of the run
        # continues, so each kernel is checked equally often over the run: a
        # kernel check costs from 1 to 80 ms depending on the kernel, and
        # independent draws would move query_p95_ms from seed to seed.
        order = list(range(len(klist)))
        random.Random(f"ideal-queries/{seed}/{name}").shuffle(order)
        others = [x for x in range(n) if x != one]
        for i in range(CHECKS_PER_FILE):
            if i < KERNEL_CHECKS_PER_FILE:
                D = klist[order[(variant * KERNEL_CHECKS_PER_FILE + i) % len(order)]]
            else:
                D = frozenset(x for x in others if rng.random() < 0.5) | {one}
            rep = kernels.get(D)
            queries.append({
                "argv": ["ideals", str(path), "--check", ",".join(map(str, sorted(D)))],
                "kind": "check",
                "ideal": rep is not None,
                "partition": _fmt_partition(rep) if rep is not None else "none",
            })
        for i in range(TERMS_PER_FILE):
            t = random_term(rng)
            xa, ya = term_arity(t, "x"), term_arity(t, "y")
            argv = ["ideals", str(path), "--term", term_text(t)]
            witness = next((xs for xs in product(range(n), repeat=xa)
                            if term_value(rows, one, t, xs, (one,) * ya) != one), None)
            lines = [head]
            if witness is None:
                lines.append("check ideal-term PASS")
                if i % 2:
                    # an ideal term maps every kernel into itself
                    argv += ["--check", ",".join(map(str, sorted(rng.choice(klist))))]
                    lines.append("check subset-closed-under-term PASS")
            else:
                lines.append(f"check ideal-term FAIL fails at x-assignment {witness}")
            fails = int(witness is not None)
            lines.append(_result_line(len(lines) - 1, fails))
            queries.append({"argv": argv, "kind": "exact", "rc": fails, "stdout": "\n".join(lines) + "\n"})
        lines = [head] + [f"ideal {i}: {_fmt_set(K)}" for i, K in enumerate(klist)]
        checks = int(n <= SWEEP_LIMIT)
        if checks:
            lines.append("check ideals-match-kernels PASS")
        lines.append(_result_line(checks, 0))
        for _ in range(ENUMERATES_PER_FILE):
            queries.append({"argv": ["ideals", str(path), "--enumerate"], "kind": "exact", "rc": 0,
                            "stdout": "\n".join(lines) + "\n"})
    rng.shuffle(queries)
    return {"queries": queries}


def run_ideal_queries(spec: dict):
    results, spans = [], []
    t0 = clock()
    for q in spec["queries"]:
        t = clock()
        try:
            results.append(_capture(q["argv"]))
        except Exception as exc:  # counted as a failed operation by check_ideal_queries
            results.append((None, repr(exc)))
        spans.append((t, clock()))
    return clock() - t0, spans, results


def check_ideal_queries(spec: dict, results) -> tuple[int, int, list[str]]:
    errors = []
    for q, (rc, out) in zip(spec["queries"], results):
        if q["kind"] == "exact":
            ok = rc == q["rc"] and out == q["stdout"]
        else:
            lines = out.splitlines()
            ok = (
                rc == 0
                and "check verdicts-agree PASS" in lines
                and f"info congruence from subset: {q['partition']}" in lines
                and f"info ideal: {'yes' if q['ideal'] else 'no'}" in lines
                and lines[-1:] == [_result_line(1, 0)]
            )
        if not ok:
            errors.append(f"{' '.join(q['argv'][2:])} on {Path(q['argv'][1]).name}: exit {rc}, got {out!r}")
    return len(spec["queries"]), len(errors), errors


def kernel_share(spec: dict) -> tuple[int, int]:
    """(kernels, all) among the --check subsets of an ideal-queries spec."""
    checks = [q for q in spec["queries"] if q["kind"] == "check"]
    return sum(q["ideal"] for q in checks), len(checks)


WORKLOADS = {
    "catalog-verify": (prepare_catalog_verify, run_catalog_verify, check_catalog_verify),
    "families-pipeline": (prepare_families, run_families, check_families),
    "ideal-queries": (prepare_ideal_queries, run_ideal_queries, check_ideal_queries),
}


def add_paths(root: Path) -> None:
    """Make the checkout's orthokit and test oracles importable ahead of anything installed."""
    for p in (root / "tests", root / "src"):
        if str(p) not in sys.path:
            sys.path.insert(0, str(p))
