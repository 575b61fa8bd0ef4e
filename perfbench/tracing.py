"""Span tracing of orthokit's layers from outside the package.

`install` replaces every public function of the layer modules by a wrapper
that records a span per call: the function, its layer, the span that was open
when it was called, start and end on the monotonic clock, and whether an
exception left it.  Every binding of the function inside orthokit is
replaced, including the names other modules took with `from ... import`, so
calls between layers are seen however they are spelled.  Generator functions
are left alone, because their work runs in the caller's frame.

A call records a span when it enters a layer from outside, when its function
has a metric group, or when a counter needs it.  A same-layer call to any
other helper (`interval`, `kernel`, `congruence_violation`, ...) runs
unrecorded; the group rule below would give its time to the caller anyway,
and the brute-force search alone makes hundreds of thousands of such calls.

Spans stay in memory and are written out by `Tracer.dump`.  `layer_metrics`
turns them into the per-layer metrics:

* A span's self time is its duration minus the time its child spans cover.
* Each span belongs to a metric group: its function's own group if it has
  one, else the group of its caller when the caller is in the same layer, else
  the layer's remainder.  A group's time is the self time of its spans, so
  groups partition the traced time and same-layer helpers (`interval`,
  `kernel`, the witness search) count toward the function that called them.
* `<layer>.raised` counts exceptions that leave the layer: a span that ended
  by an exception and whose caller is in another layer or outside orthokit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("catalog_io", "core", "implication", "congruence", "terms", "verify", "cli")

# metric -> functions whose spans (and same-layer callees) it covers
GROUPS = {
    "catalog_io.parse_s": ("catalog_io.parse_olat", "catalog_io.parse_ioa", "catalog_io.sniff_format"),
    "catalog_io.catalog_build_s": ("catalog_io.catalog",),
    "core.lattice_from_order_s": ("core.lattice_from_order",),
    "core.validate_ortholattice_s": ("core.validate_ortholattice",),
    "core.modularity_s": ("core.is_modular", "core.is_orthomodular"),
    "core.is_strong_s": ("core.is_strong",),
    "core.restrict_s": ("core.restrict_to_filter",),
    "core.validate_orthosemilattice_s": ("core.validate_orthosemilattice",),
    "core.overlap_s": ("core.check_overlap_consistency",),
    "implication.derive_s": ("implication.derive_bullet",),
    "implication.identities_s": ("implication.check_ioa_identities",),
    "implication.reconstruct_s": ("implication.reconstruct_orthosemilattice",),
    "congruence.lattice_s": ("congruence.congruence_lattice",),
    "congruence.bruteforce_s": ("congruence.all_congruences_bruteforce",),
    "congruence.kernel_rules_s": ("congruence.check_d1", "congruence.check_d2", "congruence.theta_from_kernel"),
    "terms.closure_s": ("terms.closed_under_term",),
    "terms.ideal_term_s": ("terms.is_ideal_term",),
    "terms.random_terms_s": ("terms.random_ideal_terms", "terms.random_term"),
    "terms.lemma_chain_s": ("terms.check_lemma_chain",),
    "terms.ideal_closure_s": ("terms.ideal_closure",),
}
# whole-layer self time
LAYER_TOTALS = {"verify.entry_s": "verify", "cli.self_s": "cli"}

COUNTS = (
    "catalog_io.parse_calls",
    "core.witness_search_calls",
    "core.witness_found_ratio",
    "implication.identities_calls",
    "congruence.closure_calls",
    "congruence.join_calls",
    "congruence.join_yield",
    "congruence.partitions_scanned",
    "congruence.bruteforce_yield",
    "terms.closure_calls",
    "terms.closure_pass_ratio",
    "terms.assignments_scanned",
    "terms.assignments_per_s",
)
METRICS = tuple(GROUPS) + tuple(LAYER_TOTALS) + COUNTS + tuple(f"{layer}.raised" for layer in LAYERS)

# span record fields
FN, LAYER, PARENT, T0, T1, RAISED, EXTRA, COVER_END = range(8)


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _closure_scanned(args, kwargs, result, spans, idx):
    """Assignments closed_under_term looked at: all of them on a pass, up to the witness on a failure."""
    T, members, term = args
    inside = sorted(frozenset(members))
    size = len(inside)
    if result.ok:
        return (True, T.n ** term.xarity * size ** term.yarity)
    xs, ys, _ = result.witness
    pos = 0
    for x in xs:
        pos = pos * T.n + x
    for y in ys:
        pos = pos * size + inside.index(y)
    return (False, pos + 1)


def _lattice_new(args, kwargs, result, spans, idx):
    """Congruences that only a join produced: the result minus the identity and the principal ones."""
    seeds = {s[EXTRA] for s in spans[idx + 1:] if s[PARENT] == idx and s[FN] == "congruence.principal_congruence"}
    seeds.add(tuple(range(args[0].n)))
    return len(result) - len(seeds)


# functions that need their own span even when called from inside their layer
COUNTED = {"core.find_interval_orthocomplementation", "congruence.congruence_closure",
           "congruence.congruence_join", "congruence.principal_congruence"}

OBSERVERS = {
    "terms.closed_under_term": _closure_scanned,
    "congruence.principal_congruence": lambda a, k, r, s, i: r.rep,
    "congruence.congruence_lattice": _lattice_new,
    "congruence.all_congruences_bruteforce": lambda a, k, r, s, i: (_bell(a[0].n), len(r)),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, fn, key: str, layer: str):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        observe = OBSERVERS.get(key)
        always = key in COUNTED or key in OBSERVERS or any(key in fns for fns in GROUPS.values())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not always and stack and spans[stack[-1]][LAYER] == layer:
                return fn(*args, **kwargs)
            rec = [key, layer, stack[-1] if stack else -1, 0, 0, False, None, 0]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[T0] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[T1] = rec[COVER_END] = clock()
                rec[RAISED] = True
                raise
            finally:
                stack.pop()
            rec[T1] = clock()
            if observe is not None:
                rec[EXTRA] = observe(args, kwargs, result, spans, idx)
            # the caller's self time must not absorb the observer
            rec[COVER_END] = clock()
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps([i, s[PARENT], s[FN], s[T0], s[T1], s[RAISED]]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every public function of every layer module and rebind it everywhere in orthokit."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"orthokit.{layer}")
        for attr, obj in vars(mod).items():
            is_fn = inspect.isfunction(obj) or hasattr(obj, "cache_info")
            if (attr.startswith("_") or not is_fn or inspect.isgeneratorfunction(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            wrapped[id(obj)] = (obj, tracer.wrap(obj, f"{layer}.{attr}", layer))
    for name, mod in list(sys.modules.items()):
        if name != "orthokit" and not name.startswith("orthokit."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from one traced pass; ratios with no base read 0."""
    fn_group = {fn: g for g, fns in GROUPS.items() for fn in fns}
    n = len(spans)
    self_ns = [s[T1] - s[T0] for s in spans]
    group: list[str] = [""] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            self_ns[p] -= s[COVER_END] - s[T0]
        g = fn_group.get(s[FN])
        if g is None:
            g = group[p] if p >= 0 and spans[p][LAYER] == s[LAYER] else s[LAYER] + ".other"
        group[i] = g

    out = {m: 0.0 for m in METRICS}
    for i, s in enumerate(spans):
        sec = self_ns[i] / 1e9
        if group[i] in out:
            out[group[i]] += sec
        for metric, layer in LAYER_TOTALS.items():
            if s[LAYER] == layer:
                out[metric] += sec
        p = s[PARENT]
        if s[RAISED] and (p < 0 or spans[p][LAYER] != s[LAYER]):
            out[f"{s[LAYER]}.raised"] += 1

    def calls(fn):
        return [s for s in spans if s[FN] == fn]

    out["catalog_io.parse_calls"] = float(len(calls("catalog_io.parse_olat")) + len(calls("catalog_io.parse_ioa")))
    searches = calls("core.find_interval_orthocomplementation")
    out["core.witness_search_calls"] = float(len(searches))
    out["core.witness_found_ratio"] = _ratio(sum(not s[RAISED] for s in searches), len(searches))
    out["implication.identities_calls"] = float(len(calls("implication.check_ioa_identities")))
    out["congruence.closure_calls"] = float(len(calls("congruence.congruence_closure")))
    joins = len(calls("congruence.congruence_join"))
    out["congruence.join_calls"] = float(joins)
    new = sum(s[EXTRA] for s in calls("congruence.congruence_lattice") if not s[RAISED])
    out["congruence.join_yield"] = _ratio(new, joins)
    brute = [s[EXTRA] for s in calls("congruence.all_congruences_bruteforce") if not s[RAISED]]
    scanned = sum(b[0] for b in brute)
    out["congruence.partitions_scanned"] = float(scanned)
    out["congruence.bruteforce_yield"] = _ratio(sum(b[1] for b in brute), scanned)
    closures = [s[EXTRA] for s in calls("terms.closed_under_term") if not s[RAISED]]
    out["terms.closure_calls"] = float(len(calls("terms.closed_under_term")))
    out["terms.closure_pass_ratio"] = _ratio(sum(c[0] for c in closures), len(closures))
    assignments = sum(c[1] for c in closures)
    out["terms.assignments_scanned"] = float(assignments)
    out["terms.assignments_per_s"] = _ratio(assignments, out["terms.closure_s"])
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
