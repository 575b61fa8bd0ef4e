#!/usr/bin/env python3
"""Empirical probe: is any of the six closure terms redundant on the built-in models?

For each small reduct, scan every subset containing 1 and compare two
classifications: closure under all six terms versus closure under five of
them with one dropped.  A dropped term is redundant *on that model* when the
two classifications coincide for every subset.  This is a finite experiment,
not a proof; a term redundant on every model here could still be needed on
some other algebra.

Usage: python3 scripts/term_redundancy_probe.py [max_n]
"""

import sys

from orthokit import catalog
from orthokit.congruence import subsets_with_one
from orthokit.terms import builtin_terms, closed_subsets


def main(max_n=8):
    terms = builtin_terms()
    names = list(terms)
    reducts = [e for e in catalog() if e.kind == "implication" and e.payload.n <= max_n]
    print(f"models: {', '.join(e.name for e in reducts)}")
    # closure of every subset under each term, one table per term and model
    verdicts = {}
    for e in reducts:
        subsets = list(subsets_with_one(e.payload))
        verdicts[e.name] = (subsets, {k: closed_subsets(e.payload, subsets, t) for k, t in terms.items()})
    redundant_everywhere = set(names)
    for dropped in names:
        disagreements = []
        for e in reducts:
            subsets, closed = verdicts[e.name]
            full = {D for i, D in enumerate(subsets) if all(closed[k][i] for k in names)}
            part = {D for i, D in enumerate(subsets) if all(closed[k][i] for k in names if k != dropped)}
            if full != part:
                extra = min((sorted(D) for D in part - full), default=None)
                disagreements.append((e.name, len(part) - len(full), extra))
        if disagreements:
            redundant_everywhere.discard(dropped)
            for model, count, example in disagreements:
                print(f"dropping {dropped}: {model} accepts {count} extra subsets, e.g. {example}")
        else:
            print(f"dropping {dropped}: no difference on any model")
    if redundant_everywhere:
        print(f"candidates for redundancy on these models: {sorted(redundant_everywhere)}")
    else:
        print("every term is doing work on at least one model")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
