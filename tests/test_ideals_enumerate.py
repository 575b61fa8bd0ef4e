"""`ideals --enumerate` lists exactly the kernels and, where it sweeps, agrees with the sweep.

Kernels come from the two-pair congruence definition: on n <= 8 from every
set partition, on the larger reducts from the relation "x*y and y*x lie in D"
of each subset D, kept when it is a congruence whose class of 1 is D.
"""

import pytest

from orthokit import catalog, entry, verify
from orthokit import terms as tms
from orthokit.cli import main
from orthokit.congruence import Partition, iter_partitions, subsets_with_one

from oracles import naive_is_congruence

REDUCTS = [e for e in catalog() if e.kind == "implication"]


def naive_kernels(T):
    if T.n <= verify.SWEEP_LIMIT:
        candidates = (Partition(rep) for rep in iter_partitions(T.n))
    else:
        candidates = filter(None, (_relation_partition(T, D) for D in subsets_with_one(T)))
    return {frozenset(x for x in range(T.n) if P.rep[x] == P.rep[T.one])
            for P in candidates if naive_is_congruence(T, P)}


def _relation_partition(T, D):
    """The partition of x ~ y iff x*y and y*x lie in D, if that is an equivalence with D as the class of 1."""
    B = T.bullet
    related = [[B[x][y] in D and B[y][x] in D for y in range(T.n)] for x in range(T.n)]
    rep = tuple(min(y for y in range(T.n) if related[x][y] or x == y) for x in range(T.n))
    if any(related[x][y] != (rep[x] == rep[y]) for x in range(T.n) for y in range(T.n)):
        return None
    P = Partition(rep)
    return P if {x for x in range(T.n) if rep[x] == rep[T.one]} == D else None


def enumerate_lines(capsys, name):
    assert main(["ideals", "--catalog", name, "--enumerate"]) in (0, 1)
    return capsys.readouterr().out.splitlines()


def listed_ideals(T, lines):
    index = {T.label(x): x for x in range(T.n)}
    return [frozenset(index[label] for label in line.split(": ", 1)[1].strip("{}").split(","))
            for line in lines if line.startswith("ideal ")]


@pytest.mark.parametrize("e", REDUCTS, ids=lambda e: e.name)
def test_enumerate_lists_the_kernels_and_passes_the_sweep(capsys, e):
    T = e.payload
    lines = enumerate_lines(capsys, e.name)
    ideals = listed_ideals(T, lines)
    assert len(ideals) == len(set(ideals))
    assert set(ideals) == naive_kernels(T)
    assert ideals == sorted(ideals, key=lambda k: (len(k), sorted(k)))
    sweep = [line for line in lines if line.startswith("check ideals-match-kernels")]
    assert sweep == (["check ideals-match-kernels PASS"] if T.n <= verify.SWEEP_LIMIT else [])
    assert lines[-1] == f"RESULT pass checks={len(sweep)} failures=0"


def test_a_disagreeing_sweep_fails_with_both_counts(capsys, monkeypatch):
    T = entry("mo2_reduct").payload
    monkeypatch.setattr(tms, "closed_subsets", lambda T, subsets, term: (True,) * len(subsets))
    lines = enumerate_lines(capsys, "mo2_reduct")
    swept = 2 ** (T.n - 1)
    assert f"check ideals-match-kernels FAIL swept={swept} kernels={len(naive_kernels(T))}" in lines
    assert lines[-1] == "RESULT fail checks=1 failures=1"
