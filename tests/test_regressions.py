"""Regression tests: the [0, 1] witness, the term-scan budget, and the internal-error path."""

import dataclasses

import pytest

from orthokit import catalog, entry
from orthokit.catalog_io import boolean_lattice, parse_olat
from orthokit.cli import main
from orthokit.congruence import check_d1, check_d2, theta_from_kernel
from orthokit.core import as_orthosemilattice, find_interval_orthocomplementation, is_strong
from orthokit.errors import InconsistentTable, TooLarge
from orthokit.implication import derive_bullet
from orthokit.terms import closed_under_term, is_ideal_term, parse_term

# mo2 with the complement pairs 1-3 and 2-4: the least orthocomplementation of
# [0, 1] pairs 1 with 2 instead, so it differs from the lattice's own comp.
MO2_RELABELED = """olat 1
n 6
le 0 1
le 0 2
le 0 3
le 0 4
le 1 5
le 2 5
le 3 5
le 4 5
comp 0 5
comp 1 3
comp 2 4
"""


def strong_ortholattices():
    out = [pytest.param(e.payload, id=e.name) for e in catalog() if e.kind == "ortholattice" and is_strong(e.payload)]
    return out + [pytest.param(parse_olat(MO2_RELABELED), id="mo2_relabeled")]


@pytest.mark.parametrize("L", strong_ortholattices())
def test_derived_table_has_x_star_0_equal_to_comp(L):
    T = derive_bullet(as_orthosemilattice(L))
    assert [T.bullet[x][L.bot] for x in range(L.n)] == list(L.comp)


def test_search_still_returns_the_least_witness_of_the_bottom_interval():
    L = parse_olat(MO2_RELABELED)
    assert find_interval_orthocomplementation(L, L.bot).cmap[1] == 2
    assert is_strong(L).witnesses[L.bot].cmap == L.comp


def test_invalid_complement_is_not_strong_at_bottom():
    bool4 = boolean_lattice(2)
    broken = dataclasses.replace(bool4, comp=tuple(range(bool4.n)))
    result = is_strong(broken)
    assert not result and result.failing_p == broken.bot


def test_term_scan_over_budget_exits_2(capsys):
    term = "(b x0 (b x1 (b x2 (b x3 (b x4 (b x5 (b x6 1)))))))"
    code = main(["ideals", "--catalog", "fig2_reduct", "--term", term])
    captured = capsys.readouterr()
    assert code == 2
    assert "exceeds limit" in captured.err and "RESULT" not in captured.out


def test_term_scans_raise_too_large_before_scanning():
    T = entry("fig2_reduct").payload
    with pytest.raises(TooLarge):
        is_ideal_term(T, parse_term("(b x0 (b x1 (b x2 (b x3 (b x4 (b x5 1))))))"))
    with pytest.raises(TooLarge):
        closed_under_term(T, range(T.n), parse_term("(b x0 (b x1 (b x2 (b x3 (b y0 y1)))))"))


def test_corrupted_table_reaches_the_internal_error():
    T = entry("chain2_reduct").payload
    bullet = [list(row) for row in T.bullet]
    bullet[T.one][0] = T.one
    bad = dataclasses.replace(T, bullet=tuple(map(tuple, bullet)))
    D = {bad.one}
    assert check_d1(bad, D).ok and check_d2(bad, D).ok
    with pytest.raises(InconsistentTable):
        theta_from_kernel(bad, D)


def test_seed_is_accepted_only_by_verify_theorems(capsys):
    assert main(["validate", "--catalog", "chain2", "--seed", "0"]) == 2
    assert main(["verify-theorems", "--catalog", "chain2", "--seed", "3"]) == 0
    capsys.readouterr()
