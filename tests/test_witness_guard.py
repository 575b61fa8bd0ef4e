"""The witness search is guarded by the size of the interval it searches.

`is_strong` has no carrier cap of its own: a lattice above 16 elements is
decided whenever every interval that needs the backtracking search is small.
Boolean lattices, MO_15 and 2^4 x 2 are orthomodular, so every interval takes
its relative complement; fig2_strong12 x 2 is not, and some of its intervals
are searched.
"""

import pytest

from oracles import relative_complement as oracle_complement
from orthokit import entry
from orthokit.catalog_io import boolean_lattice, serialize_olat
from orthokit.cli import main
from orthokit.core import (
    WITNESS_SEARCH_LIMIT,
    find_interval_orthocomplementation,
    interval,
    is_strong,
    relative_complement,
    validate_interval_witness,
)
from orthokit.errors import TooLarge
from test_relabeling import horizontal_sum, times_chain2

ORTHOMODULAR = {
    "bool32": lambda: boolean_lattice(5),
    "bool64": lambda: boolean_lattice(6),
    "mo15": lambda: horizontal_sum(*[2] * 15),
    "bool16x2": lambda: times_chain2(boolean_lattice(4)),
}


@pytest.mark.parametrize("build", list(ORTHOMODULAR.values()), ids=list(ORTHOMODULAR))
def test_orthomodular_lattices_above_16_are_strong_by_relative_complements(build):
    L = build()
    assert L.n > WITNESS_SEARCH_LIMIT
    result = is_strong(L)
    assert result.strong
    assert result.witnesses[L.bot].cmap == L.comp
    for p, w in enumerate(result.witnesses):
        if p != L.bot:
            assert w.cmap == tuple(oracle_complement(L, p, a) if L.le(p, a) else None for a in range(L.n))


def test_searched_witnesses_of_fig2_strong12_times_2_are_accepted():
    L = times_chain2(entry("fig2_strong12").payload)
    result = is_strong(L)
    assert result.strong
    searched = [p for p in range(L.n) if p != L.bot and not validate_interval_witness(L, relative_complement(L, p))]
    # the largest interval searched is [a, 1] x 2 for an element a of fig2_strong12 with |[a, 1]| = 4
    assert searched and max(len(interval(L, p)) for p in searched) == 8
    assert all(validate_interval_witness(L, w) for w in result.witnesses)


def test_search_answers_small_intervals_of_a_large_carrier():
    L = boolean_lattice(5)
    coatom = next(p for p in range(L.n) if interval(L, p) == tuple(sorted((p, L.top))))
    w = find_interval_orthocomplementation(L, coatom)
    assert w.cmap[coatom] == L.top and w.cmap[L.top] == coatom
    with pytest.raises(TooLarge, match="interval size 32"):
        find_interval_orthocomplementation(L, L.bot)


def test_validate_strong_answers_on_a_32_element_file(tmp_path, capsys):
    f = tmp_path / "bool32.olat"
    f.write_text(serialize_olat(boolean_lattice(5)), encoding="utf-8")
    code = main(["validate", str(f), "--strong"])
    out = capsys.readouterr().out
    assert code == 0
    assert "check strong PASS" in out.splitlines()
