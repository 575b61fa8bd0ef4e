"""`ortholattice_from_covers` closes its order generators on up-set bitsets.

The closure must be the one Warshall's triple loop on the boolean matrix
gives (`tests/oracles.py`): the same lattice, or the same exception type and
arguments, for random generators on up to seven elements.  A generator
outside the carrier is refused, not dropped or read from the other end, and
so is a complement pair, also under `python -O`; an element no complement
pair covers is named.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_transitive_closure
from orthokit.catalog_io import ortholattice_from_covers
from orthokit.core import lattice_from_order, validate_poset
from orthokit.errors import BadIndex, MissingComplement


def outcome(f):
    try:
        return f()
    except Exception as exc:  # the kind of failure is part of the outcome
        return type(exc), exc.args


def naive_lattice(n, pairs, comp):
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        leq[i][j] = True
    naive_transitive_closure(leq)
    join, meet, bot, top = lattice_from_order(validate_poset(leq))
    return join, meet, comp, bot, top


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 7), data=st.data())
def test_bitset_closure_gives_the_lattice_of_the_matrix_closure(n, data):
    element = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(element, element), max_size=2 * n))
    if data.draw(st.booleans()):  # 0 below and n-1 above everything, so more inputs are lattices
        pairs += [(0, i) for i in range(n)] + [(i, n - 1) for i in range(n)]
    comp = tuple(n - 1 - i for i in range(n))

    def built():
        L = ortholattice_from_covers(n, pairs, [(i, n - 1 - i) for i in range(n)])
        return L.join, L.meet, L.comp, L.bot, L.top

    assert outcome(built) == outcome(lambda: naive_lattice(n, pairs, comp))


@pytest.mark.parametrize("pair", [(0, 2), (2, 1), (-1, 1), (0, -1)])
def test_a_generator_outside_the_carrier_is_refused(pair):
    with pytest.raises(BadIndex) as exc:
        ortholattice_from_covers(2, [(0, 1), pair], [(0, 1)])
    assert exc.value.args == BadIndex(pair, 2).args


@pytest.mark.parametrize("pair", [(1, -2), (0, 3), (-1, 2)])
def test_a_complement_pair_outside_the_carrier_is_refused(pair):
    with pytest.raises(BadIndex) as exc:
        ortholattice_from_covers(3, [(0, 1), (1, 2)], [(0, 2), pair])
    assert exc.value.args == BadIndex(pair, 3).args


@pytest.mark.parametrize("n, comp_pairs, missing", [(3, [(0, 2)], 1), (4, [(1, 1)], 0), (4, [(0, 3)], 1)])
def test_the_least_element_no_complement_pair_covers_is_named(n, comp_pairs, missing):
    with pytest.raises(MissingComplement) as exc:
        ortholattice_from_covers(n, [(i, i + 1) for i in range(n - 1)], comp_pairs)
    assert exc.value.element == missing


def test_the_complement_pairs_are_checked_under_python_o():
    code = (
        "from orthokit.catalog_io import ortholattice_from_covers\n"
        "from orthokit.errors import BadIndex, MissingComplement\n"
        "for pairs, error in (([(0, 2)], MissingComplement), ([(0, 2), (1, -2)], BadIndex)):\n"
        "    try:\n"
        "        ortholattice_from_covers(3, [(0, 1), (1, 2)], pairs)\n"
        "    except error:\n"
        "        continue\n"
        "    raise SystemExit(f'{pairs} accepted')\n"
        "assert False, 'assert statements ran'\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
