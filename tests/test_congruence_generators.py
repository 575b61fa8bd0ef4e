"""Cover congruences of join tables, and `congruence_lattice` held to the all-pairs oracle.

On any table that `induced_join` accepts, x*x = 1 and 1*x = (x*x)*x = x v x = x.
So for a cover a < d the principal congruence Θ(a, d) is Θ(1, d*a): a ~ d
gives d*a ~ d*d = 1, and 1 ~ d*a gives a = 1*a ~ (d*a)*a = a v d = d.  The
cover congruences are therefore as many as the distinct values d*a.  The
inputs are the catalog reducts, the reducts of Boolean 2^1..2^4 and the
principal filters of the families passes at seeds 0-3, relabeled as there.
"""

import sys
from pathlib import Path

import pytest

from oracles import naive_congruence_lattice
from orthokit import catalog
from orthokit import congruence as cong
from orthokit.catalog_io import boolean_lattice, parse_olat
from orthokit.core import _cover_pairs
from orthokit.errors import NotAJoin, NotAnOrder
from orthokit.implication import induced_join
from test_congruence_covers import filter_reducts, induced_leq, reduct

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def families_filters(seed):
    models = workloads.prepare_families(seed, 0, None, {})["models"]
    return [T for m in models for T in filter_reducts(parse_olat(m["olat"]))]


def inputs():
    out = [pytest.param([e.payload], id=e.name) for e in catalog() if e.kind == "implication"]
    out += [pytest.param([reduct(boolean_lattice(k))], id=f"bool2^{k}") for k in range(1, 5)]
    out += [pytest.param(families_filters(seed), id=f"families-seed{seed}") for seed in range(4)]
    return out


def join_tables(tables):
    """The tables whose induced relation is an order with the join (x*y)*y: the cover route."""
    out = []
    for T in tables:
        try:
            induced_join(T)
        except (NotAnOrder, NotAJoin):
            continue
        out.append(T)
    return out


@pytest.mark.parametrize("tables", inputs())
def test_lattice_equals_the_all_pairs_oracle(tables):
    for T in tables:
        assert [P.rep for P in cong.congruence_lattice(T)] == naive_congruence_lattice(T)


@pytest.mark.parametrize("tables", inputs())
def test_a_cover_congruence_is_the_principal_congruence_of_1_and_d_star_a(tables):
    joins = join_tables(tables)
    assert joins
    for T in joins:
        assert all(T.bullet[x][x] == T.one and T.bullet[T.one][x] == x for x in range(T.n))
        for a, d in _cover_pairs(induced_leq(T)):
            assert cong.principal_congruence(T, a, d) == cong.principal_congruence(T, T.one, T.bullet[d][a])


def test_boolean_64_has_six_cover_congruences_one_per_coatom():
    T = reduct(boolean_lattice(6))
    covers = _cover_pairs(induced_leq(T))
    assert len(covers) == 192
    values = {T.bullet[d][a] for a, d in covers}
    assert len(values) == 6
    assert len({cong.principal_congruence(T, a, d) for a, d in covers}) == 6
    # each d*a is a coatom c, so the kernel of Θ(1, c) is the filter {c, 1}
    assert all(cong.kernel(T, cong.principal_congruence(T, T.one, c)).members == {c, T.one} for c in values)
