"""Term tables read the one kept byte form of the operation table, and refuse a table it cannot hold.

`implication._flat` keeps the rows and columns of an n x n table over
elements as bytes, once per table object; the kernel rules translate them
whole and the term engine slices its rows, columns and pair table from
them.  A table with an entry that is not an element has no byte form: the
term engine raises `BadIndex("table entry", n)`, as `check_ioa_identities`
does, while the kernel rules map each entry through `in` and reach the
verdicts of the plain scans.
"""

import dataclasses

import pytest

from oracles import naive_d1_failure, naive_d2_failure
from orthokit import catalog, entry
from orthokit import congruence as cong
from orthokit import implication as imp
from orthokit import terms
from orthokit.errors import BadIndex
from orthokit.implication import ImplicationTable

T1_T6 = list(terms.builtin_terms().values())


def mutants(T, value):
    """Every copy of T with one entry set to `value`."""
    for x in range(T.n):
        for y in range(T.n):
            rows = list(T.bullet)
            rows[x] = rows[x][:y] + (value,) + rows[x][y + 1:]
            yield ImplicationTable(T.n, tuple(rows), T.one)


@pytest.mark.parametrize("value", [-1, 4, 255])
def test_term_engine_refuses_a_table_with_an_entry_that_is_not_an_element(value):
    T = entry("bool4_reduct").payload
    refusal = BadIndex("table entry", T.n).args
    proper = {T.one, 0}
    for M in mutants(T, value):
        for term in T1_T6:
            for call in (lambda: terms.is_ideal_term(M, term),
                         lambda: terms.closed_under_term(M, proper, term),
                         lambda: terms.closed_subsets(M, [proper, range(T.n)], term)):
                with pytest.raises(BadIndex) as exc:
                    call()
                assert exc.value.args == refusal
        assert terms.closed_subsets(M, [range(T.n)], T1_T6[0]) == (True,)


@pytest.mark.parametrize("value", [4, 255])
def test_kernel_rules_read_such_a_table_entry_by_entry(value):
    """An entry past the carrier but below 256 no longer gets a byte form; a verdict the rules
    reach is the plain scan's.  Where such an entry indexes a line of the table, they raise
    IndexError, as they did from the byte form."""
    for M in mutants(entry("bool4_reduct").payload, value):
        assert not isinstance(imp._flat(M)[0], bytes)
        for D in cong.subsets_with_one(M):
            for rule, naive in ((cong.check_d1, naive_d1_failure), (cong.check_d2, naive_d2_failure)):
                try:
                    got = rule(M, D)
                except IndexError:
                    continue
                expected = naive(M, D)
                assert (got.ok, got.witness) == (expected is None, expected)


@pytest.mark.parametrize("name", [e.name for e in catalog() if e.kind == "implication"])
def test_term_tables_and_kernel_rules_share_one_byte_form(name, monkeypatch):
    decisions = []
    flat = imp._flat.__wrapped__

    def counted(T):
        decisions.append(T)
        return flat(T)

    monkeypatch.setattr(imp._flat, "__wrapped__", counted)
    T = dataclasses.replace(entry(name).payload)
    for term in T1_T6:
        assert terms.is_ideal_term(T, term)
    assert decisions == [T] and isinstance(imp._flat(T)[0], bytes)
    for P in cong.congruence_lattice(T):
        cong.theta_from_kernel(T, cong.kernel(T, P).members)
    assert len(decisions) == 1
