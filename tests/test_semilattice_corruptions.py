"""Single-entry corruptions of the catalog semilattices are rejected by a report, never by a crash.

A corrupted join table or witness map can leave a De Morgan meet, or a meet
read through a witness, undefined.  The validator and the overlap check
name such a meet as None, on named and unnamed tables alike.  The overlap
check reads a witness image outside the carrier as undefined, as it reads
None.
"""

import dataclasses

import pytest

from orthokit import semilattice
from orthokit.core import IntervalWitness, check_overlap_consistency, validate_orthosemilattice
from test_mutants import STRONG, cell_mutants

SEMILATTICES = STRONG + ("fig2_filter_no0",)


def corruptions(S):
    """S with one join cell changed to each other element, then with one entry of one witness
    map, inside its interval or not, changed to each other element or to None."""
    for join in cell_mutants(S.join, S.n):
        yield dataclasses.replace(S, join=join)
    for p, w in enumerate(S.witnesses):
        for a, c in enumerate(w.cmap):
            for v in (*range(S.n), None):
                if v != c:
                    witnesses = list(S.witnesses)
                    witnesses[p] = IntervalWitness(p, w.cmap[:a] + (v,) + w.cmap[a + 1:])
                    yield dataclasses.replace(S, witnesses=tuple(witnesses))


def test_an_undefined_de_morgan_meet_is_named_on_a_named_table():
    S = semilattice("fig2_filter_no0")
    rows = list(S.join)
    rows[5] = (1,) + rows[5][1:]
    report = validate_orthosemilattice(dataclasses.replace(S, join=tuple(rows)))
    assert report["interval-meet-de-morgan"].line() == (
        "check interval-meet-de-morgan FAIL p=e a=d' b=1: De Morgan meet None, order meet 6"
    )


def test_an_undefined_witness_leaves_the_overlap_meet_undefined():
    S = semilattice("bool4")
    S = dataclasses.replace(S, witnesses=(IntervalWitness(0, (None,) * 4),) + S.witnesses[1:])
    assert check_overlap_consistency(S).checks[0].line() == (
        "check overlap-meets FAIL p=0 q=a a=a b=a: meet None in [p,1] vs a in [q,1]"
    )


@pytest.mark.parametrize("name", SEMILATTICES)
def test_every_single_entry_corruption_gets_a_failing_report(name):
    S = semilattice(name)
    count = 0
    for M in corruptions(S):
        count += 1
        assert not validate_orthosemilattice(M).ok
        assert check_overlap_consistency(M).checks
    # n^2 (n - 1) join corruptions and n^2 * n witness corruptions
    assert count == S.n ** 2 * (2 * S.n - 1)


def with_image(S, p, a, v):
    """S with entry a of the witness at p set to v."""
    witnesses = list(S.witnesses)
    cmap = S.witnesses[p].cmap
    witnesses[p] = IntervalWitness(p, cmap[:a] + (v,) + cmap[a + 1:])
    return dataclasses.replace(S, witnesses=tuple(witnesses))


@pytest.mark.parametrize("name", SEMILATTICES)
def test_a_witness_image_outside_the_carrier_reads_as_undefined(name):
    """Each witness entry set to n and to -1 gets the overlap report of the entry set to None:
    a failure inside the interval, the unchanged table's passing report outside it."""
    S = semilattice(name)
    for p, w in enumerate(S.witnesses):
        for a, c in enumerate(w.cmap):
            undefined = check_overlap_consistency(with_image(S, p, a, None))
            assert undefined.ok == (c is None)
            for v in (S.n, -1):
                assert check_overlap_consistency(with_image(S, p, a, v)).checks == undefined.checks
