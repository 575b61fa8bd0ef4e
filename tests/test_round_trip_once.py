"""`reconstruct_orthosemilattice` takes the report of the orthosemilattice a table was derived from.

A table that `derive_bullet` returns records its source, and where the
rebuilt orthosemilattice equals that source, the source's kept
`validate_orthosemilattice` report stands for the rebuilt one.  The result,
or the exception and its report, must be what a value-equal copy of the
table gives, which records no source and validates afresh: on every catalog
semilattice, on every filter of two families passes, and on every
single-entry corruption of a catalog semilattice that has a reduct.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from orthokit import catalog, semilattice
from orthokit.catalog_io import parse_olat
from orthokit.core import as_orthosemilattice, is_strong, restrict_to_filter, validate_orthosemilattice
from orthokit.errors import AlgebraError, NotImplicationAlgebra
from orthokit.implication import _source, derive_bullet, reconstruct_orthosemilattice
from test_semilattice_corruptions import SEMILATTICES, corruptions

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def outcome(T):
    """The rebuilt table with its names and report, or the exception's type and report."""
    try:
        S = reconstruct_orthosemilattice(T)
    except NotImplicationAlgebra as exc:
        return NotImplicationAlgebra, exc.report
    return S, S.names, validate_orthosemilattice(S)


def catalog_semilattices():
    return [semilattice(e.name) for e in catalog() if e.kind == "orthosemilattice"
            or e.kind == "ortholattice" and is_strong(e.payload)]


def family_filters(seed):
    """Every filter of one families-pipeline pass, as `workloads._pipeline` restricts it."""
    filters = []
    for model in workloads.prepare_families(seed, 0, None, {})["models"]:
        L = parse_olat(model["olat"])
        strong = is_strong(L)
        if strong:
            S = as_orthosemilattice(L, strong.witnesses)
            filters += [restrict_to_filter(S, [x for x in range(S.n) if S.le(p, x)]) for p in range(S.n)]
    return filters


def derivable_corruptions():
    for name in SEMILATTICES:
        for M in corruptions(semilattice(name)):
            try:
                yield M, derive_bullet(M)
            except (AlgebraError, IndexError, TypeError):
                continue


def assert_reused_report_is_fresh(F, T):
    assert _source(T) is F
    copy = dataclasses.replace(T)
    assert _source(copy) is None
    assert outcome(T) == outcome(copy)


@pytest.mark.parametrize("filters", [
    pytest.param(catalog_semilattices, id="catalog"),
    pytest.param(lambda: family_filters(0), id="families-seed0"),
    pytest.param(lambda: family_filters(1), id="families-seed1"),
])
def test_a_reused_report_equals_a_fresh_one(filters):
    filters = filters()
    assert filters
    for F in filters:
        F = dataclasses.replace(F)
        report = validate_orthosemilattice(F)
        assert report.ok and validate_orthosemilattice(F) is report
        T = derive_bullet(F)
        assert_reused_report_is_fresh(F, T)
        rebuilt = reconstruct_orthosemilattice(T)
        assert rebuilt == F and rebuilt is not F and validate_orthosemilattice(rebuilt) == report


def test_a_reused_report_equals_a_fresh_one_on_every_derivable_corruption():
    count = rejected = 0
    for M, T in derivable_corruptions():
        count += 1
        assert_reused_report_is_fresh(M, T)
        rejected += outcome(T)[0] is NotImplicationAlgebra
    assert count and rejected


def test_a_report_is_kept_and_a_value_equal_copy_validates_again():
    S = dataclasses.replace(semilattice("fig2_filter_no0"))
    report = validate_orthosemilattice(S)
    assert validate_orthosemilattice(S) is report
    copy = dataclasses.replace(S)
    assert validate_orthosemilattice(copy) == report and validate_orthosemilattice(copy) is not report
