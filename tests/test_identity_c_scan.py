"""Identity (c) names the same first failure as the plain four-lookup scan.

`check_ioa_identities` reads the row of (x*y)*y once per (x, y); the first
(x, y, p) with (((x*y)*y)*p)*(x*p) != 1 it reports must be the one a scan
over (x, y, p) in ascending order finds, on every single-cell mutant of the
reducts with n <= 8.
"""

import dataclasses

import pytest

from orthokit import catalog
from orthokit.implication import check_ioa_identities
from test_mutants import cell_mutants

SMALL_REDUCTS = [e for e in catalog() if e.kind == "implication" and e.payload.n <= 8]


def plain_first_failure(T):
    n, B, one, lab = T.n, T.bullet, T.one, T.label
    return next(
        (f"x={lab(x)} y={lab(y)} p={lab(p)}" for x in range(n) for y in range(n) for p in range(n)
         if B[B[B[B[x][y]][y]][p]][B[x][p]] != one),
        "",
    )


@pytest.mark.parametrize("e", SMALL_REDUCTS, ids=[e.name for e in SMALL_REDUCTS])
def test_identity_c_detail_equals_the_plain_scan_on_every_mutant(e):
    T = e.payload
    for table in cell_mutants(T.bullet, T.n):
        M = dataclasses.replace(T, bullet=table)
        c = check_ioa_identities(M)["ident-c"]
        want = plain_first_failure(M)
        assert (c.passed, c.detail) == (want == "", want)
