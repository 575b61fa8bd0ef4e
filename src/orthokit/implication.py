"""The implication reduct x*y = (x v y) complemented in [y, 1], and the way back.

`derive_bullet` turns an orthosemilattice into a binary-operation table;
`reconstruct_orthosemilattice` rebuilds the order, joins, and interval
complements from nothing but that table.  Both directions are exact inverses
on valid inputs, which the test suite checks table by table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import eq

from .core import (
    IntervalWitness,
    OrthosemilatticeTable,
    PosetTable,
    _check_tables,
    _keep,
    _least,
    _reader,
    _table_fact,
    _up_down,
    validate_orthosemilattice,
    validate_poset,
)
from .errors import (
    AlgebraError,
    BadIndex,
    MissingWitness,
    NotAJoin,
    NotAnOrder,
    NotImplicationAlgebra,
    OutOfInterval,
)
from .report import Check, CheckReport, first_failure, first_witness

Row = tuple[int, ...]
Table = tuple[Row, ...]


@dataclass(frozen=True)
class ImplicationTable:
    """Carrier 0..n-1, the n x n table of the binary operation, and the constant 1.

    The facts that `core._table_fact` functions decide are kept on the object.
    """

    n: int
    bullet: Table
    one: int
    names: tuple[str, ...] | None = field(default=None, compare=False)

    def le(self, x: int, y: int) -> bool:
        return self.bullet[x][y] == self.one

    def label(self, i: int) -> str:
        return self.names[i] if self.names and i is not None else str(i)


@_table_fact
def _source(T: ImplicationTable) -> OrthosemilatticeTable | None:
    """The orthosemilattice `derive_bullet` tabulated T from, or None for any other table object."""
    return None


def derive_bullet(S: OrthosemilatticeTable) -> ImplicationTable:
    """Tabulate x*y := comp of (x v y) inside [y, 1], using the stored witnesses.

    The table returned records S as its `_source`.
    """
    n, jn = S.n, S.join
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            c = S.witnesses[y].cmap[jn[x][y]]
            if c is None:
                raise MissingWitness(y)
            row.append(c)
        rows.append(tuple(row))
    T = ImplicationTable(n=n, bullet=tuple(rows), one=S.top, names=S.names)
    _keep(T, _source, S)
    return T


@_table_fact
def check_ioa_identities(T: ImplicationTable) -> CheckReport:
    """Exhaustively check the defining identities in this order, then whether (d) and (d') agreed:
        (a)  x*1 = 1, x*x = 1, 1*x = x
        (b)  (x*y)*y = (y*x)*x
        (c)  (((x*y)*y)*p)*(x*p) = 1
        (d)  (((x*p)*p)*p)*((x*p)*p) = (x*p)*p
        (d') p*a = 1 implies ((a*p)*a)*a = 1, the conditional form of (d) with p <= a read
             off the induced relation x <= y iff x*y = 1; the two agree on any genuine table.
    Decided once per table object (`_table_fact`)."""
    _check_tables(T.n, (T.bullet,), (), (T.one,))
    n, B, one = T.n, T.bullet, T.one
    lab = T.label
    rng = range(n)

    def c_fails():
        # row j = (x*y)*y is read once per (x, y); p runs along rows j and x
        for x in rng:
            row_x = B[x]
            for y in rng:
                row_j = B[B[row_x[y]][y]]
                for p in rng:
                    if B[row_j[p]][row_x[p]] != one:
                        yield f"x={lab(x)} y={lab(y)} p={lab(p)}"

    def d_fails():
        for x in rng:
            for p in rng:
                q = B[B[x][p]][p]
                if B[B[q][p]][q] != q:
                    yield f"x={lab(x)} p={lab(p)}"

    def d_prime_fails():
        for p in rng:
            for a in rng:
                if B[p][a] != one:
                    continue
                if B[B[B[a][p]][a]][a] != one:
                    yield f"p={lab(p)} a={lab(a)}"

    checks = (
        first_failure("ident-a", (
            f"x={lab(x)}"
            for x in rng
            if B[x][one] != one or B[x][x] != one or B[one][x] != x
        )),
        first_failure("ident-b", (
            f"x={lab(x)} y={lab(y)}: {lab(B[B[x][y]][y])} != {lab(B[B[y][x]][x])}"
            for x in rng for y in rng if B[B[x][y]][y] != B[B[y][x]][x]
        )),
        first_failure("ident-c", c_fails()),
        first_failure("ident-d", d_fails()),
        first_failure("ident-d'", d_prime_fails()),
    )
    d_ok = checks[-2].passed
    dp_ok = checks[-1].passed
    checks += (Check(
        "ident-d-agreement",
        d_ok == dp_ok,
        "" if d_ok == dp_ok else f"(d) {'passed' if d_ok else 'failed'} but (d') {'passed' if dp_ok else 'failed'}",
    ),)
    return CheckReport(checks)


@_table_fact
def induced_order(T: ImplicationTable) -> PosetTable:
    """The relation x <= y iff x*y = 1, verified to be an order with greatest element,
    once per table object."""
    _check_tables(T.n, (T.bullet,), (), (T.one,))
    n, B, one = T.n, T.bullet, T.one
    leq = tuple(tuple(map(eq, row, repeat(one))) for row in B)
    try:
        poset = validate_poset(leq)
    except AlgebraError as exc:
        raise NotAnOrder(str(exc)) from exc
    for x in range(n):
        if not leq[x][one]:
            raise NotAnOrder(f"{T.label(x)} is not below the constant 1")
    return poset


@_table_fact
def _columns(T: ImplicationTable) -> Table:
    """The table's columns, once per table object: _columns(T)[y][x] = x*y."""
    return tuple(zip(*T.bullet))


@_table_fact
def _readers(T: ImplicationTable) -> tuple[tuple, tuple]:
    """For each row x and each column x, the `_reader` of the line's entries, once per table object.

    The row getter maps s to (s[x*0], s[x*1], ...) and the column getter
    to (s[0*x], s[1*x], ...), a tuple also when n = 1.
    """
    return tuple(map(_reader, T.bullet)), tuple(map(_reader, _columns(T)))


@_table_fact
def _flat(T: ImplicationTable) -> tuple[bytes, bytes] | tuple[tuple, tuple]:
    """The table's rows laid end to end, and its columns, once per table object.

    As bytes where the table is n x n with n <= 256 and every entry is an
    element, so that line x is the n bytes from n*x; else as tuples.
    """
    n, sides = T.n, (T.bullet, _columns(T))
    if n <= 256 and len(T.bullet) == n:
        try:
            flat = tuple(bytes(chain.from_iterable(lines)) for lines in sides)
        except ValueError:
            pass
        else:
            # n x n, and deleting the elements from the rows leaves nothing
            if len(flat[0]) == len(flat[1]) == n * n and not flat[0].translate(None, bytes(range(n))):
                return flat
    return tuple(tuple(chain.from_iterable(lines)) for lines in sides)


def _is_lub_table(join: Table, up) -> bool:
    """Whether the symmetric table join gives, for each x and each y from x on, an upper bound
    j of x and y with every upper bound above it: up[x] & up[y] inside up[j]."""
    for x, row in enumerate(join):
        for y in range(x, len(row)):
            j, bounds = row[y], up[x] & up[y]
            if not bounds >> j & 1 or bounds & ~up[j]:
                return False
    return True


@_table_fact
def induced_join(T: ImplicationTable) -> Table:
    """Tabulate x v y := (x*y)*y and verify it is the lub of the induced order, once per table object.

    Column y of the join is column y of the table read along itself.  The
    order is antisymmetric, so a symmetric join that passes `_is_lub_table`
    is the lub; the ordered scan runs only when that test fails, to name
    the first pair.
    """
    rng = range(T.n)
    up, _ = _up_down(induced_order(T))
    join = tuple(zip(*(get(col) for get, col in zip(_readers(T)[1], _columns(T)))))
    pair = first_witness(
        ((x, y) for x in rng for y in rng if _least(up[x] & up[y], up) != join[x][y]),
        join == tuple(zip(*join)) and _is_lub_table(join, up),
    )
    if pair:
        raise NotAJoin(*pair)
    return join


def interval_meet(T: ImplicationTable, p: int, a: int, b: int) -> int:
    """Meet of a and b within [p, 1]: (((a*p)*(b*p))*(b*p))*p."""
    for v in (p, a, b):
        if not 0 <= v < T.n:
            raise BadIndex(v, T.n)
    if not T.le(p, a):
        raise OutOfInterval(p, a)
    if not T.le(p, b):
        raise OutOfInterval(p, b)
    B = T.bullet
    ap, bp = B[a][p], B[b][p]
    return B[B[B[ap][bp]][bp]][p]


def reconstruct_orthosemilattice(T: ImplicationTable) -> OrthosemilatticeTable:
    """Rebuild the orthosemilattice whose reduct the table is.

    Joins come from (x*y)*y and the witness of [p, 1] maps a to a*p.  The
    result is validated; failure means the input was not a genuine
    implication orthoalgebra in the first place.  Where T was derived from
    an orthosemilattice equal to the result (`_source`), the result takes
    that source's kept report: the validator reads nothing but the table's
    value and its `names`, and the result takes its names from T, which
    took them from the source.  Any other table, such as a value-equal
    copy of a derived one, is validated afresh; on a genuine input every
    whole-row test of `validate_orthosemilattice` passes, so that costs
    those tests and none of its ordered scans.
    """
    report = check_ioa_identities(T)
    if not report.ok:
        raise NotImplicationAlgebra(report)
    n, cols, leq = T.n, _columns(T), induced_order(T).leq
    join = induced_join(T)
    witnesses = []
    for p in range(n):
        cmap = tuple(ap if up else None for ap, up in zip(cols[p], leq[p]))
        witnesses.append(IntervalWitness(p=p, cmap=cmap))
    S = OrthosemilatticeTable(n=n, join=join, top=T.one, witnesses=tuple(witnesses), names=T.names)
    source = _source(T)
    report = validate_orthosemilattice(source if S == source else S)
    if not report.ok:
        raise NotImplicationAlgebra(report)
    return S
