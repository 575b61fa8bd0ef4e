"""Congruences of implication tables, their kernels, and kernels from subsets.

Partitions are canonicalized as least-representative arrays so that lists of
congruences can be compared as plain sets.  Two enumeration routes exist: a
backtracking search over set partitions that cuts a branch at the first
violated compatibility constraint (the oracle, guarded at n <= 10), and
closure of generating principal congruences under join with them.

Con(A) is a sublattice of Eq(A): the join of two congruences is the
transitive closure of their union, already compatible.  So each table
object keeps the set of partitions it has been shown to be congruences of,
the one kept fact that grows: the identity and the principal closures of
`congruence_lattice`, every closure `congruence_join` makes from a known
congruence, and every Eq(A) join of two known ones.  `congruence_join`
joins two known congruences by merging their classes alone; any other join
runs the closure.

The generators are the covering pairs (a, d), d covering a in the induced
order, whenever `induced_join` accepts the table.  Then x v y = (x*y)*y is a
term operation and the least upper bound, so every congruence class is
convex (a <= c <= b and a ~ b give c = c v a ~ c v b = b), Θ(a, b) is the
join of the cover congruences along maximal chains from a and from b up to
a v b, and the covering pairs generate every congruence.  The join also
gives x*x = 1 and 1*y = y, so Θ(a, d) = Θ(1, d*a) and one closure serves all
covers with the same d*a.  A table whose induced relation is not an order
with that join takes all n(n-1)/2 pairs.

The kernel rules are decided on θ_D, where x θ_D y iff x*y and y*x lie in
D, from one bitset of D per row and per column of the table: one
`bytes.translate` of the flattened rows, and one of the flattened columns,
through D's membership map.  D1 is one containment of row bitsets per
(x, y).  θ_D is symmetric, so the right half of D2 holds iff θ_D is
compatible on the right (x θ_D y gives x*z θ_D y*z: apply the half to
(x, y) and to (y, x)), and the left half iff it is compatible on the left.
Where θ_D is an equivalence, each half is one comparison of every row, or
column, read through the least representatives with its representative's.
The ordered triple scans only name the first witness, after a fast test has
failed or where θ_D is not an equivalence.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

from .core import _cover_pairs, _table_fact, _up_down
from .errors import BadIndex, InconsistentTable, MissingOne, NotAJoin, NotAnOrder, NotD1, NotD2, TooLarge
from .implication import ImplicationTable, _columns, _flat, _readers, induced_join, induced_order
from .report import Verdict, first_witness

BRUTE_FORCE_LIMIT = 10  # Bell(10) = 115975 partitions


@dataclass(frozen=True)
class Partition:
    """Blocks over 0..n-1, stored as rep[x] = least element of x's block."""

    rep: tuple[int, ...]

    def __post_init__(self):
        rep = self.rep
        n = len(rep)
        for x in range(n):
            r = rep[x]
            if not 0 <= r <= x:
                raise BadIndex(r, n)
            if rep[r] != r:
                raise BadIndex(r, n)

    @property
    def n(self) -> int:
        return len(self.rep)

    def same(self, x: int, y: int) -> bool:
        return self.rep[x] == self.rep[y]

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out: dict[int, list[int]] = {}
        for x, r in enumerate(self.rep):
            out.setdefault(r, []).append(x)
        return tuple(tuple(out[r]) for r in sorted(out))

    def block_of(self, x: int) -> tuple[int, ...]:
        r = self.rep[x]
        return tuple(y for y in range(self.n) if self.rep[y] == r)

    def block_count(self) -> int:
        return len(set(self.rep))

    def sort_key(self) -> tuple:
        return (self.block_count(), self.rep)

    @classmethod
    def identity(cls, n: int) -> "Partition":
        return cls(tuple(range(n)))

    @classmethod
    def total(cls, n: int) -> "Partition":
        return cls((0,) * n)

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "Partition":
        rep = [-1] * n
        for block in blocks:
            least = min(block)
            for x in block:
                if rep[x] != -1:
                    raise BadIndex(x, n)
                rep[x] = least
        if any(r == -1 for r in rep):
            raise BadIndex("uncovered element", n)
        return cls(tuple(rep))


@dataclass(frozen=True)
class KernelSet:
    """The block of the constant 1 under some congruence."""

    members: frozenset[int]

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __iter__(self):
        return iter(sorted(self.members))


def congruence_violation(T: ImplicationTable, P: Partition) -> tuple | None:
    """First (a, b, c, d) with a~b, c~d but a*c not~ b*d, or None.

    Checked one argument at a time; by transitivity that is equivalent to
    the two-pair form, and the counterexample returned keeps that form.  P is
    compatible iff every row and every column, read through P.rep, equals
    its representative's; the ordered scan runs only when that test fails,
    to name the first counterexample.
    """
    n, B, rep = T.n, T.bullet, P.rep
    if P.n != n:
        raise BadIndex(P.n, n)

    def fails():
        for a in range(n):
            for b in range(a + 1, n):
                if rep[a] != rep[b]:
                    continue
                for c in range(n):
                    if rep[B[a][c]] != rep[B[b][c]]:
                        yield a, b, c, c
                    if rep[B[c][a]] != rep[B[c][b]]:
                        yield c, c, a, b

    return first_witness(fails(), all(_read_alike(readers, rep) for readers in _readers(T)))


def is_congruence(T: ImplicationTable, P: Partition) -> Verdict:
    return Verdict.of(congruence_violation(T, P))


def iter_partitions(n: int):
    """All set partitions of 0..n-1 as least-representative arrays."""
    rep = [0] * n

    def rec(i: int, firsts: tuple[int, ...]):
        if i == n:
            yield tuple(rep)
            return
        for f in firsts:
            rep[i] = f
            yield from rec(i + 1, firsts)
        rep[i] = i
        yield from rec(i + 1, firsts + (i,))

    if n == 0:
        return
    rep[0] = 0
    yield from rec(1, (0,))


def _constraints_by_level(T: ImplicationTable) -> list[list[tuple[int, int, int, int]]]:
    """Every nontrivial a~b => u~v with u, v = a*c, b*c or c*a, c*b (a < b), filed under max(b, u, v).

    A partition is a congruence iff it meets all of them, and each one can be
    decided as soon as the elements up to its level have been placed.
    """
    n, B = T.n, T.bullet
    levels: list[set] = [set() for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                for u, v in ((B[a][c], B[b][c]), (B[c][a], B[c][b])):
                    if u != v:
                        levels[max(b, u, v)].add((a, b, min(u, v), max(u, v)))
    return [sorted(level) for level in levels]


def all_congruences_bruteforce(T: ImplicationTable) -> list[Partition]:
    """Every congruence, by a search over set partitions; the oracle the closure method is held to.

    Elements are placed in the order of `iter_partitions`, and a branch is cut
    at the first compatibility constraint its placed elements violate.  The
    search uses no congruence closure, so it stays independent of
    `congruence_lattice`.  It runs once per table object; each call returns
    a fresh list.
    """
    return list(_congruences_bruteforce(T))


@_table_fact
def _congruences_bruteforce(T: ImplicationTable) -> tuple[Partition, ...]:
    n = T.n
    if n > BRUTE_FORCE_LIMIT:
        raise TooLarge(n, BRUTE_FORCE_LIMIT)
    if n == 0:
        return ()
    levels = _constraints_by_level(T)
    rep = [0] * n
    found = []

    def place(i: int, firsts: tuple[int, ...]) -> None:
        if i == n:
            found.append(Partition(tuple(rep)))
            return
        for f in firsts + (i,):
            rep[i] = f
            if all(rep[a] != rep[b] or rep[u] == rep[v] for a, b, u, v in levels[i]):
                place(i + 1, firsts if f < i else firsts + (i,))

    place(1, (0,))
    found.sort(key=Partition.sort_key)
    return tuple(found)


@_table_fact
def _known(T: ImplicationTable) -> set[Partition]:
    """The partitions shown to be congruences of T, once per table object; the set grows.

    `congruence_lattice` adds the identity and its principal closures, once
    `induced_order` has checked that T is an n x n table of elements, and
    `congruence_join` each join it makes from a known congruence.
    """
    return set()


def _close(T: ImplicationTable, rep: list[int], pending: list[tuple[int, int]]) -> Partition:
    """Merge the pending pairs into the classes of `rep` until the result is compatible.

    rep[x] labels x's class and the smaller class is relabeled on a merge.
    Each time x and y actually merge, the pairs (x*z, y*z) and (z*x, z*y)
    are queued for every z.
    """
    n, B = T.n, T.bullet
    for a, b in pending:
        if not (0 <= a < n and 0 <= b < n):
            raise BadIndex((a, b), n)
    cols = _columns(T)
    members: dict[int, list[int]] = {}
    for x, r in enumerate(rep):
        members.setdefault(r, []).append(x)
    while pending:
        x, y = pending.pop()
        rx, ry = rep[x], rep[y]
        if rx == ry:
            continue
        if len(members[rx]) < len(members[ry]):
            rx, ry = ry, rx
        moved = members.pop(ry)
        for z in moved:
            rep[z] = rx
        members[rx] += moved
        pending.extend(zip(B[x], B[y]))
        pending.extend(zip(cols[x], cols[y]))
    least = {r: min(block) for r, block in members.items()}
    return Partition(tuple(least[r] for r in rep))


def _eq_join(P: Partition, Q: Partition) -> Partition:
    """The join of P and Q in Eq(A): the classes of the transitive closure of their union.

    A union-find over P's classes that links each x to Q.rep[x], each class's
    root its least element: every link points from the larger root to the
    smaller, so up[x] <= x throughout and one pass in increasing x reads
    each root.
    """
    up = list(P.rep)
    for x, y in enumerate(Q.rep):
        if x != y:
            while up[x] != x:
                x = up[x]
            while up[y] != y:
                y = up[y]
            if x < y:
                up[y] = x
            elif y < x:
                up[x] = y
    for x, r in enumerate(up):
        up[x] = up[r]
    return Partition(tuple(up))


def congruence_closure(T: ImplicationTable, pairs) -> Partition:
    """Least congruence merging the given pairs: class merging plus a worklist, from the identity."""
    return _close(T, list(range(T.n)), [(a, b) for a, b in pairs])


def principal_congruence(T: ImplicationTable, a: int, b: int) -> Partition:
    """Smallest congruence merging a and b."""
    return congruence_closure(T, [(a, b)])


def congruence_join(T: ImplicationTable, P: Partition, Q: Partition) -> Partition:
    """Least congruence containing the congruence P and the partition Q.

    Where T is known to have both P and Q as congruences (`_known`), the
    join is their join in Eq(A), compatible because Con(A) is a sublattice
    of Eq(A), and no table entry is read.  Otherwise the class merging
    starts from P's blocks and queues only Q's pairs; P's own compatibility
    consequences need no queueing because P is a congruence.  A join from a
    known P is added to the known congruences.
    """
    if P.n != T.n:
        raise BadIndex(P.n, T.n)
    known = _known(T)
    shown = P in known
    if shown and Q in known:
        J = _eq_join(P, Q)
    else:
        J = _close(T, list(P.rep), [(block[0], x) for block in Q.blocks() for x in block[1:]])
    if shown:
        known.add(J)
    return J


@_table_fact
def _covers(T: ImplicationTable) -> tuple[tuple[int, int], ...]:
    """The covering pairs of the induced order, once per table object, from its kept bitsets."""
    poset = induced_order(T)
    return tuple(_cover_pairs(poset.leq, _up_down(poset)))


def congruence_lattice(T: ImplicationTable) -> list[Partition]:
    """All congruences: the generators' principal congruences, closed under join with one of them.

    When `induced_join` accepts the table, x v y = (x*y)*y is the least upper
    bound of x <= y iff x*y = 1 and a term operation, so every congruence
    class is convex: a <= c <= b and a ~ b give c = c v a ~ c v b = b.  Then
    Θ(a, b) is the join of the cover congruences along maximal chains from a
    and from b up to a v b, and the covering pairs generate every congruence.
    Each cover a < d takes the generator (1, d*a): as x <= x and y v y = y,
    x*x = 1 and 1*y = (y*y)*y = y, so d*a ~ d*d = 1 when a ~ d, and
    a = 1*a ~ (d*a)*a = d v a = d when d*a ~ 1.  The covers are kept on
    the table (`_covers`), and covers with the same d*a share one principal
    closure.  Any other table takes every pair as a
    generator.  Joining each known congruence P with every generator
    Θ(a, b) not already below it (a and b in different blocks of P) reaches
    all joins of generators.  The identity and the principal congruences
    are recorded as known (`_known`); `induced_order`, under `induced_join`,
    has by then checked that T is an n x n table of elements, so they are
    congruences.  Every join goes through `congruence_join`, and as T is
    known to have both sides, each is a join in Eq(A): the only closures are
    the principal ones.
    """
    n = T.n
    try:
        induced_join(T)
        # Θ(a, d) = Θ(1, d*a) for a cover a < d, so one closure per distinct d*a
        generators = dict.fromkeys((T.one, T.bullet[d][a]) for a, d in _covers(T))
    except (NotAnOrder, NotAJoin):
        generators = combinations(range(n), 2)
    principals: dict[Partition, tuple[int, int]] = {}
    for a, b in generators:
        principals.setdefault(principal_congruence(T, a, b), (a, b))
    known = {Partition.identity(n), *principals}
    _known(T).update(known)
    frontier = list(principals)
    while frontier:
        fresh = []
        for P in frontier:
            for Q, (a, b) in principals.items():
                if P.rep[a] == P.rep[b]:
                    continue
                j = congruence_join(T, P, Q)
                if j not in known:
                    known.add(j)
                    fresh.append(j)
        frontier = fresh
    return sorted(known, key=Partition.sort_key)


def kernel(T: ImplicationTable, P: Partition) -> KernelSet:
    return KernelSet(frozenset(P.block_of(T.one)))


def verify_kernel_injectivity(T: ImplicationTable) -> Verdict:
    """Distinct congruences must have distinct kernels; witness is a colliding pair."""
    return Verdict.of(first_witness(kernel_collisions(T, all_congruences_bruteforce(T))))


def kernel_collisions(T: ImplicationTable, congruences):
    """Each congruence of the list whose kernel an earlier one has, as (earlier, later)."""
    seen: dict[frozenset[int], Partition] = {}
    for P in congruences:
        k = kernel(T, P).members
        if k in seen:
            yield seen[k], P
        else:
            seen[k] = P


def subsets_with_one(T: ImplicationTable):
    """Every subset of the carrier that contains 1, by size, then lexicographically."""
    rest = [x for x in range(T.n) if x != T.one]
    for r in range(len(rest) + 1):
        for picked in combinations(rest, r):
            yield frozenset(picked) | {T.one}


def _lowest(bits: int) -> int:
    """The index i of the least set bit 8i of a nonzero line bitset (`_line_bits`)."""
    return ((bits & -bits).bit_length() - 1) >> 3


def _read_alike(readers, rep) -> bool:
    """Whether every line, read through rep, equals the line of its representative."""
    read = [get(rep) for get in readers]
    return list(map(read.__getitem__, rep)) == read


def _in_carrier(T: ImplicationTable, D) -> frozenset[int]:
    """D as a frozenset, once its members are known to be elements; BadIndex names the least that is not."""
    members = frozenset(D)
    carrier = range(T.n)
    if not all(map(carrier.__contains__, members)):
        raise BadIndex(min(x for x in members if x not in carrier), T.n)
    return members


def _members(T: ImplicationTable, D) -> frozenset[int]:
    """D as a frozenset, once its members are known to be elements and 1 to be one of them."""
    members = _in_carrier(T, D)
    if T.one not in members:
        raise MissingOne()
    return members


def _line_bits(T: ImplicationTable, members: frozenset[int]) -> Iterator[list[int]]:
    """Bitsets of D along the table, the rows' and then the columns', each list made when drawn:
    bit 8z of rows[x] is x*z in D, bit 8z of cols[x] is z*x in D.

    Each side is one `bytes.translate` of the flattened table (`_flat`)
    through D's 256-byte membership map, cut into lines of n bytes; a table
    kept as tuples maps each entry through `in` instead.
    """
    n, sides = T.n, _flat(T)
    if isinstance(sides[0], bytes):
        has = bytearray(256)
        for x in members:
            has[x] = 1
        marked = (side.translate(has) for side in sides)
    else:
        marked = (bytes(map(members.__contains__, side)) for side in sides)
    for side in marked:
        yield [int.from_bytes(side[i:i + n], "little") for i in range(0, len(side), n)]


def _theta(rows: list[int], cols: list[int]) -> tuple[tuple[int, ...], bool]:
    """θ_D's least relatives rep[x] (x itself if it has none), and whether θ_D is an equivalence.

    x θ_D y iff bit 8y of rows[x] & cols[x] is set.  The relation is
    symmetric, so it is an equivalence iff every x has a relative and the
    same relatives as rep[x]: then x ~ y gives rep[x] ~ y, so
    rep[y] <= rep[x], and likewise rep[x] <= rep[y].
    """
    rel = [r & c for r, c in zip(rows, cols)]
    rep = tuple(_lowest(e) if e else x for x, e in enumerate(rel))
    return rep, all(e and e == rel[r] for e, r in zip(rel, rep))


def _d1_failure(T: ImplicationTable, members: frozenset[int], rows) -> tuple | None:
    """First (x, y, z) with x in D and y*z in D but (x*y)*z not in D.

    For each x in D and each y, row y's bitset must lie inside row x*y's;
    the least bit outside names z.
    """
    return first_witness(
        (x, y, _lowest(rows[y] & ~rows[xy]))
        for x in sorted(members) for y, xy in enumerate(T.bullet[x]) if rows[y] & ~rows[xy]
    )


def _d2_failure(T: ImplicationTable, members: frozenset[int], right: bool = True, left: bool = True) -> tuple | None:
    """First (x, y, z) with x*y, y*x in D but (x*z)*(y*z) (right half) or (z*x)*(z*y) (left half) not in D."""
    rep, equivalence = _theta(*_line_bits(T, members))
    return _d2_witness(T, members, rep, equivalence, right, left)


def _d2_witness(T: ImplicationTable, members, rep, equivalence: bool, right: bool = True, left: bool = True):
    """`_d2_failure` given θ_D's least relatives and whether θ_D is an equivalence.

    Where it is, a half holds iff θ_D is compatible on that side (see the
    module docstring), which `_read_alike` decides.  The ordered scan runs
    only where that test fails or θ_D is not an equivalence, and names the
    first witness.
    """
    by_row, by_col = _readers(T)
    rng, B = range(T.n), T.bullet
    return first_witness((
        (x, y, z)
        for x in rng for y in rng if B[x][y] in members and B[y][x] in members
        for z in rng if (right and B[B[x][z]][B[y][z]] not in members) or (left and B[B[z][x]][B[z][y]] not in members)
    ), equivalence and (not right or _read_alike(by_row, rep)) and (not left or _read_alike(by_col, rep)))


def check_d1(T: ImplicationTable, D) -> Verdict:
    """x in D and y*z in D imply (x*y)*z in D; witness is (x, y, z)."""
    members = _members(T, D)
    return Verdict.of(_d1_failure(T, members, next(_line_bits(T, members))))


def check_d2(T: ImplicationTable, D) -> Verdict:
    """x*y, y*x in D imply (x*z)*(y*z) in D and (z*x)*(z*y) in D; witness is (x, y, z).

    With x θ_D y iff x*y and y*x lie in D, the first half holds iff θ_D is
    compatible on the right and the second iff it is compatible on the left
    (θ_D is symmetric).  Where θ_D is an equivalence both are decided by one
    comparison per row and per column; the triple scan only names the
    first witness of a failure.
    """
    return Verdict.of(_d2_failure(T, _members(T, D)))


def theta_from_kernel(T: ImplicationTable, D) -> Partition:
    """The congruence whose kernel is D: relate x and y iff x*y and y*x lie in D.

    D must contain 1 and satisfy the two closure rules, otherwise NotD1 or
    NotD2 is raised; a member outside the carrier raises BadIndex.  D2 is
    exactly the compatibility of this symmetric relation on both sides, so
    the rules are decided on its classes and the triple scans only name
    the first witness.  Where the relation is an equivalence, D2 holding is
    its compatibility: `_d2_witness` has compared every row and every column
    through its classes, so no further compatibility check is made.  That
    the relation is an equivalence, and the kernel itself, are verified
    rather than trusted; a violation cannot happen for genuine inputs and
    raises InconsistentTable.
    """
    members = _members(T, D)
    lines = _line_bits(T, members)
    rows = next(lines)
    w = _d1_failure(T, members, rows)
    if w is not None:
        raise NotD1(w)
    rep, equivalence = _theta(rows, next(lines))
    w = _d2_witness(T, members, rep, equivalence)
    if w is not None:
        raise NotD2(w)
    if not equivalence:
        raise InconsistentTable("kernel relation is not an equivalence")
    P = Partition(rep)
    got = kernel(T, P).members
    if got != members:
        raise InconsistentTable(f"kernel mismatch: expected {sorted(members)}, got {sorted(got)}")
    return P
