"""Finite posets, ortholattices, strongness, and orthosemilattices.

Elements are dense indices 0..n-1 and every operation is a precomputed
lookup table, so all laws are decided by exhaustive scans.  Tables are
frozen after construction; everything here is a pure function of its
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce, wraps
from itertools import chain, compress, repeat
from operator import eq, is_not, itemgetter, le, or_

from .errors import (
    BadIndex,
    NoBottom,
    NoJoin,
    NoMeet,
    NotAntisymmetric,
    NoTop,
    NotReflexive,
    NotStrong,
    NotTransitive,
    NotUpwardClosed,
    OutOfInterval,
    TooLarge,
    WitnessNotFound,
)
from .report import Check, CheckReport, Verdict, first_failure, first_witness

# Backtracking over candidate involutions is exponential in the interval
# size, so the witness search refuses intervals above this bound.
WITNESS_SEARCH_LIMIT = 16

Row = tuple[int, ...]
Table = tuple[Row, ...]
BoolRow = tuple[bool, ...]
BoolTable = tuple[BoolRow, ...]


def _table_fact(decide):
    """Keep decide(T) on the frozen table object T, the way `functools.cached_property` keeps a value.

    The first call on a table decides; later calls on the same object return
    what it decided, from the instance's `__dict__`, which the frozen
    dataclass's ==, hash and repr never read.  An exception is not kept, so a
    rejected table raises again on every call.  The fact belongs to the
    object, not to its value: `names` take no part in ==, yet the details of
    a report carry labels, and no cache outlives the table.  The result must
    be immutable, since every caller gets the same one; the one exception is
    `congruence._known`, the set of congruences shown so far, which only
    grows.  A decision calls `fact.__wrapped__`, so a test can count
    decisions by replacing it, and `_keep` records a fact that its caller
    already knows.  The facts kept so are `validate_orthosemilattice` and
    `_up_down` here; `check_ioa_identities`, `induced_order`,
    `induced_join`, `_columns`, `_readers`, `_flat` and `_source` in
    `implication`; and `_congruences_bruteforce`, `_known` and `_covers` in
    `congruence`.
    """
    key = f"{decide.__module__}.{decide.__qualname__}"

    @wraps(decide)
    def fact(T):
        facts = T.__dict__
        if key not in facts:
            facts[key] = fact.__wrapped__(T)
        return facts[key]

    fact.key = key
    return fact


def _keep(T, fact, value) -> None:
    """Record value as fact(T), as though fact had decided it on the object T."""
    T.__dict__[fact.key] = value


@dataclass(frozen=True)
class PosetTable:
    """A validated partial order as an n x n boolean relation.

    Its up-set and down-set bitsets (`_up_down`) are kept on the object.
    """

    n: int
    leq: BoolTable

    def le(self, i: int, j: int) -> bool:
        return self.leq[i][j]


@dataclass(frozen=True)
class OrtholatticeTable:
    """Bounded lattice with an orthocomplementation, all operations tabulated."""

    n: int
    join: Table
    meet: Table
    comp: tuple[int, ...]
    bot: int
    top: int
    names: tuple[str, ...] | None = field(default=None, compare=False)

    def le(self, i: int, j: int) -> bool:
        return self.join[i][j] == j

    def label(self, i: int) -> str:
        return self.names[i] if self.names and i is not None else str(i)

    def poset(self) -> PosetTable:
        leq = tuple(tuple(self.join[i][j] == j for j in range(self.n)) for i in range(self.n))
        return PosetTable(self.n, leq)


@dataclass(frozen=True)
class IntervalWitness:
    """A chosen orthocomplementation of one interval [p, 1].

    cmap has full carrier length; entries outside the interval are None.
    """

    p: int
    cmap: tuple[int | None, ...]

    def domain(self) -> tuple[int, ...]:
        return tuple(a for a, c in enumerate(self.cmap) if c is not None)

    def comp_of(self, a: int) -> int:
        c = self.cmap[a]
        if c is None:
            raise OutOfInterval(self.p, a)
        return c


@dataclass(frozen=True)
class OrthosemilatticeTable:
    """Join semilattice with top plus one interval orthocomplementation per element.

    Its `validate_orthosemilattice` report is kept on the object.
    """

    n: int
    join: Table
    top: int
    witnesses: tuple[IntervalWitness, ...]
    names: tuple[str, ...] | None = field(default=None, compare=False)

    def le(self, i: int, j: int) -> bool:
        return self.join[i][j] == j

    def label(self, i: int) -> str:
        return self.names[i] if self.names and i is not None else str(i)


@dataclass(frozen=True)
class StrongnessResult:
    strong: bool
    witnesses: tuple[IntervalWitness, ...] | None = None
    failing_p: int | None = None

    def __bool__(self) -> bool:
        return self.strong


def validate_poset(leq) -> PosetTable:
    """Check reflexivity, antisymmetry, and transitivity; raise on the first violation.

    Antisymmetry and transitivity are decided on the up-set and down-set
    bitsets: up[i] & down[i] must be {i}, and the up-sets of the elements
    above i, joined, must give up[i] back.  The ordered scans run only when
    one of these tests fails, to name the first violation.
    """
    rows = tuple(tuple(map(bool, row)) for row in leq)
    n = len(rows)
    if n < 1 or any(len(row) != n for row in rows):
        raise BadIndex("relation", n)
    for i in range(n):
        if not rows[i][i]:
            raise NotReflexive(i)
    poset = PosetTable(n, rows)
    up, down = _up_down(poset)
    rng = range(n)
    pair = first_witness(
        ((i, j) for i in rng for j in rng if i != j and rows[i][j] and rows[j][i]),
        all(u & d == 1 << i for i, (u, d) in enumerate(zip(up, down))),
    )
    if pair:
        raise NotAntisymmetric(*pair)
    triple = first_witness(
        ((i, j, k) for i in rng for j in rng if rows[i][j] for k in rng if rows[j][k] and not rows[i][k]),
        all(reduce(or_, compress(up, row)) == u for row, u in zip(rows, up)),
    )
    if triple:
        raise NotTransitive(*triple)
    return poset


def _bitsets(leq) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Up-set and down-set bitsets of every element of a boolean relation matrix."""
    bits = [1 << i for i in range(len(leq))]
    return tuple(sum(compress(bits, row)) for row in leq), tuple(sum(compress(bits, col)) for col in zip(*leq))


@_table_fact
def _up_down(P: PosetTable) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The `_bitsets` of the order, once per `PosetTable` object: `validate_poset` computes them
    on the order it returns, and `lattice_from_order`, `implication.induced_join` and
    `congruence._covers` read them from there."""
    return _bitsets(P.leq)


def _cover_pairs(leq, up_down=None) -> list[tuple[int, int]]:
    """Every (a, d) of a partial order with d covering a, in ascending order.

    d covers a when it lies strictly above a and nothing lies strictly
    between them: strict_up[a] & strict_down[d] == 0.  up_down, where the
    caller has them, are the order's `_bitsets`.
    """
    up, down = up_down or _bitsets(leq)
    strict_down = [bits & ~(1 << x) for x, bits in enumerate(down)]
    out = []
    for a, bits in enumerate(up):
        above = rest = bits & ~(1 << a)
        while rest:
            low = rest & -rest
            d = low.bit_length() - 1
            if not above & strict_down[d]:
                out.append((a, d))
            rest ^= low
    return out


def _least(cands: int, up) -> int | None:
    """The first candidate, in ascending order, whose up-set up[c] holds every candidate, or None.

    cands is a bitset of indices and up[c] the bitset of elements above c.
    Given down-sets instead, it finds the greatest candidate.
    """
    rest = cands
    while rest:
        low = rest & -rest
        c = low.bit_length() - 1
        if not cands & ~up[c]:
            return c
        rest ^= low
    return None


def lattice_from_order(poset: PosetTable) -> tuple[Table, Table, int, int]:
    """Compute (join, meet, bot, top) by scanning bound sets, or raise naming the bad pair.

    Top and bottom are checked first, so a missing extremum is reported as
    such rather than as some arbitrary unjoinable pair.  Both bound sets of
    (i, j) are those of (j, i), so each pair below the diagonal is copied.
    """
    n = poset.n
    up, down = _up_down(poset)
    full = (1 << n) - 1
    tops = [i for i in range(n) if down[i] == full]
    if not tops:
        raise NoTop()
    bots = [i for i in range(n) if up[i] == full]
    if not bots:
        raise NoBottom()
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            join[i][j] = join[j][i]
            meet[i][j] = meet[j][i]
        for j in range(i, n):
            join[i][j] = _least(up[i] & up[j], up)
            if join[i][j] is None:
                raise NoJoin(i, j)
            meet[i][j] = _least(down[i] & down[j], down)
            if meet[i][j] is None:
                raise NoMeet(i, j)
    return tuple(map(tuple, join)), tuple(map(tuple, meet)), bots[0], tops[0]


def _check_tables(n: int, tables, maps, elements) -> None:
    """Raise BadIndex unless every table is n x n, every map has n entries, and
    every entry and every named element is an index below n."""
    rows = [*maps, *(row for table in tables for row in table)]
    if not (
        n >= 1
        and all(len(table) == n for table in tables)
        and all(len(row) == n for row in rows)
        and 0 <= min(map(min, rows), default=0)
        and max(map(max, rows), default=0) < n
        and all(0 <= v < n for v in elements)
    ):
        raise BadIndex("table entry", n)


def _reader(row):
    """itemgetter(*row), mapping s to (s[row[0]], s[row[1]], ...): a tuple also when row has one entry."""
    if len(row) == 1:
        return lambda s, i=row[0]: (s[i],)
    return itemgetter(*row)


def _associative(name: str, rows: Table, readers, lab) -> Check:
    """The first (x, y, z) with (x v y) v z != x v (y v z).

    Row x v y must be row x read along row y, readers[y](rows[x]), for
    every y at once.  The scan over z runs only for a pair (x, y) that fails.
    """
    rng = range(len(rows))
    return first_failure(name, (
        f"x={lab(x)} y={lab(y)} z={lab(z)}"
        for x in rng for y in rng if rows[rows[x][y]] != readers[y](rows[x])
        for z in rng if rows[rows[x][y]][z] != rows[x][rows[y][z]]
    ), all([get(row) for get in readers] == list(map(rows.__getitem__, row)) for row in rows))


def validate_ortholattice(L: OrtholatticeTable) -> CheckReport:
    """Check every ortholattice axiom exhaustively; report one counterexample per failure.

    De Morgan is derivable from involution plus antitonicity but is checked
    anyway, as a guard against inconsistent tables.  The laws over pairs and
    triples are decided by whole-row tests: commutativity by one transpose,
    associativity, absorption and De Morgan by one getter read per row, and
    antitonicity by comparing row x of the order with column comp(x) read
    through comp.  The ordered scan of a law runs only when its test fails,
    to name the first counterexample.
    """
    _check_tables(L.n, (L.join, L.meet), (L.comp,), (L.bot, L.top))
    n, lab, rng = L.n, L.label, range(L.n)
    jn, mt, cp = tuple(map(tuple, L.join)), tuple(map(tuple, L.meet)), tuple(L.comp)
    jr, mr, flip = [_reader(row) for row in jn], [_reader(row) for row in mt], _reader(cp)
    # leq[x][y] is x <= y; below[c] is column c of leq, below[c][z] is z <= c
    leq = [tuple(map(eq, row, rng)) for row in jn]
    below = tuple(zip(*leq))
    checks = (
        first_failure("join-commutative",
                      (f"x={lab(x)} y={lab(y)}" for x in rng for y in rng if jn[x][y] != jn[y][x]),
                      tuple(zip(*jn)) == jn),
        first_failure("meet-commutative",
                      (f"x={lab(x)} y={lab(y)}" for x in rng for y in rng if mt[x][y] != mt[y][x]),
                      tuple(zip(*mt)) == mt),
        _associative("join-associative", jn, jr, lab),
        _associative("meet-associative", mt, mr, lab),
        first_failure("join-idempotent", (f"x={lab(x)}" for x in rng if jn[x][x] != x)),
        first_failure("meet-idempotent", (f"x={lab(x)}" for x in rng if mt[x][x] != x)),
        first_failure("absorption", (
            f"x={lab(x)} y={lab(y)}"
            for x in rng for y in rng if jn[x][mt[x][y]] != x or mt[x][jn[x][y]] != x
        ), all(jr[x](mt[x]) == mr[x](jn[x]) == (x,) * n for x in rng)),
        first_failure("bottom-least", (f"x={lab(x)}" for x in rng if jn[L.bot][x] != x)),
        first_failure("top-greatest", (f"x={lab(x)}" for x in rng if jn[x][L.top] != L.top)),
        first_failure("comp-involution", (
            f"x={lab(x)}: comp(comp(x))={lab(cp[cp[x]])}" for x in rng if cp[cp[x]] != x
        )),
        first_failure("comp-antitone", (
            f"x={lab(x)} y={lab(y)}: comp(y)={lab(cp[y])} not below comp(x)={lab(cp[x])}"
            for x in rng for y in rng if jn[x][y] == y and jn[cp[y]][cp[x]] != cp[x]
        ), all(all(map(le, leq[x], flip(below[cp[x]]))) for x in rng)),
        first_failure("complement-join", (
            f"x={lab(x)}: x v comp(x)={lab(jn[x][cp[x]])}" for x in rng if jn[x][cp[x]] != L.top
        )),
        first_failure("complement-meet", (
            f"x={lab(x)}: x ^ comp(x)={lab(mt[x][cp[x]])}" for x in rng if mt[x][cp[x]] != L.bot
        )),
        first_failure("de-morgan-join", (
            f"x={lab(x)} y={lab(y)}"
            for x in rng for y in rng if cp[jn[x][y]] != mt[cp[x]][cp[y]]
        ), all(jr[x](cp) == flip(mt[cp[x]]) for x in rng)),
        first_failure("de-morgan-meet", (
            f"x={lab(x)} y={lab(y)}"
            for x in rng for y in rng if cp[mt[x][y]] != jn[cp[x]][cp[y]]
        ), all(mr[x](cp) == flip(jn[cp[x]]) for x in rng)),
    )
    return CheckReport(checks)


def interval(alg, p: int) -> tuple[int, ...]:
    """Elements of [p, 1] in ascending index order; works on any table with a join."""
    if not 0 <= p < alg.n:
        raise BadIndex(p, alg.n)
    return tuple(a for a in range(alg.n) if alg.join[p][a] == a)


def find_interval_orthocomplementation(L: OrtholatticeTable, p: int) -> IntervalWitness:
    """Deterministic backtracking search for an orthocomplementation of [p, 1].

    Elements of the interval are paired in ascending index order, candidate
    images are tried in ascending index order, so the first solution found
    is the lexicographically least one.  Raises WitnessNotFound carrying the
    deepest element that could not be paired, and TooLarge, before searching,
    for an interval above WITNESS_SEARCH_LIMIT elements.
    """
    if not 0 <= p < L.n:
        raise BadIndex(p, L.n)
    _check_tables(L.n, (L.join, L.meet), (L.comp,), (L.bot, L.top))
    members = interval(L, p)
    if len(members) > WITNESS_SEARCH_LIMIT:
        raise TooLarge(len(members), WITNESS_SEARCH_LIMIT, "interval size")
    jn, mt, top = L.join, L.meet, L.top
    le = L.le
    assign: dict[int, int] = {}
    deepest = 0

    def admissible(a: int, c: int) -> bool:
        if jn[a][c] != top or mt[a][c] != p:
            return False
        # antitonicity against every pair assigned so far, plus the new one
        trial = {**assign, a: c, c: a}
        return all((not le(x, y) or le(cy, trial[x])) and (not le(y, x) or le(trial[x], cy))
                   for x in (a, c) for y, cy in trial.items())

    def backtrack(i: int) -> bool:
        nonlocal deepest
        while i < len(members) and members[i] in assign:
            i += 1
        if i == len(members):
            return True
        deepest = max(deepest, i)
        a = members[i]
        for c in members:
            if c in assign and c != a:
                continue
            if not admissible(a, c):
                continue
            assign[a] = c
            assign[c] = a
            if backtrack(i + 1):
                return True
            del assign[a]
            if c != a:
                del assign[c]
        return False

    if not backtrack(0):
        raise WitnessNotFound(p, members[deepest])
    cmap = tuple(assign.get(a) for a in range(L.n))
    return IntervalWitness(p=p, cmap=cmap)


def relative_complement(L: OrtholatticeTable, p: int) -> IntervalWitness:
    """The map x -> comp(x) v p on [p, 1], which orthocomplements every interval of
    an orthomodular lattice (Kalmbach, Orthomodular Lattices, 1983).  It is built
    from comp and the order alone, so it is the same under every relabeling."""
    members = set(interval(L, p))
    return IntervalWitness(p, tuple(L.join[L.comp[a]][p] if a in members else None for a in range(L.n)))


def is_strong(L: OrtholatticeTable) -> StrongnessResult:
    """Find an orthocomplementation of every interval [p, 1].

    The lattice's own complement must be the witness for [0, 1]; every other
    interval takes its relative complement, or else its least witness.
    Returns the full witness family, or the least p whose interval has none.
    Every derived structure uses the stored family; it is never re-searched.
    """
    _check_tables(L.n, (L.join, L.meet), (L.comp,), (L.bot, L.top))
    witnesses = []
    for p in range(L.n):
        w = IntervalWitness(p, tuple(L.comp)) if p == L.bot else relative_complement(L, p)
        if not validate_interval_witness(L, w):
            if p == L.bot:
                return StrongnessResult(False, None, p)
            try:
                w = find_interval_orthocomplementation(L, p)
            except WitnessNotFound:
                return StrongnessResult(False, None, p)
        witnesses.append(w)
    return StrongnessResult(True, tuple(witnesses), None)


def is_modular(L: OrtholatticeTable) -> Verdict:
    """x <= z implies x v (y ^ z) = (x v y) ^ z; witness is (x, y, z)."""
    rng, jn, mt = range(L.n), L.join, L.meet
    return Verdict.of(first_witness(
        (x, y, z) for x in rng for z in rng if jn[x][z] == z for y in rng if jn[x][mt[y][z]] != mt[jn[x][y]][z]
    ))


def is_orthomodular(L: OrtholatticeTable) -> Verdict:
    """x <= y implies x v (comp(x) ^ y) = y; witness is (x, y)."""
    rng, jn, mt, cp = range(L.n), L.join, L.meet, L.comp
    return Verdict.of(first_witness((x, y) for x in rng for y in rng if jn[x][y] == y and jn[x][mt[cp[x]][y]] != y))


def validate_interval_witness(L: OrtholatticeTable, w: IntervalWitness) -> Verdict:
    """Check one witness against the ambient lattice; witness of failure is (kind, data)."""
    members = interval(L, w.p)
    if w.domain() != members:
        return Verdict(False, ("domain", w.domain()))
    jn, mt, cm = L.join, L.meet, w.cmap

    def fails():
        for a in members:
            c = cm[a]
            if c is None or cm[c] != a:
                yield "involution", a
            elif jn[a][c] != L.top:
                yield "complement-join", a
            elif mt[a][c] != w.p:
                yield "complement-meet", a
        for a in members:
            for b in members:
                if L.le(a, b) and not L.le(cm[b], cm[a]):
                    yield "antitone", (a, b)

    return Verdict.of(first_witness(fails()))


def as_orthosemilattice(L: OrtholatticeTable, witnesses=None) -> OrthosemilatticeTable:
    """View a strong ortholattice as an orthosemilattice over its whole carrier."""
    if witnesses is None:
        result = is_strong(L)
        if not result:
            raise NotStrong(result.failing_p)
        witnesses = result.witnesses
    return OrthosemilatticeTable(n=L.n, join=L.join, top=L.top, witnesses=tuple(witnesses), names=L.names)


def restrict_to_filter(S: OrthosemilatticeTable, members) -> OrthosemilatticeTable:
    """Restrict an orthosemilattice to an upward-closed subset, reindexing densely."""
    keep = sorted(set(members))
    if not keep:
        raise BadIndex("empty filter", S.n)
    for i in keep:
        if not 0 <= i < S.n:
            raise BadIndex(i, S.n)
    inset = set(keep)
    for i in keep:
        for j in range(S.n):
            if S.le(i, j) and j not in inset:
                raise NotUpwardClosed(i, j)
    old2new = {old: new for new, old in enumerate(keep)}
    m = len(keep)
    join = tuple(tuple(old2new[S.join[a][b]] for b in keep) for a in keep)
    witnesses = []
    for p in keep:
        cmap_old = S.witnesses[p].cmap
        cmap = [None] * m
        for a in keep:
            if cmap_old[a] is not None:
                cmap[old2new[a]] = old2new[cmap_old[a]]
        witnesses.append(IntervalWitness(p=old2new[p], cmap=tuple(cmap)))
    names = tuple(S.label(i) for i in keep) if S.names else None
    return OrthosemilatticeTable(n=m, join=join, top=old2new[S.top], witnesses=tuple(witnesses), names=names)


def order_filter_to_orthosemilattice(L: OrtholatticeTable, members) -> OrthosemilatticeTable:
    """Restrict a strong ortholattice to an order filter, keeping the stored witnesses."""
    return restrict_to_filter(as_orthosemilattice(L), members)


def _de_morgan_meets_are_glbs(jn: Table, up, down, intervals, cmaps) -> bool:
    """Whether in every [p, 1] the De Morgan meet m = w(w(a) v w(b)) of a and of each b from a on,
    in the interval's order, is a greatest element of the lower bounds up[p] & down[a] & down[b]:
    one of them, with all of them in down[m]."""
    for low, members, w in zip(up, intervals, cmaps):
        for i, a in enumerate(members):
            row, low_a = jn[w[a]], low & down[a]
            for b in members[i:]:
                m = w[row[w[b]]]
                bounds = low_a & down[b]
                if m is None or not bounds >> m & 1 or bounds & ~down[m]:
                    return False
    return True


@_table_fact
def validate_orthosemilattice(S: OrthosemilatticeTable) -> CheckReport:
    """Check the semilattice laws, the top, and every interval witness, once per table object.

    Each interval [p, 1] must be a lattice under the induced order, the
    witness must be an orthocomplementation of it, and its De Morgan meet
    (comp(a) v comp(b)) complemented must agree with the order-theoretic meet.

    The join laws are decided as in `validate_ortholattice`, the witness
    domains by comparing which entries of each map are set with the row of
    p in the order.  The interval laws are decided by one pass over the
    pairs of each interval (`_de_morgan_meets_are_glbs`): where every De
    Morgan meet is a greatest lower bound, every interval is a lattice.  A commutative join makes the
    order antisymmetric, so each De Morgan meet is then the order meet, and
    the complement-meet law reads it at (a, comp(a)).  An idempotent join
    adds reflexivity, so the pair (a, a) gives the involution and the pair
    of a <= b gives comp(b) <= comp(a): antitonicity.  The ordered scans
    run only for the laws these tests do not pass, to name the first
    counterexample; each finds the order meet of the pair it names by one
    bound scan (`_least`).
    """
    n = S.n
    if n < 1 or len(S.join) != n or any(len(r) != n for r in S.join) or len(S.witnesses) != n:
        raise BadIndex("table shape", n)
    _check_tables(n, (S.join,), (), (S.top,))
    jn = tuple(map(tuple, S.join))
    lab = S.label
    rng = range(n)
    # a <= b when a v b = b, as in `le`
    leq = [tuple(map(eq, row, rng)) for row in jn]
    up, down = _bitsets(leq)
    intervals = [tuple(compress(rng, row)) for row in leq]
    commutative = tuple(zip(*jn)) == jn

    def domain_fails():
        for p in rng:
            w = S.witnesses[p]
            if w.p != p:
                yield f"witness stored at {lab(p)} claims p={lab(w.p)}"
            if len(w.cmap) != n:
                yield f"p={lab(p)}: cmap length {len(w.cmap)}"
            members = intervals[p]
            if w.domain() != members:
                yield f"p={lab(p)}: domain {w.domain()} != interval {members}"
            if any(w.cmap[a] not in members for a in members):
                yield f"p={lab(p)}: image leaves the interval"

    checks = (
        first_failure("join-commutative",
                      (f"x={lab(x)} y={lab(y)}" for x in rng for y in rng if jn[x][y] != jn[y][x]),
                      commutative),
        _associative("join-associative", jn, [_reader(row) for row in jn], lab),
        first_failure("join-idempotent", (f"x={lab(x)}" for x in rng if jn[x][x] != x)),
        first_failure("top-greatest", (f"x={lab(x)}" for x in rng if jn[x][S.top] != S.top)),
        first_failure("witness-domains", domain_fails(), all(
            w.p == p and tuple(map(is_not, w.cmap, repeat(None))) == row
            and set(intervals[p]).issuperset(compress(w.cmap, row))
            for p, (w, row) in enumerate(zip(S.witnesses, leq))
        )),
    )
    if not checks[-1].passed:
        # the per-interval law checks below would just crash on a bad family
        return CheckReport(checks)

    cmaps = [S.witnesses[p].cmap for p in rng]
    idempotent = checks[2].passed
    glbs = _de_morgan_meets_are_glbs(jn, up, down, intervals, cmaps)
    de_morgan = commutative and glbs
    complement_meet = de_morgan and all(
        w[jn[w[a]][w[w[a]]]] == p for p, w in enumerate(cmaps) for a in intervals[p]
    )

    def meet(p, a, b):
        return _least(up[p] & down[a] & down[b], down)

    def lattice_fails():
        for p in rng:
            for a in intervals[p]:
                for b in intervals[p]:
                    if meet(p, a, b) is None:
                        yield f"p={lab(p)}: {lab(a)} and {lab(b)} have no meet in the interval"

    def demorgan_fails():
        for p in rng:
            w = cmaps[p]
            for a in intervals[p]:
                for b in intervals[p]:
                    got = w[jn[w[a]][w[b]]]
                    want = meet(p, a, b)
                    if got != want:
                        yield f"p={lab(p)} a={lab(a)} b={lab(b)}: De Morgan meet {lab(got)}, order meet {want}"

    checks += (
        first_failure("witness-involution", (
            f"p={lab(p)} a={lab(a)}"
            for p in rng for a in intervals[p] if cmaps[p][cmaps[p][a]] != a
        )),
        first_failure("witness-antitone", (
            f"p={lab(p)} a={lab(a)} b={lab(b)}"
            for p in rng
            for a in intervals[p]
            for b in intervals[p]
            if up[a] >> b & 1 and not up[cmaps[p][b]] >> cmaps[p][a] & 1
        ), de_morgan and idempotent),
        first_failure("complement-join", (
            f"p={lab(p)} a={lab(a)}"
            for p in rng for a in intervals[p] if jn[a][cmaps[p][a]] != S.top
        )),
        first_failure("interval-lattice", lattice_fails(), glbs),
        first_failure("interval-meet-de-morgan", demorgan_fails(), de_morgan),
        first_failure("complement-meet", (
            f"p={lab(p)} a={lab(a)}"
            for p in rng for a in intervals[p] if meet(p, a, cmaps[p][a]) != p
        ), complement_meet),
    )
    return CheckReport(checks)


def check_overlap_consistency(S: OrthosemilatticeTable) -> CheckReport:
    """Interval meets computed in [p, 1] and [q, 1] must agree on [q, 1] when p <= q.

    A witness image outside the carrier is read as undefined, as None is.
    """
    n, jn = S.n, S.join
    lab = S.label
    intervals = [interval(S, q) for q in range(n)]
    cmaps = [w.cmap for w in S.witnesses]
    readable = {None, *range(n)}
    if not readable.issuperset(chain.from_iterable(cmaps)):
        cmaps = [tuple(c if c in readable else None for c in cmap) for cmap in cmaps]

    def fails():
        for p in range(n):
            wp = cmaps[p]
            for q in intervals[p]:
                wq = cmaps[q]
                members_q = intervals[q]
                for a in members_q:
                    for b in members_q:
                        # a witness undefined at a or b leaves the meet undefined
                        in_p = None if wp[a] is None or wp[b] is None else wp[jn[wp[a]][wp[b]]]
                        in_q = None if wq[a] is None or wq[b] is None else wq[jn[wq[a]][wq[b]]]
                        if in_p != in_q:
                            yield (
                                f"p={lab(p)} q={lab(q)} a={lab(a)} b={lab(b)}: "
                                f"meet {lab(in_p)} in [p,1] vs {lab(in_q)} in [q,1]"
                            )

    return CheckReport((first_failure("overlap-meets", fails()),))
