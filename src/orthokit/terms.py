"""Terms over the signature {*, 1} with x- and y-variables kept apart.

The two variable kinds play different roles: a term is an ideal term of an
algebra when plugging 1 into every y-variable makes it identically 1, and a
subset is closed under the term when x-variables range over the carrier
while y-variables range over the subset only.

Text syntax is a prefix S-expression: `1`, `x<i>`, `y<j>`, and `(b t u)`
for the binary operation, e.g. `(b (b y0 (b y1 x0)) x0)`.

Closure is decided from value tables built by `_tabulate`, each over the
variables its subterm keeps once its constant parts are folded (none when
its values are all equal).  For one subset, `closed_under_term` tabulates
with y over that subset and decodes the first failing assignment as its
witness, the other variables at their least values.  For many subsets,
`closed_subsets` builds one table with y over the union of the proper
subsets (the carrier needs none) and reads each assignment of the table's
y-variables as the Horn clause "ys inside D implies these values inside D";
it decides those clauses for every subset at once, on bitsets over the
subsets' positions, without witnesses.

Every table is built from the operation table alone, which is assumed to
satisfy no identity, by whole-table byte operations on slices of its one
kept byte form (`implication._flat`); a table that has none, having an entry
that is not an element, raises BadIndex.  A table whose entries
are all equal is a constant.  A constant right side c absorbs its product,
whose left side is never tabulated, when column c is constant (in a reduct
x*1 = 1, so with y set to 1 every s*y is 1); otherwise a constant side is
one `bytes.translate` of the other side through its row or column.  Two
non-constant sides on at most 16 elements fit one byte as the pair code
l << 4 | r, so their product is integer arithmetic on the two tables and one
`translate` through a 256-byte pair table.  On 17 to 256 elements a pair no
longer fits a byte: a product goes through one operation-table row per span
on which one side is constant, or entry by entry where both sides depend on
the last variable.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain, islice, repeat

from .congruence import KernelSet, _d2_failure, _in_carrier, check_d1, check_d2, congruence_closure, kernel
from .errors import ArityMismatch, BadIndex, ParseError, TooLarge
from .implication import ImplicationTable, _flat
from .report import Check, CheckReport, Verdict, first_witness

# Assignments an exhaustive term scan may visit; larger scans raise TooLarge up front.
TERM_SCAN_LIMIT = 10**6
# Random terms `random_ideal_terms` may draw before it gives up.
RANDOM_TERM_TRIES = 20000


@dataclass(frozen=True)
class Const1:
    pass


@dataclass(frozen=True)
class XVar:
    index: int


@dataclass(frozen=True)
class YVar:
    index: int


@dataclass(frozen=True)
class Bullet:
    left: "TermNode"
    right: "TermNode"


TermNode = Const1 | XVar | YVar | Bullet


@dataclass(frozen=True)
class Term:
    root: TermNode
    xarity: int
    yarity: int

    def __post_init__(self):
        _fold(self.root, None, partial(_declared, "x", self.xarity), partial(_declared, "y", self.yarity),
              lambda left, right: None)


def _declared(kind: str, arity: int, index: int) -> None:
    if not 0 <= index < arity:
        raise ArityMismatch(f"{kind}{index} with declared {kind}-arity {arity}")


def _fold(root: TermNode, one, x, y, product, absorbs=None):
    """Value of the tree computed bottom-up: `one` at 1, x(i) at x_i, y(j) at y_j,
    and product(left, right) at each product node.

    Each product's right subtree is folded first, on an explicit stack.  When
    `absorbs(right)` returns a value, that value is the product's and the
    left subtree is never visited.
    """
    values, todo = [], [root]
    while todo:
        node = todo.pop()
        if node is None:  # both sides of a product are folded, the left one on top
            left = values.pop()
            values[-1] = product(left, values[-1])
        elif type(node) is tuple:  # a product's right side is folded, node[0] is its left subtree
            got = None if absorbs is None else absorbs(values[-1])
            if got is None:
                todo += (None, node[0])
            else:
                values[-1] = got
        else:
            while isinstance(node, Bullet):  # down the right spine, keeping each left subtree
                todo.append((node.left,))
                node = node.right
            if isinstance(node, Const1):
                values.append(one)
            elif isinstance(node, XVar):
                values.append(x(node.index))
            else:
                values.append(y(node.index))
    return values[0]


def eval_term(T: ImplicationTable, term: Term, xs, ys) -> int:
    """Value of the term under the given assignment."""
    if len(xs) != term.xarity:
        raise ArityMismatch(f"expected {term.xarity} x-values, got {len(xs)}")
    if len(ys) != term.yarity:
        raise ArityMismatch(f"expected {term.yarity} y-values, got {len(ys)}")
    return _fold(term.root, T.one, xs.__getitem__, ys.__getitem__, lambda l, r: T.bullet[l][r])


def _check_scan_budget(T: ImplicationTable, term: Term, ysize: int) -> None:
    """Refuse a declared arity, or T.n ** xarity * ysize ** yarity assignments, over the budget;
    the product stops, and is named, at the first factor that takes it over."""
    if T.n > 256:
        raise TooLarge(T.n, 256, "carrier size for one-byte term tables")
    arity = term.xarity + term.yarity
    if arity > TERM_SCAN_LIMIT:
        raise TooLarge(arity, TERM_SCAN_LIMIT, "term scan size")
    work = 1
    for size in chain(repeat(T.n, term.xarity), repeat(ysize, term.yarity)):
        work *= size
        if work > TERM_SCAN_LIMIT:
            raise TooLarge(work, TERM_SCAN_LIMIT, "term scan size")


# A table lists a subterm's values at every assignment of the free variables
# that folding left it, one byte each, in `product` order; a table whose
# entries are all equal is a constant over no variables.  Variables are indexed
# canonically: x_i is i and y_j is xarity + j, so x-variables come first, as
# in the scans the tables replace.  No table exceeds the budgeted scan size.
def _tabulate(T: ImplicationTable, term: Term, ydomain) -> tuple[tuple[int, ...], bytes]:
    """Variables and value table of the root, folded bottom-up in one walk.

    Constants fold as the module docstring says.  Every line of the
    operation table is a slice of its kept byte form (`_flat`), padded once
    per call: line l of a side is the 256 bytes `translate` takes from n*l,
    of which only the first n are read, every value being an element.  The
    pair table of `_paired` is cut from the rows at its first use, once per
    call.  The carrier size alone selects `_paired` (n <= 16) or `_bullet`
    for two non-constant sides.  A table that is not n x n over elements,
    or whose 1 is not one, raises BadIndex.
    """
    n, B = T.n, T.bullet
    rows, cols = _flat(T)
    if not isinstance(rows, bytes) or not 0 <= T.one < n:
        raise BadIndex("table entry", n)
    rows, cols = rows + bytes(256), cols + bytes(256)
    size = [n] * term.xarity + [len(ydomain)] * term.yarity
    pair = b""

    def row(l):
        return rows[n * l:n * l + 256]

    def col(r):
        return cols[n * r:n * r + 256]

    def absorbs(right):
        vs, values = right
        if not vs:
            line = col(values[0])
            if line.count(line[0], 0, n) == n:
                return (), line[:1]
        return None

    def bullet(left, right):
        nonlocal pair
        (lvars, lvals), (rvars, rvals) = left, right
        if not lvars:
            return _folded(rvars, rvals.translate(row(lvals[0])))
        if not rvars:
            return _folded(lvars, lvals.translate(col(rvals[0])))
        if n > 16:
            return _folded(*_bullet(left, right, size, B, row, col))
        if not pair:
            pair = bytes(16 - n).join(rows[n * l:n * l + n] for l in range(n)).ljust(256, b"\0")
        return _folded(*_paired(left, right, size, pair))

    carrier, yvals = bytes(range(n)), bytes(ydomain)
    return _fold(term.root, ((), bytes((T.one,))), lambda i: ((i,) if n > 1 else (), carrier),
                 lambda j: ((term.xarity + j,) if len(yvals) > 1 else (), yvals), bullet, absorbs)


def _folded(vs, values: bytes) -> tuple[tuple[int, ...], bytes]:
    """The table over `vs`, or a constant over no variables when its entries are all equal."""
    constant = values[-1] == values[0] and values.count(values[0]) == len(values)
    return ((), values[:1]) if constant else (vs, values)


def _paired(left, right, size, pair) -> tuple[tuple[int, ...], bytes]:
    """Table of l*r over the union of two non-constant sides' variables, every value below 16.

    The pair code l << 4 | r of two values fits one byte, and `pair` maps it
    to l*r.  With both sides broadcast to the union, the left table read as
    one integer and shifted by four bits, or-ed with the right one, holds
    every entry's pair code, and one `translate` decodes them all.
    """
    (lvars, lvals), (rvars, rvals) = left, right
    vs = tuple(sorted(set(lvars) | set(rvars)))
    lvals = _broadcast(lvals, lvars, vs, size)
    rvals = _broadcast(rvals, rvars, vs, size)
    codes = int.from_bytes(lvals, "big") << 4 | int.from_bytes(rvals, "big")
    return vs, codes.to_bytes(len(rvals), "big").translate(pair)


def _bullet(left, right, size, B, row, col) -> tuple[tuple[int, ...], bytes]:
    """Table of l*r over the union of two non-constant sides' variables, values up to 255.

    Where one side does not depend on the trailing variables, it is constant
    on spans of the other side's table, and each span goes through one row (or
    column) of the operation table with `bytes.translate`.  Where both sides
    depend on the last variable, no span is longer than one entry, and the
    entries are looked up one by one: with values past 15 a pair of values no
    longer fits the one byte a `translate` maps.
    """
    (lvars, lvals), (rvars, rvals) = left, right
    vs = tuple(sorted(set(lvars) | set(rvars)))
    lspan = _constant_span(vs, lvars, size)
    rspan = _constant_span(vs, rvars, size)
    if max(lspan, rspan) == 1:
        lvals = _broadcast(lvals, lvars, vs, size)
        rvals = _broadcast(rvals, rvars, vs, size)
        return vs, bytes([B[l][r] for l, r in zip(lvals, rvals)])
    if lspan >= rspan:
        span, keys, keyvars, vals, valvars, through = lspan, lvals, lvars, rvals, rvars, row
    else:
        span, keys, keyvars, vals, valvars, through = rspan, rvals, rvars, lvals, lvars, col
    lead = vs[:vs.index(keyvars[-1]) + 1]
    keys = _broadcast(keys, keyvars, lead, size)
    vals = _broadcast(vals, valvars, vs, size)
    spans = map(slice, range(0, len(vals), span), range(span, len(vals) + span, span))
    return vs, b"".join(map(bytes.translate, map(vals.__getitem__, spans), map(through, keys)))


def _constant_span(vs, own, size) -> int:
    """Entries of a table over `vs` on which a side over `own` stays constant."""
    span = 1
    for v in reversed(vs):
        if v in own:
            break
        span *= size[v]
    return span


def _broadcast(values: bytes, have: tuple[int, ...], want: tuple[int, ...], size: list[int]) -> bytes:
    """Re-index a table over `have` by the superset `want`.

    Each run of consecutive variables missing from `have` is inserted as one
    variable whose d values are the run's assignments: every block of the
    entries of the `have` variables after the run is repeated d times, by
    `_repeat`'s slice assignments rather than entry by entry.
    """
    if len(have) == len(want):
        return values
    inner, d = len(values), 1
    for v in want:
        if v not in have:
            d *= size[v]
            continue
        if d > 1:
            values, d = _repeat(values, inner, d), 1
        inner //= size[v]
    return _repeat(values, 1, d) if d > 1 else values


def _repeat(values: bytes, inner: int, d: int) -> bytes:
    """The table with each block of `inner` entries repeated d times in its place.

    The copy is made by slice assignment into a bytearray in min(outer,
    d * inner) steps, for `outer` blocks: per block, its d copies at once; or
    per position in a group of d * inner entries, one strided slice that sets
    that position in every group.
    """
    outer, group = len(values) // inner, d * inner
    if outer == 1:
        return values * d
    out = bytearray(outer * group)
    if outer <= group:
        for o in range(outer):
            out[o * group:(o + 1) * group] = values[o * inner:(o + 1) * inner] * d
    else:
        for i in range(inner):
            column = values[i::inner]
            for k in range(i, group, inner):
                out[k::group] = column
    return bytes(out)


def _first_outside(T: ImplicationTable, term: Term, ydomain, members: frozenset[int]):
    """First assignment in `product` order whose value leaves `members`, as (xs, ys, value), or None.

    Variables missing from the folded table take their least value: its
    values, and so a failure, do not depend on them, so that is where a
    `product` scan meets the first failing entry.
    """
    vs, values = _tabulate(T, term, ydomain)
    if members.issuperset(values):
        return None
    pos = next(i for i, val in enumerate(values) if val not in members)
    xs = [0] * term.xarity
    ys = [ydomain[0]] * term.yarity
    value = values[pos]
    for v in reversed(vs):
        if v < term.xarity:
            pos, xs[v] = divmod(pos, T.n)
        else:
            pos, digit = divmod(pos, len(ydomain))
            ys[v - term.xarity] = ydomain[digit]
    return tuple(xs), tuple(ys), value


def is_ideal_term(T: ImplicationTable, term: Term) -> Verdict:
    """Does the term evaluate to 1 whenever every y-variable is set to 1?

    The notion is relative to the algebra: the scan runs over all
    x-assignments of this carrier.  Witness of failure is the x-assignment.
    """
    _check_scan_budget(T, term, 1)
    miss = _first_outside(T, term, (T.one,), frozenset((T.one,)))
    return Verdict.of(None if miss is None else miss[0])


def _make_builtin_terms() -> dict[str, Term]:
    x0, x1, x2 = XVar(0), XVar(1), XVar(2)
    y0, y1 = YVar(0), YVar(1)
    b = Bullet
    return {
        "t1": Term(b(x0, y0), 1, 1),
        "t2": Term(b(b(x0, x1), b(y1, b(b(y0, x0), x1))), 2, 2),
        "t3": Term(b(b(x0, x1), b(x0, b(y0, x1))), 2, 1),
        "t4": Term(b(b(b(x0, x1), b(x0, b(y0, x2))), b(b(x0, x1), b(x0, x2))), 3, 1),
        "t5": Term(b(b(b(x0, x1), b(b(y0, x2), x1)), b(b(x0, x1), b(x2, x1))), 3, 1),
        "t6": Term(b(b(y0, b(y1, x0)), x0), 1, 2),
    }


_BUILTIN_TERMS = _make_builtin_terms()


def builtin_terms() -> dict[str, Term]:
    """The six closure terms t1..t6 that characterize ideals, as a fresh dict over shared terms."""
    return dict(_BUILTIN_TERMS)


def closed_under_term(T: ImplicationTable, I, term: Term) -> Verdict:
    """Exhaustive closure check: x-values from the carrier, y-values from I.

    Decided on the root's value table.  Witness of failure is the first
    (xs, ys, value) in `product` order.  A member outside the carrier raises
    BadIndex.
    """
    members = _in_carrier(T, I)
    if not members:
        raise ValueError("closure checked against an empty subset")
    _check_scan_budget(T, term, len(members))
    return Verdict.of(_first_outside(T, term, sorted(members), members))


def closed_subsets(T: ImplicationTable, subsets, term: Term) -> tuple[bool, ...]:
    """Closure of every subset under one term, decided from at most one table.

    The carrier is closed under every term and needs no table: the table, and
    its budget, span y over the union U of the proper subsets only.  Its
    values at one assignment ys of the y-variables the term uses, over all
    x-assignments, are the Horn clause "ys inside D implies those values inside
    D".  A subset is closed exactly when every clause whose ys lie in it keeps
    its values inside it.  The clauses are decided for all subsets at once on
    bitsets over subset positions: holds[e] has bit i set when the i-th subset
    contains e, so a clause breaks exactly the subsets in the AND of holds[y]
    over its ys and the OR of ~holds[v] over its values.  Each verdict equals
    `bool(closed_under_term(T, D, term))`, which may refuse the carrier as too
    large a scan; no witnesses are kept.  A member of a subset outside the
    carrier raises BadIndex.
    """
    sets = [frozenset(D) for D in subsets]
    if not all(sets):
        raise ValueError("closure checked against an empty subset")
    _in_carrier(T, chain.from_iterable(sets))
    carrier = frozenset(range(T.n))
    proper = [D for D in sets if D != carrier]
    if not proper:
        return (True,) * len(sets)
    union = sorted(frozenset().union(*proper))
    _check_scan_budget(T, term, len(union))
    vs, values = _tabulate(T, term, union)
    # bit i of holds[e] is 1 when the i-th subset contains e, read as binary digits, the last subset first
    holds = [int(bytes([49 if e in D else 48 for D in reversed(sets)]), 2) for e in range(T.n)]
    every = (1 << len(sets)) - 1
    misses = [every ^ h for h in holds]
    # y-variables come last in the table, so one y-assignment's values are a stride slice;
    # needs[j] holds the subsets containing the j-th y-assignment, in `product` order
    yvars = sum(v >= term.xarity for v in vs)
    needs = [every]
    for _ in range(yvars):
        needs = [need & holds[y] for need in needs for y in union]
    broken = 0
    for j, need in enumerate(needs):
        if not need:
            continue
        escape = 0
        for v in set(values[j::len(needs)]):
            escape |= misses[v]
        broken |= need & escape
    return tuple(bit == "0" for bit in reversed(format(broken, f"0{len(sets)}b")))


def is_ideal_by_terms(T: ImplicationTable, I) -> Verdict:
    """A nonempty subset is an ideal iff it is closed under t1..t6, checked in order;
    a failure's witness is (the first failing term's name, its closure witness)."""
    def fails():
        for name, term in _BUILTIN_TERMS.items():
            v = closed_under_term(T, I, term)
            if not v:
                yield name, v.witness

    return Verdict.of(first_witness(fails()))


def property_mp(T: ImplicationTable, I) -> Verdict:
    """The detachment rule: a in I and a*b in I imply b in I; witness is (a, b).
    A member outside the carrier raises BadIndex."""
    members = _in_carrier(T, I)
    B = T.bullet
    return Verdict.of(first_witness(
        (a, b) for a in sorted(members) for b in range(T.n) if B[a][b] in members and b not in members
    ))


def check_lemma_chain(T: ImplicationTable, I) -> CheckReport:
    """The three closure implications behind the six-term characterization.

    Closure under {t1, t2, t6} forces the D1 rule; {t3, t4, t6} forces the
    (z*x)*(z*y) half of D2; {t2, t5, t6} forces the (x*z)*(y*z) half.  Each
    check passes when its hypothesis fails or its conclusion holds.  A
    hypothesis is decided term by term, t6 first, and stops at the first
    term the subset is not closed under; each term and rule is checked at
    most once.
    """
    members = frozenset(I)
    closed = cache(lambda name: closed_under_term(T, members, _BUILTIN_TERMS[name]).ok)
    return _lemma_chain(T, members, closed, lambda: check_d1(T, members).ok,
                        cache(lambda: check_d2(T, members).ok))


def _lemma_chain(T: ImplicationTable, members: frozenset[int], closed, d1, d2) -> CheckReport:
    """The three rows of `check_lemma_chain`, given closed(term name), and d1() and d2() deciding
    the D1 rule and the whole D2 rule; a D2 half is scanned on its own only where d2() is False."""
    rows = [
        ("t1-t2-t6-give-d1", ("t6", "t1", "t2"), d1),
        ("t3-t4-t6-give-d2-left", ("t6", "t3", "t4"), lambda: d2() or _d2_failure(T, members, right=False) is None),
        ("t2-t5-t6-give-d2-right", ("t6", "t2", "t5"), lambda: d2() or _d2_failure(T, members, left=False) is None),
    ]
    checks = []
    for name, hyp, concl in rows:
        if not all(closed(term) for term in hyp):
            checks.append(Check(name, True, "hypothesis closure does not hold"))
        elif concl():
            checks.append(Check(name, True))
        else:
            checks.append(Check(name, False, "closure holds but the conclusion fails"))
    return CheckReport(tuple(checks))


def ideal_closure(T: ImplicationTable, G) -> KernelSet:
    """Least ideal containing G: kernel of the congruence merging each g with 1."""
    gens = sorted(frozenset(G))
    if not gens:
        raise ValueError("ideal closure of an empty set")
    P = congruence_closure(T, [(g, T.one) for g in gens])
    return kernel(T, P)


def random_term(rng: random.Random, xarity: int = 2, yarity: int = 2, max_depth: int = 5) -> Term:
    """One random term tree; leaves are drawn from 1, x-vars, and y-vars.

    The root is a product.  Below it, nodes are drawn in preorder, and a node
    at depth d is a leaf when d reaches `max_depth` or with probability 0.3.
    """
    leaves: list[TermNode] = [Const1()]
    leaves += [XVar(i) for i in range(xarity)]
    leaves += [YVar(j) for j in range(yarity)]
    # children drawn so far of each unfinished product; the next node's depth is the stack's length
    open_products: list[list[TermNode]] = [[]]
    while True:
        if len(open_products) < max_depth and rng.random() >= 0.3:
            open_products.append([])
            continue
        node = leaves[rng.randrange(len(leaves))]
        while len(open_products[-1]) == 1:
            node = Bullet(open_products.pop()[0], node)
            if not open_products:
                return Term(node, xarity, yarity)
        open_products[-1].append(node)


def random_ideal_terms(T: ImplicationTable, count: int, seed: int = 0) -> list[Term]:
    """Deterministically sample distinct random terms that are ideal terms of T,
    trying in order the candidates of the seed, drawn once per seed by `_candidates`."""
    found = list(islice(filter(partial(is_ideal_term, T), _candidates(seed)), count))
    if len(found) < count:
        raise RuntimeError(f"could not find {count} ideal terms in {RANDOM_TERM_TRIES} tries")
    return found


# The last seed's candidate stream: its distinct terms drawn so far, and the generator that draws more.
_streams: dict[int, tuple[list[Term], Iterator[Term]]] = {}


def _candidates(seed: int) -> Iterator[Term]:
    """The distinct terms of `RANDOM_TERM_TRIES` draws from `random.Random(seed)`, in order.

    Each is drawn once while the seed is the last one asked for; one stream is read at a time.
    """
    if seed not in _streams:
        _streams.clear()
        _streams[seed] = ([], _distinct_terms(random.Random(seed)))
    drawn, more = _streams[seed]
    yield from drawn
    for t in more:
        drawn.append(t)
        yield t


def _distinct_terms(rng: random.Random) -> Iterator[Term]:
    seen: set[Term] = set()
    for _ in range(RANDOM_TERM_TRIES):
        t = random_term(rng)
        if t not in seen:
            seen.add(t)
            yield t


def parse_term(text: str) -> Term:
    """Parse the prefix S-expression syntax; arities are inferred from the variables."""
    words = text.replace("(", " ( ").replace(")", " ) ").split()
    if not words:
        raise ParseError("empty term")
    tokens = iter(words)
    # children read so far of each product whose ')' is still to come, innermost last
    open_products: list[list[TermNode]] = []
    xar = yar = 0
    for tok in tokens:
        if open_products and len(open_products[-1]) == 2:
            if tok != ")":
                raise ParseError(f"expected ')', got {tok!r}")
            node = Bullet(*open_products.pop())
        elif tok == "(":
            head = next(tokens, None)
            if head is None:
                break  # the term ends inside '('
            if head != "b":
                raise ParseError(f"expected 'b' after '(', got {head!r}")
            open_products.append([])
            continue
        elif tok == ")":
            raise ParseError("unexpected ')'")
        elif tok == "1":
            node = Const1()
        elif len(tok) > 1 and tok[0] in "xy" and tok[1:].isdecimal():
            try:
                index = int(tok[1:])
            except ValueError:  # more digits than int() reads
                raise ParseError(f"index of {tok[0]} has {len(tok) - 1} digits") from None
            if tok[0] == "x":
                node, xar = XVar(index), max(xar, index + 1)
            else:
                node, yar = YVar(index), max(yar, index + 1)
        else:
            raise ParseError(f"unknown token {tok!r}")
        if not open_products:
            rest = next(tokens, None)
            if rest is not None:
                raise ParseError(f"trailing input {rest!r}")
            return Term(node, xar, yar)
        open_products[-1].append(node)
    raise ParseError("unexpected end of term")


def serialize_term(term: Term) -> str:
    return _fold(term.root, "1", "x{}".format, "y{}".format, "(b {} {})".format)
