"""Naive oracles for the validators: `validate_poset`, `validate_ortholattice`,
`validate_orthosemilattice`, `induced_order` and `induced_join` by plain ordered scans over
every pair and triple, with the same reports, details and exceptions.

They are kept apart from `oracles.py` because the benchmark imports that module to prepare
its inputs; without cached bytecode the import compiles it, and every process the benchmark
then spawns starts with the peak RSS of that one.
"""

from oracles import naive_interval_glb, naive_lub
from orthokit.core import PosetTable
from orthokit.errors import AlgebraError, BadIndex, NotAJoin, NotAnOrder, NotAntisymmetric, NotReflexive, NotTransitive
from orthokit.report import CheckReport, first_failure


def naive_check_tables(n, tables, maps, elements):
    """BadIndex("table entry", n) unless every table is n x n, every map has n entries, and every
    entry and every named element is an index below n."""
    rows = [*maps, *(row for table in tables for row in table)]
    if not (
        n >= 1
        and all(len(table) == n for table in tables)
        and all(len(row) == n for row in rows)
        and all(0 <= v < n for row in rows for v in row)
        and all(0 <= v < n for v in elements)
    ):
        raise BadIndex("table entry", n)


def naive_validate_poset(leq):
    """The `PosetTable` of leq, or the first violation raised as `validate_poset` raises it:
    reflexivity, then antisymmetry, then transitivity, each by the plain ordered scan."""
    rows = tuple(tuple(bool(v) for v in row) for row in leq)
    n = len(rows)
    if n < 1 or any(len(row) != n for row in rows):
        raise BadIndex("relation", n)
    for i in range(n):
        if not rows[i][i]:
            raise NotReflexive(i)
    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] and rows[j][i]:
                raise NotAntisymmetric(i, j)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][j] and rows[j][k] and not rows[i][k]:
                    raise NotTransitive(i, j, k)
    return PosetTable(n, rows)


def naive_validate_ortholattice(L):
    """The report of `validate_ortholattice`, every law by the plain ordered scan over every tuple."""
    naive_check_tables(L.n, (L.join, L.meet), (L.comp,), (L.bot, L.top))
    jn, mt, cp, lab, rng = L.join, L.meet, L.comp, L.label, range(L.n)
    return CheckReport((
        first_failure("join-commutative", (f"x={lab(x)} y={lab(y)}" for x in rng for y in rng if jn[x][y] != jn[y][x])),
        first_failure("meet-commutative", (f"x={lab(x)} y={lab(y)}" for x in rng for y in rng if mt[x][y] != mt[y][x])),
        first_failure("join-associative", (
            f"x={lab(x)} y={lab(y)} z={lab(z)}"
            for x in rng for y in rng for z in rng if jn[jn[x][y]][z] != jn[x][jn[y][z]]
        )),
        first_failure("meet-associative", (
            f"x={lab(x)} y={lab(y)} z={lab(z)}"
            for x in rng for y in rng for z in rng if mt[mt[x][y]][z] != mt[x][mt[y][z]]
        )),
        first_failure("join-idempotent", (f"x={lab(x)}" for x in rng if jn[x][x] != x)),
        first_failure("meet-idempotent", (f"x={lab(x)}" for x in rng if mt[x][x] != x)),
        first_failure("absorption", (
            f"x={lab(x)} y={lab(y)}" for x in rng for y in rng if jn[x][mt[x][y]] != x or mt[x][jn[x][y]] != x
        )),
        first_failure("bottom-least", (f"x={lab(x)}" for x in rng if jn[L.bot][x] != x)),
        first_failure("top-greatest", (f"x={lab(x)}" for x in rng if jn[x][L.top] != L.top)),
        first_failure("comp-involution", (f"x={lab(x)}: comp(comp(x))={lab(cp[cp[x]])}" for x in rng if cp[cp[x]] != x)),
        first_failure("comp-antitone", (
            f"x={lab(x)} y={lab(y)}: comp(y)={lab(cp[y])} not below comp(x)={lab(cp[x])}"
            for x in rng for y in rng if jn[x][y] == y and jn[cp[y]][cp[x]] != cp[x]
        )),
        first_failure("complement-join", (f"x={lab(x)}: x v comp(x)={lab(jn[x][cp[x]])}" for x in rng if jn[x][cp[x]] != L.top)),
        first_failure("complement-meet", (f"x={lab(x)}: x ^ comp(x)={lab(mt[x][cp[x]])}" for x in rng if mt[x][cp[x]] != L.bot)),
        first_failure("de-morgan-join", (
            f"x={lab(x)} y={lab(y)}" for x in rng for y in rng if cp[jn[x][y]] != mt[cp[x]][cp[y]]
        )),
        first_failure("de-morgan-meet", (
            f"x={lab(x)} y={lab(y)}" for x in rng for y in rng if cp[mt[x][y]] != jn[cp[x]][cp[y]]
        )),
    ))


def naive_validate_orthosemilattice(S):
    """The report of `validate_orthosemilattice`, every law by the plain ordered scan over every
    tuple, with interval meets by `naive_interval_glb`."""
    n = S.n
    if n < 1 or len(S.join) != n or any(len(r) != n for r in S.join) or len(S.witnesses) != n:
        raise BadIndex("table shape", n)
    naive_check_tables(n, (S.join,), (), (S.top,))
    jn, lab, rng = S.join, S.label, range(n)
    leq = [[jn[x][y] == y for y in rng] for x in rng]
    members = [tuple(a for a in rng if leq[p][a]) for p in rng]

    def domain_fails():
        for p in rng:
            w = S.witnesses[p]
            if w.p != p:
                yield f"witness stored at {lab(p)} claims p={lab(w.p)}"
                return
            if len(w.cmap) != n:
                yield f"p={lab(p)}: cmap length {len(w.cmap)}"
                return
            domain = tuple(a for a in rng if w.cmap[a] is not None)
            if domain != members[p]:
                yield f"p={lab(p)}: domain {domain} != interval {members[p]}"
                return
            if any(w.cmap[a] not in members[p] for a in members[p]):
                yield f"p={lab(p)}: image leaves the interval"
                return

    checks = (
        first_failure("join-commutative", (f"x={lab(x)} y={lab(y)}" for x in rng for y in rng if jn[x][y] != jn[y][x])),
        first_failure("join-associative", (
            f"x={lab(x)} y={lab(y)} z={lab(z)}"
            for x in rng for y in rng for z in rng if jn[jn[x][y]][z] != jn[x][jn[y][z]]
        )),
        first_failure("join-idempotent", (f"x={lab(x)}" for x in rng if jn[x][x] != x)),
        first_failure("top-greatest", (f"x={lab(x)}" for x in rng if jn[x][S.top] != S.top)),
        first_failure("witness-domains", domain_fails()),
    )
    if not checks[-1].passed:
        return CheckReport(checks)
    w = [S.witnesses[p].cmap for p in rng]

    def glb(p, a, b):
        return naive_interval_glb(leq, members[p], a, b)

    return CheckReport(checks + (
        first_failure("witness-involution", (f"p={lab(p)} a={lab(a)}" for p in rng for a in members[p] if w[p][w[p][a]] != a)),
        first_failure("witness-antitone", (
            f"p={lab(p)} a={lab(a)} b={lab(b)}"
            for p in rng for a in members[p] for b in members[p] if leq[a][b] and not leq[w[p][b]][w[p][a]]
        )),
        first_failure("complement-join", (f"p={lab(p)} a={lab(a)}" for p in rng for a in members[p] if jn[a][w[p][a]] != S.top)),
        first_failure("interval-lattice", (
            f"p={lab(p)}: {lab(a)} and {lab(b)} have no meet in the interval"
            for p in rng for a in members[p] for b in members[p] if glb(p, a, b) is None
        )),
        first_failure("interval-meet-de-morgan", (
            f"p={lab(p)} a={lab(a)} b={lab(b)}: De Morgan meet {lab(w[p][jn[w[p][a]][w[p][b]]])}, "
            f"order meet {glb(p, a, b)}"
            for p in rng for a in members[p] for b in members[p] if w[p][jn[w[p][a]][w[p][b]]] != glb(p, a, b)
        )),
        first_failure("complement-meet", (f"p={lab(p)} a={lab(a)}" for p in rng for a in members[p] if glb(p, a, w[p][a]) != p)),
    ))


def naive_induced_order(T):
    """The `PosetTable` of x <= y iff x*y = 1, raising as `induced_order` does."""
    naive_check_tables(T.n, (T.bullet,), (), (T.one,))
    leq = tuple(tuple(T.bullet[x][y] == T.one for y in range(T.n)) for x in range(T.n))
    try:
        poset = naive_validate_poset(leq)
    except AlgebraError as exc:
        raise NotAnOrder(str(exc)) from exc
    for x in range(T.n):
        if not leq[x][T.one]:
            raise NotAnOrder(f"{T.label(x)} is not below the constant 1")
    return poset


def naive_induced_join(T):
    """(x*y)*y checked against the naive lub of the induced order, raising as `induced_join` does."""
    leq = naive_induced_order(T).leq
    join = tuple(tuple(T.bullet[T.bullet[x][y]][y] for y in range(T.n)) for x in range(T.n))
    for x in range(T.n):
        for y in range(T.n):
            if naive_lub(leq, x, y) != join[x][y]:
                raise NotAJoin(x, y)
    return join
