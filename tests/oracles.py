"""Independent brute-force oracles used to compute expected test values.

Everything here is deliberately naive and separate from the library code:
closures by fixpoint, bounds by scanning, congruences straight from the
two-pair definition, term values by direct recursion.
"""

from itertools import product
from types import SimpleNamespace


def closure_from_covers(n, covers):
    """Reflexive-transitive closure of cover pairs, by fixpoint iteration."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i, j in covers:
        leq[i][j] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if leq[i][j]:
                    for k in range(n):
                        if leq[j][k] and not leq[i][k]:
                            leq[i][k] = True
                            changed = True
    return leq


def naive_transitive_closure(leq):
    """Close a boolean relation matrix transitively in place, by Warshall's triple loop."""
    n = len(leq)
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                row_i, row_k = leq[i], leq[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True


def naive_cover_pairs(leq):
    """(a, d) with a strictly below d and no c strictly between them, by a plain triple loop."""
    n = len(leq)
    return [
        (a, d) for a in range(n) for d in range(n)
        if a != d and leq[a][d] and not any(c != a and c != d and leq[a][c] and leq[c][d] for c in range(n))
    ]


def naive_least(le, candidates):
    """The first candidate below every candidate under le, or None, by a plain double loop."""
    cands = list(candidates)
    for c in cands:
        if all(le(c, v) for v in cands):
            return c
    return None


def naive_lub(leq, i, j):
    """Least upper bound by scanning all upper bounds, or None."""
    n = len(leq)
    return naive_least(lambda a, b: leq[a][b], [k for k in range(n) if leq[i][k] and leq[j][k]])


def naive_glb(leq, i, j):
    n = len(leq)
    return naive_least(lambda a, b: leq[b][a], [k for k in range(n) if leq[k][i] and leq[k][j]])


def naive_is_partial_order(leq):
    n = len(leq)
    if any(not leq[i][i] for i in range(n)):
        return False
    if any(leq[i][j] and leq[j][i] and i != j for i in range(n) for j in range(n)):
        return False
    return all(
        not (leq[i][j] and leq[j][k]) or leq[i][k]
        for i in range(n) for j in range(n) for k in range(n)
    )


def naive_interval_glb(leq, members, a, b):
    """Greatest lower bound of a, b restricted to the given subset."""
    return naive_least(lambda x, y: leq[y][x], [x for x in members if leq[x][a] and leq[x][b]])


def relative_complement(L, p, a):
    """The unique c in [p, 1] with a v c = 1 and a ^ c = p, or None.

    In a distributive interval there is at most one such c, which makes this
    a direct oracle for Boolean interval witnesses.
    """
    found = [
        c for c in range(L.n)
        if L.le(p, c) and L.join[a][c] == L.top and L.meet[a][c] == p
    ]
    return found[0] if len(found) == 1 else None


def naive_is_congruence(T, P):
    """The two-pair definition verbatim: a~b and c~d force a*c ~ b*d."""
    n, B, rep = T.n, T.bullet, P.rep
    for a in range(n):
        for b in range(n):
            if rep[a] != rep[b]:
                continue
            for c in range(n):
                for d in range(n):
                    if rep[c] == rep[d] and rep[B[a][c]] != rep[B[b][d]]:
                        return False
    return True


def naive_congruence_violation(T, P):
    """First (a, b, c, d) with a~b, c~d but a*c not~ b*d under P.rep, or None, by the plain
    ordered scan over a < b in one block: (a, b, c, c) when a*c and b*c part, (c, c, a, b) when
    c*a and c*b part."""
    n, B, rep = T.n, T.bullet, P.rep
    for a in range(n):
        for b in range(a + 1, n):
            if rep[a] != rep[b]:
                continue
            for c in range(n):
                if rep[B[a][c]] != rep[B[b][c]]:
                    return (a, b, c, c)
                if rep[B[c][a]] != rep[B[c][b]]:
                    return (c, c, a, b)
    return None


def naive_d1_failure(T, D):
    """First (x, y, z) with x in D and y*z in D but (x*y)*z not in D, by the plain triple scan."""
    n, B, members = T.n, T.bullet, frozenset(D)
    for x in range(n):
        if x not in members:
            continue
        for y in range(n):
            for z in range(n):
                if B[y][z] in members and B[B[x][y]][z] not in members:
                    return (x, y, z)
    return None


def naive_d2_failure(T, D, right=True, left=True):
    """First (x, y, z) with x*y, y*x in D but (x*z)*(y*z) (right half) or (z*x)*(z*y) (left
    half) not in D, by the plain triple scan."""
    n, B, members = T.n, T.bullet, frozenset(D)
    for x in range(n):
        for y in range(n):
            if B[x][y] not in members or B[y][x] not in members:
                continue
            for z in range(n):
                if (right and B[B[x][z]][B[y][z]] not in members) or (left and B[B[z][x]][B[z][y]] not in members):
                    return (x, y, z)
    return None


def naive_theta_from_kernel(T, D):
    """The least-representative tuple of x ~ y iff x*y, y*x in D, with the checks and exceptions
    of `theta_from_kernel`: the rules by the scans above, then the relation tested to be an
    equivalence, compatible, and of kernel D, entry by entry."""
    from orthokit.errors import InconsistentTable, MissingOne, NotD1, NotD2

    n, B, members = T.n, T.bullet, frozenset(D)
    if T.one not in members:
        raise MissingOne()
    w = naive_d1_failure(T, members)
    if w is not None:
        raise NotD1(w)
    w = naive_d2_failure(T, members)
    if w is not None:
        raise NotD2(w)
    rel = [[B[x][y] in members and B[y][x] in members for y in range(n)] for x in range(n)]
    rep = tuple(next((y for y in range(n) if rel[x][y]), x) for x in range(n))
    if any(rel[x][y] != (rep[x] == rep[y]) for x in range(n) for y in range(n)):
        raise InconsistentTable("kernel relation is not an equivalence")
    bad = naive_congruence_violation(T, SimpleNamespace(rep=rep))
    if bad is not None:
        raise InconsistentTable(f"kernel relation not compatible at {bad}")
    got = frozenset(y for y in range(n) if rep[y] == rep[T.one])
    if got != members:
        raise InconsistentTable(f"kernel mismatch: expected {sorted(members)}, got {sorted(got)}")
    return rep


def naive_eval(T, node, xs, ys):
    """Recursive term evaluation, independent of the value tables."""
    from orthokit.terms import Bullet, Const1, XVar, YVar

    if isinstance(node, Bullet):
        return T.bullet[naive_eval(T, node.left, xs, ys)][naive_eval(T, node.right, xs, ys)]
    if isinstance(node, Const1):
        return T.one
    if isinstance(node, XVar):
        return xs[node.index]
    assert isinstance(node, YVar)
    return ys[node.index]


def naive_first_outside(T, D, term):
    """First (xs, ys, value) of a plain `product` scan whose value leaves D, or None.

    x-values range over the carrier and y-values over sorted(D), as in the
    definition of closure under a term.
    """
    members = frozenset(D)
    for xs in product(range(T.n), repeat=term.xarity):
        for ys in product(sorted(members), repeat=term.yarity):
            value = naive_eval(T, term.root, xs, ys)
            if value not in members:
                return xs, ys, value
    return None


def subsets_containing(n, element):
    """All subsets of range(n) that contain the given element."""
    rest = [x for x in range(n) if x != element]
    for bits in product((False, True), repeat=len(rest)):
        yield frozenset(x for x, keep in zip(rest, bits) if keep) | {element}


def naive_congruence_closure(T, pairs):
    """Least congruence relating the given pairs, as a least-representative tuple.

    Classes are merged by relabeling, and the table is rescanned until a pass
    merges nothing: every x must then agree with its class's first element
    under x*c and c*x for every c, which by transitivity is compatibility.
    """
    n, B = T.n, T.bullet
    label = list(range(n))

    def merge(x, y):
        lx, ly = label[x], label[y]
        if lx == ly:
            return False
        for z in range(n):
            if label[z] == ly:
                label[z] = lx
        return True

    for a, b in pairs:
        merge(a, b)
    changed = True
    while changed:
        changed = False
        first = {}
        for x in range(n):
            f = first.setdefault(label[x], x)
            for c in range(n):
                changed |= merge(B[x][c], B[f][c])
                changed |= merge(B[c][x], B[c][f])
    first = {}
    return tuple(first.setdefault(label[x], x) for x in range(n))


def naive_congruence_lattice(T):
    """Every congruence, as least-representative tuples sorted by (block count, tuple).

    The principal congruences of all n(n-1)/2 pairs, closed under join with
    a principal one; a join is the closure of both partitions' pairs.
    """
    n = T.n

    def pairs(rep):
        return [(x, r) for x, r in enumerate(rep) if x != r]

    principals = {naive_congruence_closure(T, [(a, b)]) for a in range(n) for b in range(a + 1, n)}
    known = {tuple(range(n))} | principals
    frontier = list(principals)
    while frontier:
        fresh = []
        for P in frontier:
            for Q in principals:
                if all(P[x] == P[r] for x, r in pairs(Q)):
                    continue
                j = naive_congruence_closure(T, pairs(P) + pairs(Q))
                if j not in known:
                    known.add(j)
                    fresh.append(j)
        frontier = fresh
    return sorted(known, key=lambda rep: (len(set(rep)), rep))


def naive_random_ideal_terms(T, count, seed):
    """The first `count` distinct ideal terms of T that one `random.Random(seed)` draws, tried one by one.

    Each candidate is decided by a plain scan with every y set to 1; the
    stream is drawn afresh on every call.
    """
    import random

    from orthokit.terms import RANDOM_TERM_TRIES, random_term

    rng = random.Random(seed)
    found, seen = [], set()
    for _ in range(RANDOM_TERM_TRIES):
        if len(found) == count:
            return found
        t = random_term(rng)
        if t in seen:
            continue
        seen.add(t)
        if naive_first_outside(T, {T.one}, t) is None:
            found.append(t)
    raise RuntimeError(f"could not find {count} ideal terms in {RANDOM_TERM_TRIES} tries")
