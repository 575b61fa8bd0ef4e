"""Generated ortholattices with their expected verdicts taken from theory.

Every model is built from a structural description (Boolean block, horizontal
sum of Boolean blocks, product with the two-element chain, or the hexagon) and
emitted as `.olat` text under a seeded relabeling of its element indices.
The expected verdicts come from the description alone; nothing here calls
orthokit.

Theory used for the expected values (n counts elements):

* Boolean 2^k is distributive, hence modular, orthomodular and strong.  Its
  implication reduct is classical implication, whose ideals are the lattice
  filters, so the reduct of the principal filter [p, 1] = 2^(k - |p|) has
  2^(k - |p|) congruences.
* A horizontal sum of m >= 2 Boolean blocks (MO_k is the sum of k copies of
  2^2) is orthomodular, hence strong.  It is modular exactly when every block
  has height 2; a block of height >= 3 gives a pentagon 0 < a < c < 1 with an
  atom of another block.  In its reduct, x*y = y for non-extreme x, y from
  different blocks and x*0 is an orthocomplement of x; merging any non-extreme
  element with 1 then forces 0 ~ 1, so the only kernels are {1} and the whole
  carrier, and kernel injectivity leaves two congruences.  A filter [p, 1]
  with p inside block j is that block's interval, a Boolean 2^(k_j - |p|).
* For a product A x 2, every interval is the product of intervals of the
  factors, so the flags are those of A.  Ideals of a product are products of
  ideals (t1 = x0*y0 splits (a, b) into (a, 1) and (1, b), and detachment
  puts them back together), so congruence counts multiply.
* The hexagon O6 is neither modular nor orthomodular, and its intervals
  [a, 1] and [b', 1] are three-element chains, which have no complementation.
  In 2 x O6 the intervals without an orthocomplementation are therefore those
  above (c, a) and (c, b'), and `is_strong` must report the least such index.

Two input classes are left out because `is_strong` keeps the lexicographically
least orthocomplementation of [0, 1] rather than the lattice's own complement
(ROADMAP item 4), so their reducts, and the congruence counts above, depend on
the labeling: horizontal sums with two isomorphic blocks of height >= 3, whose
blocks can be swapped, and products MO_k x 2, whose whole lattice admits
orthocomplementations that are not products.  Here horizontal sums hold at
most one tall block and only Boolean lattices are multiplied by the chain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Model:
    """A finite ortholattice on elements 0..n-1 with theory-derived facts.

    `filters` maps each element p to (size of [p, 1], congruences of its
    reduct) and is empty when the lattice is not strong; `bad` lists the
    elements whose interval [p, 1] has no orthocomplementation.
    """

    name: str
    n: int
    covers: tuple[tuple[int, int], ...]
    comp: tuple[int, ...]
    modular: bool
    orthomodular: bool
    bad: frozenset[int]
    filters: tuple[tuple[int, int], ...]

    @property
    def strong(self) -> bool:
        return not self.bad


def boolean(k: int) -> Model:
    n = 1 << k
    full = n - 1
    covers = tuple((x, x | 1 << i) for x in range(n) for i in range(k) if not x >> i & 1)
    filters = tuple((1 << (k - bin(p).count("1")),) * 2 for p in range(n))
    return Model(f"bool{n}", n, covers, tuple(x ^ full for x in range(n)),
                 True, True, frozenset(), filters)


def horizontal_sum(heights: tuple[int, ...]) -> Model:
    """Boolean blocks 2^h glued at 0 and 1; element 0 is bottom, 1 is top."""
    if len(heights) < 2 or min(heights) < 2 or sum(h >= 3 for h in heights) > 1:
        raise ValueError(f"unsupported block heights {heights}")
    covers: list[tuple[int, int]] = []
    comp = {0: 1, 1: 0}
    filters = {0: None, 1: (1, 1)}
    nxt = 2
    for h in heights:
        full = (1 << h) - 1
        index = {0: 0, full: 1}
        for mask in range(1, full):
            index[mask] = nxt
            nxt += 1
        for mask in range(full + 1):
            for i in range(h):
                if not mask >> i & 1:
                    covers.append((index[mask], index[mask | 1 << i]))
        for mask in range(1, full):
            comp[index[mask]] = index[full ^ mask]
            size = 1 << (h - bin(mask).count("1"))
            filters[index[mask]] = (size, size)
    n = nxt
    filters[0] = (n, 2)
    name = "mo" + str(len(heights)) if set(heights) == {2} else "hs" + "_".join(map(str, heights))
    return Model(name, n, tuple(covers), tuple(comp[i] for i in range(n)),
                 max(heights) == 2, True, frozenset(), tuple(filters[i] for i in range(n)))


def hexagon() -> Model:
    # 0 < a < b < 1 and 0 < b' < a' < 1, indices 0, a, b, b', a', 1 as in the catalog
    return Model("o6", 6, ((0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)), (5, 4, 3, 2, 1, 0),
                 False, False, frozenset({1, 3}), ())


def times_chain2(A: Model) -> Model:
    """A x 2 with (a, c) at index 2a + c."""
    n = 2 * A.n
    covers = [(2 * a + c, 2 * b + c) for a, b in A.covers for c in (0, 1)]
    covers += [(2 * a, 2 * a + 1) for a in range(A.n)]
    comp = tuple(2 * A.comp[x >> 1] + (1 - (x & 1)) for x in range(n))
    bad = frozenset(2 * a + c for a in A.bad for c in (0, 1))
    filters = ()
    if not bad:
        filters = tuple(
            (A.filters[x >> 1][0] * (2 - (x & 1)), A.filters[x >> 1][1] * (2 - (x & 1)))
            for x in range(n)
        )
    return Model(A.name + "x2", n, tuple(covers), comp, A.modular, A.orthomodular, bad, filters)


def catalog_of_families() -> list[Model]:
    """The family members measured; n <= 16, the witness-search limit."""
    models = [boolean(k) for k in (1, 2, 3, 4)]
    models += [horizontal_sum((2,) * k) for k in range(2, 8)]
    models += [horizontal_sum((3,) + (2,) * k) for k in range(1, 5)]
    models += [times_chain2(boolean(k)) for k in (1, 2, 3)]
    models.append(times_chain2(hexagon()))
    return models


@dataclass(frozen=True)
class Relabeled:
    """A model under the permutation perm (old index -> new index)."""

    model: Model
    perm: tuple[int, ...]

    def olat(self, rng: random.Random) -> str:
        m, perm = self.model, self.perm
        lines = [f"le {perm[i]} {perm[j]}" for i, j in m.covers]
        lines += [f"comp {perm[i]} {perm[m.comp[i]]}" for i in range(m.n) if i <= m.comp[i]]
        rng.shuffle(lines)
        return "\n".join([f"# {m.name} relabeled", "olat 1", f"n {m.n}"] + lines) + "\n"

    def expected(self) -> dict:
        """Theory verdicts in the new indexing."""
        m, perm = self.model, self.perm
        inv = sorted(range(m.n), key=perm.__getitem__)
        return {
            "name": m.name,
            "n": m.n,
            "modular": m.modular,
            "orthomodular": m.orthomodular,
            "strong": m.strong,
            "failing_p": min(perm[p] for p in m.bad) if m.bad else None,
            # per filter generator p (new index): [size of [p, 1], congruences]
            "filters": [list(m.filters[inv[p]]) for p in range(m.n)] if m.strong else [],
        }


def relabel(model: Model, rng: random.Random) -> Relabeled:
    perm = list(range(model.n))
    rng.shuffle(perm)
    return Relabeled(model, tuple(perm))


def relabel_table(bullet, one: int, rng: random.Random) -> tuple[list[list[int]], int, list[int]]:
    """An isomorphic copy of an implication table; returns (rows, one, perm)."""
    n = len(bullet)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[perm[x]][perm[y]] = perm[bullet[x][y]]
    return rows, perm[one], perm


def ioa_text(rows, one: int) -> str:
    lines = ["ioa 1", f"n {len(rows)}", f"one {one}"]
    lines += [f"row {i} " + " ".join(map(str, row)) for i, row in enumerate(rows)]
    return "\n".join(lines) + "\n"
