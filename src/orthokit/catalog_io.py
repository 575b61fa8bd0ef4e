"""Built-in models and the two text formats.

The .olat format (UTF-8, line oriented, `#` starts a comment):

    olat 1
    n <count>
    name <i> <label>     # optional
    le <i> <j>           # order generators; reflexive-transitive closure applied
    comp <i> <j>         # symmetric, must cover each element exactly once

Bottom and top are inferred from the order and checked.  The .ioa format:

    ioa 1
    n <count>
    one <i>
    row <i> v0 v1 ... v(n-1)

Both serializers are stable: parse(serialize(x)) reproduces x exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (
    OrtholatticeTable,
    OrthosemilatticeTable,
    _cover_pairs,
    as_orthosemilattice,
    lattice_from_order,
    restrict_to_filter,
    validate_poset,
)
from .errors import BadIndex, MissingComplement, ParseError, RangeError
from .implication import ImplicationTable, derive_bullet


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # "ortholattice" | "orthosemilattice" | "implication"
    payload: object
    note: str


# ---------------------------------------------------------------------------
# parsing and serialization


def _directives(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _int(tok: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected an integer, got {tok!r}", lineno) from None


def _index(tok: str, n: int, lineno: int) -> int:
    v = _int(tok, lineno)
    if not 0 <= v < n:
        raise RangeError(f"index {v} out of range 0..{n - 1}", lineno)
    return v


def _body(text: str, fmt: str):
    """Check the header '<fmt> 1' and the n line that must come next; yield n,
    then every later directive as (lineno, tokens) in line order."""
    lines = _directives(text)
    first = next(lines, None)
    if first is None:
        raise ParseError("empty input", 1)
    if first[1] != [fmt, "1"]:
        raise ParseError(f"expected header '{fmt} 1'", first[0])
    n = None
    for lineno, toks in lines:
        if toks[0] == "n":
            if n is not None:
                raise ParseError("duplicate n line", lineno)
            if len(toks) != 2:
                raise ParseError("usage: n <count>", lineno)
            n = _int(toks[1], lineno)
            if n < 1:
                raise RangeError("n must be at least 1", lineno)
            yield n
        elif n is None:
            raise ParseError(f"'{toks[0]}' line before the n line", lineno)
        else:
            yield lineno, toks
    if n is None:
        raise ParseError("missing n line", 1)


def parse_olat(text: str) -> OrtholatticeTable:
    body = _body(text, "olat")
    n = next(body)
    le_pairs: list[tuple[int, int]] = []
    comp: list[int | None] = [None] * n
    names: list[str] | None = None
    for lineno, toks in body:
        key = toks[0]
        if key == "name":
            if len(toks) != 3:
                raise ParseError("usage: name <i> <label>", lineno)
            if names is None:
                names = [str(i) for i in range(n)]
            names[_index(toks[1], n, lineno)] = toks[2]
        elif key == "le":
            if len(toks) != 3:
                raise ParseError("usage: le <i> <j>", lineno)
            le_pairs.append((_index(toks[1], n, lineno), _index(toks[2], n, lineno)))
        elif key == "comp":
            if len(toks) != 3:
                raise ParseError("usage: comp <i> <j>", lineno)
            i = _index(toks[1], n, lineno)
            j = _index(toks[2], n, lineno)
            for a, b in ((i, j), (j, i)):
                if comp[a] is not None and comp[a] != b:
                    raise ParseError(f"element {a} complemented twice", lineno)
                comp[a] = b
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    for i, c in enumerate(comp):
        if c is None:
            raise MissingComplement(i)
    return ortholattice_from_covers(n, le_pairs, enumerate(comp), names)


def serialize_olat(L: OrtholatticeTable) -> str:
    lines = ["olat 1", f"n {L.n}"]
    if L.names:
        lines += [f"name {i} {L.names[i]}" for i in range(L.n)]
    lines += [f"le {i} {j}" for i, j in _cover_pairs(L.poset().leq)]
    done = set()
    for i in range(L.n):
        j = L.comp[i]
        if (j, i) not in done:
            lines.append(f"comp {i} {j}")
            done.add((i, j))
    return "\n".join(lines) + "\n"


def parse_ioa(text: str) -> ImplicationTable:
    body = _body(text, "ioa")
    n = next(body)
    one = None
    rows: list[tuple[int, ...] | None] = [None] * n
    for lineno, toks in body:
        key = toks[0]
        if key == "one":
            if one is not None:
                raise ParseError("duplicate one line", lineno)
            if len(toks) != 2:
                raise ParseError("usage: one <i>", lineno)
            one = _index(toks[1], n, lineno)
        elif key == "row":
            if len(toks) != n + 2:
                raise ParseError(f"row needs {n} values, got {len(toks) - 2}", lineno)
            i = _index(toks[1], n, lineno)
            if rows[i] is not None:
                raise ParseError(f"duplicate row {i}", lineno)
            rows[i] = tuple(_index(tok, n, lineno) for tok in toks[2:])
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    if one is None:
        raise ParseError("missing one line", 1)
    for i, row in enumerate(rows):
        if row is None:
            raise ParseError(f"missing row {i}", 1)
    return ImplicationTable(n=n, bullet=tuple(rows), one=one)


def serialize_ioa(T: ImplicationTable) -> str:
    lines = ["ioa 1", f"n {T.n}", f"one {T.one}"]
    lines += [f"row {i} " + " ".join(str(v) for v in T.bullet[i]) for i in range(T.n)]
    return "\n".join(lines) + "\n"


def sniff_format(text: str) -> str:
    """'olat' or 'ioa' according to the header line."""
    _, toks = next(_directives(text), (1, [None]))
    if toks[0] in ("olat", "ioa"):
        return toks[0]
    raise ParseError("unrecognized header; expected 'olat 1' or 'ioa 1'", 1)


# ---------------------------------------------------------------------------
# built-in models


def ortholattice_from_covers(n, covers, comp_pairs, names=None) -> OrtholatticeTable:
    """Close the order generators reflexively and transitively, by Warshall on up-set bitsets,
    then tabulate the lattice.

    Raises BadIndex for a complement pair outside 0..n-1, before any is
    recorded, and MissingComplement for the least element no pair covers.
    """
    up = [1 << i for i in range(n)]
    for i, j in covers:
        if not (0 <= i < n and 0 <= j < n):
            raise BadIndex((i, j), n)
        up[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    join, meet, bot, top = lattice_from_order(validate_poset([[u >> j & 1 for j in range(n)] for u in up]))
    comp_pairs = list(comp_pairs)
    for i, j in comp_pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise BadIndex((i, j), n)
    comp = [None] * n
    for i, j in comp_pairs:
        comp[i] = j
        comp[j] = i
    if None in comp:
        raise MissingComplement(comp.index(None))
    return OrtholatticeTable(
        n=n, join=join, meet=meet, comp=tuple(comp), bot=bot, top=top,
        names=tuple(names) if names else None,
    )


def boolean_lattice(k: int, names=None) -> OrtholatticeTable:
    """The Boolean lattice 2^k on bitmask indices; complement is bit flip."""
    n = 1 << k
    full = n - 1
    join = tuple(tuple(x | y for y in range(n)) for x in range(n))
    meet = tuple(tuple(x & y for y in range(n)) for x in range(n))
    comp = tuple(x ^ full for x in range(n))
    return OrtholatticeTable(
        n=n, join=join, meet=meet, comp=comp, bot=0, top=full,
        names=tuple(names) if names else None,
    )


def _mo2() -> OrtholatticeTable:
    # four pairwise incomparable elements, each both atom and coatom
    covers = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 5), (4, 5)]
    comp_pairs = [(0, 5), (1, 2), (3, 4)]
    return ortholattice_from_covers(6, covers, comp_pairs, names=("0", "a", "a'", "b", "b'", "1"))


def _fig1_o6() -> OrtholatticeTable:
    # hexagon: 0 < a < b < 1 and 0 < b' < a' < 1, complements 0-1, a-a', b-b'
    names = ("0", "a", "b", "b'", "a'", "1")
    covers = [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)]
    comp_pairs = [(0, 5), (1, 4), (2, 3)]
    return ortholattice_from_covers(6, covers, comp_pairs, names=names)


def _fig2_strong12() -> OrtholatticeTable:
    # 12 elements: bottom, five atoms e a b d c, five coatoms, top
    names = ("0", "e", "a", "b", "d", "c", "c'", "d'", "b'", "a'", "e'", "1")
    covers = [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
        (1, 6), (1, 7),      # e < c', e < d'
        (2, 6), (2, 8),      # a < c', a < b'
        (3, 7), (3, 9),      # b < d', b < a'
        (4, 8), (4, 10),     # d < b', d < e'
        (5, 9), (5, 10),     # c < a', c < e'
        (6, 11), (7, 11), (8, 11), (9, 11), (10, 11),
    ]
    comp_pairs = [(0, 11), (1, 10), (2, 9), (3, 8), (4, 7), (5, 6)]
    return ortholattice_from_covers(12, covers, comp_pairs, names=names)


@lru_cache(maxsize=1)
def catalog() -> tuple[CatalogEntry, ...]:
    """The built-in models, identical across runs.

    Ortholattices come first, then orthosemilattices, then the derived
    implication reducts of every strong entry and of the filter entry.
    """
    chain2 = boolean_lattice(1, ("0", "1"))
    bool4 = boolean_lattice(2, ("0", "a", "a'", "1"))
    bool8 = boolean_lattice(3, ("0", "a", "b", "ab", "c", "ac", "bc", "1"))
    mo2 = _mo2()
    fig1 = _fig1_o6()
    fig2 = _fig2_strong12()

    entries = [
        CatalogEntry("chain2", "ortholattice", chain2, "two-element chain"),
        CatalogEntry("bool4", "ortholattice", bool4, "Boolean lattice with two atoms"),
        CatalogEntry("bool8", "ortholattice", bool8, "Boolean lattice with three atoms"),
        CatalogEntry("mo2", "ortholattice", mo2, "orthomodular; four incomparable atoms-coatoms"),
        CatalogEntry("fig1_o6", "ortholattice", fig1,
                     "hexagon on which comp(x) v y degenerates; not strong"),
        CatalogEntry("fig2_strong12", "ortholattice", fig2,
                     "12-element strong ortholattice, neither modular nor orthomodular"),
    ]

    semis = {name: as_orthosemilattice(L)
             for name, L in [("chain2", chain2), ("bool4", bool4), ("bool8", bool8),
                             ("mo2", mo2), ("fig2_strong12", fig2)]}
    fig2_full = semis["fig2_strong12"]
    fig2_no0 = restrict_to_filter(fig2_full, range(1, 12))
    entries.append(CatalogEntry(
        "fig2_filter_no0", "orthosemilattice", fig2_no0,
        "the 12-element strong ortholattice minus its bottom; no global meets",
    ))

    reducts = [
        ("chain2_reduct", semis["chain2"], "implication reduct of the two-element chain"),
        ("bool4_reduct", semis["bool4"], "classical implication on the four-element Boolean lattice"),
        ("bool8_reduct", semis["bool8"], "classical implication on the eight-element Boolean lattice"),
        ("mo2_reduct", semis["mo2"], "implication reduct of mo2"),
        ("fig2_reduct", fig2_full, "implication reduct of the 12-element strong ortholattice"),
        ("fig2_filter_no0_reduct", fig2_no0, "implication reduct of the bottomless filter"),
    ]
    for name, S, note in reducts:
        entries.append(CatalogEntry(name, "implication", derive_bullet(S), note))
    return tuple(entries)


def catalog_names() -> tuple[str, ...]:
    return tuple(e.name for e in catalog())


def entry(name: str) -> CatalogEntry:
    for e in catalog():
        if e.name == name:
            return e
    raise KeyError(f"no catalog entry named {name!r}; known: {', '.join(catalog_names())}")


@lru_cache(maxsize=None)
def semilattice(name: str) -> OrthosemilatticeTable:
    """The orthosemilattice view of a strong ortholattice or semilattice entry."""
    e = entry(name)
    if e.kind == "orthosemilattice":
        return e.payload
    if e.kind == "ortholattice":
        return as_orthosemilattice(e.payload)
    raise KeyError(f"entry {name!r} is an implication table, not a semilattice")
