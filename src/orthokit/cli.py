"""Command line front end.

Exit codes: 0 when every check passed, 1 when some property check failed,
2 on input or usage errors.  Output is deterministic for identical
invocations and ends with a machine-readable summary line

    RESULT <pass|fail> checks=<k> failures=<m>
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import catalog_io as cat
from . import congruence as cong
from . import terms as tms
from . import verify
from .core import (
    as_orthosemilattice,
    is_strong,
    restrict_to_filter,
    validate_ortholattice,
    validate_orthosemilattice,
)
from .errors import AlgebraError, ParseError
from .implication import check_ioa_identities, derive_bullet
from .report import Check


class UsageError(Exception):
    pass


def _load(args) -> cat.CatalogEntry:
    """Resolve --catalog or a path into a CatalogEntry-shaped bundle."""
    if getattr(args, "catalog", None):
        try:
            return cat.entry(args.catalog)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from exc
    if not getattr(args, "path", None):
        raise UsageError("give an input file or --catalog <name>")
    path = Path(args.path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    kind = cat.sniff_format(text)
    if kind == "olat":
        return cat.CatalogEntry(path.name, "ortholattice", cat.parse_olat(text), "file input")
    return cat.CatalogEntry(path.name, "implication", cat.parse_ioa(text), "file input")


def _require_reduct(entry: cat.CatalogEntry):
    if entry.kind != "implication":
        raise UsageError(f"{entry.name} is not an implication table (.ioa input expected)")
    T = entry.payload
    rep = check_ioa_identities(T)
    if not rep.ok:
        raise UsageError(
            f"{entry.name} does not satisfy the implication-orthoalgebra identities: "
            + ", ".join(c.name for c in rep.failures())
        )
    return T


def _fmt_set(T, members) -> str:
    return "{" + ",".join(T.label(x) for x in sorted(members)) + "}"


def _fmt_partition(T, P) -> str:
    return " | ".join(",".join(T.label(x) for x in block) for block in P.blocks())


def cmd_validate(args) -> list[str | Check]:
    entry = _load(args)
    out: list[str | Check] = [f"command: validate {entry.name}"]
    if entry.kind == "ortholattice":
        out += validate_ortholattice(entry.payload).checks
        if args.strong:
            result = is_strong(entry.payload)
            detail = "" if result else f"first failing interval p={entry.payload.label(result.failing_p)}"
            out.append(Check("strong", bool(result), detail))
    elif entry.kind == "orthosemilattice":
        out += validate_orthosemilattice(entry.payload).checks
    else:
        out += check_ioa_identities(entry.payload).checks
    return out


def cmd_derive(args) -> list[str | Check]:
    entry = _load(args)
    out: list[str | Check] = [f"command: derive {entry.name}"]
    if entry.kind == "implication":
        raise UsageError(f"{entry.name} is already an implication table")
    if entry.kind == "ortholattice":
        result = is_strong(entry.payload)
        if not result:
            out.append(Check("strong", False, f"first failing interval p={entry.payload.label(result.failing_p)}"))
            return out
        out.append(Check("strong", True))
        S = as_orthosemilattice(entry.payload, result.witnesses)
    else:
        S = entry.payload
    if args.filter is not None:
        if not 0 <= args.filter < S.n:
            raise UsageError(f"--filter index {args.filter} out of range 0..{S.n - 1}")
        members = [x for x in range(S.n) if S.le(args.filter, x)]
        S = restrict_to_filter(S, members)
        out.append(f"info filter p={args.filter} keeps {S.n} elements")
    T = derive_bullet(S)
    out += check_ioa_identities(T).checks
    text = cat.serialize_ioa(T)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
        out.append(f"info wrote {args.out}")
    else:
        out.append(text.rstrip("\n"))
    return out


def cmd_congruences(args) -> list[str | Check]:
    entry = _load(args)
    T = _require_reduct(entry)
    out: list[str | Check] = [f"command: congruences {entry.name} method={args.method}"]
    brute = closure = None
    if args.method != "closure" or T.n <= cong.BRUTE_FORCE_LIMIT:
        brute = cong.all_congruences_bruteforce(T)
    if args.method in ("closure", "both"):
        closure = cong.congruence_lattice(T)
    listed = closure if closure is not None else brute
    for i, P in enumerate(listed):
        out.append(f"congruence {i}: {_fmt_partition(T, P)} kernel={_fmt_set(T, cong.kernel(T, P).members)}")
    if args.method == "both":
        out.append(Check("methods-agree", set(brute) == set(closure),
                         f"brute={len(brute)} closure={len(closure)}"))
    if T.n <= cong.BRUTE_FORCE_LIMIT:
        out.append(Check("kernel-map-injective", next(cong.kernel_collisions(T, brute), None) is None))
    else:
        kernels = {cong.kernel(T, P).members for P in listed}
        out.append(Check("kernels-distinct", len(kernels) == len(listed)))
    return out


def cmd_ideals(args) -> list[str | Check]:
    entry = _load(args)
    T = _require_reduct(entry)
    if args.term is None and not args.check and not args.enumerate:
        raise UsageError("give one of --check, --enumerate, --term")
    out: list[str | Check] = [f"command: ideals {entry.name}"]

    if args.term is not None:
        try:
            term = tms.parse_term(args.term)
        except ParseError as exc:
            raise UsageError(f"bad term: {exc}") from exc
        v = tms.is_ideal_term(T, term)
        out.append(Check("ideal-term", v.ok, "" if v.ok else f"fails at x-assignment {v.witness}"))
        if args.check and v.ok:
            D = _parse_subset(args.check, T)
            cv = tms.closed_under_term(T, D, term)
            out.append(Check("subset-closed-under-term", cv.ok, "" if cv.ok else f"witness {cv.witness}"))

    if args.check and args.term is None:
        D = _parse_subset(args.check, T)
        d1 = cong.check_d1(T, D)
        d2 = cong.check_d2(T, D)
        rules = d1.ok and d2.ok
        out.append(f"info D1 {'holds' if d1.ok else f'fails at {d1.witness}'}")
        out.append(f"info D2 {'holds' if d2.ok else f'fails at {d2.witness}'}")
        terms_verdict = tms.is_ideal_by_terms(T, D)
        out.append("info t1..t6 closure "
                   + ("holds" if terms_verdict.ok else f"fails at {terms_verdict.witness[0]}"))
        # theta_from_kernel raises unless it returns a congruence with kernel D
        try:
            theta = _fmt_partition(T, cong.theta_from_kernel(T, D))
        except AlgebraError:
            theta = None
        theta_ok = theta is not None
        out.append(f"info congruence from subset: {theta or 'none'}")
        out.append(Check("verdicts-agree", rules == terms_verdict.ok == theta_ok,
                         f"rules={rules} terms={terms_verdict.ok} congruence={theta_ok}"))
        out.append(f"info ideal: {'yes' if terms_verdict.ok else 'no'}")

    if args.enumerate:
        kernels = verify._kernel_order(cong.kernel(T, P).members for P in cong.congruence_lattice(T))
        for i, K in enumerate(kernels):
            out.append(f"ideal {i}: {_fmt_set(T, K)}")
        if T.n <= verify.SWEEP_LIMIT:
            subsets = list(cong.subsets_with_one(T))
            closed = verify._builtin_verdicts(T, subsets).values()
            swept = [D for D, *oks in zip(subsets, *closed) if all(oks)]
            out.append(Check("ideals-match-kernels", set(swept) == set(kernels),
                             f"swept={len(swept)} kernels={len(kernels)}"))
    return out


def _parse_subset(raw: str, T) -> frozenset[int]:
    try:
        values = frozenset(int(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise UsageError(f"bad subset {raw!r}: comma-separated indices expected") from exc
    for v in values:
        if not 0 <= v < T.n:
            raise UsageError(f"subset index {v} out of range 0..{T.n - 1}")
    if T.one not in values:
        raise UsageError(f"subset must contain the constant 1 (index {T.one})")
    return values


def cmd_verify_theorems(args) -> list[str | Check]:
    if args.all:
        return [f"command: verify-theorems --all seed={args.seed}", *verify.all_checks(seed=args.seed)]
    entry = _load(args)
    return [f"command: verify-theorems {entry.name} seed={args.seed}", *verify.entry_checks(entry, seed=args.seed)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orthokit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("path", nargs="?", help="input .olat or .ioa file")
        p.add_argument("--catalog", help="built-in model name instead of a file")

    p = sub.add_parser("validate", help="run the validator for the input kind")
    add_input(p)
    p.add_argument("--strong", action="store_true", help="also decide strongness (.olat only)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("derive", help="derive the implication reduct of a strong input")
    add_input(p)
    p.add_argument("--filter", type=int, default=None, metavar="P",
                   help="restrict to the order filter generated by element P")
    p.add_argument("--out", help="write the derived .ioa here instead of stdout")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("congruences", help="enumerate congruences and kernels")
    add_input(p)
    p.add_argument("--method", choices=("brute", "closure", "both"), default="closure")
    p.set_defaults(func=cmd_congruences)

    p = sub.add_parser("ideals", help="ideal checks on an implication table")
    add_input(p)
    p.add_argument("--check", metavar="I,J,K", help="test one subset (indices, must contain 1)")
    p.add_argument("--enumerate", action="store_true", help="list all ideals")
    p.add_argument("--term", metavar="SEXPR", help="test a term like '(b x0 y0)'")
    p.set_defaults(func=cmd_ideals)

    p = sub.add_parser("verify-theorems", help="run the whole verification suite")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("path", nargs="?", help="input .olat or .ioa file")
    group.add_argument("--catalog", help="one built-in model")
    group.add_argument("--all", action="store_true", help="every built-in model")
    p.add_argument("--seed", type=int, default=0, help="seed for the random ideal terms")
    p.set_defaults(func=cmd_verify_theorems)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        out = args.func(args)
    except (UsageError, ParseError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checks = [c for c in out if isinstance(c, Check)]
    failures = sum(not c.passed for c in checks)
    lines = [c.line() if isinstance(c, Check) else c for c in out]
    lines.append(f"RESULT {'fail' if failures else 'pass'} checks={len(checks)} failures={failures}")
    print("\n".join(lines))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
