"""Report-style results: every axiom is checked and the first counterexample kept."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"check {self.name} {status}" + (f" {self.detail}" if self.detail and not self.passed else "")


def first_witness(fails, holds: bool = False):
    """The first item of the ordered scan `fails`, or None when it yields nothing.

    Where a whole-table test has already shown that the law `holds`, the
    scan is not read at all; it only names the first counterexample.
    """
    return None if holds else next(iter(fails), None)


def first_failure(name: str, fails, holds: bool = False) -> Check:
    """A check that passes when `holds` or when `fails` yields nothing, else keeps its first item as detail."""
    first = first_witness(fails, holds)
    return Check(name, first is None, first or "")


@dataclass(frozen=True)
class CheckReport:
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class Verdict:
    """A yes/no answer with the first counterexample when the answer is no."""

    ok: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def of(cls, witness) -> "Verdict":
        """The verdict whose first counterexample is `witness`: ok when it is None, as in `first_failure`."""
        return cls(witness is None, witness)
