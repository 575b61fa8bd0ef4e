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


def first_failure(name: str, fails) -> Check:
    """A check that passes when `fails` yields nothing, else keeps its first item as detail."""
    first = next(iter(fails), None)
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
