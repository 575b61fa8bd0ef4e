"""Exception types raised by table validators, searches, and parsers."""

from __future__ import annotations


class AlgebraError(Exception):
    """Structural defect in a finite algebra table or its inputs."""


class BadIndex(AlgebraError):
    def __init__(self, value, n):
        super().__init__(f"index {value!r} out of range for carrier of size {n}")
        self.value = value
        self.n = n


class NotReflexive(AlgebraError):
    def __init__(self, i):
        super().__init__(f"relation not reflexive at {i}")
        self.element = i


class NotAntisymmetric(AlgebraError):
    def __init__(self, i, j):
        super().__init__(f"relation not antisymmetric: {i} <= {j} and {j} <= {i}")
        self.pair = (i, j)


class NotTransitive(AlgebraError):
    def __init__(self, i, j, k):
        super().__init__(f"relation not transitive: {i} <= {j} <= {k} but not {i} <= {k}")
        self.triple = (i, j, k)


class NoBottom(AlgebraError):
    def __init__(self):
        super().__init__("order has no least element")


class NoTop(AlgebraError):
    def __init__(self):
        super().__init__("order has no greatest element")


class NoJoin(AlgebraError):
    def __init__(self, i, j):
        super().__init__(f"elements {i} and {j} have no least upper bound")
        self.pair = (i, j)


class NoMeet(AlgebraError):
    def __init__(self, i, j):
        super().__init__(f"elements {i} and {j} have no greatest lower bound")
        self.pair = (i, j)


class TooLarge(AlgebraError):
    def __init__(self, n, limit, what="carrier size"):
        super().__init__(f"{what} {n} exceeds limit {limit} for this operation")
        self.n = n
        self.limit = limit


class WitnessNotFound(AlgebraError):
    """No orthocomplementation of the interval [p, 1] exists."""

    def __init__(self, p, element):
        super().__init__(f"interval [{p}, 1] admits no orthocomplementation; stuck at element {element}")
        self.p = p
        self.element = element


class NotStrong(AlgebraError):
    def __init__(self, failing_p):
        super().__init__(f"interval [{failing_p}, 1] is not an ortholattice")
        self.failing_p = failing_p


class NotUpwardClosed(AlgebraError):
    def __init__(self, i, j):
        super().__init__(f"set contains {i} but not {j} >= {i}")
        self.pair = (i, j)


class MissingWitness(AlgebraError):
    def __init__(self, p):
        super().__init__(f"no interval orthocomplementation stored for p={p}")
        self.p = p


class NotAnOrder(AlgebraError):
    """The relation x <= y iff x*y = 1 failed to be a partial order with top."""

    def __init__(self, detail):
        super().__init__(f"induced relation is not an order with greatest element: {detail}")
        self.detail = detail


class NotAJoin(AlgebraError):
    def __init__(self, i, j):
        super().__init__(f"(x*y)*y is not the least upper bound of {i} and {j}")
        self.pair = (i, j)


class OutOfInterval(AlgebraError):
    def __init__(self, p, a):
        super().__init__(f"element {a} is not in the interval [{p}, 1]")
        self.p = p
        self.element = a


class NotImplicationAlgebra(AlgebraError):
    """A construction that needs the defining identities got a table failing them."""

    def __init__(self, report):
        failed = ", ".join(c.name for c in report.failures())
        super().__init__(f"table is not an implication orthoalgebra (failed: {failed})")
        self.report = report


class MissingOne(AlgebraError):
    def __init__(self):
        super().__init__("subset does not contain the constant 1")


class NotD1(AlgebraError):
    def __init__(self, counterexample):
        super().__init__(f"subset violates closure rule D1 at {counterexample}")
        self.counterexample = counterexample


class NotD2(AlgebraError):
    def __init__(self, counterexample):
        super().__init__(f"subset violates closure rule D2 at {counterexample}")
        self.counterexample = counterexample


class InconsistentTable(AlgebraError):
    """Internal failure: a subset passed D1 and D2, yet the congruence rebuilt from it is wrong."""

    def __init__(self, detail):
        super().__init__(f"{detail}; input table is corrupt")


class ArityMismatch(AlgebraError):
    def __init__(self, detail):
        super().__init__(f"arity mismatch: {detail}")


class ParseError(Exception):
    """Syntax error in a text input; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is None:
            super().__init__(message)
        else:
            super().__init__(f"line {line}: {message}")


class MissingComplement(ParseError):
    def __init__(self, element):
        super().__init__(f"no comp line covers element {element}")
        self.element = element


class RangeError(ParseError):
    """A number in a text input is outside its allowed range."""
