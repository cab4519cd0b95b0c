"""Checkable certificates that an expression is nowhere zero.

A Statement fixes all but the last argument of an expression G and
claims: for every value y of that last argument, G(fixed, y) is nonzero
wherever it converges.  A Certificate is a small derivation tree whose
validity ``check_certificate`` decides outright — no search, no
unbounded evaluation, malformed input simply checks false.

The rule set is deliberately weak.  Each rule is sound, and together
they certify only statements whose nonzero-ness is visible in the term
structure:

* ``succ_head``: G is the successor, or a composition headed by it.
* ``const_nonzero``: G provably ignores the quantified argument (a
  conservative dependence analysis shows the last position is never
  read), and a single bounded evaluation at y = 0 yields nonzero.
* ``sum_left`` / ``sum_right``: G composes the stock addition with two
  arguments and the named summand is certified nonzero by the child.
* ``product``: G composes the stock multiplication with two arguments
  and both factors are certified nonzero by the children.

True statements with no certificate are entirely normal here (any
nonzero function whose head is, say, truncated subtraction); the
cooperative searcher treats that as one more way to come up empty.

Enumeration of candidate certificates is deterministic: trees come out
in increasing node count, and within one size in lexicographic order of
rule tags, children ordered recursively the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .recfun import (
    ADD,
    Compose,
    FuelExhausted,
    MUL,
    Proj,
    RecExpr,
    Succ,
    Zero,
    arity,
    evaluate,
)

RULE_ARITY = {
    "const_nonzero": 0,
    "product": 2,
    "succ_head": 0,
    "sum_left": 1,
    "sum_right": 1,
}

_RULE_ORDER = sorted(RULE_ARITY)

# One bounded evaluation backs the const_nonzero rule; a fixed budget
# keeps the checker total regardless of the subject expression.
CONST_CHECK_FUEL = 100_000


@dataclass(frozen=True)
class Statement:
    """``subject`` at ``fixed_args`` plus one quantified trailing argument."""

    subject: RecExpr
    fixed_args: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "fixed_args", tuple(self.fixed_args))
        n = arity(self.subject)
        if n != len(self.fixed_args) + 1:
            raise ValueError(
                f"subject arity {n} does not leave exactly one quantified argument"
                f" after {len(self.fixed_args)} fixed ones"
            )


@dataclass(frozen=True)
class Certificate:
    """A rule tag with as many child certificates as the rule demands."""

    rule: str
    children: tuple["Certificate", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))

    @property
    def size(self) -> int:
        return 1 + sum(child.size for child in self.children)

    def compact(self) -> str:
        """Single-token rendering for reports, e.g. ``sum_left(succ_head)``."""
        if not self.children:
            return self.rule
        return f"{self.rule}({','.join(c.compact() for c in self.children)})"


def _depends(expr: RecExpr, n: int, seen: dict[int, frozenset[int]]) -> frozenset[int]:
    """Conservative set of argument positions (1-based) the term may read.

    ``expr`` is a validated term of arity ``n``.  Projections read
    exactly one position; composition translates the outer function's
    demands through the inner ones; recursion and minimization are
    treated as reading everything.  Positions outside the result provably
    never influence the value or the convergence of the term.  A node's
    arity comes from its parent (an outer takes one argument per inner,
    each inner takes the composition's ``n``), so nothing is validated
    again.  ``seen`` (start it empty) holds the answer for each node already
    analysed, by identity, so a subterm shared by reference costs one
    visit however often it is inlined.
    """
    out = seen.get(id(expr))
    if out is not None:
        return out
    t = type(expr)
    if t is Zero:
        out = frozenset()
    elif t is Succ:
        out = frozenset((1,))
    elif t is Proj:
        out = frozenset((expr.i,))
    elif t is Compose:
        needed = _depends(expr.outer, len(expr.inners), seen)
        out = frozenset().union(*[_depends(expr.inners[j - 1], n, seen) for j in needed])
    else:
        out = frozenset(range(1, n + 1))
    seen[id(expr)] = out
    return out


def check_certificate(cert: Certificate, stmt: Statement) -> bool:
    """Decide whether ``cert`` establishes ``stmt``.  Total and bounded.

    Every structural defect — unknown rule, wrong child count, a rule
    applied to a subject of the wrong shape — returns False rather than
    raising.  The work is proportional to the certificate size, with the
    one fixed-fuel evaluation backing const_nonzero leaves.
    """
    return isinstance(stmt, Statement) and _check(cert, stmt.subject, stmt.fixed_args)


def _check(cert: Certificate, subject: RecExpr, fixed_args: tuple[int, ...]) -> bool:
    """``check_certificate`` on a subject already validated with arity
    ``len(fixed_args) + 1``.  A child's subject is an inner of the
    subject's composition, so it has that arity too and is not
    validated again."""
    if not isinstance(cert, Certificate):
        return False
    expected = RULE_ARITY.get(cert.rule)
    if expected is None or len(cert.children) != expected:
        return False
    if cert.rule == "succ_head":
        if type(subject) is Succ:
            return True
        return type(subject) is Compose and type(subject.outer) is Succ
    if cert.rule == "const_nonzero":
        quantified = len(fixed_args) + 1
        if quantified in _depends(subject, quantified, {}):
            return False
        value = evaluate(subject, fixed_args + (0,), CONST_CHECK_FUEL)
        return not isinstance(value, FuelExhausted) and value != 0
    if cert.rule in ("sum_left", "sum_right"):
        if type(subject) is not Compose or subject.outer != ADD or len(subject.inners) != 2:
            return False
        picked = subject.inners[0 if cert.rule == "sum_left" else 1]
        return _check(cert.children[0], picked, fixed_args)
    if cert.rule == "product":
        if type(subject) is not Compose or subject.outer != MUL or len(subject.inners) != 2:
            return False
        pairs = zip(cert.children, subject.inners)
        return all(_check(child, inner, fixed_args) for child, inner in pairs)
    return False


def enumerate_certificates(stmt: Statement, max_size: int) -> Iterator[Certificate]:
    """Yield every well-formed certificate of at most ``max_size`` nodes.

    Well-formed means each rule carries its declared number of children;
    whether a tree actually establishes ``stmt`` is the checker's
    business.  The order is canonical (size, then rule tags), each tree
    appears exactly once, and the sequence is finite.
    """
    if max_size < 0:
        raise ValueError("max_size must be nonnegative")
    by_size: dict[int, list[Certificate]] = {}

    def of_size(size: int) -> list[Certificate]:
        cached = by_size.get(size)
        if cached is not None:
            return cached
        out: list[Certificate] = []
        for rule in _RULE_ORDER:
            places = RULE_ARITY[rule]
            if places == 0:
                if size == 1:
                    out.append(Certificate(rule))
            elif places == 1:
                if size >= 2:
                    out.extend(Certificate(rule, (child,)) for child in of_size(size - 1))
            else:
                for left_size in range(1, size - 1):
                    for left in of_size(left_size):
                        for right in of_size(size - 1 - left_size):
                            out.append(Certificate(rule, (left, right)))
        by_size[size] = out
        return out

    for size in range(1, max_size + 1):
        yield from of_size(size)
