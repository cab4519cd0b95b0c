"""Partial recursive function expressions over the naturals.

Expressions are built from six constructors: the constant-zero and
successor functions (both unary), projections, composition, primitive
recursion, and unbounded minimization.  Constants of other arities are
built by composing the unary zero with a projection.  Values are
arbitrary-precision naturals and application is call-by-value.

Partiality is made observable through fuel.  Applying any constructor
costs one fuel unit, charged before its arguments or iterations are
processed; minimization and primitive recursion pay again for every
body evaluation they trigger.  A computation that runs out of fuel
reports FuelExhausted instead of a value.  Because every way a value
can grow passes through successor applications, fuel also bounds the
magnitude of every intermediate result.

Minimization follows the strict convention: ``Mu(body)`` at arguments
``xs`` is the least k with body(xs, k) = 0 such that body(xs, i) is
defined and nonzero for every i < k.  The search proceeds from 0
upward and cannot skip a diverging candidate, which is exactly what
that side condition demands.

Two evaluators live here.  ``oracle_evaluate`` is the naive reference:
written first, structured as directly as possible, and used to audit
the main evaluator differentially.  ``evaluate`` is the one the rest of
the package calls.  They share the semantics, the fuel convention and
the argument check ``_check_call``, and deliberately no evaluation code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable


# The deepest a term may nest constructors.  ``arity`` enforces it on
# every term, parsed or built in code, before any evaluator walks it, so
# the arity check and the evaluators recurse far inside the
# interpreter's recursion limit.  The parser counts the same way.
MAX_TERM_DEPTH = 200


class RecExpr:
    """Base class for expression nodes; subclasses are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class Zero(RecExpr):
    """The unary constant zero function."""


@dataclass(frozen=True)
class Succ(RecExpr):
    """The unary successor function."""


@dataclass(frozen=True)
class Proj(RecExpr):
    """Projection: of n arguments, return the i-th (1-based)."""

    i: int
    n: int


@dataclass(frozen=True)
class Compose(RecExpr):
    """outer(inner_1(xs), ..., inner_k(xs)); all inners share the arity of xs."""

    outer: RecExpr
    inners: tuple[RecExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "inners", tuple(self.inners))


@dataclass(frozen=True)
class PrimRec(RecExpr):
    """Primitive recursion on the last argument.

    f(xs, 0) = base(xs); f(xs, y + 1) = step(xs, y, f(xs, y)).
    base has arity n, step has arity n + 2, f has arity n + 1.
    """

    base: RecExpr
    step: RecExpr


@dataclass(frozen=True)
class Mu(RecExpr):
    """Unbounded minimization over the last argument of ``body``."""

    body: RecExpr


@dataclass(frozen=True)
class FuelExhausted:
    """The computation did not finish within the granted fuel."""

    consumed: int


class ArityError(ValueError):
    """An expression is arity-inconsistent; ``path`` names the subterm."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


class NotBooleanError(ValueError):
    """A value outside {0, 1} came out of an expression flagged as a relation."""

    def __init__(self, value: int) -> None:
        super().__init__(f"characteristic value must be 0 or 1, got {value}")
        self.value = value


def arity(expr: RecExpr) -> int:
    """Number of arguments ``expr`` takes, validating the whole term.

    Raises ArityError naming the offending subterm on any mismatch:
    projection index out of range, composition width disagreement, a
    step function whose arity is not base + 2, or constructors nested
    more than ``MAX_TERM_DEPTH`` deep.
    """
    return _arity(expr, "term", 1)


def _arity(expr: RecExpr, path: str, depth: int) -> int:
    if depth > MAX_TERM_DEPTH:
        raise ArityError(path, f"term nests deeper than {MAX_TERM_DEPTH}")
    depth += 1
    t = type(expr)
    if t is Zero or t is Succ:
        return 1
    if t is Proj:
        if expr.n < 1 or not 1 <= expr.i <= expr.n:
            raise ArityError(path, f"proj {expr.i} {expr.n} is out of range")
        return expr.n
    if t is Compose:
        if not expr.inners:
            raise ArityError(path, "compose needs at least one inner function")
        outer = _arity(expr.outer, path + ".outer", depth)
        if outer != len(expr.inners):
            raise ArityError(
                path,
                f"outer arity {outer} does not match {len(expr.inners)} inner functions",
            )
        widths = [_arity(g, f"{path}.inners[{j}]", depth) for j, g in enumerate(expr.inners)]
        if len(set(widths)) != 1:
            raise ArityError(path, f"inner functions disagree on arity: {widths}")
        return widths[0]
    if t is PrimRec:
        base = _arity(expr.base, path + ".base", depth)
        step_n = _arity(expr.step, path + ".step", depth)
        if step_n != base + 2:
            raise ArityError(
                path, f"step arity {step_n} must be base arity {base} plus 2"
            )
        return base + 1
    if t is Mu:
        body = _arity(expr.body, path + ".body", depth)
        return body - 1
    raise ArityError(path, f"unknown expression node {expr!r}")


class _OutOfFuel(Exception):
    pass


def _check_call(expr: RecExpr, args: Iterable[int], fuel: int) -> tuple[int, ...]:
    """The public evaluators' one shared step: validate a call, return its arguments."""
    argv = tuple(args)
    n = arity(expr)
    if len(argv) != n:
        raise ArityError("term", f"expected {n} arguments, got {len(argv)}")
    for a in argv:
        if a < 0:
            raise ValueError(f"arguments must be naturals, got {a}")
    if fuel < 0:
        raise ValueError("fuel must be nonnegative")
    return argv


# --- reference evaluator -------------------------------------------------
#
# Kept intentionally plain: isinstance dispatch, explicit lists, no
# evaluation code shared with the evaluator below.  This is the
# yardstick, so clarity beats speed.


def oracle_evaluate(
    expr: RecExpr, args: Iterable[int], fuel: int
) -> int | FuelExhausted:
    """Naive structural evaluation with the standard fuel convention."""
    argv = _check_call(expr, args, fuel)
    tank = [fuel]

    def spend() -> None:
        if tank[0] == 0:
            raise _OutOfFuel
        tank[0] -= 1

    def ev(e: RecExpr, xs: tuple[int, ...]) -> int:
        spend()
        if isinstance(e, Zero):
            return 0
        if isinstance(e, Succ):
            return xs[0] + 1
        if isinstance(e, Proj):
            return xs[e.i - 1]
        if isinstance(e, Compose):
            values = []
            for g in e.inners:
                values.append(ev(g, xs))
            return ev(e.outer, tuple(values))
        if isinstance(e, PrimRec):
            front = xs[:-1]
            stages = [ev(e.base, front)]
            for level in range(xs[-1]):
                stages.append(ev(e.step, front + (level, stages[-1])))
            return stages[-1]
        if isinstance(e, Mu):
            candidate = 0
            while True:
                if ev(e.body, xs + (candidate,)) == 0:
                    return candidate
                candidate += 1
        raise TypeError(f"unknown expression node {e!r}")

    try:
        return ev(expr, argv)
    except _OutOfFuel:
        return FuelExhausted(consumed=fuel)


# --- main evaluator -------------------------------------------------------


def _run(
    expr: RecExpr,
    args: tuple[int, ...],
    fuel: int,
    on_mu: Callable[[RecExpr, tuple[int, ...], int], None] | None,
) -> tuple[int | None, int]:
    remaining = fuel

    def ev(e: RecExpr, xs: tuple[int, ...]) -> int:
        nonlocal remaining
        if remaining == 0:
            raise _OutOfFuel
        remaining -= 1
        t = type(e)
        if t is Proj:
            return xs[e.i - 1]
        if t is Compose:
            return ev(e.outer, tuple(ev(g, xs) for g in e.inners))
        if t is Succ:
            return xs[0] + 1
        if t is Zero:
            return 0
        if t is PrimRec:
            front = xs[:-1]
            acc = ev(e.base, front)
            for level in range(xs[-1]):
                acc = ev(e.step, front + (level, acc))
            return acc
        body = e.body
        candidate = 0
        while True:
            if ev(body, xs + (candidate,)) == 0:
                if on_mu is not None:
                    on_mu(body, xs, candidate)
                return candidate
            candidate += 1

    try:
        value = ev(expr, args)
    except _OutOfFuel:
        return None, fuel
    return value, fuel - remaining


def evaluate(
    expr: RecExpr,
    args: Iterable[int],
    fuel: int,
    on_mu: Callable[[RecExpr, tuple[int, ...], int], None] | None = None,
) -> int | FuelExhausted:
    """Evaluate ``expr`` at ``args`` within ``fuel`` units.

    Returns the value, or FuelExhausted when the budget ran dry.  The
    optional ``on_mu`` hook fires whenever a minimization returns,
    receiving (body, outer arguments, witness); audits use it to
    re-check least-witness claims from outside.
    """
    argv = _check_call(expr, args, fuel)
    value, consumed = _run(expr, argv, fuel, on_mu)
    if value is None:
        return FuelExhausted(consumed=consumed)
    return value


def evaluate_costed(
    expr: RecExpr, args: Iterable[int], fuel: int
) -> tuple[int | None, int]:
    """Like ``evaluate`` but also reports fuel spent: (value, consumed).

    A None value means exhaustion, with all granted fuel consumed.  The
    cooperative scheduler uses this to account work precisely.
    """
    argv = _check_call(expr, args, fuel)
    return _run(expr, argv, fuel, None)


def char_value(expr: RecExpr, args: Iterable[int], fuel: int) -> int | FuelExhausted:
    """Evaluate an expression flagged as a relation's characteristic function.

    By convention 0 means the relation holds and 1 means it does not.
    Any other value signals a mis-flagged expression and raises
    NotBooleanError.  Fuel exhaustion passes through untouched.
    """
    result = evaluate(expr, args, fuel)
    if isinstance(result, FuelExhausted):
        return result
    if result not in (0, 1):
        raise NotBooleanError(result)
    return result


# --- standard combinators -------------------------------------------------
#
# Small stock of everyday functions.  With no nullary expressions, the
# unary predecessor comes from a binary recursion specialized along the
# diagonal; truncated subtraction then iterates it.

ZERO = Zero()
SUCC = Succ()


def const_expr(value: int, width: int = 1) -> RecExpr:
    """The constant ``value`` as an expression of arity ``width``."""
    if value < 0:
        raise ValueError("constants are naturals")
    if width < 1:
        raise ValueError("width must be at least 1")
    expr: RecExpr = ZERO if width == 1 else Compose(ZERO, (Proj(1, width),))
    for _ in range(value):
        expr = Compose(SUCC, (expr,))
    return expr


# p2(x, y) = pred(y): p2(x, 0) = 0, p2(x, y + 1) = y
_PRED2 = PrimRec(ZERO, Proj(2, 3))
PRED = Compose(_PRED2, (Proj(1, 1), Proj(1, 1)))

# add(x, 0) = x, add(x, y + 1) = succ(add(x, y))
ADD = PrimRec(Proj(1, 1), Compose(SUCC, (Proj(3, 3),)))

# monus(x, 0) = x, monus(x, y + 1) = pred(monus(x, y))
MONUS = PrimRec(Proj(1, 1), Compose(PRED, (Proj(3, 3),)))

# mul(x, 0) = 0, mul(x, y + 1) = add(x, mul(x, y))
MUL = PrimRec(ZERO, Compose(ADD, (Proj(1, 3), Proj(3, 3))))

# sign(0) = 0, sign(y) = 1 otherwise, via s2(x, y + 1) = 1 on the diagonal
_SIGN2 = PrimRec(ZERO, const_expr(1, 3))
SIGN = Compose(_SIGN2, (Proj(1, 1), Proj(1, 1)))

# eq(x, y) = 0 when x = y, else 1: sign((x - y) + (y - x)) truncated
EQ_CHAR = Compose(
    SIGN,
    (
        Compose(
            ADD,
            (
                Compose(MONUS, (Proj(1, 2), Proj(2, 2))),
                Compose(MONUS, (Proj(2, 2), Proj(1, 2))),
            ),
        ),
    ),
)
