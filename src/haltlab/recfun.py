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
the package calls: it compiles the term to one closure per node and runs
that.  A primitive recursion whose step is a bare projection, as every
``pred`` is, charges its y step units at once instead of looping, with
the value and fuel of the loop.  Two shapes compile to one closure
instead of one per node, charged what those nodes would be: a
composition over k projections (1 + k units) and a recursion whose step
is ``compose f (proj n n)``, which reads only the accumulator (a loop
``acc = f(acc)`` at 2 units per level).  A ``CompiledTerm`` keeps the
validated, compiled term for a caller that evaluates one term many
times, such as the trio's value search; ``evaluate_costed`` accepts it
in place of a term.  The two evaluators share the semantics, the fuel
convention and the argument check ``_check_args``, and deliberately no
evaluation code.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
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


def arity(expr: RecExpr) -> int:
    """Number of arguments ``expr`` takes, validating the whole term.

    Raises ArityError naming the offending subterm on any mismatch:
    projection index out of range, composition width disagreement, a
    step function whose arity is not base + 2, or constructors nested
    more than ``MAX_TERM_DEPTH`` deep.  A subterm shared by reference, as
    a definition inlined by name is, is validated once per depth it is
    met at, so the work follows the distinct nodes, not the unfolded tree.
    """
    return _arity(expr, "term", 1, {})


def _arity(expr: RecExpr, path: str, depth: int, seen: dict[tuple[int, int], int]) -> int:
    """The arity of ``expr`` met ``depth`` constructors deep at ``path``.

    ``seen`` holds the arity of each composite node already validated,
    by (identity, depth): the depth bound makes the answer depend on the
    depth, and a node met again at a depth it passed at passes again.
    """
    if depth > MAX_TERM_DEPTH:
        raise ArityError(path, f"term nests deeper than {MAX_TERM_DEPTH}")
    t = type(expr)
    if t is Zero or t is Succ:
        return 1
    if t is Proj:
        if expr.n < 1 or not 1 <= expr.i <= expr.n:
            raise ArityError(path, f"proj {expr.i} {expr.n} is out of range")
        return expr.n
    key = (id(expr), depth)
    n = seen.get(key)
    if n is None:
        n = seen[key] = _composite_arity(expr, path, depth + 1, seen)
    return n


def _composite_arity(expr: RecExpr, path: str, depth: int, seen: dict[tuple[int, int], int]) -> int:
    """``_arity`` of a node that is not a leaf; its subterms sit ``depth`` deep."""
    t = type(expr)
    if t is Compose:
        if not expr.inners:
            raise ArityError(path, "compose needs at least one inner function")
        outer = _arity(expr.outer, path + ".outer", depth, seen)
        if outer != len(expr.inners):
            raise ArityError(
                path,
                f"outer arity {outer} does not match {len(expr.inners)} inner functions",
            )
        widths = [_arity(g, f"{path}.inners[{j}]", depth, seen) for j, g in enumerate(expr.inners)]
        if len(set(widths)) != 1:
            raise ArityError(path, f"inner functions disagree on arity: {widths}")
        return widths[0]
    if t is PrimRec:
        base = _arity(expr.base, path + ".base", depth, seen)
        step_n = _arity(expr.step, path + ".step", depth, seen)
        if step_n != base + 2:
            raise ArityError(
                path, f"step arity {step_n} must be base arity {base} plus 2"
            )
        return base + 1
    if t is Mu:
        body = _arity(expr.body, path + ".body", depth, seen)
        return body - 1
    raise ArityError(path, f"unknown expression node {expr!r}")


class _OutOfFuel(Exception):
    pass


def _check_args(n: int, args: Iterable[int], fuel: int) -> tuple[int, ...]:
    """Check a call of a term of arity ``n``, validated by ``arity``; return the arguments."""
    argv = tuple(args)
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
    argv = _check_args(arity(expr), args, fuel)
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
#
# A term is compiled once into one closure per node, or per fused shape
# (see ``_compile``).  The closures share the fuel counter of their
# compilation, so a compiled term runs one evaluation at a time.


def _reads_only_the_accumulator(step: RecExpr) -> bool:
    """Whether a validated recursion step is ``compose f (proj n n)``: f
    of the accumulator, the last of the step's n arguments."""
    if type(step) is not Compose or len(step.inners) != 1:
        return False
    (g,) = step.inners
    return type(g) is Proj and g.i == g.n


def _compile(
    expr: RecExpr,
    on_mu: Callable[[RecExpr, tuple[int, ...], int], None] | None,
) -> Callable[[tuple[int, ...], int], tuple[int | None, int]]:
    """Compile a validated term into ``run(args, fuel) -> (value, consumed)``.

    A run that exhausts its fuel returns (None, fuel).  A subterm shared
    by reference gets one closure, however many parents call it.  A
    primitive recursion whose step is a projection does not loop: it
    charges the y step units in one subtraction, or takes what is left
    and exhausts, and returns the projected argument, level or
    accumulator.  The value and the fuel are those of the loop, and as
    a projection holds no Mu, no ``on_mu`` event is skipped.

    Two shapes fuse their nodes into one closure that charges what the
    nodes would: a composition whose k inners are all projections
    charges 1 + k units at once, or exhausts, and indexes its arguments
    directly; a primitive recursion whose step is ``compose f (proj n
    n)`` runs ``acc = f((acc,))`` once per level, charging the step's
    two units before each call.  Every level still runs, so ``on_mu``
    events come in the same order.
    """
    remaining = 0
    built: dict[int, Callable[[tuple[int, ...]], int]] = {}

    def build(e: RecExpr) -> Callable[[tuple[int, ...]], int]:
        node = built.get(id(e))
        if node is None:
            node = built[id(e)] = make(e)
        return node

    def make(e: RecExpr) -> Callable[[tuple[int, ...]], int]:
        t = type(e)
        if t is Proj:
            i = e.i - 1

            def proj(xs: tuple[int, ...]) -> int:
                nonlocal remaining
                if remaining == 0:
                    raise _OutOfFuel
                remaining -= 1
                return xs[i]

            return proj
        if t is Succ:

            def succ(xs: tuple[int, ...]) -> int:
                nonlocal remaining
                if remaining == 0:
                    raise _OutOfFuel
                remaining -= 1
                return xs[0] + 1

            return succ
        if t is Zero:

            def zero(xs: tuple[int, ...]) -> int:
                nonlocal remaining
                if remaining == 0:
                    raise _OutOfFuel
                remaining -= 1
                return 0

            return zero
        if t is Compose and all(type(g) is Proj for g in e.inners):
            outer = build(e.outer)
            cost = 1 + len(e.inners)
            idx = [g.i - 1 for g in e.inners]
            # itemgetter returns a tuple for two or more indices; for one,
            # a one-item slice is the tuple
            pick = itemgetter(*idx) if len(idx) > 1 else itemgetter(slice(idx[0], idx[0] + 1))

            def compose_proj(xs: tuple[int, ...]) -> int:
                nonlocal remaining
                if remaining < cost:
                    raise _OutOfFuel
                remaining -= cost
                return outer(pick(xs))

            return compose_proj
        if t is Compose:
            outer = build(e.outer)
            inners = tuple(build(g) for g in e.inners)

            def compose(xs: tuple[int, ...]) -> int:
                nonlocal remaining
                if remaining == 0:
                    raise _OutOfFuel
                remaining -= 1
                return outer(tuple([g(xs) for g in inners]))

            return compose
        if t is PrimRec and type(e.step) is Proj:
            base = build(e.base)
            i = e.step.i - 1

            def primrec_proj(xs: tuple[int, ...]) -> int:
                nonlocal remaining
                if remaining == 0:
                    raise _OutOfFuel
                remaining -= 1
                front = xs[:-1]
                acc = base(front)
                y = xs[-1]
                if y == 0:
                    return acc
                if remaining < y:
                    remaining = 0
                    raise _OutOfFuel
                remaining -= y
                if i < len(front):
                    return front[i]
                return y - 1 if i == len(front) else acc

            return primrec_proj
        if t is PrimRec and _reads_only_the_accumulator(e.step):
            base = build(e.base)
            f = build(e.step.outer)

            def primrec_acc(xs: tuple[int, ...]) -> int:
                nonlocal remaining
                if remaining == 0:
                    raise _OutOfFuel
                remaining -= 1
                acc = base(xs[:-1])
                for _ in range(xs[-1]):
                    if remaining < 2:
                        raise _OutOfFuel
                    remaining -= 2
                    acc = f((acc,))
                return acc

            return primrec_acc
        if t is PrimRec:
            base = build(e.base)
            step = build(e.step)

            def primrec(xs: tuple[int, ...]) -> int:
                nonlocal remaining
                if remaining == 0:
                    raise _OutOfFuel
                remaining -= 1
                front = xs[:-1]
                acc = base(front)
                for level in range(xs[-1]):
                    acc = step(front + (level, acc))
                return acc

            return primrec
        body_expr = e.body
        body = build(body_expr)

        def mu(xs: tuple[int, ...]) -> int:
            nonlocal remaining
            if remaining == 0:
                raise _OutOfFuel
            remaining -= 1
            candidate = 0
            while body(xs + (candidate,)) != 0:
                candidate += 1
            if on_mu is not None:
                on_mu(body_expr, xs, candidate)
            return candidate

        return mu

    root = build(expr)
    # build and make refer to each other, a cycle only the garbage
    # collector frees; emptied, it keeps no closure alive past this call.
    built.clear()

    def run(args: tuple[int, ...], fuel: int) -> tuple[int | None, int]:
        nonlocal remaining
        remaining = fuel
        try:
            value = root(args)
        except _OutOfFuel:
            return None, fuel
        return value, fuel - remaining

    return run


class CompiledTerm:
    """A term validated and compiled once, for evaluating many times.

    ``evaluate_costed`` accepts one in place of a term and then checks
    only the call's arguments and fuel.  A compiled term runs one
    evaluation at a time; do not share it between threads.
    """

    __slots__ = ("arity", "_run")

    def __init__(self, expr: RecExpr) -> None:
        self.arity = arity(expr)
        self._run = _compile(expr, None)


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
    argv = _check_args(arity(expr), args, fuel)
    value, consumed = _compile(expr, on_mu)(argv, fuel)
    if value is None:
        return FuelExhausted(consumed=consumed)
    return value


def evaluate_costed(
    expr: RecExpr | CompiledTerm, args: Iterable[int], fuel: int
) -> tuple[int | None, int]:
    """Like ``evaluate`` but also reports fuel spent: (value, consumed).

    A None value means exhaustion, with all granted fuel consumed.  The
    cooperative scheduler uses this to account work precisely, passing a
    ``CompiledTerm`` so its term is validated and compiled only once.
    """
    if not isinstance(expr, CompiledTerm):
        expr = CompiledTerm(expr)
    argv = _check_args(expr.arity, args, fuel)
    return expr._run(argv, fuel)


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
