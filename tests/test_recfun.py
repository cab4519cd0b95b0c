"""Recursive-function evaluator tests: arities, values, fuel, minimization.

The frozen arithmetic table is checked against both evaluators so a
regression in either one trips it; the differential property then
drives randomly generated expressions through the pair.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haltlab.recfun import (
    ADD,
    EQ_CHAR,
    MAX_TERM_DEPTH,
    MONUS,
    MUL,
    PRED,
    SIGN,
    SUCC,
    ZERO,
    ArityError,
    CompiledTerm,
    Compose,
    FuelExhausted,
    Mu,
    PrimRec,
    Proj,
    Succ,
    Zero,
    arity,
    const_expr,
    evaluate,
    evaluate_costed,
    oracle_evaluate,
)
from tests.helpers import NotBooleanError, char_value, gen_expr

GENEROUS = 1_000_000


def test_arities_of_the_standard_combinators():
    assert arity(Zero()) == 1
    assert arity(Succ()) == 1
    assert arity(Proj(2, 5)) == 5
    assert arity(ADD) == 2
    assert arity(MONUS) == 2
    assert arity(MUL) == 2
    assert arity(PRED) == 1
    assert arity(SIGN) == 1
    assert arity(EQ_CHAR) == 2
    assert arity(Mu(MONUS)) == 1
    assert arity(Mu(Proj(1, 1))) == 0  # minimization over a unary body is nullary
    assert arity(const_expr(7, 3)) == 3


def test_arity_rejects_malformed_terms():
    with pytest.raises(ArityError, match="out of range"):
        arity(Proj(4, 3))
    with pytest.raises(ArityError, match="does not match"):
        arity(Compose(SUCC, (Proj(1, 2), Proj(1, 3))))
    with pytest.raises(ArityError, match="base arity"):
        arity(PrimRec(Proj(1, 1), Proj(1, 2)))
    with pytest.raises(ArityError) as err:
        arity(Compose(SUCC, (Compose(SUCC, (Proj(4, 3),)),)))
    assert "inners" in err.value.path


def test_terms_built_in_code_are_held_to_the_nesting_bound():
    def tower(depth):
        term = Zero()
        for _ in range(depth - 1):
            term = Compose(Succ(), (term,))
        return term

    # At the bound: MAX_TERM_DEPTH constructors down the outermost spine.
    at_bound = tower(MAX_TERM_DEPTH)
    assert arity(at_bound) == 1
    assert evaluate(at_bound, (0,), GENEROUS) == MAX_TERM_DEPTH - 1
    assert evaluate_costed(at_bound, (0,), GENEROUS) == (MAX_TERM_DEPTH - 1, 2 * MAX_TERM_DEPTH - 1)
    assert oracle_evaluate(at_bound, (0,), GENEROUS) == MAX_TERM_DEPTH - 1

    deepest = "term" + ".inners[0]" * (MAX_TERM_DEPTH - 1) + ".outer"
    for depth in (MAX_TERM_DEPTH + 1, 2000):
        for check in (
            arity,
            lambda t: evaluate(t, (0,), GENEROUS),
            lambda t: evaluate_costed(t, (0,), GENEROUS),
            CompiledTerm,
            lambda t: oracle_evaluate(t, (0,), GENEROUS),
        ):
            with pytest.raises(ArityError, match=f"deeper than {MAX_TERM_DEPTH}") as err:
                check(tower(depth))
            assert err.value.path == deepest


def test_a_shared_subterm_is_held_to_the_bound_at_every_depth_it_sits():
    def wrap(term, times):
        for _ in range(times):
            term = Compose(Succ(), (term,))
        return term

    # 151 constructors deep: it fits beside the root, not 58 levels lower.
    shared = wrap(Zero(), 150)
    with pytest.raises(ArityError, match=f"deeper than {MAX_TERM_DEPTH}") as unshared:
        arity(Compose(ADD, (wrap(Zero(), 150), wrap(wrap(Zero(), 150), 58))))
    with pytest.raises(ArityError, match=f"deeper than {MAX_TERM_DEPTH}") as err:
        arity(Compose(ADD, (shared, wrap(shared, 58))))
    assert err.value.path == unshared.value.path
    assert arity(Compose(ADD, (shared, shared))) == 1


def test_wrong_argument_count_is_an_arity_error():
    with pytest.raises(ArityError):
        evaluate(ADD, (1, 2, 3), 100)
    with pytest.raises(ArityError):
        oracle_evaluate(ADD, (1,), 100)
    with pytest.raises(ArityError, match="out of range"):
        CompiledTerm(Proj(4, 3))
    # A compiled term checks each call's arguments and fuel as a plain term is checked.
    compiled = CompiledTerm(ADD)
    for args, fuel in (((1, 2, 3), 100), ((1, -2), 100), ((1, 2), -1)):
        with pytest.raises(ValueError) as plain:
            evaluate_costed(ADD, args, fuel)
        with pytest.raises(type(plain.value), match=re.escape(str(plain.value))):
            evaluate_costed(compiled, args, fuel)


ARITHMETIC_TABLE = [
    (Zero(), (9,), 0),
    (Succ(), (9,), 10),
    (Proj(2, 3), (7, 8, 9), 8),
    (ADD, (0, 0), 0),
    (ADD, (2, 3), 5),
    (ADD, (7, 0), 7),
    (PRED, (0,), 0),
    (PRED, (1,), 0),
    (PRED, (6,), 5),
    (MONUS, (5, 2), 3),
    (MONUS, (2, 5), 0),
    (MONUS, (4, 4), 0),
    (MUL, (0, 5), 0),
    (MUL, (3, 4), 12),
    (SIGN, (0,), 0),
    (SIGN, (7,), 1),
    (EQ_CHAR, (3, 3), 0),
    (EQ_CHAR, (3, 4), 1),
    (EQ_CHAR, (0, 1), 1),
    (const_expr(0, 1), (5,), 0),
    (const_expr(3, 2), (8, 9), 3),
]


def test_frozen_arithmetic_values_on_both_evaluators():
    for expr, args, expected in ARITHMETIC_TABLE:
        assert evaluate(expr, args, GENEROUS) == expected, (args, expected)
        assert oracle_evaluate(expr, args, GENEROUS) == expected, (args, expected)


def test_minimization_finds_the_least_zero():
    # least y with 5 - y = 0 (truncated) is 5
    assert evaluate(Mu(MONUS), (5,), GENEROUS) == 5
    assert oracle_evaluate(Mu(MONUS), (5,), GENEROUS) == 5
    assert evaluate(Mu(MONUS), (0,), GENEROUS) == 0


def test_minimization_hook_reports_every_return():
    events = []
    got = evaluate(Mu(MONUS), (5,), GENEROUS, on_mu=lambda body, xs, k: events.append((body, xs, k)))
    assert got == 5
    assert events == [(MONUS, (5,), 5)]


def test_nullary_minimization_is_allowed():
    assert evaluate(Mu(Proj(1, 1)), (), GENEROUS) == 0


def test_minimization_without_a_zero_burns_all_fuel():
    never_zero = Mu(Compose(SUCC, (Proj(2, 2),)))
    assert evaluate(never_zero, (7,), 1000) == FuelExhausted(consumed=1000)
    assert oracle_evaluate(never_zero, (7,), 1000) == FuelExhausted(consumed=1000)


def test_minimization_cannot_skip_a_diverging_candidate():
    # body(y, z) = 1 - y (truncated) ignores z, so the scan at y = 0
    # never ends even though y = 1 would satisfy the search immediately.
    body = Compose(MONUS, (const_expr(1, 2), Proj(1, 2)))
    stuck_then_fine = Mu(body)
    assert evaluate(stuck_then_fine, (1,), GENEROUS) == 0
    assert evaluate(stuck_then_fine, (0,), 5000) == FuelExhausted(consumed=5000)
    # sequential search over k hits the diverging k = 0 first
    assert evaluate(Mu(stuck_then_fine), (), 5000) == FuelExhausted(consumed=5000)


def test_fuel_boundary_is_exact():
    value, cost = evaluate_costed(ADD, (2, 3), GENEROUS)
    assert value == 5
    assert evaluate(ADD, (2, 3), cost) == 5
    assert evaluate(ADD, (2, 3), cost - 1) == FuelExhausted(consumed=cost - 1)


def test_costed_evaluation_is_consistent():
    value, cost = evaluate_costed(MUL, (3, 4), GENEROUS)
    assert value == 12
    assert evaluate_costed(MUL, (3, 4), cost) == (12, cost)
    assert evaluate_costed(MUL, (3, 4), cost - 1) == (None, cost - 1)


# Bases of arity 1 and 2 for a projection-step recursion: one that
# converges, one with a Mu that returns (its witness is the first
# argument), and one with a Mu that never does.
_FINDS_X1 = {
    1: Compose(MONUS, (Proj(1, 2), Proj(2, 2))),
    2: Compose(MONUS, (Proj(1, 3), Proj(3, 3))),
}
PROJECTION_STEP_BASES = {
    1: (Compose(SUCC, (Proj(1, 1),)), Mu(_FINDS_X1[1]), Mu(Compose(SUCC, (Proj(2, 2),)))),
    2: (Compose(ADD, (Proj(1, 2), Proj(2, 2))), Mu(_FINDS_X1[2]), Mu(Compose(SUCC, (Proj(3, 3),)))),
}


@pytest.mark.parametrize("n", [1, 2])
def test_projection_step_recursion_matches_the_reference_at_every_fuel(n):
    """A projection step charged at once gives the loop's value and fuel.

    Every projection (fixed argument, level, accumulator), counts 0, 1
    and 7, and fuel from 0 to one past the cost: ``evaluate``,
    ``evaluate_costed`` and one reused ``CompiledTerm`` agree with the
    reference in value or exhaustion, and in fuel consumed.
    """
    front = (3, 5)[:n]
    for base in PROJECTION_STEP_BASES[n]:
        for i in range(1, n + 3):
            expr = PrimRec(base, Proj(i, n + 2))
            compiled = CompiledTerm(expr)
            for y in (0, 1, 7):
                args = front + (y,)
                # A base that never returns is tried up to fuel 200, past
                # every cost of the converging ones.
                cost = None
                fuel = 0
                while fuel <= (200 if cost is None else cost + 1):
                    expected = oracle_evaluate(expr, args, fuel)
                    where = (base, i, y, fuel)
                    if isinstance(expected, FuelExhausted):
                        assert cost is None, where
                        want = (None, fuel)
                    else:
                        if cost is None:
                            cost = fuel
                        want = (expected, cost)
                    assert evaluate(expr, args, fuel) == expected, where
                    assert evaluate_costed(expr, args, fuel) == want, where
                    assert evaluate_costed(compiled, args, fuel) == want, where
                    fuel += 1
                assert (cost is None) == (base is PROJECTION_STEP_BASES[n][2]), (base, i, y)


def test_projection_step_recursion_still_reports_a_mu_in_its_base():
    for n in (1, 2):
        front = (3, 5)[:n]
        for i in range(1, n + 3):
            events = []
            got = evaluate(
                PrimRec(Mu(_FINDS_X1[n]), Proj(i, n + 2)),
                front + (7,),
                GENEROUS,
                on_mu=lambda body, xs, k: events.append((body, xs, k)),
            )
            # the fixed arguments, the last level 6 and the accumulator 3
            assert got == (*front, 6, 3)[i - 1]
            assert events == [(_FINDS_X1[n], front, 3)]


def test_a_projection_step_recursion_costs_no_loop():
    """pred at 10^7 and monus at (10^7, 3) run at their closed-form costs.

    pred is compose, two projections, the recursion node and its zero
    base, five units, plus one unit per step.  Each of monus's y levels
    is its compose and projection, then pred of the running value;
    monus itself adds its node and its projection base.
    """
    x = 10**7
    cost = x + 5
    assert evaluate_costed(PRED, (x,), 10**9) == (x - 1, cost)
    assert evaluate(PRED, (x,), cost) == x - 1
    assert evaluate(PRED, (x,), cost - 1) == FuelExhausted(consumed=cost - 1)
    cost = 2 + sum(2 + 5 + (x - level) for level in range(3))
    assert evaluate_costed(MONUS, (x, 3), 10**9) == (x - 3, cost)
    assert evaluate(MONUS, (x, 3), cost) == x - 3
    assert evaluate(MONUS, (x, 3), cost - 1) == FuelExhausted(consumed=cost - 1)


def test_char_value_enforces_the_boolean_convention():
    assert char_value(EQ_CHAR, (4, 4), GENEROUS) == 0
    assert char_value(EQ_CHAR, (4, 5), GENEROUS) == 1
    with pytest.raises(NotBooleanError) as err:
        char_value(ADD, (2, 3), GENEROUS)
    assert err.value.value == 5
    exhausted = char_value(Mu(Compose(SUCC, (Proj(2, 2),))), (0,), 50)
    assert exhausted == FuelExhausted(consumed=50)


def test_costed_fuel_is_the_least_fuel_the_reference_needs():
    """evaluate_costed's cost is exact against the reference, compiled or not."""
    rng = random.Random(0xC057)
    fuel = 5000
    for index in range(500):
        n = rng.randint(1, 3)
        expr = gen_expr(rng, n, rng.randint(0, 4))
        args = tuple(rng.randint(0, 8) for _ in range(n))
        value, cost = evaluate_costed(expr, args, fuel)
        if value is None:
            assert cost == fuel, index
            assert oracle_evaluate(expr, args, fuel) == FuelExhausted(consumed=fuel), index
        else:
            assert oracle_evaluate(expr, args, cost) == value, index
            assert oracle_evaluate(expr, args, cost - 1) == FuelExhausted(consumed=cost - 1), index
        # One compiled term, run again and again, and through exhaustion.
        compiled = CompiledTerm(expr)
        for f in (0, cost // 2, cost, fuel):
            assert evaluate_costed(compiled, args, f) == evaluate_costed(expr, args, f), (index, f)


def test_differential_corpus_small():
    """Seeded miniature of the acceptance sweep; exact agreement, always."""
    rng = random.Random(20260819)
    for _ in range(400):
        n = rng.randint(1, 3)
        expr = gen_expr(rng, n, rng.randint(0, 4))
        args = tuple(rng.randint(0, 8) for _ in range(n))
        assert evaluate(expr, args, 3000) == oracle_evaluate(expr, args, 3000)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_more_fuel_never_changes_a_value(seed, arg):
    rng = random.Random(seed)
    expr = gen_expr(rng, 1, rng.randint(0, 3))
    small = evaluate(expr, (arg,), 500)
    if isinstance(small, FuelExhausted):
        return
    assert evaluate(expr, (arg,), 5000) == small
    assert oracle_evaluate(expr, (arg,), 5000) == small


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 5))
def test_minimization_free_terms_are_total(seed, arg):
    """Without Mu every term converges once fuel is doubled far enough."""
    rng = random.Random(seed)
    expr = gen_expr(rng, 1, rng.randint(0, 3))
    if _mentions_mu(expr):
        return
    fuel = 64
    while True:
        got = evaluate(expr, (arg,), fuel)
        if not isinstance(got, FuelExhausted):
            break
        fuel *= 2
        assert fuel < 2**20, "primitive recursive term failed to converge"
    assert got >= 0


def _mentions_mu(expr) -> bool:
    if isinstance(expr, Mu):
        return True
    if isinstance(expr, Compose):
        return _mentions_mu(expr.outer) or any(_mentions_mu(i) for i in expr.inners)
    if isinstance(expr, PrimRec):
        return _mentions_mu(expr.base) or _mentions_mu(expr.step)
    return False
