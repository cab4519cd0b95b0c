"""The seeded trio corpus: task descriptors whose verdict is fixed by
construction.

Every generated task is built so that at most one searcher can ever
win, and the winner is known before the trio runs:

* found: g(y) = k - y (truncated subtraction head, so no certificate
  rule applies) has its least zero at k; the companion right-runner
  never repeats.
* self_terminated: g is the constant 1 behind a subtraction head, and
  the companion is a 2-state 2-symbol looper with a chosen first index
  and period.
* proved: g is a tree of sums and products over successor-headed
  leaves whose smallest certificate has a chosen size, or a nonzero
  constant behind a subtraction head that never reads y (certified by
  one bounded evaluation); the right-runner never repeats and g has no
  zero.
* exhausted: the constant 1 behind a subtraction head, the
  right-runner, and a round budget that runs dry.

The seed varies how each task is realised (fixed arguments the
function never reads and their order, the looper among those with the
same loop, the tree shape, the constant behind const_nonzero) but not
the grid of quanta, zeros and sizes below, which sets the work: every
seed asks for the same amount of it.  Quanta range from 1, where one candidate
evaluation spans many rounds, up to thousands.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

from haltlab.dsl import load_program
from haltlab.machine import LEFT, RIGHT, Machine, initial_id, step
from haltlab.recfun import Compose, PrimRec, Proj, RecExpr, Succ, Zero

# The stock arithmetic, built here from the constructors and written to
# every function file under these names.
P2 = PrimRec(Zero(), Proj(2, 3))
PRED = Compose(P2, (Proj(1, 1), Proj(1, 1)))
MONUS = PrimRec(Proj(1, 1), Compose(PRED, (Proj(3, 3),)))
ADD = PrimRec(Proj(1, 1), Compose(Succ(), (Proj(3, 3),)))
MUL = PrimRec(Zero(), Compose(ADD, (Proj(1, 3), Proj(3, 3))))
LIBRARY = (("p2", P2), ("pred", PRED), ("monus", MONUS), ("add", ADD), ("mul", MUL))

Y = Proj(1, 1)
# g(z, y) = 1 - (y - y) for a seeded z it never reads: the constant 1,
# but behind a head no rule reads.
OPAQUE_ONE = Compose(MONUS, (
    Compose(Succ(), (Compose(Zero(), (Proj(2, 2),)),)),
    Compose(MONUS, (Proj(2, 2), Proj(2, 2))),
))

# (k, quantum)
FOUND_GRID = ((4, 1), (9, 3), (14, 8), (19, 40), (24, 300), (30, 5000))
# One representative per (first index, period) class of the 2x2
# loopers; the seed refills the slots the loop never consults and may
# mirror the machine, which keeps the loop.
LOOPERS = (
    ("0LB---_0RA---", 1), ("0LB---_1RA0RA", 2), ("1LB---_0RB1LB", 3), ("1LB1LB_1RA0RA", 1),
    ("0LB---_1RA1RA", 5), ("1LB0LB_0RB1RA", 2), ("1LB1LB_0RB1RA", 1), ("1LB1RB_1RA1LA", 50),
)
# (certificate size, quantum)
PROVED_GRID = ((2, 1), (3, 4), (4, 9), (5, 25), (3, 200))
# (quantum, rounds, history cap or None, max certificate size)
EXHAUSTED_GRID = ((1, 3000, None, 3), (5, 1500, None, 4), (50, 500, 4000, 3),
                  (400, 120, None, 4), (3000, 30, 20000, 3))
SHIPPED = Path(__file__).resolve().parent.parent / "fixtures" / "trio"
NEVER = 10**6  # a round budget no found or proved task comes near


def format_term(expr: RecExpr, names=LIBRARY) -> str:
    """Fully parenthesised text, naming the entries of ``names``."""
    for name, body in names:
        if expr == body:
            return name
    t = type(expr)
    if t is Zero:
        return "zero"
    if t is Succ:
        return "succ"
    if t is Proj:
        return f"proj {expr.i} {expr.n}"
    if t is Compose:
        inners = " ".join(f"({format_term(g, names)})" for g in expr.inners)
        return f"compose ({format_term(expr.outer, names)}) ({inners})"
    return f"primrec ({format_term(expr.base, names)}) ({format_term(expr.step, names)})"


def function_file(g: RecExpr) -> str:
    lines = ["format=1"]
    lines += [
        f"def {name} = {format_term(body, LIBRARY[:i])}"
        for i, (name, body) in enumerate(LIBRARY)
    ]
    lines.append(f"def g = {format_term(g)}")
    return "\n".join(lines) + "\n"


def machine_file(machine: Machine) -> str:
    lines = ["format=1", f"states={machine.state_count} alphabet={machine.alphabet_size} start=0"]
    lines += [
        f"{s} {a} -> {w} {mv} {n}" for (s, a), (w, mv, n) in sorted(machine.transitions.items())
    ]
    return "\n".join(lines) + "\n"


def decode(code: str) -> dict:
    table = {}
    for state, cells in enumerate(code.split("_")):
        for symbol in range(len(cells) // 3):
            cell = cells[3 * symbol:3 * symbol + 3]
            if cell != "---":
                table[(state, symbol)] = (int(cell[0]), cell[1], ord(cell[2]) - 65)
    return table


def consulted_slots(machine: Machine, steps: int) -> set:
    """The (state, symbol) slots a blank-tape run reads in ``steps`` steps."""
    desc, used = initial_id(machine), set()
    for _ in range(steps):
        used.add((desc.state, desc.symbol_at(desc.head)))
        desc = step(machine, desc)
        if desc is None:
            break
    return used


def looper_variant(code: str, rng: random.Random) -> Machine:
    base = Machine(2, 2, decode(code))
    # Every 2x2 loop closes by step 7; twelve steps cover its replay.
    used = consulted_slots(base, 12)
    options = [None] + [(w, mv, n) for w in (0, 1) for mv in (LEFT, RIGHT) for n in (0, 1)]
    table = {}
    for slot in ((0, 0), (0, 1), (1, 0), (1, 1)):
        rule = base.transitions.get(slot) if slot in used else rng.choice(options)
        if rule is not None:
            table[slot] = rule
    if rng.random() < 0.5:
        flip = {LEFT: RIGHT, RIGHT: LEFT}
        table = {slot: (w, flip[mv], n) for slot, (w, mv, n) in table.items()}
    return Machine(2, 2, table)


def constant(k: int) -> RecExpr:
    expr: RecExpr = Compose(Zero(), (Y,))
    for _ in range(k):
        expr = Compose(Succ(), (expr,))
    return expr


LEAVES = (
    Compose(Succ(), (Y,)),
    Compose(Succ(), (Compose(Succ(), (Y,)),)),
    Compose(Succ(), (Compose(ADD, (Y, Y)),)),
)


def proved_tree(size: int, rng: random.Random) -> RecExpr:
    """A sum/product tree whose smallest certificate has ``size`` nodes.

    A successor-headed leaf takes one node; a sum takes one more than
    its cheaper summand; a product takes one more than both factors.
    Every leaf reads y, so no subterm is certified as a constant.
    """
    if size == 1:
        return rng.choice(LEAVES)
    if size >= 3 and rng.random() < 0.5:
        left = rng.randint(1, size - 2)
        factors = (proved_tree(left, rng), proved_tree(size - 1 - left, rng))
        return Compose(MUL, factors)
    summands = [proved_tree(size - 1, rng), proved_tree(size - 1, rng)]
    return Compose(ADD, tuple(summands))


def right_runner() -> Machine:
    return Machine(1, 2, {(0, 0): (1, RIGHT, 0)})


def build(directory: Path, seed: int) -> dict:
    """Write the corpus into ``directory``; return each task's expectation.

    The shipped fixtures are copied in beside the generated tasks so one
    ``run_fixture_suite`` call loads them all.
    """
    rng = random.Random(seed)
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    expectations = _shipped(directory)
    tasks = []
    for k, quantum in FOUND_GRID:
        # g(a, b, y) = k - y, with k in a seeded one of the two fixed places
        place = rng.randint(1, 2)
        g = Compose(MONUS, (Proj(place, 3), Proj(3, 3)))
        args = (k, rng.randrange(10**6)) if place == 1 else (rng.randrange(10**6), k)
        tasks.append(("found", g, args, right_runner(), quantum, NEVER, 3, None, {"k": k}))
    for code, quantum in LOOPERS:
        machine = looper_variant(code, rng)
        tasks.append(("self_terminated", OPAQUE_ONE, (rng.randrange(10**6),), machine, quantum,
                      1000, 3, None, {"machine": machine}))
    for size, quantum in PROVED_GRID:
        g = proved_tree(size, rng)
        tasks.append(("proved", g, (), right_runner(), quantum, NEVER, size, None,
                      {"cert_size": size}))
    a, b = rng.randint(1, 4), rng.randint(1, 4)
    g = Compose(MONUS, (constant(a + b), constant(b)))
    tasks.append(("proved", g, (), right_runner(), 2, NEVER, 2, None, {"cert_size": 1}))
    for quantum, rounds, cap, max_cert in EXHAUSTED_GRID:
        tasks.append(("exhausted", OPAQUE_ONE, (rng.randrange(10**6),), right_runner(), quantum,
                      rounds, max_cert, cap, {"rounds": rounds}))
    for index, (tag, g, args, machine, quantum, budget, max_cert, cap, extra) in enumerate(tasks):
        name = f"gen{index:02d}_{tag}"
        (directory / f"{name}.rf").write_text(function_file(g), encoding="utf-8")
        (directory / f"{name}.tm").write_text(machine_file(machine), encoding="utf-8")
        lines = [
            "format=1",
            f"g={name}.rf",
            "entry=g",
            f"machine={name}.tm",
            "args=" + ",".join(str(a) for a in args),
            f"quantum={quantum}",
            f"budget={budget}",
            f"max_cert_size={max_cert}",
            f"expect={tag}",
        ]
        if cap is not None:
            lines.append(f"history_cap={cap}")
        (directory / f"{name}.task").write_text("\n".join(lines) + "\n", encoding="utf-8")
        expectations[name] = {"tag": tag, "g": g, "args": args, "machine": machine, **extra}
    return expectations


def _shipped(directory: Path) -> dict:
    """Copy the shipped fixtures; their expectation is their expect= line."""
    expectations = {}
    for path in sorted(SHIPPED.iterdir()):
        shutil.copy(path, directory / path.name)
    for path in sorted(SHIPPED.glob("*.task")):
        pairs = dict(
            line.split("=", 1) for line in path.read_text(encoding="utf-8").splitlines()
            if "=" in line and not line.startswith("#")
        )
        pairs = {key.strip(): value.strip() for key, value in pairs.items()}
        expectations[path.stem] = {
            "tag": pairs["expect"],
            "g": load_program(SHIPPED / pairs["g"]).functions[pairs["entry"]],
            "args": tuple(int(a) for a in pairs.get("args", "").split(",") if a.strip()),
            "machine": next(iter(load_program(SHIPPED / pairs["machine"]).machines.values())),
            "rounds": int(pairs["budget"]),
        }
    return expectations
