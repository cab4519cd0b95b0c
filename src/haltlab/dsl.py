"""Parsing and printing for the two little text formats, and the
opening every text file shares.

Machine files (conventionally ``.tm``) are line-oriented: an optional
``format=1`` version marker, one header line ``states=N alphabet=M
start=S``, then one transition per line::

    state symbol -> write move nextState

with move ``L`` or ``R``.  Function files (``.rf``) hold named
definitions ``def name = term`` where terms use the constructors
``zero``, ``succ``, ``proj i n``, ``compose f (g1 ... gk)``,
``primrec base step`` and ``mu body``; parentheses group freely, and a
name mentioned in a term refers to an earlier definition in the same
file, which is inlined on the spot (so definitions cannot be cyclic and
must precede their uses).  A term may nest constructors at most
``MAX_TERM_DEPTH`` deep, counting the constructors of every definition
it inlines by name; parentheses that only group do not count.  Nesting
written out in the text is reported at the first constructor past the
bound; nesting reached only through an inlined name is caught when the
finished definition is checked with ``arity``, and reported at the
definition's name.  ``#`` starts a comment in both formats.

Both formats, and the trio's ``.task`` descriptors, open through
``significant_lines``: the optional ``format=`` marker is the first
non-blank line of the file, comments aside, and its value is the rest
of that line, read as a natural (``parse_natural``) that must equal
``FORMAT_VERSION``.  All three refuse another value ``v``, the empty
one included, as "unsupported format version 'v'".  Both grammars read
the same lines: they end where ``str.splitlines`` ends them and are cut
at ``#``.  The function grammar tokenizes the lines past the marker's,
one line at a time and one ``findall`` per line.  A token is its text,
its kind read off its first character; a position is a line and a token
index, made a column only for a diagnostic.

A name is inlined by reference, so a definition used twice is one
shared subterm, not two copies.  ``arity``, the evaluators' compiler
and the certificate checker's dependence analysis visit each shared
subterm once (``arity`` once per depth it is met at), so a file whose
every line uses the previous definition twice parses and compiles in
time that follows its length, not the size of the unfolded term.
Printing does not share: canonical text spells every inlined name out,
so ``format_term`` of such a term is exponential in the number of
lines.

``parse_program`` accepts either format, telling them apart by the
``states=`` header, and returns a Program; ``format_program`` prints a
Program back to canonical text.  Printing a parsed program and parsing
the printed text is the identity on Programs — the canonical form
always carries the version marker, fully parenthesizes composite
subterms, and lists machine transitions in table order.  All diagnostics
are ParseError values carrying a line and column, and from
``load_program`` the file's path; no input text, however damaged,
raises anything else.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from .machine import Machine, MachineError
from .recfun import (
    MAX_TERM_DEPTH,
    ArityError,
    Compose,
    Mu,
    PrimRec,
    Proj,
    RecExpr,
    Succ,
    Zero,
    arity,
)

FORMAT_VERSION = 1

_RESERVED = frozenset(
    {"def", "zero", "succ", "proj", "compose", "primrec", "mu", "format"}
)


def parse_natural(text: str) -> int | None:
    """The natural an ASCII digit string spells, or None for any other text.

    ``str.isdigit`` alone also takes digits such as ``²`` that ``int``
    rejects, and ``int`` refuses strings longer than the interpreter's
    conversion limit; both come back as None, never as an exception.
    """
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def parse_naturals(text: str, refuse: Callable[[str], Exception]) -> tuple[int, ...]:
    """The naturals of a comma-separated list, each item stripped.

    Blank text is the empty list.  Otherwise every item must be a
    natural, so the empty items of ``1,,0``, ``100,`` and ``,5`` are
    refused too: the first bad item is passed to ``refuse``, and the
    exception it returns is raised.
    """
    items = [item.strip() for item in text.split(",")] if text.strip() else []
    values = tuple(map(parse_natural, items))
    if None in values:
        raise refuse(items[values.index(None)])
    return values


class ParseError(ValueError):
    """A located diagnostic; line and column are 1-based.  ``path``
    names the file when the text came from one and is printed first."""

    def __init__(
        self, message: str, line: int, col: int, path: str | Path | None = None
    ) -> None:
        located = f"line {line}, column {col}: {message}"
        super().__init__(located if path is None else f"{path}: {located}")
        self.reason = message
        self.line = line
        self.col = col
        self.path = path


@dataclass
class Program:
    """Named definitions: recursive-function expressions and machines."""

    functions: dict[str, RecExpr] = field(default_factory=dict)
    machines: dict[str, Machine] = field(default_factory=dict)


def _cut_lines(text: str) -> list[tuple[int, str]]:
    """The numbered lines of a text, ended where ``str.splitlines`` ends
    them and cut at ``#``.  The last is the line the text stops on, an
    empty one after a final line break."""
    # The "#" appended opens a comment on the last line, or is the line
    # that follows a final line break.
    raws = (text + "#").splitlines()
    return [(number, raw.partition("#")[0]) for number, raw in enumerate(raws, start=1)]


def significant_lines(text: str) -> tuple[list[tuple[int, str]], int]:
    """The numbered lines of a text past its version marker, and the
    marker's line number, 0 when it has none; lines are cut at ``#`` and
    stripped, and blank ones dropped.

    The first of them is the marker when its text before any ``=`` is
    the word ``format``.  The rest of that line must then be a natural
    equal to ``FORMAT_VERSION``; any other value ``v`` raises ParseError
    "unsupported format version 'v'".
    """
    return _past_marker(_cut_lines(text))


def _past_marker(cut: list[tuple[int, str]]) -> tuple[list[tuple[int, str]], int]:
    """``significant_lines`` of the lines ``_cut_lines`` cut from a text."""
    lines = [(number, stripped) for number, line in cut if (stripped := line.strip())]
    if not lines or lines[0][1].partition("=")[0].strip() != "format":
        return lines, 0
    number, marker = lines[0]
    value = marker.partition("=")[2].strip()
    if parse_natural(value) != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {value!r}", number, 1)
    return lines[1:], number


# --- tokenizing the function grammar ---------------------------------------


# Blanks, then one token, its alternatives tried in order: a punctuation
# mark, ASCII digits, a word, or any other non-blank character.  ``\w``
# is ``str.isalnum()`` plus ``_``, so a word starting with a character
# that is not a letter or ``_`` (a digit such as ``²``) is refused below.
# A token takes no blank, so blanks at the end of a line match nothing.
_TOKEN = re.compile(r"[ \t]*([()=]|[0-9]+|\w+|[^ \t])")

# On an ASCII line, a word never starts with a digit, so only a
# character this finds can start a refused token; a line with none skips
# the token-by-token check.
_ODD = re.compile(r"[^ \t()=\w]")


def _is_word(token: str) -> bool:
    """A token of a line ``_Cursor`` accepted is a word when it starts
    with a letter or ``_``; the end, ``""``, is not."""
    return token[:1].isalpha() or token[:1] == "_"


def _column(line: str, k: int) -> int:
    """The column of the k-th token of a line, counted from 1."""
    return next(islice(_TOKEN.finditer(line), k, None)).start(1) + 1


class _Cursor:
    """The function grammar's tokens: the lines ``_cut_lines`` cut from
    a text, after line ``marker``, read one line at a time.

    A token is its text; ``tok`` is the one at hand, and ``""`` past
    the last.  Its position is (``row``, ``k``): the index of its line
    in ``lines`` and its index in that line's tokens.  A line is
    tokenized, and refused for a character no token takes, when its
    first token is reached.  A column counts from the start of its line,
    and every character is one column, a tab too; ``error`` works it out
    for a diagnostic only.  The end sits where the text's last line
    stops, at row ``len(lines)``.
    """

    def __init__(self, lines: list[tuple[int, str]], marker: int) -> None:
        self._lines = lines
        self.row = marker - 1
        self._next_line()

    def _next_line(self) -> None:
        lines = self._lines
        for row in range(self.row + 1, len(lines)):
            number, line = lines[row]
            tokens = _TOKEN.findall(line)
            if tokens:
                if not line.isascii() or _ODD.search(line):
                    for k, token in enumerate(tokens):
                        c = token[0]
                        if not (c.isalpha() or c == "_" or c in "()=0123456789"):
                            raise ParseError(f"unexpected character {c!r}", number, _column(line, k))
                self.row, self.k, self.tok, self._tokens = row, 0, tokens[0], tokens
                return
        self.row, self.k, self.tok, self._tokens = len(lines), 0, "", ("",)

    def next(self) -> str:
        """The token at hand; the cursor moves past it, unless at the end."""
        tok = self.tok
        k = self.k + 1
        if k < len(self._tokens):
            self.k, self.tok = k, self._tokens[k]
        elif tok:
            self._next_line()
        return tok

    def error(self, message: str, at: tuple[int, int] | None = None) -> ParseError:
        """A diagnostic at position ``at``, or at the token at hand."""
        row, k = (self.row, self.k) if at is None else at
        if row == len(self._lines):
            number, last = self._lines[-1]
            return ParseError(message, number, len(last) + 1)
        number, line = self._lines[row]
        return ParseError(message, number, _column(line, k))

    def expect(self, text: str) -> None:
        at = self.row, self.k
        if self.next() != text:
            raise self.error(f"expected {text!r}", at)

    def expect_int(self, what: str) -> int:
        at = self.row, self.k
        token = self.next()
        # ASCII digits are the only accepted tokens that start with a digit
        if not token.isdigit():
            raise self.error(f"expected {what}", at)
        value = parse_natural(token)
        if value is None:
            raise self.error(f"{what} has too many digits", at)
        return value


def _parse_term(cur: _Cursor, env: dict[str, RecExpr], depth: int) -> RecExpr:
    """A term ``depth`` constructors deep; grouping parentheses loop, not recurse."""
    opened = 0
    while cur.tok == "(":
        cur.next()
        opened += 1
    term = _parse_constructor(cur, env, depth)
    for _ in range(opened):
        cur.expect(")")
    return term


def _parse_constructor(cur: _Cursor, env: dict[str, RecExpr], depth: int) -> RecExpr:
    at = cur.row, cur.k
    word = cur.next()
    if depth > MAX_TERM_DEPTH:
        raise cur.error(f"term nests deeper than {MAX_TERM_DEPTH}", at)
    if word == "zero":
        return Zero()
    if word == "succ":
        return Succ()
    if word == "proj":
        i = cur.expect_int("a projection index")
        n = cur.expect_int("a projection width")
        return Proj(i, n)
    if word == "compose":
        outer = _parse_term(cur, env, depth + 1)
        cur.expect("(")
        inners = []
        while cur.tok != ")":
            if not cur.tok:
                raise cur.error("unterminated composition argument list")
            inners.append(_parse_term(cur, env, depth + 1))
        cur.next()
        if not inners:
            raise cur.error("compose needs at least one argument", at)
        return Compose(outer, tuple(inners))
    if word == "primrec":
        base = _parse_term(cur, env, depth + 1)
        step = _parse_term(cur, env, depth + 1)
        return PrimRec(base, step)
    if word == "mu":
        return Mu(_parse_term(cur, env, depth + 1))
    if not _is_word(word):
        raise cur.error("expected a term", at)
    if word in _RESERVED:
        raise cur.error(f"{word!r} cannot appear inside a term", at)
    if word in env:
        return env[word]
    raise cur.error(f"unknown name {word!r}", at)


def _parse_functions(cur: _Cursor) -> dict[str, RecExpr]:
    env: dict[str, RecExpr] = {}
    while cur.tok:
        at = cur.row, cur.k
        if cur.next() != "def":
            raise cur.error("expected 'def'", at)
        at = cur.row, cur.k
        name = cur.next()
        if not _is_word(name):
            raise cur.error("expected a definition name", at)
        if name in _RESERVED:
            raise cur.error(f"{name!r} is reserved", at)
        if name in env:
            raise cur.error(f"duplicate definition {name!r}", at)
        cur.expect("=")
        term = _parse_term(cur, env, 1)
        try:
            arity(term)
        except ArityError as err:
            raise cur.error(f"in {name!r}: {err}", at) from None
        env[name] = term
    return env


# --- the machine grammar ----------------------------------------------------


def _parse_machine(lines: list[tuple[int, str]]) -> Machine:
    if not lines:
        raise ParseError("missing machine header", 1, 1)
    header_line, header = lines[0]
    fields = {}
    for token in header.split():
        key, _, text = token.partition("=")
        value = parse_natural(text)
        if key not in ("states", "alphabet", "start") or value is None:
            raise ParseError(f"malformed header field {token!r}", header_line, 1)
        if key in fields:
            raise ParseError(f"duplicate header field {key!r}", header_line, 1)
        fields[key] = value
    missing = {"states", "alphabet", "start"} - fields.keys()
    if missing:
        raise ParseError(f"header is missing {sorted(missing)}", header_line, 1)
    states, alphabet, start = fields["states"], fields["alphabet"], fields["start"]
    # Machine owns table validity: the header and then each line are
    # checked by building a machine from them.
    try:
        Machine(states, alphabet, {}, start)
    except MachineError:
        raise ParseError("header values out of range", header_line, 1) from None

    transitions: dict[tuple[int, int], tuple[int, str, int]] = {}
    for number, content in lines[1:]:
        parts = content.split()
        if len(parts) != 6 or parts[2] != "->":
            raise ParseError(
                "expected 'state symbol -> write move nextState'", number, 1
            )
        state_s, symbol_s, _, write_s, move, next_s = parts
        state, symbol, write, nxt = map(parse_natural, (state_s, symbol_s, write_s, next_s))
        if None in (state, symbol, write, nxt):
            raise ParseError("states and symbols must be naturals", number, 1)
        rule = {(state, symbol): (write, move, nxt)}
        try:
            Machine(states, alphabet, rule, start)
        except MachineError as err:
            raise ParseError(str(err), number, 1) from None
        if (state, symbol) in transitions:
            raise ParseError(f"duplicate transition for state {state} symbol {symbol}", number, 1)
        transitions.update(rule)
    return Machine(states, alphabet, transitions, start)


# --- program-level entry points ---------------------------------------------

MAIN_MACHINE = "main"


def parse_program(text: str) -> Program:
    """Parse either format into a Program.

    A text whose first significant line (after the optional version
    marker) is a machine header parses as a single machine named
    ``main``; anything else parses as function definitions.
    """
    return _parse(text, "")


def _parse(text: str, suffix: str) -> Program:
    """``.tm`` forces the machine grammar and ``.rf`` the function
    grammar; any other suffix, ``parse_program``'s empty one included,
    picks machines when the first line past the marker is a header."""
    cut = _cut_lines(text)
    lines, marker = _past_marker(cut)
    if suffix == ".tm" or (suffix != ".rf" and lines and lines[0][1].startswith("states=")):
        return Program(machines={MAIN_MACHINE: _parse_machine(lines)})
    # Only the cut lines, and one line's tokens, stay alive while the
    # terms are built.
    del lines
    return Program(functions=_parse_functions(_Cursor(cut, marker)))


def format_term(expr: RecExpr) -> str:
    """Canonical text for one term.

    The term is validated with ``arity`` first, so one the parser could
    not read back, such as a term nested deeper than ``MAX_TERM_DEPTH``,
    raises ArityError naming the offending path.
    """
    arity(expr)
    return _format(expr)


def _format(expr: RecExpr) -> str:
    t = type(expr)
    if t is Zero:
        return "zero"
    if t is Succ:
        return "succ"
    if t is Proj:
        return f"proj {expr.i} {expr.n}"
    if t is Compose:
        inner = " ".join(_wrap(g) for g in expr.inners)
        return f"compose {_wrap(expr.outer)} ({inner})"
    if t is PrimRec:
        return f"primrec {_wrap(expr.base)} {_wrap(expr.step)}"
    return f"mu {_wrap(expr.body)}"


def _wrap(expr: RecExpr) -> str:
    if type(expr) in (Zero, Succ):
        return _format(expr)
    return f"({_format(expr)})"


def format_machine(machine: Machine) -> str:
    lines = [
        f"format={FORMAT_VERSION}",
        f"states={machine.state_count} alphabet={machine.alphabet_size} start={machine.start_state}",
    ]
    for (state, symbol), (write, move, nxt) in sorted(machine.transitions.items()):
        lines.append(f"{state} {symbol} -> {write} {move} {nxt}")
    return "\n".join(lines) + "\n"


def format_program(program: Program) -> str:
    """Canonical text for a Program; the inverse of ``parse_program``.

    Function definitions print fully inlined (references were resolved
    at parse time).  A program holding exactly one machine under the
    conventional name prints in the machine format; mixing machines and
    functions in one text is not representable.
    """
    if program.machines and program.functions:
        raise ValueError("cannot format machines and functions into one text")
    if program.machines:
        if set(program.machines) != {MAIN_MACHINE}:
            raise ValueError(f"machine programs print a single machine named {MAIN_MACHINE!r}")
        return format_machine(program.machines[MAIN_MACHINE])
    lines = [f"format={FORMAT_VERSION}"]
    for name, expr in program.functions.items():
        lines.append(f"def {name} = {format_term(expr)}")
    return "\n".join(lines) + "\n"


def load_program(path: str | Path) -> Program:
    """Read and parse one file, dispatching on its extension.

    ``.tm`` forces the machine grammar and ``.rf`` the function grammar;
    anything else is sniffed like ``parse_program``.  Diagnostics are
    re-raised carrying the file's path.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"not valid UTF-8 ({err.reason})", 1, 1, p) from None
    try:
        return _parse(text, p.suffix)
    except ParseError as err:
        raise ParseError(err.reason, err.line, err.col, p) from None
