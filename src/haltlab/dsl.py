"""Parsing and printing for the two little text formats.

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

from dataclasses import dataclass, field
from pathlib import Path

from .machine import Machine, MachineError, MOVES
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


# --- tokenizing the function grammar ---------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # "word", "int", "punct", "end"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()=":
            tokens.append(_Token("punct", c, line, col))
            col += 1
            i += 1
        elif "0" <= c <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("word", text[i:j], line, col))
            col += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect_punct(self, text: str) -> _Token:
        tok = self.next()
        if tok.kind != "punct" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.line, tok.col)
        return tok

    def expect_int(self, what: str) -> int:
        tok = self.next()
        if tok.kind != "int":
            raise ParseError(f"expected {what}", tok.line, tok.col)
        value = parse_natural(tok.text)
        if value is None:
            raise ParseError(f"{what} has too many digits", tok.line, tok.col)
        return value


def _parse_term(cur: _Cursor, env: dict[str, RecExpr], depth: int) -> RecExpr:
    """A term ``depth`` constructors deep; grouping parentheses loop, not recurse."""
    opened = 0
    while cur.peek().kind == "punct" and cur.peek().text == "(":
        cur.next()
        opened += 1
    term = _parse_constructor(cur, env, depth)
    for _ in range(opened):
        cur.expect_punct(")")
    return term


def _parse_constructor(cur: _Cursor, env: dict[str, RecExpr], depth: int) -> RecExpr:
    tok = cur.next()
    if depth > MAX_TERM_DEPTH:
        raise ParseError(f"term nests deeper than {MAX_TERM_DEPTH}", tok.line, tok.col)
    if tok.kind != "word":
        raise ParseError("expected a term", tok.line, tok.col)
    word = tok.text
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
        cur.expect_punct("(")
        inners = []
        while not (cur.peek().kind == "punct" and cur.peek().text == ")"):
            if cur.peek().kind == "end":
                raise ParseError(
                    "unterminated composition argument list",
                    cur.peek().line,
                    cur.peek().col,
                )
            inners.append(_parse_term(cur, env, depth + 1))
        cur.expect_punct(")")
        if not inners:
            raise ParseError("compose needs at least one argument", tok.line, tok.col)
        return Compose(outer, tuple(inners))
    if word == "primrec":
        base = _parse_term(cur, env, depth + 1)
        step = _parse_term(cur, env, depth + 1)
        return PrimRec(base, step)
    if word == "mu":
        return Mu(_parse_term(cur, env, depth + 1))
    if word in _RESERVED:
        raise ParseError(f"{word!r} cannot appear inside a term", tok.line, tok.col)
    if word in env:
        return env[word]
    raise ParseError(f"unknown name {word!r}", tok.line, tok.col)


def _parse_version(cur: _Cursor) -> None:
    if (
        cur.peek().kind == "word"
        and cur.peek().text == "format"
        and cur.peek(1).kind == "punct"
        and cur.peek(1).text == "="
    ):
        tok = cur.next()
        cur.next()
        version = cur.expect_int("a format version")
        if version != FORMAT_VERSION:
            raise ParseError(f"unsupported format version {version}", tok.line, tok.col)


def _parse_functions(text: str) -> dict[str, RecExpr]:
    cur = _Cursor(_tokenize(text))
    _parse_version(cur)
    env: dict[str, RecExpr] = {}
    while cur.peek().kind != "end":
        tok = cur.next()
        if tok.kind != "word" or tok.text != "def":
            raise ParseError("expected 'def'", tok.line, tok.col)
        name_tok = cur.next()
        if name_tok.kind != "word":
            raise ParseError("expected a definition name", name_tok.line, name_tok.col)
        name = name_tok.text
        if name in _RESERVED:
            raise ParseError(f"{name!r} is reserved", name_tok.line, name_tok.col)
        if name in env:
            raise ParseError(f"duplicate definition {name!r}", name_tok.line, name_tok.col)
        cur.expect_punct("=")
        term = _parse_term(cur, env, 1)
        try:
            arity(term)
        except ArityError as err:
            raise ParseError(f"in {name!r}: {err}", name_tok.line, name_tok.col) from None
        env[name] = term
    return env


# --- the machine grammar ----------------------------------------------------


def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((number, stripped))
    return out


def _parse_machine(text: str) -> Machine:
    lines = _significant_lines(text)
    version = "".join(lines[0][1].split()) if lines else ""
    if version == f"format={FORMAT_VERSION}":
        lines = lines[1:]
    elif version.startswith("format="):
        number, content = lines[0]
        raise ParseError(f"unsupported format version in {content!r}", number, 1)
    if not lines:
        raise ParseError("missing machine header", 1, 1)
    header_line, header = lines[0]
    fields = {}
    for token in header.split():
        if "=" not in token:
            raise ParseError(f"malformed header field {token!r}", header_line, 1)
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
    if states < 1 or alphabet < 1 or not 0 <= start < states:
        raise ParseError("header values out of range", header_line, 1)

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
        if move not in MOVES:
            raise ParseError(f"move must be L or R, got {move!r}", number, 1)
        if state >= states or nxt >= states:
            raise ParseError(f"state out of range in {content!r}", number, 1)
        if symbol >= alphabet or write >= alphabet:
            raise ParseError(f"symbol out of range in {content!r}", number, 1)
        if (state, symbol) in transitions:
            raise ParseError(f"duplicate transition for state {state} symbol {symbol}", number, 1)
        transitions[(state, symbol)] = (write, move, nxt)
    try:
        return Machine(states, alphabet, transitions, start)
    except MachineError as err:  # pragma: no cover - line checks catch these first
        raise ParseError(str(err), header_line, 1) from None


# --- program-level entry points ---------------------------------------------

MAIN_MACHINE = "main"


def parse_program(text: str) -> Program:
    """Parse either format into a Program.

    A text whose first significant line (after the optional version
    marker) is a machine header parses as a single machine named
    ``main``; anything else parses as function definitions.
    """
    lines = _significant_lines(text)
    probe = 0
    if lines and "".join(lines[0][1].split()).startswith("format="):
        probe = 1
    if probe < len(lines) and lines[probe][1].startswith("states="):
        return Program(machines={MAIN_MACHINE: _parse_machine(text)})
    return Program(functions=_parse_functions(text))


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
        if p.suffix == ".tm":
            return Program(machines={MAIN_MACHINE: _parse_machine(text)})
        if p.suffix == ".rf":
            return Program(functions=_parse_functions(text))
        return parse_program(text)
    except ParseError as err:
        raise ParseError(err.reason, err.line, err.col, p) from None
