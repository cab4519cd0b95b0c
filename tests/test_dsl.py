"""Definition-file tests: parsing, printing, round-trips, diagnostics."""

import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haltlab.dsl import (
    MAIN_MACHINE,
    MAX_TERM_DEPTH,
    ParseError,
    Program,
    format_machine,
    format_program,
    format_term,
    load_program,
    parse_natural,
    parse_program,
)
from haltlab.machine import LEFT, RIGHT, Machine
from haltlab.proofs import _depends
from haltlab.recfun import (
    MONUS,
    ArityError,
    CompiledTerm,
    Compose,
    Proj,
    Succ,
    Zero,
    const_expr,
    evaluate,
    evaluate_costed,
    oracle_evaluate,
)
from tests.helpers import gen_expr, gen_machine

FIXTURES = "fixtures/trio"
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_parses_a_single_definition():
    prog = parse_program("def g = compose succ (proj 1 1)\n")
    assert prog == Program(functions={"g": Compose(Succ(), (Proj(1, 1),))})


def test_references_are_inlined_at_parse_time():
    text = "def one = compose succ (zero)\ndef two = compose succ (one)\n"
    prog = parse_program(text)
    assert prog.functions["two"] == Compose(Succ(), (Compose(Succ(), (Zero(),)),))


def test_fixture_definitions_match_the_library_combinators():
    prog = load_program(f"{FIXTURES}/find_zero.rf")
    assert set(prog.functions) == {"p2", "pred", "monus", "three", "g"}
    assert prog.functions["monus"] == MONUS
    assert prog.functions["three"] == const_expr(3, 1)
    assert prog.functions["g"] == Compose(MONUS, (const_expr(3, 1), Proj(1, 1)))


def test_parses_a_machine_file():
    prog = load_program(f"{FIXTURES}/runner.tm")
    assert prog.machines == {MAIN_MACHINE: Machine(1, 2, {(0, 0): (1, RIGHT, 0)})}
    assert prog.functions == {}


def test_format_line_is_optional():
    with_line = parse_program("format=1\nstates=1 alphabet=2 start=0\n0 0 -> 1 R 0\n")
    without = parse_program("states=1 alphabet=2 start=0\n0 0 -> 1 R 0\n")
    assert with_line == without


def test_canonical_term_printing():
    assert format_term(Zero()) == "zero"
    assert format_term(Succ()) == "succ"
    assert format_term(Proj(1, 2)) == "proj 1 2"
    # every argument-position term is wrapped, so a lone compound inner
    # carries its own parentheses inside the group's
    assert format_term(Compose(Succ(), (Proj(1, 1),))) == "compose succ ((proj 1 1))"


def test_machine_printing_orders_transitions():
    m = Machine(2, 2, {(1, 0): (0, LEFT, 0), (0, 0): (0, RIGHT, 1)})
    text = format_machine(m)
    assert text.index("0 0 ->") < text.index("1 0 ->")


def test_round_trip_on_all_shipped_files():
    for name in ("find_zero.rf", "nonzero_succ.rf", "nonzero_opaque.rf", "runner.tm", "bouncer.tm"):
        prog = load_program(f"{FIXTURES}/{name}")
        assert parse_program(format_program(prog)) == prog, name


def test_empty_program_round_trips():
    empty = Program()
    assert parse_program(format_program(empty)) == empty


def test_machine_programs_print_only_the_main_machine():
    two = Program(machines={"main": Machine(1, 2, {}), "other": Machine(1, 2, {})})
    with pytest.raises(ValueError):
        format_program(two)
    mixed = Program(
        functions={"g": Zero()},
        machines={"main": Machine(1, 2, {})},
    )
    with pytest.raises(ValueError):
        format_program(mixed)


def test_diagnostics_carry_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_program("def g = compose succ\n")
    # input ran out: the diagnostic points just past the last line
    assert (err.value.line, err.value.col) == (2, 1)
    assert "expected" in err.value.reason
    with pytest.raises(ParseError) as err:
        parse_program("def a = zero\ndef b = ~\n")
    assert err.value.line == 2
    assert err.value.col == 9
    # Each column counts from the start of its own line, a tab as one.
    for text, line, col, reason in [
        ("def g = proj x 1", 1, 14, "expected a projection index"),
        ("def g = proj 1 x", 1, 16, "expected a projection width"),
        ("def 1 = zero", 1, 5, "expected a definition name"),
        ("def\n(g) = zero", 2, 1, "expected a definition name"),
        ("format=1\r\ndef a = zero\r\n\tdef b = proj 1 x", 3, 17, "expected a projection width"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert (err.value.line, err.value.col, err.value.reason) == (line, col, reason), text


def test_diagnostics_at_a_token_on_an_earlier_line():
    # A diagnostic about a token read lines before the one the parser is
    # on still points at that token.
    for text, line, col, reason in [
        ("def g = compose succ\n()\n", 1, 9, "compose needs at least one argument"),
        (
            "def g = compose\n  succ\n  ((proj 1 1) (proj 1 1))\n",
            1,
            5,
            "in 'g': term: outer arity 1 does not match 2 inner functions",
        ),
        # A line is refused before any of its tokens is parsed, and the
        # line after a term's last token before that token is.
        ("def a = zero\ndef b = nope ~\n", 2, 14, "unexpected character '~'"),
        ("def a = nope\n~\n", 2, 1, "unexpected character '~'"),
        ("def a = compose succ (nope)\n~\n", 1, 23, "unknown name 'nope'"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert (err.value.line, err.value.col, err.value.reason) == (line, col, reason), text


def test_term_nesting_is_bounded_with_a_located_diagnostic():
    # Grouping parentheses nest without limit; only constructors count.
    assert parse_program("def g = " + "(" * 5000 + "zero" + ")" * 5000).functions == {"g": Zero()}
    with pytest.raises(ParseError) as err:
        parse_program("def g = " + "(" * 5000 + "zero")
    assert (err.value.line, err.value.col) == (1, 5013)

    nested = "def g = " + "compose succ (" * 5000 + "zero" + ")" * 5000
    with pytest.raises(ParseError, match=f"deeper than {MAX_TERM_DEPTH}") as err:
        parse_program(nested)
    # the succ of the 200th compose would be the 201st constructor down
    assert (err.value.line, err.value.col) == (1, 9 + 14 * (MAX_TERM_DEPTH - 1) + 8)

    # Names count with the nesting of the definition they inline, and the
    # diagnostic points at the name of the definition that goes too deep.
    chain = "def f0 = zero\n" + "".join(
        f"def f{k + 1} = compose succ (f{k})\n" for k in range(1999)
    )
    with pytest.raises(ParseError, match=f"deeper than {MAX_TERM_DEPTH}") as err:
        parse_program(chain)
    assert (err.value.line, err.value.col) == (MAX_TERM_DEPTH + 1, 5)

    # A term right at the bound still parses, evaluates and round-trips.
    lines = chain.splitlines()[:MAX_TERM_DEPTH]
    prog = parse_program("\n".join(lines))
    top = prog.functions[f"f{MAX_TERM_DEPTH - 1}"]
    assert evaluate(top, (0,), 10_000) == MAX_TERM_DEPTH - 1
    assert parse_program(format_program(prog)) == prog


def test_printing_holds_code_built_terms_to_the_nesting_bound():
    def tower(depth):
        term = Zero()
        for _ in range(depth - 1):
            term = Compose(Succ(), (term,))
        return term

    at_bound = Program(functions={"g": tower(MAX_TERM_DEPTH)})
    assert parse_program(format_program(at_bound)) == at_bound
    deepest = "term" + ".inners[0]" * (MAX_TERM_DEPTH - 1) + ".outer"
    for show in (format_term, lambda t: format_program(Program(functions={"g": t}))):
        with pytest.raises(ArityError, match=f"deeper than {MAX_TERM_DEPTH}") as err:
            show(tower(2000))
        assert err.value.path == deepest


def test_numbers_are_ascii_digits():
    # str.isdigit takes "\u00b2", which int rejects; it must be a located ParseError.
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_program("def g = proj \u00b2 1")
    assert (err.value.line, err.value.col) == (1, 14)
    with pytest.raises(ParseError, match="malformed header field") as err:
        parse_program("states=\u00b2 alphabet=2 start=0")
    assert (err.value.line, err.value.col) == (1, 1)
    with pytest.raises(ParseError, match="must be naturals") as err:
        parse_program("states=1 alphabet=2 start=0\n0 \u00b2 -> 1 R 0\n")
    assert err.value.line == 2
    # Past the interpreter's int conversion limit is a ParseError too.
    with pytest.raises(ParseError, match="too many digits") as err:
        parse_program("def g = proj " + "1" * 5000 + " 1")
    assert (err.value.line, err.value.col) == (1, 14)
    with pytest.raises(ParseError, match="malformed header field"):
        parse_program("states=" + "1" * 5000 + " alphabet=2 start=0")

    assert parse_natural("0042") == 42
    for text in ("", "\u00b2", "\u0663", "+4", "-3", " 4", "4.0", "1" * 5000):
        assert parse_natural(text) is None


def test_scanner_contract():
    # A name starts with a letter or "_" and goes on with any letter,
    # digit or "_" that str.isalnum takes, so "x²" is one name.
    assert parse_program("def é = zero").functions == {"é": Zero()}
    assert list(parse_program("def x² = zero\ndef g = x²").functions) == ["x²", "g"]
    with pytest.raises(ParseError, match="unexpected character '²'") as err:
        parse_program("def g = proj 1 1 ²")
    assert (err.value.line, err.value.col) == (1, 18)
    # every character is one column, a tab too
    with pytest.raises(ParseError) as err:
        parse_program("def g =\t\t~")
    assert (err.value.line, err.value.col) == (1, 10)
    # the end of the input sits where its last line's text stops, before a comment
    with pytest.raises(ParseError, match="unterminated composition") as err:
        parse_program("def g = compose succ (zero # c")
    assert (err.value.line, err.value.col) == (1, 28)


def test_bad_projection_is_reported_with_the_definition_name():
    with pytest.raises(ParseError, match="g"):
        parse_program("def g = proj 4 3\n")


def test_name_discipline():
    with pytest.raises(ParseError, match="unknown name"):
        parse_program("def g = h\n")
    with pytest.raises(ParseError, match="duplicate definition"):
        parse_program("def g = zero\ndef g = succ\n")
    with pytest.raises(ParseError, match="reserved"):
        parse_program("def mu = zero\n")


def test_machine_diagnostics():
    header = "states=1 alphabet=2 start=0\n"
    with pytest.raises(ParseError):
        parse_program("states=1 alphabet=2\n")  # missing start
    with pytest.raises(ParseError):
        parse_program(header + "0 2 -> 0 R 0\n")  # scanned symbol range
    with pytest.raises(ParseError):
        parse_program(header + "0 0 -> 2 R 0\n")  # written symbol range
    with pytest.raises(ParseError):
        parse_program(header + "0 0 -> 0 U 0\n")  # move letter
    with pytest.raises(ParseError):
        parse_program(header + "0 0 -> 0 R 1\n")  # next state range
    with pytest.raises(ParseError, match="duplicate"):
        parse_program(header + "0 0 -> 0 R 0\n0 0 -> 1 R 0\n")


def test_shared_definitions_cost_their_distinct_nodes():
    # Each line uses the previous definition twice, so the unfolded term
    # doubles with every line: d60 has about 2**60 nodes as a tree.
    lines = ["def add = primrec (proj 1 1) (compose succ (proj 3 3))", "def d0 = proj 1 1"]
    lines += [f"def d{i} = compose add (d{i - 1} d{i - 1})" for i in range(1, 61)]
    started = time.perf_counter()
    functions = parse_program("\n".join(lines) + "\n").functions
    term = functions["d60"]
    compiled = CompiledTerm(term)
    assert compiled.arity == 1
    assert _depends(term, 1, {}) == frozenset({1})
    assert evaluate_costed(compiled, (1,), 10**5) == (None, 10**5)
    assert time.perf_counter() - started < 1.0
    # d_k(x) = 2**k * x, by both evaluators.
    assert evaluate(functions["d3"], (5,), 10**4) == oracle_evaluate(functions["d3"], (5,), 10**4) == 40


@pytest.mark.parametrize(
    "name, text, reason",
    [
        ("g.rf", "def g = compose succ (proj 1 1", "unterminated composition argument list"),
        ("g.rf", "def g = compose succ ()\n", "compose needs at least one argument"),
        ("g.rf", "def g = compose succ (def)\n", "'def' cannot appear inside a term"),
        ("g.rf", "format=2\ndef g = zero\n", "unsupported format version '2'"),
        ("m.tm", "format=2\nstates=1 alphabet=2 start=0\n", "unsupported format version '2'"),
        ("m.tm", "format = 2\nstates=1 alphabet=2 start=0\n", "unsupported format version '2'"),
        ("m.tm", "format\t=\t2\nstates=1 alphabet=2 start=0\n", "unsupported format version '2'"),
        # The marker's value is the rest of its own line, in every format.
        ("g.rf", "format=\ndef g = zero\n", "line 1, column 1: unsupported format version ''"),
        ("g.rf", "format\n=\n1\ndef g = zero\n", "line 1, column 1: unsupported format version ''"),
        ("m.tm", "format\n=\n1\nstates=1 alphabet=2 start=0\n", "line 1, column 1: unsupported format version ''"),
        ("m.tm", "for mat=1\nstates=1 alphabet=2 start=0\n", "line 1, column 1: malformed header field 'for'"),
        ("m.tm", "states=1 start=0\n", r"header is missing \['alphabet'\]"),
        ("m.tm", "states=1 alphabet=2 start=0 states=2\n", "duplicate header field 'states'"),
        ("m.tm", "states=0 alphabet=2 start=0\n", "header values out of range"),
        ("m.tm", "states=1 alphabet=0 start=0\n", "header values out of range"),
        ("m.tm", "states=2 alphabet=2 start=2\n", "header values out of range"),
        ("m.tm", "states=1 alphabet=2 start=0\n0 0 -> 1 R\n", "expected 'state symbol -> write move nextState'"),
        (
            "m.tm",
            "states=2 alphabet=2 start=0\n0 0 -> 1 R 1\n\n# past the header\n1 0 -> 0 L 2\n",
            r"line 5, column 1: transition \(1, 0\): next state 2 out of range",
        ),
        ("m.tm", "", "line 1, column 1: missing machine header"),
        ("m.tm", "# only a comment\n", "line 1, column 1: missing machine header"),
    ],
)
def test_function_and_machine_file_diagnostics(tmp_path, name, text, reason):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=reason):
        load_program(path)


def test_load_program_dispatches_on_suffix(tmp_path):
    # known suffixes force their grammar; anything else is sniffed
    functions_text = "def g = zero\n"
    machine_text = "states=1 alphabet=2 start=0\n0 0 -> 1 R 0\n"
    forced_tm = tmp_path / "prog.tm"
    forced_tm.write_text(functions_text, encoding="utf-8")
    with pytest.raises(ParseError):
        load_program(forced_tm)
    forced_rf = tmp_path / "prog.rf"
    forced_rf.write_text(machine_text, encoding="utf-8")
    with pytest.raises(ParseError):
        load_program(forced_rf)
    sniffed = tmp_path / "prog.txt"
    sniffed.write_text(functions_text, encoding="utf-8")
    assert load_program(sniffed).functions["g"] == Zero()


def test_sniffing_agrees_with_the_suffix_on_every_shipped_and_generated_file(tmp_path, monkeypatch):
    # The seed-1 benchmark corpus, with the shipped fixtures copied in.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import corpus

    corpus.build(tmp_path / "corpus", 1)
    paths = sorted(p for p in (tmp_path / "corpus").iterdir() if p.suffix in (".rf", ".tm"))
    assert len(paths) > 50
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert text.startswith("format=1\n"), path
        # CRLF everywhere, and a lone CR that joins the marker to the
        # next line for the function grammar's tokens.
        for variant in (text, text.replace("\n", "\r\n"), text.replace("\n", "\r", 1)):
            path.write_bytes(variant.encode("utf-8"))
            assert parse_program(variant) == load_program(path), (path.name, variant[:12])


def test_function_lines_and_comments_end_at_every_line_break_of_splitlines():
    # A comment stops at a lone CR, so the marker behind it is read, and
    # its line skipped by the function grammar's tokens.
    text = "# note\rformat=1\rdef g = zero\fdef h = succ # c\u2028def k = g\r\n"
    assert parse_program(text) == Program(functions={"g": Zero(), "h": Succ(), "k": Zero()})
    with pytest.raises(ParseError, match="line 3, column 9: expected a term"):
        parse_program("def g = zero\r\ndef h = succ\x85def k = ")


def test_load_program_rejects_binary_garbage(tmp_path):
    path = tmp_path / "prog.rf"
    path.write_bytes(b"\xff\xfe\x00 def g = zero")
    with pytest.raises(ParseError):
        load_program(path)


def test_load_program_propagates_missing_files():
    with pytest.raises(OSError):
        load_program("/nonexistent/missing.rf")


def test_diagnostics_name_the_file(tmp_path):
    path = tmp_path / "broken.rf"
    path.write_text("def g = compose\n", encoding="utf-8")
    with pytest.raises(ParseError, match="broken.rf"):
        load_program(path)


def test_fuzz_inputs_never_crash_the_parser():
    rng = random.Random(0xFADED)
    alphabet = "defzsucomprimu()=->0123456789 \t\n#~\\\"'[]{}.:;"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        try:
            result = parse_program(text)
        except ParseError:
            continue
        assert isinstance(result, Program)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_generated_function_programs_round_trip(seed):
    rng = random.Random(seed)
    functions = {}
    for index in range(rng.randint(1, 3)):
        functions[f"f{index}"] = gen_expr(rng, rng.randint(1, 3), rng.randint(0, 3))
    prog = Program(functions=functions)
    assert parse_program(format_program(prog)) == prog


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_generated_machine_programs_round_trip(seed):
    rng = random.Random(seed)
    machine = gen_machine(rng, rng.randint(1, 4), rng.randint(1, 4))
    prog = Program(machines={MAIN_MACHINE: machine})
    assert parse_program(format_program(prog)) == prog
