"""DSL parsing, serialization, and the parse∘serialize∘parse round trip."""

from __future__ import annotations

import json
import random

import pytest

from avasskit.errors import ParseError
from avasskit.frontend import (
    machine_to_json_obj,
    parse_clause,
    parse_configuration,
    parse_formula,
    parse_formula_file,
    parse_machine,
    render_bool,
    render_state_sets,
    serialize_formula,
    serialize_machine,
)
from avasskit.machine import (
    AffineMap1,
    AffineMapD,
    Configuration,
    Machine,
    MinskyOp,
    RelationalUpdate,
    Transition,
    relational_variables,
)
from avasskit.presburger import (
    And,
    Comparison,
    Congruence,
    FALSE,
    LinearTerm,
    Not,
    Or,
    TRUE,
    evaluate,
)
from avasskit.semiset import Clause, from_values, interval


M1_SOURCE = """\
machine M1
dim 1
state q1 init
state q2
trans q1 -> q2 : x' = 1x + -13
trans q1 -> q1 : x' = -1x + 19
trans q2 -> q2 : x' = 1x + -3
trans q2 -> q1 : x' = 1x + 0
"""


def test_parse_m1_structure():
    m = parse_machine(M1_SOURCE)
    assert m.name == "M1"
    assert m.dimension == 1
    assert m.states == ("q1", "q2")
    assert m.initial == "q1"
    assert [
        (t.source, t.target, t.payload.a, t.payload.b) for t in m.transitions
    ] == [
        ("q1", "q2", 1, -13),
        ("q1", "q1", -1, 19),
        ("q2", "q2", 1, -3),
        ("q2", "q1", 1, 0),
    ]


def test_round_trip_m1():
    m = parse_machine(M1_SOURCE)
    text = serialize_machine(m)
    again = parse_machine(text)
    assert again == m
    assert serialize_machine(again) == text  # serialization is a fixpoint


def test_serialized_m1_is_byte_stable():
    m = parse_machine(M1_SOURCE)
    assert serialize_machine(m) == M1_SOURCE


def test_parse_comments_and_blank_lines():
    src = "# header\nmachine m\n\ndim 1  # one counter\nstate a init\n# done\n"
    m = parse_machine(src)
    assert m.name == "m" and m.states == ("a",)


def test_parse_guard_suffix():
    src = ("machine g\ndim 1\nstate a init\nstate b\n"
           "trans a -> b : x' = 1x + 1 ; guard [0..19] mod 2 = 1\n")
    m = parse_machine(src)
    g = m.transitions[0].payload.guard
    assert g == Clause(0, 19, 2, 1)
    assert parse_machine(serialize_machine(m)) == m


def test_parse_guard_without_mod_part():
    src = ("machine g\ndim 1\nstate a init\n"
           "trans a -> a : x' = 1x + -1 ; guard [5..]\n")
    g = parse_machine(src).transitions[0].payload.guard
    assert g == Clause(5, None, 1, 0)


def test_parse_matrix_payload():
    src = ("machine d\ndim 2\nstate a init\nstate b\n"
           "trans a -> b : A = [[2,0],[0,1]] ; b = [1,1]\n")
    m = parse_machine(src)
    p = m.transitions[0].payload
    assert p == AffineMapD(((2, 0), (0, 1)), (1, 1))
    assert parse_machine(serialize_machine(m)) == m


def test_parse_minsky_payloads():
    src = ("machine c\ndim 2\nstate a init\n"
           "trans a -> a : inc 1\ntrans a -> a : dec 2\ntrans a -> a : zero? 1\n")
    m = parse_machine(src)
    assert [(t.payload.op, t.payload.counter) for t in m.transitions] == [
        ("inc", 1), ("dec", 2), ("zero", 1)]
    assert parse_machine(serialize_machine(m)) == m


def test_parse_relational_payload():
    src = ("machine r\ndim 1\nstate a init\nstate b\n"
           "trans a -> b : formula not (x = 0 mod 3) and x' = x\n")
    m = parse_machine(src)
    f = m.transitions[0].payload.formula
    assert isinstance(f, And) and isinstance(f.children[0], Not)
    assert evaluate(f, {"x": 4, "x'": 4})
    assert not evaluate(f, {"x": 3, "x'": 3})
    assert not evaluate(f, {"x": 4, "x'": 5})
    assert parse_machine(serialize_machine(m)) == m


# --- error reporting ---------------------------------------------------------

def err(src) -> ParseError:
    with pytest.raises(ParseError) as ei:
        parse_machine(src)
    return ei.value


def test_error_spans():
    e = err("machine m\nbogus q\n")
    assert e.span.line == 2 and e.span.column == 1

    e = err("machine m\ndim 1\nstate a init\ntrans a -> zz : x' = 1x + 0\n")
    assert e.span.line == 4
    assert "zz" in e.message

    e = err("machine m\ndim 1\nstate a init\ntrans a -> a : x' = 1y + 0\n")
    assert e.span.line == 4 and "unbound" in e.message

    e = err("machine m\ndim 1\nstate a init\ntrans a -> a : x' = 1x + 0 ; guard [..]\n")
    assert e.span.line == 4

    e = err("dim 1\nmachine m\n")
    assert e.span.line == 1


def test_error_declaration_before_machine():
    for line in ("dim 1", "state a init", "trans a -> a : x' = 1x + 0"):
        e = err(f"# header\n  {line}\nmachine m\n")
        assert e.message == "machine declaration must come first"
        assert (e.span.line, e.span.column) == (2, 3)
    assert err("# header\n  bogus 1\nmachine m\n").message == "unknown directive 'bogus'"


def test_error_byte_offset_tracks_lines():
    e = err("machine m\nbogus\n")
    assert e.span.offset == len("machine m\n".encode())


def test_error_duplicate_declarations():
    assert "twice" in err("machine m\ndim 1\nstate a init\nstate a\n").message
    assert "second" in err("machine m\nmachine n\n").message
    assert "initial" in err("machine m\nstate a init\nstate b init\n").message


def test_error_missing_machine():
    assert "no machine" in err("# nothing here\n").message


def test_error_matrix_on_wrong_dimension():
    e = err("machine m\ndim 2\nstate a init\ntrans a -> a : A = [[1]] ; b = [1]\n")
    assert "2x2" in e.message or "2 integers" in e.message


def test_error_mod_zero():
    with pytest.raises(ParseError) as ei:
        parse_formula("x = 0 mod 0")
    assert "modulus" in ei.value.message


def test_error_mod_needs_equality():
    with pytest.raises(ParseError) as ei:
        parse_formula("x <= y mod 2")
    assert "=" in ei.value.message



# --- pinned error table --------------------------------------------------------
# (message, line, column, byte offset) of the ParseError each malformed text
# raises; the figures are the frontend's before its tokenizer became one
# finditer pass, so any drift in a message or a span shows here.

H1 = "machine m\ndim 1\nstate a init\nstate b\n"
H2 = "machine m\ndim 2\nstate a init\n"

PINNED_MACHINE_ERRORS = [
    ('bogus q\n',
     ("unknown directive 'bogus'", 1, 1, 0)),
    ('machine m\nbogus q\n',
     ("unknown directive 'bogus'", 2, 1, 10)),
    ('dim 1\nmachine m\n',
     ('machine declaration must come first', 1, 1, 0)),
    ('  state a init\nmachine m\n',
     ('machine declaration must come first', 1, 3, 2)),
    ('machine m\nmachine n\n',
     ('second machine declaration', 2, 1, 10)),
    ('machine\n',
     ('expected: machine NAME', 1, 1, 0)),
    ('machine a b\n',
     ('expected: machine NAME', 1, 1, 0)),
    ('machine m\ndim 0\n',
     ('expected: dim D with D >= 1', 2, 1, 10)),
    ('machine m\ndim x\n',
     ('expected: dim D with D >= 1', 2, 1, 10)),
    ('machine m\ndim\n',
     ('expected: dim D with D >= 1', 2, 1, 10)),
    ('machine m\ndim 1\ndim 1\n',
     ('second dim declaration', 3, 1, 16)),
    ('machine m\nstate\n',
     ('expected: state NAME [init]', 2, 1, 10)),
    ('machine m\nstate a b\n',
     ('expected: state NAME [init]', 2, 1, 10)),
    ('machine m\nstate a init x\n',
     ('expected: state NAME [init]', 2, 1, 10)),
    ('machine m\nstate a\nstate a\n',
     ("state 'a' declared twice", 3, 1, 18)),
    ('machine m\nstate a init\nstate b init\n',
     ('two initial states', 3, 1, 23)),
    ('# nothing here\n',
     ('no machine declaration found', 1, 1, 0)),
    ('',
     ('no machine declaration found', 1, 1, 0)),
    (H1 + 'trans a b\n',
     ('expected: trans SRC -> TGT : payload', 5, 6, 42)),
    (H1 + 'trans a -> b\n',
     ('expected: trans SRC -> TGT : payload', 5, 6, 42)),
    (H1 + "trans a -> zz : x' = 1x + 0\n",
     ("state 'zz' not declared before use", 5, 12, 48)),
    (H1 + "  trans zz -> a : x' = 1x + 0\n",
     ("state 'zz' not declared before use", 5, 9, 45)),
    (H1 + 'trans a -> b :\n',
     ('empty transition payload', 5, 15, 51)),
    (H1 + 'trans a -> b :   # empty\n',
     ('empty transition payload', 5, 15, 51)),
    (H1 + 'trans a -> b : x = 1x + 0\n',
     ("expected x' on the left of an affine update", 5, 16, 52)),
    (H1 + "trans a -> b : x' 1x\n",
     ("expected '='", 5, 19, 55)),
    (H1 + "trans a -> b : x' = 1y + 0\n",
     ("unbound variable 'y'", 5, 22, 58)),
    (H1 + "trans a -> b : x' = 1x + x'\n",
     ("x' may appear only on the left", 5, 15, 51)),
    (H1 + "trans a -> b : x' = 1x + 0 0\n",
     ('trailing input after affine update', 5, 28, 64)),
    (H1 + "trans a -> b : x' = 1x + @\n",
     ("unexpected character '@'", 5, 26, 62)),
    (H1 + "trans a -> b : x' =\n",
     ('expected a number or variable', 5, 20, 56)),
    (H1 + "trans a -> b : x' = 1x + -\n",
     ('expected a number or variable', 5, 27, 63)),
    (H1 + "trans a -> b : x' = 2 * 3\n",
     ('trailing input after affine update', 5, 25, 61)),
    (H2 + "trans a -> a : x' = 1x + 0\n",
     ('scalar affine payload needs dim 1; use A = …; b = …', 4, 16, 44)),
    (H1 + "trans a -> b : x' = 1x + 0 ; guard [..]\n",
     ('expected a clause like [lo..hi] mod m = r', 5, 35, 71)),
    (H1 + "trans a -> b : x' = 1x + 0 ;  gaurd [0..1]\n",
     ('expected: ; guard [lo..hi] mod m = r', 5, 31, 67)),
    (H1 + "trans a -> b : x' = 1x + 0 ; guard [0..5] mod 0 = 0\n",
     ('modulus must be positive', 5, 35, 71)),
    (H1 + "trans a -> b : x' = 1x + 0 ; guard [0..5] mod 2 = 1 x\n",
     ('expected a clause like [lo..hi] mod m = r', 5, 35, 71)),
    (H1 + "trans a -> b : x' = 1x + 0 ; guard\n",
     ('expected a clause like [lo..hi] mod m = r', 5, 35, 71)),
    (H1 + "trans a -> b : x' = 1x + 0 ; guard [0..5] ; guard [1..2]\n",
     ('expected a clause like [lo..hi] mod m = r', 5, 35, 71)),
    (H2 + 'trans a -> a : inc 0\n',
     ('counter 0 out of range for dimension 2', 4, 16, 44)),
    (H2 + 'trans a -> a : dec 3\n',
     ('counter 3 out of range for dimension 2', 4, 16, 44)),
    (H2 + 'trans a -> a : zero? 9\n',
     ('counter 9 out of range for dimension 2', 4, 16, 44)),
    (H2 + 'trans a -> a : inc\n',
     ('scalar affine payload needs dim 1; use A = …; b = …', 4, 16, 44)),
    (H2 + 'trans a -> a : A = [[1,0],[0,1]]\n',
     ('matrix payload is A = [[..]] ; b = [..]', 4, 15, 43)),
    (H2 + 'trans a -> a : A = [[1,0],[0,1]] ; b = [1,1] ; c\n',
     ('matrix payload is A = [[..]] ; b = [..]', 4, 15, 43)),
    (H2 + 'trans a -> a : A = [[1,0],[0,1]] ; c = [1,1]\n',
     ('expected b = …', 4, 35, 63)),
    (H2 + 'trans a -> a : A = [[1,0],[0,1] ; b = [1,1]\n',
     ("bad A vector/matrix: Expecting ',' delimiter", 4, 20, 48)),
    (H2 + 'trans a -> a : A = [[1,0],[0,1]] ; b = [1,x]\n',
     ('bad b vector/matrix: Expecting value', 4, 40, 68)),
    (H2 + 'trans a -> a : A = [[1,0],[0,1]] ; b = [1]\n',
     ('b must be a list of 2 integers', 4, 15, 43)),
    (H2 + 'trans a -> a : A = [[1,0]] ; b = [1,1]\n',
     ('A must be a 2x2 integer matrix', 4, 15, 43)),
    (H2 + 'trans a -> a : A = [[1,0],[0,1.5]] ; b = [1,1]\n',
     ('A must be a 2x2 integer matrix', 4, 15, 43)),
    (H2 + 'trans a -> a : A= ; b = [1,1]\n',
     ('bad A vector/matrix: Expecting value', 4, 19, 47)),
    (H2 + 'trans a -> a :   Ax = [[1,0],[0,1]] ; b = [1,1]\n',
     ('expected A = …', 4, 15, 43)),
    (H1 + "trans a -> b : formula x' = y\n",
     ("unbound variable 'y'", 5, 29, 65)),
    (H1 + "trans a -> b : formula x' = 2x extra\n",
     ('trailing input after formula', 5, 32, 68)),
    (H1 + "trans a -> b : formula x' = 2x and\n",
     ('expected a number or variable', 5, 35, 71)),
    (H1 + "trans a -> b : formula x' = 2x mod 0\n",
     ('modulus must be positive', 5, 36, 72)),
    (H1 + "trans a -> b : formula x' < 2x mod 3\n",
     ("congruences use '='", 5, 27, 63)),
    (H1 + "trans a -> b : formula (x' = x\n",
     ("expected ')'", 5, 31, 67)),
    (H1 + "trans a -> b : formula x' x\n",
     ('expected a comparison operator', 5, 27, 63)),
    (H1 + "trans a -> b : formula x' = x mod y\n",
     ('expected a modulus', 5, 35, 71)),
    (H1 + "trans a -> b : formula x' = x $\n",
     ("unexpected character '$'", 5, 31, 67)),
    (H2 + "trans a -> a : formula x1' = x\n",
     ("unbound variable 'x'", 4, 30, 58)),
    (H1 + "trans a -> b : inc 1\ntrans a -> b : x' = 1x + 0\n",
     ("one machine must keep to one flavor, found ['affine1', 'minsky']", 1, 1, 0)),
    ("# über ∀ machines\nmachine m\nstate é init\ntrans é -> é : x' = 1x + 0\n",
     ('expected: trans SRC -> TGT : payload', 4, 6, 50)),
    ("machine m\n# café\ndim 1\nstate a init\ntrans a -> a : x' = 1x + ü\n",
     ("unexpected character 'ü'", 5, 26, 62)),
    ("machine m\ndim 1\nstate a init\ntrans a -> a : formula x' = x and é = 1\n",
     ("unexpected character 'é'", 4, 35, 63)),
    ("machine m\ndim 1\nstate a init\ntrans a -> a : x' = 1x + 0 ; guard ·[0..1]\n",
     ('expected a clause like [lo..hi] mod m = r', 4, 35, 63)),
    ('machine 機\ndim 1\nstate a init\n\u00a0bogus\n',
     ("unknown directive 'bogus'", 4, 2, 33)),
]

PINNED_FORMULA_ERRORS = [
    ('',
     ('empty formula', 1, 1, 0)),
    ('# only a comment\n',
     ('empty formula', 1, 1, 0)),
    ('x <= y\ny <= x\n',
     ('expected exactly one formula line', 2, 1, 7)),
    ('vars\nx <= y\n',
     ('expected: vars NAME NAME …', 1, 1, 0)),
    ('vars x x\nx <= y\n',
     ('expected: vars NAME NAME …', 1, 1, 0)),
    ('vars x y\nx <= z\n',
     ("unbound variable 'z'", 2, 6, 14)),
    ('vars x y\n',
     ('expected exactly one formula line', 2, 1, 9)),
    ('x <= y extra',
     ('trailing input after formula', 1, 8, 7)),
    ('x = 0 mod 0',
     ('modulus must be positive', 1, 11, 10)),
    ('x <= y mod 2',
     ("congruences use '='", 1, 3, 2)),
    ('x <= 3 mod',
     ('expected a modulus', 1, 11, 10)),
    ('x +',
     ('expected a number or variable', 1, 4, 3)),
    ('(x <= y',
     ("expected ')'", 1, 8, 7)),
    ('x y',
     ('expected a comparison operator', 1, 3, 2)),
    ('not',
     ('expected a number or variable', 1, 4, 3)),
    ('x ! y',
     ("unexpected character '!'", 1, 3, 2)),
    ('  x <= 3 and y',
     ('expected a comparison operator', 1, 15, 14)),
    ('x <= 3 ∧ y >= 1',
     ("unexpected character '∧'", 1, 8, 7)),
    ('# über\nvars x\nx <= é',
     ("unexpected character 'é'", 3, 6, 20)),
]


def _error_row(parse, text):
    with pytest.raises(ParseError) as ei:
        parse(text)
    e = ei.value
    return (e.message, e.span.line, e.span.column, e.span.offset)


@pytest.mark.parametrize("text,expected", PINNED_MACHINE_ERRORS)
def test_pinned_machine_errors(text, expected):
    assert _error_row(parse_machine, text) == expected


@pytest.mark.parametrize("text,expected", PINNED_FORMULA_ERRORS)
def test_pinned_formula_errors(text, expected):
    assert _error_row(parse_formula_file, text) == expected



# --- whitespace ------------------------------------------------------------------
# Every whitespace character separates tokens, as str.split() and strip()
# treat it in directives; a \r, \v or \f used to end the expression silently.

def test_carriage_return_inside_an_affine_update_separates_tokens():
    src = "machine m\ndim 1\nstate q init\ntrans q -> q : x' = 1x\r+ 5\n"
    assert parse_machine(src).transitions[0].payload == AffineMap1(1, 5)


def test_vertical_tab_inside_a_formula_separates_tokens():
    f = parse_formula("x <= 3\v and x >= 9")
    assert isinstance(f, And) and len(f.children) == 2
    assert not evaluate(f, {"x": 3}) and not evaluate(f, {"x": 9})
    assert parse_formula("x\f<=\u00a03") == parse_formula("x <= 3")


def test_whitespace_before_a_bad_character_is_skipped():
    with pytest.raises(ParseError) as ei:
        parse_formula("x <=\r\v @")
    assert ei.value.message == "unexpected character '@'"
    assert (ei.value.span.column, ei.value.span.offset) == (8, 7)


def test_any_whitespace_ends_a_directive_head():
    spaced = "machine m\ndim 1\nstate a init\nstate b\ntrans a -> b : x' = 1x + 2\n"
    tabbed = "machine\tm\ndim\t1\nstate\ta\tinit\nstate \t b\ntrans\ta -> b : x' = 1x + 2\n"
    assert parse_machine(tabbed) == parse_machine(spaced)


@pytest.mark.parametrize("sep", ["\t", "\u00a0"])
def test_machine_name_with_whitespace_is_rejected(sep):
    assert _error_row(parse_machine, f"machine m{sep}x\n") == (
        "expected: machine NAME", 1, 1, 0)

# --- seeded machine round trip -------------------------------------------------

def _random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.45:
        t = LinearTerm.build({v: rng.randint(-3, 3) for v in names}, rng.randint(-9, 9))
        if rng.random() < 0.3:
            return Congruence(t, rng.randint(1, 5))
        return Comparison(t, rng.choice(["<=", "<", "=", ">=", ">"]))
    r = rng.random()
    if r < 0.25:
        return Not(_random_formula(rng, names, depth - 1))
    # single-child And/Or have no surface syntax, so stay parser-shaped
    kids = tuple(_random_formula(rng, names, depth - 1) for _ in range(rng.randint(2, 3)))
    return And(kids) if r < 0.65 else Or(kids)


def _random_payload(rng, flavor, dim):
    if flavor == "affine1":
        guard = None
        if rng.random() < 0.5:
            lo = rng.randint(0, 30)
            hi = None if rng.random() < 0.5 else lo + rng.randint(-3, 40)
            guard = Clause(lo, hi, rng.randint(1, 6), rng.randint(0, 9))
        return AffineMap1(rng.randint(-4, 4), rng.randint(-30, 30), guard)
    if flavor == "affined":
        return AffineMapD(
            tuple(tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim)),
            tuple(rng.randint(-9, 9) for _ in range(dim)))
    if flavor == "minsky":
        return MinskyOp(rng.choice(["inc", "dec", "zero"]), rng.randint(1, dim))
    pre, post = relational_variables(dim)
    return RelationalUpdate(_random_formula(rng, pre + post, 2))


def test_round_trip_random_machines():
    rng = random.Random(21)
    seen = set()
    for i in range(200):
        flavor = ("affine1", "affined", "minsky", "relational")[i % 4]
        dim = 1 if flavor == "affine1" else rng.randint(1, 3)
        states = tuple(rng.sample(["q0", "q1", "p_2", "s'", "node7", "init", "and"],
                                  rng.randint(1, 4)))
        transitions = tuple(
            Transition(rng.choice(states), rng.choice(states),
                       _random_payload(rng, flavor, dim))
            for _ in range(rng.randint(0, 6)))
        initial = rng.choice(states + (None,))
        m = Machine(f"m{i}", dim, states, transitions, initial)
        text = serialize_machine(m)
        assert parse_machine(text) == m, text
        seen.update(type(t.payload) for t in transitions)
    assert seen == {AffineMap1, AffineMapD, MinskyOp, RelationalUpdate}


# --- formula files -----------------------------------------------------------

def test_parse_formula_examples():
    f = parse_formula("x <= y")
    assert evaluate(f, {"x": 2, "y": 5}) and not evaluate(f, {"x": 5, "y": 2})

    g = parse_formula("x = y mod 2")
    assert isinstance(g, Congruence)
    assert evaluate(g, {"x": 3, "y": 5}) and not evaluate(g, {"x": 3, "y": 4})

    h = parse_formula("2x' = x")
    assert evaluate(h, {"x": 6, "x'": 3})


def test_formula_file_with_vars():
    f, vs = parse_formula_file("# order matters\nvars x y\nx <= y\n")
    assert vs == ("x", "y")
    with pytest.raises(ParseError) as ei:
        parse_formula_file("vars x y\nx <= z\n")
    assert "unbound" in ei.value.message


def test_formula_file_shape_errors():
    with pytest.raises(ParseError):
        parse_formula_file("")
    with pytest.raises(ParseError):
        parse_formula_file("x <= y\ny <= x\n")
    with pytest.raises(ParseError):
        parse_formula("x <= y extra")


def test_formula_serialize_round_trip_random():
    rng = random.Random(6)
    for _ in range(120):
        f = _random_formula(rng, ("x", "y"), 3)
        text = serialize_formula(f)
        back = parse_formula(text)
        assert serialize_formula(back) == text
        for _ in range(10):
            env = {"x": rng.randint(0, 8), "y": rng.randint(0, 8)}
            assert evaluate(back, env) == evaluate(f, env)



def test_serialize_constant_formulas():
    assert serialize_formula(TRUE) == "0 = 0"
    assert serialize_formula(FALSE) == "1 = 0"
    assert evaluate(parse_formula(serialize_formula(TRUE)), {})
    assert not evaluate(parse_formula(serialize_formula(FALSE)), {})

# --- configurations ----------------------------------------------------------

def test_parse_configuration():
    assert parse_configuration("q1:5") == Configuration("q1", (5,))
    assert parse_configuration("q0:0,0,1") == Configuration("q0", (0, 0, 1))
    with pytest.raises(ParseError):
        parse_configuration("q1")
    with pytest.raises(ParseError):
        parse_configuration("q1:x")
    with pytest.raises(ParseError):
        parse_configuration("q1:-2")
    with pytest.raises(ParseError):
        parse_configuration("q1:1,2", dimension=1)


# --- clause text -------------------------------------------------------------

def test_parse_clause_forms():
    from avasskit.frontend import _split_lines
    line = _split_lines("[13..] mod 3 = 1")[0]
    c = parse_clause(line, line.text, 0)
    assert c == Clause(13, None, 3, 1)
    line2 = _split_lines("[0..19]")[0]
    assert parse_clause(line2, line2.text, 0) == Clause(0, 19, 1, 0)


# --- rendering ---------------------------------------------------------------

def test_render_bool():
    assert render_bool(True) == "yes"
    assert render_bool(False) == "no"


def test_render_state_sets_in_declaration_order():
    out = render_state_sets(
        ("q1", "q2"),
        {"q2": interval(0, None), "q1": from_values([0, 3, 6])})
    assert out == "q1: [0..0] mod 1 = 0 ∪ [3..3] mod 1 = 0 ∪ [6..6] mod 1 = 0\nq2: [0..] mod 1 = 0\n"


def test_machine_json_stable():
    m = parse_machine(M1_SOURCE)
    obj = machine_to_json_obj(m)
    text = json.dumps(obj, sort_keys=True)
    assert json.dumps(machine_to_json_obj(parse_machine(M1_SOURCE)), sort_keys=True) == text
    assert obj["transitions"][0]["payload"] == {
        "kind": "affine1", "a": 1, "b": -13, "guard": None}
