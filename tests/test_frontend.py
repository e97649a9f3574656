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
)
from avasskit.presburger import (
    And,
    Comparison,
    Congruence,
    Not,
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
    ops = ["<=", "<", "=", ">=", ">"]
    from avasskit.presburger import LinearTerm, Or as POr

    def rand_formula(depth):
        if depth == 0 or rng.random() < 0.45:
            t = LinearTerm.build(
                {v: rng.randint(-3, 3) for v in ("x", "y")}, rng.randint(-9, 9))
            if rng.random() < 0.3:
                return Congruence(t, rng.randint(1, 5))
            return Comparison(t, rng.choice(ops))
        r = rng.random()
        if r < 0.25:
            return Not(rand_formula(depth - 1))
        # single-child And/Or have no surface syntax, so stay parser-shaped
        kids = tuple(rand_formula(depth - 1) for _ in range(rng.randint(2, 3)))
        return And(kids) if r < 0.65 else POr(kids)

    for _ in range(120):
        f = rand_formula(3)
        text = serialize_formula(f)
        back = parse_formula(text)
        assert serialize_formula(back) == text
        for _ in range(10):
            env = {"x": rng.randint(0, 8), "y": rng.randint(0, 8)}
            assert evaluate(back, env) == evaluate(f, env)


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
