"""Text frontend: the machine description language, formula files, rendering.

The machine DSL is line-oriented; ``#`` starts a comment.  A file holds one
machine::

    machine M1
    dim 1
    state q1 init
    state q2
    trans q1 -> q2 : x' = 1x + -13
    trans q1 -> q1 : x' = -1x + 19 ; guard [0..19] mod 1 = 0

Payload forms after the colon:

* scalar affine     ``x' = 2x + -3`` (optional ``; guard [lo..hi] mod m = r``)
* matrix affine     ``A = [[2,0],[0,1]] ; b = [1,1]``
* counter op        ``inc 1`` / ``dec 2`` / ``zero? 1``
* relation          ``formula x' = 2x and x = 0 mod 3``

Formula files hold an optional ``vars x y`` declaration line and one formula
line.  Every parse error carries a :class:`~avasskit.errors.SourceSpan`.
Serialization is canonical: ``parse(serialize(parse(text)))`` equals
``parse(text)``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import ParseError, SourceSpan
from .machine import (
    AffineMap1,
    AffineMapD,
    Configuration,
    Machine,
    MachineError,
    MinskyOp,
    RelationalUpdate,
    Transition,
    relational_variables,
)
from .presburger import (
    And,
    Comparison,
    Congruence,
    Formula,
    LinearTerm,
    Not,
    Or,
    variables as formula_variables,
)
from .semiset import Clause, SemilinearSet

# --------------------------------------------------------------------------
# low-level text handling


@dataclass
class _Line:
    no: int            # 1-based
    text: str          # comment-stripped
    byte_start: int


def _split_lines(text: str) -> list[_Line]:
    out = []
    offset = 0
    for i, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0]
        out.append(_Line(i, body, offset))
        offset += len(raw.encode("utf-8")) + 1
    return out


def _span(line: _Line, col: int) -> SourceSpan:
    # col is 0-based character position within the stripped line
    byte_off = line.byte_start + len(line.text[:col].encode("utf-8"))
    return SourceSpan(line.no, col + 1, byte_off)


# --------------------------------------------------------------------------
# expression tokenizer / parser (formulas and affine right-hand sides)

_TOKEN_RE = re.compile(
    r"[ \t]*(?:(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<op><=|>=|[-+*=<>()])"
    r"|(?P<bad>\S))"
)

_KEYWORDS = {"and", "or", "not", "mod"}


@dataclass
class _Token:
    kind: str   # "int" | "ident" | "op" | "kw" | "end"
    text: str
    col: int


def _tokenize(line: _Line, text: str, col0: int) -> list[_Token]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        if m.group("bad") is not None:
            raise ParseError(
                f"unexpected character {m.group('bad')!r}",
                _span(line, col0 + m.start("bad")))
        if m.group("int") is not None:
            toks.append(_Token("int", m.group("int"), col0 + m.start("int")))
        elif m.group("ident") is not None:
            word = m.group("ident")
            kind = "kw" if word in _KEYWORDS else "ident"
            toks.append(_Token(kind, word, col0 + m.start("ident")))
        else:
            toks.append(_Token("op", m.group("op"), col0 + m.start("op")))
        pos = m.end()
    toks.append(_Token("end", "", col0 + len(text)))
    return toks


class _ExprParser:
    def __init__(self, line: _Line, text: str, col0: int,
                 allowed_vars: set[str] | None = None):
        self.line = line
        self.toks = _tokenize(line, text, col0)
        self.pos = 0
        self.allowed = allowed_vars

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def fail(self, message: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, _span(self.line, tok.col))

    def expect_op(self, op: str) -> _Token:
        t = self.peek()
        if t.kind != "op" or t.text != op:
            raise self.fail(f"expected {op!r}")
        return self.next()

    def at_end(self) -> bool:
        return self.peek().kind == "end"

    def check_var(self, tok: _Token) -> str:
        if self.allowed is not None and tok.text not in self.allowed:
            raise self.fail(f"unbound variable {tok.text!r}", tok)
        return tok.text

    # ---- linear sums ----

    def parse_sum(self) -> LinearTerm:
        t = self.parse_addend()
        while True:
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text in "+-":
                self.next()
                rhs = self.parse_addend()
                t = t.plus(rhs if nxt.text == "+" else rhs.times(-1))
            else:
                return t

    def parse_addend(self) -> LinearTerm:
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.next()
            return self.parse_addend().times(-1)
        if t.kind == "int":
            self.next()
            k = int(t.text)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "*":
                self.next()
                nxt = self.peek()
            if nxt.kind == "ident":
                self.next()
                return LinearTerm.build({self.check_var(nxt): k})
            return LinearTerm((), k)
        if t.kind == "ident":
            self.next()
            return LinearTerm.build({self.check_var(t): 1})
        raise self.fail("expected a number or variable")

    # ---- formulas ----

    def parse_formula(self) -> Formula:
        f = self.parse_conj()
        parts = [f]
        while self.peek().kind == "kw" and self.peek().text == "or":
            self.next()
            parts.append(self.parse_conj())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_conj(self) -> Formula:
        parts = [self.parse_unary()]
        while self.peek().kind == "kw" and self.peek().text == "and":
            self.next()
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary(self) -> Formula:
        t = self.peek()
        if t.kind == "kw" and t.text == "not":
            self.next()
            return Not(self.parse_unary())
        if t.kind == "op" and t.text == "(":
            self.next()
            inner = self.parse_formula()
            self.expect_op(")")
            return inner
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        lhs = self.parse_sum()
        t = self.peek()
        if t.kind != "op" or t.text not in ("<=", "<", "=", ">=", ">"):
            raise self.fail("expected a comparison operator")
        op_tok = self.next()
        rhs = self.parse_sum()
        if self.peek().kind == "kw" and self.peek().text == "mod":
            self.next()
            mtok = self.peek()
            if mtok.kind != "int":
                raise self.fail("expected a modulus")
            self.next()
            if op_tok.text != "=":
                raise ParseError(
                    "congruences use '='", _span(self.line, op_tok.col))
            m = int(mtok.text)
            if m < 1:
                raise ParseError(
                    "modulus must be positive", _span(self.line, mtok.col))
            return Congruence(lhs.minus(rhs), m)
        return Comparison(lhs.minus(rhs), op_tok.text)


# --------------------------------------------------------------------------
# guard clauses

_GUARD_RE = re.compile(
    r"^\s*\[\s*(\d+)\s*\.\.\s*(\d*)\s*\]"
    r"(?:\s*mod\s+(\d+)\s*=\s*(\d+))?\s*$")


def parse_clause(line: _Line, text: str, col0: int) -> Clause:
    m = _GUARD_RE.match(text)
    if m is None:
        raise ParseError(
            "expected a clause like [lo..hi] mod m = r", _span(line, col0))
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else None
    if m.group(3) is not None:
        mod = int(m.group(3))
        if mod < 1:
            raise ParseError("modulus must be positive", _span(line, col0))
        res = int(m.group(4))
    else:
        mod, res = 1, 0
    return Clause(lo, hi, mod, res)


# --------------------------------------------------------------------------
# machine parsing

_MINSKY_RE = re.compile(r"^\s*(inc|dec|zero\?)\s+(\d+)\s*$")


def parse_machine(text: str) -> Machine:
    lines = _split_lines(text)
    name: str | None = None
    dim = 1
    dim_seen = False
    states: list[str] = []
    initial: str | None = None
    transitions: list[Transition] = []

    for line in lines:
        stripped = line.text.strip()
        if not stripped:
            continue
        col0 = line.text.index(stripped[0])
        head, _, rest = stripped.partition(" ")
        rest = rest.strip()
        if name is None and head in ("dim", "state", "trans"):
            raise ParseError("machine declaration must come first", _span(line, col0))
        if head == "machine":
            if name is not None:
                raise ParseError("second machine declaration", _span(line, col0))
            if transitions or states or dim_seen:
                raise ParseError(
                    "machine declaration must come first", _span(line, col0))
            if not rest or " " in rest:
                raise ParseError("expected: machine NAME", _span(line, col0))
            name = rest
        elif head == "dim":
            if dim_seen:
                raise ParseError("second dim declaration", _span(line, col0))
            if not rest.isdigit() or int(rest) < 1:
                raise ParseError("expected: dim D with D >= 1", _span(line, col0))
            dim = int(rest)
            dim_seen = True
        elif head == "state":
            parts = rest.split()
            if not parts or len(parts) > 2 or (len(parts) == 2 and parts[1] != "init"):
                raise ParseError("expected: state NAME [init]", _span(line, col0))
            q = parts[0]
            if q in states:
                raise ParseError(f"state {q!r} declared twice", _span(line, col0))
            states.append(q)
            if len(parts) == 2:
                if initial is not None:
                    raise ParseError("two initial states", _span(line, col0))
                initial = q
        elif head == "trans":
            transitions.append(
                _parse_transition(line, stripped[len(head):], col0 + len(head),
                                  states, dim))
        else:
            raise ParseError(f"unknown directive {head!r}", _span(line, col0))

    if name is None:
        raise ParseError("no machine declaration found", SourceSpan(1, 1, 0))
    try:
        return Machine(name, dim, tuple(states), tuple(transitions), initial)
    except MachineError as e:
        raise ParseError(str(e), SourceSpan(1, 1, 0)) from e


def _parse_transition(line: _Line, text: str, col0: int,
                      states: list[str], dim: int) -> Transition:
    m = re.match(r"^\s*([A-Za-z_][A-Za-z0-9_']*)\s*->\s*([A-Za-z_][A-Za-z0-9_']*)\s*:", text)
    if m is None:
        raise ParseError("expected: trans SRC -> TGT : payload", _span(line, col0))
    src, tgt = m.group(1), m.group(2)
    for q, pos in ((src, m.start(1)), (tgt, m.start(2))):
        if q not in states:
            raise ParseError(
                f"state {q!r} not declared before use", _span(line, col0 + pos))
    payload_text = text[m.end():]
    payload_col = col0 + m.end()
    payload = _parse_payload(line, payload_text, payload_col, dim)
    return Transition(src, tgt, payload)


def _parse_payload(line: _Line, text: str, col0: int, dim: int):
    stripped = text.strip()
    lead = col0 + (text.index(stripped[0]) if stripped else 0)
    if not stripped:
        raise ParseError("empty transition payload", _span(line, col0))

    mm = _MINSKY_RE.match(stripped)
    if mm is not None:
        op = {"inc": "inc", "dec": "dec", "zero?": "zero"}[mm.group(1)]
        counter = int(mm.group(2))
        if counter < 1 or counter > dim:
            raise ParseError(
                f"counter {counter} out of range for dimension {dim}",
                _span(line, lead))
        return MinskyOp(op, counter)

    if stripped.startswith("formula"):
        expr = stripped[len("formula"):]
        pre, post = relational_variables(dim)
        parser = _ExprParser(line, expr, lead + len("formula"),
                             allowed_vars=set(pre) | set(post))
        f = parser.parse_formula()
        if not parser.at_end():
            raise parser.fail("trailing input after formula")
        return RelationalUpdate(f)

    if stripped.startswith("A"):
        return _parse_matrix_payload(line, text, col0, dim)

    # scalar affine: x' = <linear in x> [; guard CLAUSE]
    if dim != 1:
        raise ParseError(
            "scalar affine payload needs dim 1; use A = …; b = …",
            _span(line, lead))
    part, _, guard_part = text.partition(";")
    parser = _ExprParser(line, part, col0, allowed_vars={"x", "x'"})
    lhs = parser.peek()
    if lhs.kind != "ident" or lhs.text != "x'":
        raise parser.fail("expected x' on the left of an affine update")
    parser.next()
    parser.expect_op("=")
    t = parser.parse_sum()
    if not parser.at_end():
        raise parser.fail("trailing input after affine update")
    if t.coeff("x'") != 0:
        raise ParseError("x' may appear only on the left", _span(line, col0))
    a = t.coeff("x")
    b = t.constant
    guard = None
    if guard_part.strip():
        gcol = col0 + len(part) + 1
        gs = guard_part.strip()
        gcol += guard_part.index(gs[0])
        if not gs.startswith("guard"):
            raise ParseError("expected: ; guard [lo..hi] mod m = r", _span(line, gcol))
        guard = parse_clause(line, gs[len("guard"):], gcol + len("guard"))
    return AffineMap1(a, b, guard)


def _parse_matrix_payload(line: _Line, text: str, col0: int, dim: int) -> AffineMapD:
    parts = text.split(";")
    if len(parts) != 2:
        raise ParseError(
            "matrix payload is A = [[..]] ; b = [..]", _span(line, col0))
    specs = []
    pos = col0
    for part, label in zip(parts, ("A", "b")):
        m = re.match(rf"^\s*{label}\s*=\s*(.*)$", part)
        if m is None:
            raise ParseError(f"expected {label} = …", _span(line, pos))
        body = m.group(1).strip()
        try:
            value = json.loads(body)
        except json.JSONDecodeError as e:
            raise ParseError(
                f"bad {label} vector/matrix: {e.msg}", _span(line, pos + m.start(1)))
        specs.append(value)
        pos += len(part) + 1
    matrix, offset = specs
    err = _span(line, col0)
    if (not isinstance(offset, list) or len(offset) != dim
            or not all(isinstance(v, int) for v in offset)):
        raise ParseError(f"b must be a list of {dim} integers", err)
    if (not isinstance(matrix, list) or len(matrix) != dim
            or not all(isinstance(row, list) and len(row) == dim
                       and all(isinstance(v, int) for v in row)
                       for row in matrix)):
        raise ParseError(f"A must be a {dim}x{dim} integer matrix", err)
    return AffineMapD(tuple(tuple(r) for r in matrix), tuple(offset))


# --------------------------------------------------------------------------
# formula files


def parse_formula_file(text: str) -> tuple[Formula, tuple[str, ...]]:
    """Parse a formula file: optional ``vars …`` line, then one formula line.

    Returns the formula and the variable tuple (declared order, or sorted
    order of use when no declaration is present).
    """
    lines = _split_lines(text)
    content = [l for l in lines if l.text.strip()]
    if not content:
        raise ParseError("empty formula", SourceSpan(1, 1, 0))
    declared: tuple[str, ...] | None = None
    if content[0].text.strip().startswith("vars"):
        head = content[0]
        names = head.text.strip().split()[1:]
        if not names or len(set(names)) != len(names):
            raise ParseError("expected: vars NAME NAME …", _span(head, 0))
        declared = tuple(names)
        content = content[1:]
    if len(content) != 1:
        where = content[1] if len(content) > 1 else lines[-1]
        raise ParseError(
            "expected exactly one formula line", _span(where, 0))
    line = content[0]
    stripped = line.text.strip()
    col0 = line.text.index(stripped[0])
    parser = _ExprParser(line, stripped, col0,
                         allowed_vars=set(declared) if declared else None)
    f = parser.parse_formula()
    if not parser.at_end():
        raise parser.fail("trailing input after formula")
    return f, declared if declared is not None else formula_variables(f)


def parse_formula(text: str) -> Formula:
    return parse_formula_file(text)[0]


# --------------------------------------------------------------------------
# configurations


def parse_configuration(text: str, dimension: int | None = None) -> Configuration:
    """Parse ``state:v1,v2,…`` into a configuration."""
    state, sep, values = text.partition(":")
    state = state.strip()
    if not sep or not re.match(r"^[A-Za-z_][A-Za-z0-9_']*$", state):
        raise ParseError(
            f"expected STATE:VALUES, got {text!r}", SourceSpan(1, 1, 0))
    try:
        counters = tuple(int(v.strip()) for v in values.split(","))
    except ValueError:
        raise ParseError(
            f"counter values must be integers in {text!r}", SourceSpan(1, 1, 0))
    if any(c < 0 for c in counters):
        raise ParseError(f"counters must be naturals in {text!r}", SourceSpan(1, 1, 0))
    if dimension is not None and len(counters) != dimension:
        raise ParseError(
            f"expected {dimension} counters, got {len(counters)}", SourceSpan(1, 1, 0))
    return Configuration(state, counters)


# --------------------------------------------------------------------------
# serialization


def serialize_term(t: LinearTerm) -> str:
    parts = []
    for v, c in t.coeffs:
        if c == 1:
            parts.append(v)
        elif c == -1:
            parts.append(f"-{v}")
        else:
            parts.append(f"{c}{v}")
    if t.constant != 0 or not parts:
        parts.append(str(t.constant))
    return " + ".join(parts)


def serialize_formula(f: Formula) -> str:
    if isinstance(f, Comparison):
        return f"{serialize_term(f.term)} {f.op} 0"
    if isinstance(f, Congruence):
        head = serialize_term(LinearTerm(f.term.coeffs, 0))
        r = (-f.term.constant) % f.modulus
        return f"{head} = {r} mod {f.modulus}"
    if isinstance(f, Not):
        child = serialize_formula(f.child)
        if isinstance(f.child, (And, Or)):
            return f"not ({child})"
        return f"not {child}"
    if isinstance(f, And):
        if not f.children:
            return "0 = 0"
        return " and ".join(
            f"({serialize_formula(c)})" if isinstance(c, (And, Or)) else serialize_formula(c)
            for c in f.children)
    if isinstance(f, Or):
        if not f.children:
            return "1 = 0"
        return " or ".join(
            f"({serialize_formula(c)})" if isinstance(c, (And, Or)) else serialize_formula(c)
            for c in f.children)
    raise TypeError(f"not a formula: {f!r}")


def serialize_payload(p) -> str:
    if isinstance(p, AffineMap1):
        out = f"x' = {p.a}x + {p.b}"
        if p.guard is not None:
            out += f" ; guard {p.guard.render()}"
        return out
    if isinstance(p, AffineMapD):
        compact = lambda v: json.dumps(v, separators=(",", ":"))
        return f"A = {compact([list(r) for r in p.matrix])} ; b = {compact(list(p.offset))}"
    if isinstance(p, MinskyOp):
        op = {"inc": "inc", "dec": "dec", "zero": "zero?"}[p.op]
        return f"{op} {p.counter}"
    if isinstance(p, RelationalUpdate):
        return f"formula {serialize_formula(p.formula)}"
    raise TypeError(f"not a payload: {p!r}")


def serialize_transition(t: Transition) -> str:
    """``SRC -> TGT : payload``, a ``trans`` line without its keyword."""
    return f"{t.source} -> {t.target} : {serialize_payload(t.payload)}"


def serialize_machine(m: Machine) -> str:
    lines = [f"machine {m.name}", f"dim {m.dimension}"]
    for q in m.states:
        lines.append(f"state {q} init" if q == m.initial else f"state {q}")
    for t in m.transitions:
        lines.append(f"trans {serialize_transition(t)}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# result rendering (deterministic, byte-stable)


def render_bool(b: bool) -> str:
    return "yes" if b else "no"


def render_state_sets(states: tuple[str, ...], sets: dict[str, SemilinearSet]) -> str:
    """One ``state: set`` line per state, in machine declaration order."""
    return "\n".join(f"{q}: {sets[q].render()}" for q in states) + "\n"


def machine_to_json_obj(m: Machine) -> dict:
    def payload_obj(p):
        if isinstance(p, AffineMap1):
            g = None if p.guard is None else p.guard.to_json_obj()
            return {"kind": "affine1", "a": p.a, "b": p.b, "guard": g}
        if isinstance(p, AffineMapD):
            return {"kind": "affined",
                    "matrix": [list(r) for r in p.matrix],
                    "offset": list(p.offset)}
        if isinstance(p, MinskyOp):
            return {"kind": "minsky", "op": p.op, "counter": p.counter}
        return {"kind": "relational", "formula": serialize_formula(p.formula)}

    return {
        "name": m.name,
        "dimension": m.dimension,
        "states": list(m.states),
        "initial": m.initial,
        "transitions": [
            {"source": t.source, "target": t.target, "payload": payload_obj(t.payload)}
            for t in m.transitions
        ],
    }
