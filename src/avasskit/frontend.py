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
line.  Affine right-hand sides, relational payloads and formula lines share
one tokenizer: one regular-expression pass in which every whitespace
character (``str.isspace``: space, tab, ``\\r``, ``\\v``, ``\\f``, the Unicode
spaces) separates tokens, as ``str.split()`` does for directives, and any
other character that starts no token is an error.  Every parse error carries
a :class:`~avasskit.errors.SourceSpan`.
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
    COMPARE_OPS,
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


@dataclass(slots=True)
class _Line:
    no: int            # 1-based
    text: str          # comment-stripped
    source: str        # the whole input text
    start: int         # character offset of the line in source


def _split_lines(text: str) -> list[_Line]:
    out = []
    start = 0
    for i, raw in enumerate(text.split("\n"), start=1):
        out.append(_Line(i, raw.partition("#")[0], text, start))
        start += len(raw) + 1
    return out


def _span(line: _Line, col: int) -> SourceSpan:
    # col is 0-based character position within the stripped line; byte
    # offsets are counted only here, on the error path
    byte_off = (len(line.source[:line.start].encode("utf-8"))
                + len(line.text[:col].encode("utf-8")))
    return SourceSpan(line.no, col + 1, byte_off)


# --------------------------------------------------------------------------
# expression tokenizer / parser (formulas and affine right-hand sides)

_NAME = r"[A-Za-z_][A-Za-z0-9_']*"

# One alternative per token kind; finditer skips the whitespace between
# tokens, and any other character is a "bad" token.  No int or ident token
# spells an operator or a keyword, so a token's text alone tells those apart.
_TOKEN_RE = re.compile(
    r"(?P<int>\d+)"
    r"|(?P<kw>(?:and|or|not|mod)(?![A-Za-z0-9_']))"
    rf"|(?P<ident>{_NAME})"
    r"|(?P<op><=|>=|[-+*=<>()])"
    r"|(?P<bad>\S)")

_NAME_RE = re.compile(_NAME)

# a token is (kind, text, col) with kind one of "int", "ident", "op", "kw", "end"
_Token = tuple[str, str, int]


def _tokenize(line: _Line, text: str, col0: int) -> list[_Token]:
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[0]!r}", _span(line, col0 + m.start()))
        toks.append((kind, m[0], col0 + m.start()))
    toks.append(("end", "", col0 + len(text)))
    return toks


class _ExprParser:
    def __init__(self, line: _Line, text: str, col0: int,
                 allowed_vars: set[str] | frozenset[str] | None = None):
        self.line = line
        self.toks = _tokenize(line, text, col0)
        self.pos = 0
        self.allowed = allowed_vars

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def fail(self, message: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, _span(self.line, tok[2]))

    def expect_op(self, op: str) -> None:
        if self.peek()[1] != op:
            raise self.fail(f"expected {op!r}")
        self.pos += 1

    def at_end(self) -> bool:
        return self.peek()[0] == "end"

    def check_var(self, tok: _Token) -> str:
        if self.allowed is not None and tok[1] not in self.allowed:
            raise self.fail(f"unbound variable {tok[1]!r}", tok)
        return tok[1]

    # ---- linear sums ----

    def parse_sum(self, coeffs: dict[str, int], sign: int = 1) -> int:
        """Add the sum at the cursor, times ``sign``, into ``coeffs``; return
        its constant, times ``sign``."""
        constant = self.parse_addend(coeffs, sign)
        while True:
            op = self.toks[self.pos][1]
            if op != "+" and op != "-":
                return constant
            self.pos += 1
            constant += self.parse_addend(coeffs, sign if op == "+" else -sign)

    def parse_addend(self, coeffs: dict[str, int], sign: int) -> int:
        toks = self.toks
        kind, text, _ = toks[self.pos]
        while text == "-":
            self.pos += 1
            sign = -sign
            kind, text, _ = toks[self.pos]
        if kind == "int":
            self.pos += 1
            k = sign * int(text)
            if toks[self.pos][1] == "*":
                self.pos += 1
            tok = toks[self.pos]
            if tok[0] != "ident":
                return k
        elif kind == "ident":
            k = sign
            tok = toks[self.pos]
        else:
            raise self.fail("expected a number or variable")
        self.pos += 1
        v = self.check_var(tok)
        coeffs[v] = coeffs.get(v, 0) + k
        return 0

    # ---- formulas ----

    def parse_formula(self) -> Formula:
        parts = [self.parse_conj()]
        while self.peek()[1] == "or":
            self.pos += 1
            parts.append(self.parse_conj())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_conj(self) -> Formula:
        parts = [self.parse_unary()]
        while self.peek()[1] == "and":
            self.pos += 1
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary(self) -> Formula:
        t = self.peek()[1]
        if t == "not":
            self.pos += 1
            return Not(self.parse_unary())
        if t == "(":
            self.pos += 1
            inner = self.parse_formula()
            self.expect_op(")")
            return inner
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        coeffs: dict[str, int] = {}
        constant = self.parse_sum(coeffs)
        _, op, op_col = self.peek()
        if op not in COMPARE_OPS:
            raise self.fail("expected a comparison operator")
        self.pos += 1
        constant += self.parse_sum(coeffs, -1)
        term = LinearTerm.build(coeffs, constant)
        if self.peek()[1] != "mod":
            return Comparison(term, op)
        self.pos += 1
        kind, text, col = self.peek()
        if kind != "int":
            raise self.fail("expected a modulus")
        self.pos += 1
        if op != "=":
            raise ParseError("congruences use '='", _span(self.line, op_col))
        m = int(text)
        if m < 1:
            raise ParseError("modulus must be positive", _span(self.line, col))
        return Congruence(term, m)


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
_TRANS_RE = re.compile(rf"\s*({_NAME})\s*->\s*({_NAME})\s*:")
_MATRIX_PART_RE = re.compile(r"\s*([Ab])\s*=\s*(.*)$")
_SCALAR_VARS = frozenset({"x", "x'"})


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
        head, *tail = stripped.split(None, 1)  # any whitespace ends the head
        rest = tail[0] if tail else ""
        if name is None and head in ("dim", "state", "trans"):
            raise ParseError("machine declaration must come first", _span(line, col0))
        if head == "machine":
            if name is not None:
                raise ParseError("second machine declaration", _span(line, col0))
            if len(rest.split()) != 1:
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
    m = _TRANS_RE.match(text)
    if m is None:
        raise ParseError("expected: trans SRC -> TGT : payload", _span(line, col0))
    src, tgt = m.group(1, 2)
    for q, pos in ((src, m.start(1)), (tgt, m.start(2))):
        if q not in states:
            raise ParseError(
                f"state {q!r} not declared before use", _span(line, col0 + pos))
    payload = _parse_payload(line, text[m.end():], col0 + m.end(), dim)
    return Transition(src, tgt, payload)


def _parse_payload(line: _Line, text: str, col0: int, dim: int):
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty transition payload", _span(line, col0))
    lead = col0 + text.index(stripped[0])

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
    parser = _ExprParser(line, part, col0, allowed_vars=_SCALAR_VARS)
    if parser.peek()[1] != "x'":
        raise parser.fail("expected x' on the left of an affine update")
    parser.pos += 1
    parser.expect_op("=")
    coeffs: dict[str, int] = {}
    b = parser.parse_sum(coeffs)
    if not parser.at_end():
        raise parser.fail("trailing input after affine update")
    if coeffs.get("x'", 0) != 0:
        raise ParseError("x' may appear only on the left", _span(line, col0))
    guard = None
    gs = guard_part.strip()
    if gs:
        gcol = col0 + len(part) + 1 + guard_part.index(gs[0])
        if not gs.startswith("guard"):
            raise ParseError("expected: ; guard [lo..hi] mod m = r", _span(line, gcol))
        guard = parse_clause(line, gs[len("guard"):], gcol + len("guard"))
    return AffineMap1(coeffs.get("x", 0), b, guard)


def _parse_matrix_payload(line: _Line, text: str, col0: int, dim: int) -> AffineMapD:
    parts = text.split(";")
    if len(parts) != 2:
        raise ParseError(
            "matrix payload is A = [[..]] ; b = [..]", _span(line, col0))
    specs = []
    pos = col0
    for part, label in zip(parts, ("A", "b")):
        m = _MATRIX_PART_RE.match(part)
        if m is None or m.group(1) != label:
            raise ParseError(f"expected {label} = …", _span(line, pos))
        body = m.group(2).strip()
        try:
            value = json.loads(body)
        except json.JSONDecodeError as e:
            raise ParseError(
                f"bad {label} vector/matrix: {e.msg}", _span(line, pos + m.start(2)))
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
    if not sep or not _NAME_RE.fullmatch(state):
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
