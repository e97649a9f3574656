"""Counter machines: control states plus counter-updating transitions.

One machine holds transitions of exactly one payload flavor:

* ``AffineMap1`` — one counter, ``x' = a*x + b``, defined where the result is a
  natural and an optional extra guard clause holds;
* ``AffineMapD`` — d counters, ``x' = A x + b``, defined where every component
  of the result is a natural;
* ``MinskyOp`` — increment / decrement / zero-test of a single counter;
* ``RelationalUpdate`` — an arbitrary quantifier-free formula between current
  and next counter values (not necessarily functional).

The flavor determines which analyses apply; :func:`classify` answers the
syntactic questions the decision procedures dispatch on.

Every analysis reads a payload through one of two views.  :func:`affine_rows`
gives the map of an affine or counter-op payload as sparse rows, one
``(terms, offset)`` per counter; :func:`domain_clause` gives where a scalar
affine payload is defined, as one clause.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Union

from .errors import FlavorError, MachineError
from .presburger import LinearTerm
from .semiset import EMPTY_CLAUSE, Clause, _cdiv, intersect_clauses


@dataclass(frozen=True)
class AffineMap1:
    """Single-counter update ``x' = a*x + b`` with an optional guard clause.

    Defined on ``{n : a*n + b >= 0}`` intersected with the guard; applying it
    outside that domain yields no successor.
    """

    a: int
    b: int
    guard: Clause | None = None

    @cached_property
    def _domain(self) -> Clause:
        """:func:`domain_clause`, computed once per payload."""
        a, b = self.a, self.b
        if a > 0:
            dom = Clause(_cdiv(-b, a) if b < 0 else 0, None)
        elif a == 0:
            dom = Clause(0, None) if b >= 0 else EMPTY_CLAUSE
        else:
            dom = Clause(0, b // -a) if b >= 0 else EMPTY_CLAUSE
        if self.guard is not None:
            dom = intersect_clauses(dom, self.guard)
        return dom


@dataclass(frozen=True)
class AffineMapD:
    """d-counter update ``x' = A x + b``, defined where ``A x + b`` is componentwise natural."""

    matrix: tuple[tuple[int, ...], ...]
    offset: tuple[int, ...]

    def __post_init__(self) -> None:
        d = len(self.offset)
        if len(self.matrix) != d or any(len(row) != d for row in self.matrix):
            raise MachineError(
                f"matrix must be {d}x{d} to match the offset vector")

    @cached_property
    def rows(self) -> Rows:
        """Each counter's nonzero ``(index, coefficient)`` terms and its offset."""
        return tuple((tuple((i, k) for i, k in enumerate(row) if k), b)
                     for row, b in zip(self.matrix, self.offset))


MINSKY_OPS = ("inc", "dec", "zero")


@dataclass(frozen=True)
class MinskyOp:
    """One counter-machine operation on counter ``counter`` (1-based): inc, dec, or zero-test."""

    op: str
    counter: int

    def __post_init__(self) -> None:
        if self.op not in MINSKY_OPS:
            raise MachineError(f"unknown counter op {self.op!r}")
        if self.counter < 1:
            raise MachineError("counters are numbered from 1")


@dataclass(frozen=True)
class RelationalUpdate:
    """Transition relation given as a formula over current and next counters.

    Variable naming convention: dimension 1 uses ``x`` and ``x'``; dimension d
    uses ``x1..xd`` and ``x1'..xd'`` (see :func:`relational_variables`).
    """

    formula: object


Payload = Union[AffineMap1, AffineMapD, MinskyOp, RelationalUpdate]

Rows = tuple[tuple[tuple[tuple[int, int], ...], int], ...]


def relational_variables(dimension: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if dimension == 1:
        return ("x",), ("x'",)
    pre = tuple(f"x{i}" for i in range(1, dimension + 1))
    return pre, tuple(f"{v}'" for v in pre)


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    payload: Payload


@dataclass(frozen=True, slots=True)
class Configuration:
    """A control state plus counter values (a tuple, one entry per dimension).

    Slotted, as a caller may hold many at once, say every configuration of a
    search result.  Explicit-state search itself keeps only counter tuples.
    """

    state: str
    counters: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.counters) is not tuple:
            object.__setattr__(self, "counters", tuple(self.counters))
        if not self.counters or min(self.counters) < 0:
            raise MachineError(f"counters must be naturals, got {self.counters}")

    @property
    def counter(self) -> int:
        if len(self.counters) != 1:
            raise MachineError("single-counter access on a multi-counter configuration")
        return self.counters[0]

    def render(self) -> str:
        return render_configuration(self.state, self.counters)


def render_configuration(state: str, counters: tuple[int, ...]) -> str:
    """``state:c1,...,cd``, the text form of a configuration."""
    return f"{state}:{','.join(map(str, counters))}"


@dataclass(frozen=True)
class UpwardTarget:
    """The upward closure of a configuration: same state, componentwise >= counters."""

    config: Configuration

    @property
    def state(self) -> str:
        return self.config.state

    def render(self) -> str:
        return f"^{self.config.render()}"


_FLAVOR_BY_TYPE = {
    AffineMap1: "affine1",
    AffineMapD: "affined",
    MinskyOp: "minsky",
    RelationalUpdate: "relational",
}


def check_payload(p: Payload, dimension: int) -> None:
    """Raise :class:`MachineError` unless p acts on ``dimension`` counters."""
    if isinstance(p, AffineMap1) and dimension != 1:
        raise MachineError(f"scalar affine payload on {dimension} counters")
    if isinstance(p, AffineMapD) and len(p.offset) != dimension:
        raise MachineError(f"payload dimension {len(p.offset)} on {dimension} counters")
    if isinstance(p, MinskyOp) and p.counter > dimension:
        raise MachineError(f"op touches counter {p.counter} of {dimension}")


@dataclass(frozen=True)
class Machine:
    name: str
    dimension: int
    states: tuple[str, ...]
    transitions: tuple[Transition, ...]
    initial: str | None = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise MachineError("dimension must be >= 1")
        if len(set(self.states)) != len(self.states):
            raise MachineError("duplicate state names")
        known = set(self.states)
        if self.initial is not None and self.initial not in known:
            raise MachineError(f"initial state {self.initial!r} not declared")
        flavors = set()
        for t in self.transitions:
            if t.source not in known or t.target not in known:
                raise MachineError(
                    f"transition {t.source} -> {t.target} uses undeclared states")
            flavors.add(_FLAVOR_BY_TYPE[type(t.payload)])
            check_payload(t.payload, self.dimension)
        if len(flavors) > 1:
            raise MachineError(
                f"one machine must keep to one flavor, found {sorted(flavors)}")

    @property
    def flavor(self) -> str:
        for t in self.transitions:
            return _FLAVOR_BY_TYPE[type(t.payload)]
        return "affine1" if self.dimension == 1 else "affined"

    @cached_property
    def _outgoing(self) -> dict[str, tuple[Transition, ...]]:
        out: dict[str, list[Transition]] = {q: [] for q in self.states}
        for t in self.transitions:
            out[t.source].append(t)
        return {q: tuple(ts) for q, ts in out.items()}

    @cached_property
    def _incoming(self) -> dict[str, tuple[Transition, ...]]:
        inc: dict[str, list[Transition]] = {q: [] for q in self.states}
        for t in self.transitions:
            inc[t.target].append(t)
        return {q: tuple(ts) for q, ts in inc.items()}

    def transitions_from(self, state: str) -> tuple[Transition, ...]:
        return self._outgoing[state]

    def transitions_to(self, state: str) -> tuple[Transition, ...]:
        return self._incoming[state]

    def check_configuration(self, c: Configuration) -> None:
        if c.state not in self._outgoing:
            raise MachineError(f"unknown state {c.state!r}")
        if len(c.counters) != self.dimension:
            raise MachineError(
                f"configuration has {len(c.counters)} counters, machine has {self.dimension}")


def fresh_state(base: str, taken: set[str]) -> str:
    """The first of ``base``, ``base_2``, ``base_3``, … not in ``taken``; adds it there."""
    name = base
    k = 1
    while name in taken:
        k += 1
        name = f"{base}_{k}"
    taken.add(name)
    return name


@dataclass(frozen=True)
class Classification:
    """Syntactic flavor flags; see :func:`classify` for the exact conventions."""

    is_vass: bool
    is_avass: bool
    is_positive_avass: bool
    is_totally_positive_avass: bool
    is_minsky: bool
    is_functional_syntactically: bool


def affine_rows(p: Payload, dim: int) -> Rows | None:
    """The sparse-row view of a payload's map, None for zero tests and relations.

    Guards are not part of the view.  A counter increment or decrement is the
    identity plus a unit offset; a zero test is a guard, not a map.
    """
    if isinstance(p, AffineMapD):
        return p.rows
    if isinstance(p, AffineMap1):
        return ((((0, p.a),) if p.a else (), p.b),)
    if isinstance(p, MinskyOp) and p.op != "zero":
        i, step = p.counter - 1, 1 if p.op == "inc" else -1
        return tuple((((j, 1),), step if j == i else 0) for j in range(dim))
    return None


def affine_terms(rows: Rows) -> list[LinearTerm]:
    """The successor counters of affine rows as terms over the current counters."""
    xs, _ = relational_variables(len(rows))
    return [LinearTerm.build({xs[i]: k for i, k in terms}, b) for terms, b in rows]


def classify(m: Machine) -> Classification:
    """Syntactic classification of a machine, stable under state renaming/reordering.

    Reads each payload's :func:`affine_rows`, guards not consulted.  A VASS has
    every matrix equal to the identity; positive means all matrix entries
    >= 0; totally positive additionally needs all offsets >= 0.  A payload
    with no rows (a zero test or a relation) breaks every affine class.  A
    machine counts as Minsky when its flavor is the counter-op one, or when it
    is a VASS whose offsets are zero or unit vectors (each step a single
    inc/dec/no-op).  Only relational machines are not syntactically functional.
    """
    is_avass = is_vass = positive = totally = unit_offsets = True
    for t in m.transitions:
        rows = affine_rows(t.payload, m.dimension)
        if rows is None:
            is_avass = is_vass = positive = totally = False
            break
        for i, (terms, b) in enumerate(rows):
            is_vass = is_vass and terms == ((i, 1),)
            positive = positive and all(k >= 0 for _, k in terms)
            totally = totally and b >= 0
        unit_offsets = unit_offsets and sum(abs(b) for _, b in rows) <= 1
    return Classification(
        is_vass=is_vass,
        is_avass=is_avass,
        is_positive_avass=positive,
        is_totally_positive_avass=positive and totally,
        is_minsky=m.flavor == "minsky" or (is_vass and unit_offsets),
        is_functional_syntactically=m.flavor != "relational",
    )


def apply_payload(p: Payload, counters: tuple[int, ...]) -> tuple[int, ...] | None:
    """Successor counters under a functional payload, or None when undefined."""
    if isinstance(p, AffineMap1):
        (n,) = counters
        v = p.a * n + p.b
        if v < 0:
            return None
        if p.guard is not None and not p.guard.member(n):
            return None
        return (v,)
    if isinstance(p, AffineMapD):
        out = []
        for row, b in zip(p.matrix, p.offset):
            v = sum(map(mul, row, counters)) + b
            if v < 0:
                return None
            out.append(v)
        return tuple(out)
    if isinstance(p, MinskyOp):
        i = p.counter - 1
        if p.op == "inc":
            return counters[:i] + (counters[i] + 1,) + counters[i + 1:]
        if p.op == "dec":
            if counters[i] == 0:
                return None
            return counters[:i] + (counters[i] - 1,) + counters[i + 1:]
        return counters if counters[i] == 0 else None
    raise FlavorError(
        "relational payloads are not functional; applying them needs a target value")


def apply(m: Machine, t: Transition, c: Configuration) -> Configuration | None:
    """One step of a functional machine, or None when the payload is undefined at c
    (or c is not at the transition's source state)."""
    m.check_configuration(c)
    if c.state != t.source:
        return None
    got = apply_payload(t.payload, c.counters)
    if got is None:
        return None
    return Configuration(t.target, got)


def domain_clause(p: AffineMap1) -> Clause:
    """The counter values where a scalar affine payload is defined, as one clause.

    That is ``{n >= 0 : a*n + b >= 0}`` intersected with the guard: all of N
    or nothing when a = 0, an upward ray from ``ceil(-b / a)`` when a > 0, and
    the interval ``[0, b // -a]`` (empty for b < 0) when a < 0.  It is
    computed once per payload and kept on it.
    """
    return p._domain


def negative_transitions(m: Machine) -> list[Transition]:
    """Transitions of a 1-dim affine machine with a < 0 and a nonempty domain."""
    if m.flavor != "affine1":
        raise FlavorError("negative-transition analysis is for 1-dim affine machines")
    out = []
    for t in m.transitions:
        if t.payload.a < 0 and not domain_clause(t.payload).is_empty:
            out.append(t)
    return out

