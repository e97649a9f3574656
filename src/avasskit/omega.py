"""Reachability for totally positive machines via a finite cutoff abstraction.

Counters are tracked exactly up to a cutoff and collapsed to the single
symbol ω past it.  When every matrix entry and offset is nonnegative,
updates commute with that collapse -- a large value stays large -- so a
search over the finite abstract space answers concrete reachability exactly
for targets whose components all fit under the cutoff.  Inside, ω is the
number ``cutoff + 1``, the abstract step is the concrete step capped there,
and the simulator's breadth-first search runs it; :data:`OMEGA`,
:class:`OmegaVector` and :func:`abstract` are that encoding's public face.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import FlavorError, GuardedMachineError
from .machine import (AffineMap1, Configuration, Machine, Payload, Rows, Transition,
                      affine_rows, check_payload)
from .simulator import Budget, _goal, _search

__all__ = [
    "OMEGA",
    "OmegaVector",
    "abstract",
    "apply_abstract",
    "reachable_totally_positive",
]


class _OmegaType:
    __slots__ = ()

    def __repr__(self) -> str:
        return "ω"


OMEGA = _OmegaType()
"""Stands for every counter value strictly above the cutoff."""


@dataclass(frozen=True)
class OmegaVector:
    """Counter vector with entries in {0, ..., cutoff} ∪ {ω}."""

    entries: tuple
    cutoff: int

    def __post_init__(self) -> None:
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        for e in self.entries:
            if e is OMEGA:
                continue
            if not 0 <= e <= self.cutoff:
                raise ValueError(f"entry {e} is outside [0, {self.cutoff}] and not ω")

    def render(self) -> str:
        return "(" + ",".join("ω" if e is OMEGA else str(e) for e in self.entries) + ")"


def abstract(values: tuple[int, ...], cutoff: int) -> OmegaVector:
    """Componentwise collapse: values above the cutoff become ω, the rest stay."""
    return OmegaVector(tuple(v if v <= cutoff else OMEGA for v in values), cutoff)


def _refuse_guard(p: Payload) -> None:
    if isinstance(p, AffineMap1) and p.guard is not None:
        raise GuardedMachineError(
            "the cutoff abstraction reads bare updates; guards have no ω semantics")


def _capped_step(rows: Rows, cap: int) -> Callable:
    """Kernel of the concrete step along nonnegative ``rows``, each result capped
    at ``cap``: with ω held as ``cap = cutoff + 1``, the abstract step.

    A nonnegative row sums to at least ``cap`` exactly when a positive
    coefficient meets ω or the finite sum passes the cutoff, and zero times ω
    adds nothing, so the cap is the ω rules.
    """
    def step(counters):
        out = []
        for terms, v in rows:
            for i, k in terms:
                v += k * counters[i]
            out.append(v if v < cap else cap)
        return (tuple(out),)
    return step


def _nonnegative_rows(p: Payload, dim: int) -> Rows | None:
    """The payload's :func:`affine_rows`, or None if it has none or a negative
    coefficient or offset: rows that could shrink a capped sum."""
    rows = affine_rows(p, dim)
    if rows is None or any(b < 0 or any(k < 0 for _, k in terms) for terms, b in rows):
        return None
    return rows


def apply_abstract(p: Payload, v: OmegaVector) -> OmegaVector:
    """One abstract step: the capped concrete step, ω read and written as ``cutoff + 1``."""
    _refuse_guard(p)
    dim = len(v.entries)
    check_payload(p, dim)
    rows = _nonnegative_rows(p, dim)
    if rows is None:
        raise FlavorError(f"no totally positive matrix form for payload {p!r}")
    cap = v.cutoff + 1
    (got,) = _capped_step(rows, cap)(tuple(cap if e is OMEGA else e for e in v.entries))
    return OmegaVector(tuple(OMEGA if e == cap else e for e in got), v.cutoff)


def reachable_totally_positive(m: Machine, source: Configuration,
                               target: Configuration) -> bool:
    """Exact reachability for machines with nonnegative matrices and offsets.

    The cutoff is the largest target component (at least 1), so the target
    is its own abstraction.  Updates commute with the collapse, hence the
    abstract system reaches the target from the source's image iff the
    concrete system does.  The abstract space Q x {0..cutoff+1}^d is finite,
    and the simulator's breadth-first search runs over it with a budget that
    holds all of it, so the search is never cut.
    """
    cap = max(max(target.counters), 1) + 1

    def step(t: Transition) -> Callable:
        rows = _nonnegative_rows(t.payload, m.dimension)
        if rows is None:
            raise FlavorError(
                "this route needs a totally positive machine "
                "(nonnegative matrices, nonnegative offsets, no zero tests)")
        return _capped_step(rows, cap)
    table = {q: tuple((t.target, step(t)) for t in m.transitions_from(q)) for q in m.states}
    for t in m.transitions:
        _refuse_guard(t.payload)
    m.check_configuration(source)
    m.check_configuration(target)
    start = Configuration(source.state, tuple(min(v, cap) for v in source.counters))
    budget = Budget(cap, len(m.states) * (cap + 1) ** m.dimension)
    return _search([start], table, budget, _goal(target))[1] is not None
