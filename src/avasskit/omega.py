"""Reachability for totally positive machines via a finite cutoff abstraction.

Counters are tracked exactly up to a cutoff and collapsed to the single
symbol ω past it.  When every matrix entry and offset is nonnegative,
updates commute with that collapse -- a large value stays large -- so a
breadth-first search over the finite abstract space answers concrete
reachability exactly for targets whose components all fit under the cutoff.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import FlavorError, GuardedMachineError
from .machine import AffineMap1, Configuration, Machine, Payload, affine_rows, classify

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


def apply_abstract(p: Payload, v: OmegaVector) -> OmegaVector:
    """One abstract step: each matrix row summed under the ω rules.

    Zero times ω is zero, anything positive times ω is ω, ω plus anything
    is ω, and a finite sum past the cutoff collapses to ω.  Sound only for
    nonnegative rows, where no later term can shrink the sum; negative
    entries are refused.
    """
    _refuse_guard(p)
    entries = v.entries
    rows = affine_rows(p, len(entries))
    if rows is None:
        raise FlavorError(f"no totally positive matrix form for payload {p!r}")
    if any(b < 0 or any(k < 0 for _, k in terms) for terms, b in rows):
        raise FlavorError("abstract stepping needs a nonnegative matrix and offset")
    out = []
    for terms, off in rows:
        total: int | _OmegaType = off
        for i, k in terms:
            x = entries[i]
            if x is OMEGA:
                total = OMEGA
                break
            total += k * x
        if total is not OMEGA and total > v.cutoff:
            total = OMEGA
        out.append(total)
    return OmegaVector(tuple(out), v.cutoff)


def reachable_totally_positive(m: Machine, source: Configuration,
                               target: Configuration) -> bool:
    """Exact reachability for machines with nonnegative matrices and offsets.

    The cutoff is the largest target component (at least 1), so the target
    is its own abstraction.  Updates commute with the collapse, hence the
    abstract system reaches the target's image from the source's image iff
    the concrete system reaches the target -- and the abstract space
    Q x {0..cutoff, ω}^d is finite, so plain breadth-first search settles it.
    """
    if not classify(m).is_totally_positive_avass:
        raise FlavorError(
            "this route needs a totally positive machine "
            "(nonnegative matrices, nonnegative offsets, no zero tests)")
    for t in m.transitions:
        _refuse_guard(t.payload)
    m.check_configuration(source)
    m.check_configuration(target)
    cutoff = max(max(target.counters), 1)
    goal = (target.state, abstract(target.counters, cutoff).entries)
    start = (source.state, abstract(source.counters, cutoff).entries)
    seen = {start}
    frontier = deque([start])
    while frontier:
        state, entries = frontier.popleft()
        if (state, entries) == goal:
            return True
        vec = OmegaVector(entries, cutoff)
        for t in m.transitions_from(state):
            nxt = (t.target, apply_abstract(t.payload, vec).entries)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False
