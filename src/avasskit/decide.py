"""Yes/no questions about counter machines.

Reachability and coverability for one-counter affine machines ride on the
symbolic backward engine in :mod:`avasskit.prestar`.  Coverability gets a
second, independent route through a small machine surgery (two appended
states that check-and-forget the counter), so the two answers can
cross-check each other in tests.  The structural checks -- well-structure
under the natural order on configurations, and per-transition strong
monotony -- return verdict values carrying machine-checkable witnesses
instead of bare booleans.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FlavorError, GuardedMachineError, MachineError
from .machine import (
    AffineMap1,
    Configuration,
    Machine,
    Transition,
    UpwardTarget,
    affine_rows,
    affine_terms,
    domain_clause,
    fresh_state,
    negative_transitions,
)
from .presburger import Comparison, conj, exists_solution
from .prestar import compute_pre_star, compute_pre_star_upward

__all__ = [
    "reachable",
    "coverable",
    "covering_reduction",
    "coverable_via_reduction",
    "control_state_reachable",
    "WellStructuredVerdict",
    "is_well_structured",
    "StrongMonotonyVerdict",
    "is_strongly_monotone",
]


# --------------------------------------------------------------------------
# reachability and coverability


def reachable(m: Machine, source: Configuration, target: Configuration,
              **limits: int) -> bool:
    """Can ``source`` reach ``target`` in zero or more steps?

    Decided exactly: membership of the source counter in the backward
    reachability set of the target.  Keyword limits are passed through to
    :func:`avasskit.prestar.compute_pre_star`.
    """
    m.check_configuration(source)
    result = compute_pre_star(m, target, **limits)
    return result.set_for(source.state).member(source.counter)


def coverable(m: Machine, source: Configuration, target: Configuration,
              **limits: int) -> bool:
    """Can ``source`` reach the target state with a counter >= the target value?"""
    m.check_configuration(source)
    result = compute_pre_star_upward(m, UpwardTarget(target), **limits)
    return result.set_for(source.state).member(source.counter)


def covering_reduction(m: Machine, target: Configuration) -> tuple[Machine, Configuration]:
    """Rewrite covering ``target`` as plain reachability in a widened machine.

    Two fresh states are appended.  From the target's state, ``x' = x - n``
    (n the target value) fires exactly on counters >= n; a following
    ``x' = 0`` forgets the leftover.  Covering the target is then the same
    as reaching the second fresh state with counter zero.  Fresh state names
    start from ``q3``/``q4`` and dodge collisions with declared states.
    """
    if m.flavor != "affine1":
        raise FlavorError("the covering reduction is defined for one-counter affine machines")
    m.check_configuration(target)
    taken = set(m.states)
    check = fresh_state("q3", taken)
    goal = fresh_state("q4", taken)
    widened = Machine(
        name=f"{m.name}-cover",
        dimension=1,
        states=m.states + (check, goal),
        transitions=m.transitions + (
            Transition(target.state, check, AffineMap1(1, -target.counter)),
            Transition(check, goal, AffineMap1(0, 0)),
        ),
        initial=m.initial,
    )
    return widened, Configuration(goal, (0,))


def coverable_via_reduction(m: Machine, source: Configuration, target: Configuration,
                            **limits: int) -> bool:
    """:func:`coverable`, decided the long way round through :func:`covering_reduction`."""
    m.check_configuration(source)
    widened, goal = covering_reduction(m, target)
    return reachable(widened, source, goal, **limits)


def control_state_reachable(m: Machine, source: Configuration, state: str,
                            **limits: int) -> bool:
    """Can ``source`` reach the given control state, with any counter values?"""
    if state not in m.states:
        raise MachineError(f"unknown state {state!r}")
    return coverable(m, source, Configuration(state, (0,) * m.dimension), **limits)


# --------------------------------------------------------------------------
# well-structure under the natural order


@dataclass(frozen=True)
class WellStructuredVerdict:
    """Outcome of the well-structure check.

    When it fails, ``witness`` is the first transition (in declaration
    order) whose counter drops cannot be compensated, and ``counterexample``
    is the least source counter value from which nothing at or above
    ``(witness.target, witness.payload.b)`` is reachable.  ``prestar_calls``
    counts the backward analyses run; machines with no shrinking
    transitions need none.
    """

    well_structured: bool
    witness: Transition | None = None
    counterexample: int | None = None
    prestar_calls: int = 0

    def render(self) -> str:
        if self.well_structured:
            return "yes"
        t = self.witness
        return (f"no: transition {t.source} -> {t.target} fails from "
                f"{t.source}:{self.counterexample}")


def is_well_structured(m: Machine, **limits: int) -> WellStructuredVerdict:
    """Is the transition system monotone with respect to counter order?

    Exact for plain one-counter affine machines: a transition with negative
    slope ``a`` and offset ``b >= 0`` maps big counters to small ones, so
    larger configurations can only simulate it indirectly -- every counter
    value of its source state must be able to reach the upward closure of
    ``(target, b)``.  Negative-slope transitions with ``b < 0`` have empty
    domains over the naturals and are skipped.  Machines carrying explicit
    guard clauses are rejected outright: the criterion reads each
    transition's domain off its update alone, and a guard can break the
    upward closure it relies on.
    """
    if m.flavor != "affine1":
        raise FlavorError("the well-structure check covers one-counter affine machines")
    for t in m.transitions:
        if t.payload.guard is not None:
            raise GuardedMachineError(
                f"transition {t.source} -> {t.target} carries an explicit guard; "
                "the well-structure criterion assumes bare nonnegativity domains")
    calls = 0
    for t in negative_transitions(m):
        goal = UpwardTarget(Configuration(t.target, (t.payload.b,)))
        result = compute_pre_star_upward(m, goal, **limits)
        calls += 1
        covered = result.set_for(t.source)
        if not covered.is_full():
            gap = covered.complement().min_element()
            return WellStructuredVerdict(
                False, witness=t, counterexample=gap, prestar_calls=calls)
    return WellStructuredVerdict(True, prestar_calls=calls)


# --------------------------------------------------------------------------
# strong monotony


@dataclass(frozen=True)
class StrongMonotonyVerdict:
    """Outcome of the per-transition strong-monotony check.

    ``witness`` is the first transition (declaration order) that can fire
    from some configuration but not from every larger one with an at least
    as large result.
    """

    strongly_monotone: bool
    witness: Transition | None = None

    def render(self) -> str:
        if self.strongly_monotone:
            return "yes"
        t = self.witness
        return f"no: transition {t.source} -> {t.target} is not monotone"


def is_strongly_monotone(m: Machine) -> StrongMonotonyVerdict:
    """Does every transition individually preserve the counter order?

    A transition passes when its domain is empty (it never fires), or when
    its domain is upward closed and its matrix is entrywise nonnegative --
    then any configuration above a firing one can fire the same transition
    and lands at least as high.  For one-counter payloads the domain
    (including any guard clause) is computed exactly; for multi-counter
    ones, emptiness of ``A x + b >= 0`` is handed to the existential
    solver.

    This is a per-transition property: a machine could in principle cover
    one transition's order violations with a different transition and still
    be monotone as a system; such machines are reported as not strongly
    monotone here.
    """
    if m.flavor not in ("affine1", "affined"):
        raise FlavorError("strong monotony is decided for affine machines")
    for t in m.transitions:
        p = t.payload
        rows = affine_rows(p, m.dimension)
        nonnegative = all(k >= 0 for terms, _ in rows for _, k in terms)
        if isinstance(p, AffineMap1):
            dom = domain_clause(p)
            ok = dom.is_empty or (nonnegative and dom.hi is None and dom.modulus == 1)
        else:
            ok = nonnegative or exists_solution(
                conj(*(Comparison(y, ">=") for y in affine_terms(rows)))) is None
        if not ok:
            return StrongMonotonyVerdict(False, witness=t)
    return StrongMonotonyVerdict(True)
