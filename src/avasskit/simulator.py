"""Bounded brute-force exploration: the testing oracle for the symbolic analyses.

Everything here is explicit-state search with hard budgets.  Budgets are not a
soundness hedge but the point: within the explored region the results are
exact, and ``truncated`` says whether the region's edge was hit.  The symbolic
modules are tested by agreement with these explorations on their safe regions.

:func:`post_star`, :func:`find_path` and :func:`pre_star_bounded` are one
breadth-first search, :func:`_search`, run over a step function: forward steps
for the first two, backward steps for the third.  The search owns the budget:
``max_depth`` caps the number of steps from a start, ``max_configs`` the
number of visited configurations, and a step to a counter above ``max_value``
is a cut, never followed.  Any of the three sets ``truncated``.

* Forward, ``truncated`` means some configuration reachable from the start
  may have been missed: a successor above the window, or a budget hit.
* Backward, it means some configuration that reaches the target may have
  been missed: a predecessor (guard included) above the window, or a budget
  hit.  Matrix and relational machines have no backward step of their own;
  they walk the reverse of the in-window forward steps over the whole
  window, and there a transition that can map a configuration above the
  window into it sets ``truncated`` (decided by the solver, at most once
  per transition; unsure counts as yes).

Relational machines of dimension 1 have no successor function: the forward
step scans the candidate values ``0..max_value`` for each transition, then
asks the solver whether the relation also allows a successor above
``max_value``, and yields one cut step if it does.  So ``truncated`` means
the same for them as for the functional flavors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import ArityError, BudgetExceededError, FlavorError
from .machine import (
    AffineMap1,
    AffineMapD,
    Configuration,
    Machine,
    MinskyOp,
    Transition,
    UpwardTarget,
    apply_payload,
    domain_clause,
    relational_variables,
)
from .presburger import TRUE, Comparison, LinearTerm, conj, disj, evaluate, exists_solution, var
from .semiset import Clause, intersect_clauses

Step = tuple[Transition, Configuration, bool]


@dataclass(frozen=True)
class Budget:
    max_value: int = 1000
    max_configs: int = 200_000
    max_depth: int | None = None


@dataclass(frozen=True)
class ExplorationResult:
    configs: frozenset[Configuration]
    truncated: bool

    def states_to_values(self) -> dict[str, list[int]]:
        """Single-counter view: state -> sorted counter values (dimension 1 only)."""
        out: dict[str, list[int]] = {}
        for c in sorted(self.configs, key=lambda c: (c.state, c.counters)):
            out.setdefault(c.state, []).append(c.counter)
        return out


def _within(counters: tuple[int, ...], max_value: int) -> bool:
    return max(counters) <= max_value


def _search(starts: Iterable[Configuration], steps: Callable[[Configuration], Iterable[Step]],
            budget: Budget, goal: Callable[[Configuration], bool] | None = None
            ) -> tuple[dict[Configuration, Configuration | None], Configuration | None, bool]:
    """Breadth-first search from ``starts`` along ``steps`` within ``budget``.

    ``steps(c)`` yields ``(transition, configuration, cut)`` triples; cut
    steps leave the window and only set ``truncated``.  Returns
    ``(parents, found, truncated)``: parents maps every visited configuration
    to the one it was first reached from (None for a start), and found is
    the first visited configuration that satisfies ``goal``, where the
    search stops, or None.
    """
    parents: dict[Configuration, Configuration | None] = dict.fromkeys(starts)
    if goal is not None:
        for c in parents:
            if goal(c):
                return parents, c, False
    truncated = False
    frontier = list(parents)
    depth = 0
    while frontier:
        if budget.max_depth is not None and depth >= budget.max_depth:
            return parents, None, True
        depth += 1
        reached = []
        for c in frontier:
            for _, nxt, cut in steps(c):
                if cut:
                    truncated = True
                elif nxt not in parents:
                    if len(parents) >= budget.max_configs:
                        return parents, None, True
                    parents[nxt] = c
                    if goal is not None and goal(nxt):
                        return parents, nxt, truncated
                    reached.append(nxt)
        frontier = reached
    return parents, None, truncated


def _window_successors(m: Machine, t: Transition, c: Configuration,
                       max_value: int) -> Iterator[Configuration]:
    """Successors of c along t with every counter <= max_value."""
    if m.flavor != "relational":
        got = apply_payload(t.payload, c.counters)
        if got is not None and max(got) <= max_value:
            yield Configuration(t.target, got)
        return
    if m.dimension != 1:
        raise FlavorError("relational exploration is implemented for dimension 1 only")
    (xv,), (xp,) = relational_variables(1)
    for v in range(max_value + 1):
        if evaluate(t.payload.formula, {xv: c.counter, xp: v}):
            yield Configuration(t.target, (v,))


def _forward_steps(m: Machine, c: Configuration, budget: Budget) -> Iterator[Step]:
    """Yield (transition, successor, cut) triples; cut marks successors above max_value."""
    if m.flavor == "relational":
        (xv,), (xp,) = relational_variables(1)
        for t in m.transitions_from(c.state):
            for nxt in _window_successors(m, t, c, budget.max_value):
                yield t, nxt, False
            above = exists_solution(conj(t.payload.formula,
                                         Comparison(var(xv).shifted(-c.counter), "="),
                                         Comparison(var(xp).shifted(-budget.max_value - 1), ">=")))
            if above is not None:
                yield t, Configuration(t.target, (above[xp],)), True
        return
    for t in m.transitions_from(c.state):
        got = apply_payload(t.payload, c.counters)
        if got is not None:
            yield t, Configuration(t.target, got), max(got) > budget.max_value


def post_star(m: Machine, start: Configuration,
              budget: Budget = Budget()) -> ExplorationResult:
    """All configurations reachable from start with every counter <= max_value."""
    m.check_configuration(start)
    if not _within(start.counters, budget.max_value):
        return ExplorationResult(frozenset(), True)
    parents, _, truncated = _search([start], lambda c: _forward_steps(m, c, budget), budget)
    return ExplorationResult(frozenset(parents), truncated)


def _backward_steps_affine1(m: Machine, c: Configuration, budget: Budget) -> Iterator[Step]:
    """Yield (transition, predecessor, cut) triples; cut marks predecessors above max_value."""
    v = c.counter
    for t in m.transitions_to(c.state):
        p: AffineMap1 = t.payload
        if p.a == 0:
            if v == p.b:
                dom = domain_clause(p)
                for n in dom.values(budget.max_value):
                    yield t, Configuration(t.source, (n,)), False
                beyond = intersect_clauses(dom, Clause(budget.max_value + 1))
                if not beyond.is_empty:
                    yield t, Configuration(t.source, (beyond.lo,)), True
            continue
        n, rest = divmod(v - p.b, p.a)
        if rest or n < 0 or (p.guard is not None and not p.guard.member(n)):
            continue
        yield t, Configuration(t.source, (n,)), n > budget.max_value


def _backward_steps_minsky(m: Machine, c: Configuration, budget: Budget) -> Iterator[Step]:
    """Yield (transition, predecessor, cut) triples; cut marks predecessors above max_value."""
    for t in m.transitions_to(c.state):
        p: MinskyOp = t.payload
        i = p.counter - 1
        vs = c.counters
        if p.op == "inc":
            if vs[i] >= 1:
                yield t, Configuration(t.source, vs[:i] + (vs[i] - 1,) + vs[i + 1:]), False
        elif p.op == "dec":
            up = vs[:i] + (vs[i] + 1,) + vs[i + 1:]
            yield t, Configuration(t.source, up), vs[i] + 1 > budget.max_value
        elif vs[i] == 0:
            yield t, Configuration(t.source, vs), False


def _enters_window(m: Machine, t: Transition, max_value: int) -> bool:
    """Can t map a configuration above the window into it?  Yes if the solver cannot tell."""
    xs, ys = relational_variables(m.dimension)
    p = t.payload
    if isinstance(p, AffineMapD):
        succ = [LinearTerm.build(dict(zip(xs, row)), b) for row, b in zip(p.matrix, p.offset)]
        rel = TRUE
    else:
        succ, rel = [var(y) for y in ys], p.formula
    f = conj(rel, *(Comparison(y, ">=") for y in succ),
             *(Comparison(y.shifted(-max_value), "<=") for y in succ),
             disj(*(Comparison(var(x).shifted(-max_value - 1), ">=") for x in xs)))
    try:
        return exists_solution(f) is not None
    except ArityError:
        return True


def _window_predecessors(m: Machine,
                         budget: Budget) -> tuple[dict[Configuration, list[Step]], bool]:
    """Reverse of the forward steps over the whole window, for machines with no
    backward step of their own; the flag says whether some transition maps a
    configuration above the window into it."""
    d = m.dimension
    window = (budget.max_value + 1) ** d * len(m.states)
    if window > budget.max_configs:
        raise BudgetExceededError(
            f"window of {window} configurations exceeds budget {budget.max_configs}")
    reverse: dict[Configuration, list[Step]] = {}
    for q in m.states:
        for vs in itertools.product(range(budget.max_value + 1), repeat=d):
            c = Configuration(q, vs)
            for t in m.transitions_from(q):
                for nxt in _window_successors(m, t, c, budget.max_value):
                    reverse.setdefault(nxt, []).append((t, c, False))
    return reverse, any(_enters_window(m, t, budget.max_value) for t in m.transitions)


def _seed_configs(m: Machine, target, budget: Budget) -> tuple[list[Configuration], bool]:
    if isinstance(target, Configuration):
        m.check_configuration(target)
        if not _within(target.counters, budget.max_value):
            return [], True
        return [target], False
    cfg = target.config
    m.check_configuration(cfg)
    seeds = []
    ranges = [range(v, budget.max_value + 1) for v in cfg.counters]
    total = 1
    for r in ranges:
        total *= len(r)
    if total > budget.max_configs:
        raise BudgetExceededError(
            f"upward seed region has {total} configurations, budget {budget.max_configs}")
    for vs in itertools.product(*ranges):
        seeds.append(Configuration(cfg.state, vs))
    return seeds, False


def pre_star_bounded(m: Machine, target: Configuration | UpwardTarget,
                     budget: Budget = Budget()) -> ExplorationResult:
    """All configurations with counters <= max_value from which target is reachable.

    Exact within the budgeted window for scalar affine and counter-op flavors;
    matrix and 1-dim relational flavors go through a reverse adjacency of the
    whole window, budget permitting.
    """
    seeds, truncated = _seed_configs(m, target, budget)
    if m.flavor == "affine1":
        steps = lambda c: _backward_steps_affine1(m, c, budget)
    elif m.flavor == "minsky":
        steps = lambda c: _backward_steps_minsky(m, c, budget)
    else:
        reverse, window_cut = _window_predecessors(m, budget)
        truncated = truncated or window_cut
        steps = lambda c: reverse.get(c, ())
    parents, _, clipped = _search(seeds, steps, budget)
    return ExplorationResult(frozenset(parents), truncated or clipped)


def _matches(c: Configuration, target: Configuration | UpwardTarget) -> bool:
    if isinstance(target, Configuration):
        return c == target
    t = target.config
    return c.state == t.state and all(a >= b for a, b in zip(c.counters, t.counters))


def find_path(m: Machine, start: Configuration,
              target: Configuration | UpwardTarget,
              budget: Budget = Budget()) -> tuple[list[tuple[Transition, Configuration]] | None, bool]:
    """Shortest transition sequence from start to target within the budget.

    Returns (steps, truncated): steps is a list of (transition, configuration
    reached after it), empty when start already matches, or None when no path
    was found — with truncated saying whether the search was budget-clipped.
    """
    m.check_configuration(start)
    if not _within(start.counters, budget.max_value):
        return None, True
    parents, found, truncated = _search(
        [start], lambda c: _forward_steps(m, c, budget), budget, lambda c: _matches(c, target))
    if found is None:
        return None, truncated
    path = [found]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    path.reverse()
    # the transition a configuration was first reached by is the first one
    # out of its parent that yields it, as the search tried them in that order
    steps = []
    for prev, nxt in zip(path, path[1:]):
        t = next(t for t, c, cut in _forward_steps(m, prev, budget) if c == nxt and not cut)
        steps.append((t, nxt))
    return steps, truncated
