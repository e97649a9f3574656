"""Bounded brute-force exploration: the testing oracle for the symbolic analyses.

Everything here is explicit-state search with hard budgets.  Budgets are not a
soundness hedge but the point: within the explored region the results are
exact, and ``truncated`` says whether the region's edge was hit.  The symbolic
modules are tested by agreement with these explorations on their safe regions.

:func:`post_star`, :func:`find_path`, :func:`pre_star_bounded` and
``omega.reachable_totally_positive`` are one breadth-first search,
:func:`_search`, over a table built once per call:
``table[state]`` holds ``(next_state, kernel)`` pairs, and ``kernel(counters)``
gives the counter tuples that way out of the state leads to: none, one or
many.  Forward tables have one entry per transition, in the order of
``transitions_from``; backward tables are described below.

The search holds no :class:`Configuration` objects: its visited set is one
dict per state, keyed by counter tuples, and each table entry carries the dict
of its target state, so a kernel result already visited costs one tuple
lookup.  A ``(state, counters)`` pair is made only for a new configuration,
and is also the parent pointer :func:`find_path` walks back.  A result's
``configs`` is a :class:`ConfigurationSet`, a read-only set over one frozenset
of counter tuples per state.  Configuration objects are built only at the
edge: the starts, the steps of a path, and iteration over ``configs``.

The search owns the budget and the one cut rule: ``max_depth`` caps the number
of steps from a start, ``max_configs`` the number of visited configurations,
and a kernel result with a counter above ``max_value`` is a cut, never
followed; a start above ``max_value`` is cut the same way, never visited.  Any
of the three sets ``truncated``.  Kernels give every result they find, above
the window too, so that rule is the same for every step kind.

* Forward, ``truncated`` means some configuration reachable from the start
  may have been missed: a successor above the window, or a budget hit.
* Backward, it means some configuration that reaches the target may have
  been missed: a predecessor (guard included) above the window, or a budget
  hit.  Scalar affine and counter-op machines have one backward kernel per
  transition into a state; a scalar ``x' = b`` has every value of its domain
  as a predecessor of ``b``, and gives those in the window plus the least one
  above it.  Matrix and relational machines have no backward step of their
  own; they walk the reverse of the in-window forward steps over the whole
  window, one entry per source state, and there a transition that can map a
  configuration above the window into it sets ``truncated`` (decided by the
  solver, at most once per transition; unsure counts as yes).
  The part of an upward target above the window is always cut, so
  ``truncated`` is set for every upward target.

Relational machines of dimension 1 have no successor function: the forward
kernel scans the candidate values ``0..max_value``, then asks the solver
whether the relation also allows a successor above ``max_value``, and adds
that one witness if it does.  So ``truncated`` means the same for them as for
the functional flavors.  Relational machines of other dimensions raise
:class:`FlavorError` before any search starts.
"""

from __future__ import annotations

import itertools
from collections.abc import Set
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import ArityError, BudgetExceededError, FlavorError, MachineError
from .machine import (
    AffineMap1,
    Configuration,
    Machine,
    MinskyOp,
    Transition,
    UpwardTarget,
    affine_rows,
    affine_terms,
    apply_payload,
    domain_clause,
    relational_variables,
    render_configuration,
)
from .presburger import TRUE, Comparison, conj, disj, evaluate, exists_solution, var
from .semiset import Clause, intersect_clauses


@dataclass(frozen=True)
class Budget:
    max_value: int = 1000
    max_configs: int = 200_000
    max_depth: int | None = None


class ConfigurationSet(Set):
    """A read-only set of configurations, held as one frozenset of counter
    tuples per state.

    Membership and ``len`` build no objects; iteration builds each
    :class:`Configuration` as it goes.  It equals the frozenset of the same
    configurations and has the same hash; ``|``, ``&``, ``-`` and ``^`` give a
    plain frozenset.
    """

    __slots__ = ("_counters",)

    def __init__(self, counters: dict[str, frozenset[tuple[int, ...]]]):
        self._counters = counters

    def __contains__(self, c: object) -> bool:
        if not isinstance(c, Configuration):
            return False
        got = self._counters.get(c.state)
        return got is not None and c.counters in got

    def __len__(self) -> int:
        return sum(map(len, self._counters.values()))

    def __iter__(self) -> Iterator[Configuration]:
        for state, got in self._counters.items():
            for counters in got:
                yield Configuration(state, counters)

    def rendered(self) -> list[str]:
        """The sorted text forms of the members, built without the members."""
        return sorted(render_configuration(state, counters)
                      for state, got in self._counters.items() for counters in got)

    _from_iterable = frozenset
    __hash__ = Set._hash


@dataclass(frozen=True)
class ExplorationResult:
    configs: ConfigurationSet
    truncated: bool

    def states_to_values(self) -> dict[str, list[int]]:
        """Single-counter view: state -> sorted counter values (dimension 1 only)."""
        out: dict[str, list[int]] = {}
        for state, got in sorted(self.configs._counters.items()):
            # every counter tuple of a result has the machine's dimension
            if len(next(iter(got))) != 1:
                raise MachineError("single-counter access on a multi-counter configuration")
            out[state] = sorted(n for n, in got)
        return out


Pair = tuple[str, tuple[int, ...]]


def _search(starts: Iterable[Configuration], table: dict, budget: Budget,
            goal: Callable[[Pair], bool] | None = None
            ) -> tuple[dict[str, dict[tuple[int, ...], Pair | None]], Pair | None, bool]:
    """Breadth-first search from ``starts`` over ``table`` within ``budget``.

    Returns ``(seen, found, truncated)``.  ``seen[state]`` maps the counters of
    every visited configuration in that state to the ``(state, counters)``
    pair it was first reached from (None for a start); found is the first
    visited pair that satisfies ``goal``, where the search stops, or None.
    A start above the window is cut like a step.
    """
    max_value, max_configs, max_depth = budget.max_value, budget.max_configs, budget.max_depth
    seen: dict[str, dict] = {q: {} for q in table}
    frontier = []
    truncated = False
    for c in starts:
        if max(c.counters) > max_value:
            truncated = True
            continue
        into = seen[c.state]
        if c.counters not in into:
            into[c.counters] = None
            frontier.append((c.state, c.counters))
    if goal is not None:
        for pair in frontier:
            if goal(pair):
                return seen, pair, truncated
    rows = {q: tuple((seen[p], p, kernel) for p, kernel in entries)
            for q, entries in table.items()}
    visited = len(frontier)
    depth = 0
    while frontier:
        if max_depth is not None and depth >= max_depth:
            return seen, None, True
        depth += 1
        reached = []
        for pair in frontier:
            state, counters = pair
            for into, p, kernel in rows[state]:
                for got in kernel(counters):
                    if got in into:
                        continue
                    if max(got) > max_value:
                        truncated = True
                        continue
                    if visited >= max_configs:
                        return seen, None, True
                    visited += 1
                    into[got] = pair
                    nxt = (p, got)
                    if goal is not None and goal(nxt):
                        return seen, nxt, truncated
                    reached.append(nxt)
        frontier = reached
    return seen, None, truncated


def _result(seen: dict[str, dict], truncated: bool) -> ExplorationResult:
    configs = ConfigurationSet({q: frozenset(got) for q, got in seen.items() if got})
    return ExplorationResult(configs, truncated)


def _relational_kernels(t: Transition, max_value: int) -> tuple[Callable, Callable]:
    """Kernels of the successors along a dimension-1 relational t: those with
    the counter <= max_value, and those plus the one witness above the window
    that the solver finds, if there is one."""
    (xv,), (xp,) = relational_variables(1)
    formula = t.payload.formula

    def window(counters):
        n = counters[0]
        return tuple((v,) for v in range(max_value + 1) if evaluate(formula, {xv: n, xp: v}))

    def relation(counters):
        inside = window(counters)
        above = exists_solution(conj(formula,
                                     Comparison(var(xv).shifted(-counters[0]), "="),
                                     Comparison(var(xp).shifted(-max_value - 1), ">=")))
        return inside if above is None else inside + ((above[xp],),)
    return window, relation


def _forward_kernel(m: Machine, t: Transition, max_value: int) -> Callable:
    """Kernel of the successors along t, above the window too."""
    p = t.payload
    if m.flavor == "relational":
        return _relational_kernels(t, max_value)[1]
    rows = affine_rows(p, m.dimension)
    if rows is None or isinstance(p, AffineMap1) and p.guard is not None:
        def op(counters):
            got = apply_payload(p, counters)
            return () if got is None else (got,)
        return op

    def matrix(counters):
        out = []
        for terms, v in rows:
            for i, a in terms:
                v += a * counters[i]
            if v < 0:
                return ()
            out.append(v)
        return (tuple(out),)
    return matrix


def _window_kernel(m: Machine, t: Transition, max_value: int) -> Callable:
    """Kernel of the successors along t, in the window at least: a relational t
    skips the solver's witness above it."""
    if m.flavor == "relational":
        return _relational_kernels(t, max_value)[0]
    return _forward_kernel(m, t, max_value)


def _check_flavor(m: Machine) -> None:
    if m.flavor == "relational" and m.dimension != 1:
        raise FlavorError("relational exploration is implemented for dimension 1 only")


def _forward_table(m: Machine, max_value: int) -> dict:
    return {q: tuple((t.target, _forward_kernel(m, t, max_value)) for t in m.transitions_from(q))
            for q in m.states}


def post_star(m: Machine, start: Configuration,
              budget: Budget = Budget()) -> ExplorationResult:
    """All configurations reachable from start with every counter <= max_value."""
    m.check_configuration(start)
    _check_flavor(m)
    seen, _, truncated = _search([start], _forward_table(m, budget.max_value), budget)
    return _result(seen, truncated)


def _backward_kernel(t: Transition, max_value: int) -> Callable:
    """Kernel of the predecessors along a scalar affine or counter-op t, above the window too."""
    p = t.payload
    if isinstance(p, MinskyOp):
        i = p.counter - 1
        if p.op == "inc":
            return lambda vs: (vs[:i] + (vs[i] - 1,) + vs[i + 1:],) if vs[i] >= 1 else ()
        if p.op == "dec":
            return lambda vs: (vs[:i] + (vs[i] + 1,) + vs[i + 1:],)
        return lambda vs: (vs,) if vs[i] == 0 else ()
    a, b = p.a, p.b
    dom = domain_clause(p)
    if a == 0:
        beyond = intersect_clauses(dom, Clause(max_value + 1))

        def constant(counters):
            if counters[0] == b:
                yield from ((n,) for n in dom.values(max_value))
                if not beyond.is_empty:
                    yield (beyond.lo,)
        return constant

    def scalar(counters):
        n, rest = divmod(counters[0] - b, a)
        if rest or not dom.member(n):
            return ()
        return ((n,),)
    return scalar


def _enters_window(m: Machine, t: Transition, max_value: int) -> bool:
    """Can t map a configuration above the window into it?  Yes if the solver cannot tell."""
    xs, ys = relational_variables(m.dimension)
    rows = affine_rows(t.payload, m.dimension)
    if rows is not None:
        succ, rel = affine_terms(rows), TRUE
    else:
        succ, rel = [var(y) for y in ys], t.payload.formula
    f = conj(rel, *(Comparison(y, ">=") for y in succ),
             *(Comparison(y.shifted(-max_value), "<=") for y in succ),
             disj(*(Comparison(var(x).shifted(-max_value - 1), ">=") for x in xs)))
    try:
        return exists_solution(f) is not None
    except ArityError:
        return True


def _window_table(m: Machine, budget: Budget) -> tuple[dict, bool]:
    """Reverse of the in-window forward steps over the whole window, for machines
    with no backward step of their own; the flag says whether some transition
    maps a configuration above the window into it.

    ``table[p]`` has one entry per source state q with a step into p, in the
    order of ``m.states``, and its kernel gives the counters in q that step
    into the given counters in p, in window order and then transition order.
    """
    d, max_value = m.dimension, budget.max_value
    window = (max_value + 1) ** d * len(m.states)
    if window > budget.max_configs:
        raise BudgetExceededError(
            f"window of {window} configurations exceeds budget {budget.max_configs}")
    reverse: dict[str, dict] = {p: {} for p in m.states}  # p -> q -> counters -> predecessors
    for q in m.states:
        kernels = [(t.target, _window_kernel(m, t, max_value)) for t in m.transitions_from(q)]
        for vs in itertools.product(range(max_value + 1), repeat=d):
            for p, kernel in kernels:
                for got in kernel(vs):
                    if max(got) <= max_value:
                        reverse[p].setdefault(q, {}).setdefault(got, []).append(vs)
    table = {p: tuple((q, lambda vs, get=preds.get: get(vs, ())) for q, preds in sources.items())
             for p, sources in reverse.items()}
    return table, any(_enters_window(m, t, max_value) for t in m.transitions)


def _seed_configs(m: Machine, target, budget: Budget) -> list[Configuration]:
    if isinstance(target, Configuration):
        m.check_configuration(target)
        return [target]
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
    # one member above the window, which the search cuts
    seeds.append(Configuration(cfg.state, tuple(max(v, budget.max_value + 1)
                                                for v in cfg.counters)))
    return seeds


def pre_star_bounded(m: Machine, target: Configuration | UpwardTarget,
                     budget: Budget = Budget()) -> ExplorationResult:
    """All configurations with counters <= max_value from which target is reachable.

    Exact within the budgeted window for scalar affine and counter-op flavors;
    matrix and 1-dim relational flavors go through a reverse adjacency of the
    whole window, budget permitting.
    """
    _check_flavor(m)
    seeds = _seed_configs(m, target, budget)
    window_cut = False
    if m.flavor in ("affine1", "minsky"):
        table = {q: tuple((t.source, _backward_kernel(t, budget.max_value))
                          for t in m.transitions_to(q))
                 for q in m.states}
    else:
        table, window_cut = _window_table(m, budget)
    seen, _, truncated = _search(seeds, table, budget)
    return _result(seen, truncated or window_cut)


def _goal(target: Configuration | UpwardTarget) -> Callable[[Pair], bool]:
    if isinstance(target, Configuration):
        return (target.state, target.counters).__eq__
    state, low = target.config.state, target.config.counters
    return lambda pair: pair[0] == state and all(a >= b for a, b in zip(pair[1], low))


def find_path(m: Machine, start: Configuration,
              target: Configuration | UpwardTarget,
              budget: Budget = Budget()) -> tuple[list[tuple[Transition, Configuration]] | None, bool]:
    """Shortest transition sequence from start to target within the budget.

    Returns (steps, truncated): steps is a list of (transition, configuration
    reached after it), empty when start already matches, or None when no path
    was found — with truncated saying whether the search was budget-clipped.
    """
    m.check_configuration(start)
    _check_flavor(m)
    seen, found, truncated = _search([start], _forward_table(m, budget.max_value), budget,
                                     _goal(target))
    if found is None:
        return None, truncated
    path = [found]
    while (prev := seen[path[-1][0]][path[-1][1]]) is not None:
        path.append(prev)
    path.reverse()
    # the transition a configuration was first reached by is the first one
    # out of its parent that yields it, as the search tried them in that order
    steps = []
    for (q, vs), (p, ws) in zip(path, path[1:]):
        t = next(t for t in m.transitions_from(q) if t.target == p
                 and ws in _window_kernel(m, t, budget.max_value)(vs))
        steps.append((t, Configuration(p, ws)))
    return steps, truncated
