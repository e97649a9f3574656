"""Bounded brute-force exploration: the testing oracle for the symbolic analyses.

Everything here is explicit-state search with hard budgets.  Budgets are not a
soundness hedge but the point: within the explored region the results are
exact, and ``truncated`` says whether the region's edge was hit.  The symbolic
modules are tested by agreement with these explorations on their safe regions.

Relational machines of dimension 1 are explored by scanning candidate
successor values up to ``max_value``; values beyond the budget are never
discovered, which is the documented meaning of the budget for that flavor.
"""

from __future__ import annotations

import itertools
import logging
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .errors import BudgetExceededError, FlavorError
from .machine import (
    AffineMap1,
    Configuration,
    Machine,
    MinskyOp,
    RelationalUpdate,
    Transition,
    UpwardTarget,
    apply_payload,
    effective_domain,
    relational_variables,
)
from .presburger import evaluate

log = logging.getLogger(__name__)


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
    return all(v <= max_value for v in counters)


def _forward_steps(m: Machine, c: Configuration,
                   budget: Budget) -> Iterator[tuple[Transition, Configuration, bool]]:
    """Yield (transition, successor, cut) triples; cut marks budget-clipped branches."""
    if m.flavor == "relational":
        if m.dimension != 1:
            raise FlavorError(
                "relational exploration is implemented for dimension 1 only")
        (xv,), (xp,) = relational_variables(1)
        for t in m.transitions_from(c.state):
            f = t.payload.formula
            for v in range(budget.max_value + 1):
                if evaluate(f, {xv: c.counter, xp: v}):
                    yield t, Configuration(t.target, (v,)), False
        return
    for t in m.transitions_from(c.state):
        got = apply_payload(t.payload, c.counters)
        if got is None:
            continue
        if _within(got, budget.max_value):
            yield t, Configuration(t.target, got), False
        else:
            yield t, Configuration(t.target, got), True


def post_star(m: Machine, start: Configuration,
              budget: Budget = Budget()) -> ExplorationResult:
    """All configurations reachable from start with every counter <= max_value."""
    m.check_configuration(start)
    if not _within(start.counters, budget.max_value):
        return ExplorationResult(frozenset(), True)
    seen = {start}
    frontier = deque([(start, 0)])
    truncated = False
    while frontier:
        c, depth = frontier.popleft()
        if budget.max_depth is not None and depth >= budget.max_depth:
            truncated = True
            continue
        for _, nxt, cut in _forward_steps(m, c, budget):
            if cut:
                truncated = True
                continue
            if nxt in seen:
                continue
            if len(seen) >= budget.max_configs:
                truncated = True
                log.debug("post_star config budget hit at %s", nxt)
                return ExplorationResult(frozenset(seen), True)
            seen.add(nxt)
            frontier.append((nxt, depth + 1))
    return ExplorationResult(frozenset(seen), truncated)


def _backward_steps_affine1(m: Machine, c: Configuration,
                            budget: Budget) -> Iterator[Configuration]:
    v = c.counter
    for t in m.transitions_to(c.state):
        p: AffineMap1 = t.payload
        if p.a == 0:
            if v == p.b:
                dom = effective_domain(p)
                for n in dom.values(budget.max_value):
                    yield Configuration(t.source, (n,))
            continue
        num = v - p.b
        if num % p.a != 0:
            continue
        n = num // p.a
        if n < 0 or n > budget.max_value:
            continue
        if p.a * n + p.b != v:  # sign sanity for negative a
            continue
        if p.guard is not None and not p.guard.member(n):
            continue
        yield Configuration(t.source, (n,))


def _backward_steps_minsky(m: Machine, c: Configuration,
                           budget: Budget) -> Iterator[tuple[Configuration, bool]]:
    for t in m.transitions_to(c.state):
        p: MinskyOp = t.payload
        i = p.counter - 1
        vs = c.counters
        if p.op == "inc":
            if vs[i] >= 1:
                yield Configuration(t.source, vs[:i] + (vs[i] - 1,) + vs[i + 1:]), False
        elif p.op == "dec":
            if vs[i] + 1 > budget.max_value:
                yield c, True  # predecessor exists but lies outside the budget
            else:
                yield Configuration(t.source, vs[:i] + (vs[i] + 1,) + vs[i + 1:]), False
        else:
            if vs[i] == 0:
                yield Configuration(t.source, vs), False


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
    matrix and 1-dim relational flavors go through a forward adjacency of the
    whole window, budget permitting.
    """
    seeds, truncated = _seed_configs(m, target, budget)
    flavor = m.flavor
    if flavor in ("affined", "relational"):
        return _pre_star_via_forward(m, seeds, truncated, budget)
    seen = set(seeds)
    frontier = deque((s, 0) for s in seeds)
    while frontier:
        c, depth = frontier.popleft()
        if budget.max_depth is not None and depth >= budget.max_depth:
            truncated = True
            continue
        if flavor == "affine1":
            preds: Iterator = ((p, False) for p in _backward_steps_affine1(m, c, budget))
        else:
            preds = _backward_steps_minsky(m, c, budget)
        for pred, cut in preds:
            if cut:
                truncated = True
                continue
            if pred in seen:
                continue
            if len(seen) >= budget.max_configs:
                return ExplorationResult(frozenset(seen), True)
            seen.add(pred)
            frontier.append((pred, depth + 1))
    return ExplorationResult(frozenset(seen), truncated)


def _pre_star_via_forward(m: Machine, seeds: list[Configuration], truncated: bool,
                          budget: Budget) -> ExplorationResult:
    d = m.dimension
    window = (budget.max_value + 1) ** d * len(m.states)
    if window > budget.max_configs:
        raise BudgetExceededError(
            f"window of {window} configurations exceeds budget {budget.max_configs}")
    reverse: dict[Configuration, list[Configuration]] = {}
    for q in m.states:
        for vs in itertools.product(range(budget.max_value + 1), repeat=d):
            c = Configuration(q, vs)
            for _, nxt, cut in _forward_steps(m, c, budget):
                if cut:
                    truncated = True
                    continue
                reverse.setdefault(nxt, []).append(c)
    seen = set(seeds)
    frontier = deque(seeds)
    while frontier:
        c = frontier.popleft()
        for pred in reverse.get(c, ()):
            if pred not in seen:
                seen.add(pred)
                frontier.append(pred)
    return ExplorationResult(frozenset(seen), truncated)


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
    if _matches(start, target):
        return [], False
    parents: dict[Configuration, tuple[Configuration, Transition]] = {start: None}
    frontier = deque([(start, 0)])
    truncated = False
    while frontier:
        c, depth = frontier.popleft()
        if budget.max_depth is not None and depth >= budget.max_depth:
            truncated = True
            continue
        for t, nxt, cut in _forward_steps(m, c, budget):
            if cut:
                truncated = True
                continue
            if nxt in parents:
                continue
            if len(parents) >= budget.max_configs:
                return None, True
            parents[nxt] = (c, t)
            if _matches(nxt, target):
                steps = []
                cur = nxt
                while parents[cur] is not None:
                    prev, tr = parents[cur]
                    steps.append((tr, cur))
                    cur = prev
                steps.reverse()
                return steps, truncated
            frontier.append((nxt, depth + 1))
    return None, truncated
