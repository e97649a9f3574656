"""Bounded exploration: frozen closures plus forward/backward cross-validation."""

from __future__ import annotations

import itertools
import random

import pytest

from avasskit.errors import BudgetExceededError, FlavorError, MachineError
from avasskit.machine import (
    AffineMap1,
    AffineMapD,
    Configuration,
    Machine,
    MinskyOp,
    RelationalUpdate,
    Transition,
    UpwardTarget,
    affine_rows,
    apply,
    apply_payload,
)
from avasskit.presburger import Comparison, Congruence, conj, const, disj, evaluate, var
from avasskit.semiset import Clause
from avasskit import simulator
from avasskit.simulator import Budget, find_path, post_star, pre_star_bounded


def m1() -> Machine:
    return Machine("M1", 1, ("q1", "q2"), (
        Transition("q1", "q2", AffineMap1(1, -13)),
        Transition("q1", "q1", AffineMap1(-1, 19)),
        Transition("q2", "q2", AffineMap1(1, -3)),
        Transition("q2", "q1", AffineMap1(1, 0)),
    ), initial="q1")


# --- frozen closures (hand-derived before implementation) --------------------

def test_post_star_m1_from_10_is_two_configs():
    got = post_star(m1(), Configuration("q1", (10,)))
    assert got.configs == {Configuration("q1", (10,)), Configuration("q1", (9,))}
    assert not got.truncated


def test_post_star_m1_from_1_closure():
    got = post_star(m1(), Configuration("q1", (1,)), Budget(max_value=100))
    assert not got.truncated
    assert got.states_to_values() == {
        "q1": [1, 2, 4, 5, 14, 15, 17, 18],
        "q2": [1, 2, 4, 5],
    }
    assert len(got.configs) == 12
    assert max(c.counter for c in got.configs) == 18


def test_post_star_truncation_flag():
    grow = Machine("g", 1, ("a",), (Transition("a", "a", AffineMap1(1, 1)),))
    got = post_star(grow, Configuration("a", (0,)), Budget(max_value=50))
    assert got.truncated
    assert len(got.configs) == 51
    # two counters: one component past the window is a cut
    up2 = Machine("g2", 2, ("a",), (Transition("a", "a", AffineMapD(((1, 0), (0, 1)), (0, 1))),))
    got = post_star(up2, Configuration("a", (0, 0)), Budget(max_value=3))
    assert got.truncated and len(got.configs) == 4
    swap = Machine("s", 2, ("a",), (Transition("a", "a", AffineMapD(((0, 1), (1, 0)), (0, 0))),))
    got = post_star(swap, Configuration("a", (3, 1)), Budget(max_value=3))
    assert got.configs == {Configuration("a", (3, 1)), Configuration("a", (1, 3))}
    assert not got.truncated
    with pytest.raises(MachineError):
        got.states_to_values()


def test_relational_forward_truncation():
    # x' = x + 1 leaves a window of 5 as the scalar AffineMap1(1, 1) does
    plus1 = Comparison(var("x'").minus(var("x")).minus(const(1)), "=")
    m = Machine("r", 1, ("a",), (Transition("a", "a", RelationalUpdate(plus1)),))
    got = post_star(m, Configuration("a", (0,)), Budget(max_value=5))
    assert got.truncated and {c.counter for c in got.configs} == set(range(6))
    assert find_path(m, Configuration("a", (0,)), Configuration("a", (7,)),
                     Budget(max_value=5)) == (None, True)
    same = Comparison(var("x'").minus(var("x")), "=")
    m = Machine("r", 1, ("a",), (Transition("a", "a", RelationalUpdate(same)),))
    assert not post_star(m, Configuration("a", (5,)), Budget(max_value=5)).truncated


def test_relational_dimension_two_is_refused_before_searching():
    # the refusal does not depend on whether a relational step is ever tried:
    # state b has no way out, and a depth of 0 takes no step at all
    keep = conj(Comparison(var("x1'").minus(var("x1")), "="),
                Comparison(var("x2'").minus(var("x2")), "="))
    m = Machine("r2", 2, ("a", "b"), (Transition("a", "a", RelationalUpdate(keep)),))
    for start, budget in ((Configuration("b", (0, 0)), Budget(max_value=3)),
                          (Configuration("a", (0, 0)), Budget(max_value=3, max_depth=0))):
        with pytest.raises(FlavorError):
            post_star(m, start, budget)
        with pytest.raises(FlavorError):
            find_path(m, start, Configuration("a", (1, 1)), budget)
        with pytest.raises(FlavorError):
            pre_star_bounded(m, start, budget)


def test_post_star_depth_budget():
    grow = Machine("g", 1, ("a",), (Transition("a", "a", AffineMap1(1, 1)),))
    got = post_star(grow, Configuration("a", (0,)), Budget(max_value=50, max_depth=3))
    assert got.truncated
    assert {c.counter for c in got.configs} == {0, 1, 2, 3}


# --- the configuration set of a result ----------------------------------------

def test_configs_set_operators_give_frozensets():
    configs = post_star(m1(), Configuration("q1", (1,)), Budget(max_value=100)).configs
    plain = frozenset(configs)
    other = {Configuration("q1", (1,)), Configuration("q3", (0,))}
    for got, want in ((configs | other, plain | other), (configs & other, plain & other),
                      (configs - other, plain - other), (configs ^ other, plain ^ other),
                      (other | configs, other | plain), (other - configs, other - plain)):
        assert type(got) is frozenset and got == want


def test_configs_contain_only_configurations():
    configs = post_star(m1(), Configuration("q1", (10,))).configs
    assert Configuration("q1", (9,)) in configs
    assert Configuration("q2", (9,)) not in configs
    for other in (("q1", (9,)), "q1", (9,), None):
        assert other not in configs


def test_configs_hash_as_the_frozenset_of_their_elements():
    for start in (Configuration("q1", (1,)), Configuration("q1", (10,))):
        got = post_star(m1(), start, Budget(max_value=100))
        assert got.configs == frozenset(got.configs) and frozenset(got.configs) == got.configs
        assert hash(got.configs) == hash(frozenset(got.configs))
        assert hash(got) == hash(simulator.ExplorationResult(frozenset(got.configs), False))


def test_post_star_from_outside_the_window_gives_an_empty_set():
    got = post_star(m1(), Configuration("q1", (101,)), Budget(max_value=100))
    inside = post_star(m1(), Configuration("q1", (10,)), Budget(max_value=100))
    assert type(got.configs) is type(inside.configs)
    assert got.truncated and len(got.configs) == 0 and got.configs == frozenset()
    assert hash(got.configs) == hash(frozenset())
    # a start above the window is cut like a step: find_path finds nothing,
    # not even the start itself, and says the search was cut
    budget = Budget(max_value=100)
    high = Configuration("q1", (101,))
    assert find_path(m1(), high, Configuration("q1", (10,)), budget) == (None, True)
    assert find_path(m1(), high, high, budget) == (None, True)
    back = pre_star_bounded(m1(), high, budget)
    assert back.truncated and len(back.configs) == 0


# --- backward search ---------------------------------------------------------

def test_pre_star_bounded_m1_upward_19():
    got = pre_star_bounded(
        m1(), UpwardTarget(Configuration("q1", (19,))), Budget(max_value=60))
    values_q1 = got.states_to_values()["q1"]
    assert 0 in values_q1          # 0 -> 19 directly covers
    assert 1 not in values_q1      # forward closure from 1 tops out at 18
    assert all(v in values_q1 for v in range(19, 61))


def random_affine1(rng: random.Random) -> Machine:
    nq = rng.randint(1, 3)
    states = tuple(f"s{i}" for i in range(nq))
    nt = rng.randint(1, 5)
    ts = []
    for _ in range(nt):
        a = rng.choice([-2, -1, 0, 1, 1, 2])
        b = rng.randint(-8, 12)
        ts.append(Transition(rng.choice(states), rng.choice(states), AffineMap1(a, b)))
    return Machine("r", 1, states, tuple(ts))


def test_backward_forward_agree_affine1():
    rng = random.Random(20260822)
    mv = 40
    for _ in range(40):
        m = random_affine1(rng)
        tq = rng.choice(m.states)
        tv = rng.randint(0, mv)
        target = Configuration(tq, (tv,))
        budget = Budget(max_value=mv)
        back = pre_star_bounded(m, target, budget)
        fwd = set()
        for q in m.states:
            for v in range(mv + 1):
                c = Configuration(q, (v,))
                if target in post_star(m, c, budget).configs:
                    fwd.add(c)
        assert back.configs == frozenset(fwd), (m, target)


def test_backward_forward_agree_minsky():
    rng = random.Random(7)
    mv = 12
    for _ in range(25):
        nq = rng.randint(1, 3)
        states = tuple(f"s{i}" for i in range(nq))
        ts = []
        for _ in range(rng.randint(1, 6)):
            op = rng.choice(["inc", "dec", "zero"])
            ts.append(Transition(
                rng.choice(states), rng.choice(states), MinskyOp(op, rng.randint(1, 2))))
        m = Machine("mk", 2, states, tuple(ts))
        target = Configuration(rng.choice(states), (rng.randint(0, mv), rng.randint(0, mv)))
        budget = Budget(max_value=mv)
        back = pre_star_bounded(m, target, budget)
        fwd = set()
        for q in m.states:
            for v1 in range(mv + 1):
                for v2 in range(mv + 1):
                    c = Configuration(q, (v1, v2))
                    if target in post_star(m, c, budget).configs:
                        fwd.add(c)
        assert back.configs == frozenset(fwd)


def test_pre_star_constant_transition_backward():
    # a = 0 edges map the whole domain onto one value; backward must fan out
    m = Machine("c", 1, ("a", "b"), (
        Transition("a", "b", AffineMap1(0, 7)),))
    got = pre_star_bounded(m, Configuration("b", (7,)), Budget(max_value=20))
    assert got.states_to_values()["a"] == list(range(21))
    none = pre_star_bounded(m, Configuration("b", (6,)), Budget(max_value=20))
    assert none.states_to_values().get("a") is None


def test_pre_star_bounded_truncated_by_predecessors_past_the_window():
    # q2:61 -> q2:58 -> ... -> q2:19 -> q1:19 reaches the target from above
    # the window, so a window of 60 is not the whole answer.
    assert find_path(m1(), Configuration("q2", (61,)), Configuration("q1", (19,)),
                     Budget(max_value=61))[0] is not None
    assert pre_star_bounded(m1(), Configuration("q1", (19,)), Budget(max_value=60)).truncated
    # A predecessor past the window counts only where the guard holds.
    shift = Machine("g", 1, ("a", "b"), (
        Transition("a", "b", AffineMap1(1, -5, Clause(0, 20))),))
    assert pre_star_bounded(shift, Configuration("b", (10,)), Budget(max_value=12)).truncated
    assert not pre_star_bounded(shift, Configuration("b", (16,)), Budget(max_value=16)).truncated
    # An a = 0 transition: its domain past the window, guard included.
    const7 = Machine("c", 1, ("a", "b"), (
        Transition("a", "b", AffineMap1(0, 7, Clause(0, 20))),))
    assert pre_star_bounded(const7, Configuration("b", (7,)), Budget(max_value=15)).truncated
    got = pre_star_bounded(const7, Configuration("b", (7,)), Budget(max_value=20))
    assert not got.truncated and len(got.configs) == 22


def test_pre_star_bounded_depth_budget_every_flavor():
    minus1 = Comparison(var("x'").minus(var("x")).plus(const(1)), "=")
    cases = [
        (Machine("f", 1, ("a",), (Transition("a", "a", AffineMap1(1, -1)),)), (0,)),
        (Machine("d", 2, ("a",), (Transition("a", "a", AffineMapD(((1, 0), (0, 1)), (-1, 0))),)),
         (0, 0)),
        (Machine("r", 1, ("a",), (Transition("a", "a", RelationalUpdate(minus1)),)), (0,)),
    ]
    for m, zero in cases:
        got = pre_star_bounded(m, Configuration("a", zero), Budget(max_value=5, max_depth=2))
        assert got.truncated, m.name
        assert {c.counters[0] for c in got.configs} == {0, 1, 2}, m.name


def test_pre_star_bounded_window_truncated_by_transitions_into_it():
    # x' = x - e1 and the relational x' = x - 1 lead a:6 into a window of 5,
    # and a:6 reaches the target: the 6 window configurations are not all.
    minus1 = Comparison(var("x'").minus(var("x")).plus(const(1)), "=")
    down_e1 = AffineMapD(((1, 0), (0, 1)), (-1, 0))
    for m, zero in ((Machine("d", 2, ("a",), (Transition("a", "a", down_e1),)), (0, 0)),
                    (Machine("r", 1, ("a",), (Transition("a", "a", RelationalUpdate(minus1)),)), (0,))):
        target = Configuration("a", zero)
        got = pre_star_bounded(m, target, Budget(max_value=5))
        assert got.truncated and len(got.configs) == 6, m.name
        above = Configuration("a", (6,) + zero[1:])
        assert find_path(m, above, target, Budget(max_value=6))[0] is not None
    # x' = x + e1 only leaves the window, so {a:0,0} is the whole answer.
    up = Machine("u", 2, ("a",), (Transition("a", "a", AffineMapD(((1, 0), (0, 1)), (1, 0))),))
    got = pre_star_bounded(up, Configuration("a", (0, 0)), Budget(max_value=5))
    assert got.configs == {Configuration("a", (0, 0))} and not got.truncated
    # Five counters are more than the solver takes: that counts as truncated.
    ident = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))
    five = Machine("i", 5, ("a",), (Transition("a", "a", AffineMapD(ident, (0,) * 5)),))
    assert pre_star_bounded(five, Configuration("a", (0,) * 5), Budget(max_value=1)).truncated


def test_pre_star_bounded_upward_target_is_cut_above_the_window():
    # p:0 steps to q:200, a member of ^q:50 above a window of 100: the 51
    # window members of the target are not the whole answer, on the scalar
    # backward kernels and on the matrix window table alike.
    budget = Budget(max_value=100)
    scalar = Machine("s", 1, ("p", "q"), (Transition("p", "q", AffineMap1(1, 200)),))
    got = pre_star_bounded(scalar, UpwardTarget(Configuration("q", (50,))), budget)
    assert len(got.configs) == 51 and got.truncated
    assert find_path(scalar, Configuration("p", (0,)), UpwardTarget(Configuration("q", (50,))),
                     Budget(max_value=200))[0] is not None
    shift = AffineMapD(((1, 0), (0, 1)), (200, 0))
    matrix = Machine("d", 2, ("p", "q"), (Transition("p", "q", shift),))
    got = pre_star_bounded(matrix, UpwardTarget(Configuration("q", (50, 0))), budget)
    assert len(got.configs) == 51 * 101 and got.truncated
    # a target wholly above the window is cut too, not an empty complete answer
    step = Machine("q", 1, ("q",), (Transition("q", "q", AffineMap1(1, 1)),))
    got = pre_star_bounded(step, UpwardTarget(Configuration("q", (101,))), budget)
    assert len(got.configs) == 0 and got.truncated


def test_relational_window_predecessors_skip_the_forward_cut_check(monkeypatch):
    # the window scan needs no solver: truncation comes from _enters_window,
    # which asks at most once per transition
    minus1 = Comparison(var("x'").minus(var("x")).plus(const(1)), "=")
    double = Comparison(var("x'").minus(var("x").times(2)), "=")
    m = Machine("r", 1, ("a", "b"), (
        Transition("a", "a", RelationalUpdate(minus1)),
        Transition("a", "b", RelationalUpdate(minus1)),
        Transition("b", "a", RelationalUpdate(double)),
    ))
    calls = []
    real = simulator.exists_solution
    monkeypatch.setattr(simulator, "exists_solution",
                        lambda *args: calls.append(args) or real(*args))
    got = pre_star_bounded(m, Configuration("a", (0,)), Budget(max_value=200))
    assert len(calls) <= len(m.transitions)
    # a:n reaches a:0 by decrements for every n; b:n doubles into a:2n
    assert got.configs == ({Configuration("a", (n,)) for n in range(201)}
                           | {Configuration("b", (n,)) for n in range(101)})
    assert got.truncated


def test_pre_star_via_forward_window_budget():
    p = Machine("d", 2, ("a",), (
        Transition("a", "a", AffineMapD(((1, 0), (0, 1)), (1, 0))),))
    with pytest.raises(BudgetExceededError):
        pre_star_bounded(p, Configuration("a", (0, 0)), Budget(max_value=1000, max_configs=100))


# --- path search -------------------------------------------------------------

def test_find_path_replays_to_target():
    m = m1()
    start = Configuration("q1", (19,))
    target = Configuration("q1", (0,))
    steps, truncated = find_path(m, start, target)
    assert steps is not None and not truncated
    c = start
    for t, after in steps:
        c = apply(m, t, c)
        assert c == after
    assert c == target


def test_find_path_upward_and_trivial():
    m = m1()
    steps, _ = find_path(m, Configuration("q1", (19,)),
                         UpwardTarget(Configuration("q2", (3,))))
    assert steps is not None
    last = steps[-1][1]
    assert last.state == "q2" and last.counter >= 3
    assert find_path(m, Configuration("q1", (5,)),
                     UpwardTarget(Configuration("q1", (5,)))) == ([], False)


def test_find_path_none_when_unreachable():
    m = m1()
    steps, truncated = find_path(
        m, Configuration("q1", (1,)), Configuration("q2", (90,)), Budget(max_value=200))
    assert steps is None and not truncated


def test_find_path_relational_scan():
    double = Comparison(var("x'").minus(var("x").times(2)), "=")
    m = Machine("r", 1, ("a",), (Transition("a", "a", RelationalUpdate(double)),))
    steps, _ = find_path(m, Configuration("a", (3,)), Configuration("a", (24,)),
                         Budget(max_value=100))
    assert steps is not None and len(steps) == 3


# --- the table-driven search against a plain reference search ------------------

def reference_search(starts, steps, budget, goal=None):
    """Breadth-first search as the module documents it, over ``steps(c)``, which
    gives (transition, configuration) pairs; a configuration above the window is
    a cut.  Returns (parents, found, truncated) with parents[c] = (parent,
    transition) or None for a start."""
    parents = dict.fromkeys(starts)
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
            for t, nxt in steps(c):
                if max(nxt.counters) > budget.max_value:
                    truncated = True
                elif nxt not in parents:
                    if len(parents) >= budget.max_configs:
                        return parents, None, True
                    parents[nxt] = (c, t)
                    if goal is not None and goal(nxt):
                        return parents, nxt, truncated
                    reached.append(nxt)
        frontier = reached
    return parents, None, truncated


def far(budget):
    """How far above the window the reference looks for steps that leave or enter
    it; on the machines below no step reaches further."""
    return 3 * budget.max_value + 10


def successors(m, c, budget):
    """Every step out of c, found by applying each transition."""
    for t in m.transitions:
        if t.source != c.state:
            continue
        if isinstance(t.payload, RelationalUpdate):
            for v in range(far(budget)):
                if evaluate(t.payload.formula, {"x": c.counter, "x'": v}):
                    yield t, Configuration(t.target, (v,))
        else:
            got = apply_payload(t.payload, c.counters)
            if got is not None:
                yield t, Configuration(t.target, got)


def in_window(m, budget):
    return [Configuration(q, vs) for q in m.states
            for vs in itertools.product(range(budget.max_value + 1), repeat=m.dimension)]


def reference_post_star(m, start, budget):
    if max(start.counters) > budget.max_value:
        return frozenset(), True
    parents, _, truncated = reference_search([start], lambda c: successors(m, c, budget), budget)
    return frozenset(parents), truncated


def reference_find_path(m, start, target, budget):
    if max(start.counters) > budget.max_value:
        return None, True
    if isinstance(target, Configuration):
        goal = target.__eq__
    else:
        goal = lambda c: c.state == target.state and all(
            a >= b for a, b in zip(c.counters, target.config.counters))
    parents, found, truncated = reference_search(
        [start], lambda c: successors(m, c, budget), budget, goal)
    if found is None:
        return None, truncated
    steps = []
    while parents[found] is not None:
        prev, t = parents[found]
        steps.append((t, found))
        found = prev
    return steps[::-1], truncated


def reference_pre_star(m, target, budget):
    """Backward search; "budget" where the simulator must raise BudgetExceededError."""
    mv = budget.max_value
    if isinstance(target, Configuration):
        seeds = [target] if max(target.counters) <= mv else []
        truncated = not seeds
    else:
        seeds = [c for c in in_window(m, budget) if c.state == target.state
                 and all(a >= b for a, b in zip(c.counters, target.config.counters))]
        if len(seeds) > budget.max_configs:
            return "budget"
        # the target's members above the window are cut
        truncated = True
    if m.flavor in ("affine1", "minsky"):
        # every predecessor, found by applying each transition into the state
        box = list(itertools.product(range(far(budget) if m.flavor == "affine1" else mv + 2),
                                     repeat=m.dimension))

        def steps(c):
            for t in m.transitions:
                if t.target == c.state:
                    for u in box:
                        if apply_payload(t.payload, u) == c.counters:
                            yield t, Configuration(t.source, u)
    else:
        # the reverse of the steps inside the window, and truncated when a
        # step from above the window enters it
        window = in_window(m, budget)
        if len(window) > budget.max_configs:
            return "budget"
        reverse = {}
        for c in window:
            for t, nxt in successors(m, c, budget):
                if max(nxt.counters) <= mv:
                    reverse.setdefault(nxt, []).append((t, c))
        above = [Configuration(q, vs) for q in m.states
                 for vs in itertools.product(range(far(budget)), repeat=m.dimension)
                 if max(vs) > mv]
        truncated = truncated or any(max(nxt.counters) <= mv for c in above
                                     for _, nxt in successors(m, c, budget))
        steps = lambda c: reverse.get(c, ())
    parents, _, clipped = reference_search(seeds, steps, budget)
    return frozenset(parents), truncated or clipped


def random_guarded_affine1(rng):
    states = tuple(f"s{i}" for i in range(rng.randint(1, 3)))
    ts = []
    for _ in range(rng.randint(1, 5)):
        guard = rng.choice([None, Clause(rng.randint(0, 5), rng.choice([None, rng.randint(5, 30)]),
                                         rng.randint(1, 3), rng.randint(0, 2))])
        payload = AffineMap1(rng.choice([-2, -1, 0, 1, 2]), rng.randint(-6, 8), guard)
        ts.append(Transition(rng.choice(states), rng.choice(states), payload))
    return Machine("g", 1, states, tuple(ts)), 15


def random_matrix(rng):
    d = rng.randint(1, 3)
    states = tuple(f"s{i}" for i in range(rng.randint(1, 3)))
    ts = []
    for _ in range(rng.randint(1, 4)):
        payload = AffineMapD(tuple(tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d)),
                             tuple(rng.randint(-3, 3) for _ in range(d)))
        ts.append(Transition(rng.choice(states), rng.choice(states), payload))
    return Machine("x", d, states, tuple(ts)), {1: 10, 2: 5, 3: 3}[d]


def random_minsky(rng):
    states = tuple(f"s{i}" for i in range(rng.randint(1, 3)))
    ts = [Transition(rng.choice(states), rng.choice(states),
                     MinskyOp(rng.choice(["inc", "dec", "zero"]), rng.randint(1, 2)))
          for _ in range(rng.randint(1, 6))]
    return Machine("k", 2, states, tuple(ts)), 5


def random_relational(rng):
    x, xp = var("x"), var("x'")
    a, b, k = rng.randint(-2, 3), rng.randint(-5, 5), rng.randint(1, 3)
    forms = [
        Comparison(xp.minus(x.times(a)).minus(const(b)), "="),
        Comparison(xp.minus(x).minus(const(b)), ">="),
        conj(Comparison(xp.minus(x).minus(const(b)), "<="), Congruence(xp.minus(const(b)), k + 1)),
        disj(Comparison(xp.minus(x).minus(const(1)), "="), Comparison(xp.minus(x.times(2)), "=")),
        conj(Comparison(xp.minus(x).plus(const(k)), "<="),
             Comparison(xp.minus(x).plus(const(6)), ">=")),
    ]
    states = tuple(f"s{i}" for i in range(rng.randint(1, 3)))
    ts = [Transition(rng.choice(states), rng.choice(states), RelationalUpdate(rng.choice(forms)))
          for _ in range(rng.randint(1, 3))]
    return Machine("r", 1, states, tuple(ts)), 10


@pytest.mark.parametrize("make", [random_guarded_affine1, random_matrix, random_minsky,
                                  random_relational])
def test_search_matches_reference_search(make):
    rng = random.Random(f"reference-{make.__name__}")
    for _ in range(12):
        m, mv = make(rng)
        start, target = (Configuration(rng.choice(m.states),
                                       tuple(rng.randint(0, mv) for _ in range(m.dimension)))
                         for _ in range(2))
        for budget in (Budget(max_value=mv), Budget(max_value=mv, max_depth=3),
                       Budget(max_value=mv, max_configs=7)):
            got = post_star(m, start, budget)
            assert (got.configs, got.truncated) == reference_post_star(m, start, budget), m
            for goal in (target, UpwardTarget(target)):
                assert find_path(m, start, goal, budget) == \
                    reference_find_path(m, start, goal, budget), (m, goal)
                want = reference_pre_star(m, goal, budget)
                if want == "budget":
                    with pytest.raises(BudgetExceededError):
                        pre_star_bounded(m, goal, budget)
                else:
                    got = pre_star_bounded(m, goal, budget)
                    assert (got.configs, got.truncated) == want, (m, goal, budget)


def test_forward_kernels_agree_with_apply_payload():
    rng = random.Random(41)
    for _ in range(400):
        d = rng.randint(1, 4)
        kind = rng.choice(["scalar", "matrix", "op"] if d == 1 else ["matrix", "op"])
        if kind == "scalar":
            hi = rng.choice([None, rng.randint(6, 20)])
            guard = rng.choice([None, Clause(rng.randint(0, 6), hi, rng.randint(1, 4),
                                             rng.randint(0, 3))])
            payload = AffineMap1(rng.randint(-3, 3), rng.randint(-10, 10), guard)
        elif kind == "matrix":
            rows = tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d))
            payload = AffineMapD(rows, tuple(rng.randint(-5, 5) for _ in range(d)))
        else:
            payload = MinskyOp(rng.choice(["inc", "dec", "zero"]), rng.randint(1, d))
        t = Transition("a", "a", payload)
        kernel = simulator._forward_kernel(Machine("k", d, ("a",), (t,)), t, 10)
        rows = affine_rows(payload, d)
        assert (rows is None) == (kind == "op" and payload.op == "zero")
        unguarded = rows is not None and getattr(payload, "guard", None) is None
        for _ in range(20):
            vs = tuple(rng.choice([0, 0, 1, rng.randint(0, 20)]) for _ in range(d))
            got = apply_payload(payload, vs)
            assert tuple(kernel(vs)) == (() if got is None else (got,)), (payload, vs)
            if unguarded:
                by_rows = tuple(b + sum(k * vs[i] for i, k in terms) for terms, b in rows)
                assert (None if min(by_rows) < 0 else by_rows) == got, (payload, vs)
