"""Bounded exploration: frozen closures plus forward/backward cross-validation."""

from __future__ import annotations

import random

import pytest

from avasskit.errors import BudgetExceededError
from avasskit.machine import (
    AffineMap1,
    AffineMapD,
    Configuration,
    Machine,
    MinskyOp,
    RelationalUpdate,
    Transition,
    UpwardTarget,
    apply,
)
from avasskit.presburger import Comparison, const, var
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


def test_post_star_depth_budget():
    grow = Machine("g", 1, ("a",), (Transition("a", "a", AffineMap1(1, 1)),))
    got = post_star(grow, Configuration("a", (0,)), Budget(max_value=50, max_depth=3))
    assert got.truncated
    assert {c.counter for c in got.configs} == {0, 1, 2, 3}


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
