"""Decision procedures, cross-checked against brute-force exploration.

The simulator is the oracle throughout: bounded forward search certifies
"yes" answers with explicit witnesses, and on machines whose counter values
cannot grow past a known ceiling it also certifies "no" answers, since the
bounded exploration is then complete.
"""

import random

import pytest

from avasskit.decide import (
    control_state_reachable,
    coverable,
    coverable_via_reduction,
    covering_reduction,
    is_strongly_monotone,
    is_well_structured,
    reachable,
)
from avasskit.errors import FlavorError, GuardedMachineError, MachineError
from avasskit.machine import (
    AffineMap1,
    AffineMapD,
    Configuration,
    Machine,
    MinskyOp,
    Transition,
    UpwardTarget,
    apply_payload,
)
from avasskit.prestar import compute_pre_star, compute_pre_star_upward
from avasskit.semiset import Clause
from avasskit.simulator import Budget, find_path, post_star


def machine_one() -> Machine:
    # Two states; q1 can reflect the counter at 19, drop by 13 over to q2,
    # which drains by 3 and hands the counter back unchanged.
    return Machine(
        name="m1",
        dimension=1,
        states=("q1", "q2"),
        transitions=(
            Transition("q1", "q2", AffineMap1(1, -13)),
            Transition("q1", "q1", AffineMap1(-1, 19)),
            Transition("q2", "q2", AffineMap1(1, -3)),
            Transition("q2", "q1", AffineMap1(1, 0)),
        ),
        initial="q1",
    )


def machine_two() -> Machine:
    # Same shape but the q1 -> q2 edge increments instead of subtracting 13,
    # which is exactly what makes the order-compatibility check pass.
    base = machine_one()
    return Machine(
        name="m2",
        dimension=1,
        states=base.states,
        transitions=(Transition("q1", "q2", AffineMap1(1, 1)),) + base.transitions[1:],
        initial="q1",
    )


def minsky_machine() -> Machine:
    return Machine(
        name="counter",
        dimension=2,
        states=("p",),
        transitions=(Transition("p", "p", MinskyOp("inc", 1)),),
        initial="p",
    )


def random_affine_machine(rng: random.Random, guard_rate: float = 0.0) -> Machine:
    states = tuple(f"s{i}" for i in range(rng.randint(1, 3)))
    trans = []
    for _ in range(rng.randint(1, 5)):
        a = rng.randint(-2, 2)
        b = rng.randint(-8, 8)
        guard = None
        if rng.random() < guard_rate:
            gm = rng.choice([1, 2, 3])
            guard = Clause(rng.randint(0, 6), rng.choice([None, rng.randint(6, 30)]),
                           gm, rng.randrange(gm))
        trans.append(Transition(rng.choice(states), rng.choice(states),
                                AffineMap1(a, b, guard)))
    return Machine("rnd", 1, states, tuple(trans), initial=states[0])


# --------------------------------------------------------------------------
# reachability


def test_reachable_frozen_answers():
    m = machine_one()
    # Oracle: one reflection step takes (q1,0) straight to (q1,19).
    steps, _ = find_path(m, Configuration("q1", (0,)), Configuration("q1", (19,)),
                         Budget(max_value=64))
    assert steps is not None and len(steps) == 1
    assert reachable(m, Configuration("q1", (0,)), Configuration("q1", (19,)))

    # Oracle: from (q1,9) the counter never exceeds 19 (reflection at 19 and
    # subtractions elsewhere), so exploration below 64 is complete.
    explored = post_star(m, Configuration("q1", (9,)), Budget(max_value=64))
    assert not explored.truncated
    assert Configuration("q1", (19,)) not in explored.configs
    assert not reachable(m, Configuration("q1", (9,)), Configuration("q1", (19,)))


def test_reachable_is_reflexive():
    rng = random.Random(4200)
    for m in (machine_one(), machine_two()):
        for _ in range(5):
            c = Configuration(rng.choice(m.states), (rng.randint(0, 40),))
            assert reachable(m, c, c)


def test_reachable_rejects_wrong_flavor():
    m = minsky_machine()
    with pytest.raises(FlavorError):
        reachable(m, Configuration("p", (0, 0)), Configuration("p", (1, 0)))


# --------------------------------------------------------------------------
# coverability, both routes


def test_coverable_frozen_answers():
    m1 = machine_one()
    # Oracle: from (q1,10) everything stays under 19 at q1 -- complete search.
    explored = post_star(m1, Configuration("q1", (10,)), Budget(max_value=64))
    assert not explored.truncated
    assert all(v < 19 for v in explored.states_to_values().get("q1", []))
    assert not coverable(m1, Configuration("q1", (10,)), Configuration("q1", (19,)))

    # One more than the target always covers it.
    for q, n in (("q1", 7), ("q2", 0), ("q1", 25)):
        assert coverable(m1, Configuration(q, (n + 1,)), Configuration(q, (n,)))

    # The incrementing variant can pump (q1,1) up past 19 and come back.
    m2 = machine_two()
    steps, _ = find_path(m2, Configuration("q1", (1,)),
                         UpwardTarget(Configuration("q1", (19,))), Budget(max_value=64))
    assert steps is not None
    assert coverable(m2, Configuration("q1", (1,)), Configuration("q1", (19,)))


def test_covering_reduction_shape():
    m = machine_one()
    widened, goal = covering_reduction(m, Configuration("q1", (19,)))
    assert widened.states == ("q1", "q2", "q3", "q4")
    assert goal == Configuration("q4", (0,))
    check, forget = widened.transitions[-2:]
    assert (check.source, check.target) == ("q1", "q3")
    assert check.payload == AffineMap1(1, -19)
    assert (forget.source, forget.target) == ("q3", "q4")
    assert forget.payload == AffineMap1(0, 0)
    # The surgery leaves the original transitions untouched.
    assert widened.transitions[: len(m.transitions)] == m.transitions



def test_covering_reduction_rejects_wrong_flavor():
    m = Machine("inc", 1, ("p",), (Transition("p", "p", MinskyOp("inc", 1)),))
    with pytest.raises(FlavorError):
        covering_reduction(m, Configuration("p", (1,)))

def test_covering_reduction_dodges_name_collisions():
    m = Machine(
        name="clash",
        dimension=1,
        states=("q3", "q4"),
        transitions=(Transition("q3", "q4", AffineMap1(1, 1)),),
        initial="q3",
    )
    widened, goal = covering_reduction(m, Configuration("q4", (2,)))
    fresh = widened.states[2:]
    assert len(set(widened.states)) == 4
    assert all(q not in m.states for q in fresh)
    assert goal.state == fresh[1]
    assert coverable_via_reduction(m, Configuration("q3", (1,)), Configuration("q4", (2,)))


def test_coverable_routes_agree_on_fixed_machines():
    targets = (
        Configuration("q1", (19,)),
        Configuration("q2", (4,)),
        Configuration("q2", (0,)),  # degenerate: the check step is an identity
    )
    for m in (machine_one(), machine_two()):
        for target in targets:
            up = compute_pre_star_upward(m, UpwardTarget(target))
            widened, goal = covering_reduction(m, target)
            down = compute_pre_star(widened, goal)
            for q in m.states:
                assert up.set_for(q).equal(down.set_for(q)), (m.name, target, q)
    # The public entry points tell the same story.
    m = machine_one()
    for n in (0, 13, 18, 19, 31):
        src = Configuration("q1", (n,))
        tgt = Configuration("q1", (19,))
        assert coverable(m, src, tgt) == coverable_via_reduction(m, src, tgt)


def test_coverable_routes_agree_on_random_machines():
    rng = random.Random(4201)
    for _ in range(25):
        m = random_affine_machine(rng, guard_rate=0.25)
        target = Configuration(rng.choice(m.states), (rng.randint(0, 6),))
        up = compute_pre_star_upward(m, UpwardTarget(target))
        widened, goal = covering_reduction(m, target)
        down = compute_pre_star(widened, goal)
        for q in m.states:
            assert up.set_for(q).equal(down.set_for(q)), (m, target, q)


def test_reachable_implies_coverable():
    rng = random.Random(4202)
    machines = [machine_one(), machine_two()]
    machines += [random_affine_machine(rng, guard_rate=0.2) for _ in range(15)]
    for m in machines:
        target = Configuration(rng.choice(m.states), (rng.randint(0, 8),))
        down = compute_pre_star(m, target)
        up = compute_pre_star_upward(m, UpwardTarget(target))
        for q in m.states:
            assert down.set_for(q).subset(up.set_for(q)), (m, target, q)


# --------------------------------------------------------------------------
# control-state reachability


def test_control_state_reachable_frozen():
    m = machine_one()
    # 13 - 13 = 0 lands in q2 immediately.
    assert control_state_reachable(m, Configuration("q1", (13,)), "q2")
    # From 0: reflect to 19, then drop by 13 into q2.  The oracle sees it.
    explored = post_star(m, Configuration("q1", (0,)), Budget(max_value=64))
    assert "q2" in explored.states_to_values()
    assert control_state_reachable(m, Configuration("q1", (0,)), "q2")


def test_control_state_unreachable_isolated_state():
    m = Machine(
        name="island",
        dimension=1,
        states=("a", "b"),
        transitions=(Transition("a", "a", AffineMap1(1, 0)),),
        initial="a",
    )
    assert control_state_reachable(m, Configuration("a", (5,)), "a")
    assert not control_state_reachable(m, Configuration("a", (5,)), "b")
    with pytest.raises(MachineError):
        control_state_reachable(m, Configuration("a", (5,)), "nowhere")


# --------------------------------------------------------------------------
# well-structure


def test_well_structured_no_for_reflecting_machine():
    m = machine_one()
    verdict = is_well_structured(m)
    assert not verdict.well_structured
    assert verdict.witness == m.transitions[1]  # the 19 - x reflection
    assert verdict.prestar_calls == 1
    # Counterexample oracle: from (q1,0) the reflection reaches 19, so 0 is
    # fine; from (q1,1) the whole reachable space tops out at 18, so no
    # configuration at or above (q1,19) is ever reached.  Exploration is
    # complete because values stay below 64.
    ok = post_star(m, Configuration("q1", (0,)), Budget(max_value=64))
    assert not ok.truncated and 19 in ok.states_to_values()["q1"]
    bad = post_star(m, Configuration("q1", (1,)), Budget(max_value=64))
    assert not bad.truncated
    assert max(v for vs in bad.states_to_values().values() for v in vs) == 18
    assert verdict.counterexample == 1
    assert "no" in verdict.render() and "19" not in verdict.render()[:3]


def test_well_structured_yes_for_incrementing_variant():
    verdict = is_well_structured(machine_two())
    assert verdict.well_structured
    assert verdict.witness is None
    assert verdict.prestar_calls == 1
    assert verdict.render() == "yes"


def test_well_structured_vass_needs_no_analysis():
    rng = random.Random(4203)
    for _ in range(10):
        states = tuple(f"v{i}" for i in range(rng.randint(1, 3)))
        trans = tuple(
            Transition(rng.choice(states), rng.choice(states),
                       AffineMap1(1, rng.randint(-6, 6)))
            for _ in range(rng.randint(1, 5))
        )
        m = Machine("vass", 1, states, trans, initial=states[0])
        verdict = is_well_structured(m)
        assert verdict.well_structured
        assert verdict.prestar_calls == 0


def test_well_structured_skips_empty_domain_drops():
    # a < 0 with b < 0 can never fire; the machine is trivially fine.
    m = Machine(
        name="vacuous",
        dimension=1,
        states=("q",),
        transitions=(Transition("q", "q", AffineMap1(-1, -5)),),
        initial="q",
    )
    verdict = is_well_structured(m)
    assert verdict.well_structured
    assert verdict.prestar_calls == 0


def test_well_structured_rejects_guards_and_flavors():
    guarded = Machine(
        name="guarded",
        dimension=1,
        states=("q",),
        transitions=(Transition("q", "q", AffineMap1(1, 0, Clause(0, None, 2, 0))),),
        initial="q",
    )
    with pytest.raises(GuardedMachineError):
        is_well_structured(guarded)
    with pytest.raises(FlavorError):
        is_well_structured(minsky_machine())


def test_wsts_yes_implies_sampled_monotony():
    rng = random.Random(4204)
    machines = [machine_two()]
    while len(machines) < 7:
        m = random_affine_machine(rng)
        if any(t.payload.guard is not None for t in m.transitions):
            continue
        if is_well_structured(m).well_structured:
            machines.append(m)

    samples = 0
    while samples < 1000:
        m = machines[samples % len(machines)]
        q = rng.choice(m.states)
        n = rng.randint(0, 24)
        firing = [t for t in m.transitions_from(q)
                  if apply_payload(t.payload, (n,)) is not None]
        if not firing:
            samples += 1
            continue
        t = rng.choice(firing)
        after = apply_payload(t.payload, (n,))[0]
        bigger = n + rng.randint(1, 6)
        goal = UpwardTarget(Configuration(t.target, (after,)))
        start = Configuration(q, (bigger,))
        steps, truncated = find_path(m, start, goal,
                                     Budget(max_value=bigger + 64, max_configs=4000))
        if steps is None and truncated:
            steps, truncated = find_path(m, start, goal,
                                         Budget(max_value=(bigger + 64) * 8,
                                                max_configs=40000))
        assert steps is not None, (m, q, n, t, bigger)
        samples += 1


# --------------------------------------------------------------------------
# strong monotony


def test_strongly_monotone_no_for_reflecting_machine():
    m = machine_one()
    verdict = is_strongly_monotone(m)
    assert not verdict.strongly_monotone
    assert verdict.witness == m.transitions[1]
    assert "no" in verdict.render()


def test_strongly_monotone_vacuous_empty_domain():
    m = Machine(
        name="vacuous",
        dimension=1,
        states=("q",),
        transitions=(Transition("q", "q", AffineMap1(-1, -5)),),
        initial="q",
    )
    assert is_strongly_monotone(m).strongly_monotone


def test_strongly_monotone_no_for_zero_test_matrix():
    # Negating one coordinate pins it to zero on the domain; the domain is
    # nonempty (anything with a zero first counter) but not upward closed.
    m = Machine(
        name="gadget",
        dimension=2,
        states=("g",),
        transitions=(Transition("g", "g", AffineMapD(((-1, 0), (0, 1)), (0, 0))),),
        initial="g",
    )
    verdict = is_strongly_monotone(m)
    assert not verdict.strongly_monotone
    assert verdict.witness == m.transitions[0]



def test_strongly_monotone_with_a_transition_that_never_fires():
    # the zero middle row with offset -4 leaves the domain empty, so the
    # negative entries below never apply
    m = Machine(
        name="idle",
        dimension=3,
        states=("q",),
        transitions=(Transition("q", "q", AffineMapD(((1, 0, 2), (0, 0, 0), (2, 1, -2)),
                                                     (3, -4, -3))),),
        initial="q",
    )
    assert is_strongly_monotone(m).strongly_monotone


def test_strongly_monotone_guard_handling():
    def single(payload):
        return Machine("g1", 1, ("q",), (Transition("q", "q", payload),), initial="q")

    # Upward-closed guard with a growing map: fine.
    assert is_strongly_monotone(single(AffineMap1(1, 0, Clause(5, None)))).strongly_monotone
    # A window guard breaks monotony: 5 fires, 6 does not.
    assert not is_strongly_monotone(single(AffineMap1(1, 0, Clause(0, 5)))).strongly_monotone
    # So does a parity guard: 4 fires, 5 does not.
    assert not is_strongly_monotone(
        single(AffineMap1(1, 0, Clause(0, None, 2, 0)))).strongly_monotone
    # A guard that empties the domain makes the transition vacuous again.
    assert is_strongly_monotone(single(AffineMap1(0, -1, Clause(3, None)))).strongly_monotone


def test_strongly_monotone_rejects_wrong_flavor():
    with pytest.raises(FlavorError):
        is_strongly_monotone(minsky_machine())


def test_strong_mono_yes_implies_one_step_check():
    rng = random.Random(4205)
    machines = []
    while len(machines) < 8:
        m = random_affine_machine(rng, guard_rate=0.15)
        if is_strongly_monotone(m).strongly_monotone:
            machines.append(m)
    # A couple of multi-counter ones with nonnegative matrices.
    for _ in range(2):
        mat = tuple(tuple(rng.randint(0, 2) for _ in range(2)) for _ in range(2))
        off = tuple(rng.randint(0, 3) for _ in range(2))
        machines.append(Machine(
            "pos2", 2, ("p",),
            (Transition("p", "p", AffineMapD(mat, off)),), initial="p"))

    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 20000:
        attempts += 1
        m = machines[attempts % len(machines)]
        q = rng.choice(m.states)
        vals = tuple(rng.randint(0, 30) for _ in range(m.dimension))
        firing = [t for t in m.transitions_from(q)
                  if apply_payload(t.payload, vals) is not None]
        if not firing:
            continue
        t = rng.choice(firing)
        after = apply_payload(t.payload, vals)
        bigger = tuple(v + rng.randint(0, 5) for v in vals)
        if bigger == vals:
            continue
        lifted = apply_payload(t.payload, bigger)
        assert lifted is not None, (m, t, vals, bigger)
        assert all(x >= y for x, y in zip(lifted, after)), (m, t, vals, bigger)
        checked += 1
    assert checked == 1000


def test_strong_mono_yes_implies_well_structured_on_plain_machines():
    rng = random.Random(4206)
    seen_yes = 0
    for _ in range(60):
        m = random_affine_machine(rng)
        if any(t.payload.guard is not None for t in m.transitions):
            continue
        if is_strongly_monotone(m).strongly_monotone:
            assert is_well_structured(m).well_structured, m
            seen_yes += 1
    assert seen_yes >= 10
