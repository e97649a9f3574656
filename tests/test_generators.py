"""Construction kit: shapes frozen by hand, behavior checked via the simulator.

Oracles: counter machines themselves (stepped with apply_payload) for the
encodings, plain string concatenation for the tile constructions, and
factor-counting for the exponent packing.
"""

import random

import pytest

from avasskit.errors import FlavorError, MachineError
from avasskit.frontend import parse_machine, serialize_machine
from avasskit.generators import (
    PCPInstance,
    build_n1,
    build_n2,
    build_pcp_machine,
    builtin_examples,
    machine_m1,
    machine_m2,
    pcp_witness,
    zero_test_gadget,
)
from avasskit.machine import (
    AffineMap1,
    AffineMapD,
    Configuration,
    Machine,
    MinskyOp,
    Transition,
    apply_payload,
    classify,
    relational_variables,
)
from avasskit.presburger import (
    Comparison,
    conj,
    const,
    evaluate,
    exists_solution,
    is_functional,
    var,
)
from avasskit.simulator import Budget, find_path, post_star

XV, XP = "x", "x'"


def v2(n: int) -> int:
    count = 0
    while n and n % 2 == 0:
        n //= 2
        count += 1
    return count


def v3(n: int) -> int:
    count = 0
    while n and n % 3 == 0:
        n //= 3
        count += 1
    return count


# --------------------------------------------------------------------------
# builtin examples


def test_machine_m1_shape_and_roundtrip():
    m = machine_m1()
    assert m.states == ("q1", "q2") and m.initial == "q1" and m.dimension == 1
    assert [(t.source, t.target, t.payload.a, t.payload.b) for t in m.transitions] == [
        ("q1", "q2", 1, -13),
        ("q1", "q1", -1, 19),
        ("q2", "q2", 1, -3),
        ("q2", "q1", 1, 0),
    ]
    for example in builtin_examples():
        assert parse_machine(serialize_machine(example)) == example


def test_machine_m2_differs_in_exactly_one_transition():
    one, two = machine_m1(), machine_m2()
    diffs = [(a, b) for a, b in zip(one.transitions, two.transitions) if a != b]
    assert len(diffs) == 1
    assert diffs[0][0].payload == AffineMap1(1, -13)
    assert diffs[0][1].payload == AffineMap1(1, 1)
    assert (diffs[0][1].source, diffs[0][1].target) == ("q1", "q2")


def test_zero_test_gadget_behavior():
    g = zero_test_gadget()
    p = g.transitions[0].payload
    assert p == AffineMapD(((-1, 0), (0, 1)), (0, 0))
    # Fires exactly when the first counter is zero, passing the second through.
    assert apply_payload(p, (0, 5)) == (0, 5)
    assert apply_payload(p, (1, 5)) is None
    flags = classify(g)
    assert flags.is_avass and not flags.is_positive_avass


def test_builtin_examples_stable_order():
    examples = builtin_examples()
    assert [m.name for m in examples] == ["m1", "m2", "zero_gadget"]
    assert len({m.name for m in examples}) == 3


# --------------------------------------------------------------------------
# exponent packing (one-counter relational encoding)


def two_counter_fixture() -> Machine:
    return Machine(
        name="mm",
        dimension=2,
        states=("s0", "s1"),
        transitions=(
            Transition("s0", "s1", MinskyOp("inc", 1)),
            Transition("s1", "s0", MinskyOp("inc", 2)),
            Transition("s0", "s0", MinskyOp("dec", 1)),
            Transition("s1", "s1", MinskyOp("dec", 2)),
            Transition("s0", "s1", MinskyOp("zero", 1)),
            Transition("s1", "s0", MinskyOp("zero", 2)),
        ),
        initial="s0",
    )


def sat_at(formula, x: int, xp: int) -> bool:
    return evaluate(formula, {XV: x, XP: xp})


def solvable_at(formula, x: int) -> bool:
    pin = Comparison(var(XV).plus(const(-x)), "=")
    return exists_solution(conj(formula, pin)) is not None


def test_build_n1_shape():
    m = two_counter_fixture()
    n1 = build_n1(m, "s1")
    assert n1.dimension == 1 and n1.flavor == "relational"
    assert n1.states == m.states and n1.initial == "s0"
    # 6 mirrored ops + one restart per state + the halt edge.
    assert len(n1.transitions) == 6 + 2 + 1
    for original, mirrored in zip(m.transitions, n1.transitions):
        assert (original.source, original.target) == (mirrored.source, mirrored.target)
    assert n1.transitions[6].target == "s0" and n1.transitions[7].target == "s0"
    assert (n1.transitions[8].source, n1.transitions[8].target) == ("s0", "s1")


def test_build_n1_operation_formulas():
    n1 = build_n1(two_counter_fixture(), "s1")
    inc1, inc2, dec1, dec2, zero1, zero2, restart, _, final = (
        t.payload.formula for t in n1.transitions)

    # Multiplication mirrors an increment: 12 encodes (2,1), 24 encodes (3,1).
    assert sat_at(inc1, 12, 24) and not sat_at(inc1, 12, 25)
    assert sat_at(inc1, 60, 120)  # garbage factor 5 rides along
    assert sat_at(inc2, 12, 36)

    # Division mirrors a decrement and blocks on odd values by itself.
    assert sat_at(dec1, 6, 3) and not sat_at(dec1, 6, 2)
    assert solvable_at(dec1, 6) and not solvable_at(dec1, 9)
    assert solvable_at(dec2, 9) and not solvable_at(dec2, 8)

    # Zero tests are non-divisibility guards that keep the value.
    assert sat_at(zero1, 9, 9) and not solvable_at(zero1, 6)
    assert sat_at(zero2, 8, 8) and not solvable_at(zero2, 9)

    # The restart lands on 6x + 1, coprime to both 2 and 3.
    assert sat_at(restart, 5, 31) and not sat_at(restart, 5, 30)
    assert v2(31) == 0 and v3(31) == 0

    # The halt edge needs a fully drained value.
    assert sat_at(final, 0, 0) and not solvable_at(final, 3)


def test_build_n1_restart_step_via_simulator():
    n1 = build_n1(two_counter_fixture(), "s1")
    one_step = post_star(n1, Configuration("s0", (5,)),
                         Budget(max_value=40, max_depth=1))
    assert Configuration("s0", (31,)) in one_step.configs


def test_build_n1_is_functional():
    rng = random.Random(4400)
    machines = [two_counter_fixture()] + [random_minsky(rng) for _ in range(5)]
    for m in machines:
        n1 = build_n1(m, m.states[-1])
        report = is_functional(n1)
        assert report.all_functional



def test_is_functional_takes_affine_and_counter_op_transitions_as_built():
    for m in (machine_m1(), two_counter_fixture()):
        report = is_functional(m)
        assert report.entries == tuple((t, True, None) for t in m.transitions)

def random_minsky(rng: random.Random) -> Machine:
    states = tuple(f"p{i}" for i in range(rng.randint(1, 3)))
    trans = tuple(
        Transition(rng.choice(states), rng.choice(states),
                   MinskyOp(rng.choice(["inc", "inc", "dec", "zero"]),
                            rng.randint(1, 2)))
        for _ in range(rng.randint(1, 6))
    )
    return Machine("rm", 2, states, trans, initial=states[0])


def test_build_n1_step_correspondence_on_random_walks():
    # Walk the two-counter machine; mirror every step on the packed value
    # 2^a * 3^b and check the mirrored transition relation fires exactly when
    # the original operation does.
    rng = random.Random(4401)
    for _ in range(20):
        m = random_minsky(rng)
        n1 = build_n1(m, rng.choice(m.states))
        state, counters, value = m.initial, (0, 0), 1
        for _ in range(30):
            if value > 10 ** 7:
                break
            options = []
            for j, t in enumerate(m.transitions):
                if t.source != state:
                    continue
                stepped = apply_payload(t.payload, counters)
                mirrored = n1.transitions[j].payload.formula
                assert (stepped is not None) == solvable_at(mirrored, value), (
                    m, state, counters, t)
                if stepped is not None:
                    options.append((j, t, stepped))
            if not options:
                break
            j, t, stepped = rng.choice(options)
            next_value = 2 ** stepped[0] * 3 ** stepped[1]
            assert sat_at(n1.transitions[j].payload.formula, value, next_value)
            state, counters, value = t.target, stepped, next_value


def test_build_n1_input_validation():
    with pytest.raises(FlavorError):
        build_n1(machine_m1(), "q1")  # wrong dimension
    m = two_counter_fixture()
    with pytest.raises(MachineError):
        build_n1(m, "elsewhere")
    no_init = Machine("ni", 2, m.states, m.transitions, initial=None)
    with pytest.raises(MachineError):
        build_n1(no_init, "s1")



def test_build_n1_refuses_a_machine_that_is_not_counter_op():
    m = Machine("vass", 2, ("s",), (
        Transition("s", "s", AffineMapD(((1, 0), (0, 1)), (1, 0))),), initial="s")
    with pytest.raises(FlavorError, match="the encoding takes a counter-op machine"):
        build_n1(m, "s")

# --------------------------------------------------------------------------
# four-counter monotone encoding


def single_zero_test_machine() -> Machine:
    return Machine(
        name="zt",
        dimension=2,
        states=("q", "qq"),
        transitions=(Transition("q", "qq", MinskyOp("zero", 1)),),
        initial="q",
    )


def test_build_n2_shape():
    m = two_counter_fixture()
    n2 = build_n2(m, "s1")
    assert n2.dimension == 4 and n2.flavor == "minsky"
    assert n2.initial == m.initial
    assert set(m.states) <= set(n2.states)
    # Plain counter ops carry over verbatim (the first four here).
    assert n2.transitions[0].payload == MinskyOp("inc", 1)
    assert n2.transitions[0].source == "s0" and n2.transitions[0].target == "s1"
    # The halt chain is the tail: four zero tests ending at the halt state.
    tail = n2.transitions[-4:]
    assert [t.payload for t in tail] == [MinskyOp("zero", c) for c in (1, 2, 3, 4)]
    assert tail[0].source == "s0" and tail[-1].target == "s1"


def test_build_n2_zero_circuit_accepts_matching_slack():
    n2 = build_n2(single_zero_test_machine(), "qq")
    # Counter 1 equals the slack counter, encoding value zero: the circuit
    # must pass and restore every counter on the way out.
    steps, _ = find_path(n2, Configuration("q", (4, 2, 4, 0)),
                         Configuration("qq", (4, 2, 4, 0)),
                         Budget(max_value=12))
    assert steps is not None
    # A mismatched pair encodes a positive value: no run preserves it into qq.
    steps, _ = find_path(n2, Configuration("q", (5, 2, 4, 0)),
                         Configuration("qq", (5, 2, 4, 0)),
                         Budget(max_value=16))
    assert steps is None


def test_build_n2_restart_circuit_reaches_reference_configurations():
    n2 = build_n2(single_zero_test_machine(), "qq")
    start = Configuration("q", (3, 1, 0, 2))
    for n in (1, 5):
        steps, _ = find_path(n2, start, Configuration("q", (n, n, n, 0)),
                             Budget(max_value=12))
        assert steps is not None, n


def test_build_n2_halt_chain_needs_all_zero():
    n2 = build_n2(single_zero_test_machine(), "qq")
    steps, _ = find_path(n2, Configuration("q", (0, 0, 0, 0)),
                         Configuration("qq", (0, 0, 0, 0)), Budget(max_value=8))
    assert steps is not None


def test_build_n2_simulates_every_source_step():
    # Each step of the two-counter machine, taken under any slack k, maps to
    # a run of the four-counter machine between the corresponding
    # configurations: one step for plain ops, a circuit traversal for zeros.
    rng = random.Random(4402)
    for _ in range(10):
        m = random_minsky(rng)
        n2 = build_n2(m, rng.choice(m.states))
        for _ in range(6):
            t = rng.choice(m.transitions)
            a, b = rng.randint(0, 3), rng.randint(0, 3)
            if t.payload.op == "zero" and t.payload.counter == 1:
                a = 0
            if t.payload.op == "zero" and t.payload.counter == 2:
                b = 0
            stepped = apply_payload(t.payload, (a, b))
            if stepped is None:
                continue
            k = rng.randint(0, 2)
            src = Configuration(t.source, (a + k, b + k, k, 0))
            dst = Configuration(t.target, (stepped[0] + k, stepped[1] + k, k, 0))
            steps, _ = find_path(n2, src, dst, Budget(max_value=12))
            assert steps is not None, (m, t, src, dst)


def test_build_n2_fresh_names_dodge_collisions():
    clash = Machine(
        name="clash",
        dimension=2,
        states=("q", "rst_drain", "zt0_move"),
        transitions=(Transition("q", "q", MinskyOp("zero", 1)),),
        initial="q",
    )
    n2 = build_n2(clash, "q")
    assert len(set(n2.states)) == len(n2.states)


# --------------------------------------------------------------------------
# tile matching


def example_tiles() -> PCPInstance:
    return PCPInstance((("1", "101"), ("10", "00"), ("011", "11")))


def test_pcp_instance_validation():
    with pytest.raises(ValueError):
        PCPInstance(())
    with pytest.raises(ValueError):
        PCPInstance((("1", "2"),))
    assert PCPInstance((("", "0"),)).tiles == (("", "0"),)


def test_build_pcp_machine_shape():
    mach = build_pcp_machine(example_tiles())
    assert mach.states == ("q0", "q1", "q2") and mach.dimension == 2
    setter, *rest = mach.transitions
    loops, handoffs, drop = rest[:3], rest[3:6], rest[6]
    assert setter.payload == AffineMapD(((0, 0), (0, 0)), (1, 1))
    # Appending a word w multiplies by 2^len(w) and adds its bits; the same
    # three tile maps appear once as loops and once as hand-offs into q2.
    expected = [AffineMapD(((2, 0), (0, 8)), (1, 5)),
                AffineMapD(((4, 0), (0, 4)), (2, 0)),
                AffineMapD(((8, 0), (0, 4)), (3, 3))]
    assert [t.payload for t in loops] == expected
    assert all(t.source == "q1" and t.target == "q1" for t in loops)
    assert [t.payload for t in handoffs] == expected
    assert all(t.source == "q1" and t.target == "q2" for t in handoffs)
    assert drop.payload == AffineMapD(((1, 0), (0, 1)), (-1, -1))
    flags = classify(mach)
    assert flags.is_positive_avass and not flags.is_totally_positive_avass


def test_pcp_witness_on_solvable_instance():
    inst = example_tiles()
    witness = pcp_witness(inst)
    assert witness is not None and len(witness) >= 1
    # Independent check by plain string concatenation.
    top = "".join(inst.tiles[i - 1][0] for i in witness)
    bottom = "".join(inst.tiles[i - 1][1] for i in witness)
    assert top == bottom
    # And through the machine: the witness drives both counters equal, after
    # which the decrement loop reaches the origin.
    mach = build_pcp_machine(inst)
    steps, _ = find_path(mach, Configuration("q0", (0, 0)),
                         Configuration("q2", (0, 0)),
                         Budget(max_value=1024))
    assert steps is not None


def test_pcp_witness_parity_blocked_instance():
    inst = PCPInstance((("0", "1"),))
    # Appending 0 vs 1 keeps the top counter even and the bottom odd after
    # any first tile, so the counters never agree.
    assert pcp_witness(inst) is None
    # The machine agrees: every path into q2 spells at least one tile, so
    # the origin stays unreachable.
    mach = build_pcp_machine(inst)
    steps, _ = find_path(mach, Configuration("q0", (0, 0)),
                         Configuration("q2", (0, 0)), Budget(max_value=64))
    assert steps is None
