"""Cutoff abstraction: frozen examples, the commutation law, oracle agreement.

Oracle: concrete forward exploration via the simulator.  A non-truncated
exploration is complete, so it certifies both answers; a truncated one only
certifies "yes", and disagreements escalate the bound before being called
defects.
"""

import random

import pytest

from avasskit.errors import FlavorError, GuardedMachineError, MachineError
from avasskit.machine import (
    AffineMap1,
    AffineMapD,
    Configuration,
    Machine,
    MinskyOp,
    Transition,
    apply_payload,
)
from avasskit.omega import (
    OMEGA,
    OmegaVector,
    abstract,
    apply_abstract,
    reachable_totally_positive,
)
from avasskit.semiset import Clause
from avasskit.simulator import Budget, post_star


def doubling_machine() -> Machine:
    # First counter doubles and gains one, second counts the steps.
    return Machine(
        name="double",
        dimension=2,
        states=("q",),
        transitions=(Transition("q", "q", AffineMapD(((2, 0), (0, 1)), (1, 1))),),
        initial="q",
    )


# --------------------------------------------------------------------------
# the vector type and the collapse


def test_abstract_frozen_examples():
    assert abstract((5, 0), 1).entries == (OMEGA, 0)
    assert abstract((3, 4), 3).entries == (3, OMEGA)
    # Identity when everything already fits under the cutoff.
    assert abstract((2, 0, 7), 7).entries == (2, 0, 7)


def test_omega_vector_validation_and_render():
    v = OmegaVector((OMEGA, 2), 3)
    assert v.render() == "(ω,2)"
    with pytest.raises(ValueError):
        OmegaVector((4,), 3)
    with pytest.raises(ValueError):
        OmegaVector((0,), 0)


def test_apply_abstract_omega_rules():
    # Swap matrix: the zero coefficient really kills ω, the positive one keeps it.
    v = OmegaVector((OMEGA, 2), 3)
    swapped = apply_abstract(AffineMapD(((0, 1), (1, 0)), (0, 0)), v)
    assert swapped.entries == (2, OMEGA)
    # Finite sums past the cutoff collapse.
    grown = apply_abstract(AffineMapD(((2, 0), (0, 1)), (1, 1)), OmegaVector((2, 0), 3))
    assert grown.entries == (OMEGA, 1)
    # Zero matrix resets even from ω.
    reset = apply_abstract(AffineMapD(((0, 0), (0, 0)), (0, 0)), v)
    assert reset.entries == (0, 0)


def test_apply_abstract_rejects_negative_entries():
    v = OmegaVector((1, 1), 2)
    with pytest.raises(FlavorError):
        apply_abstract(AffineMapD(((-1, 0), (0, 1)), (0, 0)), v)
    with pytest.raises(FlavorError):
        apply_abstract(AffineMapD(((1, 0), (0, 1)), (0, -1)), v)


def test_apply_abstract_rejects_a_vector_of_the_wrong_length():
    square = AffineMapD(((2, 0), (0, 1)), (1, 1))
    with pytest.raises(MachineError):
        apply_abstract(square, abstract((2, 1, 3), 3))
    with pytest.raises(MachineError):
        apply_abstract(square, abstract((2,), 3))
    with pytest.raises(MachineError):
        apply_abstract(AffineMap1(1, 1), abstract((0, 0), 1))
    with pytest.raises(MachineError):
        apply_abstract(MinskyOp("inc", 3), abstract((0, 0), 1))
    assert apply_abstract(MinskyOp("inc", 2), abstract((0, 0), 1)).entries == (0, 1)


def test_commutation_with_concrete_steps():
    # abstract(step(v)) == abstract-step(abstract(v)) on random nonnegative data.
    rng = random.Random(4300)
    for _ in range(2000):
        dim = rng.randint(1, 3)
        cutoff = rng.randint(1, 6)
        mat = tuple(tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(dim))
        off = tuple(rng.randint(0, 3) for _ in range(dim))
        p = AffineMapD(mat, off)
        vals = tuple(rng.randint(0, 3 * cutoff) for _ in range(dim))
        concrete = apply_payload(p, vals)
        assert concrete is not None
        assert abstract(concrete, cutoff) == apply_abstract(p, abstract(vals, cutoff))


# --------------------------------------------------------------------------
# the decision procedure


def test_doubling_machine_frozen_answers():
    m = doubling_machine()
    start = Configuration("q", (0, 0))
    assert reachable_totally_positive(m, start, Configuration("q", (1, 1)))

    # Oracle: the concrete orbit is ((2^k)-1, k); (2,1) is not on it.
    orbit = [(0, 0)]
    for _ in range(10):
        orbit.append(apply_payload(m.transitions[0].payload, orbit[-1]))
    assert (2, 1) not in orbit
    assert not reachable_totally_positive(m, start, Configuration("q", (2, 1)))


def test_zero_matrix_reset_reaches_origin():
    m = Machine(
        name="reset",
        dimension=2,
        states=("q",),
        transitions=(Transition("q", "q", AffineMapD(((0, 0), (0, 0)), (0, 0))),),
        initial="q",
    )
    assert reachable_totally_positive(
        m, Configuration("q", (7, 9)), Configuration("q", (0, 0)))


def test_reachability_is_reflexive_even_for_big_values():
    # The cutoff tracks the target, so the source is its own abstraction here.
    m = doubling_machine()
    c = Configuration("q", (500, 3))
    assert reachable_totally_positive(m, c, c)


def test_increment_only_counter_machine_is_accepted():
    m = Machine(
        name="incs",
        dimension=2,
        states=("p",),
        transitions=(Transition("p", "p", MinskyOp("inc", 1)),),
        initial="p",
    )
    assert reachable_totally_positive(
        m, Configuration("p", (0, 0)), Configuration("p", (3, 0)))
    assert not reachable_totally_positive(
        m, Configuration("p", (0, 0)), Configuration("p", (0, 1)))


def test_flavor_gate_rejections():
    src = Configuration("q", (0, 0))
    tgt = Configuration("q", (1, 1))
    negative_entry = Machine(
        "neg", 2, ("q",),
        (Transition("q", "q", AffineMapD(((-1, 0), (0, 1)), (0, 0))),), initial="q")
    with pytest.raises(FlavorError):
        reachable_totally_positive(negative_entry, src, tgt)
    negative_offset = Machine(
        "negoff", 2, ("q",),
        (Transition("q", "q", AffineMapD(((1, 0), (0, 1)), (0, -1))),), initial="q")
    with pytest.raises(FlavorError):
        reachable_totally_positive(negative_offset, src, tgt)
    decrementing = Machine(
        "dec", 2, ("q",),
        (Transition("q", "q", MinskyOp("dec", 1)),), initial="q")
    with pytest.raises(FlavorError):
        reachable_totally_positive(decrementing, src, tgt)
    guarded = Machine(
        "guarded", 1, ("q",),
        (Transition("q", "q", AffineMap1(1, 1, Clause(0, None, 2, 0))),), initial="q")
    with pytest.raises(GuardedMachineError):
        reachable_totally_positive(guarded, Configuration("q", (0,)),
                                   Configuration("q", (1,)))
    # a shrinking transition is refused as FlavorError even when another
    # transition carries a guard, whichever comes first
    shrinking = Transition("q", "q", AffineMap1(1, -1))
    for ts in ((guarded.transitions[0], shrinking), (shrinking, guarded.transitions[0])):
        with pytest.raises(FlavorError):
            reachable_totally_positive(Machine("mixed", 1, ("q",), ts),
                                       Configuration("q", (0,)), Configuration("q", (1,)))
    # apply_abstract is public and refuses on its own, not only behind the gate
    with pytest.raises(GuardedMachineError):
        apply_abstract(AffineMap1(1, 1, Clause(0, None, 2, 0)), abstract((0,), 1))
    with pytest.raises(FlavorError):
        apply_abstract(MinskyOp("zero", 1), abstract((0, 0), 1))


def random_totally_positive_machine(rng: random.Random) -> Machine:
    dim = rng.randint(1, 3)
    states = tuple(f"w{i}" for i in range(rng.randint(1, 3)))
    trans = []
    for _ in range(rng.randint(1, 4)):
        mat = tuple(tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(dim))
        off = tuple(rng.randint(0, 3) for _ in range(dim))
        trans.append(Transition(rng.choice(states), rng.choice(states),
                                AffineMapD(mat, off)))
    return Machine("tp", dim, states, tuple(trans), initial=states[0])


def random_payload_machine(rng: random.Random) -> Machine:
    """Totally positive machines of the other payload kinds: counter increments
    on 1-2 counters, which keeps the concrete search's windows small, or
    scalar maps x' = ax + b with a, b >= 0."""
    scalar = rng.random() < 0.5
    dim = 1 if scalar else rng.randint(1, 2)
    states = tuple(f"w{i}" for i in range(rng.randint(1, 3)))
    trans = []
    for _ in range(rng.randint(1, 4)):
        p = (AffineMap1(rng.randint(0, 3), rng.randint(0, 3)) if scalar
             else MinskyOp("inc", rng.randint(1, dim)))
        trans.append(Transition(rng.choice(states), rng.choice(states), p))
    return Machine("tp", dim, states, tuple(trans), initial=states[0])


def assert_agrees_with_concrete_search(m: Machine, source: Configuration,
                                       target: Configuration) -> None:
    cutoff = max(max(target.counters), 1)
    symbolic = reachable_totally_positive(m, source, target)

    bound = 10 * (cutoff + 1)
    for _ in range(3):
        explored = post_star(m, source, Budget(max_value=bound, max_configs=60000))
        concrete = target in explored.configs
        if concrete or not explored.truncated:
            break
        bound *= 4  # symbolic said yes but the window was clipped: widen it
    if concrete:
        assert symbolic, (m, source, target)
    elif not explored.truncated:
        assert not symbolic, (m, source, target)
    else:
        assert not symbolic, (m, source, target, "unconfirmed yes after escalation")


def test_agreement_with_bounded_concrete_search():
    rng = random.Random(4301)
    for _ in range(60):
        m = random_totally_positive_machine(rng)
        source = Configuration(
            rng.choice(m.states), tuple(rng.randint(0, 4) for _ in range(m.dimension)))
        target = Configuration(
            rng.choice(m.states), tuple(rng.randint(0, 4) for _ in range(m.dimension)))
        assert_agrees_with_concrete_search(m, source, target)
    # counter increments, scalar maps, and all-zero targets (cutoff 1)
    rng = random.Random(4302)
    for k in range(60):
        m = random_payload_machine(rng)
        source = Configuration(
            rng.choice(m.states), tuple(rng.randint(0, 2) for _ in range(m.dimension)))
        target = Configuration(
            rng.choice(m.states),
            tuple(0 if k % 3 == 0 else rng.randint(0, 4) for _ in range(m.dimension)))
        assert_agrees_with_concrete_search(m, source, target)
