"""Machine model: construction validation, stepping, classification, domains."""

from __future__ import annotations

import random

import pytest

from avasskit.errors import FlavorError, MachineError
from avasskit.machine import (
    AffineMap1,
    AffineMapD,
    Classification,
    Configuration,
    Machine,
    MinskyOp,
    RelationalUpdate,
    Transition,
    apply,
    apply_payload,
    classify,
    domain_clause,
    negative_transitions,
)
from avasskit.presburger import Comparison, var
from avasskit.semiset import Clause


def m1() -> Machine:
    # two states, one counter; one decreasing-by-13 edge, one reflection at 19,
    # one decreasing-by-3 self-loop, one identity edge back
    return Machine(
        name="M1",
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


# --- construction validation -------------------------------------------------

def test_undeclared_state_rejected():
    with pytest.raises(MachineError):
        Machine("m", 1, ("a",), (Transition("a", "b", AffineMap1(1, 0)),))


def test_duplicate_states_rejected():
    with pytest.raises(MachineError):
        Machine("m", 1, ("a", "a"), ())


def test_mixed_flavors_rejected():
    with pytest.raises(MachineError):
        Machine("m", 1, ("a",), (
            Transition("a", "a", AffineMap1(1, 0)),
            Transition("a", "a", MinskyOp("inc", 1)),
        ))


def test_dimension_mismatch_rejected():
    with pytest.raises(MachineError):
        Machine("m", 2, ("a",), (Transition("a", "a", AffineMap1(1, 0)),))
    with pytest.raises(MachineError):
        Machine("m", 1, ("a",), (
            Transition("a", "a", AffineMapD(((1, 0), (0, 1)), (0, 0))),))
    with pytest.raises(MachineError):
        Machine("m", 1, ("a",), (Transition("a", "a", MinskyOp("inc", 2)),))


def test_matrix_shape_checked():
    with pytest.raises(MachineError):
        AffineMapD(((1, 0),), (0, 0))



def test_counter_op_checked():
    with pytest.raises(MachineError, match="unknown counter op 'jump'"):
        MinskyOp("jump", 1)
    with pytest.raises(MachineError, match="counters are numbered from 1"):
        MinskyOp("inc", 0)


def test_dimension_and_initial_state_checked():
    with pytest.raises(MachineError, match="dimension must be >= 1"):
        Machine("m", 0, ("a",), ())
    with pytest.raises(MachineError, match="initial state 'b' not declared"):
        Machine("m", 1, ("a",), (), initial="b")


def test_check_configuration_counts_counters():
    m = m1()
    m.check_configuration(Configuration("q1", (5,)))
    with pytest.raises(MachineError, match="configuration has 2 counters, machine has 1"):
        m.check_configuration(Configuration("q1", (5, 0)))

def test_configuration_validation():
    with pytest.raises(MachineError):
        Configuration("q", (-1,))
    with pytest.raises(MachineError):
        Configuration("q", (0, -1))
    with pytest.raises(MachineError):
        Configuration("q", ())
    listed = Configuration("q", [1, 2])
    assert type(listed.counters) is tuple
    assert listed == Configuration("q", (1, 2))
    assert hash(listed) == hash(Configuration("q", (1, 2)))
    assert not hasattr(listed, "__dict__")
    with pytest.raises(MachineError):
        Configuration("q", (1, 2)).counter
    assert Configuration("q", (5,)).counter == 5
    assert Configuration("q", (5,)).render() == "q:5"
    assert Configuration("q", (1, 2)).render() == "q:1,2"


# --- stepping ----------------------------------------------------------------

def test_apply_affine1():
    m = m1()
    t_dec13, t_refl = m.transitions[0], m.transitions[1]
    assert apply(m, t_dec13, Configuration("q1", (19,))) == Configuration("q2", (6,))
    assert apply(m, t_dec13, Configuration("q1", (12,))) is None  # would go negative
    assert apply(m, t_refl, Configuration("q1", (19,))) == Configuration("q1", (0,))
    assert apply(m, t_refl, Configuration("q1", (20,))) is None
    assert apply(m, t_dec13, Configuration("q2", (19,))) is None  # wrong source state


def test_apply_respects_guard():
    g = Clause(0, None, 2, 0)
    m = Machine("m", 1, ("a", "b"), (Transition("a", "b", AffineMap1(1, 1, g)),))
    t = m.transitions[0]
    assert apply(m, t, Configuration("a", (4,))) == Configuration("b", (5,))
    assert apply(m, t, Configuration("a", (3,))) is None


def test_apply_minsky_ops():
    m = Machine("m", 2, ("a",), (
        Transition("a", "a", MinskyOp("inc", 1)),
        Transition("a", "a", MinskyOp("dec", 2)),
        Transition("a", "a", MinskyOp("zero", 2)),
    ))
    inc1, dec2, zero2 = m.transitions
    c = Configuration("a", (3, 1))
    assert apply(m, inc1, c) == Configuration("a", (4, 1))
    assert apply(m, dec2, c) == Configuration("a", (3, 0))
    assert apply(m, zero2, c) is None
    assert apply(m, zero2, Configuration("a", (3, 0))) == Configuration("a", (3, 0))
    assert apply(m, dec2, Configuration("a", (3, 0))) is None


def test_apply_affined():
    p = AffineMapD(((2, 0), (0, 1)), (1, 1))
    m = Machine("m", 2, ("a",), (Transition("a", "a", p),))
    t = m.transitions[0]
    assert apply(m, t, Configuration("a", (0, 0))) == Configuration("a", (1, 1))
    neg = AffineMapD(((-1, 0), (0, 1)), (0, 0))
    m2 = Machine("m", 2, ("a", "b"), (Transition("a", "b", neg),))
    assert apply(m2, m2.transitions[0], Configuration("a", (0, 5))) == Configuration("b", (0, 5))
    assert apply(m2, m2.transitions[0], Configuration("a", (1, 5))) is None


def test_apply_relational_is_a_flavor_error():
    f = Comparison(var("x'").minus(var("x")), "=")
    m = Machine("m", 1, ("a",), (Transition("a", "a", RelationalUpdate(f)),))
    with pytest.raises(FlavorError):
        apply(m, m.transitions[0], Configuration("a", (0,)))


# --- classification ----------------------------------------------------------

def test_classify_m1():
    c = classify(m1())
    assert not c.is_vass
    assert c.is_avass
    assert not c.is_positive_avass
    assert not c.is_totally_positive_avass
    assert not c.is_minsky
    assert c.is_functional_syntactically


def test_classify_translation_machine():
    m = Machine("m", 2, ("a",), (
        Transition("a", "a", AffineMapD(((1, 0), (0, 1)), (1, 0))),
        Transition("a", "a", AffineMapD(((1, 0), (0, 1)), (0, -1))),
    ))
    c = classify(m)
    assert c.is_vass and c.is_avass and c.is_positive_avass
    assert not c.is_totally_positive_avass  # a negative offset entry
    assert c.is_minsky  # unit offsets


def test_classify_vass_with_wide_offsets_not_minsky():
    m = Machine("m", 2, ("a",), (
        Transition("a", "a", AffineMapD(((1, 0), (0, 1)), (2, -1))),))
    c = classify(m)
    assert c.is_vass and not c.is_minsky


def test_classify_minsky_flavor():
    m = Machine("m", 1, ("a",), (
        Transition("a", "a", MinskyOp("inc", 1)),
        Transition("a", "a", MinskyOp("zero", 1)),
    ))
    c = classify(m)
    assert c.is_minsky and not c.is_vass and not c.is_avass
    m2 = Machine("m", 1, ("a",), (Transition("a", "a", MinskyOp("inc", 1)),))
    c2 = classify(m2)
    assert c2.is_vass and c2.is_totally_positive_avass and c2.is_minsky
    m3 = Machine("m", 1, ("a",), (
        Transition("a", "a", MinskyOp("inc", 1)),
        Transition("a", "a", MinskyOp("dec", 1)),
    ))
    c3 = classify(m3)
    assert c3.is_positive_avass and not c3.is_totally_positive_avass


def test_classify_relational_all_affine_flags_false():
    f = Comparison(var("x'").minus(var("x")), "=")
    m = Machine("m", 1, ("a",), (Transition("a", "a", RelationalUpdate(f)),))
    c = classify(m)
    assert c == type(c)(False, False, False, False, False, False)


def test_classify_stable_under_renaming_and_reordering():
    m = m1()
    ren = {"q1": "b", "q2": "a"}
    renamed = Machine(
        "M1r", 1,
        tuple(sorted(ren[q] for q in m.states)),
        tuple(Transition(ren[t.source], ren[t.target], t.payload)
              for t in reversed(m.transitions)),
    )
    assert classify(renamed) == classify(m)


def test_classify_zero_test_gadget_matrix():
    m = Machine("g", 2, ("a", "b"), (
        Transition("a", "b", AffineMapD(((-1, 0), (0, 1)), (0, 0))),))
    c = classify(m)
    assert c.is_avass and not c.is_vass and not c.is_positive_avass


def _classify_reference(m: Machine):
    """Classification by dense matrices: an identity comparison per matrix and
    a separate rule for the counter-op flavor, written out by hand."""
    fl = m.flavor
    if fl == "relational":
        return Classification(False, False, False, False, False, False)
    if fl == "minsky":
        no_zero = all(t.payload.op != "zero" for t in m.transitions)
        no_dec = all(t.payload.op != "dec" for t in m.transitions)
        return Classification(no_zero, no_zero, no_zero, no_zero and no_dec, True, True)
    d = m.dimension
    identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    is_vass = positive = totally = unit = True
    for t in m.transitions:
        p = t.payload
        mat, off = (((p.a,),), (p.b,)) if isinstance(p, AffineMap1) else (p.matrix, p.offset)
        is_vass = is_vass and mat == identity
        positive = positive and all(e >= 0 for row in mat for e in row)
        totally = totally and all(b >= 0 for b in off)
        unit = unit and sum(abs(b) for b in off) <= 1
    return Classification(is_vass, True, positive, positive and totally,
                          is_vass and unit, True)


def _random_machine(rng: random.Random, flavor: str, d: int) -> Machine:
    states = ("a", "b", "c")[:rng.randint(1, 3)]

    def payload():
        if flavor == "affine1":
            guard = rng.choice([None, Clause(rng.randint(0, 5), None, rng.randint(1, 3))])
            return AffineMap1(rng.choice([1, 1, rng.randint(-3, 3)]), rng.randint(-2, 2), guard)
        if flavor == "affined":
            if rng.random() < 0.4:  # the identity, or a near miss of it
                mat = [[int(i == j) for j in range(d)] for i in range(d)]
                if rng.random() < 0.3:
                    mat[rng.randrange(d)][rng.randrange(d)] = rng.randint(-1, 2)
            else:
                mat = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
            off = [rng.choice([0, 0, 1, -1, rng.randint(-3, 3)]) for _ in range(d)]
            return AffineMapD(tuple(map(tuple, mat)), tuple(off))
        if flavor == "minsky":
            return MinskyOp(rng.choice(["inc", "inc", "dec", "zero"]), rng.randint(1, d))
        return RelationalUpdate(Comparison(var("x'").minus(var("x")), ">="))

    transitions = tuple(Transition(rng.choice(states), rng.choice(states), payload())
                        for _ in range(rng.randint(0, 4)))
    return Machine("r", d, states, transitions)


def test_classify_matches_dense_matrix_reference():
    from avasskit.generators import (PCPInstance, build_n1, build_n2, build_pcp_machine,
                                     builtin_examples)
    rng = random.Random(1103)
    machines = [Machine("e", d, ("a",), ()) for d in (1, 2)]
    machines += builtin_examples()
    for _ in range(400):
        flavor = rng.choice(["affine1", "affined", "minsky", "relational"])
        d = 1 if flavor in ("affine1", "relational") else rng.randint(1, 3)
        machines.append(_random_machine(rng, flavor, d))
    two_counter = Machine("mm", 2, ("s0", "s1"), (
        Transition("s0", "s1", MinskyOp("inc", 1)),
        Transition("s1", "s0", MinskyOp("dec", 2)),
        Transition("s0", "s1", MinskyOp("zero", 1)),
    ), initial="s0")
    machines += [build_n1(two_counter, "s1"), build_n2(two_counter, "s1"),
                 build_pcp_machine(PCPInstance((("1", "101"), ("10", "00"))))]
    flavors = {m.flavor for m in machines}
    assert flavors == {"affine1", "affined", "minsky", "relational"}
    for m in machines:
        assert classify(m) == _classify_reference(m), m


# --- domains and negative transitions ---------------------------------------

def test_domain_clause_cases():
    assert domain_clause(AffineMap1(-1, -5)).is_empty
    assert domain_clause(AffineMap1(-1, 19)) == Clause(0, 19)
    assert domain_clause(AffineMap1(0, 3)) == Clause(0, None)
    assert domain_clause(AffineMap1(0, -3)).is_empty
    dom = domain_clause(AffineMap1(1, -13))
    assert not dom.member(12) and dom.member(13)
    dom2 = domain_clause(AffineMap1(2, -13))
    assert not dom2.member(6) and dom2.member(7)


def test_domain_matches_apply_payload_randomized():
    rng = random.Random(2611)
    for _ in range(300):
        guard = None
        if rng.random() < 0.5:
            lo = rng.randint(0, 30)
            hi = None if rng.random() < 0.5 else lo + rng.randint(-3, 60)
            modulus = rng.randint(1, 6)
            guard = Clause(lo, hi, modulus, rng.randrange(modulus))
        p = AffineMap1(rng.randint(-3, 3), rng.randint(-20, 20), guard)
        clause = domain_clause(p)
        for n in range(201):
            assert clause.member(n) == (apply_payload(p, (n,)) is not None), (p, n)


def test_domain_clause_with_guard():
    g = Clause(0, None, 3, 1)
    dom = domain_clause(AffineMap1(-2, 10, g))
    # base domain [0..5], guard residue 1 mod 3 -> {1, 4}
    assert list(dom.values(100)) == [1, 4]


def test_negative_transitions_m1():
    m = m1()
    neg = negative_transitions(m)
    assert len(neg) == 1 and neg[0].payload == AffineMap1(-1, 19)


def test_negative_transitions_skip_empty_domain():
    m = Machine("m", 1, ("a",), (Transition("a", "a", AffineMap1(-1, -5)),))
    assert negative_transitions(m) == []


def test_negative_transitions_flavor_guard():
    m = Machine("m", 1, ("a",), (Transition("a", "a", MinskyOp("inc", 1)),))
    with pytest.raises(FlavorError):
        negative_transitions(m)


def test_flavor_of_empty_machine():
    assert Machine("m", 1, ("a",), ()).flavor == "affine1"
    assert Machine("m", 3, ("a",), ()).flavor == "affined"
