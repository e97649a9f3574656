"""Construction kit: canned example machines and machine-to-machine encodings.

Three families live here.  The builtin examples are the small machines the
test corpus leans on.  The two Minsky-machine encodings rebuild a two-counter
machine either as a one-counter relational machine (counters packed into the
exponents of 2 and 3) or as a four-counter machine whose extra counters make
every step compatible with the componentwise order.  The tile-matching
construction turns a word-matching puzzle into a two-counter affine machine
whose counters hold the two concatenations read as binary numbers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import FlavorError, MachineError
from .machine import (
    AffineMap1,
    AffineMapD,
    Machine,
    MinskyOp,
    RelationalUpdate,
    Transition,
    fresh_state,
    relational_variables,
)
from .presburger import Comparison, Congruence, Formula, Not, conj, const, var

__all__ = [
    "machine_m1",
    "machine_m2",
    "zero_test_gadget",
    "builtin_examples",
    "build_n1",
    "build_n2",
    "PCPInstance",
    "build_pcp_machine",
    "pcp_witness",
]


# --------------------------------------------------------------------------
# builtin examples


def machine_m1() -> Machine:
    """Two-state machine whose counter reflects at 19.

    q1 can hand the counter to q2 at a cost of 13, or flip it to 19 - x in
    place; q2 drains by threes and gives the counter back unchanged.  The
    reflection makes the machine neither monotone nor well-structured, which
    is exactly what the structural checks' tests want to see.
    """
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


def machine_m2() -> Machine:
    """The same shape as :func:`machine_m1` with the q1 -> q2 edge incrementing.

    Swapping ``x - 13`` for ``x + 1`` is the one change that makes the
    well-structure check pass: the reflection's drops can now be compensated
    by pumping the counter up through q2 first.
    """
    base = machine_m1()
    return Machine(
        name="m2",
        dimension=1,
        states=base.states,
        transitions=(Transition("q1", "q2", AffineMap1(1, 1)),) + base.transitions[1:],
        initial="q1",
    )


def zero_test_gadget() -> Machine:
    """One transition that only fires when the first of two counters is zero.

    Negating the first row pins that counter to zero on the domain (x >= 0
    and -x >= 0 force x = 0) while the second row passes through.  The
    gadget is the standard way affine updates smuggle zero tests past the
    vector-addition restriction, and the canned "not strongly monotone"
    example.
    """
    return Machine(
        name="zero_gadget",
        dimension=2,
        states=("g",),
        transitions=(Transition("g", "g", AffineMapD(((-1, 0), (0, 1)), (0, 0))),),
        initial="g",
    )


def builtin_examples() -> list[Machine]:
    """The canned corpus machines, in a stable order."""
    return [machine_m1(), machine_m2(), zero_test_gadget()]


# --------------------------------------------------------------------------
# two-counter Minsky -> one-counter relational machine


def _require_two_counter_minsky(m: Machine, halt: str) -> None:
    if m.dimension != 2:
        raise FlavorError("the encoding takes a 2-counter machine")
    if m.transitions and m.flavor != "minsky":
        raise FlavorError("the encoding takes a counter-op machine")
    if m.initial is None:
        raise MachineError("the encoding needs an initial state")
    if halt not in m.states:
        raise MachineError(f"halt state {halt!r} is not declared")


def build_n1(m: Machine, halt: str) -> Machine:
    """Pack a 2-counter machine's counters into one value 2^a * 3^b * c.

    Counter operations become multiplicative relational updates: increments
    multiply by 2 or 3, decrements divide (the formula ``2x' = x`` is
    satisfiable only on even values, so blocking falls out of divisibility),
    and zero tests turn into non-divisibility guards that leave the value
    alone.  Every state also gets a restart edge ``x' = 6x + 1`` back to the
    initial state: the new value is coprime to 6, so it encodes two zero
    counters with a garbage factor, which is what makes the result
    well-structured without changing which control states are reachable.
    Finally ``x = 0 and x' = 0`` steps from the initial state to ``halt``.

    The first ``len(m.transitions)`` output transitions correspond one to
    one, in order, with the input's; the restart edges follow in state
    declaration order, then the halt edge.
    """
    _require_two_counter_minsky(m, halt)
    (xv,), (xp,) = relational_variables(1)

    def functional(a_coeff: int, ap_coeff: int, shift: int = 0) -> Formula:
        # a_coeff*x + ap_coeff*x' + shift = 0
        return Comparison(
            var(xv, a_coeff).plus(var(xp, ap_coeff)).plus(const(shift)), "=")

    def op_formula(p: MinskyOp) -> Formula:
        factor = 2 if p.counter == 1 else 3
        if p.op == "inc":
            return functional(factor, -1)  # x' = factor * x
        if p.op == "dec":
            return functional(1, -factor)  # factor * x' = x
        # zero test: the factor does not divide x, value unchanged
        if factor == 2:
            divisible = Congruence(var(xv).plus(const(-1)), 2)  # x odd
        else:
            divisible = Not(Congruence(var(xv), 3))  # 3 does not divide x
        return conj(divisible, functional(1, -1))

    transitions = [
        Transition(t.source, t.target, RelationalUpdate(op_formula(t.payload)))
        for t in m.transitions
    ]
    restart = RelationalUpdate(functional(6, -1, 1))  # x' = 6x + 1
    transitions += [Transition(q, m.initial, restart) for q in m.states]
    transitions.append(Transition(m.initial, halt, RelationalUpdate(
        conj(Comparison(var(xv), "="), Comparison(var(xp), "=")))))
    return Machine(
        name=f"{m.name}-packed",
        dimension=1,
        states=m.states,
        transitions=tuple(transitions),
        initial=m.initial,
    )


# --------------------------------------------------------------------------
# two-counter Minsky -> four-counter Minsky


def build_n2(m: Machine, halt: str) -> Machine:
    """Re-home a 2-counter machine on four counters so every step is monotone.

    A configuration (q; c1, c2, c3, c4) stands for (q; c1 - c3, c2 - c3) of
    the input: both counters carry a shared slack c3, and c4 is circuit
    scratch space.  Increments and decrements carry over verbatim.  A zero
    test on counter k becomes a circuit that drains c4, moves min(ck, c3)
    into c4 one unit at a time, passes only if ck and c3 hit zero together
    (the tested value is zero exactly when ck equals the slack), then
    rebuilds both from c4.  From every control state -- circuit states
    included -- a shared restart circuit drains everything and pumps back to
    (initial; n, n, n, 0) for any n >= 1, which encodes two zero counters.
    Last, a chain of four zero tests steps from the initial state to
    ``halt``; it needs the all-zero configuration, which no run from the
    intended initial configuration (initial; 1, 1, 1, 0) can produce, so it
    leaves the reachable set alone.

    Plain edges keep their positions; circuit edges follow their zero test,
    then the restart circuit, then the halt chain.  Unlabeled no-op edges
    from the drawing are realized as inc-c4/dec-c4 pairs (always enabled,
    net zero); the zero-circuit entry folds its no-op into the c4 drain.
    """
    _require_two_counter_minsky(m, halt)
    taken = set(m.states)
    states: list[str] = list(m.states)
    transitions: list[Transition] = []

    def add_state(base: str) -> str:
        q = fresh_state(base, taken)
        states.append(q)
        return q

    def edge(src: str, dst: str, op: str, counter: int) -> None:
        transitions.append(Transition(src, dst, MinskyOp(op, counter)))

    zero_edges = 0
    for t in m.transitions:
        p = t.payload
        if p.op != "zero":
            transitions.append(Transition(t.source, t.target, p))
            continue
        i = zero_edges
        zero_edges += 1
        k = p.counter
        drain = add_state(f"zt{i}_drain")
        move = add_state(f"zt{i}_move")
        mv_a = add_state(f"zt{i}_mv_a")
        mv_b = add_state(f"zt{i}_mv_b")
        gate = add_state(f"zt{i}_gate")
        rebuild = add_state(f"zt{i}_rebuild")
        rb_a = add_state(f"zt{i}_rb_a")
        rb_b = add_state(f"zt{i}_rb_b")
        edge(t.source, drain, "inc", 4)  # entry no-op, absorbed by the drain
        edge(drain, drain, "dec", 4)
        edge(drain, move, "zero", 4)
        edge(move, mv_a, "dec", k)
        edge(mv_a, mv_b, "dec", 3)
        edge(mv_b, move, "inc", 4)
        edge(move, gate, "zero", 3)
        edge(gate, rebuild, "zero", k)
        edge(rebuild, rb_a, "inc", k)
        edge(rb_a, rb_b, "inc", 3)
        edge(rb_b, rebuild, "dec", 4)
        edge(rebuild, t.target, "zero", 4)
        edge(t.target, rebuild, "zero", 4)  # back-edge kept from the drawing

    # Shared restart circuit, entered from every state built so far.
    entry_states = list(states)
    r_drain = add_state("rst_drain")
    gates = [add_state(f"rst_gate{i}") for i in range(1, 7)]
    r_pump = add_state("rst_pump")
    p_a = add_state("rst_pump_a")
    p_b = add_state("rst_pump_b")
    r_out = add_state("rst_out")
    for q in entry_states:
        mid = add_state(f"rst_in_{q}")
        edge(q, mid, "inc", 4)
        edge(mid, r_drain, "dec", 4)
    for c in (1, 2, 3, 4):
        edge(r_drain, r_drain, "dec", c)
    edge(r_drain, gates[0], "zero", 1)
    edge(gates[0], gates[1], "zero", 2)
    edge(gates[1], gates[2], "zero", 3)
    edge(gates[2], gates[3], "zero", 4)
    edge(gates[3], gates[4], "inc", 1)
    edge(gates[4], gates[5], "inc", 2)
    edge(gates[5], r_pump, "inc", 3)
    edge(r_pump, p_a, "inc", 1)
    edge(p_a, p_b, "inc", 2)
    edge(p_b, r_pump, "inc", 3)
    edge(r_pump, r_out, "inc", 4)  # exit no-op pair
    edge(r_out, m.initial, "dec", 4)

    # Halt chain: all four counters must be zero.
    f_a = add_state("fin_a")
    f_b = add_state("fin_b")
    f_c = add_state("fin_c")
    edge(m.initial, f_a, "zero", 1)
    edge(f_a, f_b, "zero", 2)
    edge(f_b, f_c, "zero", 3)
    edge(f_c, halt, "zero", 4)

    return Machine(
        name=f"{m.name}-monotone",
        dimension=4,
        states=tuple(states),
        transitions=tuple(transitions),
        initial=m.initial,
    )


# --------------------------------------------------------------------------
# tile matching -> two-counter affine machine


@dataclass(frozen=True)
class PCPInstance:
    """Tile pairs of binary strings; a solution is a nonempty index sequence
    whose top and bottom concatenations agree."""

    tiles: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.tiles, tuple):
            object.__setattr__(self, "tiles",
                               tuple((a, b) for a, b in self.tiles))
        if len(self.tiles) < 1:
            raise ValueError("need at least one tile")
        for a, b in self.tiles:
            if not set(a) <= {"0", "1"} or not set(b) <= {"0", "1"}:
                raise ValueError(f"tiles must be binary strings, got {(a, b)!r}")


def _bits(s: str) -> int:
    return int(s, 2) if s else 0


def _append_word(value: int, s: str) -> int:
    return (value << len(s)) | _bits(s)


def build_pcp_machine(p: PCPInstance) -> Machine:
    """Tile matching as counter equality in a two-counter affine machine.

    Both counters start at 1 (a sentinel high bit, so leading zeros in the
    words still count).  Each tile multiplies a counter by 2^len(word) and
    adds the word's bits -- appending the word in binary.  The last tile of a
    sequence rides the hand-off edge into the final state, so every run that
    gets there has spelled at least one tile; a joint decrement loop then
    reaches (0, 0) exactly from equal counters.
    """
    dim2_identity = ((1, 0), (0, 1))
    transitions = [
        Transition("q0", "q1", AffineMapD(((0, 0), (0, 0)), (1, 1))),
    ]
    tile_maps = [AffineMapD(((1 << len(a), 0), (0, 1 << len(b))),
                            (_bits(a), _bits(b)))
                 for a, b in p.tiles]
    for payload in tile_maps:
        transitions.append(Transition("q1", "q1", payload))
    for payload in tile_maps:
        transitions.append(Transition("q1", "q2", payload))
    transitions.append(Transition("q2", "q2", AffineMapD(dim2_identity, (-1, -1))))
    return Machine(
        name="tiles",
        dimension=2,
        states=("q0", "q1", "q2"),
        transitions=tuple(transitions),
        initial="q0",
    )


def pcp_witness(p: PCPInstance, value_bound: int = 1_000_000) -> tuple[int, ...] | None:
    """Shortest nonempty tile sequence matching top and bottom, or None.

    Breadth-first search over (top, bottom) counter pairs starting from the
    sentinel (1, 1); branches where either value would pass ``value_bound``
    are dropped, so None means "no solution in this window", which is all a
    brute-force search can say.  Indices are 1-based.
    """
    start = (1, 1)
    seen = {start}
    frontier: deque[tuple[tuple[int, int], tuple[int, ...]]] = deque([(start, ())])
    while frontier:
        (u, v), path = frontier.popleft()
        for i, (a, b) in enumerate(p.tiles, start=1):
            nu = _append_word(u, a)
            nv = _append_word(v, b)
            if nu > value_bound or nv > value_bound:
                continue
            if nu == nv:
                return path + (i,)
            if (nu, nv) not in seen:
                seen.add((nu, nv))
                frontier.append(((nu, nv), path + (i,)))
    return None
