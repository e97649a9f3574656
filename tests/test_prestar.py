"""Symbolic backward reachability: frozen preimages, every kind of cycle
acceleration against one exact orbit oracle, and fixpoint cross-checks
against the bounded explorer."""

from __future__ import annotations

import hashlib
import math
import random
import tracemalloc

import pytest

from avasskit import prestar
from avasskit.errors import BudgetExceededError, FlavorError
from avasskit.machine import (
    AffineMap1,
    Configuration,
    Machine,
    Transition,
    UpwardTarget,
    apply,
    apply_payload,
    domain_clause,
)
from avasskit.prestar import (
    CLASS_MODULUS_CAP,
    PreStarResult,
    SimpleCycle,
    _affine_preimage_clause,
    _cycle_pre_translation,
    compute_pre_star,
    compute_pre_star_upward,
    enumerate_simple_cycles,
    pre_cycle_star,
    pre_transition,
)
from avasskit.semiset import (
    EMPTY,
    Clause,
    SemilinearSet,
    from_values,
    intersect_clauses,
    interval,
    semilinear,
    singleton,
)
from avasskit.simulator import Budget, find_path, pre_star_bounded


def m1() -> Machine:
    return Machine("M1", 1, ("q1", "q2"), (
        Transition("q1", "q2", AffineMap1(1, -13)),
        Transition("q1", "q1", AffineMap1(-1, 19)),
        Transition("q2", "q2", AffineMap1(1, -3)),
        Transition("q2", "q1", AffineMap1(1, 0)),
    ), initial="q1")


# --- oracles (first principles: a direct check, and exact orbit walks) ------

def transition_pre_oracle(p: AffineMap1, s: SemilinearSet, bound: int) -> set[int]:
    """{n <= bound : n in the payload's domain and a*n + b in s}, by direct check."""
    return {n for n in range(bound + 1)
            if (p.guard is None or p.guard.member(n)) and s.member(p.a * n + p.b)}


def frame(s: SemilinearSet) -> tuple[int, int]:
    """(T, L) read off the clauses: from T on, membership in s depends only on
    n mod L.  T is past every bounded clause's hi and every unbounded one's lo,
    and L is the lcm of the unbounded clauses' moduli."""
    t, l = 0, 1
    for lo, hi, m, _ in s.clauses:
        if hi is None:
            t, l = max(t, lo), math.lcm(l, m)
        else:
            t = max(t, hi + 1)
    return t, l


def bits(clauses, width: int) -> bytearray:
    """Byte n is 1 iff n < width is a member of one of the clauses."""
    out = bytearray(width)
    for c in clauses:
        r = c.values(width - 1)
        out[r.start:r.stop:r.step] = b"\1" * len(r)
    return out


def orbit_mismatch(a: int, b: int, g: Clause, s: SemilinearSet,
                   got: SemilinearSet) -> int | None:
    """The least n where ``got`` and s ∪ pre⁺(s) differ, or None when the sets are equal.

    n is in pre⁺(s) iff some i >= 1 has n, f(n), ..., f^{i-1}(n) in the guard
    g and f^i(n) in s, f(n) = a*n + b.  Each start's orbit is walked until it
    leaves the naturals or the guard, lands in s, or meets a value decided
    before or on the walk itself (a loop that missed s).  All values on a walk
    share its outcome, so each is decided once.

    From N on, membership depends only on n mod M.  With (T_s, L_s) the frame
    of s, G the guard's lo (hi + 1 when it is finite) and M = lcm(L_s, g.modulus):
    - a >= 2, or a = 1 with b > 0: N = max(T_s, G, ⌈-b/(a-1)⌉ + 1 for a >= 2).
      From N on f(v) > v, so an orbit stays past T_s and G, where s, the guard
      and f mod M read v mod M only; the walk keys such values by v mod M.
    - a <= 0: N = max(T_s, G, b + 1).  From N on f(n) is b or negative, so
      whether n hits is g(n) and one fixed bit.
    - a = 1 with b < 0, and M takes |b| too: N = max(T_s, G) + |b| + M.  A
      guarded n hits iff its class mod |b| holds an m in s with m + |b| >= g.lo
      and m <= n - |b| (only m = n - |b| if g.modulus does not divide |b|).
      The least such m lies below max(T_s, G) + lcm(|b|, L_s).  N = max(T_s,
      G) + |b| is too small: for s = [10..] mod 7 = 3, g = [0..] and b = -5,
      18 is no member but 53 = 18 + M is.
    ``got`` repeats with period L_R from T_R on (its frame), so the two sets
    are equal iff they agree on [0, max(N, T_R) + lcm(M, L_R)).
    """
    t_s, l_s = frame(s)
    t_g = g.lo if g.hi is None else g.hi + 1
    if a == 1 and b < 0:
        period = math.lcm(l_s, g.modulus, -b)
        start = max(t_s, t_g) - b + period
    else:
        period = math.lcm(l_s, g.modulus)
        start = max(t_s, t_g, b + 1 if a <= 0 else 0, -(b // (a - 1)) + 1 if a >= 2 else 0)
    rising = a >= 2 or a == 1 and b > 0
    t_r, l_r = frame(got)
    width = max(start, t_r) + math.lcm(period, l_r)
    in_s, in_g = bits(s.clauses, width), bits([g], width)
    want = bytearray(in_s)
    # by value, then by v mod M past N on a rising map:
    # 0 open, 1 on this walk, 2 no hit, 3 hit
    memo = bytearray(width + period)
    for n in range(width):
        if in_s[n]:
            continue
        v, path, hit = n, [], False
        while v >= 0:
            if rising and v >= start:  # past N: a value of the same class mod M
                v = start + (v - start) % period
                k = width + v - start
            else:
                k = v
            if path and in_s[v]:
                hit = True
                break
            if memo[k] or not in_g[v]:
                hit = memo[k] == 3
                break
            memo[k] = 1
            path.append(k)
            v = a * v + b
        for k in path:
            memo[k] = 2 + hit
        want[n] = hit
    have = bits(got.clauses, width)
    return None if have == want else next(n for n in range(width) if have[n] != want[n])


def cycle(a: int, b: int, guard: Clause) -> SimpleCycle:
    """Ad-hoc cycle record for exercising the acceleration directly."""
    return SimpleCycle("q", AffineMap1(a, b), guard)


def members_below(s: SemilinearSet, bound: int) -> set[int]:
    return set(s.values(bound))


def assert_orbits(a: int, b: int, g: Clause, s: SemilinearSet, got: SemilinearSet) -> None:
    # a result that is s itself claims to add no member
    where = orbit_mismatch(a, b, g, s, got)
    assert where is None, (
        f"{'identity return adds a member' if got is s else 'cycle mismatch'} at n={where}: "
        f"a={a} b={b} guard={g} s={s.render()} got={got.render()}")


# --- one-transition preimages ------------------------------------------------

def test_pre_transition_identity_keeps_the_set():
    got = pre_transition(AffineMap1(1, 0), singleton(19))
    assert got.equal(singleton(19))


def test_pre_transition_shift_through_minus_13():
    s = semilinear([Clause(19, None, 3, 1)])
    got = pre_transition(AffineMap1(1, -13), s)
    assert got.equal(semilinear([Clause(32, None, 3, 2)]))


def test_pre_transition_reflection():
    got = pre_transition(AffineMap1(-1, 19), singleton(19))
    assert got.equal(singleton(0))


def test_pre_transition_constant_map_fans_out_to_domain():
    # x' = 0x + 7 from anywhere; the preimage of a set containing 7 is everything
    assert pre_transition(AffineMap1(0, 7), singleton(7)).equal(interval(0, None))
    assert pre_transition(AffineMap1(0, 7), singleton(8)).is_empty


def test_pre_transition_respects_guards():
    p = AffineMap1(1, -13, Clause(0, None, 2, 0))  # even inputs only
    got = pre_transition(p, semilinear([Clause(19, None, 3, 1)]))
    # without the guard this is [32..) = 2 mod 3; keep the even ones
    assert members_below(got, 60) == {n for n in range(32, 61)
                                      if n % 3 == 2 and n % 2 == 0}


def test_pre_transition_random_against_oracle():
    rng = random.Random(4101)
    for _ in range(300):
        a = rng.randint(-3, 3)
        b = rng.randint(-15, 15)
        guard = None
        if rng.random() < 0.4:
            m = rng.choice([1, 2, 3, 4])
            guard = Clause(rng.randint(0, 10),
                           rng.choice([None, rng.randint(10, 40)]),
                           m, rng.randrange(m))
        p = AffineMap1(a, b, guard)
        clauses = []
        for _ in range(rng.randint(1, 3)):
            m = rng.choice([1, 1, 2, 3, 5])
            clauses.append(Clause(rng.randint(0, 40),
                                  rng.choice([None, rng.randint(20, 80)]),
                                  m, rng.randrange(m)))
        s = semilinear(clauses)
        got = pre_transition(p, s)
        assert members_below(got, 150) == transition_pre_oracle(p, s, 150), \
            f"pre mismatch for a={a} b={b} guard={guard} s={s.render()}"


def test_pre_transition_matches_set_intersection_form():
    # the same clause tuple as pulling every clause back, then intersecting
    # with the domain as a set; for a = 0 as well, which needs no own branch
    rng = random.Random(4117)
    for _ in range(1500):
        guard = None
        if rng.random() < 0.5:
            m = rng.choice([1, 2, 3, 4])
            guard = Clause(rng.randint(0, 10), rng.choice([None, rng.randint(5, 40)]),
                           m, rng.randrange(m))
        p = AffineMap1(rng.randint(-3, 3), rng.randint(-15, 15), guard)
        clauses = []
        for _ in range(rng.randint(0, 4)):
            m = rng.choice([1, 1, 2, 3, 5])
            clauses.append(Clause(rng.randint(0, 40), rng.choice([None, rng.randint(0, 80)]),
                                  m, rng.randrange(m)))
        s = semilinear(clauses)
        if rng.random() < 0.5:
            s = s.normalized()
        pre = semilinear(_affine_preimage_clause(p.a, p.b, c) for c in s.clauses)
        want = pre.intersect(semilinear([domain_clause(p)]))
        assert pre_transition(p, s) == want, (p, s)
        if p.a == 0:
            assert want == (semilinear([domain_clause(p)]) if s.member(p.b) else EMPTY)


# --- cycle enumeration -------------------------------------------------------

def test_m1_has_three_cycle_entries_in_declaration_order():
    cycles = enumerate_simple_cycles(m1())
    # the q1<->q2 loop is rooted at q1 only, its least state
    assert [(c.root, c.meta.a, c.meta.b) for c in cycles] == [
        ("q1", 1, -13),
        ("q1", -1, 19),
        ("q2", 1, -3),
    ]
    by_root = {(c.root, c.meta.b): c for c in cycles}
    assert by_root[("q1", -13)].guard == Clause(13, None)
    assert by_root[("q1", 19)].guard == Clause(0, 19)
    assert by_root[("q2", -3)].guard == Clause(3, None)


def test_cycle_guard_folds_user_guards_and_domains():
    m = Machine("g", 1, ("a", "b"), (
        Transition("a", "b", AffineMap1(1, -2, Clause(0, None, 2, 0))),
        Transition("b", "a", AffineMap1(1, -4)),
    ))
    cycles = enumerate_simple_cycles(m)
    assert len(cycles) == 1
    entry = cycles[0]
    assert entry.root == "a"
    # even n, n >= 2 (first step), and n - 2 >= 4 (second step): even n >= 6
    assert entry.guard == Clause(6, None, 2, 0)
    assert (entry.meta.a, entry.meta.b) == (1, -6)


def test_cycles_with_empty_guards_are_dropped():
    m = Machine("g", 1, ("a",), (
        Transition("a", "a", AffineMap1(1, -2, Clause(0, 1))),))
    assert enumerate_simple_cycles(m) == []


def test_cycle_enumeration_budget():
    states = tuple(f"s{i}" for i in range(6))
    trans = tuple(Transition(p, q, AffineMap1(1, 0))
                  for p in states for q in states if p != q)
    with pytest.raises(BudgetExceededError):
        enumerate_simple_cycles(Machine("k6", 1, states, trans), cap=5)


def test_cycle_walk_skips_states_that_cannot_return():
    # a 2-cycle with a 1,100-state chain hanging off it that never comes back:
    # a walk into the chain would recurse deeper than the interpreter allows
    chain = tuple(f"c{i}" for i in range(1100))
    trans = [Transition("a", "b", AffineMap1(1, 1)), Transition("b", "a", AffineMap1(1, -1)),
             Transition("a", chain[0], AffineMap1(1, 1))]
    trans += [Transition(p, q, AffineMap1(1, 1)) for p, q in zip(chain, chain[1:])]
    cycles = enumerate_simple_cycles(Machine("tail", 1, ("a", "b") + chain, tuple(trans)))
    assert [(c.root, c.meta, c.guard) for c in cycles] == [
        ("a", AffineMap1(1, 0), Clause(0, None)),
    ]


def k_n(n: int, seed: int = 7) -> Machine:
    """The complete digraph on n states, every edge x' = x + b, b drawn by Random(seed)."""
    rng = random.Random(seed)
    states = tuple(f"q{i}" for i in range(n))
    return Machine(f"k{n}", 1, states, tuple(
        Transition(u, v, AffineMap1(1, rng.choice([-3, -2, -1, 1, 2])))
        for u in states for v in states if u != v))


def guarded_machine(rng: random.Random) -> Machine:
    states = tuple(f"q{i}" for i in range(rng.randint(2, 4)))
    trans = []
    for _ in range(rng.randint(3, 9)):
        guard = None
        if rng.random() < 0.4:
            gm = rng.choice([1, 2, 3])
            guard = Clause(rng.randint(0, 6), rng.choice([None, rng.randint(6, 30)]),
                           gm, rng.randrange(gm))
        trans.append(Transition(rng.choice(states), rng.choice(states),
                                AffineMap1(rng.randint(-2, 2), rng.randint(-6, 6), guard)))
    return Machine("rnd", 1, states, tuple(trans))


def path_summaries(m: Machine) -> list[tuple[str, AffineMap1, Clause]]:
    """Every simple cycle at its least state (in declaration order) by a plain
    path DFS, folded front to back into (root, meta, guard); empty guards
    dropped, repeats kept."""
    out = []

    def walk(root: str, state: str, visited: set[str], path: list[Transition]) -> None:
        for t in m.transitions_from(state):
            if t.target == root:
                out.append((root, path + [t]))
            elif t.target not in visited and m.states.index(t.target) > m.states.index(root):
                walk(root, t.target, visited | {t.target}, path + [t])

    for root in m.states:
        walk(root, root, {root}, [])
    summaries = []
    for root, path in out:
        a, b, guard = 1, 0, Clause(0, None)
        for t in path:
            step = _affine_preimage_clause(a, b, domain_clause(t.payload))
            guard = intersect_clauses(guard, step)
            a, b = t.payload.a * a, t.payload.a * b + t.payload.b
        for n in range(40):
            v: tuple[int, ...] | None = (n,)
            for t in path:
                v = apply_payload(t.payload, v) if v is not None else None
            assert guard.member(n) == (v is not None), (root, path, n)
        if not guard.is_empty:
            summaries.append((root, AffineMap1(a, b), guard))
    return summaries


def test_cycle_summaries_match_path_enumeration():
    rng = random.Random(4107)
    machines = [k_n(5), k_n(6)] + [guarded_machine(rng) for _ in range(60)]
    for m in machines:
        expected = list(dict.fromkeys(path_summaries(m)))
        got = [(c.root, c.meta, c.guard) for c in enumerate_simple_cycles(m)]
        assert got == expected, m
    assert len(enumerate_simple_cycles(k_n(5))) == 43
    # K8 has 16,064 simple cycles but only 409 summaries at their least
    # states; its walk stores 13,261 path summaries, which is what the cap counts
    assert len(enumerate_simple_cycles(k_n(8))) == 409
    with pytest.raises(BudgetExceededError):
        enumerate_simple_cycles(k_n(8), cap=13_260)
    enumerate_simple_cycles(k_n(8), cap=13_261)


def test_cycle_enumeration_needs_single_counter_affine():
    from avasskit.machine import MinskyOp
    m = Machine("m", 1, ("a",), (Transition("a", "a", MinskyOp("inc", 1)),))
    with pytest.raises(FlavorError):
        enumerate_simple_cycles(m)


# --- cycle acceleration: frozen examples ------------------------------------

def test_cycle_star_descent_by_three():
    got = pre_cycle_star(cycle(1, -3, Clause(3, None)), singleton(19))
    assert got.equal(semilinear([Clause(19, None, 3, 1)]))


def test_cycle_star_reflection_pairs_up():
    got = pre_cycle_star(cycle(-1, 19, Clause(0, 19)), singleton(0))
    assert got.equal(from_values([0, 19]))


def test_cycle_star_of_empty_is_empty():
    assert pre_cycle_star(cycle(1, -3, Clause(3, None)), EMPTY).is_empty


def test_cycle_star_identity_meta_adds_nothing():
    s = semilinear([Clause(4, None, 2, 0)])
    assert pre_cycle_star(cycle(1, 0, Clause(0, None)), s).equal(s)


def test_cycle_star_constant_meta():
    s = from_values([5, 9])
    got = pre_cycle_star(cycle(0, 5, Clause(2, 40)), s)
    assert members_below(got, 60) == {5, 9} | set(range(2, 41))
    assert pre_cycle_star(cycle(0, 6, Clause(2, 40)), s).equal(s)


def test_cycle_star_growth_doubling():
    # n -> 2n under guard >= 1; predecessors of {8} are 1, 2, 4 or 8 itself
    got = pre_cycle_star(cycle(2, 0, Clause(1, None)), singleton(8))
    assert members_below(got, 100) == {1, 2, 4, 8}


def test_cycle_star_growth_orbit_falls_out_of_the_guard():
    # x' = 2x - 20 falls below its fixed point 20: 15 -> 10 -> 0, but 10 is
    # below the guard [12..], so 15 reaches 0 only through an unguarded value
    g = Clause(12, None)
    for s, want in ((singleton(0), {0}), (singleton(10), {10, 15})):
        got = pre_cycle_star(cycle(2, -20, g), s)
        assert members_below(got, 200) == want
        assert_orbits(2, -20, g, s, got)
    # x' = 2x - 21: 16 -> 11 -> 1 leaves the guard at 11, one below its bound,
    # while 20 -> 19 -> 17 -> 13 -> 5 stays inside it until its last turn
    for s, want in ((singleton(1), {1}), (singleton(5), {5, 13, 17, 19, 20}),
                    (semilinear([Clause(1, 5)]), {1, 2, 3, 4, 5, 12, 13, 17, 19, 20})):
        got = pre_cycle_star(cycle(2, -21, g), s)
        assert members_below(got, 200) == want
        assert_orbits(2, -21, g, s, got)


def test_cycle_star_growth_into_residue_class():
    # n -> 2n and the target class is 1 mod 3: doublings alternate a value
    # between residues r and 2r mod 3, so exactly the n != 0 mod 3 qualify
    s = semilinear([Clause(1, None, 3, 1)])
    got = pre_cycle_star(cycle(2, 0, Clause(0, None)), s)
    assert members_below(got, 200) == {n for n in range(201) if n % 3 != 0}
    assert_orbits(2, 0, Clause(0, None), s, got)


def test_cycle_star_translation_with_congruence_guard_break():
    # guard keeps multiples of 4 only, but the step shifts by 2: one turn max
    g = Clause(0, None, 4, 0)
    s = from_values([6, 10, 13])
    got = pre_cycle_star(cycle(1, -2, g), s)
    assert_orbits(1, -2, g, s, got)
    # i = 1 really is the only option: 8 lands on 6, but 16 would need two
    # turns to reach 12 -> 10 and its intermediate 14 is not a guard member
    assert got.member(8) and got.member(12) and not got.member(16)


# --- cycle acceleration: randomized against the orbit oracle -----------------

def check_cycle_case(a: int, b: int, guard: Clause, s: SemilinearSet) -> bool:
    """Check one acceleration against the orbit oracle; True when it handed back s itself."""
    got = pre_cycle_star(cycle(a, b, guard), s)
    assert_orbits(a, b, guard, s, got)
    return got is s


def random_set(rng: random.Random) -> SemilinearSet:
    clauses = []
    for _ in range(rng.randint(1, 3)):
        m = rng.choice([1, 1, 2, 3, 4, 6])
        clauses.append(Clause(rng.randint(0, 50),
                              rng.choice([None, None, rng.randint(10, 90)]),
                              m, rng.randrange(m)))
    return semilinear(clauses)


def random_guard(rng: random.Random, finite: bool | None = None) -> Clause:
    m = rng.choice([1, 1, 2, 3, 4, 6])
    lo = rng.randint(0, 12)
    if finite is None:
        finite = rng.random() < 0.35
    return Clause(lo, lo + rng.randint(0, 40) if finite else None,
                  m, rng.randrange(m))


def test_cycle_star_random_translations():
    rng = random.Random(4102)
    identities = 0
    for _ in range(250):
        b = rng.choice([x for x in range(-12, 13) if x != 0])
        identities += check_cycle_case(1, b, random_guard(rng), random_set(rng))
    # the identity return is exercised, not only allowed
    assert identities > 0
    # Larger sets whose moduli (and the guard's) divide the step, so that
    # several clauses land in one residue class of the step.
    rng = random.Random(4119)
    for _ in range(150):
        b = rng.choice([x for x in range(-12, 13) if x != 0])
        divisors = [d for d in range(1, abs(b) + 1) if b % d == 0]
        clauses = []
        for _ in range(rng.randint(4, 8)):
            m, lo = rng.choice(divisors), rng.randint(0, 60)
            clauses.append(Clause(lo, rng.choice([None, rng.randint(lo, 100)]),
                                  m, rng.randrange(m)))
        gm = rng.choice(divisors)
        guard = Clause(rng.randint(0, 12), None, gm, rng.randrange(gm))
        check_cycle_case(1, b, guard, semilinear(clauses))


def assert_one_clause_per_class(got: SemilinearSet, b: int, guard: Clause) -> None:
    """The shape of a translation whose step the guard's modulus divides: one
    clause of modulus |b| per residue class mod |b|, each inside the guard's classes."""
    classes = [c.residue for c in got.clauses]
    assert all(c.modulus == abs(b) for c in got.clauses), got
    assert sorted(classes) == sorted(set(classes)), got
    assert set(classes) <= set(range(guard.residue, abs(b), guard.modulus)), got


def test_cycle_star_translation_gives_one_clause_per_residue_class():
    # several clauses of s share the class 4 mod 6; the guard's modulus 3
    # divides the step, so both directions take the accelerated branch
    guard = Clause(2, None, 3, 1)
    for s in (semilinear([Clause(10, 20, 6, 4), Clause(30, 40, 6, 4), Clause(64, 70, 2, 0),
                          Clause(7, 9), Clause(45, 58, 3, 1)]),
              semilinear([Clause(10, 20, 6, 4), Clause(30, 40, 6, 4), Clause(55, None, 6, 4),
                          Clause(7, 9), Clause(25, None, 2, 1)])):
        for b in (-6, 6):
            assert_one_clause_per_class(_cycle_pre_translation(b, guard, s), b, guard)
            check_cycle_case(1, b, guard, s)


def test_cycle_star_translation_with_steps_up_to_40_matches_the_orbit_oracle():
    # both signs of the step up to 40, guard moduli that do and do not divide
    # it, bounded and unbounded clauses, and clause moduli that divide the
    # step, are multiples of it, or neither
    rng = random.Random(4120)
    for _ in range(1500):
        b = rng.choice([x for x in range(-40, 41) if x != 0])
        divisors = [d for d in range(1, abs(b) + 1) if b % d == 0]
        gm = rng.choice(divisors) if rng.random() < 0.8 else rng.randint(1, 9)
        guard = Clause(rng.randint(0, 60), None, gm, rng.randrange(gm))
        clauses = []
        for _ in range(rng.randint(1, 10)):
            m = rng.choice([rng.choice(divisors), abs(b) * rng.randint(1, 3), rng.randint(1, 30)])
            lo = rng.randint(0, 200)
            clauses.append(Clause(lo, rng.choice([None, lo + rng.randint(-5, 300)]),
                                  m, rng.randrange(m)))
        s = semilinear(clauses)
        got = _cycle_pre_translation(b, guard, s)
        if b % gm == 0:
            assert_one_clause_per_class(got, b, guard)
        assert_orbits(1, b, guard, s, s.union(got))


def test_cycle_star_translation_cap_counts_one_clause_walk(monkeypatch):
    # the cap bounds each clause's walk, never longer than the step, so a
    # step within the cap is accelerated whatever the number of clauses
    monkeypatch.setattr(prestar, "GUARD_ENUM_CAP", 10)
    guard = Clause(0, None)
    s = semilinear([Clause(0, None, 3, 0), Clause(4, None, 3, 1), Clause(8, 40, 3, 2)])
    for b in (-10, 10):  # three walks of 10 turns
        got = _cycle_pre_translation(b, guard, s)
        assert_one_clause_per_class(got, b, guard)
        assert_orbits(1, b, guard, s, s.union(got))
    with pytest.raises(BudgetExceededError, match="a clause walk of 11 class turns"):
        _cycle_pre_translation(-11, guard, s)


def test_cycle_star_random_growth():
    rng = random.Random(4103)
    for _ in range(200):
        a = rng.choice([2, 3])
        b = rng.randint(-15, 15)
        check_cycle_case(a, b, random_guard(rng), random_set(rng))
    # Wider draws: clause bounds up to 900 and moduli up to 12.  A period
    # (the lcm of the guard's modulus and those of the unbounded clauses)
    # past the class modulus cap must raise.
    rng = random.Random(4107)
    for i in range(300):
        a = rng.randint(2, 5)
        b = rng.randint(-40, 40)
        guard = random_guard(rng)
        clauses = []
        for _ in range(rng.randint(1, 4)):
            m, lo = rng.randint(1, 12), rng.randint(0, 200)
            clauses.append(Clause(lo, rng.choice([None, rng.randint(lo, 900)]), m, rng.randrange(m)))
        s = semilinear(clauses)
        period = math.lcm(guard.modulus, *(c.modulus for c in s.clauses if c.hi is None))
        if guard.hi is None and period > CLASS_MODULUS_CAP:
            with pytest.raises(BudgetExceededError):
                pre_cycle_star(cycle(a, b, guard), s)
            continue
        check_cycle_case(a, b, guard, s)
        if i % 3 == 0:
            rng.randint(1, 60)  # a draw of the family's, kept so the later draws stay the same


def test_cycle_star_growth_with_a_long_period():
    # period 503: the bounded clause is live for the walk's first eight turns
    # only, and a hit on 7 mod 503 can take hundreds of turns
    s = semilinear([Clause(0, 1000), Clause(3, None, 503, 7)])
    assert_orbits(2, 1, Clause(0, None), s, pre_cycle_star(cycle(2, 1, Clause(0, None)), s))


def test_cycle_star_growth_over_far_apart_bounded_clauses():
    # bounded clauses whose members lie up to 60,000 apart are hit by
    # preimages and add nothing to the residue period, so every draw answers
    rng = random.Random(4121)
    for _ in range(30):
        a, b = rng.randint(2, 5), rng.randint(-60, 40)
        clauses = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                m, lo = rng.randint(1, 60_000), rng.randint(0, 200)
                clauses.append(Clause(lo, lo + m * rng.randint(0, 3), m, lo))
            else:
                m = rng.randint(1, 12)
                clauses.append(Clause(rng.randint(0, 200), None, m, rng.randrange(m)))
        check_cycle_case(a, b, random_guard(rng, finite=False), semilinear(clauses))


def test_cycle_star_growth_under_unbounded_guards_matches_the_orbit_oracle():
    # clause bounds up to 900 and moduli up to 12, every one of them a
    # divisor of 12, under unbounded guards
    rng = random.Random(4122)
    for _ in range(1500):
        a, b = rng.randint(2, 5), rng.randint(-40, 40)
        gm = rng.choice([1, 1, 2, 3, 4, 6])
        guard = Clause(rng.randint(0, 12), None, gm, rng.randrange(gm))
        clauses = []
        for _ in range(rng.randint(1, 4)):
            m, lo = rng.choice([1, 2, 3, 4, 6, 12]), rng.randint(0, 200)
            clauses.append(Clause(lo, rng.choice([None, rng.randint(lo, 900)]),
                                  m, rng.randrange(m)))
        s = semilinear(clauses)
        assert_orbits(a, b, guard, s, s.union(prestar._cycle_pre_growth(a, b, guard, s)))


def growth_draws(rng: random.Random, count: int, b_range: tuple[int, int], guard_lo: int,
                 moduli: int, bound: int):
    """``count`` draws of a slope in 2..9, a step in ``b_range``, an unbounded
    guard with lo up to ``guard_lo`` and a set of one to four clauses (lo up
    to 2,000, moduli up to ``moduli``, a finite hi up to ``bound``).  A draw
    is skipped when the lcm of the guard's modulus and the unbounded clauses'
    moduli is past 2,000; the filter is part of the seeded families that
    draw from here, and without it every later draw would move."""
    while count:
        a, b = rng.randint(2, 9), rng.randint(*b_range)
        gm = rng.choice([1, 1, 2, 3, 4, 6])
        guard = Clause(rng.randint(0, guard_lo), None, gm, rng.randrange(gm))
        clauses = []
        for _ in range(rng.randint(1, 4)):
            m, lo = rng.randint(1, moduli), rng.randint(0, 2000)
            clauses.append(Clause(lo, rng.choice([None, rng.randint(lo, bound)]),
                                  m, rng.randrange(m)))
        s = semilinear(clauses)
        if math.lcm(gm, *(c.modulus for c in s.clauses if c.hi is None)) <= 2000:
            count -= 1
            yield a, b, guard, s


def test_growth_with_moduli_up_to_60_matches_the_orbit_oracle():
    # slopes up to 9 on draws with moduli up to 60 and bounds up to 5,000
    for a, b, guard, s in growth_draws(random.Random(4123), 300, (-60, 60), 12, 60, 5000):
        assert_orbits(a, b, guard, s, s.union(prestar._cycle_pre_growth(a, b, guard, s)))


def test_growth_wide_low_regions_match_the_orbit_oracle():
    # fixed points up to 150,000 above the guard's bound: the oracle walks
    # every start below them, the preimage walk about log_a of the distance
    for a, b, guard, s in growth_draws(random.Random(4124), 100, (-150_000, 0), 2000, 12, 200_000):
        assert_orbits(a, b, guard, s, s.union(prestar._cycle_pre_growth(a, b, guard, s)))


def test_growth_tail_walk_is_bounded_by_the_period(monkeypatch):
    # x' = 2x + 1 with an unbounded clause of modulus 19,997, just under
    # CLASS_MODULUS_CAP: one walk of at most about `period` turns, each
    # taking one preimage per live clause (the bounded one for eight turns)
    period = 19_997
    calls = 0

    def counted(alpha: int, beta: int, c: Clause) -> Clause:
        nonlocal calls
        calls += 1
        return _affine_preimage_clause(alpha, beta, c)

    monkeypatch.setattr(prestar, "_affine_preimage_clause", counted)
    s = semilinear([Clause(0, 1000), Clause(3, None, period, 7)])
    got = pre_cycle_star(cycle(2, 1, Clause(0, None)), s)
    assert calls <= period + 64
    assert_orbits(2, 1, Clause(0, None), s, got)


def test_cycle_star_random_finite_guards():
    rng = random.Random(4104)
    for _ in range(200):
        a = rng.randint(-5, 5)
        b = rng.randint(-15, 15)
        check_cycle_case(a, b, random_guard(rng, finite=True), random_set(rng))


def test_cycle_star_random_constant_and_reflection():
    rng = random.Random(4105)
    for _ in range(150):
        a = rng.choice([0, -1, -2])
        b = rng.randint(0, 25)
        check_cycle_case(a, b, random_guard(rng), random_set(rng))


def test_cycle_star_finite_guard_is_not_walked_start_by_start():
    # the reflection x' = -x + 10^6 keeps the guard [0..10^6], five times
    # GUARD_ENUM_CAP; two turns are the identity, so the answer is the
    # target and its one-turn preimage, found without listing the guard
    reflect = AffineMap1(-1, 1_000_000)
    tracemalloc.start()
    try:
        got = pre_cycle_star(cycle(-1, 1_000_000, domain_clause(reflect)), singleton(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.values(2_000_000) == [5, 999_995]
    assert peak < 1_000_000
    m = Machine("big", 1, ("q",), (Transition("q", "q", reflect),))
    got = compute_pre_star(m, Configuration("q", (5,))).sets["q"]
    assert got.clauses == (Clause(5, 999_995, 999_990, 5),)


def test_cycle_star_finite_guards_and_negative_slopes_match_the_orbit_oracle():
    # finite guards of every slope, and negative slopes under any guard
    rng = random.Random(4130)
    for _ in range(2000):
        a, b = rng.randint(-5, 5), rng.randint(-60, 60)
        m = rng.choice([1, 1, 2, 3, 4, 6])
        lo = rng.randint(0, 100)
        finite = a >= 0 or rng.random() < 0.8
        guard = Clause(lo, lo + rng.randint(0, 400) if finite else None, m, rng.randrange(m))
        clauses = []
        for _ in range(rng.randint(1, 6)):
            k = rng.randint(1, 12)
            c_lo = rng.randint(0, 150)
            clauses.append(Clause(c_lo, rng.choice([None, c_lo + rng.randint(0, 200)]),
                                  k, rng.randrange(k)))
        check_cycle_case(a, b, guard, semilinear(clauses))


def test_orbit_oracle_rejects_wrong_answers():
    # three wrong engines, each rejected on some draw while the engine itself
    # passes every one: the result's last clause dropped, a finite guard
    # taken as unbounded, and the guard's lo one too high
    rng = random.Random(4131)
    rejected = {"dropped": 0, "unbounded": 0, "lo + 1": 0}
    for _ in range(300):
        a, b = rng.randint(-5, 5), rng.randint(-15, 15)
        g, s = random_guard(rng), random_set(rng)
        lo, hi, gm, gr = g
        got = pre_cycle_star(cycle(a, b, g), s)
        assert_orbits(a, b, g, s, got)
        for name, r in (("dropped", semilinear(got.clauses[:-1])),
                        ("unbounded", pre_cycle_star(cycle(a, b, Clause(lo, None, gm, gr)), s)),
                        ("lo + 1", pre_cycle_star(cycle(a, b, Clause(lo + 1, hi, gm, gr)), s))):
            rejected[name] += orbit_mismatch(a, b, g, s, r) is not None
    assert all(rejected.values()), rejected


def test_cycle_star_growth_reads_no_period_without_an_unbounded_clause():
    # the guard's modulus 30,000 is past CLASS_MODULUS_CAP, but {3} has no
    # unbounded clause, so the walk ends before it would read the period
    got = pre_cycle_star(cycle(2, 1, Clause(1, None, 30_000, 1)), singleton(3))
    assert got.normalized().clauses == (Clause(1, 3, 2, 1),)


def test_cycle_star_growth_low_region_is_walked_by_preimages():
    # x' = 2x - b has its fixed point at b; the guarded starts below it fall
    # out of the guard within about log2(b) turns, and none is listed or
    # walked on its own
    m = Machine("low", 1, ("q",), (Transition("q", "q", AffineMap1(2, -10 ** 9)),))
    tracemalloc.start()
    try:
        got = compute_pre_star(m, Configuration("q", (5,))).sets["q"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == singleton(5)
    assert peak < 1_000_000
    small = AffineMap1(2, -10 ** 5)
    m = Machine("low", 1, ("q",), (Transition("q", "q", small),))
    assert compute_pre_star(m, Configuration("q", (5,))).sets["q"] == singleton(5)
    got = pre_cycle_star(cycle(2, -10 ** 5, domain_clause(small)), singleton(6))
    assert got.values(10 ** 6) == [6, 50_003]


def test_pre_star_growth_cycle_over_two_far_apart_values():
    # the minimal form of {6, 50003} is one progression of modulus 49,997,
    # past CLASS_MODULUS_CAP; a bounded clause sets no growth period
    m = Machine("far", 1, ("q",), (Transition("q", "q", AffineMap1(2, -100_000)),))
    got = compute_pre_star(m, Configuration("q", (6,))).sets["q"]
    assert got.clauses == (Clause(6, 50_003, 49_997, 6),)
    assert got.values(10 ** 6) == [6, 50_003]


def test_cycle_star_growth_modulus_over_budget():
    # the 2x + 1 loop reads the set built by the -20011 loop, whose modulus
    # is past CLASS_MODULUS_CAP
    m = Machine("mod", 1, ("q",), (Transition("q", "q", AffineMap1(1, -20011)),
                                   Transition("q", "q", AffineMap1(2, 1))))
    with pytest.raises(BudgetExceededError,
                       match="growth-cycle residue analysis modulus 20011 over budget"):
        compute_pre_star(m, Configuration("q", (5,)))


# --- the fixpoint ------------------------------------------------------------

def test_pre_star_m1_to_q1_19_exact_sets():
    # Hand-certified fixpoint.  Closure spot checks: 13 at q2 goes
    # 13 -> (q1,13) -> (q2,0) -> (q1,0) -> reflect to 19; 26 at q1 drops by 13
    # onto that; 39 at q1 drops onto 26 at q2.  9 and 12 at q1 are dead ends.
    res = compute_pre_star(m1(), Configuration("q1", (19,)))
    assert res.set_for("q1").equal(semilinear([
        Clause(0, 0), Clause(3, 3), Clause(6, 6),
        Clause(13, None, 3, 1), Clause(26, None, 3, 2), Clause(39, None, 3, 0),
    ]))
    assert res.set_for("q2").equal(semilinear([
        Clause(0, None, 3, 0), Clause(13, None, 3, 1), Clause(26, None, 3, 2),
    ]))
    assert res.sweeps >= 2


def test_pre_star_m1_sets_are_stored_minimal():
    # The one-clause-per-residue form of these sets has 51 and 48 clauses.
    res = compute_pre_star(m1(), Configuration("q1", (19,)))
    assert [len(res.set_for(q).clauses) for q in ("q1", "q2")] == [7, 6]
    up = compute_pre_star_upward(m1(), UpwardTarget(Configuration("q1", (19,))))
    for s in (*res.sets.values(), *up.sets.values()):
        assert s == s.normalized()


def test_pre_star_m1_matches_bounded_backward_everywhere_below_100():
    # M1 cannot climb: every value reachable from n stays below max(n, 19),
    # so the bounded backward closure below 100 is the exact answer there
    res = compute_pre_star(m1(), Configuration("q1", (19,)))
    bounded = pre_star_bounded(m1(), Configuration("q1", (19,)),
                               Budget(max_value=100))
    got = bounded.states_to_values()
    for q in ("q1", "q2"):
        assert res.set_for(q).values(100) == got.get(q, [])


def test_pre_star_upward_m1_matches_bounded():
    target = UpwardTarget(Configuration("q1", (19,)))
    res = compute_pre_star_upward(m1(), target)
    bounded = pre_star_bounded(m1(), target, Budget(max_value=100))
    got = bounded.states_to_values()
    for q in ("q1", "q2"):
        assert res.set_for(q).values(100) == got.get(q, [])
    # the classic well-structure counterexample: nothing below 19 except the
    # reflection pair around it
    assert res.set_for("q1").member(0)
    assert not res.set_for("q1").member(1)


def test_pre_star_result_is_closed_under_preimages():
    m = m1()
    res = compute_pre_star(m, Configuration("q1", (19,)))
    for t in m.transitions:
        assert pre_transition(t.payload, res.set_for(t.target)).subset(
            res.set_for(t.source))
    for cyc in enumerate_simple_cycles(m):
        assert pre_cycle_star(cyc, res.set_for(cyc.root)).equal(
            res.set_for(cyc.root))


def ring(n: int) -> Machine:
    states = tuple(f"r{i}" for i in range(n))
    return Machine(f"ring{n}", 1, states, tuple(
        Transition(p, q, AffineMap1(1, 1)) for p, q in zip(states, states[1:] + states[:1])))


def test_pre_star_on_long_rings():
    # one simple cycle, rooted at r0 only: the walk stores one path summary per
    # state, far below the cycle cap (one root per state would store n * n)
    for n in (317, 900):
        res = compute_pre_star(ring(n), Configuration("r0", (5,)))
        expected = {"r0": 5} | {f"r{n - k}": 5 - k for k in range(1, 6)}
        for q in res.machine.states:
            want = singleton(expected[q]) if q in expected else EMPTY
            assert res.set_for(q).equal(want), (n, q)


def test_pre_star_update_cap():
    # r0:2300 needs one update per state plus one more for r0, so a cap of
    # one update per state is one short
    m, target = ring(1100), Configuration("r0", (2300,))
    with pytest.raises(BudgetExceededError, match="after 1100 state updates"):
        compute_pre_star(m, target, max_sweeps=1)
    res = compute_pre_star(m, target)
    assert res.sweeps == 1101
    assert res.set_for("r0").equal(from_values([100, 1200, 2300]))


def test_pre_star_hands_cycles_minimal_sets(monkeypatch):
    # each acceleration's result is rebuilt before the next cycle reads it;
    # without that, the largest results on K5 and K6 have 112 and 174 clauses
    sizes = []

    def counted(cyc, s):
        got = pre_cycle_star(cyc, s)
        sizes.append(len(got.clauses))
        return got

    monkeypatch.setattr(prestar, "pre_cycle_star", counted)
    for n in (5, 6):
        sizes.clear()
        compute_pre_star(k_n(n), Configuration("q0", (5,)))
        assert 0 < max(sizes) <= 24, (n, max(sizes))


def test_pre_star_never_recomputes_states_that_cannot_reach_the_target(monkeypatch):
    r = ring(1000)
    m = Machine("loop_and_ring", 1, ("t",) + r.states,
                (Transition("t", "t", AffineMap1(1, 1)),) + r.transitions)
    calls = []
    monkeypatch.setattr(prestar, "pre_transition",
                        lambda p, s: calls.append(p) or pre_transition(p, s))
    res = compute_pre_star(m, Configuration("t", (5,)))
    assert res.set_for("t").equal(interval(0, 5))
    assert all(res.set_for(q).is_empty for q in r.states)
    # only t is recomputed, once per update, through its self-loop
    assert res.sweeps <= 2 and len(calls) == res.sweeps


def random_machine(rng: random.Random) -> Machine:
    n_states = rng.randint(1, 3)
    states = tuple(f"q{i}" for i in range(n_states))
    trans = []
    for _ in range(rng.randint(1, 5)):
        src = rng.choice(states)
        tgt = rng.choice(states)
        a = rng.randint(-2, 2)
        b = rng.randint(-8, 8)
        guard = None
        if rng.random() < 0.25:
            gm = rng.choice([1, 2, 3])
            guard = Clause(rng.randint(0, 6), rng.choice([None, rng.randint(6, 30)]),
                           gm, rng.randrange(gm))
        trans.append(Transition(src, tgt, AffineMap1(a, b, guard)))
    return Machine("rnd", 1, states, tuple(trans), initial=states[0])


def check_against_bounded_explorer(m: Machine, target: Configuration, low: int = 25,
                                   max_value: int = 6000) -> PreStarResult | None:
    """Differential checks of one pre*, which is returned, or None when it runs out of budget.

    The seed is in the target's set; every set is closed under the preimage
    of every transition (which makes it hold all of pre*, whatever cycles
    were accelerated); everything the bounded explorer reaches backward in
    the window is claimed; and each claimed value up to ``low`` has a run,
    through counter values up to ``max_value``, that ``machine.apply``
    replays into the target.
    """
    try:
        res = compute_pre_star(m, target)
    except BudgetExceededError:
        return None  # acceptance tracks budget blowups; here we skip
    assert res.set_for(target.state).member(target.counter), m
    for s in res.sets.values():
        assert s == s.normalized(), m

    # closure: one more application of any preimage adds nothing
    for t in m.transitions:
        assert pre_transition(t.payload, res.set_for(t.target)).subset(
            res.set_for(t.source)), m
    for cyc in enumerate_simple_cycles(m):
        assert pre_cycle_star(cyc, res.set_for(cyc.root)).equal(
            res.set_for(cyc.root)), m

    # everything the bounded explorer can reach backward is claimed
    bounded = pre_star_bounded(m, target, Budget(max_value=60))
    for c in bounded.configs:
        assert res.set_for(c.state).member(c.counter), (m, c)

    # and each claimed low value really has a witness path
    for q in m.states:
        for n in res.set_for(q).values(low):
            start = Configuration(q, (n,))
            steps, _ = find_path(m, start, target, Budget(max_value=600))
            if steps is None:
                steps, _ = find_path(m, start, target, Budget(max_value=max_value))
            assert steps is not None, (m, q, n)
            cur = start
            for t, after in steps:
                cur = apply(m, t, cur)
                assert cur == after, (m, q, n)
            assert cur == target, (m, q, n)
    return res


def test_pre_star_random_machines_against_bounded_explorer():
    rng = random.Random(4106)
    checked = 0
    for _ in range(40):
        m = random_machine(rng)
        target = Configuration(rng.choice(m.states), (rng.randint(0, 8),))
        checked += check_against_bounded_explorer(m, target) is not None
    assert checked >= 25


def test_pre_star_guarded_and_complete_machines_against_bounded_explorer():
    rng = random.Random(4109)
    cases = []
    for _ in range(200):
        m = guarded_machine(rng)
        cases.append((m, Configuration(rng.choice(m.states), (rng.randint(0, 8),))))
    # K3 draws like the dense benchmark corpus, K4 to K7
    for m in [k_n(3, seed) for seed in range(8)] + [k_n(n) for n in range(4, 8)]:
        cases += [(m, Configuration("q0", (v,))) for v in (0, 5)]
    assert all([check_against_bounded_explorer(m, target) is not None for m, target in cases])


def test_pre_star_long_translation_beside_a_growth_cycle():
    # the fixpoint hands the -16384 self loop a set of 29,266 clauses, and
    # canonicalizes sets of up to 45,650 clauses on the way
    m = Machine("long", 1, ("q", "p"), (
        Transition("q", "q", AffineMap1(1, -16384)),
        Transition("q", "q", AffineMap1(2, 1)),
        Transition("q", "p", AffineMap1(1, 0)),
        Transition("p", "q", AffineMap1(1, -7)),
    ))
    # runs to q:5 from values that are 0, 1 or 3 mod 7 pass 16,389 on the way
    res = check_against_bounded_explorer(m, Configuration("q", (5,)), low=9, max_value=30000)
    assert res.sets == {"q": interval(0, None), "p": interval(7, None)}


# --- the comparison corpus, pinned by a digest -------------------------------

def comparison_corpus():
    """Every state of the 150 machines of the benchmark's ``sparse`` corpus
    with targets 0, 5 and the machine's own target value, and q0 of its 20
    ``dense`` K3s with 0 and 5: the same seeded draws, with states q0, q1, ..."""
    for i in range(150):
        rng = random.Random(f"sparse-{i}")
        n = rng.randint(1, 4)
        trans = [(rng.randrange(n), rng.randrange(n), rng.randint(-3, 3), rng.randint(-20, 20))
                 for _ in range(rng.randint(1, 6))]
        rng.randrange(n), rng.randint(0, 20), rng.randrange(n)  # the source, the target's state
        value = rng.randint(0, 20)
        m = Machine(f"r{i}", 1, tuple(f"q{k}" for k in range(n)), tuple(
            Transition(f"q{u}", f"q{v}", AffineMap1(a, b)) for u, v, a, b in trans))
        yield from ((m, Configuration(q, (v,))) for q in m.states for v in (0, 5, value))
    for i in range(20):
        rng = random.Random(f"dense-{i}")
        m = Machine(f"k3_{i}", 1, ("q0", "q1", "q2"), tuple(
            Transition(f"q{u}", f"q{v}", AffineMap1(1, rng.choice((-3, -2, -1, 1, 2))))
            for u in range(3) for v in range(3) if u != v))
        yield from ((m, Configuration("q0", (v,))) for v in (0, 5))


def test_comparison_corpus_answers_are_pinned():
    # the sets, state updates and budget exits of compute_pre_star and
    # compute_pre_star_upward on 1,111 targets, as one digest: a change to the
    # engine that keeps every answer keeps it.  A second digest leaves out the
    # state updates, so a change that only reorders or skips work keeps that one
    lines, answers = [], []
    for m, target in comparison_corpus():
        for run, goal in ((compute_pre_star, target),
                          (compute_pre_star_upward, UpwardTarget(target))):
            head = f"{m.name} {target.render()} {run.__name__} "
            try:
                res = run(m, goal)
                answer = " ".join(f"{q}: {res.sets[q].render()}" for q in m.states)
                lines.append(f"{head}{res.sweeps} {answer}")
            except BudgetExceededError as e:
                answer = f"error: {e}"
                lines.append(head + answer)
            answers.append(head + answer)
    assert len(lines) == 2222
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "b12b9d68909fcbd526b8074ed1a57b1ca1c471e97097b618dcd75b242c97efe1")
    assert hashlib.sha256("\n".join(answers).encode()).hexdigest() == (
        "d45b25b85e1111d3bce32614214cecba6d2bc001bddbd5c4b0a1a9a03df8d31f")


# --- answers invariant under rewrites that keep the machine -------------------

def rewrite_corpus(seed: int, count: int):
    """Seeded machines and targets: 1-5 states, up to 3n transitions, a in
    -2..3, b in -15..15, a fifth of the transitions guarded, and an exact or
    an upward target."""
    rng = random.Random(seed)
    for i in range(count):
        states = tuple(f"q{k}" for k in range(rng.randint(1, 5)))
        trans = tuple(
            Transition(rng.choice(states), rng.choice(states), AffineMap1(
                rng.randint(-2, 3), rng.randint(-15, 15),
                random_guard(rng) if rng.random() < 0.2 else None))
            for _ in range(rng.randint(1, 3 * len(states))))
        target = Configuration(rng.choice(states), (rng.randint(0, 20),))
        yield (Machine(f"mt{i}", 1, states, trans, initial=states[0]),
               UpwardTarget(target) if rng.random() < 0.5 else target)


def same_machine_rewrites(m: Machine, rng: random.Random) -> list[Machine]:
    """Five rewrites that keep every run between m's own states: shuffled
    declarations, a duplicated transition, an unreachable state, an identity
    self loop, and a transition split through a fresh state by an identity step."""
    states, trans, ident = m.states, m.transitions, AffineMap1(1, 0)
    i = rng.randrange(len(trans))
    t = trans[i]
    split = (Transition(t.source, "mid", t.payload), Transition("mid", t.target, ident))
    stray = Transition("u", rng.choice(states), AffineMap1(rng.randint(-2, 3), rng.randint(-15, 15)))
    loop_at = rng.choice(states)
    return [Machine(m.name, 1, *parts, initial=m.initial) for parts in (
        (tuple(rng.sample(states, len(states))), tuple(rng.sample(trans, len(trans)))),
        (states, trans[:i] + (t,) + trans[i:]),
        (states + ("u",), trans + (stray,)),
        (states, trans + (Transition(loop_at, loop_at, ident),)),
        (states + ("mid",), trans[:i] + split + trans[i + 1:]),
    )]


def check_rewrites_keep_answers(seed: int, count: int) -> int:
    """Compare each corpus machine's sets on its own states with those of its
    five rewrites; ``sweeps`` may differ.  Returns the number of comparisons."""
    rng = random.Random(seed + 1)
    compared = 0
    for m, target in rewrite_corpus(seed, count):
        pre = compute_pre_star_upward if isinstance(target, UpwardTarget) else compute_pre_star
        want = {q: s.clauses for q, s in pre(m, target).sets.items()}
        for rewritten in same_machine_rewrites(m, rng):
            got = pre(rewritten, target).sets
            assert {q: got[q].clauses for q in m.states} == want, (m, rewritten, target)
            compared += 1
    return compared


def test_pre_star_answers_do_not_depend_on_how_the_machine_is_written():
    assert check_rewrites_keep_answers(1717, 600) == 3000


def test_pre_star_needs_affine_single_counter():
    from avasskit.machine import MinskyOp
    m = Machine("m", 1, ("a",), (Transition("a", "a", MinskyOp("inc", 1)),))
    with pytest.raises(FlavorError):
        compute_pre_star(m, Configuration("a", (0,)))
