"""Exact backward reachability for single-counter affine machines.

``compute_pre_star`` returns, per control state, the exact semilinear set of
counter values from which a target configuration is reachable.  The fixpoint
recomputes one state at a time from two exact operations until nothing changes:

* :func:`pre_transition` — the preimage of a semilinear set under one
  transition's affine update: each clause pulls back to one clause, which is
  cut to the transition's domain clause
  (:func:`~avasskit.machine.domain_clause`: where the result is a natural and
  the guard holds);
* :func:`pre_cycle_star` — the predecessors through *any positive number* of
  turns around one simple cycle, in closed form.  The slope ``a`` of the
  cycle's composed update ``n -> a*n + b`` alone decides the shape; the
  entry guard, finite or not, only cuts it.  Translation cycles (a = 1) give
  one clause per residue class of the step, bounded by the least/greatest
  landing element of the set in that class, all found in one pass over the
  set's clauses (a clause of modulus ``m`` meets each of its classes within
  ``|b| / gcd(|b|, m)`` members, at most ``GUARD_ENUM_CAP`` per clause).
  Growth cycles (a >= 2) hit every clause of the set by preimages along one
  walk over the turns, which keeps the clause of starts whose orbit is
  still inside the guard: measured from the fixed point the orbits grow as
  ``a^j``, so within logarithmically many turns the starts below it have
  left the guard and the others are past every bounded clause; from there a
  hit depends only on the turn's update ``(a^j, c_j)`` mod the lcm of the
  guard's modulus and the unbounded clauses' moduli, and the walk stops
  when that key repeats.  Constant cycles (a = 0) collapse to a single
  membership test.  A cycle with a < 0 is taken two turns at a time, as one
  turn of ``a^2*n + (a+1)*b`` (the identity for a = -1, else a growth map)
  under a finite guard, an odd number ending with one guarded turn into the
  set.  No guard is walked start by start.

Every set the fixpoint stores is in the minimal form
(:meth:`~avasskit.semiset.SemilinearSet.normalized`), ready to print, and so
is every set it hands to a cycle after the state's first one: each
acceleration's result is rebuilt before the next, so the clause lists the
accelerations walk stay as short as the sets they denote.  An acceleration
whose every new clause lies inside one clause of its input adds no member
and hands back the input itself; after the state's first cycle that input
is minimal and so its own minimal form, and only sets that grew are
rebuilt.  Rebuilding keeps
the members, and an acceleration's result depends only on the members of its
input, so every set the fixpoint computes is the same without it.  Only the
growth period, read off the moduli of the unbounded clauses, can differ, and
with it whether ``CLASS_MODULUS_CAP`` is passed.

Cycles enter the fixpoint as summaries, not as paths, and each simple cycle
is accelerated at one state only: its least state in declaration order, the
root Johnson's circuit enumeration gives it (one cut point per cycle, as in
Bourdoncle's chaotic iteration).  :func:`pre_cycle_star` reads only a cycle's
composed update and entry guard, so the cycles rooted at one state that agree
on ``(meta, guard)`` are one operator on that state's set: one call per
distinct ``(root, meta, guard)``.  ``cycle_cap`` bounds the path summaries
that :func:`enumerate_simple_cycles` stores, over all roots.

One first-in, first-out worklist drives the fixpoint (Bourdoncle's chaotic
iteration): it starts with the target's state and the sources of the
transitions into it, and a state whose set changes queues the sources of the
transitions into it.  Every acceleration adds only true predecessors, and the
worklist empties only when each state was recomputed after its successors
last changed, so each set is closed under :func:`pre_transition` of every
outgoing transition and holds all of pre* (a state never queued has only
empty successors).  So neither the cycles chosen nor the order change the
answer, only the number of state updates.  Acceleration makes the worklist
empty at all, as preimages alone would descend an unbounded chain; a cap on
state updates turns divergence into BudgetExceededError, never a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .errors import BudgetExceededError, FlavorError
from .machine import (
    AffineMap1,
    Configuration,
    Machine,
    UpwardTarget,
    domain_clause,
)
from .semiset import (
    EMPTY,
    EMPTY_CLAUSE,
    Clause,
    SemilinearSet,
    _cdiv,
    clause_within,
    intersect_clauses,
    interval,
    semilinear,
    singleton,
)


# --------------------------------------------------------------------------
# preimages of single transitions


def _affine_preimage_clause(alpha: int, beta: int, c: Clause) -> Clause:
    """{n >= 0 : alpha*n + beta is a member of the clause}, as one clause."""
    c_lo, c_hi, modulus, residue = c
    if c_hi is not None and c_hi < c_lo:
        return EMPTY_CLAUSE
    if alpha == 0:
        return Clause(0, None) if c.member(beta) else EMPTY_CLAUSE
    if alpha > 0:
        lo = _cdiv(c_lo - beta, alpha)
        hi = (c_hi - beta) // alpha if c_hi is not None else None
        rhs = residue - beta
        mul = alpha
    else:
        k = -alpha
        lo = _cdiv(beta - c_hi, k) if c_hi is not None else 0
        hi = (beta - c_lo) // k
        rhs = beta - residue
        mul = k
    g = math.gcd(mul, modulus)
    if rhs % g != 0:
        return EMPTY_CLAUSE
    m2 = modulus // g
    if m2 == 1:
        return Clause(max(lo, 0), hi, 1, 0)
    n0 = (rhs // g * pow(mul // g, -1, m2)) % m2
    return Clause(max(lo, 0), hi, m2, n0)


def pre_transition(p: AffineMap1, s: SemilinearSet) -> SemilinearSet:
    """Exact one-step preimage: {n in the payload's domain : a*n + b in s}."""
    dom = domain_clause(p)
    return semilinear(intersect_clauses(_affine_preimage_clause(p.a, p.b, c), dom)
                      for c in s.clauses)


# --------------------------------------------------------------------------
# simple cycles


@dataclass(frozen=True)
class SimpleCycle:
    """The simple cycles rooted at ``root`` that share one full turn's update and guard.

    ``meta`` is the composed affine update of one full turn; ``guard`` is the
    single clause of entry values from which the whole turn can be taken (the
    intersection of every step's domain and user guard, pulled back through
    the prefix maps).  ``root`` is the cycle's least state in the machine's
    declaration order; the turns that start at its other states are not listed.
    """

    root: str
    meta: AffineMap1
    guard: Clause


DEFAULT_CYCLE_CAP = 100_000

_Summary = tuple[int, int, Clause]  # (a, b, guard) of a path, as in SimpleCycle


def enumerate_simple_cycles(m: Machine, cap: int = DEFAULT_CYCLE_CAP) -> list[SimpleCycle]:
    """One summary per distinct (root, meta, guard) of a simple cycle, nonempty guards only.

    Each simple cycle is rooted at its least state in ``m.states`` order.  One
    memoized walk per root, through the states declared after it that can
    reach it again without passing an earlier state.  Deterministic order:
    roots in state declaration order, then the order in which a depth-first
    walk over transitions in declaration order first meets each summary.
    The walk keeps its own stack, so a path may be longer than the recursion
    limit.  Raises BudgetExceededError past ``cap`` stored path summaries (the
    summaries of the suffix paths the walks memoize, over all roots).
    """
    if m.flavor != "affine1":
        raise FlavorError("cycle analysis is for 1-dim affine machines")
    stored = 0
    out: list[SimpleCycle] = []
    earlier: set[str] = set()
    for root in m.states:
        returns = {root}
        todo = [root]
        while todo:
            for t in m.transitions_to(todo.pop()):
                if t.source not in returns and t.source not in earlier:
                    returns.add(t.source)
                    todo.append(t.source)
        # memo[(state, visited)]: the (a, b, guard) of every simple path from
        # state back to root that avoids visited.  A frame (key, i) resumes at
        # transition i out of its state; a transition into an unwalked suffix
        # pushes the frame back, then the suffix's, and is met again once
        # that suffix is done.
        start = (root, frozenset([root]))
        memo: dict[tuple[str, frozenset[str]], dict[_Summary, None]] = {start: {}}
        stack = [(start, 0)]
        while stack:
            key, i = stack.pop()
            state, visited = key
            found = memo[key]
            ts = m.transitions_from(state)
            for i in range(i, len(ts)):
                t = ts[i]
                p = t.payload
                dom = domain_clause(p)
                if dom.is_empty:
                    continue
                if t.target == root:
                    found[(p.a, p.b, dom)] = None
                elif t.target in returns and t.target not in visited:
                    sub = (t.target, visited | {t.target})
                    suffix = memo.get(sub)
                    if suffix is None:
                        memo[sub] = {}
                        stack += [(key, i), (sub, 0)]
                        break
                    for a, b, g in suffix:
                        guard = intersect_clauses(dom, _affine_preimage_clause(p.a, p.b, g))
                        if not guard.is_empty:
                            found[(a * p.a, a * p.b + b, guard)] = None
            else:
                stored += len(found)
                if stored > cap:
                    raise BudgetExceededError(f"more than {cap} cycle path summaries")
        out += [SimpleCycle(root, AffineMap1(a, b), guard) for a, b, guard in memo[start]]
        earlier.add(root)
    return out


# --------------------------------------------------------------------------
# cycle acceleration

GUARD_ENUM_CAP = 200_000
CLASS_MODULUS_CAP = 20_000


def pre_cycle_star(cycle: SimpleCycle, s: SemilinearSet) -> SemilinearSet:
    """s plus all values that reach s through >= 1 full turns of the cycle.

    A value n qualifies when there is i >= 1 with every intermediate value
    n, f(n), …, f^{i-1}(n) inside the guard and f^i(n) in s, where f is the
    cycle's composed update; its slope alone picks the closed form
    (:func:`_cycle_pre`), whether the guard is finite or not.  When each
    clause of the acceleration lies inside one clause of s, nothing is added
    and the result is ``s`` itself (the same object), so a minimal s stays
    minimal at no cost; otherwise it is ``s.union(...)``.
    """
    if cycle.guard.is_empty or s.is_empty:
        return s
    return _join(s, _cycle_pre(cycle.meta.a, cycle.meta.b, cycle.guard, s))


def _cycle_pre(a: int, b: int, g: Clause, s: SemilinearSet) -> SemilinearSet:
    """The values that reach s through >= 1 turns of f(n) = a*n + b inside the guard g."""
    if a < 0:
        # two turns of f are one turn of h(n) = a²n + (a+1)b under
        # g2 = g ∩ f⁻¹(g): 2k turns stay in g iff k turns of h stay in g2, and
        # 2k+1 turns end with one turn of f from g into s, that is, with h^k(n)
        # in `once`; h is the identity for a = -1 and grows under the finite
        # g2 for a <= -2
        once = _pre_once(a, b, g, s)
        g2 = _cut(_affine_preimage_clause(a, b, g), g)
        return once.union(_cycle_pre(a * a, (a + 1) * b, g2, s.union(once)))
    if a == 0:
        return semilinear([g]) if s.member(b) else EMPTY
    if a == 1:
        return _cycle_pre_translation(b, g, s) if b else EMPTY
    return _cycle_pre_growth(a, b, g, s)


def _join(s: SemilinearSet, new: SemilinearSet) -> SemilinearSet:
    """``s ∪ new``, and ``s`` itself when each clause of ``new`` lies inside one of ``s``."""
    held = s.clauses
    if all(any(clause_within(x, c) for c in held) for x in new.clauses):
        return s
    return s.union(new)


def _pre_once(a: int, b: int, g: Clause, s: SemilinearSet) -> SemilinearSet:
    """One guarded turn: {n in g : a*n + b in s}."""
    return semilinear(intersect_clauses(_affine_preimage_clause(a, b, x), g)
                      for x in s.clauses)


def _cut(c: Clause, g: Clause) -> Clause:
    """``c ∩ g``, and ``c`` itself when it lies inside ``g``."""
    return c if clause_within(c, g) else intersect_clauses(c, g)


def _cycle_pre_translation(b: int, g: Clause, s: SemilinearSet) -> SemilinearSet:
    """Acceleration of n -> n + b (b != 0) under the guard g.

    When the guard's modulus divides the step ``beta = |b|``, the result is
    one clause per residue class ``c`` mod ``beta`` that meets the guard: the
    starts of one class land in one class, and the landing values there of
    all clauses of s differ in one bound only, so their union is one clause,
    whose bound is the least landing value (b < 0) or the greatest one
    (b > 0, unbounded once one clause is).  Orbits are monotone, so only the
    first and last guarded values meet the guard's bounds.  One pass over s
    finds the class bounds: a clause, cut to the landing values, has modulus
    ``m``, and any ``beta / gcd(beta, m)`` of its members in a row meet each
    class it meets once.  So the walk from its least member (from its
    greatest for b > 0 and a finite ``hi``) takes
    ``min(members, beta / gcd(beta, m))`` turns, and the pass costs the sum of
    these over s.  A clause whose walk would take more than ``GUARD_ENUM_CAP``
    turns raises BudgetExceededError; a walk is never longer than ``beta``,
    so every step up to the cap is accelerated whatever the set.
    """
    beta = abs(b)
    r, gm, gr = g.lo, g.modulus, g.residue
    if beta % gm != 0:
        # the guard congruence breaks after one application, so i = 1 only
        return _pre_once(1, b, g, s)
    # b < 0: the least landing value m = n - i*beta with m ≡ n (mod beta),
    # m in s, and the last guarded input m + beta >= r; b > 0: some landing
    # value m = n + i*beta >= n + beta must be in s; either way the last
    # guarded input m - b is at most g.hi
    land = Clause(r - beta if b < 0 else 0, None if g.hi is None else g.hi + b, gm, gr)
    bound: dict[int, int | None] = {}  # class -> least/greatest landing value
    for x in s.clauses:
        y = intersect_clauses(land, x)
        if y.is_empty:
            continue
        step = y.modulus
        count = beta // math.gcd(beta, step)
        if y.hi is not None:
            count = min(count, (y.hi - y.lo) // step + 1)
        if count > GUARD_ENUM_CAP:
            raise BudgetExceededError(
                f"translation step {beta} over budget: a clause walk of {count} class turns")
        if b < 0:
            for v in range(y.lo, y.lo + count * step, step):
                c = v % beta
                if c not in bound or bound[c] > v:
                    bound[c] = v
        elif y.hi is None:
            bound.update(dict.fromkeys(v % beta for v in range(y.lo, y.lo + count * step, step)))
        else:
            for v in range(y.hi, y.hi - count * step, -step):
                c = v % beta
                if c not in bound or bound[c] is not None and bound[c] < v:
                    bound[c] = v
    if b < 0:
        return semilinear(Clause(bound[c] + beta, g.hi, beta, c) for c in sorted(bound))
    return semilinear(Clause(r, None if bound[c] is None else bound[c] - beta, beta, c)
                      for c in sorted(bound))


def _cycle_pre_growth(a: int, b: int, g: Clause, s: SemilinearSet) -> SemilinearSet:
    """Acceleration of n -> a*n + b (a >= 2) under the guard g.

    One walk over the turns j.  After j turns a start n is at
    ``a^j*n + c_j`` (both kept exact).  Every orbit moves away from the fixed
    point ``e = -b/(a-1)``, so its values are monotone: a guarded start got
    to a value inside the guard iff that value lies between ``floor = a*g.lo
    + b`` and ``ceil = a*g.hi + b`` (no ``ceil`` for an unbounded guard), and
    its values kept the guard's residue, which all alive values share (the
    walk stops when it breaks).  So each clause of s is cut to that range
    once, the hits of turn j are the preimages
    ``_affine_preimage_clause(a^j, c_j, c)`` of the cut clauses, and they are
    cut to the guard once, at the end.  The fixed point stays put: it is a
    hit iff it is guarded and in s.  The clauses of one residue class that
    meet or touch are joined first, so each turn takes one preimage per run.

    ``alive`` is the clause of guarded starts whose values so far all stayed
    at or above ``g.lo``.  While its least start lies below ``e`` it rises by
    one preimage bound per turn, and the starts below ``e`` leave the guard
    within about ``log_a(e - g.lo)`` turns.  The least alive value only
    climbs, so a bounded clause below it is dropped for good (under a finite
    guard every clause is bounded, so the walk ends within about log_a of
    the guard's range).  The walk stops once a hit holds all of ``alive``.

    Once the least rising start is past ``top``, the largest ``hi`` of a
    bounded clause and ``lo`` of an unbounded one, only unbounded clauses are
    live, and a hit and the guard's residue depend only on the key
    ``(a^j, c_j)`` mod the period: the lcm of the guard's modulus and the
    unbounded clauses' moduli, read only there, so a set with no unbounded
    clause left after the cut never raises it.  The next key is a function
    of the current one, so a repeated key replays hits already taken and the
    walk stops.  Per prime power ``p^k`` of the period the key is periodic
    from turn ``k`` on, with period at most ``p^k``, so a key repeats within
    about ``period`` turns.
    """
    gm, gr = g.modulus, g.residue
    floor = a * g.lo + b  # the least value a guarded turn can give
    ceil = None if g.hi is None else a * g.hi + b  # and the greatest
    live: list[Clause] = []  # s's clauses cut, those of one class that meet or touch joined
    for c in sorted(s.clauses, key=itemgetter(2, 3, 0)):
        lo, hi, m, r = c
        if ceil is not None and (hi is None or hi > ceil):
            c = Clause(max(lo, floor), ceil, m, r)
        elif lo < floor:
            c = Clause(floor, hi, m, r)
        if c is EMPTY_CLAUSE:
            continue
        p = live[-1] if live else None
        if p is None or p[2:] != c[2:] or p.hi is not None and c.lo > p.hi + c.modulus:
            live.append(c)
        elif p.hi is not None and (c.hi is None or c.hi > p.hi):
            live[-1] = Clause(p.lo, c.hi, c.modulus, c.residue)
    top = max([c.lo if c.hi is None else c.hi for c in live], default=0)
    e, frac = divmod(-b, a - 1)  # the fixed point, a hit iff guarded and in s
    raw = [Clause(e, e)] if frac == 0 and g.member(e) and s.member(e) else []
    alive = g
    seen: set[tuple[int, int]] = set()  # keys met once every rising start is past `top`
    pj, cj, x = 1, 0, gr  # x: the residue mod gm of every alive start's value
    while x == gr:
        lo = alive.lo
        drift = (a - 1) * lo + b  # its sign: the side of the fixed point lo is on
        pj, cj, x = pj * a, a * cj + b, (a * x + b) % gm
        least = pj * (lo + gm if drift == 0 else lo) + cj  # the least alive value but e
        live = [c for c in live if c.hi is None or c.hi >= least]
        if not live:
            break
        if drift >= 0 and least > top:
            if not seen:  # only unbounded clauses are live: read the period
                period = math.lcm(gm, *(c.modulus for c in live))
                if period > CLASS_MODULUS_CAP:
                    raise BudgetExceededError(
                        f"growth-cycle residue analysis modulus {period} over budget")
            key = (pj % period, cj % period)
            if key in seen:
                break
            seen.add(key)
        for c in live:
            hit = _affine_preimage_clause(pj, cj, c)
            if hit.hi is None and clause_within(alive, hit):
                raw.append(alive)  # every alive start is a hit
                return semilinear(_cut(c, g) for c in dict.fromkeys(raw))
            raw.append(hit)
        if drift < 0:
            alive = Clause(max(lo, _cdiv(g.lo - cj, pj)), None, gm, gr)
    return semilinear(_cut(c, g) for c in dict.fromkeys(raw))


# --------------------------------------------------------------------------
# the fixpoint


@dataclass(frozen=True)
class PreStarResult:
    """Per-state predecessor sets of a target, each minimal; ``sweeps`` counts state updates."""

    machine: Machine
    target: Configuration | UpwardTarget
    sets: dict[str, SemilinearSet]
    sweeps: int

    def set_for(self, state: str) -> SemilinearSet:
        return self.sets[state]


DEFAULT_SWEEP_CAP = 1000


def _check_flavor(m: Machine) -> None:
    if m.flavor != "affine1":
        raise FlavorError("symbolic backward reachability needs a 1-dim affine machine")


def _pre_star_fixpoint(m: Machine, target: Configuration | UpwardTarget,
                       seed: SemilinearSet, max_sweeps: int,
                       cycle_cap: int) -> PreStarResult:
    cycles_by_root: dict[str, list[SimpleCycle]] = {q: [] for q in m.states}
    for cyc in enumerate_simple_cycles(m, cycle_cap):
        cycles_by_root[cyc.root].append(cyc)

    sets = {q: EMPTY for q in m.states}
    sets[target.state] = seed
    queued = dict.fromkeys([target.state] + [t.source for t in m.transitions_to(target.state)])
    budget = max_sweeps * len(m.states)
    updates = 0
    while queued:
        q = next(iter(queued))
        del queued[q]
        updates += 1
        if updates > budget:
            raise BudgetExceededError(f"no backward fixpoint after {budget} state updates")
        acc = sets[q]
        for t in m.transitions_from(q):
            acc = acc.union(pre_transition(t.payload, sets[t.target]))
        for cyc in cycles_by_root[q]:
            acc = pre_cycle_star(cyc, acc).normalized()
        if not acc.equal(sets[q]):
            # the cycle loop leaves acc minimal already
            sets[q] = acc if cycles_by_root[q] else acc.normalized()
            queued.update(dict.fromkeys(t.source for t in m.transitions_to(q)))
    return PreStarResult(m, target, sets, updates)


def compute_pre_star(m: Machine, target: Configuration, *,
                     max_sweeps: int = DEFAULT_SWEEP_CAP,
                     cycle_cap: int = DEFAULT_CYCLE_CAP) -> PreStarResult:
    """Exact per-state predecessor sets of a configuration; at most ``max_sweeps`` × |Q| updates."""
    _check_flavor(m)
    m.check_configuration(target)
    return _pre_star_fixpoint(m, target, singleton(target.counter),
                              max_sweeps, cycle_cap)


def compute_pre_star_upward(m: Machine, target: UpwardTarget, *,
                            max_sweeps: int = DEFAULT_SWEEP_CAP,
                            cycle_cap: int = DEFAULT_CYCLE_CAP) -> PreStarResult:
    """Exact predecessor sets of the upward closure of a configuration, same cap."""
    _check_flavor(m)
    m.check_configuration(target.config)
    return _pre_star_fixpoint(m, target, interval(target.config.counter, None),
                              max_sweeps, cycle_cap)
