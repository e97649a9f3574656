"""Semilinear set algebra, checked against a naive arithmetic oracle."""

from __future__ import annotations

import copy
import hashlib
import itertools
import math
import pickle
import random
import time
import tracemalloc

import pytest

from avasskit import semiset
from avasskit.errors import BudgetExceededError
from avasskit.semiset import (
    EMPTY,
    EMPTY_CLAUSE,
    FULL,
    Clause,
    SemilinearSet,
    clause_within,
    from_json_obj,
    from_values,
    intersect_clauses,
    semilinear,
    singleton,
)


# --- independent oracle: direct arithmetic, no clause normalization ---------

def naive_members(specs, bound):
    """specs: iterable of (lo, hi_or_None, mod, res) exactly as written."""
    out = set()
    for lo, hi, mod, res in specs:
        for n in range(bound + 1):
            if n < lo:
                continue
            if hi is not None and n > hi:
                continue
            if n % mod == res % mod:
                out.add(n)
    return out


def as_specs(s: SemilinearSet):
    return [(c.lo, c.hi, c.modulus, c.residue) for c in s.clauses]


def check_against_oracle(s: SemilinearSet, specs, bound):
    want = naive_members(specs, bound)
    got = {n for n in range(bound + 1) if s.member(n)}
    assert got == want


def clause_frame(*sets: SemilinearSet) -> tuple[int, int]:
    """A threshold and a period read off the clauses, from which all the sets
    repeat: past every finite hi and unbounded lo, the lcm of unbounded moduli."""
    t, l = 0, 1
    for s in sets:
        for c in s.clauses:
            if c.hi is None:
                t, l = max(t, c.lo), math.lcm(l, c.modulus)
            else:
                t = max(t, c.hi + 1)
    return t, l


# --- clause normalization ----------------------------------------------------

def test_clause_snaps_bounds_to_members():
    c = Clause(5, 20, 3, 1)
    assert (c.lo, c.hi) == (7, 19)
    assert c.member(7) and c.member(19)
    assert not c.member(6) and not c.member(20)


def test_clause_negative_lo_clamped():
    c = Clause(-7, None, 4, 2)
    assert c.lo == 2
    assert c.member(2) and c.member(6)


def test_clause_empty_collapses():
    c = Clause(10, 4)
    assert c.is_empty
    assert (c.lo, c.hi, c.modulus, c.residue) == (1, 0, 1, 0)
    # no members in a window even after normalization
    assert not any(c.member(n) for n in range(50))


def test_clause_bad_modulus_rejected():
    for m in (0, -2):
        try:
            Clause(0, None, m, 0)
        except ValueError:
            pass
        else:
            raise AssertionError("modulus < 1 accepted")


def test_clause_is_an_immutable_value():
    c = Clause(5, 20, 3, 1)
    try:
        c.lo = 0
    except AttributeError:
        pass
    else:
        raise AssertionError("clause field assigned")
    assert not hasattr(c, "__dict__")
    assert Clause(lo=5, hi=20, modulus=3, residue=1) == c
    assert Clause(7, 19, 3, 1) == c and hash(Clause(7, 19, 3, 1)) == hash(c)
    assert c == (7, 19, 3, 1) and hash(c) == hash((7, 19, 3, 1))
    for copied in [pickle.loads(pickle.dumps(c, proto))
                   for proto in range(pickle.HIGHEST_PROTOCOL + 1)] + [copy.deepcopy(c)]:
        assert type(copied) is Clause and copied == c
    assert pickle.loads(pickle.dumps(EMPTY_CLAUSE)) == EMPTY_CLAUSE
    for empty in (Clause(10, 4), Clause(5, 6, 4, 3), Clause(-9, -1), Clause(0, 2, 7, 5)):
        assert empty == EMPTY_CLAUSE and hash(empty) == hash(EMPTY_CLAUSE)
    assert repr(c) == "Clause(lo=7, hi=19, modulus=3, residue=1)"
    assert repr(Clause(2)) == "Clause(lo=2, hi=None, modulus=1, residue=0)"
    # a field-wise builder, if the class has one, normalizes as the constructor does
    if hasattr(Clause, "_make"):
        assert Clause._make((5, 20, 3, 1)) == c
    if hasattr(Clause, "_replace"):
        assert c._replace(lo=5) == c and c._replace(hi=6) == EMPTY_CLAUSE


def test_clause_constructor_against_membership():
    # moduli below 1 are refused, see test_clause_bad_modulus_rejected
    rng = random.Random(4096)
    for _ in range(3000):
        lo = rng.randint(-50, 200)
        hi = None if rng.random() < 0.3 else rng.randint(-50, 250)
        mod = rng.randint(1, 12)
        res = rng.randint(-30, 30)
        c = Clause(lo, hi, mod, res)
        want = [n for n in range(-60, 300)
                if n >= 0 and n >= lo and (hi is None or n <= hi) and n % mod == res % mod]
        got = [n for n in range(-60, 300) if c.member(n)]
        assert got == want, (lo, hi, mod, res, c)
        if not want:
            assert c == EMPTY_CLAUSE and c.is_empty, (lo, hi, mod, res, c)
            continue
        assert not c.is_empty and c.member(c.lo) and c.lo == want[0], (lo, hi, mod, res, c)
        if hi is not None:
            assert c.member(c.hi) and c.hi == want[-1], (lo, hi, mod, res, c)


def test_constructor_drops_empty_and_duplicate_clauses():
    s = semilinear([Clause(3, 1), Clause(2, 9, 2, 0), Clause(2, 9, 2, 0)])
    assert len(s.clauses) == 1


# --- frozen membership / operation examples ---------------------------------

def test_member_example_19_mod3():
    s = semilinear([Clause(19, None, 3, 1)])
    assert s.member(19)
    assert s.member(22)
    assert not s.member(20)
    assert not s.member(16)  # below lo even though residue matches


def test_intersect_crt_example():
    a = semilinear([Clause(0, None, 2, 0)])
    b = semilinear([Clause(0, None, 3, 0)])
    c = a.intersect(b)
    assert c.member(0) and c.member(6) and c.member(12)
    assert not c.member(2) and not c.member(3) and not c.member(4)
    check_against_oracle(c, [(0, None, 6, 0)], 100)


def test_complement_of_full_is_empty():
    assert FULL.complement().equal(EMPTY)
    assert EMPTY.complement().equal(FULL)
    assert FULL.is_full()
    assert not EMPTY.is_full()


def test_min_element_examples():
    s = semilinear([Clause(13, None, 3, 2)])
    assert s.min_element() == 14
    assert singleton(0).min_element() == 0
    assert EMPTY.min_element() is None


# --- canonical form ----------------------------------------------------------

def test_canonicalization_preserves_membership():
    rng = random.Random(11)
    for _ in range(100):
        s = random_set(rng)
        t, l = clause_frame(s)
        n = s.normalized()
        for v in range(t + 2 * l + 2):
            assert s.member(v) == n.member(v), (s.render(), n.render(), v)
        assert s.equal(n)


def split_unbounded(s: SemilinearSet, rng: random.Random) -> SemilinearSet:
    """The same set with each unbounded clause cut in two at a random point."""
    out = []
    for c in s.clauses:
        if c.hi is None:
            cut = c.lo + rng.randrange(0, 30)
            out += [Clause(c.lo, cut, c.modulus, c.residue),
                    Clause(cut + 1, None, c.modulus, c.residue)]
        else:
            out.append(c)
    return semilinear(out)


def test_canon_is_canonical():
    rng = random.Random(8128)
    # moduli 1,999 and 6: a least period of 11,994, whose residue mask
    # _minimal walks bit by bit
    wide = semilinear([Clause(5, None, 1999, 7), Clause(3, None, 6, 1), Clause(0, 40, 1, 0)])
    for s in itertools.chain((random_set(rng) for _ in range(300)), [wide]):
        other = random_set(rng)
        canon = s._canon
        for same in (s.normalized(), s.union(s.intersect(other)),
                     s.complement().complement(), split_unbounded(s, rng)):
            assert same._canon == canon, (s.render(), same.render())
            # masks stored by _minimal against masks recomputed from the clauses
            assert SemilinearSet(same.clauses)._canon == canon, (s.render(), same.render())
        low, period, fmask, rmask = canon
        # no proper divisor of the period repeats the residue pattern
        for k in range(1, period):
            if period % k == 0:
                assert any(rmask >> r & 1 != rmask >> (r % k) & 1 for r in range(period))
        # the value just below the threshold breaks the pattern
        if low > 0:
            assert s.member(low - 1) != bool(rmask >> ((low - 1) % period) & 1)
        # and the masks spell out the members
        for n in range(low + 2 * period):
            bit = fmask >> n if n < low else rmask >> (n % period)
            assert s.member(n) == bool(bit & 1), (s.render(), n)


def reference_canon(s: SemilinearSet) -> tuple[int, int, int, int]:
    """_canon's masks spelled out from membership alone: the residue word past
    the clause frame, its least period, then the least threshold."""
    t, l = clause_frame(s)
    word = [s.member(t + (r - t) % l) for r in range(l)]  # word[r]: n ≡ r (mod l), n >= t
    period = next(d for d in range(1, l + 1)
                  if l % d == 0 and all(word[r] == word[r % d] for r in range(l)))
    low = t
    while low > 0 and s.member(low - 1) == word[(low - 1) % period]:
        low -= 1

    def mask(bits):
        return int("".join("1" if b else "0" for b in reversed(bits)) or "0", 2)

    return low, period, mask([s.member(n) for n in range(low)]), mask(word[:period])


def check_canon_against_membership(s: SemilinearSet) -> tuple[SemilinearSet, SemilinearSet]:
    """The masks of s, its minimal form and its complement, against membership."""
    low, period, fmask, rmask = want = reference_canon(s)
    norm, comp = s.normalized(), s.complement()
    assert s._canon == want, s.render()
    assert norm._canon == want, s.render()
    assert SemilinearSet(norm.clauses)._canon == want, s.render()
    assert comp._canon == (low, period, ~fmask & ((1 << low) - 1),
                           ~rmask & ((1 << period) - 1)), s.render()
    assert SemilinearSet(comp.clauses)._canon == comp._canon, s.render()
    return norm, comp


def test_canon_masks_match_membership():
    rng = random.Random(19997)
    for _ in range(2000):
        check_canon_against_membership(random_set(rng))
    # 16 to 60 clauses, past which the masks are slice-assigned into one word:
    # intervals, progressions whose moduli divide the set's period, and
    # unbounded residue families of that period
    for _ in range(150):
        period = rng.choice([6, 12, 30, 60])
        divisors = [d for d in range(1, period) if period % d == 0]
        clauses = []
        for _ in range(rng.randint(16, 60)):
            lo, kind = rng.randrange(200), rng.random()
            if kind < 0.4:
                clauses.append(Clause(lo, lo + rng.randrange(40)))
            elif kind < 0.7:
                m = rng.choice(divisors)
                clauses.append(Clause(lo, rng.choice([None, lo + rng.randrange(300)]),
                                      m, rng.randrange(m)))
            else:
                clauses.append(Clause(lo, None, period, rng.randrange(period)))
        check_canon_against_membership(semilinear(clauses))
    # moduli 19,997 and 6: a least period of 119,982, and forms with tens of
    # thousands of clauses of modulus L, each of which sets one residue bit
    wide = semilinear([Clause(7, None, 19997, 3), Clause(5, None, 6, 1), Clause(7, 40, 1, 0)])
    norm, comp = check_canon_against_membership(wide)
    assert (len(norm.clauses), len(comp.clauses)) == (20008, 99981)


def test_structural_vs_semantic_equality():
    a = semilinear([Clause(0, None, 2, 0), Clause(1, None, 2, 1)])
    b = FULL
    assert a.equal(b)
    assert a != b  # dataclass equality is structural on purpose


# --- randomized algebra vs oracle -------------------------------------------

def random_clause(rng: random.Random) -> Clause:
    lo = rng.randrange(0, 40)
    hi = None if rng.random() < 0.5 else lo + rng.randrange(0, 40)
    mod = rng.choice([1, 1, 2, 3, 4, 5, 6, 7, 12])
    return Clause(lo, hi, mod, rng.randrange(mod))


def random_set(rng: random.Random) -> SemilinearSet:
    return semilinear([random_clause(rng) for _ in range(rng.randrange(0, 4))])


def test_union_intersect_complement_pointwise():
    rng = random.Random(20260822)
    for _ in range(150):
        a = random_set(rng)
        b = random_set(rng)
        bound = 250
        av = {n for n in range(bound + 1) if a.member(n)}
        bv = {n for n in range(bound + 1) if b.member(n)}
        u = a.union(b)
        i = a.intersect(b)
        c = a.complement()
        for n in range(bound + 1):
            assert u.member(n) == (n in av or n in bv)
            assert i.member(n) == (n in av and n in bv)
            assert c.member(n) == (n not in av)


def test_equal_subset_agree_with_exhaustive_scan():
    rng = random.Random(99)
    for _ in range(120):
        a = random_set(rng)
        b = random_set(rng)
        t, l = clause_frame(a, b)
        bound = t + 2 * l + 2
        av = [a.member(n) for n in range(bound)]
        bv = [b.member(n) for n in range(bound)]
        assert a.equal(b) == (av == bv)
        assert a.equal(b) == (a.normalized() == b.normalized())
        assert a.subset(b) == all(y for x, y in zip(av, bv) if x)
        assert a.subset(a) and a.equal(a)
        # the same set written with more clauses has the same minimal form
        same = a.union(a.intersect(b))
        assert a.equal(same) and a.normalized() == same.normalized()


def test_intersect_clauses_against_oracle():
    rng = random.Random(5)
    for _ in range(200):
        c1 = random_clause(rng)
        c2 = random_clause(rng)
        c = intersect_clauses(c1, c2)
        for n in range(200):
            assert c.member(n) == (c1.member(n) and c2.member(n)), (
                c1.render(), c2.render(), c.render(), n)


# --- helpers, rendering, json ------------------------------------------------

def test_clause_within_against_membership():
    rng = random.Random(2301)
    specials = [EMPTY_CLAUSE, Clause(7, 7), Clause(9, 9, 4, 1), Clause(0, None),
                Clause(3, 30, 3, 0), Clause(12, None, 6, 0)]
    clauses = specials + [random_clause(rng) for _ in range(120)]
    bound = 40 + 40 + 2 * 12 * 7  # past every finite hi and lo, plus two periods
    members = {c: {n for n in range(bound) if c.member(n)} for c in clauses}
    for x in clauses:
        for c in clauses:
            # unbounded clauses repeat past the bound, so the window decides
            assert clause_within(x, c) == (members[x] <= members[c]), (x, c)


def golden_sets():
    """2,000 seeded sets: 1,800 of random_set's kind and 200 of 4 to 24 clauses."""
    rng = random.Random(2323)
    for _ in range(1800):
        yield random_set(rng)
    for _ in range(200):
        yield semilinear([random_clause(rng) for _ in range(rng.randint(4, 24))])


def minimal_forms_digest(sets) -> str:
    h = hashlib.sha256()
    for s in sets:
        for form in (s.normalized(), s.complement()):
            h.update(repr([tuple(c) for c in form.clauses]).encode())
    return h.hexdigest()


def test_minimal_clause_lists_match_the_golden_digest():
    # the minimal clause lists of golden_sets() and of their complements,
    # pinned because any change to a minimal form changes what prestar prints
    assert minimal_forms_digest(golden_sets()) == (
        "d98b17db9083836a5a5ee36309576c3752c6a307970efae80ade1cd5a0d3b966")


def test_from_values_merges_runs():
    s = from_values([3, 1, 2, 7, 8, 10])
    assert as_specs(s) == [(1, 3, 1, 0), (7, 8, 1, 0), (10, 10, 1, 0)]
    assert s.values(20) == [1, 2, 3, 7, 8, 10]


def test_render_forms():
    assert semilinear([Clause(13, None, 3, 1)]).render() == "[13..] mod 3 = 1"
    assert singleton(19).render() == "[19..19] mod 1 = 0"
    assert EMPTY.render() == "empty"
    two = semilinear([Clause(0, 4), Clause(9, None, 2, 1)])
    assert two.render() == "[0..4] mod 1 = 0 ∪ [9..] mod 2 = 1"


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        s = random_set(rng)
        j = s.to_json_obj()
        back = from_json_obj(j)
        assert back.equal(s)
    assert from_json_obj([{"lo": 19, "hi": None, "mod": 3, "res": 1}]).member(22)


def test_compact_recovers_minimal_period():
    # Three mod-39 residue clauses that together are just "multiples of 3
    # from 6 on": the compacted form finds the period-3 structure again.
    spread = semilinear([Clause(6 + 39 * 0, None, 39, 6),
                         Clause(9, None, 39, 9)] +
                        [Clause(6 + 3 * k, None, 39, (6 + 3 * k) % 39)
                         for k in range(13)])
    got = spread.compact()
    assert as_specs(got) == [(6, None, 3, 0)]

    mixed = semilinear([Clause(0, 0), Clause(3, 3), Clause(6, 6),
                        Clause(13, None, 3, 1)])
    assert as_specs(mixed.compact()) == [(0, 6, 3, 0), (13, None, 3, 1)]


def test_compact_pulls_tail_starts_down():
    # 5 and 8 sit right below the unbounded clause on its own stride.
    s = semilinear([Clause(5, 5), Clause(8, 8), Clause(11, None, 3, 2)])
    assert as_specs(s.compact()) == [(5, None, 3, 2)]
    # The odd numbers plus the one even value 80,000: the threshold is 80,001,
    # and the odd tail pulls down over 40,000 finite values to 1.
    s = semilinear([Clause(1, None, 2, 1), Clause(80_000, 80_000)])
    assert as_specs(s.compact()) == [(1, None, 2, 1), (80_000, 80_000, 1, 0)]


def test_wide_step_progression_normalizes_in_linear_time():
    # _minimal writes two far-apart values as one progression whose step is
    # their distance; its mask costs its width, not width × step
    m = 8_000_000
    s = semilinear([Clause(6, 6 + m, m, 6)])
    start = time.perf_counter()
    got = s.normalized()
    assert time.perf_counter() - start < 1.0
    assert got.clauses == (Clause(6, 6 + m, m, 6),)
    assert got.equal(from_values([6, 6 + m]))
    # the residue mask repeated up to a threshold twice the period wide
    s = semilinear([Clause(4_000_000, None, 2_000_000, 0)])
    start = time.perf_counter()
    got = s.normalized()
    assert time.perf_counter() - start < 1.0
    assert got.clauses == (Clause(4_000_000, None, 2_000_000, 0),)


def test_prog_bits_sets_every_step_th_bit():
    rng = random.Random(4501)
    for _ in range(2000):
        start, upper, step = rng.randint(0, 400), rng.randint(0, 3000), rng.randint(1, 300)
        want = sum(1 << n for n in range(start, upper, step))
        assert semiset._prog_bits(start, upper, step) == want, (start, upper, step)


def test_replicate_repeats_the_unit_over_the_width():
    rng = random.Random(4502)
    for _ in range(2000):
        unit, width = rng.randint(1, 300), rng.randint(0, 3000)
        mask = rng.getrandbits(unit)
        want = sum(1 << n for n in range(width) if mask >> (n % unit) & 1)
        assert semiset._replicate(mask, unit, width) == want, (mask, unit, width)


def test_masks_wider_than_the_budget_raise_before_they_are_built(monkeypatch):
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError,
                           match="semilinear set mask of 1000000000001 bits over budget"):
            singleton(10 ** 12).normalized()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # the threshold and the period are each checked against the cap
    monkeypatch.setattr(semiset, "MASK_WIDTH_CAP", 1000)
    assert semilinear([Clause(0, 999)]).equal(semilinear([Clause(0, 999, 1, 0)]))
    assert semilinear([Clause(0, None, 1000, 3)]).normalized().member(1003)
    for s in (semilinear([Clause(0, 1000)]), semilinear([Clause(0, None, 1001, 3)])):
        with pytest.raises(BudgetExceededError, match="mask of 1001 bits over budget"):
            s.normalized()


def test_compact_keeps_detached_finite_values():
    s = semilinear([Clause(2, 2), Clause(11, None, 3, 2)])
    assert as_specs(s.compact()) == [(2, 2, 1, 0), (11, None, 3, 2)]


def test_compact_preserves_membership_and_is_idempotent():
    rng = random.Random(4500)
    for _ in range(400):
        s = random_set(rng)
        c = s.compact()
        assert c.equal(s)
        assert c.compact() == c
        # a minimal set is its own minimal form, not a rebuilt copy
        assert c.normalized() is c
        # complement builds the same minimal form
        comp = s.complement()
        assert comp.normalized() == comp and comp.complement() == c
    assert EMPTY.compact() == EMPTY
    assert as_specs(FULL.compact()) == [(0, None, 1, 0)]
    assert FULL.complement() == EMPTY and EMPTY.complement() == FULL
