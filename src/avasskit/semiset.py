"""Semilinear subsets of the naturals: finite unions of guarded arithmetic progressions.

A :class:`Clause` denotes ``{n : lo <= n <= hi and n % modulus == residue}`` with
``hi=None`` meaning unbounded.  It is the normalized tuple ``(lo, hi, modulus,
residue)``: its constructor is the only way to build one, so hashing, equality
and deduplication run at tuple speed, and a clause compares equal to the plain
4-tuple of its fields.  A :class:`SemilinearSet` is a finite union of
clauses.  These are exactly the subsets of the naturals definable in one free
variable by quantifier-free linear arithmetic with divisibility, and they are
closed under every operation this module exposes: union, intersection,
complement, inclusion, equality.

Every set has one canonical form, the masks of ``SemilinearSet._canon``: the
least period ``L`` with which the set eventually repeats, the least threshold
``T`` from which it does, a bitmask of the members below ``T`` and a bitmask of
the residues mod ``L`` that are members from ``T`` on.  The masks depend on the
members alone, so equality, inclusion and fullness compare masks.  Masks are
plain Python ints, so comparison runs at word speed even when ``L`` is in the
millions (which happens when many cycle moduli pile up); a set whose ``T``
or ``L`` is past ``MASK_WIDTH_CAP`` raises BudgetExceededError before any
mask is built.  They are built by
:func:`_mask_of` from one progression per clause, each at the cost of its
members rather than of the mask's width once there are many clauses, so a
set of tens of thousands of modulus-``L`` clauses costs one pass over ``L``.
Clauses are rebuilt from the masks one way only, into the minimal form of
:func:`_minimal`, which keeps the masks it was built from as the result's
own and marks the result minimal, so a minimal set never recomputes them
and is its own minimal form: ``normalized()`` hands it back.
:func:`clause_within` decides ``x ⊆ c`` for two clauses from their fields
alone, which lets a caller see that a union would add nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable

from .errors import BudgetExceededError

# the widest mask _canon builds: about 2^28 bits, a few hundred MB to build
MASK_WIDTH_CAP = 1 << 28


def _cdiv(a: int, b: int) -> int:
    """ceil(a / b) for b > 0, any-sign a."""
    return -((-a) // b)


def _ones(n: int) -> int:
    return (1 << n) - 1


def _prog_bits(start: int, upper: int, step: int) -> int:
    """Bitmask with bits start, start+step, ... strictly below upper."""
    if start >= upper:
        return 0
    if step == 1:
        return _ones(upper - start) << start
    return _replicate(1, step, upper - start) << start


def _mask_of(width: int, progressions: list[tuple[int, int, int]]) -> int:
    """Bitmask of the progressions ``(start, upper, step)``, each with upper <= width.

    A progression sets bits start, start+step, ... strictly below upper.
    Fewer than 16 are ORed in through :func:`_prog_bits`, which is cheapest on
    small masks; more are slice-assigned into one '0'/'1' word that is read
    back once, so each costs its members, where ORing each would cost a pass
    over the mask.
    """
    if len(progressions) < 16:
        mask = 0
        for p in progressions:
            mask |= _prog_bits(*p)
        return mask
    word = bytearray(b"0") * width
    for start, upper, step in progressions:
        word[start:upper:step] = b"1" * len(range(start, upper, step))
    return int(word[::-1] or b"0", 2)


def _set_bits(mask: int) -> list[int]:
    """Positions of the set bits of a natural, ascending, in time linear in its length."""
    word = format(mask, "b")[::-1]
    out = []
    n = word.find("1")
    while n >= 0:
        out.append(n)
        n = word.find("1", n + 1)
    return out


def _replicate(mask: int, unit: int, width: int) -> int:
    """The low `width` bits of the `unit`-bit mask repeated without end.

    Each turn doubles the copies, so the cost is linear in width whatever the
    unit (dividing by the repunit ``2^unit - 1`` would cost width × unit).
    """
    while unit < width:
        mask |= mask << unit
        unit += unit
    return mask & _ones(width)


class Clause(tuple):
    """One guarded progression ``{n : lo <= n (<= hi) and n ≡ residue (mod modulus)}``.

    A clause is the normalized tuple ``(lo, hi, modulus, residue)``, immutable
    and without an instance dict, so it hashes and compares at tuple speed and
    compares equal to the plain 4-tuple of its fields.  Construction is the
    only way in, and it normalizes: ``lo`` is clamped to 0 and snapped up to
    the first actual member, a finite ``hi`` is snapped down to the last
    member, and a clause with no members is the canonical empty clause
    ``EMPTY_CLAUSE == Clause(1, 0, 1, 0)``.  After that, ``lo`` (and a finite
    ``hi``) are themselves members, which the rest of the package relies on.
    """

    __slots__ = ()

    def __new__(cls, lo: int, hi: int | None = None, modulus: int = 1,
                residue: int = 0) -> "Clause":
        if modulus < 1:
            raise ValueError(f"clause modulus must be >= 1, got {modulus}")
        residue %= modulus
        if lo < 0:
            lo = 0
        lo += (residue - lo) % modulus  # snap up to a member
        if hi is not None:
            hi -= (hi - residue) % modulus  # snap down to a member
            if hi < lo:
                return EMPTY_CLAUSE
        return tuple.__new__(cls, (lo, hi, modulus, residue))

    lo = property(itemgetter(0))
    hi = property(itemgetter(1))
    modulus = property(itemgetter(2))
    residue = property(itemgetter(3))

    def __getnewargs__(self) -> tuple:
        # pickle and copy rebuild a clause through __new__ from its four fields
        return tuple(self)

    def __repr__(self) -> str:
        lo, hi, modulus, residue = self
        return f"Clause(lo={lo!r}, hi={hi!r}, modulus={modulus!r}, residue={residue!r})"

    @property
    def is_empty(self) -> bool:
        hi = self[1]
        return hi is not None and hi < self[0]

    def member(self, n: int) -> bool:
        lo, hi, modulus, residue = self
        if n < lo or (hi is not None and n > hi):
            return False
        return n % modulus == residue

    def values(self, limit: int) -> range:
        """Members of the clause that are <= limit, ascending; sized without listing them."""
        lo, hi, modulus, _ = self
        return range(lo, (limit if hi is None else min(limit, hi)) + 1, modulus)

    def render(self) -> str:
        if self.is_empty:
            return "[1..0] mod 1 = 0"
        hi = "" if self.hi is None else str(self.hi)
        return f"[{self.lo}..{hi}] mod {self.modulus} = {self.residue}"

    def to_json_obj(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "mod": self.modulus, "res": self.residue}


EMPTY_CLAUSE = tuple.__new__(Clause, (1, 0, 1, 0))


def intersect_clauses(c1: Clause, c2: Clause) -> Clause:
    """Exact intersection of two clauses (always again a single clause)."""
    lo1, hi1, m1, r1 = c1
    lo2, hi2, m2, r2 = c2
    if (hi1 is not None and hi1 < lo1) or (hi2 is not None and hi2 < lo2):
        return EMPTY_CLAUSE
    lo = max(lo1, lo2)
    if hi1 is None:
        hi = hi2
    elif hi2 is None:
        hi = hi1
    else:
        hi = min(hi1, hi2)
    g = math.gcd(m1, m2)
    if (r2 - r1) % g != 0:
        return EMPTY_CLAUSE
    l = m1 // g * m2
    t = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g)
    r = (r1 + m1 * t) % l
    return Clause(lo, hi, l, r)


def clause_within(x: Clause, c: Clause) -> bool:
    """Exact test of ``x ⊆ c``, read off the fields.

    ``lo`` and a finite ``hi`` of a normalized clause are members, so ``x``
    lies inside ``c`` iff its interval does and, unless ``x`` is a single
    value, ``c``'s progression divides its own.
    """
    x_lo, x_hi, x_mod, x_res = x
    if x_hi is not None and x_hi < x_lo:
        return True
    if x_lo == x_hi:
        return c.member(x_lo)
    lo, hi, modulus, residue = c
    return (lo <= x_lo and (hi is None or x_hi is not None and x_hi <= hi)
            and x_mod % modulus == 0 and x_res % modulus == residue)


@dataclass(frozen=True)
class SemilinearSet:
    """A finite union of clauses.  Construct via :func:`semilinear` or the helpers."""

    clauses: tuple[Clause, ...]

    # NB: dataclass __eq__ is structural (same clause tuple); use .equal() for
    # the semantic "same subset of the naturals" question.

    @cached_property
    def _canon(self) -> tuple[int, int, int, int]:
        """The canonical masks (T, L, finite_mask, residue_mask).

        L is the least eventual period of the set and T the least threshold
        from which it repeats with period L.  finite_mask has bit n set iff
        n < T is a member; residue_mask has bit r set iff the n >= T with
        n ≡ r (mod L) are members.  Equal sets have equal masks.
        """
        # a frame read off the clauses: from t on, the set repeats with period l
        t = 0
        l = 1
        for lo, hi, modulus, _ in self.clauses:
            if hi is None:
                t = max(t, lo)
                l = math.lcm(l, modulus)
            else:
                t = max(t, hi + 1)
        if max(t, l) > MASK_WIDTH_CAP:
            raise BudgetExceededError(f"semilinear set mask of {max(t, l)} bits over budget")
        # one progression per clause below t, and one residue progression per
        # unbounded clause (since membership above T only depends on n mod
        # modulus, and lo <= T, its residue class is fully included from T on)
        fprogs = []
        rprogs = []
        for lo, hi, modulus, residue in self.clauses:
            if hi is None:
                fprogs.append((lo, t, modulus))
                rprogs.append((residue, l, modulus))
            else:
                fprogs.append((lo, hi + 1, modulus))
        fmask = _mask_of(t, fprogs)
        rmask = _mask_of(l, rprogs)
        # the least period is the least rotation that maps the l-bit word of
        # rmask onto itself (it divides l); the least threshold lies just past
        # the last value below t that breaks the pattern
        if l == 1:
            d = 1
        else:
            word = format(rmask, f"0{l}b")
            d = (word + word).find(word, 1)
            rmask &= _ones(d)
        t = (fmask ^ _replicate(rmask, d, t)).bit_length()
        return (t, d, fmask & _ones(t), rmask)

    def member(self, n: int) -> bool:
        return any(c.member(n) for c in self.clauses)

    def union(self, other: "SemilinearSet") -> "SemilinearSet":
        return semilinear(self.clauses + other.clauses)

    def intersect(self, other: "SemilinearSet") -> "SemilinearSet":
        out = []
        for c1 in self.clauses:
            for c2 in other.clauses:
                out.append(intersect_clauses(c1, c2))
        return semilinear(out)

    def complement(self) -> "SemilinearSet":
        t, l, fmask, rmask = self._canon
        return _minimal(t, l, ~fmask & _ones(t), ~rmask & _ones(l))

    def equal(self, other: "SemilinearSet") -> bool:
        return self._canon == other._canon

    def subset(self, other: "SemilinearSet") -> bool:
        return self.union(other)._canon == other._canon

    @property
    def is_empty(self) -> bool:
        return not self.clauses

    def is_full(self) -> bool:
        """True iff the set is all of the naturals."""
        return self._canon == (0, 1, 0, 1)

    def min_element(self) -> int | None:
        """Least member, or None for the empty set (clause lows are members)."""
        if not self.clauses:
            return None
        return min(c.lo for c in self.clauses)

    _is_minimal = False  # set on the sets that _minimal builds

    def normalized(self) -> "SemilinearSet":
        """The minimal form of this set (see :func:`_minimal`); a minimal set is its own."""
        return self if self._is_minimal else _minimal(*self._canon)

    compact = normalized

    def values(self, limit: int) -> list[int]:
        """Sorted members <= limit."""
        out: set[int] = set()
        for c in self.clauses:
            out.update(c.values(limit))
        return sorted(out)

    def render(self) -> str:
        if not self.clauses:
            return "empty"
        return " ∪ ".join(c.render() for c in self.clauses)

    def to_json_obj(self) -> list[dict]:
        return [c.to_json_obj() for c in self.clauses]


def semilinear(clauses: Iterable[Clause]) -> SemilinearSet:
    """Build a set from clauses, dropping empties and structural duplicates.

    Every empty clause is ``EMPTY_CLAUSE``, so one ordered dict keeps the first
    occurrence of each clause and one deletion drops the empties.
    """
    kept = dict.fromkeys(clauses)
    kept.pop(EMPTY_CLAUSE, None)
    return SemilinearSet(tuple(kept))


def _minimal(t: int, l: int, fmask: int, rmask: int) -> SemilinearSet:
    """The minimal clause form of the set with canonical masks (T, L, fmask, rmask).

    One unbounded clause per recurrent residue class mod the least period L,
    pulled down as far as the finite part allows, and the leftover finite
    values grouped into maximal progressions.  Equal sets have the same
    canonical masks, so they get the same clauses.  The masks are those of the
    result, so it keeps them as its ``_canon`` and never recomputes them.
    """
    absorbed = 0
    tails = []
    for c in _set_bits(rmask):
        # the class's tail starts one period above its last non-member below
        # T, or at c when it has none
        start = t + ((c - t) % l)
        below = _prog_bits(c, start, l)
        gap = below & ~fmask
        s = gap.bit_length() - 1 + l if gap else c
        absorbed |= below >> s << s
        tails.append(Clause(s, None, l, c))
    leftover = _set_bits(fmask & ~absorbed)
    runs = []
    i = 0
    while i < len(leftover):
        step, j = 1, i
        if i + 1 < len(leftover):
            step = leftover[i + 1] - leftover[i]
            j = i + 1
            while j + 1 < len(leftover) and leftover[j + 1] - leftover[j] == step:
                j += 1
        runs.append(Clause(leftover[i], leftover[j], step, leftover[i]))
        i = j + 1
    out = SemilinearSet(tuple(sorted(runs + tails, key=itemgetter(0, 2, 3))))
    out.__dict__.update(_canon=(t, l, fmask, rmask), _is_minimal=True)
    return out


EMPTY = SemilinearSet(())
FULL = SemilinearSet((Clause(0, None, 1, 0),))


def singleton(n: int) -> SemilinearSet:
    return SemilinearSet((Clause(n, n, 1, 0),))


def interval(lo: int, hi: int | None = None) -> SemilinearSet:
    c = Clause(lo, hi, 1, 0)
    return semilinear([c])


def from_values(values: Iterable[int]) -> SemilinearSet:
    """Finite set of naturals, as maximal-run interval clauses."""
    vs = sorted(set(values))
    clauses = []
    i = 0
    while i < len(vs):
        j = i
        while j + 1 < len(vs) and vs[j + 1] == vs[j] + 1:
            j += 1
        clauses.append(Clause(vs[i], vs[j], 1, 0))
        i = j + 1
    return SemilinearSet(tuple(clauses))


def from_json_obj(obj: list) -> SemilinearSet:
    clauses = []
    for entry in obj:
        clauses.append(
            Clause(entry["lo"], entry.get("hi"), entry.get("mod", 1), entry.get("res", 0))
        )
    return semilinear(clauses)
