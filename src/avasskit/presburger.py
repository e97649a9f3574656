"""Quantifier-free linear arithmetic over the naturals, with divisibility.

Formulas are boolean combinations of two atom kinds over integer linear terms:
comparisons ``term OP 0`` and congruences ``term ≡ 0 (mod m)``.  On top of the
usual normal forms this module decides three questions exactly, for the small
arities the rest of the package needs:

* ``exists_solution`` — is there a point of the naturals satisfying a formula
  of at most four variables?  Decided per DNF clause by splitting congruence
  variables into residue classes and searching the remaining inequality system
  inside a small-model box (subdeterminant bound) with interval propagation.
* ``is_functional`` / ``is_quasi_ordering`` — reductions to ``exists_solution``.
* ``is_wqo`` — is a quasi-ordering relation on the naturals a well
  quasi-ordering?  Decided by an asymptotic analysis of each DNF clause along
  geometrically separated ascending pairs; a negative verdict carries a
  constructive bad residue class from which arbitrarily long ascending-pair-free
  sequences are generated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Union

from .errors import ArityError, BudgetExceededError
from .semiset import _cdiv

# --------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class LinearTerm:
    """Integer linear term: sum of coeff*var plus a constant.

    ``coeffs`` is sorted by variable name and holds no zero coefficients, so
    structural equality of terms is semantic equality.
    """

    coeffs: tuple[tuple[str, int], ...] = ()
    constant: int = 0

    @staticmethod
    def build(coeffs: Mapping[str, int], constant: int = 0) -> "LinearTerm":
        kept = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
        return LinearTerm(kept, constant)

    def coeff(self, var: str) -> int:
        for v, c in self.coeffs:
            if v == var:
                return c
        return 0

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    def value(self, env: Mapping[str, int]) -> int:
        total = self.constant
        for v, c in self.coeffs:
            if v not in env:
                raise ValueError(f"unbound variable {v!r}")
            total += c * env[v]
        return total

    def plus(self, other: "LinearTerm") -> "LinearTerm":
        d = dict(self.coeffs)
        for v, c in other.coeffs:
            d[v] = d.get(v, 0) + c
        return LinearTerm.build(d, self.constant + other.constant)

    def times(self, k: int) -> "LinearTerm":
        return LinearTerm.build({v: c * k for v, c in self.coeffs}, self.constant * k)

    def minus(self, other: "LinearTerm") -> "LinearTerm":
        return self.plus(other.times(-1))

    def shifted(self, k: int) -> "LinearTerm":
        return LinearTerm(self.coeffs, self.constant + k)

    def renamed(self, mapping: Mapping[str, str]) -> "LinearTerm":
        d: dict[str, int] = {}
        for v, c in self.coeffs:
            nv = mapping.get(v, v)
            d[nv] = d.get(nv, 0) + c
        return LinearTerm.build(d, self.constant)


def var(name: str, coeff: int = 1) -> LinearTerm:
    return LinearTerm.build({name: coeff})


def const(k: int) -> LinearTerm:
    return LinearTerm((), k)


# --------------------------------------------------------------------------
# formulas

COMPARE_OPS = ("<=", "<", "=", ">=", ">")


@dataclass(frozen=True)
class Comparison:
    """Atom ``term OP 0``."""

    term: LinearTerm
    op: str

    def __post_init__(self) -> None:
        if self.op not in COMPARE_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class Congruence:
    """Atom ``term ≡ 0 (mod modulus)``.

    The term's constant is normalized into [0, modulus) at construction so
    that semantically identical congruences are structurally identical.
    """

    term: LinearTerm
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"congruence modulus must be >= 1, got {self.modulus}")
        k = self.term.constant % self.modulus
        if k != self.term.constant:
            object.__setattr__(self, "term", LinearTerm(self.term.coeffs, k))


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    children: tuple["Formula", ...] = ()


@dataclass(frozen=True)
class Or:
    children: tuple["Formula", ...] = ()


Formula = Union[Comparison, Congruence, Not, And, Or]
Atom = Union[Comparison, Congruence]

TRUE = And(())
FALSE = Or(())


def conj(*fs: Formula) -> Formula:
    return And(tuple(fs))


def disj(*fs: Formula) -> Formula:
    return Or(tuple(fs))


def variables(f: Formula) -> tuple[str, ...]:
    out: set[str] = set()

    def walk(g: Formula) -> None:
        if isinstance(g, (Comparison, Congruence)):
            out.update(g.term.variables)
        elif isinstance(g, Not):
            walk(g.child)
        else:
            for c in g.children:
                walk(c)

    walk(f)
    return tuple(sorted(out))


def evaluate(f: Formula, env: Mapping[str, int]) -> bool:
    if isinstance(f, Comparison):
        v = f.term.value(env)
        if f.op == "<=":
            return v <= 0
        if f.op == "<":
            return v < 0
        if f.op == "=":
            return v == 0
        if f.op == ">=":
            return v >= 0
        return v > 0
    if isinstance(f, Congruence):
        return f.term.value(env) % f.modulus == 0
    if isinstance(f, Not):
        return not evaluate(f.child, env)
    if isinstance(f, And):
        return all(evaluate(c, env) for c in f.children)
    return any(evaluate(c, env) for c in f.children)


def rename(f: Formula, mapping: Mapping[str, str]) -> Formula:
    """Simultaneous variable renaming (may merge variables)."""
    if isinstance(f, Comparison):
        return Comparison(f.term.renamed(mapping), f.op)
    if isinstance(f, Congruence):
        return Congruence(f.term.renamed(mapping), f.modulus)
    if isinstance(f, Not):
        return Not(rename(f.child, mapping))
    if isinstance(f, And):
        return And(tuple(rename(c, mapping) for c in f.children))
    return Or(tuple(rename(c, mapping) for c in f.children))


def _negate_atom(a: Atom) -> Formula:
    if isinstance(a, Comparison):
        t = a.term
        if a.op == "<=":
            return Comparison(t, ">")
        if a.op == "<":
            return Comparison(t, ">=")
        if a.op == ">=":
            return Comparison(t, "<")
        if a.op == ">":
            return Comparison(t, "<=")
        return Or((Comparison(t, "<"), Comparison(t, ">")))
    # not (t ≡ 0 mod m)  <=>  t ≡ r (mod m) for some r in 1..m-1
    return Or(tuple(Congruence(a.term.shifted(-r), a.modulus) for r in range(1, a.modulus)))


def nnf(f: Formula, positive: bool = True) -> Formula:
    """Negation normal form (negations only on atoms, then removed entirely)."""
    if isinstance(f, (Comparison, Congruence)):
        return f if positive else _negate_atom(f)
    if isinstance(f, Not):
        return nnf(f.child, not positive)
    if isinstance(f, And):
        kids = tuple(nnf(c, positive) for c in f.children)
        return And(kids) if positive else Or(kids)
    kids = tuple(nnf(c, positive) for c in f.children)
    return Or(kids) if positive else And(kids)


DNF_CLAUSE_CAP = 20_000


def dnf(f: Formula, cap: int = DNF_CLAUSE_CAP) -> tuple[tuple[Atom, ...], ...]:
    """Disjunctive normal form of an NNF-able formula: a tuple of atom-tuples.

    Raises BudgetExceededError when the clause count outgrows ``cap``.
    """
    g = nnf(f)

    def walk(h: Formula) -> list[tuple[Atom, ...]]:
        if isinstance(h, (Comparison, Congruence)):
            return [(h,)]
        if isinstance(h, Or):
            out: list[tuple[Atom, ...]] = []
            for c in h.children:
                out.extend(walk(c))
                if len(out) > cap:
                    raise BudgetExceededError(
                        f"DNF exceeded {cap} clauses; formula too disjunctive")
            return out
        assert isinstance(h, And)
        acc: list[tuple[Atom, ...]] = [()]
        for c in h.children:
            pieces = walk(c)
            acc = [a + p for a in acc for p in pieces]
            if len(acc) > cap:
                raise BudgetExceededError(
                    f"DNF exceeded {cap} clauses; formula too disjunctive")
        return acc

    return tuple(walk(g))


# --------------------------------------------------------------------------
# existential solving


MAX_SOLVER_VARIABLES = 4


def _rows_of_comparison(a: Comparison) -> list[LinearTerm]:
    """Equivalent list of ``term >= 0`` rows (integer tightening for strict ops)."""
    t = a.term
    if a.op == ">=":
        return [t]
    if a.op == ">":
        return [t.shifted(-1)]
    if a.op == "<=":
        return [t.times(-1)]
    if a.op == "<":
        return [t.times(-1).shifted(-1)]
    return [t, t.times(-1)]


def _det(m: list[list[int]]) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    rest = m[1:]
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rest]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _small_model_bound(rows: list[tuple[dict[str, int], int]], vars_: list[str]) -> int:
    """Box bound: a satisfiable system has a solution with all coords <= bound.

    Uses the classic subdeterminant bound (n+1)*Δ over the constraint matrix
    [A | b] including the nonnegativity rows; falls back to a Hadamard-style
    estimate when the matrix is large enough that enumerating submatrices
    would cost more than it saves.
    """
    n = len(vars_)
    mat: list[list[int]] = []
    for coeffs, k in rows:
        mat.append([-coeffs.get(v, 0) for v in vars_] + [k])
    for i in range(n):
        mat.append([-1 if j == i else 0 for j in range(n)] + [0])
    ncols = n + 1
    if len(mat) > 24:
        entry = max((abs(e) for row in mat for e in row), default=1) or 1
        had = math.isqrt(ncols) + 1
        return (n + 1) * (had * entry) ** ncols
    best = 1
    for size in range(1, min(len(mat), ncols) + 1):
        for rset in itertools.combinations(range(len(mat)), size):
            for cset in itertools.combinations(range(ncols), size):
                sub = [[mat[r][c] for c in cset] for r in rset]
                d = abs(_det(sub))
                if d > best:
                    best = d
    return (n + 1) * best


def _solve_rows(
    rows: list[tuple[dict[str, int], int]],
    vars_: list[str],
    node_budget: list[int],
) -> dict[str, int] | None:
    """Least-ish solution of ``sum c_v * v + k >= 0`` rows over naturals, or None.

    A row with no variables and a negative constant makes the system
    unsatisfiable whatever the other rows say, so that is checked first.
    """
    if any(k < 0 for coeffs, k in rows if not coeffs):
        return None
    if not vars_:
        return {}
    if not rows:
        return {v: 0 for v in vars_}
    bound = _small_model_bound(rows, vars_)
    lo = {v: 0 for v in vars_}
    hi = {v: bound for v in vars_}

    def propagate(lo: dict, hi: dict) -> bool:
        changed = True
        while changed:
            changed = False
            for coeffs, k in rows:
                for v, cv in coeffs.items():
                    rest = k
                    for w, cw in coeffs.items():
                        if w == v:
                            continue
                        rest += cw * (hi[w] if cw > 0 else lo[w])
                    # cv * v + rest >= 0 must be satisfiable inside the box
                    if cv > 0:
                        need = _cdiv(-rest, cv)
                        if need > lo[v]:
                            lo[v] = need
                            changed = True
                    else:
                        cap = rest // -cv
                        if cap < hi[v]:
                            hi[v] = cap
                            changed = True
                    if lo[v] > hi[v]:
                        return False
        return True

    def dfs(lo: dict, hi: dict) -> dict | None:
        if not propagate(lo, hi):
            return None
        open_vars = [v for v in vars_ if lo[v] < hi[v]]
        if not open_vars:
            env = dict(lo)
            ok = all(
                sum(c * env[v] for v, c in coeffs.items()) + k >= 0
                for coeffs, k in rows
            )
            return env if ok else None
        v = min(open_vars, key=lambda v: hi[v] - lo[v])
        for val in range(lo[v], hi[v] + 1):
            node_budget[0] -= 1
            if node_budget[0] < 0:
                raise BudgetExceededError("existential solver node budget exhausted")
            nlo = dict(lo)
            nhi = dict(hi)
            nlo[v] = nhi[v] = val
            got = dfs(nlo, nhi)
            if got is not None:
                return got
        return None

    return dfs(lo, hi)


RESIDUE_COMBO_CAP = 2_000_000


def _solve_clause(
    atoms: tuple[Atom, ...],
    node_budget: list[int],
) -> dict[str, int] | None:
    rows: list[tuple[dict[str, int], int]] = []
    congs: list[tuple[dict[str, int], int, int]] = []
    for a in atoms:
        if isinstance(a, Comparison):
            for t in _rows_of_comparison(a):
                rows.append((dict(t.coeffs), t.constant))
        else:
            if a.modulus > 1:
                congs.append((dict(a.term.coeffs), a.term.constant, a.modulus))
    clause_vars = sorted(
        {v for coeffs, _ in rows for v in coeffs}
        | {v for coeffs, _, _ in congs for v in coeffs}
    )
    if not congs:
        return _solve_rows(rows, clause_vars, node_budget)
    period = math.lcm(*(m for _, _, m in congs))
    cvars = sorted({v for coeffs, _, _ in congs for v in coeffs})
    if len(cvars) > 0 and period ** len(cvars) > RESIDUE_COMBO_CAP:
        raise BudgetExceededError(
            f"residue split too large: {period}^{len(cvars)} combinations")
    for combo in itertools.product(range(period), repeat=len(cvars)):
        res = dict(zip(cvars, combo))
        if not all(
            (sum(c * res[v] for v, c in coeffs.items()) + k) % m == 0
            for coeffs, k, m in congs
        ):
            continue
        # substitute v = period * v' + res[v] into the inequality rows
        shifted_rows = []
        for coeffs, k in rows:
            nc = {}
            nk = k
            for v, c in coeffs.items():
                if v in res:
                    nc[v] = c * period
                    nk += c * res[v]
                else:
                    nc[v] = c
            shifted_rows.append((nc, nk))
        got = _solve_rows(shifted_rows, clause_vars, node_budget)
        if got is not None:
            return {
                v: period * got[v] + res[v] if v in res else got[v]
                for v in clause_vars
            }
    return None


def exists_solution(
    f: Formula,
    node_budget: int = 500_000,
) -> dict[str, int] | None:
    """A satisfying natural-number assignment for ``f``, or None.

    Exact for formulas of at most four variables; raises ArityError above that
    and BudgetExceededError when internal enumeration outgrows its budget.
    Among solutions the search is biased toward small values but makes no
    minimality promise.
    """
    vs = variables(f)
    if len(vs) > MAX_SOLVER_VARIABLES:
        raise ArityError(
            f"existential solving supports at most {MAX_SOLVER_VARIABLES} variables, "
            f"got {len(vs)}: {', '.join(vs)}")
    budget = [node_budget]
    for clause in dnf(f):
        got = _solve_clause(clause, budget)
        if got is not None:
            env = {v: 0 for v in vs}
            env.update(got)
            assert evaluate(f, env), "solver returned a non-solution"
            return env
    return None


# --------------------------------------------------------------------------
# functionality of relational machines


@dataclass(frozen=True)
class FunctionalReport:
    """Per-transition functionality verdicts for one machine."""

    entries: tuple[tuple[object, bool, dict | None], ...]

    @property
    def all_functional(self) -> bool:
        return all(ok for _, ok, _ in self.entries)


def is_functional(machine) -> FunctionalReport:
    """Check that each transition relation admits at most one successor per input.

    Affine and counter-op flavors are functional by construction; relational
    payloads are checked by asking for two distinct successors of one input,
    which needs 3 variables per dimension and therefore only works in
    dimension 1 (ArityError above).
    """
    from . import machine as machine_mod

    entries = []
    for t in machine.transitions:
        p = t.payload
        if not isinstance(p, machine_mod.RelationalUpdate):
            entries.append((t, True, None))
            continue
        pre, post = machine_mod.relational_variables(machine.dimension)
        twins = [f"{v}2" for v in post]
        f = p.formula
        f2 = rename(f, dict(zip(post, twins)))
        differ = Or(tuple(
            Or((
                Comparison(var(a).minus(var(b)), ">"),
                Comparison(var(a).minus(var(b)), "<"),
            ))
            for a, b in zip(post, twins)
        ))
        witness = exists_solution(conj(f, f2, differ))
        if witness is None:
            entries.append((t, True, None))
        else:
            entries.append((t, False, witness))
    return FunctionalReport(tuple(entries))


# --------------------------------------------------------------------------
# quasi-orderings and well quasi-orderings


@dataclass(frozen=True)
class QuasiOrderVerdict:
    is_qo: bool
    failed_axiom: str | None = None  # "reflexivity" | "transitivity"
    counterexample: dict | None = None


def is_quasi_ordering(f: Formula, x: str = "x", y: str = "y") -> QuasiOrderVerdict:
    """Is the binary relation f(x, y) reflexive and transitive on the naturals?"""
    extra = set(variables(f)) - {x, y}
    if extra:
        raise ArityError(
            f"relation must use only {x!r} and {y!r}; found {sorted(extra)}")
    refl_ce = exists_solution(Not(rename(f, {y: x})))
    if refl_ce is not None:
        n = refl_ce.get(x, 0)
        return QuasiOrderVerdict(False, "reflexivity", {x: n})
    z = next(n for n in ("z", "w", "u", "v0", "t0") if n not in (x, y))
    f_yz = rename(f, {x: y, y: z})
    f_xz = rename(f, {y: z})
    trans_ce = exists_solution(conj(f, f_yz, Not(f_xz)))
    if trans_ce is not None:
        return QuasiOrderVerdict(False, "transitivity", trans_ce)
    return QuasiOrderVerdict(True)


@dataclass(frozen=True)
class WqoVerdict:
    """Outcome of the well-quasi-ordering test.

    kind is one of "wqo", "not-wqo", "not-quasi-ordering".  For "not-wqo",
    ``bad_residue`` (mod ``modulus``) names a residue class from which
    :meth:`witness_sequence` builds arbitrarily long sequences with no
    ascending pair; ``gap`` is the geometric growth parameter that defeats
    every inequality atom of the relation.
    """

    kind: str
    x: str = "x"
    y: str = "y"
    modulus: int = 1
    gap: int = 1
    bad_residue: int | None = None
    failed_axiom: str | None = None
    counterexample: dict | None = field(default=None)

    def witness_sequence(self, length: int) -> list[int]:
        if self.kind != "not-wqo":
            raise ValueError("witness sequences exist only for not-wqo verdicts")
        n0, n, k = self.bad_residue, self.modulus, self.gap
        e = n0 if n0 >= k else n0 + _cdiv(k - n0, n) * n
        out = [e]
        while len(out) < length:
            c = k * (e + 1) + k
            c += (n0 - c) % n
            e = c
            out.append(e)
        return out


def is_wqo(f: Formula, x: str = "x", y: str = "y") -> WqoVerdict:
    """Decide whether a relation given as a formula is a wqo on the naturals.

    Pipeline: quasi-ordering precheck; DNF; per clause, decide each inequality
    atom's truth along ascending pairs (x, y) with y >= gap*(x+1)+gap — the
    sign of the y-coefficient (then the x-coefficient, then the constant)
    settles it — keeping only clauses whose inequalities all hold out there;
    the surviving clauses' congruences are then checked per residue class
    modulo the lcm of their moduli.  Uncovered class => not a wqo, with a
    geometric witness sequence confined to that class; all covered => wqo
    (bounded sequences repeat a value and use reflexivity, unbounded ones give
    a geometric ascending pair inside a pigeonholed class).
    """
    qo = is_quasi_ordering(f, x, y)
    if not qo.is_qo:
        return WqoVerdict(
            "not-quasi-ordering", x, y,
            failed_axiom=qo.failed_axiom, counterexample=qo.counterexample)

    clauses = dnf(f)
    max_const = 0
    max_coeff = 0
    for clause in clauses:
        for a in clause:
            if isinstance(a, Comparison):
                for row in _rows_of_comparison(a):
                    max_const = max(max_const, abs(row.constant))
                    max_coeff = max(
                        max_coeff, abs(row.coeff(x)) + abs(row.coeff(y)))
    gap = 1 + max_const + max_coeff

    survivors: list[list[Congruence]] = []
    moduli: set[int] = set()
    for clause in clauses:
        alive = True
        congs: list[Congruence] = []
        for a in clause:
            if isinstance(a, Congruence):
                if a.modulus > 1:
                    congs.append(a)
                continue
            for row in _rows_of_comparison(a):
                cy = row.coeff(y)
                cx = row.coeff(x)
                if cy > 0 or (cy == 0 and cx > 0):
                    continue  # asymptotically true on geometric ascending pairs
                if cy == 0 and cx == 0 and row.constant >= 0:
                    continue  # ground-true
                alive = False
                break
            if not alive:
                break
        if alive:
            survivors.append(congs)
            moduli.update(c.modulus for c in congs)

    period = math.lcm(*moduli)

    for n0 in range(period):
        env = {x: n0, y: n0}
        if not any(all(evaluate(c, env) for c in congs) for congs in survivors):
            return WqoVerdict("not-wqo", x, y, modulus=period, gap=gap, bad_residue=n0)
    return WqoVerdict("wqo", x, y, modulus=period, gap=gap)
