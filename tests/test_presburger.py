"""Formula AST, normal forms, and the exact existential solver."""

from __future__ import annotations

import itertools
import random

import pytest

from avasskit import presburger
from avasskit.errors import ArityError, BudgetExceededError
from avasskit.presburger import (
    And,
    Comparison,
    Congruence,
    FALSE,
    LinearTerm,
    Not,
    Or,
    TRUE,
    conj,
    const,
    disj,
    dnf,
    evaluate,
    _det,
    _small_model_bound,
    _solve_rows,
    _tighten,
    exists_solution,
    is_quasi_ordering,
    nnf,
    rename,
    var,
    variables,
)


def leq(a, b):
    return Comparison(a.minus(b), "<=")


def eq(a, b):
    return Comparison(a.minus(b), "=")


X, Y, Z = var("x"), var("y"), var("z")


# --- terms -------------------------------------------------------------------

def test_term_building_drops_zeros_and_sorts():
    t = LinearTerm.build({"y": 2, "x": 0, "a": -1}, 7)
    assert t.coeffs == (("a", -1), ("y", 2))
    assert t.constant == 7
    assert t.coeff("x") == 0 and t.coeff("y") == 2


def test_term_arithmetic_and_rename_merge():
    t = X.plus(Y).renamed({"y": "x"})
    assert t == LinearTerm.build({"x": 2})
    assert X.minus(X) == const(0)
    assert X.times(3).shifted(-2).value({"x": 4}) == 10


def test_evaluate_unbound_variable_errors():
    with pytest.raises(ValueError):
        evaluate(leq(X, Y), {"x": 1})


# --- evaluate / nnf / dnf ----------------------------------------------------

def test_evaluate_atoms():
    env = {"x": 5, "y": 3}
    assert evaluate(leq(Y, X), env)
    assert not evaluate(leq(X, Y), env)
    assert evaluate(Congruence(X.minus(Y), 2), env)
    assert not evaluate(Congruence(X, 2), env)
    assert evaluate(TRUE, {}) and not evaluate(FALSE, {})


def random_formula(rng: random.Random, depth=3):
    if depth == 0 or rng.random() < 0.4:
        t = LinearTerm.build(
            {v: rng.randint(-4, 4) for v in ("x", "y", "z")}, rng.randint(-10, 10))
        if rng.random() < 0.3:
            return Congruence(t, rng.randint(2, 5))
        return Comparison(t, rng.choice(["<=", "<", "=", ">=", ">"]))
    kind = rng.random()
    if kind < 0.2:
        return Not(random_formula(rng, depth - 1))
    kids = tuple(random_formula(rng, depth - 1) for _ in range(rng.randint(1, 3)))
    return And(kids) if kind < 0.6 else Or(kids)


def test_nnf_dnf_preserve_meaning():
    rng = random.Random(42)
    for _ in range(80):
        f = random_formula(rng)
        g = nnf(f)
        clauses = dnf(f)
        for _ in range(25):
            env = {v: rng.randint(0, 9) for v in ("x", "y", "z")}
            want = evaluate(f, env)
            assert evaluate(g, env) == want
            got = any(all(evaluate(a, env) for a in cl) for cl in clauses)
            assert got == want


def test_nnf_has_no_negations():
    def no_not(f):
        if isinstance(f, Not):
            return False
        if isinstance(f, (And, Or)):
            return all(no_not(c) for c in f.children)
        return True

    rng = random.Random(8)
    for _ in range(40):
        assert no_not(nnf(random_formula(rng)))


def test_dnf_cap():
    pairs = [disj(Comparison(var(f"x{i}"), "="), Comparison(var(f"x{i}"), ">"))
             for i in range(20)]
    with pytest.raises(BudgetExceededError):
        dnf(And(tuple(pairs)))


# --- existential solving -----------------------------------------------------

def test_exists_frozen_cases():
    f = conj(eq(X.plus(Y), const(5)), Comparison(X.shifted(-3), ">="))
    sol = exists_solution(f)
    assert sol is not None and sol["x"] + sol["y"] == 5 and sol["x"] >= 3

    assert exists_solution(Comparison(X, "<")) is None  # x < 0 over naturals
    assert exists_solution(eq(X.times(2), const(3))) is None  # parity

    crt = conj(Congruence(X.shifted(-1), 2), Congruence(X.shifted(-2), 3))
    sol = exists_solution(crt)
    assert sol is not None and sol["x"] % 2 == 1 and sol["x"] % 3 == 2

    assert exists_solution(conj(Congruence(X.shifted(-1), 2), Congruence(X, 2))) is None



def test_exists_constant_false_row_is_unsatisfiable():
    # -4 >= 0 fails whatever the other rows allow; the solver must say so
    # at once rather than search the box of the satisfiable rows
    f = conj(Comparison(LinearTerm.build({"x1": 1, "x3": 2}, 3), ">="),
             Comparison(const(-4), ">="),
             Comparison(LinearTerm.build({"x1": 2, "x2": 1, "x3": -2}, -3), ">="))
    assert exists_solution(f, node_budget=1_000) is None
    # a constant row that holds changes nothing
    f = conj(Comparison(const(4), ">="), Comparison(X.shifted(-3), ">="))
    assert exists_solution(f) == {"x": 3}


def test_exists_arity_limit():
    f = And(tuple(Comparison(var(f"v{i}"), ">=") for i in range(5)))
    with pytest.raises(ArityError):
        exists_solution(f)


def test_exists_residue_combo_cap():
    f = And(tuple(Congruence(var(v), 211) for v in ("a", "b", "c", "d")))
    with pytest.raises(BudgetExceededError):
        exists_solution(f)


def test_exists_node_budget_exhausted():
    # x = 3, y = 2 is found only after a branch; one node is not enough
    f = conj(eq(X.plus(Y), const(5)), eq(X.minus(Y), const(1)))
    assert exists_solution(f) == {"x": 3, "y": 2}
    with pytest.raises(BudgetExceededError, match="node budget exhausted"):
        exists_solution(f, node_budget=1)


def test_small_model_bound_past_24_rows_covers_every_subdeterminant():
    # above 24 rows the bound is a Hadamard estimate, not an enumeration; it
    # must still be at least (n + 1) times the largest subdeterminant
    rng = random.Random(2203)
    for _ in range(20):
        vars_ = ["x", "y"][:rng.randint(1, 2)]
        rows = [({v: rng.randint(-6, 6) for v in vars_}, rng.randint(-30, 30))
                for _ in range(rng.randint(25, 30))]
        mat = [[-coeffs[v] for v in vars_] + [k] for coeffs, k in rows]
        mat += [[-1 if j == i else 0 for j in range(len(vars_))] + [0]
                for i in range(len(vars_))]
        ncols = len(vars_) + 1
        largest = max(abs(_det([[mat[r][c] for c in cset] for r in rset]))
                      for size in range(1, ncols + 1)
                      for rset in itertools.combinations(range(len(mat)), size)
                      for cset in itertools.combinations(range(ncols), size))
        assert _small_model_bound(rows, vars_) >= ncols * largest


def test_exists_against_brute_force():
    rng = random.Random(20260822)
    box = 12
    for _ in range(120):
        f = random_formula(rng, depth=2)
        vs = variables(f)
        brute = None
        for xv in range(box + 1):
            for yv in range(box + 1):
                for zv in range(box + 1):
                    env = {"x": xv, "y": yv, "z": zv}
                    if evaluate(f, {v: env[v] for v in vs} if vs else {}):
                        brute = env
                        break
                if brute:
                    break
            if brute:
                break
        try:
            got = exists_solution(f)
        except BudgetExceededError:
            continue
        if brute is not None:
            assert got is not None, f"missed satisfiable formula {f}"
        if got is not None:
            assert evaluate(f, got)


# --- quasi-ordering checks ---------------------------------------------------

def test_quasi_ordering_verdicts():
    assert is_quasi_ordering(leq(X, Y)).is_qo
    assert is_quasi_ordering(leq(Y, X)).is_qo
    assert is_quasi_ordering(Congruence(X.minus(Y), 2)).is_qo  # equivalence relation

    strict = Comparison(X.minus(Y), "<")
    v = is_quasi_ordering(strict)
    assert not v.is_qo and v.failed_axiom == "reflexivity"

    # y between x and 2x: reflexive but not transitive
    band = conj(leq(X, Y), leq(Y, X.times(2)))
    v = is_quasi_ordering(band)
    assert not v.is_qo and v.failed_axiom == "transitivity"
    cx, cy, cz = v.counterexample["x"], v.counterexample["y"], v.counterexample["z"]
    assert cx <= cy <= 2 * cx and cy <= cz <= 2 * cy and not (cx <= cz <= 2 * cx)


def test_quasi_ordering_arity_guard():
    with pytest.raises(ArityError):
        is_quasi_ordering(leq(X, Z))


def test_rename_is_simultaneous():
    f = leq(X, Y)
    g = rename(f, {"x": "y", "y": "x"})
    assert evaluate(g, {"x": 3, "y": 1})
    assert not evaluate(g, {"x": 1, "y": 3})


# --- the refuting sweep before the small-model bound --------------------------

def solve_rows_without_sweep(rows, vars_, node_budget):
    """The search of ``_solve_rows`` with no sweep before the bound."""
    if any(k < 0 for coeffs, k in rows if not coeffs):
        return None
    if not vars_:
        return {}
    if not rows:
        return {v: 0 for v in vars_}
    bound = presburger._small_model_bound(rows, vars_)

    def propagate(lo, hi):
        changed = True
        while changed:
            changed = False
            for coeffs, k in rows:
                for v, cv in coeffs.items():
                    rest = k + sum(cw * (hi[w] if cw > 0 else lo[w])
                                   for w, cw in coeffs.items() if w != v)
                    if cv > 0:
                        need = -(rest // cv)
                        if need > lo[v]:
                            lo[v], changed = need, True
                    elif rest // -cv < hi[v]:
                        hi[v], changed = rest // -cv, True
                    if lo[v] > hi[v]:
                        return False
        return True

    def dfs(lo, hi):
        if not propagate(lo, hi):
            return None
        open_vars = [v for v in vars_ if lo[v] < hi[v]]
        if not open_vars:
            ok = all(sum(c * lo[v] for v, c in coeffs.items()) + k >= 0
                     for coeffs, k in rows)
            return dict(lo) if ok else None
        v = min(open_vars, key=lambda v: hi[v] - lo[v])
        for val in range(lo[v], hi[v] + 1):
            node_budget[0] -= 1
            if node_budget[0] < 0:
                raise BudgetExceededError("existential solver node budget exhausted")
            got = dfs({**lo, v: val}, {**hi, v: val})
            if got is not None:
                return got
        return None

    return dfs({v: 0 for v in vars_}, {v: bound for v in vars_})


def random_row_system(rng: random.Random):
    """1-4 variables, 1-6 rows, coefficients -3..3, constants -10..10."""
    vars_ = ["a", "b", "c", "d"][:rng.randint(1, 4)]
    rows = []
    for _ in range(rng.randint(1, 6)):
        coeffs = {v: c for v in vars_ if (c := rng.randint(-3, 3))}
        rows.append((coeffs, rng.randint(-10, 10)))
    return rows, vars_


def solve_outcome(solve, rows, vars_, budget):
    left = [budget]
    try:
        return solve(rows, vars_, left), left[0], None
    except BudgetExceededError as e:
        return None, left[0], str(e)


def test_refuting_sweep_changes_no_result_budget_or_error(monkeypatch):
    # both paths read one bound per system, computed once
    bounds = {}

    def cached(rows, vars_):
        key = repr((rows, vars_))
        if key not in bounds:
            bounds[key] = _small_model_bound(rows, vars_)
        return bounds[key]

    monkeypatch.setattr(presburger, "_small_model_bound", cached)
    rng = random.Random(2727)
    refuted = 0
    for _ in range(2000):
        rows, vars_ = random_row_system(rng)
        budget = rng.choice((5, 50, 500_000))
        want = solve_outcome(solve_rows_without_sweep, rows, vars_, budget)
        assert solve_outcome(_solve_rows, rows, vars_, budget) == want, rows
        refuted += _tighten(rows, dict.fromkeys(vars_, 0), {}) is None
    # the family must exercise the sweep, not only the search
    assert refuted > 500


def test_refuting_sweep_refutes_only_systems_without_solutions():
    rng = random.Random(2728)
    refuted = 0
    for _ in range(500):
        rows, vars_ = random_row_system(rng)
        if _tighten(rows, dict.fromkeys(vars_, 0), {}) is not None:
            continue
        refuted += 1
        for point in itertools.product(range(13), repeat=len(vars_)):
            env = dict(zip(vars_, point))
            assert not all(sum(c * env[v] for v, c in coeffs.items()) + k >= 0
                           for coeffs, k in rows), (rows, env)
    assert refuted > 100


def test_refuting_sweep_skips_the_small_model_bound(monkeypatch):
    calls = []

    def counting(rows, vars_):
        calls.append(rows)
        return _small_model_bound(rows, vars_)

    monkeypatch.setattr(presburger, "_small_model_bound", counting)
    # x + y <= 2 and x >= 3: the sweep raises x to 3 and caps it at 2
    f = conj(leq(X.plus(Y), const(2)), Comparison(X.shifted(-3), ">="))
    assert exists_solution(f) is None
    assert calls == []
    # a system the sweep cannot refute still pays for the bound
    assert exists_solution(conj(leq(X.plus(Y), const(2)),
                                Comparison(X.shifted(-1), ">="))) == {"x": 1, "y": 0}
    assert len(calls) == 1


def test_refuting_sweep_takes_no_bound_from_an_unknown_upper_bound():
    # x - y - 1 >= 0 and y - x - 1 >= 0 has no solution, but with no upper
    # bound for either variable no sweep can say so: each only raises the
    # other's lower bound, so the sweep must stop after one pass
    rows = [({"x": 1, "y": -1}, -1), ({"x": -1, "y": 1}, -1)]
    lo, hi = {"x": 0, "y": 0}, {}
    assert _tighten(rows, lo, hi) is True
    assert lo == {"x": 1, "y": 2} and hi == {}
    assert _solve_rows(rows, ["x", "y"], [500_000]) is None
