"""Differential tests: the package's simplex against HiGHS (through scipy)
on random sparse LPs with >= and = rows, boxed, one-sided and free
columns, solved cold (also under caller bounds on the surpluses),
re-solved warm down a small branching tree, and re-solved warm over
capacities on one engine; LPs built around single-entry >= rows, which
the engine keeps as column bounds, with their duals and reduced costs
checked as a certificate; and the face minimum of a second objective
over a random dispatch LP's optima. Integer data keeps every vertex
rational with small denominators, so feasibility and optimality are
never decided by rounding."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

from storageshare.lp import Rows, build_party_lp
from storageshare.simplex import Simplex
from tests.conftest import rand_instance
from tests.lp_oracle import dual_objective, make_lp

_ENTRIES = st.sampled_from([-3, -2, -1, 0, 0, 0, 0, 0, 0, 1, 2, 3])
_KINDS = ("box", "box", "lower", "upper", "free", "fixed")  # column bounds, boxes twice as often


@st.composite
def sparse_lps(draw):
    n = draw(st.integers(1, 8))
    n_g = draw(st.integers(0, 6))
    n_h = draw(st.integers(0, 3))
    a_g = draw(hnp.arrays(float, (n_g, n), elements=_ENTRIES))
    a_h = draw(hnp.arrays(float, (n_h, n), elements=_ENTRIES))
    b_g = draw(hnp.arrays(float, n_g, elements=st.integers(-6, 6)))
    b_h = draw(hnp.arrays(float, n_h, elements=st.integers(-6, 6)))
    c = draw(hnp.arrays(float, n, elements=st.integers(-5, 5)))
    lb, ub = np.full(n, -np.inf), np.full(n, np.inf)
    for j in range(n):
        kind = draw(st.sampled_from(_KINDS))
        low = draw(st.integers(-3, 3))
        if kind in ("box", "lower", "fixed"):
            lb[j] = low
        if kind == "box":
            ub[j] = low + draw(st.integers(1, 5))
        elif kind in ("upper", "fixed"):
            ub[j] = low
    return make_lp(c, a_ub=a_g, b_ub=b_g, a_eq=a_h, b_eq=b_h, lb=lb, ub=ub)


def with_kappa(lp, g_coef, h_coef, kappa):
    """lp over one more, last column kappa, fixed by its bounds at kappa,
    with coefficient g_coef[i] on inequality row i and h_coef[m] on
    equality row m."""
    n = lp.n_vars
    return replace(lp, c=np.append(lp.c, 0.0), lb=np.append(lp.lb, kappa),
                   ub=np.append(lp.ub, kappa),
                   g=Rows.from_dense(np.column_stack([lp.g.dense(n), g_coef])),
                   h=Rows.from_dense(np.column_stack([lp.h.dense(n), h_coef])))


@st.composite
def marked_lps(draw):
    """A sparse LP plus a last column kappa, the capacity, that some rows
    hold. At kappa = 0 it is feasible: its right-hand sides are read off an
    integer point within the bounds, less an integer slack on the >= rows."""
    lp = draw(sparse_lps())
    x0 = np.clip(draw(hnp.arrays(float, lp.n_vars, elements=st.integers(-3, 3))),
                 lp.lb, lp.ub)
    slack = draw(hnp.arrays(float, lp.n_g, elements=st.integers(0, 2)))
    coef = st.sampled_from([-2, -1, 0, 0, 0, 1, 2])
    lp = replace(lp, b_g=lp.g.dot(x0) - slack, b_h=lp.h.dot(x0))
    return with_kappa(lp, draw(hnp.arrays(float, lp.n_g, elements=coef)),
                      draw(hnp.arrays(float, lp.n_h, elements=coef)), 0.0)


def _highs(lp, c, **options):
    return linprog(
        c,
        A_ub=-lp.g.dense(lp.n_vars) if lp.n_g else None,
        b_ub=-lp.b_g if lp.n_g else None,
        A_eq=lp.h.dense(lp.n_vars) if lp.n_h else None,
        b_eq=lp.b_h if lp.n_h else None,
        bounds=[(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
                for lo, hi in zip(lp.lb, lp.ub)],
        method="highs",
        options=options,
    )


def _reference(lp):
    """(status, objective) from HiGHS. Feasibility is decided first on a
    zero objective, because HiGHS may report "unbounded or infeasible"."""
    if _highs(lp, np.zeros(lp.n_vars)).status == 2:
        return "infeasible", None
    res = _highs(lp, lp.c)
    if res.status == 2:  # presolve may call a feasible unbounded LP infeasible
        res = _highs(lp, lp.c, presolve=False)
    if res.status == 0:
        return "optimal", res.fun + lp.objective_constant
    assert res.status in (3, 4), res.message  # feasible: unbounded is all that is left
    return "unbounded", None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sparse_lps())
# a free column that appears in no row, with a nonzero cost
@example(make_lp([0.0, 1.0], a_ub=[[1.0, 0.0]], b_ub=[1.0], lb=[0.0, -np.inf], ub=[2.0, np.inf]))
# x + y >= 2 and x + y = 1
@example(make_lp([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]))
# a zero equality row (dependent: its artificial stays basic) beside a fixed column
@example(make_lp([-1.0, 2.0], a_ub=[[1.0, -1.0]], b_ub=[-2.0], a_eq=[[0.0, 0.0]], b_eq=[0.0],
                 lb=[0.0, 1.0], ub=[4.0, 1.0]))
# feasible (zero cost) and unbounded, which HiGHS's presolve calls infeasible
@example(make_lp(np.ones(5), a_ub=[[-3, -3, -3, -3, -3], [-3, -3, -3, 1, -3],
                                   [-3, -3, -3, -3, 1], [-3, -3, 1, -3, -3]],
                 b_ub=np.zeros(4), lb=[0.0, 0.0, -np.inf, -np.inf, -np.inf],
                 ub=[1.0, 1.0, 0.0, 0.0, -1.0]))
def test_engine_matches_highs(lp):
    status, objective = _reference(lp)
    sol = Simplex(lp).solve()
    assert sol.status == status
    if status == "optimal":
        assert sol.objective == pytest.approx(objective, rel=1e-7, abs=1e-7)


@st.composite
def surplus_bounded_lps(draw):
    """A sparse LP with caller bounds over its columns and surpluses: each
    row's surplus keeps [0, inf) or takes a lower bound above 0, a finite
    upper bound or lo = hi (a pin, as complementarity branching sets)."""
    lp = draw(sparse_lps())
    lo = np.concatenate([lp.lb, np.zeros(lp.n_g)])
    hi = np.concatenate([lp.ub, np.full(lp.n_g, np.inf)])
    for s in range(lp.n_vars, lp.n_vars + lp.n_g):
        kind = draw(st.sampled_from(("default", "above", "capped", "pinned")))
        if kind == "above":
            lo[s] = draw(st.integers(1, 3))
        elif kind == "capped":
            hi[s] = draw(st.integers(0, 4))
        elif kind == "pinned":
            lo[s] = hi[s] = draw(st.integers(0, 2))
    return lp, lo, hi


def _rows_between(lp, lo, hi):
    """lp with each >= row g x >= b replaced by b + lo_s <= g x <= b + hi_s."""
    g, b = lp.g.dense(lp.n_vars), lp.b_g
    lo_s, hi_s = lo[lp.n_vars:], hi[lp.n_vars:]
    capped = np.isfinite(hi_s)
    return make_lp(lp.c, a_ub=np.vstack([g, -g[capped]]),
                   b_ub=np.concatenate([b + lo_s, -(b + hi_s)[capped]]),
                   a_eq=lp.h.dense(lp.n_vars), b_eq=lp.b_h, lb=lp.lb, ub=lp.ub,
                   objective_constant=lp.objective_constant)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(surplus_bounded_lps())
# x + y >= 1 pinned to equality, which the start point x = y = 0 violates,
# and x - y >= -3 with its surplus in [1, 2], which the start misses
@example((make_lp([1.0, 1.0], a_ub=[[1.0, 1.0], [1.0, -1.0]], b_ub=[1.0, -3.0],
                  lb=[0.0, 0.0], ub=[5.0, 5.0]),
          np.array([0.0, 0.0, 0.0, 1.0]), np.array([5.0, 5.0, 0.0, 2.0])))
def test_cold_solves_under_surplus_bounds_match_highs(case):
    """A cold start puts a row on its surplus only where the start point
    leaves that surplus within the caller's bounds; every kind of bound
    must give HiGHS's answer on the rows the bounds describe."""
    lp, lo, hi = case
    status, objective = _reference(_rows_between(lp, lo, hi))
    sol = Simplex(lp).solve(lo, hi)
    assert sol.status == status
    if status == "optimal":
        assert sol.objective == pytest.approx(objective, rel=1e-9, abs=1e-9)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sparse_lps(), st.lists(st.integers(0, 7), min_size=3, max_size=3))
# no rows at all: the dual loop has no basic row to inspect
@example(make_lp([0.0], lb=[0.0], ub=[1.0]), [0, 0, 0])
def test_warm_tree_matches_highs(lp, picks):
    """Branch on a column at floor(x_j) twice: both children re-solve from
    their parent's final basis (siblings share it), and every node must
    agree with HiGHS on the tightened bounds."""
    eng = Simplex(lp)
    root = eng.solve()
    if root.status != "optimal":
        return
    base_lo = np.concatenate([lp.lb, np.zeros(lp.n_g)])
    base_hi = np.concatenate([lp.ub, np.full(lp.n_g, np.inf)])
    level = [(root, eng.snapshot(), base_lo, base_hi)]
    picks = iter(picks)
    for _ in range(2):  # children, then grandchildren
        nxt = []
        for sol, snap, lo, hi in level:
            j = next(picks, 0) % lp.n_vars
            cut = np.floor(sol.x[j])
            left_hi, right_lo = hi.copy(), lo.copy()
            left_hi[j] = min(hi[j], cut)
            right_lo[j] = max(lo[j], cut + 1.0)
            for child_lo, child_hi in ((lo, left_hi), (right_lo, hi)):
                warm = eng.resolve(snap, child_lo, child_hi)
                if np.any(child_lo > child_hi):
                    status, objective = "infeasible", None
                else:
                    status, objective = _reference(
                        replace(lp, lb=child_lo[: lp.n_vars], ub=child_hi[: lp.n_vars]))
                assert warm.status == status
                if status == "optimal":
                    assert warm.objective == pytest.approx(objective, rel=1e-7, abs=1e-7)
                    nxt.append((warm, eng.snapshot(), child_lo, child_hi))
        level = nxt


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(marked_lps(), st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 7.0]),
                              min_size=2, max_size=6))
# x >= kappa and x <= 2: infeasible at 3, optimal again at 1.5
@example(make_lp([1.0, 0.0], a_ub=[[1.0, -1.0], [-1.0, 0.0]], b_ub=[0.0, -2.0],
                 lb=[-np.inf, 0.0], ub=[np.inf, 0.0]), [1.0, 3.0, 1.5, 3.0, 0.0])
def test_capacity_family_matches_highs(lp, caps):
    """One engine swept over the capacities, each re-solved warm from the
    last optimal basis with kappa's bounds moved (Simplex.resolve, as
    CapacityPath.flow_face re-solves), agrees with HiGHS on the LP with
    each capacity baked in; a capacity that makes the LP infeasible must
    leave the next warm start intact."""
    eng, snap = Simplex(lp), None
    for cap in caps:
        lo, hi = eng.base_lo.copy(), eng.base_hi.copy()
        lo[lp.n_vars - 1] = hi[lp.n_vars - 1] = cap
        sol = eng.solve(lo, hi) if snap is None else eng.resolve(snap, lo, hi)
        if sol.status == "optimal":
            snap = eng.snapshot()
        status, objective = _reference(replace(lp, lb=np.append(lp.lb[:-1], cap),
                                               ub=np.append(lp.ub[:-1], cap)))
        assert sol.status == status
        if status == "optimal":
            assert sol.objective == pytest.approx(objective, rel=1e-7, abs=1e-7)


_SIGNED = st.sampled_from([-3, -2, -1, 1, 2, 3])


@st.composite
def singleton_lps(draw):
    """A sparse LP plus 1-6 single-entry >= rows a x_j >= b. Right-hand
    sides are read off an integer point within the column bounds, less an
    integer slack: 0-2 on the LP's rows, -1-2 on the single-entry ones, so
    those may cut the point off. Columns draw from at most three, so two
    rows often share one; coefficients of both signs give lower and upper
    bounds, inside, on or outside the column's own. Some of the LP's rows
    hold a last column kappa, the capacity, fixed at a drawn value."""
    lp = draw(sparse_lps())
    n = lp.n_vars
    x0 = np.clip(draw(hnp.arrays(float, n, elements=st.integers(-3, 3))), lp.lb, lp.ub)
    k = draw(st.integers(1, 6))
    cols = draw(hnp.arrays(np.int64, k, elements=st.integers(0, min(n, 3) - 1)))
    coef = draw(hnp.arrays(float, k, elements=_SIGNED))
    singles = Rows.from_lists(cols[:, None], coef[:, None])
    slack = np.concatenate([draw(hnp.arrays(float, lp.n_g, elements=st.integers(0, 2))),
                            draw(hnp.arrays(float, k, elements=st.integers(-1, 2)))])
    g = Rows.stack([lp.g, singles])
    g_coef = np.append(draw(hnp.arrays(float, lp.n_g, elements=st.sampled_from([-1, 0, 0, 1]))),
                       np.zeros(k))
    kappa = float(draw(st.sampled_from([0, 1, 2])))
    lp = with_kappa(replace(lp, g=g), g_coef, np.zeros(lp.n_h), kappa)
    x0 = np.append(x0, kappa)
    return replace(lp, b_g=lp.g.dot(x0) - slack, b_h=lp.h.dot(x0))


def _assert_certificate(lp, sol, pinned=()):
    """sol's multipliers prove its optimality: dual_g >= 0 off the pinned
    rows, complementary with the row slacks, reduced costs equal to
    c - A'y, and the bound-aware dual objective equals the primal one."""
    slack = lp.g.dot(sol.x) - lp.b_g
    free = np.setdiff1d(np.arange(lp.n_g), pinned)
    assert np.all(sol.dual_g[free] >= 0.0)
    np.testing.assert_allclose(sol.dual_g * slack, 0.0, atol=1e-7)
    want = lp.c - lp.g.dense(lp.n_vars).T @ sol.dual_g - lp.h.dense(lp.n_vars).T @ sol.dual_h
    np.testing.assert_allclose(sol.reduced_costs, want, rtol=0, atol=1e-9)
    if len(pinned) == 0:
        assert dual_objective(lp, sol) == pytest.approx(sol.objective, rel=1e-7, abs=1e-7)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(singleton_lps())
# 2x >= 2 (x >= 1) on a column with lb 0 (looser) and on one with lb 3 (tighter)
@example(make_lp([1.0, 1.0], a_ub=[[2.0, 0.0], [0.0, 2.0]], b_ub=[2.0, 2.0],
                 lb=[0.0, 3.0], ub=[5.0, 5.0]))
# x >= 0 as a row and as the column's own bound: the row takes the dual
@example(make_lp([1.0], a_ub=[[1.0]], b_ub=[0.0], lb=[0.0], ub=[4.0]))
# -2x >= -4 (x <= 2) and 3x >= 3 (x >= 1) on one free column, and x >= 2 too
@example(make_lp([-1.0, 1.0], a_ub=[[-2.0, 0.0], [3.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
                 b_ub=[-4.0, 3.0, 2.0, 0.0]))
# two rows setting the same bound, x >= 1 and 2x >= 2
@example(make_lp([1.0], a_ub=[[1.0], [2.0]], b_ub=[1.0, 2.0]))
# rows that empty the column's range
@example(make_lp([0.0], a_ub=[[1.0], [-1.0]], b_ub=[2.0, -1.0]))
# a row on the capacity, x - 2 kappa >= -1 at kappa = 2, beside a single -y >= -4
@example(make_lp([1.0, -1.0, 0.0], a_ub=[[1.0, 0.0, -2.0], [0.0, -1.0, 0.0]], b_ub=[-1.0, -4.0],
                 lb=[-np.inf, -np.inf, 2.0], ub=[np.inf, np.inf, 2.0]))
def test_singleton_rows_match_highs(lp):
    status, objective = _reference(lp)
    sol = Simplex(lp).solve()
    assert sol.status == status
    if status == "optimal":
        assert sol.objective == pytest.approx(objective, rel=1e-7, abs=1e-7)
        _assert_certificate(lp, sol)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(singleton_lps(), st.lists(st.integers(0, 11), min_size=1, max_size=4))
def test_pinned_singletons_match_cold(lp, picks):
    """Pin single-entry rows to equality one after another (their surplus
    at lo = hi = 0, as complementarity branching does), each warm from the
    last optimum, and compare with a cold solve at the same bounds."""
    eng = Simplex(lp)
    sol = eng.solve()
    if sol.status != "optimal":
        return
    singles = np.flatnonzero(np.diff(lp.g.indptr) == 1)
    lo, hi = eng.base_lo.copy(), eng.base_hi.copy()
    pinned = []
    for pick in picks:
        row = int(singles[pick % singles.size])
        hi[lp.n_vars + row] = 0.0
        pinned.append(row)
        warm = eng.resolve(eng.snapshot(), lo, hi)
        cold = Simplex(lp).solve(lo, hi)
        assert warm.status == cold.status
        if warm.status != "optimal":
            return
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(lp.g.dot(warm.x)[pinned], lp.b_g[pinned], atol=1e-9)
        _assert_certificate(lp, warm, pinned)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.floats(0.0, 1.0))
def test_face_minimum_matches_highs(seed, lossless, disco, share):
    """On a random customer or utility dispatch LP, face_minimum keeps c.x
    at the optimum f* and reaches HiGHS's minimum of a random second
    objective over the LP's rows plus c.x <= f*."""
    g = np.random.default_rng(seed)
    kw = dict(eta_ch=1.0, eta_dis=1.0) if lossless else {}  # lossless: degenerate optima
    inst = rand_instance(g, t=int(g.integers(3, 7)), **kw)
    cap = share * inst.storage.total_capacity
    lp = build_party_lp(inst, inst.customer_count if disco else 0, cap)
    grad = g.normal(size=lp.n_vars)
    eng = Simplex(lp)
    sol = eng.solve()
    assert sol.status == "optimal"
    f_star = sol.objective - lp.objective_constant
    x = eng.face_minimum(grad)
    assert abs(float(lp.c @ x) - f_star) <= 1e-9 * (1.0 + abs(f_star))
    tight = dict(primal_feasibility_tolerance=1e-10, dual_feasibility_tolerance=1e-10)
    ref = linprog(
        grad,
        A_ub=np.vstack([-lp.g.dense(lp.n_vars), lp.c]),
        b_ub=np.concatenate([-lp.b_g, [f_star]]),
        A_eq=lp.h.dense(lp.n_vars) if lp.n_h else None,
        b_eq=lp.b_h if lp.n_h else None,
        bounds=[(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
                for lo, hi in zip(lp.lb, lp.ub)],
        method="highs",
        options=tight,
    )
    assert ref.status == 0, ref.message
    assert float(grad @ x) <= ref.fun + 1e-7
