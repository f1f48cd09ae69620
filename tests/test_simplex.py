from collections import OrderedDict

import numpy as np
import pytest

from storageshare import simplex, solver
from storageshare.lp import build_party_lp, evaluate, no_battery_start
from storageshare.mpec import assemble_mpec
from storageshare.simplex import (
    AT_LB,
    AT_UB,
    BASIC,
    FREE,
    CapacityPath,
    Simplex,
    SimplexError,
    _DUAL_TOL,
    _initial_status,
    _pivot_inverse,
    _reanchor,
    day_paths,
)
from tests.conftest import (
    DIVISION_FIXTURES,
    assert_lower_level_optimal,
    corrupted_starts,
    day_long,
    division_fixture_n2,
    interior_fixture,
    rand_instance,
    stress_fixture,
)
from tests.lp_oracle import (
    brute_optimum,
    check_kkt_residuals,
    derive_kkt,
    dual_objective,
    make_lp,
    random_feasible_lp,
)
from tests.test_lp_build import scipy_solve


def test_small_lp_by_hand():
    # min -x - 2y  s.t.  x + y <= 4, y <= 3, 0 <= x,y  ->  (1, 3), obj -7
    lp = make_lp(
        c=[-1.0, -2.0],
        a_ub=[[-1.0, -1.0], [0.0, -1.0]],
        b_ub=[-4.0, -3.0],
        lb=[0.0, 0.0],
    )
    sol = Simplex(lp).solve()
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-7.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [1.0, 3.0], atol=1e-9)


def test_equality_only():
    # min x + y  s.t.  x + y = 2, x - y = 0
    lp = make_lp(c=[1.0, 1.0], a_eq=[[1.0, 1.0], [1.0, -1.0]], b_eq=[2.0, 0.0])
    sol = Simplex(lp).solve()
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-9)


def test_infeasible_detected():
    # x >= 2 and x <= 1
    lp = make_lp(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[2.0, -1.0])
    assert Simplex(lp).solve().status == "infeasible"


def test_unbounded_detected():
    lp = make_lp(c=[-1.0], a_ub=[[1.0]], b_ub=[0.0])
    assert Simplex(lp).solve().status == "unbounded"


def test_fixed_variables_respected():
    lp = make_lp(c=[-1.0, -1.0], lb=[2.0, 0.0], ub=[2.0, 3.0])
    sol = Simplex(lp).solve()
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [2.0, 3.0], atol=1e-12)


def test_redundant_rows_and_degenerate_vertex():
    # three copies of the same facet passing through the optimum
    lp = make_lp(
        c=[1.0, 1.0],
        a_ub=[[1.0, 1.0]] * 3 + [[1.0, 0.0]],
        b_ub=[1.0, 1.0, 1.0, 0.0],
        lb=[0.0, 0.0],
        ub=[5.0, 5.0],
    )
    sol = Simplex(lp).solve()
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_beale_cycling_instance_terminates():
    # the standard cycling example for Dantzig pricing; anti-cycling must
    # kick in and the optimum is -1/20
    a = [
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b = [0.0, 0.0, 1.0]
    lp = make_lp(
        c=[-0.75, 150.0, -1.0 / 50.0, 6.0],
        a_ub=[[-v for v in row] for row in a],
        b_ub=[-v for v in b],
        lb=[0.0] * 4,
    )
    sol = Simplex(lp).solve()
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)
    want, _ = brute_optimum(
        make_lp(
            c=lp.c,
            a_ub=[[-v for v in row] for row in a],
            b_ub=[-v for v in b],
            lb=[0.0] * 4,
            ub=[100.0] * 4,  # box only to make enumeration finite
        )
    )
    assert sol.objective == pytest.approx(want, abs=1e-9)


def test_matches_vertex_enumeration(rng):
    for _ in range(40):
        lp = random_feasible_lp(rng, n_vars=int(rng.integers(2, 5)),
                                n_g=int(rng.integers(1, 7)))
        want, _ = brute_optimum(lp)
        sol = Simplex(lp).solve()
        assert sol.status == "optimal"
        assert want is not None
        assert sol.objective == pytest.approx(want, abs=1e-9, rel=1e-9)


def test_strong_duality_random(rng):
    for _ in range(40):
        lp = random_feasible_lp(rng)
        sol = Simplex(lp).solve()
        assert sol.status == "optimal"
        gap = sol.objective - dual_objective(lp, sol)
        assert abs(gap) <= 1e-7
        assert np.all(sol.dual_g >= -1e-9)
        # complementary slackness on rows
        slack = lp.g.dense(lp.n_vars) @ sol.x - lp.b_g
        assert float(np.max(np.abs(sol.dual_g * slack))) <= 1e-6


def test_llm_solves_match_scipy(rng):
    for _ in range(12):
        inst = rand_instance(rng)
        cap = inst.storage.total_capacity * float(rng.uniform(0.2, 1.0))
        for lp in (build_party_lp(inst, p, cap) for p in (0, inst.customer_count)):
            sol = Simplex(lp).solve()
            assert sol.status == "optimal"
            _, want = scipy_solve(lp)
            assert sol.objective == pytest.approx(want, abs=1e-8, rel=1e-8)
            ev = evaluate(lp, sol.x)
            assert ev.feasible(1e-8)


def test_warm_resolve_matches_cold(rng):
    for _ in range(30):
        lp = random_feasible_lp(rng)
        eng = Simplex(lp)
        base = eng.solve()
        assert base.status == "optimal"
        snap = eng.snapshot()
        lo = np.concatenate([lp.lb, np.zeros(lp.n_g)])
        hi = np.concatenate([lp.ub, np.full(lp.n_g, np.inf)])
        # tighten a random structural variable around the current optimum
        j = int(rng.integers(0, lp.n_vars))
        hi[j] = float(np.clip(base.x[j] - rng.uniform(0.1, 1.0), lp.lb[j], lp.ub[j]))
        warm = eng.resolve(snap, lo, hi)
        cold = Simplex(lp).solve(lo, hi)
        assert warm.status == cold.status
        if warm.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, abs=1e-8, rel=1e-8)


def test_warm_resolve_row_to_equality(rng):
    # pinning a surplus column to zero turns its row into an equality
    for _ in range(10):
        lp = random_feasible_lp(rng, n_vars=4, n_g=4, n_h=1)
        eng = Simplex(lp)
        base = eng.solve()
        assert base.status == "optimal"
        snap = eng.snapshot()
        lo = np.concatenate([lp.lb, np.zeros(lp.n_g)])
        hi = np.concatenate([lp.ub, np.full(lp.n_g, np.inf)])
        hi[lp.n_vars + 2] = 0.0  # row 2 forced tight
        warm = eng.resolve(snap, lo, hi)
        from scipy.optimize import linprog

        a_g = lp.g.dense(lp.n_vars)
        res = linprog(
            lp.c,
            A_ub=-np.delete(a_g, 2, axis=0),
            b_ub=-np.delete(lp.b_g, 2),
            A_eq=np.vstack([lp.h.dense(lp.n_vars), a_g[2]]),
            b_eq=np.concatenate([lp.b_h, [lp.b_g[2]]]),
            bounds=list(zip(lp.lb, lp.ub)),
            method="highs",
        )
        if res.status == 2:
            assert warm.status == "infeasible"
        else:
            assert res.status == 0
            assert warm.status == "optimal"
            assert warm.objective == pytest.approx(res.fun, abs=1e-8, rel=1e-8)


def test_dual_signs_on_llm(tiny_instance):
    lp = build_party_lp(tiny_instance, 0, 4.0)
    sol = Simplex(lp).solve()
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-3.96, abs=1e-9)
    assert np.all(sol.dual_g >= -1e-9)
    # free structural variables at an optimum carry zero reduced cost (the
    # last column, the capacity, is fixed)
    assert float(np.max(np.abs(sol.reduced_costs[:-1]))) <= 1e-9


def test_single_entry_rows_become_column_bounds():
    # 2x >= 2 and -y >= -3 keep no row; x + y >= 5 does
    lp = make_lp(c=[1.0, -1.0], a_ub=[[2.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                 b_ub=[2.0, -3.0, 5.0], lb=[1.0, -np.inf], ub=[np.inf, np.inf])
    eng = Simplex(lp)
    assert (eng.m, eng.nt) == (1, 3)
    sol = eng.solve()
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [2.0, 3.0])
    # y = 3 is held by row 1 (dual 2), x = 2 by row 2 (dual 1); row 0 is slack
    np.testing.assert_allclose(sol.dual_g, [0.0, 2.0, 1.0])
    np.testing.assert_allclose(sol.reduced_costs, [0.0, 0.0])
    # pinning row 0's surplus fixes x = 1, which leaves x + y >= 5 infeasible
    lo, hi = eng.base_lo.copy(), eng.base_hi.copy()
    hi[lp.n_vars] = 0.0
    assert eng.resolve(eng.snapshot(), lo, hi).status == "infeasible"


def test_folded_row_takes_the_dual_of_a_coinciding_bound():
    # x >= 0 as the column's bound and as the row 3x >= 0: the row gets it
    lp = make_lp(c=[2.0], a_ub=[[3.0]], b_ub=[0.0], lb=[0.0], ub=[4.0])
    sol = Simplex(lp).solve()
    np.testing.assert_allclose(sol.dual_g, [2.0 / 3.0])
    np.testing.assert_allclose(sol.reduced_costs, [0.0])
    # a row looser than the bound gets nothing: the column keeps it
    sol = Simplex(make_lp(c=[2.0], a_ub=[[3.0]], b_ub=[-3.0], lb=[0.0], ub=[4.0])).solve()
    np.testing.assert_allclose(sol.dual_g, [0.0])
    np.testing.assert_allclose(sol.reduced_costs, [2.0])


def test_tree_engine_keeps_no_sign_rows():
    # every dis_nonneg/ch_nonneg row of every party is a column bound
    mpec = assemble_mpec(dict(DIVISION_FIXTURES)["pair250"]())
    lp, t = mpec.lp, mpec.instance.grid.slot_count
    family = {lay.g0 + i: i // t for lay in mpec.parties() for i in range(lay.nw)}
    eng = Simplex(lp)
    folded = {family.get(int(i)) for i in eng._fold}  # None: a row outside the parties
    assert folded == {2, 3}  # dis_nonneg, ch_nonneg
    signs = sum(f in (2, 3) for f in family.values())
    assert eng.m == lp.n_g + lp.n_h - signs


def test_iteration_counter_moves(rng):
    lp = random_feasible_lp(rng, n_vars=6, n_g=8)
    sol = Simplex(lp).solve()
    assert sol.iterations > 0


# ------------------------------------------------- basis inverse maintenance


def _dense_a(eng):
    """The engine's A = [[G, -I], [H, 0]] as a dense m x nt array."""
    return eng.cols.dense(eng.m).T


def _basis_matrix(eng, basis=None):
    """Basis matrix built column by column: structural and surplus columns
    from the densified rows, artificial column nt+i as art_sign[i] e_i.
    basis defaults to the engine's current one."""
    bmat = np.zeros((eng.m, eng.m))
    a = _dense_a(eng)
    for p, j in enumerate(eng.basis if basis is None else basis):
        if j < eng.nt:
            bmat[:, p] = a[:, j]
        else:
            bmat[j - eng.nt, p] = eng.art_sign[j - eng.nt]
    return bmat


def _mixed_basis_engine(rng, n, n_g, n_h, n_single=0):
    """An engine with a random basis of structural, surplus and artificial
    columns over its own rows: the n_g dense >= rows and n_h equalities.
    The n_single single-entry >= rows that follow them fold into column
    bounds and own no row, surplus or artificial column."""
    single = np.zeros((n_single, n))
    single[np.arange(n_single), rng.integers(0, n, n_single)] = rng.choice([-1.0, 2.0], n_single)
    lp = make_lp(c=rng.standard_normal(n),
                 a_ub=np.vstack([rng.standard_normal((n_g, n)), single]),
                 b_ub=np.concatenate([rng.standard_normal(n_g), -np.ones(n_single)]),
                 a_eq=rng.standard_normal((n_h, n)), b_eq=rng.standard_normal(n_h),
                 lb=np.full(n, -1.0), ub=np.full(n, 2.0))
    eng = Simplex(lp)
    m = eng.m
    assert (eng.mg, m) == (n_g, n_g + n_h)
    eng.art_sign = rng.choice([-1.0, 1.0], m)
    lo, hi = eng._bounds(eng.base_lo, eng.base_hi)
    eng.lo = np.concatenate([lo, np.zeros(m)])
    eng.hi = np.concatenate([hi, np.zeros(m)])
    eng.status = np.full(eng.nt + m, AT_LB, dtype=np.int8)
    # one unit column per covered row (surplus where the row has one),
    # structural columns for the rest
    n_unit = int(rng.integers(max(0, m - n), m + 1))
    covered = rng.permutation(m)[:n_unit]
    units = [n + i if i < eng.mg and rng.random() < 0.5 else eng.nt + i for i in covered]
    structural = rng.permutation(n)[: m - n_unit]
    eng.basis = rng.permutation(np.concatenate([units, structural]).astype(int))
    eng.status[eng.basis] = BASIC
    return eng


def test_refactor_inverts_mixed_bases(rng):
    kinds = set()
    for _ in range(60):
        eng = _mixed_basis_engine(rng, n=int(rng.integers(3, 9)),
                                  n_g=int(rng.integers(1, 6)), n_h=int(rng.integers(0, 3)),
                                  n_single=int(rng.integers(0, 3)))
        eng._refactor()
        bmat = _basis_matrix(eng)
        np.testing.assert_allclose(eng.binv @ bmat, np.eye(eng.m), atol=1e-10)
        rhs = eng.b - _dense_a(eng) @ eng._nonbasic_values()
        np.testing.assert_allclose(bmat @ eng.xb, rhs, atol=1e-10)
        for j in eng.basis:
            if j < eng.n:
                kinds.add("structural")
            elif j < eng.nt:
                kinds.add("surplus")
            else:
                kinds.add(f"artificial{eng.art_sign[j - eng.nt]:+.0f}")
    assert kinds == {"structural", "surplus", "artificial+1", "artificial-1"}


def test_refactor_rejects_two_unit_columns_on_one_row(rng):
    eng = _mixed_basis_engine(rng, n=5, n_g=3, n_h=1, n_single=2)
    # surplus and artificial column of row 1, with and without structural columns
    for basis in ([0, 1, eng.n + 1, eng.nt + 1], [eng.n, eng.n + 1, eng.nt + 1, eng.nt + 3]):
        eng.basis = np.array(basis)
        with pytest.raises(SimplexError):
            eng._refactor()


def test_refactor_rejects_singular_structural_block():
    # rows 1 and 2 agree on columns 0 and 1, which are basic there
    lp = make_lp(c=[1.0, 1.0, 1.0],
                 a_ub=[[1.0, 2.0, 3.0]], b_ub=[0.0],
                 a_eq=[[0.7, -1.3, 2.0], [0.7, -1.3, 5.0]], b_eq=[1.0, 2.0])
    eng = Simplex(lp)
    eng.lo, eng.hi = np.zeros(eng.nt + eng.m), np.ones(eng.nt + eng.m)
    eng.status = np.full(eng.nt + eng.m, AT_LB, dtype=np.int8)
    eng.basis = np.array([0, eng.n, 1])
    with pytest.raises(SimplexError):
        eng._refactor()
    # a structural column that is zero on every uncovered row
    lp = make_lp(c=[1.0, 1.0, 1.0],
                 a_ub=[[1.0, 2.0, 3.0]], b_ub=[0.0],
                 a_eq=[[0.7, -1.3, 0.0], [0.7, -1.3, 5.0]], b_eq=[1.0, 2.0])
    eng = Simplex(lp)
    eng.lo, eng.hi = np.zeros(eng.nt + eng.m), np.ones(eng.nt + eng.m)
    eng.status = np.full(eng.nt + eng.m, AT_LB, dtype=np.int8)
    eng.basis = np.array([2, eng.n, eng.nt + 2])
    with pytest.raises(SimplexError):
        eng._refactor()


def test_pivot_update_matches_fresh_inverse(rng):
    # on a diagonal basis a pivot touches a small block of the inverse (the
    # gathered update), on a dense one the whole inverse (the outer product)
    for dense in (False, True):
        for _ in range(20):
            m = int(rng.integers(4, 12))
            bmat = rng.standard_normal((m, m)) if dense else np.diag(rng.uniform(1.0, 2.0, m))
            binv = np.linalg.inv(bmat)
            col = rng.standard_normal(m) * (rng.random(m) < (0.9 if dense else 0.3))
            r = int(rng.integers(0, m))
            col[r] = 1.0 + rng.random()
            bmat[:, r] = col
            w = binv @ col
            if abs(w[r]) < 1e-3:
                continue
            _pivot_inverse(binv, w, r)
            np.testing.assert_allclose(binv @ bmat, np.eye(m), atol=1e-8)


def _loop_initial_status(lo, hi):
    st = np.empty(lo.size, dtype=np.int8)
    for j in range(lo.size):
        if np.isfinite(lo[j]) and np.isfinite(hi[j]):
            st[j] = AT_LB if abs(lo[j]) <= abs(hi[j]) else AT_UB
        elif np.isfinite(lo[j]):
            st[j] = AT_LB
        elif np.isfinite(hi[j]):
            st[j] = AT_UB
        else:
            st[j] = FREE
    return st


def _loop_reanchor(status, nonbasic, lo, hi):
    for j in range(status.size):
        if not nonbasic[j]:
            continue
        st = status[j]
        if st == AT_LB and not np.isfinite(lo[j]):
            st = AT_UB if np.isfinite(hi[j]) else FREE
        elif st == AT_UB and not np.isfinite(hi[j]):
            st = AT_LB if np.isfinite(lo[j]) else FREE
        elif st == FREE and np.isfinite(lo[j]):
            st = AT_LB
        elif st == FREE and np.isfinite(hi[j]):
            st = AT_UB
        status[j] = st


def test_status_rules_match_loop_reference(rng):
    values = np.array([-np.inf, np.inf, -2.0, -1.0, 0.0, 1.0, 2.0])
    for _ in range(50):
        k = int(rng.integers(1, 40))
        lo, hi = rng.choice(values, k), rng.choice(values, k)
        np.testing.assert_array_equal(_initial_status(lo, hi), _loop_initial_status(lo, hi))
        status = rng.choice(np.array([AT_LB, AT_UB, FREE, BASIC], dtype=np.int8), k)
        nonbasic = rng.random(k) < 0.7
        want = status.copy()
        _loop_reanchor(want, nonbasic, lo, hi)
        _reanchor(status, nonbasic, lo, hi)
        np.testing.assert_array_equal(status, want)


def test_chained_warm_resolves_match_cold(rng):
    # a walk of bound changes, each warm-started from the previous node,
    # including bounds relaxed to infinity and rows pinned to equality
    for _ in range(15):
        lp = random_feasible_lp(rng, n_vars=int(rng.integers(3, 7)),
                                n_g=int(rng.integers(2, 8)), n_h=int(rng.integers(0, 2)))
        eng = Simplex(lp)
        sol = eng.solve()
        assert sol.status == "optimal"
        lo = np.concatenate([lp.lb, np.zeros(lp.n_g)])
        hi = np.concatenate([lp.ub, np.full(lp.n_g, np.inf)])
        snap = eng.snapshot()
        for _ in range(6):
            j = int(rng.integers(0, lp.n_vars + lp.n_g))  # a column or a row surplus
            move = rng.integers(0, 3)
            if move == 0 and j < lp.n_vars and np.isfinite(sol.x[j]):
                hi[j] = max(lo[j], sol.x[j] - rng.uniform(0.0, 1.0))
            elif move == 1 and j < lp.n_vars and np.isfinite(sol.x[j]):
                lo[j] = min(hi[j], sol.x[j] + rng.uniform(0.0, 1.0))
            elif j >= lp.n_vars:
                hi[j] = 0.0
            else:
                lo[j] = -np.inf
            warm = eng.resolve(snap, lo, hi)
            cold = Simplex(lp).solve(lo, hi)
            assert warm.status == cold.status
            if warm.status != "optimal":
                break
            assert warm.objective == pytest.approx(cold.objective, abs=1e-8, rel=1e-8)
            sol = warm
            snap = eng.snapshot()


# ------------------------------------------------ column-sparse pricing kernels


def _sparse_feasible_lp(rng, n, n_g, n_h, density):
    """Random LP anchored on an interior point, with each matrix entry
    nonzero with probability density (rows may be empty)."""
    lb = rng.uniform(-5.0, 0.0, n)
    ub = lb + rng.uniform(1.0, 10.0, n)
    x0 = rng.uniform(lb, ub)
    a_g = rng.uniform(-3.0, 3.0, (n_g, n)) * (rng.random((n_g, n)) < density)
    a_h = rng.uniform(-2.0, 2.0, (n_h, n)) * (rng.random((n_h, n)) < density)
    return make_lp(c=rng.uniform(-5.0, 5.0, n),
                   a_ub=a_g, b_ub=a_g @ x0 - rng.uniform(0.0, 4.0, n_g),
                   a_eq=a_h, b_eq=a_h @ x0, lb=lb, ub=ub)


def _sparse_engines(rng, count):
    for _ in range(count):
        n = int(rng.integers(20, 60))
        lp = _sparse_feasible_lp(rng, n, n_g=int(rng.integers(10, 40)),
                                 n_h=int(rng.integers(0, 6)),
                                 density=rng.uniform(0.02, 0.10))
        yield lp, Simplex(lp)


def test_column_products_match_dense(rng):
    for _, eng in _sparse_engines(rng, 15):
        a = _dense_a(eng)
        for _ in range(5):
            y = rng.standard_normal(eng.m)
            np.testing.assert_allclose(eng.cols.dot(y), y @ a, rtol=0, atol=1e-12)
        assert eng.solve().status == "optimal"
        for j in range(eng.nt):
            np.testing.assert_allclose(eng._column(j), eng.binv @ a[:, j],
                                       rtol=0, atol=1e-12)


def _assert_no_entering_column(eng):
    """Reduced costs from a freshly built inverse of the final basis admit
    no improving nonbasic column beyond the dual tolerance."""
    c_full = np.concatenate([eng.c2, np.zeros(eng.m)])
    y = c_full[eng.basis] @ np.linalg.inv(_basis_matrix(eng))
    d = eng.c2 - y @ _dense_a(eng)
    st = eng.status[: eng.nt]
    movable = eng.hi[: eng.nt] - eng.lo[: eng.nt] > 0.0
    assert np.all(d[(st == AT_LB) & movable] >= -_DUAL_TOL)
    assert np.all(d[(st == AT_UB) & movable] <= _DUAL_TOL)
    assert np.all(np.abs(d[st == FREE]) <= _DUAL_TOL)


def test_optimal_bases_are_dual_feasible_on_fresh_prices(rng):
    for lp, eng in _sparse_engines(rng, 12):
        sol = eng.solve()
        assert sol.status == "optimal"
        _assert_no_entering_column(eng)
        lo = np.concatenate([lp.lb, np.zeros(lp.n_g)])
        hi = np.concatenate([lp.ub, np.full(lp.n_g, np.inf)])
        snap = eng.snapshot()
        for _ in range(8):
            # cut through the value of a basic structural column, which
            # makes the warm start primal infeasible
            basic = eng.basis[eng.basis < lp.n_vars]
            if basic.size == 0:
                break
            j = int(rng.choice(basic))
            keep = lo.copy(), hi.copy()
            if rng.random() < 0.5:
                hi[j] = sol.x[j] - rng.uniform(0.05, 0.5) * (sol.x[j] - lo[j])
            else:
                lo[j] = sol.x[j] + rng.uniform(0.05, 0.5) * (hi[j] - sol.x[j])
            warm = eng.resolve(snap, lo, hi)
            if warm.status != "optimal":
                assert Simplex(lp).solve(lo, hi).status == warm.status
                lo, hi = keep  # step back and cut elsewhere
                continue
            _assert_no_entering_column(eng)
            sol = warm
            snap = eng.snapshot()


# ------------------------------------------------- inverses kept across solves


def test_cold_solve_drops_inverses_built_for_old_artificial_signs():
    # the second equality row repeats the first, so its artificial column
    # stays basic; with x >= 2 the cold start sees b - A x_N < 0 on both
    # rows and flips the signs of the artificial columns
    lp = make_lp(c=[1.0, 2.0], a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0],
                 lb=[0.0, 0.0], ub=[5.0, 5.0])
    eng = Simplex(lp)
    assert eng.solve().status == "optimal"
    assert np.any(eng.basis >= eng.nt)
    snap = eng.snapshot()
    lo, hi = lp.lb.copy(), lp.ub.copy()
    assert eng.resolve(snap, lo, hi).status == "optimal"
    signs = eng.art_sign.copy()
    assert eng.solve(np.array([2.0, 0.0]), hi).status == "infeasible"
    assert np.all(eng.art_sign == -signs)
    sol = eng.resolve(snap, lo, hi)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(eng.binv @ _basis_matrix(eng), np.eye(eng.m), atol=1e-12)


def _split(sol, lo, hi, j):
    """Bounds of the two children of a branch on column j at x_j."""
    left_hi, right_lo = hi.copy(), lo.copy()
    left_hi[j] = sol.x[j] - 0.25 * (sol.x[j] - lo[j])
    right_lo[j] = sol.x[j] + 0.25 * (hi[j] - sol.x[j])
    return (lo, left_hi), (right_lo, hi)


def test_kept_inverses_survive_a_tree_of_resolves(rng):
    hits = 0
    for lp, eng in _sparse_engines(rng, 10):
        root = eng.solve()
        assert root.status == "optimal"
        lo = np.concatenate([lp.lb, np.zeros(lp.n_g)])
        hi = np.concatenate([lp.ub, np.full(lp.n_g, np.inf)])
        level = [(root, eng.snapshot(), lo, hi)]
        for _ in range(2):  # children, then grandchildren
            nxt = []
            for sol, snap, node_lo, node_hi in level:
                basic = snap[0][snap[0] < lp.n_vars]
                if basic.size == 0:
                    continue
                j = int(rng.choice(basic))
                for child_lo, child_hi in _split(sol, node_lo, node_hi, j):
                    warm = eng.resolve(snap, child_lo, child_hi)
                    cold = Simplex(lp).solve(child_lo, child_hi)
                    assert warm.status == cold.status
                    if warm.status == "optimal":
                        assert warm.objective == pytest.approx(cold.objective,
                                                               rel=1e-9, abs=1e-9)
                        nxt.append((warm, eng.snapshot(), child_lo, child_hi))
                    for key, (inv, _) in eng._inverses.items():
                        basis = np.frombuffer(key, dtype=eng.basis.dtype)
                        np.testing.assert_allclose(inv @ _basis_matrix(eng, basis),
                                                   np.eye(eng.m), rtol=0, atol=1e-8)
            level = nxt
        hits += eng.warm_hits
        for name, value in vars(eng).items():
            if isinstance(value, np.ndarray):
                assert value.size != eng.m * eng.nt, name
    assert hits > 0


def test_warm_resolves_start_from_a_kept_or_a_rebuilt_inverse(monkeypatch):
    engines, calls = [], {}
    resolve = Simplex.resolve

    class Engine(Simplex):
        def __init__(self, lp):
            super().__init__(lp)
            engines.append(self)

    def counted(self, snapshot, lo, hi):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return resolve(self, snapshot, lo, hi)

    monkeypatch.setattr(solver, "Simplex", Engine)
    monkeypatch.setattr(Simplex, "resolve", counted)
    mpec = assemble_mpec(interior_fixture())
    res = solver.solve_lpcc(mpec)
    assert res.status == "optimal"
    assert_lower_level_optimal(mpec, res)
    tree_calls = sum(calls.get(id(e), 0) for e in engines)
    assert tree_calls == res.node_count - 1
    assert tree_calls == sum(e.warm_hits + e.warm_rebuilds for e in engines)
    assert sum(e.warm_hits for e in engines) > 0
    # the root start and the re-read read the parties' capacity paths,
    # which re-solve nothing
    assert sum(calls.values()) == tree_calls


def test_resolve_counts_its_cold_fallbacks():
    lp = make_lp([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0], lb=[0.0, 0.0], ub=[5.0, 5.0])
    eng = Simplex(lp)
    assert eng.solve().status == "optimal"
    snap = eng.snapshot()
    lo, hi = np.array([1.0, 0.0, 0.0]), np.array([5.0, 5.0, np.inf])
    assert eng.resolve(snap, lo, hi).status == "optimal"
    assert eng.cold_restarts == 0
    eng.max_iter = 0  # the dual loop stops at once, so resolve restarts cold
    assert eng.resolve(snap, lo, hi).status == "iteration_limit"
    assert eng.cold_restarts == 1


def test_vanished_dual_pivot_restarts_cold(monkeypatch):
    # a dual pivot whose recomputed pivot element is zero raises SimplexError
    # before it divides, so resolve restarts cold instead of leaving NaN
    lp = make_lp([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0], lb=[0.0, 0.0], ub=[5.0, 5.0])
    eng = Simplex(lp)
    assert eng.solve().status == "optimal"
    snap = eng.snapshot()
    column = Simplex._column
    zeroed = []

    def vanished(self, j):  # the first recomputed column only
        if zeroed:
            return column(self, j)
        zeroed.append(j)
        return np.zeros(self.m)

    monkeypatch.setattr(Simplex, "_column", vanished)
    sol = eng.resolve(snap, np.array([3.0, 0.0, 0.0]), np.array([5.0, 5.0, np.inf]))
    assert zeroed and eng.cold_restarts == 1
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [3.0, 0.0], atol=1e-9)


@pytest.mark.parametrize("t", [4, 6, 24])
def test_capacity_family_matches_cold_builds(rng, t):
    """A lookup on a party's capacity path at any share matches a cold
    solve of the LP built at that share, its multipliers certify that LP's
    optimum, and no lookup pivots."""
    for _ in range(2):
        inst = rand_instance(rng, t=t)
        total = inst.storage.total_capacity
        caps = [0.0, total, 0.5 * total, 0.25 * total, 0.25 * total,
                0.75 * total, 0.75 * total + 1e-9, 0.0, total]
        for p in range(inst.customer_count + 1):
            path = CapacityPath(inst, p)
            pivots = path.engine.iterations
            for cap in caps:
                lp = build_party_lp(inst, p, cap)
                ref = Simplex(lp).solve()
                sol = path.at(cap)
                assert sol.status == ref.status == "optimal"
                assert abs(sol.objective - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective))
                assert sol.x.shape == sol.reduced_costs.shape == (lp.n_vars,)
                assert sol.dual_g.shape == (lp.n_g,) and sol.dual_h.shape == (lp.n_h,)
                report, ok = check_kkt_residuals(derive_kkt(lp), sol.x, sol.dual_g,
                                                 sol.dual_h, tol=1e-7)
                assert ok, report
            assert path.engine.iterations == pivots == path.iterations


def test_capacity_reduced_cost_is_a_subgradient():
    """kappa's reduced cost d(s) at share s is a subgradient of the party's
    optimal cost phi (LpSolution.reduced_costs): phi(s') >= phi(s) +
    d(s) (s' - s) at every share s' of a 41-share grid, for d read at 9 of
    them, share 0 included."""
    for _, inst, paths in _path_days():
        grid = np.linspace(0.0, inst.storage.total_capacity, 41)
        for p, path in enumerate(paths):
            sols = [path.at(float(s)) for s in grid]
            phi = np.array([sol.objective for sol in sols])
            for sol, s in zip(sols[::5], grid[::5]):
                line = sol.objective + sol.reduced_costs[-1] * (grid - s)
                assert np.all(phi >= line - 1e-12 * (1.0 + np.abs(phi))), (p, s)


def test_capacity_family_rejects_negative_capacity(tiny_instance):
    # NaN passes a plain capacity < 0 check: a party LP solved at NaN once
    # ended unbounded with RuntimeWarnings
    for p in range(tiny_instance.customer_count + 1):
        path = CapacityPath(tiny_instance, p)
        for cap in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="capacity"):
                path.at(cap)
            with pytest.raises(ValueError, match="capacity"):
                path.flow_face(cap, np.ones(4))
        assert path.engine.iterations == path.iterations  # no solve ran


def test_capacity_path_rejects_a_party_past_the_disco(tiny_instance):
    # party N + 1 once built the DisCo's path
    for party in (-1, tiny_instance.customer_count + 1):
        with pytest.raises(IndexError, match="party"):
            CapacityPath(tiny_instance, party)


def _at_capacity(eng, snap, cap):
    """eng's LP solved with its last column, kappa, fixed at cap: cold if
    snap is None, else warm from snap."""
    lo, hi = eng.base_lo.copy(), eng.base_hi.copy()
    lo[eng.n - 1] = hi[eng.n - 1] = cap
    return eng.solve(lo, hi) if snap is None else eng.resolve(snap, lo, hi)


def test_face_minimum_writes_no_kept_inverse(rng):
    """solve at cap1, face_minimum, re-solve warm at cap2 on one engine,
    as CapacityPath.flow_face does: the last solve equals a cold one at
    cap2 and every kept inverse still inverts its basis. The optimal solve
    keeps its inverse by reference, so face pivots made on it in place
    would corrupt the next warm start."""
    pivots = 0
    for _ in range(3):
        # lossless batteries leave the dispatch optima degenerate
        inst = rand_instance(rng, t=6, eta_ch=1.0, eta_dis=1.0)
        total = inst.storage.total_capacity
        for p in range(inst.customer_count + 1):
            eng = Simplex(build_party_lp(inst, p, 0.0))
            snap = None
            for cap1, cap2 in ((0.5 * total, 0.25 * total), (total, 0.75 * total)):
                assert _at_capacity(eng, snap, cap1).status == "optimal"
                snap = eng.snapshot()
                before = eng.iterations
                eng.face_minimum(rng.normal(size=eng.n))
                pivots += eng.iterations - before
                sol = _at_capacity(eng, snap, cap2)
                snap = eng.snapshot()
                ref = Simplex(build_party_lp(inst, p, cap2)).solve()
                assert sol.status == ref.status == "optimal"
                assert abs(sol.objective - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective))
                for key, (inv, _) in eng._inverses.items():
                    basis = np.frombuffer(key, dtype=eng.basis.dtype)
                    np.testing.assert_allclose(inv @ _basis_matrix(eng, basis),
                                               np.eye(eng.m), rtol=0, atol=1e-10)
    assert pivots > 0


def test_face_minimum_needs_an_optimal_solve():
    lp = make_lp([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0], lb=[0.0, 0.0], ub=[5.0, 5.0])
    eng = Simplex(lp)
    with pytest.raises(SimplexError, match="optimal solve"):
        eng.face_minimum([1.0, 0.0])
    assert eng.solve().status == "optimal"
    x = eng.face_minimum([1.0, 0.0])  # the face is x + y = 1: y takes it all
    assert x == pytest.approx([0.0, 1.0], abs=1e-12)
    with pytest.raises(SimplexError, match="optimal solve"):
        eng.face_minimum([1.0, 0.0])  # the engine left the optimal basis
    infeasible = Simplex(make_lp([1.0], a_ub=[[1.0], [-1.0]], b_ub=[2.0, -1.0]))
    assert infeasible.solve().status == "infeasible"
    with pytest.raises(SimplexError, match="optimal solve"):
        infeasible.face_minimum([1.0])


def test_face_minimum_raises_on_an_unbounded_face():
    # every x >= 1 is optimal at cost 0, so -x has no minimum on the face
    eng = Simplex(make_lp([0.0], a_ub=[[1.0], [2.0]], b_ub=[1.0, 0.0]))
    assert eng.solve().status == "optimal"
    with pytest.raises(SimplexError, match="unbounded"):
        eng.face_minimum([-1.0])


# ------------------------------------------------------------ slack crash start


def _record_starts(monkeypatch):
    """Record each phase-1 loop of a cold solve: the start basis, inverse,
    basic values, bounds and b - A x_N, and the pivots the loop made."""
    starts = []
    loop = Simplex._primal_loop

    def recording(eng, c_full):
        if not c_full[eng.nt:].any():  # phase 2
            return loop(eng, c_full)
        start = {"basis": eng.basis.copy(), "binv": eng.binv.copy(), "xb": eng.xb.copy(),
                 "lo": eng.lo.copy(), "hi": eng.hi.copy(), "rhs": eng._rhs()}
        out = loop(eng, c_full)
        start["pivots"] = eng.iterations
        starts.append(start)
        return out

    monkeypatch.setattr(Simplex, "_primal_loop", recording)
    return starts


def test_rows_that_hold_at_the_start_make_no_phase_one_pivot(rng, monkeypatch):
    starts = _record_starts(monkeypatch)
    for _ in range(10):
        n, n_g = int(rng.integers(3, 12)), int(rng.integers(2, 10))
        a_g = rng.uniform(-3.0, 3.0, (n_g, n))
        # every row a x >= b with b <= 0 holds at the start point x = lb = 0
        lp = make_lp(c=rng.uniform(-5.0, 5.0, n), a_ub=a_g, b_ub=-rng.uniform(0.0, 4.0, n_g),
                     lb=np.zeros(n), ub=rng.uniform(1.0, 5.0, n))
        eng = Simplex(lp)
        sol = eng.solve()
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(scipy_solve(lp)[1], rel=1e-9, abs=1e-9)
        start = starts.pop()
        assert np.all(start["basis"] < eng.nt)  # every row on its surplus
        assert start["pivots"] == 0
        assert np.all(eng.basis < eng.nt)  # artificial columns are never priced


def test_crash_start_basis_is_inverted_and_within_bounds(rng, monkeypatch):
    starts = _record_starts(monkeypatch)
    on_surplus = on_artificial = 0
    for lp, eng in _sparse_engines(rng, 12):
        lo = np.concatenate([lp.lb, np.zeros(lp.n_g)])
        hi = np.concatenate([lp.ub, np.full(lp.n_g, np.inf)])
        # surpluses of kept rows bounded away from zero, capped or pinned
        kind = rng.integers(0, 4, eng.mg)
        rows = lp.n_vars + eng._kept_rows
        lo[rows[kind == 1]] = rng.uniform(0.0, 2.0, np.count_nonzero(kind == 1))
        hi[rows[kind == 2]] = rng.uniform(0.0, 3.0, np.count_nonzero(kind == 2))
        hi[rows[kind == 3]] = 0.0
        for bounds in ((None, None), (lo, hi)):
            eng.solve(*bounds)
            start = starts.pop()
            basis = start["basis"]
            np.testing.assert_allclose(start["binv"] @ _basis_matrix(eng, basis), np.eye(eng.m),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(start["xb"], start["binv"] @ start["rhs"],
                                       rtol=0, atol=1e-9)
            assert np.all(start["lo"][basis] <= start["xb"])
            assert np.all(start["xb"] <= start["hi"][basis])
            surplus = basis < eng.nt
            assert np.all(basis[surplus] - eng.n == np.flatnonzero(surplus))
            on_surplus += np.count_nonzero(surplus)
            on_artificial += np.count_nonzero(~surplus)
    assert on_surplus and on_artificial


def test_equality_and_violated_rows_start_on_artificials(monkeypatch):
    starts = _record_starts(monkeypatch)
    # x0 + x1 >= 1 with its surplus pinned to 0 (b - A x_N = 1 at x = 0),
    # x0 - x1 >= -3 with its surplus in [1, 2] (the start gives 3),
    # x0 + 3 x1 >= -2 (holds at x = 0), and x0 + 2 x1 = 2
    lp = make_lp(c=[1.0, 1.0], a_ub=[[1.0, 1.0], [1.0, -1.0], [1.0, 3.0]],
                 b_ub=[1.0, -3.0, -2.0], a_eq=[[1.0, 2.0]], b_eq=[2.0],
                 lb=[0.0, 0.0], ub=[5.0, 5.0])
    eng = Simplex(lp)
    sol = eng.solve([0.0, 0.0, 0.0, 1.0, 0.0], [5.0, 5.0, 0.0, 2.0, np.inf])
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-12)
    nt = eng.nt
    assert starts.pop()["basis"].tolist() == [nt, nt + 1, eng.n + 2, nt + 3]


# ------------------------------------------------------------- caller starts


def test_start_from_an_optimal_basis_skips_phase_one(rng, monkeypatch):
    starts = _record_starts(monkeypatch)
    taken = 0
    for lp, eng in _sparse_engines(rng, 15):
        cold = eng.solve()
        assert cold.status == "optimal"
        # the reported basis: distinct columns in caller numbering; a row
        # with a nonzero dual is active, and an active row holds with equality
        assert np.unique(cold.basis).size == cold.basis.size
        assert np.all(np.isin(np.flatnonzero(np.abs(cold.dual_g) > 1e-9), cold.active))
        slack = lp.g.dot(cold.x) - lp.b_g
        np.testing.assert_allclose(slack[cold.active], 0.0, atol=1e-9)
        starts.clear()
        warm_eng = Simplex(lp)
        warm = warm_eng.solve(start=(cold.basis, cold.x))
        assert warm.status == "optimal"
        assert abs(warm.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
        if cold.basis.size < eng.m:  # an artificial column stayed basic on an empty row
            assert warm_eng.start_rejects == 1
            continue
        assert warm_eng.start_rejects == 0
        assert starts == [] and warm.iterations == 0  # no phase 1, and already optimal
        taken += 1
    assert taken >= 10


def test_rejected_starts_fall_back_to_the_crash():
    # columns 0 and 1 are parallel, and row 2 (x2 >= 0) folds into a bound
    lp = make_lp(c=[1.0, 2.0, 1.0], a_ub=[[1.0, 1.0, 1.0], [2.0, 2.0, 1.0], [0.0, 0.0, 1.0]],
                 b_ub=[1.0, 1.5, 0.0], lb=[0.0, 0.0, -np.inf], ub=[5.0, 5.0, 5.0])
    plain = Simplex(lp).solve()
    assert plain.status == "optimal"
    eng = Simplex(lp)
    assert (eng.n, eng.m) == (3, 2)
    good = eng.solve(start=(plain.basis, plain.x))
    assert eng.start_rejects == 0 and good.objective == pytest.approx(plain.objective, abs=1e-12)
    x = np.zeros(3)
    bad = {
        "column count": ([0], x),
        "duplicate column": ([0, 0], x),
        "folded row's surplus": ([0, 3 + 2], x),
        "out of range": ([0, 3 + 3], x),
        "singular basis": ([0, 1], x),
        # x1 at its upper bound 5 puts x0 at 1 - 5 - x2 on row 0
        "infeasible point": ([0, 3 + 1], np.array([0.0, 5.0, 0.0])),
    }
    for rejects, (why, start) in enumerate(bad.items(), start=1):
        sol = eng.solve(start=start)
        assert eng.start_rejects == rejects, why
        assert sol.status == plain.status, why
        assert sol.objective == plain.objective, why
        np.testing.assert_array_equal(sol.x, plain.x)
        np.testing.assert_array_equal(sol.dual_g, plain.dual_g)


def _start_days(rng):
    """(name, instance): the division fixtures, stress, both long days and
    random days with lossless batteries, whose dispatch optima are
    degenerate."""
    days = [(name, build()) for name, build in DIVISION_FIXTURES]
    days += [("stress", stress_fixture()), ("day_long1", day_long(1)),
             ("day_long2", day_long(2))]
    days += [(f"lossless{k}", rand_instance(rng, t=t, eta_ch=1.0, eta_dis=1.0))
             for k, t in enumerate((4, 6, 12))]
    return days


def test_family_start_agrees_with_the_slack_crash(rng, monkeypatch):
    """A party LP's cold solve started at its no-battery vertex answers like
    one from the slack crash at every capacity and runs no phase 1, and so
    does the cold solve each capacity path starts from."""
    starts = _record_starts(monkeypatch)
    for name, inst in _start_days(rng):
        total = inst.storage.total_capacity
        for p in range(inst.customer_count + 1):
            for cap in (total, 0.0, 0.5 * total, 0.25 * total):
                lp = build_party_lp(inst, p, cap)
                ref = Simplex(lp).solve()
                starts.clear()
                eng = Simplex(lp)
                sol = eng.solve(start=no_battery_start(lp))
                case = (name, p, cap)
                assert starts == [] and eng.start_rejects == 0, case  # no phase-1 loop
                assert sol.status == ref.status == "optimal", case
                assert abs(sol.objective - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective)), case
                report, ok = check_kkt_residuals(derive_kkt(lp), sol.x, sol.dual_g,
                                                 sol.dual_h, tol=1e-7)
                assert ok, (case, report)
            starts.clear()
            assert CapacityPath(inst, p).engine.start_rejects == 0 and starts == [], (name, p)


def test_family_counts_a_rejected_start_and_solves_from_the_crash(monkeypatch):
    """A capacity path whose start the engine rejects counts it once, solves
    from the slack crash, and walks to the same values."""
    inst = division_fixture_n2(219)
    total = inst.storage.total_capacity
    grid = np.linspace(0.0, total, 9)
    price = np.ones(inst.grid.slot_count)
    for p in range(inst.customer_count + 1):
        ref = CapacityPath(inst, p)
        crash = Simplex(build_party_lp(inst, p, total)).solve()
        for why, spoil in corrupted_starts(no_battery_start).items():
            with monkeypatch.context() as m:
                m.setattr(simplex, "no_battery_start", spoil)
                path = CapacityPath(inst, p)
            assert path.engine.start_rejects == 1, (p, why)
            np.testing.assert_array_equal(path.at(total).x, crash.x)
            for s in grid:
                want = ref.at(float(s)).objective
                assert abs(path.at(float(s)).objective - want) <= 1e-9 * max(1.0, abs(want))
            path.flow_face(0.5 * total, price)  # a warm resolve takes no start
            assert path.engine.start_rejects == 1, (p, why)


# ------------------------------------------------------------- capacity paths


def _path_days():
    """(name, instance, its parties' capacity paths) for the division
    fixtures, stress and both long days."""
    days = list(DIVISION_FIXTURES) + [("stress", stress_fixture),
                                      ("day_long1", lambda: day_long(1)),
                                      ("day_long2", lambda: day_long(2))]
    out = []
    for name, build in days:
        inst = build()
        out.append((name, inst, day_paths(inst)))
    return out


def _piece_bytes(path):
    """The bytes of every array of path's pieces, in order."""
    out = []
    for upper, sol, dx, (basis, status) in path.pieces:
        out += [np.float64(upper).tobytes(), dx.tobytes(), basis.tobytes(), status.tobytes()]
        out += [np.asarray(getattr(sol, name)).tobytes()
                for name in ("x", "objective", "dual_g", "dual_h", "reduced_costs",
                             "basis", "active")]
    return out


def test_paths_keep_no_inverse(monkeypatch):
    # a path's walk once left its engine holding the inverses of its
    # optimal bases (6, 0.92 MB, on day_long(2)'s three paths), which no
    # lookup reads: the built path and its face lookups keep none, and a
    # path that keeps them (clear made a no-op) has the same pieces and
    # face points, byte for byte
    class Keeping(OrderedDict):
        def clear(self):
            pass

    price = np.random.default_rng(3).uniform(-1.0, 1.0, 24)
    for build in (stress_fixture, lambda: day_long(2)):
        inst = build()
        t = inst.grid.slot_count
        shares = np.linspace(0.0, inst.storage.total_capacity, 9)
        for p in range(inst.customer_count + 1):
            path = CapacityPath(inst, p)
            with monkeypatch.context() as m:
                m.setattr(simplex, "OrderedDict", Keeping)
                kept = CapacityPath(inst, p)
            assert len(path.engine._inverses) == 0 and len(kept.engine._inverses) > 0
            before = _piece_bytes(path)
            assert before == _piece_bytes(kept)
            for s in shares:
                (got, got_face), (want, want_face) = (
                    q.flow_face(float(s), price[:t]) for q in (path, kept))
                assert got.x.tobytes() == want.x.tobytes()
                assert got_face.tobytes() == want_face.tobytes()
            assert len(path.engine._inverses) == 0
            assert _piece_bytes(path) == before


def test_built_paths_hold_no_inverse():
    # a built path's engine once held its last basis inverse and basic
    # values (0.67 MB of a fleet customer's 1.7 MB path); a face walk
    # refactors from its piece's basis, so the engine holds neither after
    # the build or a face lookup, and a path left holding a spoiled pair
    # gives the same points and face points, byte for byte
    inst = day_long(2)
    t = inst.grid.slot_count
    price = np.random.default_rng(5).uniform(-1.0, 1.0, t)
    for p in range(inst.customer_count + 1):
        path, spoiled = CapacityPath(inst, p), CapacityPath(inst, p)
        eng = spoiled.engine
        eng.binv, eng.xb = np.full((eng.m, eng.m), np.nan), np.full(eng.m, np.nan)
        for s in np.linspace(0.0, inst.storage.total_capacity, 9):
            assert path.engine.binv is None and path.engine.xb is None
            (got, got_face), (want, want_face) = (
                q.flow_face(float(s), price) for q in (path, spoiled))
            assert got.x.tobytes() == want.x.tobytes()
            assert got_face.tobytes() == want_face.tobytes()
        assert path.engine.binv is None and path.engine.xb is None


def test_path_lookups_are_feasible_with_no_duality_gap():
    """At 4,001 shares, every lookup's x is feasible at 1e-9 for the LP at
    that share, its multipliers are dual feasible, and the duality gap is
    at most 1e-9 (1 + |phi|); no LP is solved."""
    for name, inst, paths in _path_days():
        shares = np.linspace(0.0, inst.storage.total_capacity, 4001)
        for p, path in enumerate(paths):
            lp = path.engine.lp  # built at the top share; kappa is x's last entry
            g, n = lp.g.dense(lp.n_vars), lp.n_vars
            sols = [path.at(float(s)) for s in shares]
            x = np.array([sol.x for sol in sols])
            w = np.array([sol.dual_g for sol in sols])
            v = np.array([sol.dual_h for sol in sols])
            phi = np.array([sol.objective for sol in sols])
            case = (name, p)
            assert np.all(np.abs(x[:, -1] - shares) <= 1e-12 * max(1.0, shares[-1])), case
            assert np.all(x @ g.T - lp.b_g >= -1e-9), case
            assert np.all(np.abs(x @ lp.h.dense(n).T - lp.b_h) <= 1e-9), case
            assert np.all(w >= 0.0), case
            reduced = lp.c - w @ g - v @ lp.h.dense(n)
            assert np.all(np.abs(reduced[:, :-1]) <= 1e-9), case  # every free column
            dual = w @ lp.b_g + v @ lp.b_h + reduced[:, -1] * shares
            assert np.all(np.abs(phi - dual) <= 1e-9 * (1.0 + np.abs(phi))), case
            assert np.all(np.abs(phi - x @ lp.c) <= 1e-9 * (1.0 + np.abs(phi))), case


def test_path_matches_cold_solves():
    """At 41 shares, each path lookup's phi matches a cold solve of the
    party's LP built at that share to 1e-12 relative."""
    for name, inst, paths in _path_days():
        for p, path in enumerate(paths):
            for s in np.linspace(0.0, inst.storage.total_capacity, 41):
                want = Simplex(build_party_lp(inst, p, float(s))).solve().objective
                got = path.at(float(s)).objective
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (name, p, s)


def test_path_lookups_do_not_depend_on_their_order(rng):
    """Lookups in a shuffled order, after a face walk for another price,
    give bytewise the duals, reduced costs, x and face point of lookups in
    ascending order on a freshly built path."""
    for name, inst, paths in _path_days():
        shares = np.linspace(0.0, inst.storage.total_capacity, 41)
        price = rng.normal(size=inst.grid.slot_count)
        for p, path in enumerate(paths):
            fresh = CapacityPath(inst, p)
            ascending = [fresh.flow_face(float(s), price) for s in shares]
            path.flow_face(float(rng.choice(shares)), -price)  # leaves its basis on the engine
            for k in rng.permutation(shares.size):
                sol, x_face = path.flow_face(float(shares[k]), price)
                want, want_face = ascending[k]
                for a, b in ((sol.dual_g, want.dual_g), (sol.dual_h, want.dual_h),
                             (sol.reduced_costs, want.reduced_costs), (sol.x, want.x),
                             (x_face, want_face)):
                    assert a.tobytes() == b.tobytes(), (name, p, shares[k])


def test_face_path_matches_fresh_face_minima(rng):
    """At 41 shares and three random prices, each face point lies on the
    optimal face (c.x within 1e-9 (1 + |phi|) of phi, feasible at 1e-9)
    and its price . flow is within 1e-12 relative of a fresh re-solve from
    the piece's basis plus Simplex.face_minimum, as a face was found before
    the walk; no piece walks its face twice for one price."""
    for name, inst, paths in _path_days():
        t = inst.grid.slot_count
        shares = np.linspace(0.0, inst.storage.total_capacity, 41)
        prices = [rng.normal(size=t) for _ in range(3)]
        for p, path in enumerate(paths):
            lp = path.engine.lp
            g, h = lp.g.dense(lp.n_vars), lp.h.dense(lp.n_vars)
            ref = Simplex(lp)
            walks, face_lines = [], path._face_lines

            def counted(i, price):
                walks.append((i, price.tobytes()))
                return face_lines(i, price)

            path._face_lines = counted
            for price in prices:
                grad = np.zeros(lp.n_vars)
                grad[: 2 * t] = np.concatenate([price, -price])
                for s in shares:
                    sol, x = path.flow_face(float(s), price)
                    case = (name, p, float(s))
                    phi = sol.objective - lp.objective_constant
                    assert abs(lp.c @ x - phi) <= 1e-9 * (1.0 + abs(phi)), case
                    assert x[-1] == pytest.approx(s, abs=1e-12 * max(1.0, shares[-1])), case
                    assert np.all(g @ x - lp.b_g >= -1e-9), case
                    assert np.all(np.abs(h @ x - lp.b_h) <= 1e-9), case
                    lo, hi = ref.base_lo.copy(), ref.base_hi.copy()
                    lo[lp.n_vars - 1] = hi[lp.n_vars - 1] = s  # kappa, the LP's last column
                    basis = path.pieces[path._index(float(s))][3]
                    assert ref.resolve(basis, lo, hi).status == "optimal"
                    face = ref.face_minimum(grad)
                    want = price @ (face[:t] - face[t: 2 * t])
                    got = price @ (x[:t] - x[t: 2 * t])
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), case
            assert len(set(walks)) == len(walks) > 0, (name, p)


def test_face_walk_passes_a_face_breakpoint_inside_a_piece(monkeypatch, tiny_instance):
    """min x1 + x2 s.t. x1 + x2 >= kappa, x1 >= 0, 0 <= x2 <= 1 on kappa in
    [0, 2] is one piece, x1 basic; its optimal face is x1 + x2 = kappa.
    price . (ch - dis) = x1 - x2 is least with x2 = min(kappa, 1), so the
    face walk from kappa = 2 meets a face breakpoint at kappa = 1 and
    passes it with one dual pivot (x1 leaves, x2 enters)."""
    lp = make_lp([1.0, 1.0, 0.0], a_ub=[[1.0, 1.0, -1.0]], b_ub=[0.0],
                 lb=[0.0, 0.0, 2.0], ub=[np.inf, 1.0, 2.0])
    monkeypatch.setattr(simplex, "build_party_lp", lambda inst, party, cap: lp)
    monkeypatch.setattr(simplex, "no_battery_start",
                        lambda lp: (np.array([0]), np.array([2.0, 0.0, 2.0])))
    path = CapacityPath(tiny_instance, 0)
    assert [piece[0] for piece in path.pieces] == [2.0, 0.0]  # one piece, then 0 itself
    price = np.array([1.0])
    for s in np.linspace(0.0, 2.0, 9):
        sol, x = path.flow_face(float(s), price)
        assert sol.objective == pytest.approx(s, abs=1e-12)
        assert x == pytest.approx([max(s - 1.0, 0.0), min(s, 1.0), s], abs=1e-12), s
    lines = path._faces[(0, price.tobytes())]
    assert [line[0] for line in lines] == [2.0, 1.0]
    assert path.engine.iterations > 1  # the face minimum's flip and the walk's pivot


def test_path_slopes_are_taken_from_below():
    """At 0 and at every breakpoint, kappa's reduced cost in the lookup is
    the slope of phi just above 0, phi'(0+), and just below the breakpoint:
    the finite difference of two cold solves, the second half way across
    the piece."""
    def phi(inst, p, s):
        return Simplex(build_party_lp(inst, p, s)).solve().objective

    for name, inst, paths in _path_days():
        if inst.storage.total_capacity == 0.0:
            continue  # phi is defined at 0 alone
        for p, path in enumerate(paths):
            ends = [piece[0] for piece in path.pieces]  # the last is 0 itself
            h = 0.5 * ends[-2]
            want = [(phi(inst, p, h) - phi(inst, p, 0.0)) / h]
            got = [path.at(0.0).reduced_costs[-1]]
            for upper, lower in zip(ends[1:-1], ends[2:]):
                h = 0.5 * (upper - lower)
                want.append((phi(inst, p, upper) - phi(inst, p, upper - h)) / h)
                got.append(path.at(upper).reduced_costs[-1])
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9, err_msg=f"{name} {p}")
