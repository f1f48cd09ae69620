import itertools

import numpy as np
import pytest

from storageshare import solver
from storageshare.instance import upper_objective, zero_schedules
from storageshare.lp import build_llm_c, build_llm_d, make_lp
from storageshare.mpec import assemble_mpec, derive_kkt, linearize_big_m, validate_big_m
from storageshare.oracle import check_kkt_residuals, grid_oracle
from storageshare.scenarios import solve_division
from storageshare.solver import SolveOptions, extract_solution, solve_lpcc, solve_milp
from tests.conftest import (
    assert_grid_not_below,
    assert_lower_level_optimal,
    division_fixture,
    division_fixture_n2,
    rand_instance,
)


class _NoHeuristic:
    @staticmethod
    def try_point(x):
        return None


def solve_binary(lp, cols):
    """The tree core on a plain LP whose cols are binary: branch on the most
    fractional one, and take an integral relaxation as an incumbent."""
    cols = np.asarray(cols)

    def classify(sol):
        frac = np.abs(sol.x[cols] - np.round(sol.x[cols]))
        if np.all(frac <= 1e-6):
            return "incumbent", (sol.x.copy(), float(sol.objective))
        col = int(cols[np.argmax(frac)])
        return "branch", ((col, 0.0, 0.0), (col, 1.0, 1.0))

    return solver._branch_and_bound(lp, SolveOptions(), classify, lp, _NoHeuristic())


def random_knapsack(rng, n=10):
    values = rng.uniform(1.0, 10.0, n)
    weights = rng.uniform(1.0, 6.0, n)
    cap = 0.45 * weights.sum()
    # min -v.x  s.t.  w.x <= cap, x binary
    lp = make_lp(
        c=-values,
        a_ub=-weights.reshape(1, -1),
        b_ub=np.array([-cap]),
        lb=np.zeros(n),
        ub=np.ones(n),
        name="knapsack",
    )
    return lp, values, weights, cap


def knapsack_best(values, weights, cap):
    best = 0.0
    for bits in itertools.product((0, 1), repeat=len(values)):
        b = np.array(bits)
        if b @ weights <= cap + 1e-12:
            best = max(best, float(b @ values))
    return best


def test_knapsack_matches_enumeration(rng):
    for _ in range(6):
        lp, values, weights, cap = random_knapsack(rng)
        res = solve_binary(lp, range(len(values)))
        assert res.status == "optimal"
        assert res.exit_code == 0
        best = knapsack_best(values, weights, cap)
        assert res.objective == pytest.approx(-best, abs=1e-9)
        x = res.x[: len(values)]
        assert np.all(np.abs(x - np.round(x)) <= 1e-6)
        assert float(np.round(x) @ weights) <= cap + 1e-9
        assert res.best_bound <= res.objective + 1e-9
        assert res.gap <= 1e-9


def test_integer_infeasible_is_reported():
    # x0 + x1 = 0.5 has fractional solutions only
    lp = make_lp(
        c=np.array([1.0, 1.0]),
        a_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([0.5]),
        lb=np.zeros(2),
        ub=np.ones(2),
    )
    res = solve_binary(lp, [0, 1])
    assert res.status == "infeasible"
    assert res.exit_code == 2
    assert res.x is None


def test_unbounded_root_is_reported():
    lp = make_lp(
        c=np.array([-1.0, 0.0]),
        lb=np.array([0.0, 0.0]),
        ub=np.array([np.inf, 1.0]),
    )
    res = solve_binary(lp, [1])
    assert res.status == "unbounded"
    assert res.exit_code == 3
    assert res.best_bound == -np.inf


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(gap_target=-0.1)
    with pytest.raises(ValueError):
        SolveOptions(node_limit=0)
    with pytest.raises(ValueError):
        SolveOptions(time_limit=0.0)


def test_histories_are_monotone():
    inst = division_fixture(202)
    milp = linearize_big_m(assemble_mpec(inst))
    res = solve_milp(milp)
    assert res.status == "optimal"
    bounds = np.array(res.bound_history)
    incs = np.array(res.incumbent_history)
    assert bounds.size >= 1 and incs.size >= 1
    assert np.all(np.diff(bounds) >= 0.0)
    assert np.all(np.diff(incs) <= 0.0)
    assert res.best_bound <= res.objective + 1e-9
    assert bounds[-1] == pytest.approx(res.objective, abs=1e-9)
    assert incs[-1] == pytest.approx(res.objective, abs=1e-12)


def test_node_limit_yields_limit_status():
    inst = division_fixture(202)
    milp = linearize_big_m(assemble_mpec(inst))
    full = solve_milp(milp)
    res = solve_milp(milp, SolveOptions(node_limit=5))
    assert res.status == "limit"
    assert res.exit_code == 4
    assert res.node_count <= 5 + 2  # a popped branch may finish its two children
    assert res.best_bound <= full.objective + 1e-9
    if res.x is not None:
        assert res.objective >= full.objective - 1e-9


def test_time_limit_yields_limit_status():
    inst = division_fixture(203)
    mpec = assemble_mpec(inst)
    res = solve_lpcc(mpec, SolveOptions(time_limit=1e-3))
    assert res.status == "limit"
    assert res.exit_code == 4


def test_runs_are_deterministic():
    inst = division_fixture_n2(219)
    mpec = assemble_mpec(inst)
    milp = linearize_big_m(mpec)
    a = solve_milp(milp)
    b = solve_milp(milp)
    assert a.node_count == b.node_count
    assert a.objective == b.objective
    assert a.bound_history == b.bound_history
    assert np.array_equal(a.x, b.x)
    c = solve_lpcc(mpec)
    d = solve_lpcc(mpec)
    assert c.node_count == d.node_count
    assert c.objective == d.objective
    assert np.array_equal(c.x, d.x)


def party_lp(inst, p, capacity):
    if p < inst.customer_count:
        return build_llm_c(inst, p, capacity)
    return build_llm_d(inst, capacity)


def assert_extracted_duals_stationary(inst, mpec, res):
    division, schedules, duals = extract_solution(res, inst)
    shares = list(division.s_customer) + [division.s_disco]
    for p, lay in enumerate(mpec.parties()):
        lp = party_lp(inst, p, shares[p])
        kkt = derive_kkt(lp)
        x_p = res.x[lay.x0: lay.x0 + lay.nx]
        tag = lay.tag.rstrip(".")
        rep, ok = check_kkt_residuals(kkt, x_p, duals[tag]["omega"], duals[tag]["v"])
        assert ok, f"{tag}: {rep}"
    return division, schedules


def test_division_model_end_to_end():
    inst = division_fixture(209)
    mpec = assemble_mpec(inst)
    milp = linearize_big_m(mpec)
    rm = solve_milp(milp)
    rl = solve_lpcc(mpec)
    assert rm.status == rl.status == "optimal"
    scale = max(1.0, abs(rl.objective))
    assert abs(rm.objective - rl.objective) / scale <= 1e-9
    grid = grid_oracle(inst, step=inst.storage.total_capacity / 20.0)
    assert abs(grid.best_objective - rl.objective) / scale <= 1e-6
    assert validate_big_m(milp, rm.x).clean

    for res in (rm, rl):
        division, schedules = assert_extracted_duals_stationary(inst, mpec, res)
        total = division.s_disco + division.s_customer.sum()
        assert total <= inst.storage.total_capacity + 1e-9
        rebuilt = upper_objective(inst, schedules)
        assert rebuilt == pytest.approx(res.objective, rel=1e-9, abs=1e-9)


def test_bigm_branches_on_a_binary_that_lets_its_pair_slip():
    # the bigm relaxation reaches 42.63006 with every binary within 1e-6 of
    # 0 or 1, but one at 6.6e-7 lets its pair slip by that times big-M and
    # the rounded point fails; taking that point as an incumbent left the
    # DisCo's dispatch off its optimum, so the tree must branch on it
    inst = division_fixture(280)
    mpec = assemble_mpec(inst)
    rm = solve_division(mpec, SolveOptions(), "bigm", None)[0]
    rl = solve_lpcc(mpec)
    assert rm.status == rl.status == "optimal"
    assert abs(rm.objective - rl.objective) <= 1e-6 * max(1.0, abs(rl.objective))
    for res in (rm, rl):
        assert_lower_level_optimal(mpec, res)
    grid = grid_oracle(inst, step=inst.storage.total_capacity / 20.0)
    assert_grid_not_below(grid.best_objective, rl.objective)


def test_grid_never_lands_below_the_exact_optimum():
    # an objective pin of 1e-9 |f*| on the tie-breaking LP once let a
    # dispatch sit that far above its optimum, and the grid then scored
    # 10.3389090 against the exact 10.3389202
    inst = division_fixture(213)
    rl = solve_lpcc(assemble_mpec(inst))
    assert rl.status == "optimal"
    grid = grid_oracle(inst, step=inst.storage.total_capacity / 20.0)
    assert_grid_not_below(grid.best_objective, rl.objective)


def test_zero_capacity_division_is_exact():
    inst = rand_instance(np.random.default_rng(101), n=2, t=4, total_capacity=0.0)
    mpec = assemble_mpec(inst)
    rm = solve_milp(linearize_big_m(mpec))
    rl = solve_lpcc(mpec)
    base = upper_objective(inst, zero_schedules(inst))
    for res in (rm, rl):
        assert res.status == "optimal"
        assert res.objective == pytest.approx(base, abs=1e-9)
        division, schedules, _ = extract_solution(res, inst)
        assert division.s_disco == 0.0
        assert np.all(division.s_customer == 0.0)
        assert np.all(schedules.customer_ch == 0.0)
        assert np.all(schedules.customer_dis == 0.0)
        assert np.all(schedules.disco_ch == 0.0)
        assert np.all(schedules.disco_dis == 0.0)
