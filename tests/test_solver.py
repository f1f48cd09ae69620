import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from storageshare import simplex, solver
from storageshare.instance import upper_objective, zero_schedules
from storageshare.lp import build_llm_c, build_llm_d, build_party_lp, make_lp
from storageshare.mpec import assemble_mpec, linearize_big_m, validate_big_m
from storageshare.oracle import grid_oracle
from storageshare.scenarios import _pin_customers_only, solve_division
from storageshare.simplex import CapacityFamily, Simplex
from storageshare.solver import SolveOptions, extract_solution, solve_lpcc, solve_milp
from tests.conftest import (
    DIVISION_FIXTURES,
    assert_grid_not_below,
    assert_lower_level_optimal,
    assert_multipliers_certify,
    corrupted_starts,
    day_long,
    division_fixture,
    division_fixture_n2,
    interior_fixture,
    rand_instance,
    stress_fixture,
)
from tests.lp_oracle import check_kkt_residuals, derive_kkt


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
    with pytest.raises(ValueError, match="gap_target"):
        SolveOptions(gap_target=float("nan"))
    with pytest.raises(ValueError, match="time_limit"):
        SolveOptions(time_limit=float("nan"))


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


@pytest.mark.parametrize("seed,optimum", [(274, 89.83283039963179), (276, 28.74589907762533)])
def test_gap_target_reports_a_valid_bound(seed, optimum):
    # a node pruned by the gap target alone is never searched, so the bound
    # may not pass it: at gap_target 0.05 seed 274 once reported its
    # incumbent 90.99567 as the bound, above the optimum 89.83283
    mpec = assemble_mpec(division_fixture(seed))
    for gap_target in (0.01, 0.05):
        res = solve_lpcc(mpec, SolveOptions(gap_target=gap_target))
        assert res.status == "optimal"
        assert res.best_bound <= optimum + 1e-9 <= res.objective + 2e-9
        assert res.gap == solver._relative_gap(res.objective, res.best_bound)
        assert res.gap <= gap_target
        assert res.bound_history[-1] == res.best_bound
        assert np.all(np.diff(res.bound_history) >= 0.0)


def test_node_limit_yields_limit_status():
    inst = interior_fixture()
    milp = linearize_big_m(assemble_mpec(inst))
    full = solve_milp(milp)
    assert full.status == "optimal" and full.node_count > 7
    assert_lower_level_optimal(milp.mpec, full)
    res = solve_milp(milp, SolveOptions(node_limit=5))
    assert res.status == "limit"
    assert res.exit_code == 4
    assert res.node_count <= 5 + 2  # a popped branch may finish its two children
    assert res.best_bound <= full.objective + 1e-9
    if res.x is not None:
        assert res.objective >= full.objective - 1e-9


def test_time_limit_yields_limit_status():
    inst = interior_fixture()
    mpec = assemble_mpec(inst)
    res = solve_lpcc(mpec, SolveOptions(time_limit=1e-3))
    assert res.status == "limit"
    assert res.exit_code == 4
    if res.x is not None:  # an incumbent found before the limit is still bilevel feasible
        assert_lower_level_optimal(mpec, res)


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


def test_bigm_answer_takes_the_family_multipliers():
    # the tree leaves this answer with a multiplier near its big-M bound;
    # read off the party families instead, no bound is flagged and the
    # solve needs no escalation
    mpec = assemble_mpec(division_fixture(271))
    res, escalations, _ = solve_division(mpec, SolveOptions(), "bigm", None)
    assert res.status == "optimal" and escalations == 0
    assert_lower_level_optimal(mpec, res)
    assert_multipliers_certify(mpec, res)


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


def _tree_lp(mpec):
    """The LP the trees search: mpec.lp plus the chord rows."""
    return solver._with_chords(mpec, mpec.lp, solver._DivisionHeuristic(mpec, mpec.lp))[0]


def test_value_functions_lie_on_or_below_their_chords():
    # each party's optimal cost phi_p is convex in its share, so at any
    # share the optimal dispatch satisfies the party's chord row
    days = [build() for _, build in DIVISION_FIXTURES] + [stress_fixture(), day_long(1)]
    for inst in days:
        mpec = assemble_mpec(inst)
        tree_lp = _tree_lp(mpec)
        chords = tree_lp.g.take(np.arange(mpec.lp.n_g, tree_lp.n_g))
        rhs = tree_lp.b_g()[mpec.lp.n_g:]
        for p, lay in enumerate(mpec.parties()):
            family = CapacityFamily(build_party_lp(inst, p, 0.0))
            for share in np.linspace(0.0, inst.storage.total_capacity, 41):
                phi = family.solve(share)
                assert phi.status == "optimal"
                z = np.zeros(tree_lp.n_vars)
                z[lay.cap_col] = share
                z[lay.x0: lay.x0 + lay.nx] = phi.x
                slack = chords.dot(z)[p] - rhs[p]
                assert slack >= -1e-9 * (1.0 + abs(phi.objective)), (lay.tag, share)


def test_trees_search_one_chord_row_per_party(monkeypatch):
    tree_lps = []

    class Engine(Simplex):
        def __init__(self, lp):
            super().__init__(lp)
            tree_lps.append(lp)

    monkeypatch.setattr(solver, "Simplex", Engine)
    inst = division_fixture_n2(219)
    mpec = assemble_mpec(inst)
    milp = linearize_big_m(mpec)
    rl, rm = solve_lpcc(mpec), solve_milp(milp)
    assert rl.status == rm.status == "optimal"
    parties = len(mpec.parties())
    for base, tree_lp in zip((mpec.lp, milp.lp), tree_lps):
        assert tree_lp.n_g == base.n_g + parties
        assert (tree_lp.n_vars, tree_lp.n_h) == (base.n_vars, base.n_h)
        for k, lay in enumerate(mpec.parties()):  # chord k: party k's dispatch and share
            cols = set(tree_lp.g.row(base.n_g + k)[0].tolist())
            assert cols & set(range(lay.x0, lay.x0 + lay.nx))
            assert cols <= set(range(lay.x0, lay.x0 + lay.nx)) | {lay.cap_col}
        head = tree_lp.g.take(np.arange(base.n_g))
        for a, b in ((head.indptr, base.g.indptr), (head.indices, base.g.indices),
                     (head.data, base.g.data), (tree_lp.b_g()[: base.n_g], base.b_g())):
            np.testing.assert_array_equal(a, b)
    # the models themselves are untouched: no chord row in mpec.lp or its
    # linearization
    fresh = assemble_mpec(inst)
    for a, b in ((mpec.lp, fresh.lp), (milp.lp, linearize_big_m(fresh).lp)):
        assert a.n_g == b.n_g
        np.testing.assert_array_equal(a.g.indices, b.g.indices)
        np.testing.assert_array_equal(a.g.data, b.g.data)
        np.testing.assert_array_equal(a.b_g(), b.b_g())


def test_a_pinned_share_gets_the_exact_chord():
    # with the DisCo's share fixed at 0, its chord is c_d.x_d <= phi_d(0),
    # a row without the share column
    mpec = _pin_customers_only(assemble_mpec(division_fixture_n2(219)))
    tree_lp = _tree_lp(mpec)
    row = mpec.lp.n_g + len(mpec.customers)
    cols, coefs = tree_lp.g.row(row)
    d = mpec.disco
    c_d = build_party_lp(mpec.instance, len(mpec.customers), 0.0).c
    assert mpec.div_disco_col not in cols
    np.testing.assert_array_equal(cols, d.x0 + np.flatnonzero(c_d))
    np.testing.assert_array_equal(coefs, -c_d[c_d != 0.0])
    assert tree_lp.b_g()[row] == 0.0  # phi_d(0) = 0: no battery, no dispatch


def test_lpcc_takes_no_incumbent_that_breaks_a_row():
    mpec = assemble_mpec(division_fixture(202))
    tree_lp = _tree_lp(mpec)
    classify = solver._classify_lpcc(mpec, tree_lp)
    res = solve_lpcc(mpec)
    node = replace(Simplex(tree_lp).solve(), x=res.x, objective=res.objective)
    assert classify(node)[0] == "incumbent"
    # a peak below the flows breaks every peak row but no pair product
    x = res.x.copy()
    x[mpec.peak_col] -= 1.0
    kind, _ = classify(replace(node, x=x))
    assert kind == "branch"


def test_long_day_closes_on_the_relaxation_shares():
    # stitched at shares rounded to 9 digits, the heuristic's incumbent
    # sat 2.9e-9 above the bound, which the 1e-9 prune cannot close, and
    # the tree ran past a 100-node budget
    mpec = assemble_mpec(day_long(2))
    res = solve_lpcc(mpec, SolveOptions(node_limit=100))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(204.5507650943, abs=1e-9)
    assert_lower_level_optimal(mpec, res)


def test_wall_time_covers_the_work_before_the_root(monkeypatch):
    # the heuristic's families and the chord rows are solved before the
    # root LP, and the clock and the time limit count them
    chords = solver._with_chords

    def slow(*args):
        time.sleep(0.05)
        return chords(*args)

    monkeypatch.setattr(solver, "_with_chords", slow)
    res = solve_lpcc(assemble_mpec(division_fixture(202)))
    assert res.status == "optimal" and res.wall_time >= 0.05


@pytest.mark.parametrize("mode", solver.MODES)
def test_each_fallback_is_named_and_changes_no_answer(monkeypatch, mode):
    mpec = assemble_mpec(division_fixture_n2(219))

    def solve():
        return solve_lpcc(mpec) if mode == "lpcc" else solve_milp(linearize_big_m(mpec))

    clean = solve()
    assert clean.status == "optimal" and clean.fallbacks == ()
    start, read = solver._root_start, solver._DivisionHeuristic.read_families

    def short_start(*args):  # one basic column short: the engine rejects it
        basic, x = start(*args)
        return basic[1:], x

    spoiled = corrupted_starts(simplex.no_battery_start)
    forced = (
        ("family_start", simplex, "no_battery_start", spoiled["duplicate column"]),
        ("family_start", simplex, "no_battery_start", spoiled["folded row's surplus"]),
        ("root_start", solver, "_root_start", short_start),
        ("root_start", solver, "_root_start", lambda *args: None),  # no start built
        ("reread", solver._DivisionHeuristic, "read_families",
         lambda self, x, dispatch: read(self, x, dispatch) if dispatch else None),
    )
    for name, owner, attr, patch in forced:
        with monkeypatch.context() as m:
            m.setattr(owner, attr, patch)
            res = solve()
        assert res.fallbacks == (name,)
        assert res.status == clean.status
        assert abs(res.objective - clean.objective) <= 1e-9 * max(1.0, abs(clean.objective))
        if name == "root_start":
            assert res.root_iterations > clean.root_iterations
        if name == "family_start":  # the families' first solves ran phase 1
            assert res.family_iterations > clean.family_iterations


TREE_DAYS = DIVISION_FIXTURES + (("stress", stress_fixture),
                                  ("day_long1", lambda: day_long(1)),
                                  ("day_long2", lambda: day_long(2)))


@pytest.mark.parametrize("name,build", TREE_DAYS, ids=[name for name, _ in TREE_DAYS])
def test_root_start_agrees_with_the_slack_crash(monkeypatch, name, build):
    # the day by both trees, free and with the whole battery given to the
    # customers, from the families' start and from the slack crash alone;
    # a solve the node budget stops has a path-dependent incumbent, so
    # there the two answers need only bound each other
    opts = SolveOptions(node_limit=200)
    inst = build()
    for pinned in (False, True):
        mpec = assemble_mpec(inst)
        if pinned:
            mpec = _pin_customers_only(mpec)
        for mode in solver.MODES:
            started = solve_division(mpec, opts, mode, None)[0]
            with monkeypatch.context() as m:
                m.setattr(solver, "_root_start", lambda *args: None)
                crashed = solve_division(mpec, opts, mode, None)[0]
            case = (name, pinned, mode)
            assert started.status == crashed.status, case
            scale = 1e-9 * max(1.0, abs(crashed.objective))
            if started.status == "optimal":
                assert abs(started.objective - crashed.objective) <= scale, case
            else:
                assert started.status == "limit", case
                assert started.best_bound <= crashed.objective + scale, case
                assert crashed.best_bound <= started.objective + scale, case
            assert started.fallbacks == (), case  # the pinned shares start at a vertex too
            if mode == "bigm":
                assert validate_big_m(started.model, started.x).clean, case
