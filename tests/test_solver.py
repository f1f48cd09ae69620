import itertools
import time

import numpy as np
import pytest

from storageshare import mpec as mpec_module
from storageshare import simplex, solver
from storageshare.instance import upper_objective, zero_schedules
from storageshare.lp import build_party_lp, evaluate
from storageshare.mpec import assemble_mpec, linearize_big_m, validate_big_m
from storageshare.oracle import grid_oracle
from storageshare.scenarios import _pin_customers_only, solve_division
from storageshare.simplex import CapacityPath, Simplex, SimplexError, day_paths
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
from tests.lp_oracle import check_kkt_residuals, derive_kkt, make_lp


def solve_binary(lp, cols):
    """The tree core on a plain LP whose cols are binary: take an integral
    relaxation as an incumbent, and branch on the most fractional one."""
    cols = np.asarray(cols)

    def frac(x):
        return np.abs(x[cols] - np.round(x[cols]))

    def accept(x):
        f = frac(x)
        return (x if np.all(f <= 1e-6) else None), f

    def branch(f, fixes):
        col = int(cols[np.argmax(f)])
        return ((col, 0.0, 0.0),), ((col, 1.0, 1.0),)

    return solver._branch_and_bound(Simplex(lp), SolveOptions(), accept, branch)


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
    res = solve_milp(assemble_mpec(inst))
    assert res.status == "optimal"
    bounds = np.array(res.bound_history)
    incs = np.array(res.incumbent_history)
    assert bounds.size >= 1 and incs.size >= 1
    assert np.all(np.diff(bounds) > 0.0)
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
        assert np.all(np.diff(res.bound_history) > 0.0)


@pytest.mark.parametrize("mode", solver.MODES)
def test_bound_history_rises_strictly_to_the_best_bound(mode):
    # these histories once ended above best_bound: customers-only seed 260
    # by lpcc at 45.594781220134685 against 44.733824207047405 (a pruned
    # node's bound), and free seed 290 by bigm at its root bound, 1 ulp
    # above the incumbent
    for seed in (260, 271, 290, 293):
        mpec = assemble_mpec(division_fixture(seed))
        for model in (mpec, _pin_customers_only(mpec)):
            for gap_target in (0.0, 0.01, 0.05):
                opts = SolveOptions(node_limit=4000, gap_target=gap_target)
                res = solve_division(model, opts, mode)[0]
                hist = np.array(res.bound_history)
                assert np.all(np.diff(hist) > 0.0)
                assert np.all(hist <= res.best_bound)
                if res.status == "optimal":
                    assert hist[-1] == res.best_bound


@pytest.mark.parametrize("mode", solver.MODES)
def test_branch_takes_the_worst_pair_the_node_left_free(mode):
    mpec = assemble_mpec(division_fixture(260))
    n = mpec.lp.n_vars
    u_cols = linearize_big_m(mpec, day_paths(mpec.instance)).binary_cols if mode == "bigm" else None
    branch = solver._branch_rule(mpec, u_cols)

    def children(q):
        w, row = mpec.pairs[q].tolist()
        if u_cols is None:
            return ((w, 0.0, 0.0),), ((n + row, 0.0, 0.0),)
        u = int(u_cols[q])
        return ((u, 0.0, 0.0),), ((u, 1.0, 1.0),)

    last = len(mpec.pairs) - 1
    prod = np.arange(last + 1.0)  # the last pair is the worst
    assert branch(prod, ()) == children(last)
    for child in children(last):  # either fix of the worst pair leaves the next worst
        assert branch(prod, child) == children(last - 1)
    # every pair fixed: the node has no children; the rule once returned the
    # worst pair's, whose fixes the node already held, so the node branched
    # into itself until the node budget ran out
    every = tuple(fix for q in range(last + 1) for fix in children(q)[q % 2])
    assert branch(prod, every) == ()


@pytest.mark.parametrize("mode", solver.MODES)
def test_a_node_that_cannot_be_branched_ends_the_search(monkeypatch, mode):
    # a rejected node without children ends the search after that node,
    # status limit, never optimal, and the solve names the fallback
    mpec = assemble_mpec(division_fixture(260))

    def reject(x):
        return None, np.zeros(len(mpec.pairs))

    res = solver._branch_and_bound(Simplex(mpec.lp), SolveOptions(), reject, lambda prod, fixes: ())
    assert (res.status, res.exit_code, res.node_count) == ("limit", 4, 1)
    assert res.fallbacks == ("unbranchable",) and res.x is None
    assert res.best_bound == res.bound_history[-1] > -np.inf
    monkeypatch.setattr(solver, "_bilevel_feasible", lambda *args: reject)
    monkeypatch.setattr(solver, "_branch_rule", lambda *args: lambda prod, fixes: ())
    res = solve_lpcc(mpec) if mode == "lpcc" else solve_milp(mpec)
    assert (res.status, res.exit_code, res.node_count) == ("limit", 4, 1)
    assert res.fallbacks == ("unbranchable",) and res.x is None


@pytest.mark.parametrize("seed", [270, 274, 278, 281])
@pytest.mark.parametrize("mode", solver.MODES)
def test_gap_target_stops_at_the_lowest_open_bound(seed, mode):
    # on these seeds a gap target leaves a subtree unsearched: the search
    # stops at the first popped node within the target, whose bound is the
    # lowest still open, so the bound never passes the optimum
    solve = solve_lpcc if mode == "lpcc" else solve_milp
    free = assemble_mpec(division_fixture(seed))
    for mpec in (free, _pin_customers_only(free)):
        exact = solve(mpec)
        assert exact.status == "optimal"
        for gap_target in (0.01, 0.05):
            res = solve(mpec, SolveOptions(gap_target=gap_target))
            assert res.status == "optimal" and res.node_count <= exact.node_count
            assert res.best_bound <= exact.objective + 1e-9
            assert res.gap == solver._relative_gap(res.objective, res.best_bound) <= gap_target
            # a popped node is recorded before it is pruned, so the history may
            # end above the incumbent, but not when the gap stopped the search
            assert min(res.bound_history[-1], res.objective) == res.best_bound
            if res.gap > 0:
                assert res.bound_history[-1] == res.best_bound


def test_node_limit_yields_limit_status():
    inst = interior_fixture()
    mpec = assemble_mpec(inst)
    full = solve_milp(mpec)
    assert full.status == "optimal" and full.node_count > 7
    assert_lower_level_optimal(mpec, full)
    res = solve_milp(mpec, SolveOptions(node_limit=5))
    assert res.status == "limit"
    assert res.exit_code == 4
    assert res.node_count <= 5 + 2  # a popped branch may finish its two children
    assert res.best_bound <= full.objective + 1e-9
    if res.x is not None:
        assert res.objective >= full.objective - 1e-9


@pytest.mark.parametrize("mode", solver.MODES)
def test_root_at_its_iteration_limit_proves_no_bound(monkeypatch, mode):
    # a root LP stopped by its iteration limit proves nothing: the solve
    # ends "limit" with no answer and a bound of -inf, where it once
    # claimed a bound of +inf
    class Engine(Simplex):
        def solve(self, lo=None, hi=None, start=None):
            return self._failed("iteration_limit")

    monkeypatch.setattr(solver, "Simplex", Engine)
    mpec = assemble_mpec(division_fixture(202))
    res = solve_lpcc(mpec) if mode == "lpcc" else solve_milp(mpec)
    assert (res.status, res.exit_code, res.node_count) == ("limit", 4, 1)
    assert res.x is None and np.isnan(res.objective)
    assert res.best_bound == -np.inf and res.gap == np.inf


def test_one_capacity_path_per_party_per_model(monkeypatch):
    # a model builds every party's path once, on its first tree solve, and
    # a second solve of it (by the other tree) builds none; in both, the
    # tree LP's caps and chords, the root start and the re-read read the
    # first solve's objects, which the model holds
    built, reads = [], []

    class Path(CapacityPath):
        def __init__(self, instance, party):
            super().__init__(instance, party)
            built.append(self)

    def reading(name, fn, at):
        def wrapped(*args, **kw):
            reads.append(("reread" if kw.get("dispatch") is False else name, args[at]))
            return fn(*args, **kw)
        return wrapped

    monkeypatch.setattr(simplex, "CapacityPath", Path)
    for name, at in (("_tree_lp", 2), ("_root_start", 2), ("_stitch", 1)):
        monkeypatch.setattr(solver, name, reading(name.strip("_"), getattr(solver, name), at))
    mpec = assemble_mpec(interior_fixture())  # its root branches
    parties = len(mpec.parties())
    first = None
    for solve, builds in ((solve_lpcc, parties), (solve_milp, 0)):
        built.clear()
        reads.clear()
        res = solve(mpec)
        assert res.status == "optimal" and res.node_count > 1 and res.fallbacks == ()
        assert len(built) == builds
        first = first or tuple(built)
        assert all(a is b for a, b in zip(mpec.paths, first))
        names = [name for name, _ in reads]
        assert names.count("tree_lp") == names.count("root_start") == names.count("reread") == 1
        assert names.count("stitch") == 1  # the root start's
        for _, paths in reads:
            assert len(paths) == parties and all(a is b for a, b in zip(paths, first))


def test_time_limit_yields_limit_status():
    inst = interior_fixture()
    mpec = assemble_mpec(inst)
    res = solve_lpcc(mpec, SolveOptions(time_limit=1e-3))
    assert res.status == "limit"
    assert res.exit_code == 4
    if res.x is not None:  # an incumbent found before the limit is still bilevel feasible
        assert_lower_level_optimal(mpec, res)


def test_bigm_tree_searches_the_floored_form(monkeypatch):
    # solve_milp builds the big-M form itself, each multiplier bound floored
    # at its pair's cap; with the fixed sizes shrunk the floor lifts bounds
    days = [build() for _, build in DIVISION_FIXTURES] + [stress_fixture()]
    for shrink in (False, True):
        if shrink:
            monkeypatch.setattr(mpec_module, "_DUAL_SCALE", 0.05)
            monkeypatch.setattr(mpec_module, "_DUAL_FLOOR", 1e-3)
        for inst in days[:6] if shrink else days:
            mpec = assemble_mpec(inst)
            want = linearize_big_m(mpec, day_paths(inst))
            got = solve_milp(mpec, SolveOptions(node_limit=1)).model
            np.testing.assert_array_equal(got.m_omega, want.m_omega)
            assert got.lifted == want.lifted and (got.lifted > 0) == shrink


def test_runs_are_deterministic():
    inst = division_fixture_n2(219)
    mpec = assemble_mpec(inst)
    a = solve_milp(mpec)
    b = solve_milp(mpec)
    assert a.node_count == b.node_count
    assert a.objective == b.objective
    assert a.bound_history == b.bound_history
    assert np.array_equal(a.x, b.x)
    c = solve_lpcc(mpec)
    d = solve_lpcc(mpec)
    assert c.node_count == d.node_count
    assert c.objective == d.objective
    assert np.array_equal(c.x, d.x)


def assert_extracted_duals_stationary(inst, mpec, res):
    division, schedules, duals = extract_solution(res, inst)
    shares = list(division.s_customer) + [division.s_disco]
    for p, lay in enumerate(mpec.parties()):
        lp = build_party_lp(inst, p, shares[p])
        kkt = derive_kkt(lp)
        x_p = np.append(res.x[lay.x0: lay.x0 + lay.nx], shares[p])
        tag = lay.tag.rstrip(".")
        rep, ok = check_kkt_residuals(kkt, x_p, duals[tag]["omega"], duals[tag]["v"])
        assert ok, f"{tag}: {rep}"
    return division, schedules


def test_division_model_end_to_end():
    inst = division_fixture(209)
    mpec = assemble_mpec(inst)
    rm = solve_milp(mpec)
    rl = solve_lpcc(mpec)
    assert rm.status == rl.status == "optimal"
    scale = max(1.0, abs(rl.objective))
    assert abs(rm.objective - rl.objective) / scale <= 1e-9
    grid = grid_oracle(inst, step=inst.storage.total_capacity / 20.0)
    assert abs(grid.best_objective - rl.objective) / scale <= 1e-6
    assert validate_big_m(rm.model, rm.x).clean

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
    rm = solve_division(mpec, SolveOptions(), "bigm")[0]
    rl = solve_lpcc(mpec)
    assert rm.status == rl.status == "optimal"
    assert abs(rm.objective - rl.objective) <= 1e-6 * max(1.0, abs(rl.objective))
    for res in (rm, rl):
        assert_lower_level_optimal(mpec, res)
    grid = grid_oracle(inst, step=inst.storage.total_capacity / 20.0)
    assert_grid_not_below(grid.best_objective, rl.objective)


def test_bigm_answer_takes_the_family_multipliers():
    # the tree leaves this answer with a multiplier near its big-M bound;
    # read off the party paths instead, no bound is flagged and the
    # solve needs no escalation
    mpec = assemble_mpec(division_fixture(271))
    res, escalations, _ = solve_division(mpec, SolveOptions(), "bigm")
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
    rm = solve_milp(mpec)
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
    """The LP the trees search: mpec.lp with its caps and chord rows."""
    return solver._tree_lp(mpec, mpec.lp, day_paths(mpec.instance))


def test_value_functions_lie_on_or_below_their_chords():
    # each party's optimal cost phi_p is convex in its share, so at any
    # share the optimal dispatch, from a cold solve of the party's LP built
    # there, satisfies the party's chord row
    days = [build() for _, build in DIVISION_FIXTURES] + [stress_fixture(), day_long(1)]
    for inst in days:
        mpec = assemble_mpec(inst)
        tree_lp = _tree_lp(mpec)
        chords = tree_lp.g.take(np.arange(mpec.lp.n_g, tree_lp.n_g))
        rhs = tree_lp.b_g[mpec.lp.n_g:]
        for p, lay in enumerate(mpec.parties()):
            for share in np.linspace(0.0, inst.storage.total_capacity, 41):
                phi = Simplex(build_party_lp(inst, p, share)).solve()
                assert phi.status == "optimal"
                z = np.zeros(tree_lp.n_vars)
                z[lay.cap_col] = share
                z[lay.x0: lay.x0 + lay.nx] = phi.x[: lay.nx]
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
    rl, rm = solve_lpcc(mpec), solve_milp(mpec)
    assert rl.status == rm.status == "optimal"
    milp = rm.model
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
                     (head.data, base.g.data), (tree_lp.b_g[: base.n_g], base.b_g)):
            np.testing.assert_array_equal(a, b)
    # the models themselves are untouched: no chord row in mpec.lp or its
    # linearization
    fresh = assemble_mpec(inst)
    for a, b in ((mpec.lp, fresh.lp), (milp.lp, linearize_big_m(fresh, day_paths(inst)).lp)):
        assert a.n_g == b.n_g
        np.testing.assert_array_equal(a.g.indices, b.g.indices)
        np.testing.assert_array_equal(a.g.data, b.g.data)
        np.testing.assert_array_equal(a.b_g, b.b_g)


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
    assert tree_lp.b_g[row] == 0.0  # phi_d(0) = 0: no battery, no dispatch


def _accept_of(monkeypatch, mode, mpec):
    """The answer of mode's tree on mpec and the rule that tree took its
    points by, as x -> the point taken or None."""
    rule, rules = solver._bilevel_feasible, []

    def recorded(*args):
        rules.append(rule(*args))
        return rules[-1]

    monkeypatch.setattr(solver, "_bilevel_feasible", recorded)
    res = solve_lpcc(mpec) if mode == "lpcc" else solve_milp(mpec)
    assert len(rules) == 1
    return res, lambda x: rules[0](x)[0]


@pytest.mark.parametrize("mode", solver.MODES)
def test_trees_take_no_incumbent_that_breaks_a_row(monkeypatch, mode):
    mpec = assemble_mpec(division_fixture(202))
    res, accept = _accept_of(monkeypatch, mode, mpec)
    assert accept(res.x) is not None
    # a peak below the flows breaks every peak row but no pair product
    x = res.x.copy()
    x[mpec.peak_col] -= 1.0
    assert accept(x) is None


@pytest.mark.parametrize("mode", solver.MODES)
def test_trees_take_no_point_with_a_slipping_pair(monkeypatch, mode):
    # a multiplier of 5e-7 on a row with slack 2.31 breaks no row at 1e-6,
    # and its binary rounds to 0; the bigm tree once took such a node as
    # its incumbent, with a pair product of 1.16e-6, 12 times the one
    # lpcc and the re-read allow
    mpec = assemble_mpec(division_fixture(202))
    res, accept = _accept_of(monkeypatch, mode, mpec)
    w_col = mpec.pairs[24, 0]
    slack = float(solver._pair_slacks(mpec.lp, mpec.pairs[24:25])(res.x)[0])
    assert res.x[w_col] == 0.0 and slack == pytest.approx(2.3143, abs=1e-4)
    x = res.x.copy()
    x[w_col] = 5e-7
    assert evaluate(res.model.lp, x).feasible(1e-6)
    assert accept(x) is None


def test_long_day_closes_on_the_relaxation_shares():
    # the free long day proves its optimum within a 100-node budget
    mpec = assemble_mpec(day_long(2))
    res = solve_lpcc(mpec, SolveOptions(node_limit=100))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(204.5507650943, abs=1e-9)
    assert_lower_level_optimal(mpec, res)


@pytest.mark.parametrize("n,t,mode,optimum", [(2, 24, "lpcc", 273.48460920095727),
                                               (2, 24, "bigm", 273.48460920095727),
                                               (5, 12, "lpcc", 417.6708056409256)])
def test_capped_trees_prove_customers_only_days(n, t, mode, optimum):
    # with the multiplier columns uncapped, customers-only day_long(2)
    # took 1,743 (lpcc) and 1,891 (bigm) nodes, and the N=5, T=12 day
    # ended "limit" after 3,000; capped, each takes under 300
    mpec = _pin_customers_only(assemble_mpec(day_long(n, t)))
    res = solve_division(mpec, SolveOptions(node_limit=400), mode)[0]
    assert res.status == "optimal"
    assert abs(res.objective - optimum) <= 1e-6 * max(1.0, abs(optimum))
    assert_lower_level_optimal(mpec, res)


def test_wall_time_covers_the_work_before_the_root(monkeypatch):
    # the capacity paths and the tree LP are built before the root LP, and
    # the clock and the time limit count them
    tree_lp = solver._tree_lp

    def slow(*args):
        time.sleep(0.05)
        return tree_lp(*args)

    monkeypatch.setattr(solver, "_tree_lp", slow)
    res = solve_lpcc(assemble_mpec(division_fixture(202)))
    assert res.status == "optimal" and res.wall_time >= 0.05


@pytest.mark.parametrize("mode", solver.MODES)
def test_each_fallback_is_named_and_changes_no_answer(monkeypatch, mode):
    def solve(mpec):
        return solve_lpcc(mpec) if mode == "lpcc" else solve_milp(mpec)

    start, stitch, dual_loop = solver._root_start, solver._stitch, Simplex._dual_loop

    def short_start(*args):  # one basic column short: the engine rejects it
        basic, x = start(*args)
        return basic[1:], x

    def spoiled_reread(mpec, paths, x, dispatch):  # multipliers off every pair row
        out = stitch(mpec, paths, x, dispatch)
        if not dispatch:
            x[mpec.pairs[:, 0]] += 1.0
        return out

    raised = []

    def failing_once(self):  # a node's warm resolve: it restarts cold
        if not raised:
            raised.append(self)
            raise SimplexError("forced")
        return dual_loop(self)

    spoiled = corrupted_starts(simplex.no_battery_start)
    pair, branching = division_fixture_n2(219), interior_fixture()  # the second branches
    forced = (
        ("family_start", pair, simplex, "no_battery_start", spoiled["duplicate column"]),
        ("family_start", pair, simplex, "no_battery_start", spoiled["folded row's surplus"]),
        ("root_start", pair, solver, "_root_start", short_start),
        ("root_start", pair, solver, "_root_start", lambda *args: None),  # no start built
        ("reread", pair, solver, "_stitch", spoiled_reread),
        ("cold_restart", branching, Simplex, "_dual_loop", failing_once),
    )
    for name, inst, owner, attr, patch in forced:
        clean = solve(assemble_mpec(inst))
        assert clean.status == "optimal" and clean.fallbacks == ()
        with monkeypatch.context() as m:
            m.setattr(owner, attr, patch)
            res = solve(assemble_mpec(inst))  # a fresh model builds its paths under the patch
        assert res.fallbacks == (name,)
        assert res.cold_restarts == (name == "cold_restart") and clean.cold_restarts == 0
        assert res.status == clean.status
        assert abs(res.objective - clean.objective) <= 1e-9 * max(1.0, abs(clean.objective))
        if name == "root_start":
            assert res.root_iterations > clean.root_iterations
        if name == "family_start":  # the paths' cold solves ran phase 1
            assert res.family_iterations > clean.family_iterations
    assert len(raised) == 1


@pytest.mark.parametrize("mode", solver.MODES)
def test_warm_start_counters_cover_every_node_below_the_root(mode):
    # the result carries the tree engine's counters: each node below the
    # root is one warm resolve, from a kept inverse or a rebuilt one, and a
    # resolve that restarts cold is named as a fallback
    days = (assemble_mpec(interior_fixture()),
            _pin_customers_only(assemble_mpec(day_long(2))))
    for mpec in days:
        res = solve_division(mpec, SolveOptions(node_limit=4000), mode)[0]
        assert res.status == "optimal" and res.node_count > 1
        assert res.warm_hits + res.warm_rebuilds == res.node_count - 1
        assert (res.cold_restarts > 0) == ("cold_restart" in res.fallbacks)


TREE_DAYS = DIVISION_FIXTURES + (("stress", stress_fixture),
                                  ("day_long1", lambda: day_long(1)),
                                  ("day_long2", lambda: day_long(2)))


@pytest.mark.parametrize("name,build", TREE_DAYS, ids=[name for name, _ in TREE_DAYS])
def test_root_start_agrees_with_the_slack_crash(monkeypatch, name, build):
    # the day by both trees, free and with the whole battery given to the
    # customers, from the paths' start and from the slack crash alone, each
    # run to proof: the two starts take different node counts (customers-only
    # pair236 by lpcc: 221 nodes started, 141 crashed), not different answers
    opts = SolveOptions(node_limit=4000)
    inst = build()
    for pinned in (False, True):
        mpec = assemble_mpec(inst)
        if pinned:
            mpec = _pin_customers_only(mpec)
        for mode in solver.MODES:
            started = solve_division(mpec, opts, mode)[0]
            with monkeypatch.context() as m:
                m.setattr(solver, "_root_start", lambda *args: None)
                crashed = solve_division(mpec, opts, mode)[0]
            case = (name, pinned, mode)
            assert started.status == crashed.status == "optimal", case
            scale = 1e-9 * max(1.0, abs(crashed.objective))
            assert abs(started.objective - crashed.objective) <= scale, case
            # the pinned shares start at a vertex too; customers-only
            # day_long2 by bigm restarts one warm resolve cold
            assert set(started.fallbacks) <= {"cold_restart"}, case
            if mode == "bigm":
                assert validate_big_m(started.model, started.x).clean, case
