import numpy as np
import pytest

from storageshare import solver
from storageshare.lp import Rows, build_party_lp
from storageshare.mpec import assemble_mpec, linearize_big_m, pair_caps, validate_big_m
from storageshare.simplex import Simplex, day_paths
from storageshare.solver import _pair_slacks, solve_lpcc
from tests.conftest import (DIVISION_FIXTURES, day_long, fleet_instance, rand_instance,
                            stress_fixture)
from tests.lp_oracle import derive_kkt, make_lp, row_value


def test_derive_kkt_one_variable():
    # min c*x s.t. x >= 0: stationarity is omega = c, one pair
    lp = make_lp(c=[3.0], a_ub=[[1.0]], b_ub=[0.0])
    kkt = derive_kkt(lp)
    # one stationarity row; one multiplier and pair; no balance multiplier
    assert kkt.stat_g.n_rows == kkt.stat_h.n_rows == 1
    assert (kkt.lp.n_g, kkt.lp.n_h) == (1, 0)
    np.testing.assert_array_equal(kkt.stat_g.row(0)[0], [0])
    np.testing.assert_array_equal(kkt.stat_g.row(0)[1], [1.0])
    assert kkt.rhs[0] == 3.0


def test_derive_kkt_rejects_bounded_lp():
    lp = make_lp(c=[1.0], a_ub=[[1.0]], b_ub=[0.0], lb=[0.0])
    with pytest.raises(ValueError, match="bounds"):
        derive_kkt(lp)


def test_peak_stationarity_row(tiny_instance):
    # gradient of the dispatch objective in the peak variable is alpha and
    # only the peak rows touch it: alpha - sum_t omega7_t = 0
    lp = build_party_lp(tiny_instance, 0, 4.0)
    kkt = derive_kkt(lp)
    t = tiny_instance.grid.slot_count
    peak_col = 2 * t
    rows = kkt.stat_g.row(peak_col)[0]
    want = np.arange(6 * t, 7 * t)  # peak_def is catalog family 7
    np.testing.assert_array_equal(np.sort(rows), want)
    np.testing.assert_array_equal(kkt.stat_g.row(peak_col)[1], np.ones(t))
    assert kkt.stat_h.row(peak_col)[0].size == 0
    assert kkt.rhs[peak_col] == pytest.approx(tiny_instance.weights.alpha)


def test_stationarity_matches_dense_transpose(rng):
    for _ in range(5):
        inst = rand_instance(rng, n=1)
        lp = build_party_lp(inst, inst.customer_count, 3.0)
        kkt = derive_kkt(lp)
        a_g = lp.g.dense(lp.n_vars)
        a_h = lp.h.dense(lp.n_vars)
        # one row per dispatch column; the capacity, last and fixed, has none
        assert kkt.stat_g.n_rows == kkt.stat_h.n_rows == lp.n_vars - 1
        for j in range(lp.n_vars - 1):
            dense_g = np.zeros(lp.n_g)
            dense_g[kkt.stat_g.row(j)[0]] = kkt.stat_g.row(j)[1]
            np.testing.assert_allclose(dense_g, a_g[:, j])
            dense_h = np.zeros(lp.n_h)
            dense_h[kkt.stat_h.row(j)[0]] = kkt.stat_h.row(j)[1]
            np.testing.assert_allclose(dense_h, a_h[:, j])


def _counts(n, t):
    return dict(
        cols=1 + (1 + n) + n * (2 * t + 2) + n * (8 * t + 1) + 2 * t + 6 * t + 1,
        pairs=n * 8 * t + 6 * t,
        g=1 + t + n * 8 * t + 6 * t,
        h=n * (2 * t + 2 + 1) + 2 * t + 1,
    )


def test_assemble_counts_small(rng):
    inst = rand_instance(rng, n=1, t=4)
    mpec = assemble_mpec(inst)
    want = _counts(1, 4)
    assert mpec.lp.n_vars == want["cols"] == 79
    assert mpec.n_pairs == want["pairs"] == 56
    assert mpec.lp.n_g == want["g"]
    assert mpec.lp.n_h == want["h"]


def test_assemble_counts_vary(rng):
    for n, t in [(2, 4), (3, 5), (1, 6)]:
        inst = rand_instance(rng, n=n, t=t)
        mpec = assemble_mpec(inst)
        want = _counts(n, t)
        assert mpec.lp.n_vars == want["cols"]
        assert mpec.n_pairs == want["pairs"]
        assert mpec.lp.n_g == want["g"]
        assert mpec.lp.n_h == want["h"]
        # every column belongs to exactly one registry slot
        cols = [mpec.peak_col, mpec.div_disco_col, *mpec.div_cust_cols]
        for lay in mpec.parties():
            cols += [*range(lay.x0, lay.x0 + lay.nx), *range(lay.w0, lay.w0 + lay.nw),
                     *range(lay.v0, lay.v0 + lay.nv)]
        assert sorted(cols) == list(range(mpec.lp.n_vars))


def test_division_bounds_and_objective(rng):
    inst = rand_instance(rng, n=2, t=4)
    mpec = assemble_mpec(inst)
    lp = mpec.lp
    s = inst.storage.total_capacity
    # s_d, s_c[0], s_c[1], each the share column of its party
    assert (mpec.div_disco_col, *mpec.div_cust_cols) == (1, 2, 3)
    assert [lay.cap_col for lay in mpec.parties()] == [2, 3, 1]
    for col in (1, 2, 3):
        assert lp.lb[col] == 0.0 and lp.ub[col] == s
    w = inst.weights
    assert lp.c[0] == w.lambda1
    dt = inst.grid.slot_hours
    price = (w.lambda2 * inst.prices.lmp + w.lambda3 * inst.prices.tou) * dt
    for lay in mpec.parties():
        np.testing.assert_allclose(lp.c[lay.x0: lay.x0 + 4], price)
        np.testing.assert_allclose(lp.c[lay.x0 + 4: lay.x0 + 8], -price)
    assert lp.objective_constant == pytest.approx(
        float(price @ inst.loads.system_load)
    )


def test_zero_cost_weights_reduce_to_peak(rng):
    inst = rand_instance(rng, n=1, t=4, lambda2=0.0, lambda3=0.0)
    mpec = assemble_mpec(inst)
    nz = np.nonzero(mpec.lp.c)[0]
    np.testing.assert_array_equal(nz, [0])
    assert mpec.lp.objective_constant == 0.0


def test_capacity_relink(rng):
    # dis_cap row: -dis_t + k*s_owner >= 0 after the re-link
    inst = rand_instance(rng, n=1, t=4)
    mpec = assemble_mpec(inst)
    lp = mpec.lp
    k = inst.storage.power_ratio
    lay = mpec.customers[0]
    i = lay.g0 + 4 * 4 + 0  # c0's dis_cap (catalog family 5) at slot 0
    cols = dict(zip(*lp.g.row(i)))
    assert cols[lay.cap_col] == pytest.approx(k)
    assert cols[lay.x0 + 4] == -1.0  # dis_0 column
    assert lp.b_g[i] == 0.0
    j = mpec.disco.g0 + 1 * 4 + 2  # the DisCo's soc_max (family 2) at slot 2
    assert mpec.disco.cap_col in lp.g.row(j)[0]


def test_pairs_align_rows_and_multipliers(rng):
    inst = rand_instance(rng, n=2, t=4)
    mpec = assemble_mpec(inst)
    lp = mpec.lp
    np.testing.assert_array_equal(lp.lb[mpec.pairs[:, 0]], 0.0)  # multiplier sign
    # pair i of a party block: the party's multiplier i and its primal row i
    want = np.concatenate([np.column_stack([lay.w0 + np.arange(lay.nw),
                                            lay.g0 + np.arange(lay.nw)])
                           for lay in mpec.parties()])
    np.testing.assert_array_equal(mpec.pairs, want)


def test_peak_rows_cover_all_parties(rng):
    inst = rand_instance(rng, n=2, t=3)
    mpec = assemble_mpec(inst)
    lp = mpec.lp
    i = 1 + 1  # after the capacity split row, the peak row of slot 1
    cols = dict(zip(*lp.g.row(i)))
    assert cols[0] == 1.0
    for lay in mpec.parties():
        assert cols[lay.x0 + 1] == -1.0  # ch at slot 1
        assert cols[lay.x0 + 3 + 1] == 1.0  # dis at slot 1
    assert lp.b_g[i] == pytest.approx(inst.loads.system_load[1])


def test_linearize_structure(rng):
    inst = rand_instance(rng, n=1, t=4)
    mpec = assemble_mpec(inst)
    milp = linearize_big_m(mpec)
    assert milp.n_binaries == mpec.n_pairs
    assert milp.lp.n_vars == mpec.lp.n_vars + mpec.n_pairs
    assert milp.lp.n_g == mpec.lp.n_g + 2 * mpec.n_pairs
    assert milp.lp.n_h == mpec.lp.n_h
    np.testing.assert_array_equal(milp.lp.lb[milp.binary_cols], 0.0)
    np.testing.assert_array_equal(milp.lp.ub[milp.binary_cols], 1.0)
    assert np.all(np.isfinite(milp.m_omega)) and np.all(milp.m_omega > 0)
    assert np.all(np.isfinite(milp.m_slack)) and np.all(milp.m_slack > 0)
    # shared rows carried verbatim: dropping the u-rows recovers the MPEC
    for i in range(mpec.lp.n_g):
        for a, b in zip(milp.lp.g.row(i), mpec.lp.g.row(i)):
            np.testing.assert_array_equal(a, b)
    assert milp.lp.b_g[mpec.lp.n_g - 1] == mpec.lp.b_g[-1]


def _pair_rows_by_join(milp):
    """The big-M model's g rows built from Rows parts: the MPEC rows, then
    each pair's omega row [w, u] and slack row [-(g row), u], joined,
    stacked and taken into pair order."""
    mpec, base = milp.mpec, milp.mpec.lp
    n_pairs = mpec.n_pairs
    w_cols, g_rows = mpec.pairs[:, 0], mpec.pairs[:, 1]
    u_cols = base.n_vars + np.arange(n_pairs)
    omega_rows = Rows.from_lists(np.column_stack([w_cols, u_cols]),
                                 np.column_stack([np.full(n_pairs, -1.0), milp.m_omega]))
    slack_rows = Rows.join([-base.g.take(g_rows),
                            Rows.from_lists(u_cols[:, None], -milp.m_slack[:, None])])
    interleave = np.column_stack([np.arange(n_pairs), n_pairs + np.arange(n_pairs)]).ravel()
    g = Rows.stack([base.g, Rows.stack([omega_rows, slack_rows]).take(interleave)])
    b_g = np.concatenate([base.b_g, np.column_stack(
        [np.zeros(n_pairs), -milp.m_slack - base.b_g[g_rows]]).ravel()])
    return g, b_g


@pytest.mark.parametrize("name", [name for name, _ in DIVISION_FIXTURES]
                         + ["stress", "day_long_2", "fleet"])
def test_pair_rows_match_the_joined_construction(name):
    make = dict(DIVISION_FIXTURES, stress=stress_fixture, day_long_2=lambda: day_long(2),
                fleet=fleet_instance)[name]
    mpec = assemble_mpec(make())
    for paths in (None, mpec.paths):
        milp = linearize_big_m(mpec, paths)
        g, b_g = _pair_rows_by_join(milp)
        # equal bit for bit: the same dtypes, and the same sign on every zero
        for got, want in ((milp.lp.g.indptr, g.indptr), (milp.lp.g.indices, g.indices),
                          (milp.lp.g.data, g.data), (milp.lp.b_g, b_g)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def _family_bound(inst, mpec):
    """The bound of each pair's row over the feasible set, by the row's
    catalog family (row i of a party block is of family i // T)."""
    st, s, t = inst.storage, inst.storage.total_capacity, inst.grid.slot_count
    loads = list(inst.loads.customer_load) + [inst.loads.system_load]
    bound = []
    for lay, load in zip(mpec.parties(), loads):
        for i in range(lay.nw):
            if i // t < 2:  # soc_min, soc_max
                bound.append((st.soc_upper - st.soc_lower) * s)
            elif i // t < 6:  # signs and power limits
                bound.append(st.power_ratio * s)
            else:  # peak_def, valley_def
                bound.append(2.0 * load.max() + 2.0 * st.power_ratio * s)
    return np.array(bound)


def test_m_slack_is_the_catalog_family_bound():
    # each pair's primal M is 1.25 times the bound of its row's family,
    # from instance data, plus 1; at the solved point each row's slack
    # lies within that bound
    for name, make in DIVISION_FIXTURES:
        inst = make()
        mpec = assemble_mpec(inst)
        bound = _family_bound(inst, mpec)
        milp = linearize_big_m(mpec)
        np.testing.assert_array_equal(milp.m_slack, 1.25 * bound + 1.0)
        res = solve_lpcc(mpec)
        assert res.status == "optimal", name
        slack = _pair_slacks(mpec.lp, mpec.pairs)(res.x)
        assert np.all(slack >= -1e-7) and np.all(slack <= bound + 1e-7), name


def test_pair_row_semantics(rng):
    # the two generated rows implement: omega <= M*u and g <= M*(1-u)
    inst = rand_instance(rng, n=1, t=4)
    mpec = assemble_mpec(inst)
    milp = linearize_big_m(mpec)
    q = 7
    w_col, g_row = mpec.pairs[q]
    r_omega = milp.pair_row0 + 2 * q
    r_slack = r_omega + 1
    x = np.zeros(milp.lp.n_vars)
    u_col = milp.binary_cols[q]

    def rowvals(omega, u, slack_target):
        x[:] = 0.0
        x[w_col] = omega
        x[u_col] = u
        # manufacture a point whose row-q slack equals slack_target by
        # shifting one variable of that row (offset folded out)
        idx, val = milp.lp.g.row(g_row)
        x[idx[0]] = (slack_target + milp.lp.b_g[g_row]) / val[0]
        return row_value(milp.lp, r_omega, x), row_value(milp.lp, r_slack, x)

    a, b = rowvals(omega=0.0, u=0.0, slack_target=0.5 * milp.m_slack[q])
    assert a >= 0 and b >= 0  # (0, g) with u=0 is allowed
    a, b = rowvals(omega=3.0, u=0.0, slack_target=2.0)
    assert a < 0  # omega > 0 with u=0 violates the omega row
    a, b = rowvals(omega=3.0, u=1.0, slack_target=2.0)
    assert a >= 0 and b < 0  # both sides positive: no u helps
    a, b = rowvals(omega=0.0, u=0.0, slack_target=2.0 * milp.m_slack[q])
    assert b < 0  # slack beyond M is cut off even though omega*g = 0


def _box_days():
    return [build() for _, build in DIVISION_FIXTURES] + [stress_fixture(), day_long(1),
                                                         day_long(2)]


def test_path_duals_are_complementary_to_every_optimal_dispatch():
    # the caps rest on this: at any share, the path's multipliers are
    # complementary to an optimal dispatch found with no help from the path
    # (a cold solve from the slack crash), so swapping them into a
    # bilevel-feasible point keeps it feasible at the same objective
    for inst in _box_days():
        for p, path in enumerate(day_paths(inst)):
            for share in np.linspace(0.0, inst.storage.total_capacity, 41):
                lp = build_party_lp(inst, p, share)
                sol = Simplex(lp).solve()
                assert sol.status == "optimal"
                slack = lp.g.dot(sol.x) - lp.b_g
                prod = np.abs(slack * path.at(share).dual_g).max(initial=0.0)
                assert prod <= 1e-9, (p, share, prod)


def test_path_floor_covers_every_multiplier():
    # the fixed multiplier bound is max(1, 1000 p dt), p the largest price
    # magnitude; the day's paths floor each pair's at 1.1 times the largest
    # multiplier its row takes on the party's path, plus 1e-3, read here at
    # every breakpoint and 41 shares between, and on these days the floor
    # lifts no bound, so the solved form is the exported one; both trees
    # cap each multiplier column at the same value
    for inst in _box_days():
        mpec = assemble_mpec(inst)
        paths = day_paths(inst)
        price = max(float(np.abs(inst.prices.lmp).max()), float(inst.prices.tou.max()),
                    inst.weights.alpha)
        fixed = linearize_big_m(mpec)
        np.testing.assert_array_equal(fixed.m_omega, max(1.0, 1e3 * price * inst.grid.slot_hours))
        floored = linearize_big_m(mpec, paths)
        np.testing.assert_array_equal(floored.m_omega, fixed.m_omega)
        np.testing.assert_array_equal(floored.m_slack, fixed.m_slack)
        assert floored.lifted == fixed.lifted == 0
        for lp in (mpec.lp, floored.lp):
            tree_lp = solver._tree_lp(mpec, lp, paths)
            np.testing.assert_array_equal(tree_lp.ub[mpec.pairs[:, 0]], pair_caps(paths))
        m_of = np.zeros(mpec.lp.n_vars)  # each multiplier column's bound
        m_of[mpec.pairs[:, 0]] = floored.m_omega
        c = inst.storage.total_capacity
        for path, lay in zip(paths, mpec.parties()):
            shares = np.union1d(np.linspace(0.0, c, 41), [piece[0] for piece in path.pieces])
            walked = np.max([path.at(s).dual_g for s in shares], axis=0)
            np.testing.assert_array_equal(walked, path.dual_g_max)
            assert np.all(m_of[lay.w0: lay.w0 + lay.nw] >= 1.1 * walked + 1e-3)


def test_validate_big_m(rng):
    inst = rand_instance(rng, n=1, t=4)
    milp = linearize_big_m(assemble_mpec(inst))
    x = np.zeros(milp.lp.n_vars)
    # all-zero duals and zero slacks: clean
    assert validate_big_m(milp, x).clean
    # pin one multiplier at its M
    w_col, _ = milp.mpec.pairs[3]
    x[w_col] = milp.m_omega[3]
    rep = validate_big_m(milp, x)
    assert not rep.clean
    assert any(q == 3 and side == "omega" for q, side, _, _ in rep.flagged)
