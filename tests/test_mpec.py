import numpy as np
import pytest

from storageshare.lp import build_llm_c, build_llm_d, make_lp
from storageshare.mpec import (
    BigMPolicy,
    assemble_mpec,
    linearize_big_m,
    validate_big_m,
)
from storageshare.solver import _pair_slacks, solve_lpcc
from tests.conftest import DIVISION_FIXTURES, rand_instance
from tests.lp_oracle import derive_kkt, row_value


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
    lp = build_llm_c(tiny_instance, 0, 4.0)
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
        lp = build_llm_d(inst, 3.0)
        kkt = derive_kkt(lp)
        a_g = lp.g.dense(lp.n_vars)
        a_h = lp.h.dense(lp.n_vars)
        for j in range(lp.n_vars):
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
    assert lp.g_offset[i] == 0.0
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
    assert lp.g_offset[i] == pytest.approx(inst.loads.system_load[1])


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
    assert milp.lp.g_offset[mpec.lp.n_g - 1] == mpec.lp.g_offset[-1]


def test_m_slack_is_the_catalog_family_bound():
    # each pair's primal M is primal_safety times the bound of its row's
    # family (row i of a party block is of family i // T), from instance
    # data, plus primal_floor; at the solved point each row's slack lies
    # within that bound
    pol = BigMPolicy()
    for name, make in DIVISION_FIXTURES:
        inst = make()
        st, s, t = inst.storage, inst.storage.total_capacity, inst.grid.slot_count
        mpec = assemble_mpec(inst)
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
        bound = np.array(bound)
        milp = linearize_big_m(mpec, pol)
        np.testing.assert_array_equal(milp.m_slack, pol.primal_safety * bound + pol.primal_floor)
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
    w_col, g_row = milp.pairs[q]
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
        x[idx[0]] = (slack_target + milp.lp.g_offset[g_row]) / val[0]
        return row_value(milp.lp, r_omega, x), row_value(milp.lp, r_slack, x)

    a, b = rowvals(omega=0.0, u=0.0, slack_target=0.5 * milp.m_slack[q])
    assert a >= 0 and b >= 0  # (0, g) with u=0 is allowed
    a, b = rowvals(omega=3.0, u=0.0, slack_target=2.0)
    assert a < 0  # omega > 0 with u=0 violates the omega row
    a, b = rowvals(omega=3.0, u=1.0, slack_target=2.0)
    assert a >= 0 and b < 0  # both sides positive: no u helps
    a, b = rowvals(omega=0.0, u=0.0, slack_target=2.0 * milp.m_slack[q])
    assert b < 0  # slack beyond M is cut off even though omega*g = 0


def test_policy_validation():
    with pytest.raises(ValueError):
        BigMPolicy(dual_scale=-1.0).check()
    with pytest.raises(ValueError):
        BigMPolicy(max_rounds=-2).check()
    assert BigMPolicy().check().escalation == 10.0


def test_validate_big_m(rng):
    inst = rand_instance(rng, n=1, t=4)
    milp = linearize_big_m(assemble_mpec(inst))
    x = np.zeros(milp.lp.n_vars)
    # all-zero duals and zero slacks: clean
    assert validate_big_m(milp, x).clean
    # pin one multiplier at its M
    w_col, _ = milp.pairs[3]
    x[w_col] = milp.m_omega[3]
    rep = validate_big_m(milp, x)
    assert not rep.clean
    assert any(q == 3 and side == "omega" for q, side, _, _ in rep.flagged)
