import numpy as np
import pytest

from storageshare.lp import build_llm_c, build_llm_d, make_lp
from storageshare.mpec import (
    BigMPolicy,
    assemble_mpec,
    derive_kkt,
    linearize_big_m,
    validate_big_m,
)
from tests.conftest import rand_instance
from tests.lp_oracle import row_value


def test_derive_kkt_one_variable():
    # min c*x s.t. x >= 0: stationarity is omega = c, one pair
    lp = make_lp(c=[3.0], a_ub=[[1.0]], b_ub=[0.0])
    kkt = derive_kkt(lp)
    assert kkt.n_x == 1 and kkt.n_omega == 1 and kkt.n_v == 0
    np.testing.assert_array_equal(kkt.stat_g.row(0)[0], [0])
    np.testing.assert_array_equal(kkt.stat_g.row(0)[1], [1.0])
    assert kkt.rhs[0] == 3.0
    assert len(kkt.pair_names) == 1


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
    want = [i for i, nm in enumerate(lp.g_names) if nm.startswith("peak_def")]
    np.testing.assert_array_equal(np.sort(rows), want)
    np.testing.assert_array_equal(kkt.stat_g.row(peak_col)[1], np.ones(t))
    assert kkt.stat_h.row(peak_col)[0].size == 0
    assert kkt.rhs[peak_col] == pytest.approx(tiny_instance.weights.alpha)


def test_stationarity_matches_dense_transpose(rng):
    for _ in range(5):
        inst = rand_instance(rng, n=1)
        lp = build_llm_d(inst, 3.0)
        kkt = derive_kkt(lp)
        a_g = lp.dense_g()
        a_h = lp.dense_h()
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
        assert len(set(mpec.lp.var_names)) == mpec.lp.n_vars


def test_division_bounds_and_objective(rng):
    inst = rand_instance(rng, n=2, t=4)
    mpec = assemble_mpec(inst)
    lp = mpec.lp
    s = inst.storage.total_capacity
    for colname, col in [("s_d", 1), ("s_c[0]", 2), ("s_c[1]", 3)]:
        assert lp.var_names[col] == colname
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
    i = lp.g_names.index("c0.dis_cap[0]")
    cols = dict(zip(lp.g_idx[i], lp.g_val[i]))
    assert cols[lay.cap_col] == pytest.approx(k)
    assert cols[lay.x0 + 4] == -1.0  # dis_0 column
    assert lp.g_offset[i] == 0.0
    j = lp.g_names.index("d.soc_max[2]")
    assert mpec.disco.cap_col in lp.g_idx[j]


def test_pairs_align_rows_and_multipliers(rng):
    inst = rand_instance(rng, n=2, t=4)
    mpec = assemble_mpec(inst)
    lp = mpec.lp
    for w_col, g_row in mpec.pairs:
        assert lp.lb[w_col] == 0.0  # multiplier sign
        w_name = lp.var_names[w_col]
        g_name = lp.g_names[g_row]
        tag, rowname = g_name.split(".", 1)
        assert w_name == f"{tag}.w.{rowname}"


def test_peak_rows_cover_all_parties(rng):
    inst = rand_instance(rng, n=2, t=3)
    mpec = assemble_mpec(inst)
    lp = mpec.lp
    i = lp.g_names.index("peak_row[1]")
    cols = dict(zip(lp.g_idx[i], lp.g_val[i]))
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
    assert milp.m_notes == ()
    # shared rows carried verbatim: dropping the u-rows recovers the MPEC
    for i in range(mpec.lp.n_g):
        np.testing.assert_array_equal(milp.lp.g_idx[i], mpec.lp.g_idx[i])
        np.testing.assert_array_equal(milp.lp.g_val[i], mpec.lp.g_val[i])
    assert milp.lp.g_offset[mpec.lp.n_g - 1] == mpec.lp.g_offset[-1]


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
        i0 = milp.lp.g_idx[g_row][0]
        x[i0] = (slack_target + milp.lp.g_offset[g_row]) / milp.lp.g_val[g_row][0]
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
