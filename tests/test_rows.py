"""The CSR row type against plain numpy on the dense matrix."""

import numpy as np
import pytest

from storageshare.lp import Rows, evaluate
from storageshare.mpec import assemble_mpec
from storageshare.solver import _pair_slacks
from tests.conftest import rand_instance
from tests.lp_oracle import check_kkt_residuals, derive_kkt, make_lp, row_value

SHAPES = [(0, 5), (4, 0), (0, 0), (1, 1), (7, 5), (12, 9), (30, 20)]


def random_sparse(rng, n_rows, n_cols, density=0.3):
    """Random matrix with roughly `density` nonzeros and an empty row."""
    a = rng.normal(size=(n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < density)
    if n_rows:
        a[rng.integers(n_rows)] = 0.0
    return a


def random_lists(rng, n_rows, n_cols):
    """Per-row (columns, values) in a scrambled column order, some rows empty."""
    idx, val = [], []
    for _ in range(n_rows):
        k = int(rng.integers(0, n_cols + 1)) if rng.random() > 0.2 else 0
        idx.append(rng.permutation(n_cols)[:k])
        val.append(rng.normal(size=k))
    return idx, val


@pytest.mark.parametrize("shape", SHAPES)
def test_rows_match_dense_numpy(rng, shape):
    n_rows, n_cols = shape
    for _ in range(5):
        a = random_sparse(rng, n_rows, n_cols)
        r = Rows.from_dense(a)
        assert r.n_rows == n_rows
        np.testing.assert_array_equal(r.dense(n_cols), a)
        x = rng.normal(size=n_cols)
        np.testing.assert_allclose(r.dot(x), a @ x, rtol=1e-12, atol=1e-12)
        y = rng.normal(size=n_rows)
        np.testing.assert_allclose(r.tdot(y, n_cols), y @ a, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(r.transpose(n_cols).dense(n_rows), a.T)
        pick = rng.integers(0, max(n_rows, 1), size=2 * n_rows)
        np.testing.assert_array_equal(r.take(pick).dense(n_cols), a[pick])
        b = random_sparse(rng, 3, n_cols)
        both = Rows.stack([r, Rows.from_dense(b), r])
        np.testing.assert_array_equal(both.dense(n_cols), np.vstack([a, b, a]))
        np.testing.assert_array_equal((-r).dense(n_cols), -a)
        np.testing.assert_array_equal(r.shifted(2).dense(n_cols + 2)[:, 2:], a)


@pytest.mark.parametrize("shape", SHAPES)
def test_rows_from_lists_keep_entry_order(rng, shape):
    n_rows, n_cols = shape
    idx, val = random_lists(rng, n_rows, n_cols)
    r = Rows.from_lists(idx, val)
    a = np.zeros((n_rows, n_cols))
    for i, (ii, vv) in enumerate(zip(idx, val)):
        a[i, ii] = vv
    np.testing.assert_array_equal(r.dense(n_cols), a)
    views_i, views_v = r.views
    assert len(views_i) == len(views_v) == n_rows
    for i in range(n_rows):
        np.testing.assert_array_equal(views_i[i], idx[i])
        np.testing.assert_array_equal(views_v[i], val[i])
        np.testing.assert_array_equal(r.row(i)[0], idx[i])
        np.testing.assert_array_equal(r.row(i)[1], val[i])
    # a row of the transpose lists its source rows in ascending order
    t = r.transpose(n_cols)
    for j in range(n_cols):
        assert np.all(np.diff(t.row(j)[0]) > 0)


def test_rows_join_concatenates_row_by_row(rng):
    idx_a, val_a = random_lists(rng, 6, 4)
    idx_b, val_b = random_lists(rng, 6, 3)
    joined = Rows.join([Rows.from_lists(idx_a, val_a),
                        Rows.from_lists(idx_b, val_b).shifted(4)])
    for i in range(6):
        np.testing.assert_array_equal(joined.row(i)[0],
                                      np.concatenate([idx_a[i], idx_b[i] + 4]))
        np.testing.assert_array_equal(joined.row(i)[1],
                                      np.concatenate([val_a[i], val_b[i]]))


def test_rows_from_equal_length_arrays(rng):
    idx = rng.integers(0, 9, size=(5, 3))
    val = rng.normal(size=(5, 3))
    r = Rows.from_lists(idx, val)
    for i in range(5):
        np.testing.assert_array_equal(r.row(i)[0], idx[i])
        np.testing.assert_array_equal(r.row(i)[1], val[i])


def test_lp_row_views_are_read_only(rng):
    a = random_sparse(rng, 6, 4)
    lp = make_lp(c=np.ones(4), a_ub=a, b_ub=np.zeros(6))
    g_val = lp.g.views[1]
    assert len(lp.g_idx) == len(g_val) == 6
    for i in range(6):
        np.testing.assert_array_equal(lp.g_idx[i], np.flatnonzero(a[i]))
        np.testing.assert_array_equal(g_val[i], a[i][a[i] != 0])
    if g_val[0].size:
        with pytest.raises(ValueError):
            g_val[0][0] = 1.0


def test_evaluate_and_stationarity_match_dense(rng):
    for _ in range(20):
        n, mg, mh = 6, 9, 3
        a_g = random_sparse(rng, mg, n)
        a_h = random_sparse(rng, mh, n, density=0.6)
        b_g, b_h = rng.normal(size=mg), rng.normal(size=mh)
        lp = make_lp(c=rng.normal(size=n), a_ub=a_g, b_ub=b_g, a_eq=a_h, b_eq=b_h)
        x = rng.normal(size=n)
        ev = evaluate(lp, x)
        assert ev.min_inequality_slack == pytest.approx((a_g @ x - b_g).min(), abs=1e-12)
        assert ev.max_equality_residual == pytest.approx(
            np.abs(a_h @ x - b_h).max(), abs=1e-12)

        omega, v = rng.random(mg), rng.normal(size=mh)
        report, _ = check_kkt_residuals(derive_kkt(lp), x, omega, v)
        want = np.abs(a_g.T @ omega + a_h.T @ v - lp.c).max()
        assert report.max_stationarity == pytest.approx(want, abs=1e-12)
        want_comp = np.abs(omega * (a_g @ x - b_g)).max()
        assert report.max_complementarity == pytest.approx(want_comp, abs=1e-12)


def test_pair_slacks_match_row_by_row_reference(rng):
    # the vectorized pair slacks against the per-row product they replaced
    for _ in range(3):
        mp = assemble_mpec(rand_instance(rng, n=2, t=4))
        x = rng.normal(size=mp.lp.n_vars)
        want = [row_value(mp.lp, int(g_row), x) for g_row in mp.pairs[:, 1]]
        np.testing.assert_allclose(_pair_slacks(mp.lp, mp.pairs)(x), want,
                                   rtol=1e-12, atol=1e-12)
