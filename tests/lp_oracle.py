"""Test-side reference tools: brute-force vertex enumeration, a random
feasible-LP generator, a one-row slack and the optimality (KKT) system of
an LP with its residual checker. Deliberately independent of the
package's solver code path (only the LinearProgram container is shared)."""

import itertools
from dataclasses import dataclass

import numpy as np

from storageshare.lp import LinearProgram, Rows, evaluate, make_lp


@dataclass(frozen=True)
class KktSystem:
    """Optimality system of one lower-level LP.

    Stationarity row j (one per primal variable):
        sum_i A_g[i, j] * omega_i + sum_m A_h[m, j] * v_m = c_j
    plus omega >= 0, the primal rows verbatim, and one complementarity
    pair per inequality row.
    """

    lp: LinearProgram
    stat_g: Rows  # A_g transposed: row j lists the inequality rows using x_j
    stat_h: Rows  # A_h transposed
    rhs: np.ndarray  # = lp.c


def derive_kkt(lp: LinearProgram) -> KktSystem:
    """Optimality system of an LP whose limits are all written as rows.

    Finite variable bounds would need their own multipliers, which the
    generated stationarity rows deliberately omit; such LPs are rejected.
    """
    if np.any(np.isfinite(lp.lb)) or np.any(np.isfinite(lp.ub)):
        raise ValueError(
            "derive_kkt needs an all-rows LP (finite variable bounds present)"
        )
    return KktSystem(
        lp=lp,
        stat_g=lp.g.transpose(lp.n_vars),
        stat_h=lp.h.transpose(lp.n_vars),
        rhs=lp.c,
    )


@dataclass(frozen=True)
class KktReport:
    max_stationarity: float
    min_dual: float
    max_complementarity: float
    max_primal_violation: float

    def passed(self, tol: float) -> bool:
        return (
            self.max_stationarity <= tol
            and self.min_dual >= -tol
            and self.max_complementarity <= tol
            and self.max_primal_violation <= tol
        )


def check_kkt_residuals(kkt: KktSystem, x, omega, v, tol: float = 1e-6):
    """Worst-case residuals of a candidate optimality triple.

    Returns (report, passed). Stationarity is evaluated per primal variable,
    complementarity per inequality row; primal violation covers both row
    types of the source LP.
    """
    x = np.asarray(x, float)
    omega = np.asarray(omega, float)
    v = np.asarray(v, float)
    lp = kkt.lp
    resid = kkt.stat_g.dot(omega) + kkt.stat_h.dot(v) - kkt.rhs
    stat = float(np.abs(resid).max(initial=0.0))
    slack = lp.g.dot(x) - lp.b_g()
    comp = float(np.abs(omega * slack).max()) if lp.n_g else 0.0
    min_dual = float(omega.min()) if lp.n_g else 0.0
    ev = evaluate(lp, x)
    primal = max(0.0, -ev.min_inequality_slack, ev.max_equality_residual)
    report = KktReport(
        max_stationarity=stat,
        min_dual=min_dual,
        max_complementarity=comp,
        max_primal_violation=primal,
    )
    return report, report.passed(tol)


def brute_optimum(lp: LinearProgram):
    """Minimum over all vertices of a bounded polytope, by enumeration.

    Every vertex is the solution of n active constraints drawn from the
    equality rows (always active), inequality rows and finite bounds. Only
    usable for small LPs; the caller must ensure the feasible set is bounded.
    Returns (objective, x) or (None, None) if no feasible vertex exists.
    """
    n = lp.n_vars
    rows = [lp.g.dense(n), lp.b_g()]
    pool_a = [rows[0][i] for i in range(lp.n_g)]
    pool_b = [rows[1][i] for i in range(lp.n_g)]
    for j in range(n):
        if np.isfinite(lp.lb[j]):
            e = np.zeros(n)
            e[j] = 1.0
            pool_a.append(e)
            pool_b.append(lp.lb[j])
        if np.isfinite(lp.ub[j]):
            e = np.zeros(n)
            e[j] = -1.0
            pool_a.append(e)
            pool_b.append(-lp.ub[j])
    a_eq = lp.h.dense(n)
    b_eq = lp.b_h()
    need = n - lp.n_h
    best_obj, best_x = None, None
    a_g, b_g = rows
    for combo in itertools.combinations(range(len(pool_a)), need):
        mat = np.vstack([a_eq] + [pool_a[i] for i in combo]) if lp.n_h else np.vstack(
            [pool_a[i] for i in combo]
        )
        rhs = np.concatenate([b_eq, [pool_b[i] for i in combo]])
        try:
            x = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            continue
        if lp.n_g and np.min(a_g @ x - b_g) < -1e-9:
            continue
        if np.any(x < lp.lb - 1e-9) or np.any(x > lp.ub + 1e-9):
            continue
        if lp.n_h and np.max(np.abs(a_eq @ x - b_eq)) > 1e-9:
            continue
        obj = float(lp.c @ x) + lp.objective_constant
        if best_obj is None or obj < best_obj - 1e-12:
            best_obj, best_x = obj, x
    return best_obj, best_x


def random_feasible_lp(rng, n_vars=None, n_g=None, n_h=None) -> LinearProgram:
    """Random bounded LP that is feasible by construction: rows are anchored
    on an interior point and every variable gets a finite box."""
    n = int(rng.integers(2, 8)) if n_vars is None else n_vars
    mg = int(rng.integers(1, 9)) if n_g is None else n_g
    mh = (int(rng.integers(0, min(3, n))) if n > 2 else 0) if n_h is None else n_h
    lb = rng.uniform(-5.0, 0.0, n)
    ub = lb + rng.uniform(1.0, 10.0, n)
    x0 = rng.uniform(lb, ub)
    a_g = np.round(rng.uniform(-3.0, 3.0, (mg, n)), 3)
    b_g = a_g @ x0 - rng.uniform(0.0, 4.0, mg)
    if mh:
        a_h = np.round(rng.uniform(-2.0, 2.0, (mh, n)), 3)
        b_h = a_h @ x0
    else:
        a_h, b_h = None, None
    c = np.round(rng.uniform(-5.0, 5.0, n), 3)
    return make_lp(c, a_ub=a_g, b_ub=b_g, a_eq=a_h, b_eq=b_h, lb=lb, ub=ub)


def dual_objective(lp: LinearProgram, sol) -> float:
    """Value of the bound-aware dual at the solver's multipliers.

    Equals the primal optimum when strong duality holds. Reduced costs with
    the wrong sign for an infinite bound make the dual infeasible -> nan.
    """
    d = np.where(np.abs(sol.reduced_costs) <= 1e-9, 0.0, sol.reduced_costs)
    val = float(sol.dual_g @ lp.b_g()) + float(sol.dual_h @ lp.b_h())
    for j in range(lp.n_vars):
        if d[j] > 0:
            if not np.isfinite(lp.lb[j]):
                return np.nan
            val += d[j] * lp.lb[j]
        elif d[j] < 0:
            if not np.isfinite(lp.ub[j]):
                return np.nan
            val += d[j] * lp.ub[j]
    return val + lp.objective_constant


def row_value(lp: LinearProgram, i: int, x: np.ndarray) -> float:
    """Slack of inequality row i at x (row lhs minus rhs), one row at a time."""
    idx, val = lp.g.row(i)
    return float(val @ x[idx]) - float(lp.g_offset[i] + lp.g_cap[i] * lp.capacity)
