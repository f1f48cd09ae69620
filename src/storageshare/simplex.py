"""Self-contained primal/dual simplex over the bounded standard form.

A LinearProgram is brought into

    min c.x   s.t.   A x = b,   lo <= x <= hi

by appending one surplus column per inequality row with two or more
entries; equality rows are kept as they are. A is stored once, as its
nonzeros by column (b - A x_N is the transposed product); no dense
m x nt copy is kept.

A cold solve may start from a basis the caller knows to be feasible: m
basic columns, in the caller's numbering, and a point that puts every
nonbasic column on a bound. A party's CapacityPath starts its cold solve
at the party's no-battery vertex (lp.no_battery_start), and the division
trees start their root LP from the paths' optima (solver._root_start).
The engine keeps a start only when the columns are distinct, the basis
inverts (B xb = b - A x_N holds to 1e-9 relative) and the basic values
lie within their bounds, and then runs phase 2 alone; otherwise it
counts the rejection and starts as below, so a bad start costs pivots,
never a wrong status or objective (a crash basis in the sense of Bixby,
ORSA J. Comput. 4(3), 1992). Where the LP has several optima, which one
is returned may depend on the start.

Without a caller start, a cold solve starts every column at its bound
nearest zero and then picks the start basis row by row (slack crash;
Bixby, 1992). A kept inequality row whose surplus, at that start point,
takes a value within the caller's bounds on it starts with the surplus
basic. An equality row, or a row whose surplus value falls outside its
bounds (a violated row under a pinned surplus, say), starts on an
artificial column signed by b - A x_N. Phase 1 then drives out only
those artificials, and phase 2 optimizes. Re-solves after bound changes
(branch and bound lives on those) warm-start from the previous basis and
run the bounded-variable dual simplex, finishing with a primal cleanup
pass so the returned point is optimal, not merely feasible. An optimal
solve reports its final basis and its active rows in the caller's
numbering (LpSolution.basis and .active), which is what a later start
is built from.

An inequality row with a single entry, a x_j >= b, keeps no row, surplus
or artificial column: it is folded into the bounds of x_j (presolve;
Andersen & Andersen, Math. Program. 71, 1995). On the division trees these
are the sign rows (dis_nonneg, ch_nonneg), about a fifth of every tree
LP's rows. Callers still pass bounds over the LP's columns plus one
surplus per inequality row, folded rows included: a bound [lo_s, hi_s] on
a folded row's surplus becomes x_j in [(b + lo_s)/a, (b + hi_s)/a], the
ends swapped when a < 0, intersected with x_j's own bounds and with any
other folded row on x_j. A folded row's dual comes back from the reduced
cost d_j of x_j: it is d_j / a when x_j is nonbasic at a bound the row
sets, on the side the sign of d_j names, and x_j then reports the reduced
cost d_j - a y = 0; otherwise it is 0. Where the row's bound coincides
with the column's own, the row takes the dual.

Pricing is Dantzig (most negative reduced cost) with lowest-index
tie-breaking; after fifty consecutive degenerate steps the engine drops to
Bland's rule, which cannot cycle. Every product inside the loops reads
only the nonzeros of the column-wise A (an lp.Rows): prices y A, the
pivot row e_r B^-1 A and the entering column B^-1 a_j. The reduced costs
d = c - c_B B^-1 A are computed from scratch when a loop starts and after
each rebuild of the inverse; after every basis change they are updated
with the pivot row (d -= d_j / alpha_rj * alpha_r), and a bound flip
leaves them alone. The primal loop declares optimality only on freshly
computed reduced costs: if updated ones admit no entering column it
recomputes them and looks again.

The basis inverse is kept explicitly. A rebuild uses the structure of the
basis: surplus and artificial columns are signed unit vectors, so after a
permutation the basis is block lower triangular, [[B11, 0], [B21, D]] with
D a +-1 diagonal, and only the structural block B11 (structural columns on
the rows no unit column covers) is inverted densely. Between rebuilds each
pivot applies the product-form rank-one update to the rows where the
entering column is nonzero and the columns where the pivot row is
nonzero.

The engine keeps the inverses of the last few bases it finished on or
warm-started from, keyed by the basis, each with the count of pivots
applied since its rebuild. A warm start from a kept basis (siblings in a
tree share their parent's final basis) copies that inverse instead of
rebuilding it, and the rebuild period of a hundred pivots is counted
across solves from the kept count. A cold solve redraws the signs of the
artificial columns, so it drops every kept inverse.

A CapacityPath is one party's dispatch LP at every capacity in [0, C]
(parametric right-hand-side analysis; Gal & Nedoma, Manag. Sci. 18(7),
1972). The capacity is the LP's last column, kappa, fixed by its bounds.
The path solves cold once, at C, from the party's no-battery vertex
(feasible at every capacity, so phase 2 runs alone), and walks down to 0:
on each optimal basis the ratio test on kappa's column finds the next
breakpoint, and one dual pivot passes it (no cost moves, so the basis
stays dual feasible). A breakpoint within 1e-12 max(1, C) of 0 ends the
walk, and the optimum at 0 is read off a fresh inverse. A lookup reads a
piece's optimum off its line with no pivot, so no answer depends on the
order of lookups; kappa's reduced cost is the piece's slope, and at a
breakpoint a lookup takes the piece below, so at 0 it gives phi'(0+).

face_minimum breaks ties among an LP's optima: every feasible x has
c.x = f* + sum d_j (x_j - xbar_j) over the nonbasic columns, each term
>= 0, so fixing the nonbasic columns with |d_j| > _DUAL_TOL keeps x on the
optimal face exactly, and the primal loop then minimizes a second
objective from the optimal basis, which is still feasible. Along a path
piece the basis, and so d and the face's fixed columns, stay the same,
and the face minimum moves linearly with kappa between face breakpoints.
CapacityPath.flow_face reads it off those face lines: the first lookup
in a piece for a price installs the piece's basis at its upper end with
a fresh inverse, takes the face minimum there, and walks down to the
piece's lower end with the same walk as the path (_walk), driven by the
second objective's reduced costs, the fixed columns held out of every
dual pivot. The lines are kept on the path, keyed by the piece and the
bytes of the price; no face point depends on the order of lookups.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace

import numpy as np

from .instance import Instance
from .lp import LinearProgram, LpSolution, Rows, build_party_lp, no_battery_start

AT_LB, AT_UB, FREE, BASIC = 0, 1, 2, 3

_DUAL_TOL = 1e-9
_PRIMAL_TOL = 1e-9
_PIVOT_TOL = 1e-10
_DEGEN_TOL = 1e-10
_BLAND_AFTER = 50
_REFACTOR_EVERY = 100
_KEEP_INVERSES = 3  # best-first often pops a child after its parent's sibling


class SimplexError(RuntimeError):
    """Numerical breakdown that a cold restart did not cure."""


def _pivot_inverse(binv: np.ndarray, w: np.ndarray, r: int):
    """Product-form update of the explicit inverse, in place, after the
    column whose transformed image is w = binv @ a_j enters at position r."""
    pivot = w[r]
    if abs(pivot) < _PIVOT_TOL:
        raise SimplexError("pivot element vanished")
    binv[r] /= pivot
    rows = np.flatnonzero(w)
    rows = rows[rows != r]
    cols = np.flatnonzero(binv[r])
    binv[rows[:, None], cols] -= np.outer(w[rows], binv[r, cols])


def _initial_status(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Cold-start status of columns bounded by lo/hi: at the finite bound
    nearer zero (the lower one on a tie), FREE when neither is finite."""
    fin_lo, fin_hi = np.isfinite(lo), np.isfinite(hi)
    st = np.full(lo.size, FREE, dtype=np.int8)
    st[fin_hi] = AT_UB
    st[fin_lo] = AT_LB
    st[fin_lo & fin_hi & (np.abs(lo) > np.abs(hi))] = AT_UB
    return st


def _reanchor(st: np.ndarray, nonbasic: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Move nonbasic statuses, in place, off bounds that are no longer
    finite, and FREE columns onto a bound that has become finite."""
    fin_lo, fin_hi = np.isfinite(lo), np.isfinite(hi)
    lost_lo = nonbasic & (st == AT_LB) & ~fin_lo
    lost_hi = nonbasic & (st == AT_UB) & ~fin_hi
    free = nonbasic & (st == FREE)
    st[lost_lo] = np.where(fin_hi[lost_lo], AT_UB, FREE)
    st[lost_hi] = np.where(fin_lo[lost_hi], AT_LB, FREE)
    st[free & fin_lo] = AT_LB
    st[free & ~fin_lo & fin_hi] = AT_UB


class Simplex:
    """One LP instance plus mutable solver state, reusable across re-solves."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n, g = lp.n_vars, lp.g
        self.n = n
        # folded rows: inequality rows a x_j >= b, kept as bounds on x_j
        fold = np.flatnonzero(np.diff(g.indptr) == 1)
        fold = fold[g.data[g.indptr[fold]] != 0.0]
        self._fold = fold
        self._fold_col = g.indices[g.indptr[fold]]
        self._fold_a = g.data[g.indptr[fold]]
        self._fold_b = lp.b_g[fold]
        self._row_lo = self._row_hi = None  # folded rows' bounds on x_j, per solve
        self._kept_rows = np.setdiff1d(np.arange(lp.n_g), fold)  # inequality rows kept as rows
        mg = self._kept_rows.size
        self.mg = mg
        self.m = mg + lp.n_h
        self.nt = n + mg  # structural + surplus columns
        # engine column k is caller column _caller_col[k]: structural j, or
        # n + i for the surplus of inequality row i; -1 maps a folded row's
        # surplus, which is no column
        self._caller_col = np.concatenate([np.arange(n), n + self._kept_rows])
        self._engine_col = np.full(n + lp.n_g, -1, dtype=np.int64)
        self._engine_col[self._caller_col] = np.arange(self.nt)
        # A = [[G_kept, -I], [H, 0]], stored by column: column j of A is
        # row j of cols, the surplus columns last
        surplus = Rows.from_lists(np.arange(mg)[:, None], np.full((mg, 1), -1.0))
        self.cols = Rows.stack([Rows.stack([g.take(self._kept_rows), lp.h]).transpose(n),
                                surplus])
        self.b = np.concatenate([lp.b_g[self._kept_rows], lp.b_h])
        # bounds as callers pass them: the LP's columns, one surplus per G row
        self.base_lo = np.concatenate([lp.lb, np.zeros(lp.n_g)])
        self.base_hi = np.concatenate([lp.ub, np.full(lp.n_g, np.inf)])
        self.c2 = np.concatenate([lp.c, np.zeros(mg)])
        self.max_iter = max(2000, 50 * (self.m + self.nt))
        # mutable state, filled by solve()/resolve()
        self.lo = None
        self.hi = None
        self.status = None
        self.fixed = None  # structural/surplus columns with hi <= lo
        self.basis = None
        self.xb = None
        self.binv = None
        self.art_sign = np.ones(self.m)
        self.iterations = 0
        self.bland = False
        self._degen_streak = 0
        self._dirty = 0  # pivots applied since the inverse was last rebuilt
        self._light = False  # warm path: tolerate a slightly stale inverse
        # basis bytes -> (inverse, pivots since its rebuild), oldest first;
        # a kept inverse is never written again
        self._inverses = OrderedDict()
        self.warm_hits = 0  # warm starts that copied a kept inverse
        self.warm_rebuilds = 0  # warm starts that rebuilt the inverse
        self.cold_restarts = 0  # resolves that fell back to a cold solve
        self.start_rejects = 0  # solve starts that fell back to the slack crash
        self._optimum = None  # c.x of the last solve if it ended optimal

    # ------------------------------------------------------------------ state

    def _bounds(self, lo, hi):
        """Engine bounds of the structural and kept surplus columns, from
        caller bounds over the LP's columns and every inequality row's
        surplus: a folded row's surplus bounds become bounds on its column."""
        lo, hi = np.asarray(lo, float), np.asarray(hi, float)
        n = self.n
        s = n + self._fold
        a, b = self._fold_a, self._fold_b
        from_lo, from_hi = (b + lo[s]) / a, (b + hi[s]) / a
        up = a > 0
        self._row_lo = np.where(up, from_lo, from_hi)
        self._row_hi = np.where(up, from_hi, from_lo)
        x_lo, x_hi = lo[:n].copy(), hi[:n].copy()
        np.maximum.at(x_lo, self._fold_col, self._row_lo)
        np.minimum.at(x_hi, self._fold_col, self._row_hi)
        kept = n + self._kept_rows
        return np.concatenate([x_lo, lo[kept]]), np.concatenate([x_hi, hi[kept]])

    def _begin(self, lo, hi, warm: bool) -> bool:
        """Install the engine bounds of caller bounds lo/hi and reset the
        per-solve state; a warm start pins the artificials at 0. False, the
        last iteration count kept, when some column's bounds cross."""
        lo, hi = self._bounds(lo, hi)
        self._optimum = None
        self.lo = np.concatenate([lo, np.zeros(self.m)])
        self.hi = np.concatenate([hi, np.full(self.m, 0.0 if warm else np.inf)])
        if np.any(self.lo > self.hi + 1e-12):
            return False
        self.fixed = self.hi[: self.nt] - self.lo[: self.nt] <= 0.0
        self._light = warm
        self.iterations = 0
        self.bland = False
        self._degen_streak = 0
        return True

    def _nonbasic_values(self) -> np.ndarray:
        """Values of the structural/surplus columns implied by status."""
        v = np.zeros(self.nt)
        st = self.status[: self.nt]
        at_lb = st == AT_LB
        at_ub = st == AT_UB
        v[at_lb] = self.lo[: self.nt][at_lb]
        v[at_ub] = self.hi[: self.nt][at_ub]
        return v

    def _rhs(self) -> np.ndarray:
        """b - A x_N, the right-hand side left for the basic columns."""
        return self.b - self.cols.tdot(self._nonbasic_values(), self.m)

    def _refactor(self):
        """Rebuild the inverse from the block triangular form of the basis.

        Surplus column n+i is -e_i and artificial column nt+i is
        art_sign[i] e_i. With the unit columns (positions pos_u, rows
        rows_u, signs sign_u) moved last, B = [[B11, 0], [B21, D]], so
        B^-1 = [[B11^-1, 0], [-D^-1 B21 B11^-1, D^-1]] with D^-1 = D.
        """
        m, n, nt = self.m, self.n, self.nt
        unit = self.basis >= n
        pos_u = np.flatnonzero(unit)
        pos_s = np.flatnonzero(~unit)
        ju = self.basis[pos_u]
        surplus = ju < nt
        rows_u = np.where(surplus, ju - n, ju - nt)
        sign_u = np.where(surplus, -1.0, self.art_sign[rows_u])
        covered = np.zeros(m, dtype=bool)
        covered[rows_u] = True
        if np.count_nonzero(covered) != rows_u.size:
            raise SimplexError("singular basis")  # two unit columns, one row
        rows_s = np.flatnonzero(~covered)
        binv = np.zeros((m, m))
        binv[pos_u, rows_u] = sign_u
        if pos_s.size:
            cols = self.cols.take(self.basis[pos_s]).dense(m).T
            try:
                b11_inv = np.linalg.inv(cols[rows_s])
            except np.linalg.LinAlgError as exc:
                raise SimplexError("singular basis") from exc
            binv[pos_s[:, None], rows_s] = b11_inv
            if pos_u.size:
                binv[pos_u[:, None], rows_s] = -sign_u[:, None] * (cols[rows_u] @ b11_inv)
        self.binv = binv
        self.xb = binv @ self._rhs()
        self._dirty = 0

    def _keep(self, key: bytes, binv: np.ndarray, dirty: int):
        """Keep binv, the inverse of the basis with bytes key, as the newest
        entry, dropping the oldest beyond _KEEP_INVERSES."""
        self._inverses[key] = (binv, dirty)
        self._inverses.move_to_end(key)
        if len(self._inverses) > _KEEP_INVERSES:
            self._inverses.popitem(last=False)

    def _column(self, j: int) -> np.ndarray:
        """binv @ a_j, from the nonzeros of column j."""
        idx, val = self.cols.row(j)
        return self.binv[:, idx] @ val

    def _costs(self, c) -> np.ndarray:
        """A cost vector over every column: c on the first len(c), 0 after."""
        c_full = np.zeros(self.nt + self.m)
        c_full[: len(c)] = c
        return c_full

    def _reduced_costs(self, c_full: np.ndarray) -> np.ndarray:
        """d = c - c_B B^-1 A over the structural and surplus columns."""
        return c_full[: self.nt] - self.cols.dot(c_full[self.basis] @ self.binv)

    # ------------------------------------------------------------- primal loop

    def _entering(self, d: np.ndarray):
        """Pick the entering column, or -1 at optimality."""
        st = self.status[: self.nt]
        score = np.full(self.nt, np.inf)
        m_lb = (st == AT_LB) & ~self.fixed
        m_ub = (st == AT_UB) & ~self.fixed
        m_fr = st == FREE
        score[m_lb] = d[m_lb]
        score[m_ub] = -d[m_ub]
        score[m_fr] = -np.abs(d[m_fr])
        eligible = score < -_DUAL_TOL
        if not eligible.any():
            return -1
        if self.bland:
            return int(np.nonzero(eligible)[0][0])
        return int(np.argmin(score))

    def _ratio_test(self, j: int, dirn: float, w: np.ndarray):
        """Step length and blocking basis position (-1 for a bound flip)."""
        rho = -w * dirn  # d(xb)/d(step)
        lim = np.full(self.m, np.inf)
        lo_b = self.lo[self.basis]
        hi_b = self.hi[self.basis]
        up = rho > _PIVOT_TOL
        dn = rho < -_PIVOT_TOL
        with np.errstate(invalid="ignore"):
            lim[up] = (hi_b[up] - self.xb[up]) / rho[up]
            lim[dn] = (lo_b[dn] - self.xb[dn]) / rho[dn]
        lim = np.maximum(lim, 0.0)
        r_best = int(np.argmin(lim)) if self.m else -1
        basic_step = lim[r_best] if self.m else np.inf
        lo_j, hi_j = self.lo[j], self.hi[j]
        flip_step = hi_j - lo_j if np.isfinite(hi_j - lo_j) else np.inf
        step = min(basic_step, flip_step)
        if not np.isfinite(step):
            return np.inf, -1
        if flip_step <= basic_step:
            return flip_step, -1
        # tie-break blocking rows: largest pivot magnitude, then lowest index
        cand = np.nonzero(lim <= basic_step + 1e-10)[0]
        if self.bland:
            r = int(cand[np.argmin(self.basis[cand])])
        else:
            r = int(cand[np.argmax(np.abs(w[cand]))])
        return step, r

    def _enter(self, j: int, r: int, w: np.ndarray, move: float, leave_status: int):
        """Basis change: column j, with w = binv @ a_j, moves by move from its
        nonbasic value and enters at position r; the basic values move by
        -w * move, and the leaving column becomes nonbasic at leave_status."""
        st = self.status[j]
        start = self.lo[j] if st == AT_LB else self.hi[j] if st == AT_UB else 0.0
        self.xb -= w * move
        self.status[self.basis[r]] = leave_status
        self.basis[r] = j
        self.status[j] = BASIC
        self.xb[r] = start + move
        _pivot_inverse(self.binv, w, r)
        self._dirty += 1

    def _count_step(self, step: float):
        """Count one iteration of length step; fifty degenerate ones in a
        row switch to Bland's rule, the next real step switches back."""
        self.iterations += 1
        if step <= _DEGEN_TOL:
            self._degen_streak += 1
            if self._degen_streak >= _BLAND_AFTER:
                self.bland = True
        else:
            self._degen_streak = 0
            self.bland = False

    def _primal_loop(self, c_full: np.ndarray) -> str:
        d = None  # reduced costs; None when they must be computed afresh
        while True:
            if self.iterations >= self.max_iter:
                return "iteration_limit"
            if self._dirty >= _REFACTOR_EVERY:
                self._refactor()
                d = None
            fresh = d is None
            if fresh:
                d = self._reduced_costs(c_full)
            j = self._entering(d)
            if j < 0:
                if fresh:
                    return "optimal"
                d = None  # updated costs carry rounding: confirm on fresh ones
                continue
            if self.status[j] == AT_LB:
                dirn = 1.0
            elif self.status[j] == AT_UB:
                dirn = -1.0
            else:
                dirn = -np.sign(d[j])
            w = self._column(j)
            step, r = self._ratio_test(j, dirn, w)
            if not np.isfinite(step):
                return "unbounded"
            if r < 0:  # bound flip
                self.xb -= w * (dirn * step)
                self.status[j] = AT_UB if self.status[j] == AT_LB else AT_LB
            else:
                self._enter(j, r, w, dirn * step, AT_UB if w[r] * dirn < 0 else AT_LB)
                # row r of the updated inverse gives the pivot row
                d -= d[j] * self.cols.dot(self.binv[r])
                d[j] = 0.0
            self._count_step(step)

    # -------------------------------------------------------------- dual loop

    def _dual_loop(self) -> str:
        """Bounded-variable dual simplex from a dual-feasible basis."""
        if not self.m:
            return "optimal"  # no basic column to be out of bounds
        c_full = self._costs(self.c2)
        d = self._reduced_costs(c_full)
        while True:
            if self.iterations >= self.max_iter:
                return "iteration_limit"
            if self._dirty >= _REFACTOR_EVERY:
                self._refactor()
                d = self._reduced_costs(c_full)
            lo_b = self.lo[self.basis]
            hi_b = self.hi[self.basis]
            viol_lo = lo_b - self.xb
            viol_hi = self.xb - hi_b
            viol = np.maximum(viol_lo, viol_hi)
            if self.bland:
                bad = np.nonzero(viol > _PRIMAL_TOL)[0]
                if bad.size == 0:
                    return "optimal"
                r = int(bad[np.argmin(self.basis[bad])])
            else:
                r = int(np.argmax(viol))
                if viol[r] <= _PRIMAL_TOL:
                    return "optimal"
            if not self._dual_pivot(r, viol_lo[r] > viol_hi[r], d):
                return "infeasible"

    def _dual_pivot(self, r: int, below: bool, d: np.ndarray) -> bool:
        """One dual simplex pivot: the basic column at position r leaves at
        its lower bound if below, else at its upper one, and the column the
        dual ratio test picks enters; d, the reduced costs, is updated in
        place. Returns False when no column can enter (the LP is infeasible),
        and raises SimplexError when the entering column's pivot element
        vanishes."""
        bound = self.lo[self.basis[r]] if below else self.hi[self.basis[r]]
        delta_need = bound - self.xb[r]
        alpha = self.cols.dot(self.binv[r])
        st = self.status[: self.nt]
        fixed = self.fixed
        if below:  # x_Br must increase: -alpha_j * delta_j > 0
            ok_lb = (st == AT_LB) & ~fixed & (alpha < -_PIVOT_TOL)
            ok_ub = (st == AT_UB) & ~fixed & (alpha > _PIVOT_TOL)
        else:
            ok_lb = (st == AT_LB) & ~fixed & (alpha > _PIVOT_TOL)
            ok_ub = (st == AT_UB) & ~fixed & (alpha < -_PIVOT_TOL)
        ok_fr = (st == FREE) & (np.abs(alpha) > _PIVOT_TOL)
        eligible = np.nonzero(ok_lb | ok_ub | ok_fr)[0]
        if eligible.size == 0:
            return False
        ratios = np.abs(d[eligible] / alpha[eligible])
        near = eligible[ratios <= ratios.min() + 1e-10]
        j = int(near[0]) if self.bland else int(near[np.argmax(np.abs(alpha[near]))])
        w = self._column(j)
        if abs(w[r]) < _PIVOT_TOL:  # alpha_j, recomputed from the inverse
            raise SimplexError("pivot element vanished")
        step = delta_need / (-w[r])
        self._enter(j, r, w, step, AT_LB if below else AT_UB)
        d -= (d[j] / alpha[j]) * alpha
        d[j] = 0.0
        self._count_step(abs(step))
        return True

    # ------------------------------------------------------------- public API

    def solve(self, lo=None, hi=None, start=None) -> LpSolution:
        """Cold solve, optionally with overridden variable bounds.

        lo/hi cover the structural+surplus columns (surplus index for
        inequality row i is n_vars + i, folded rows included); pass None to
        keep the LP's own. Without a start, or when the start is rejected
        (counted in start_rejects), the solve runs two phases from the slack
        crash: each kept inequality row starts on its surplus when the start
        point leaves that surplus within lo/hi, and on an artificial column
        otherwise, as every equality row does; phase 1 runs only while an
        artificial is basic. start = (basic, x) names m basic columns in the
        same numbering (a folded row's surplus is no column) and a point over
        the LP's columns that puts each nonbasic column on the bound nearer
        its value; it is kept, and phase 2 runs alone, only when the columns
        are distinct, the basis inverts and its basic values lie within
        lo/hi.
        """
        if not self._begin(self.base_lo if lo is None else lo,
                           self.base_hi if hi is None else hi, warm=False):
            return self._failed("infeasible")
        self._inverses.clear()  # kept inverses may hold old artificial signs
        if start is not None:
            if self._take_start(*start):
                self.hi[self.nt :] = 0.0
                return self._phase2()
            self.start_rejects += 1
        n, nt = self.n, self.nt
        self.status = np.empty(nt + self.m, dtype=np.int8)
        self.status[:nt] = _initial_status(self.lo[:nt], self.hi[:nt])
        rhs = self._rhs()
        self.art_sign = np.where(rhs >= 0, 1.0, -1.0)
        # slack crash: kept row i starts on its surplus when the value it
        # takes there, s_i = v_s - rhs_i, lies within the surplus's bounds
        s = self._nonbasic_values()[n:] - rhs[: self.mg]
        crash = np.flatnonzero((s >= self.lo[n:nt]) & (s <= self.hi[n:nt]))
        self.basis = np.arange(nt, nt + self.m)
        self.basis[crash] = n + crash
        self.status[nt:] = BASIC
        self.status[nt + crash] = AT_LB
        self.status[n + crash] = BASIC
        self.xb = np.abs(rhs)
        self.xb[crash] = s[crash]
        self.binv = np.diag(self.art_sign)
        self.binv[crash, crash] = -1.0
        self._dirty = 0
        c1 = np.zeros(self.nt + self.m)
        c1[self.nt :] = 1.0
        out = self._primal_loop(c1)
        if out == "iteration_limit":
            return self._failed(out)
        infeas = float(self.xb[self.basis >= self.nt].sum()) if self.m else 0.0
        if infeas > 1e-7 * (1.0 + float(np.abs(self.b).max(initial=0.0))):
            return self._failed("infeasible")
        self._drive_out_artificials()
        self.lo[self.nt :] = 0.0
        self.hi[self.nt :] = 0.0
        return self._phase2()

    def _take_start(self, basic, x) -> bool:
        """Install the start basis of solve(start=(basic, x)) and return
        True, or return False when it fails a check (the caller then runs
        the slack crash, which overwrites everything set here). The basis
        must solve B xb = b - A x_N to 1e-9 relative, so a nearly singular
        one that inverts without error is rejected too."""
        m, n, nt = self.m, self.n, self.nt
        basic = np.asarray(basic, dtype=np.int64)
        if basic.shape != (m,) or np.any((basic < 0) | (basic >= self._engine_col.size)):
            return False
        cols = self._engine_col[basic]
        if np.any(cols < 0) or np.unique(cols).size != m:
            return False
        x = np.asarray(x, float)
        lo, hi = self.lo[:nt], self.hi[:nt]
        st = _initial_status(lo, hi)
        boxed = np.isfinite(lo[:n]) & np.isfinite(hi[:n])
        st[:n][boxed] = np.where(np.abs(x - hi[:n]) < np.abs(x - lo[:n]), AT_UB, AT_LB)[boxed]
        self.status = np.concatenate([st, np.full(m, AT_LB, dtype=np.int8)])
        self.status[cols] = BASIC
        self.basis = cols
        try:
            self._refactor()
        except SimplexError:
            return False
        xall = self._nonbasic_values()
        xall[cols] = self.xb
        resid = self.b - self.cols.tdot(xall, self.m)
        return bool(np.all(np.abs(resid) <= 1e-9 * (1.0 + np.abs(self.b)))
                    and np.all(self.xb >= lo[cols] - _PRIMAL_TOL)
                    and np.all(self.xb <= hi[cols] + _PRIMAL_TOL))

    def resolve(self, snapshot, lo, hi) -> LpSolution:
        """Warm re-solve after a bound change, via dual simplex.

        snapshot comes from .snapshot() on a previously solved state. The
        start inverse is a copy of the kept one when the snapshot's basis
        is kept, and rebuilt otherwise. Falls back to a cold solve, counted
        in cold_restarts, on numerical trouble or at the iteration limit.
        """
        basis, status = snapshot
        self.basis = basis.copy()
        self.status = status.copy()
        if not self._begin(lo, hi, warm=True):
            return self._failed("infeasible")
        nonbasic = np.ones(self.nt + self.m, dtype=bool)
        nonbasic[self.basis] = False
        _reanchor(self.status[: self.nt], nonbasic[: self.nt],
                  self.lo[: self.nt], self.hi[: self.nt])
        try:
            key = self.basis.tobytes()
            kept = self._inverses.get(key)
            if kept is None:
                self.warm_rebuilds += 1
                self._refactor()
                self._keep(key, self.binv.copy(), 0)
            else:
                self.warm_hits += 1
                self._inverses.move_to_end(key)
                self.binv = kept[0].copy()
                self._dirty = kept[1]
                self.xb = self.binv @ self._rhs()
            out = self._dual_loop()
            if out == "optimal":
                return self._phase2()
            if out == "infeasible":
                return self._failed("infeasible")
        except SimplexError:
            pass
        self.cold_restarts += 1
        return self.solve(lo, hi)

    def snapshot(self):
        return self.basis.copy(), self.status.copy()

    def face_minimum(self, grad) -> np.ndarray:
        """Minimize grad.x over the optimal face of the last solve (see the
        module notes) and return x over the LP's columns. Raises SimplexError
        unless that solve ended optimal, the loop ends optimal and c.x stays
        within 1e-9 (1 + |f*|) of f*. Pivots on a copy of the inverse, which
        may be kept; re-solve before calling it again.
        """
        f_star = self._optimum
        if f_star is None:
            raise SimplexError("face minimum needs an optimal solve first")
        self._optimum = None
        d = self._reduced_costs(self._costs(self.c2))
        nonbasic = self.status[: self.nt] != BASIC
        self.fixed = self.fixed | (nonbasic & (np.abs(d) > _DUAL_TOL))
        self.binv = self.binv.copy()
        out = self._primal_loop(self._costs(grad))
        if out != "optimal":
            raise SimplexError(f"face minimum ended {out}")
        x = self._read_x()
        drift = abs(float(self.lp.c @ x) - f_star)
        if drift > 1e-9 * (1.0 + abs(f_star)):
            raise SimplexError(f"face minimum left the optimal face by {drift}")
        return x

    # ---------------------------------------------------------------- helpers

    def _drive_out_artificials(self):
        for r in range(self.m):
            if self.basis[r] < self.nt:
                continue
            row = self.cols.dot(self.binv[r])
            st = self.status[: self.nt]
            cand = np.nonzero((np.abs(row) > 1e-7) & (st != BASIC) & ~self.fixed)[0]
            if cand.size == 0:
                continue  # dependent row; artificial stays basic, pinned at 0
            j = int(cand[np.argmax(np.abs(row[cand]))])
            self._enter(j, r, self._column(j), 0.0, AT_LB)  # degenerate: x_j stays put

    def _phase2(self) -> LpSolution:
        c_full = self._costs(self.c2)
        out = self._primal_loop(c_full)
        if out != "optimal":
            return self._failed(out)
        x = self._read_x()
        self._keep(self.basis.tobytes(), self.binv, self._dirty)
        self._optimum = float(self.lp.c @ x)
        y = c_full[self.basis] @ self.binv
        reduced = self.lp.c - self.cols.dot(y)[: self.n]
        dual_g = np.zeros(self.lp.n_g)
        dual_g[self._kept_rows] = y[: self.mg]
        self._fold_duals(dual_g, reduced, x)
        dual_g[(dual_g < 0) & (dual_g > -1e-9)] = 0.0
        basic = self.basis[self.basis < self.nt]
        surplus = self.status[self.n: self.nt] != BASIC
        active = np.concatenate([self._kept_rows[surplus],
                                 self._fold[self._bound_rows(x, True, True)]])
        return LpSolution(
            status="optimal",
            x=x,
            objective=self._optimum + self.lp.objective_constant,
            dual_g=dual_g,
            dual_h=y[self.mg :].copy(),
            reduced_costs=reduced,
            iterations=self.iterations,
            basis=self._caller_col[basic],
            active=np.sort(active),
        )

    def _read_x(self) -> np.ndarray:
        """The LP's columns at the current basis. Sheds drift first; warm
        tree solves accept a near-fresh inverse to avoid one O(m^3) rebuild
        per node."""
        if self._dirty and not (self._light and self._dirty <= 40):
            self._refactor()
        xall = self._nonbasic_values()
        structural = self.basis < self.nt
        xall[self.basis[structural]] = self.xb[structural]
        return xall[: self.n]

    def _bound_rows(self, x: np.ndarray, at_lo, at_hi) -> np.ndarray:
        """Positions in _fold of the folded rows that set the bound their
        nonbasic column x_j sits at: the row's lower end where at_lo holds,
        its upper end where at_hi does, the first such row per column."""
        j = self._fold_col
        v = x[j]
        sets = (self.status[j] != BASIC) & ((at_lo & (self._row_lo == v))
                                            | (at_hi & (self._row_hi == v)))
        rows = np.flatnonzero(sets)
        _, first = np.unique(j[rows], return_index=True)
        return rows[first]

    def _fold_duals(self, dual_g: np.ndarray, reduced: np.ndarray, x: np.ndarray):
        """Move reduced costs into the duals of the folded rows, in place.

        A folded row a x_j >= b takes y = d_j / a when x_j is nonbasic at a
        bound the row sets, on the side the sign of d_j names (lower when
        d_j > 0); x_j's reduced cost d_j - a y is then zero. Of several such
        rows on one column the first takes it; with none, x_j's own bound
        holds it and d_j stays on the column.
        """
        d = reduced[self._fold_col]
        rows = self._bound_rows(x, d > 0, d < 0)
        dual_g[self._fold[rows]] = d[rows] / self._fold_a[rows]
        reduced[self._fold_col[rows]] = 0.0

    def _failed(self, status: str) -> LpSolution:
        nan = np.full(self.n, np.nan)
        return LpSolution(
            status=status,
            x=nan,
            objective=np.nan,
            dual_g=np.full(self.lp.n_g, np.nan),
            dual_h=np.full(self.lp.n_h, np.nan),
            reduced_costs=np.full(self.n, np.nan),
            iterations=self.iterations,
        )


def _below(lines, s: float) -> int:
    """Index of the line of lines (top down, each led by its upper end)
    that holds s; at a breakpoint, the one below."""
    return max(0, sum(line[0] >= s for line in lines) - 1)


def _walk(eng: Simplex, s: float, floor: float, tol: float, cost: np.ndarray, point, settle):
    """Walk kappa, the last column of eng's LP, from s down to floor on
    eng's current basis, optimal for cost (the LP's c on a path, a face
    gradient on a face) at s: on each basis the ratio test on kappa's
    column finds the next breakpoint, and one dual pivot on cost's reduced
    costs passes it, so the basis stays optimal. point is what the line at
    s records, and settle() confirms each new basis and returns its line's.
    A breakpoint within tol of floor ends the walk. Returns the lines, top
    down, each (upper end, point, dx/ds, basis); a degenerate step opens
    no line."""
    k = eng.n - 1
    lines = []
    while True:
        w = eng._column(k)
        structural = eng.basis < eng.n
        dx = np.zeros(eng.n)
        dx[k] = 1.0
        dx[eng.basis[structural]] = -w[structural]
        eng.lo[k] = floor  # kappa moves down to floor at most
        step, r = eng._ratio_test(k, -1.0, w)
        last = r < 0 or s - step <= floor + tol  # a hair above floor ends it
        if step > 0 or last:
            lines.append((s, point, dx, eng.snapshot()))
        if last:
            return lines
        s -= step
        eng.xb += w * step
        eng.lo[k] = eng.hi[k] = s
        eng.binv = eng.binv.copy()  # an optimal solve may have kept it
        if not eng._dual_pivot(r, w[r] < 0, eng._reduced_costs(cost)):
            raise SimplexError(f"capacity walk stalled at {s}")
        point = settle()


class CapacityPath:
    """One party's dispatch LP (lp.build_party_lp) at every capacity in
    [0, C], C the instance's total, as the pieces of its path (module
    notes). pieces lists, from the top down, each piece's upper end, its
    optimum there, dx/ds and its basis (Simplex.snapshot); for C > 0 the
    last is 0 alone. iterations counts the path's pivots; a rejected start
    counts in engine.start_rejects. dual_g_max is each row's largest
    multiplier over the pieces. The face lines of flow_face are kept on the
    path, per piece and price. Between lookups the engine holds no basis
    inverse: a face walk refactors from its piece's basis."""

    def __init__(self, instance: Instance, party: int):
        lp = build_party_lp(instance, party, instance.storage.total_capacity)
        top = float(lp.ub[-1])  # kappa, fixed at C
        eng = self.engine = Simplex(lp)
        self._tol = 1e-12 * max(1.0, top)
        self._faces = {}  # (piece index, price bytes) -> the piece's face lines

        def optimal(sol):
            if sol.status != "optimal":
                raise SimplexError(f"capacity path of party {party} ended {sol.status} "
                                   f"at {eng.hi[eng.n - 1]}")
            return sol

        sol = optimal(eng.solve(start=no_battery_start(lp)))
        eng._light = True  # one pivot a piece: read x off the updated inverse
        self.pieces = _walk(eng, top, 0.0, self._tol, eng._costs(eng.c2), sol,
                            lambda: optimal(eng._phase2()))
        s, sol, dx, _ = self.pieces[-1]
        if s > 0.0:  # a last piece of no width: the optimum at 0, off a fresh inverse
            eng.lo[eng.n - 1] = eng.hi[eng.n - 1] = 0.0
            eng._refactor()
            x = eng._read_x()
            self.pieces.append((0.0, replace(sol, x=x, objective=float(lp.c @ x)), dx, eng.snapshot()))
        self.iterations = eng.iterations
        self.dual_g_max = np.max([sol.dual_g for _, sol, _, _ in self.pieces], axis=0)
        # nothing resolves on the path's engine, and a face walk refactors
        # from its piece's basis: keep no inverse, kept or current
        eng._inverses.clear()
        eng.binv = eng.xb = None

    def _index(self, s: float) -> int:
        """Index of the piece holding capacity s; at a breakpoint, the one below."""
        if not 0 <= s < np.inf:  # NaN fails too
            raise ValueError(f"capacity must be finite and >= 0, got {s}")
        return _below(self.pieces, s)

    def at(self, s: float) -> LpSolution:
        """The optimum at capacity s, with no pivot: its piece's basis,
        active rows, duals and reduced costs, and x and the objective on the
        piece's line, whose slope is kappa's reduced cost."""
        upper, sol, dx, _ = self.pieces[self._index(s)]
        return replace(sol, x=sol.x + (s - upper) * dx,
                       objective=sol.objective + (s - upper) * float(sol.reduced_costs[-1]))

    def flow_face(self, s: float, price: np.ndarray):
        """(at(s), x_face): the optimum at s and the point of its optimal face
        that minimizes price . (ch - dis), read off the face line that holds
        s, with no pivot. The first lookup in a piece for a price walks that
        piece's face (_face_lines) and keeps its lines on the path; at a
        breakpoint, the face line below holds s, as the piece below does."""
        i = self._index(s)
        price = np.asarray(price, float)
        key = (i, price.tobytes())
        lines = self._faces.get(key)
        if lines is None:
            lines = self._faces[key] = self._face_lines(i, price)
        upper, x, dx, _ = lines[_below(lines, s)]
        return self.at(s), x + (s - upper) * dx

    def _face_lines(self, i: int, price: np.ndarray):
        """The face lines of piece i for price: the piece's basis installed
        at its upper end with a fresh inverse (so no line depends on the
        order of lookups), Simplex.face_minimum of price . (ch - dis) there,
        then the walk down to the piece's lower end on the face basis, the
        face's fixed columns held."""
        eng = self.engine
        upper, sol, _, (basis, status) = self.pieces[i]
        lower = self.pieces[min(i + 1, len(self.pieces) - 1)][0]
        k = eng.n - 1
        lo, hi = eng.base_lo.copy(), eng.base_hi.copy()
        lo[k] = hi[k] = upper
        eng.basis, eng.status = basis.copy(), status.copy()
        eng._begin(lo, hi, warm=True)
        eng._refactor()
        eng._optimum = float(eng.lp.c @ sol.x)
        grad = np.zeros(eng.n)
        grad[: 2 * len(price)] = np.concatenate([price, -price])
        g_full = eng._costs(grad)

        def settle():
            out = eng._primal_loop(g_full)
            if out != "optimal":
                raise SimplexError(f"face walk ended {out} at {eng.hi[k]}")
            return eng._read_x()

        lines = _walk(eng, upper, lower, self._tol, g_full, eng.face_minimum(grad), settle)
        eng.binv = eng.xb = None
        return lines


def day_paths(instance: Instance):
    """Each party's capacity path, customers first, then the DisCo: the
    party order of mpec.MpecModel.parties and of its pairs."""
    return [CapacityPath(instance, p) for p in range(instance.customer_count + 1)]
