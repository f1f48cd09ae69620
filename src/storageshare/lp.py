"""Lower-level dispatch problems in explicit LP form, and the sparse-row
type every model in the package is stored in.

Each party's day-ahead dispatch is assembled as an inequality/equality
system A_g x >= b_g, A_h x = b_h with every sign and capacity limit written
as a row (the variables themselves stay free). Keeping limits as rows means
each row carries exactly one multiplier in the optimality system, in a fixed
catalog order the reformulation depends on:

    family 1..6, per slot: soc_min, soc_max, dis_nonneg, ch_nonneg,
                           dis_cap, ch_cap
    customers add per slot: peak_def (7), valley_def (8)
    plus one energy_balance equality.

Rows and columns carry no names; each is known by its position. Row
f*T + t of a party LP is family f + 1 at slot t, so inequality row i
belongs to family i // T + 1 (mpec.linearize_big_m sizes its big-M
bounds this way). Columns are ch_0..ch_{T-1}, dis_0..dis_{T-1}, then a
customer's peak and valley.

Right-hand sides are stored as offset + cap_coef * capacity so a row stays
valid symbolically when the owner's capacity later becomes a decision
variable instead of a number; capacity_column makes it a column of the
party's own LP, fixed by its bounds.

At zero flows every party LP has a vertex that is feasible at every
capacity >= 0 (no_battery_start): the battery stays idle, a customer's
peak and valley sit at its highest and lowest load, and every storage row
holds with the slack the capacity gives it, since validate_instance keeps
each soc_ini inside [soc_lower, soc_upper]. Its basis is the start of a
party family's cold solve (simplex.CapacityFamily), which then needs no
phase 1.

A_g and A_h are Rows: compressed sparse rows (CSR). This module is the
only one that reads their arrays; everything else goes through the Rows
operations (dense form, row products, transpose, row selection, stacking).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .instance import Instance


def _indptr(counts) -> np.ndarray:
    """Row pointers of rows holding counts[i] entries each."""
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)


@dataclass(frozen=True, eq=False)
class Rows:
    """Sparse matrix rows in CSR form.

    Row i holds column ids indices[indptr[i]:indptr[i + 1]] with
    coefficients data[indptr[i]:indptr[i + 1]], in the order they were
    built; every operation keeps that order. The column count is not
    stored: the model that owns the rows knows it.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_lists(cls, idx, val) -> "Rows":
        """Rows from per-row column ids and coefficients. A 2-D array pair
        gives one row per line, all of equal length."""
        if isinstance(idx, np.ndarray) and idx.ndim == 2:
            n, k = idx.shape
            return cls(np.arange(n + 1, dtype=np.int64) * k,
                       idx.ravel().astype(np.int64),
                       np.asarray(val, float).ravel())
        lens = np.fromiter((len(i) for i in idx), np.int64, count=len(idx))
        return cls(_indptr(lens),
                   np.concatenate([np.empty(0, np.int64), *idx]).astype(np.int64),
                   np.concatenate([np.empty(0), *val]).astype(float))

    @classmethod
    def from_dense(cls, a) -> "Rows":
        """The nonzero entries of a 2-D array, column-ascending per row."""
        a = np.asarray(a, float)
        rows, cols = np.nonzero(a)
        return cls(_indptr(np.bincount(rows, minlength=a.shape[0])),
                   cols.astype(np.int64), a[rows, cols])

    @classmethod
    def stack(cls, parts) -> "Rows":
        """The rows of every part, one part after the other."""
        return cls(_indptr(np.concatenate([np.diff(p.indptr) for p in parts])),
                   np.concatenate([p.indices for p in parts]),
                   np.concatenate([p.data for p in parts]))

    @classmethod
    def join(cls, parts) -> "Rows":
        """Row i of the result is row i of every part, concatenated in part
        order; all parts have the same row count."""
        rows = np.concatenate([p.row_ids for p in parts])
        order = np.argsort(rows, kind="stable")
        return cls(_indptr(sum(np.diff(p.indptr) for p in parts)),
                   np.concatenate([p.indices for p in parts])[order],
                   np.concatenate([p.data for p in parts])[order])

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    @cached_property
    def row_ids(self) -> np.ndarray:
        """Row id of every stored entry."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.indptr))

    @cached_property
    def views(self):
        """(column ids, coefficients): per-row read-only views, no copy."""
        if self.n_rows == 0:
            return (), ()
        cuts = self.indptr[1:-1]
        idx = np.split(self.indices, cuts)
        val = np.split(self.data, cuts)
        for a in (*idx, *val):
            a.flags.writeable = False
        return tuple(idx), tuple(val)

    def row(self, i: int):
        """(column ids, coefficients) of row i, as views."""
        a, b = self.indptr[i], self.indptr[i + 1]
        return self.indices[a:b], self.data[a:b]

    def coo(self):
        """(row ids, column ids, coefficients) of every entry in row order."""
        return self.row_ids, self.indices, self.data

    def dense(self, n_cols: int) -> np.ndarray:
        a = np.zeros((self.n_rows, n_cols))
        a[self.row_ids, self.indices] = self.data
        return a

    def dot(self, x: np.ndarray) -> np.ndarray:
        """Row products A x (x may be longer than the columns used)."""
        return np.bincount(self.row_ids, weights=self.data * x[self.indices],
                           minlength=self.n_rows)

    def transpose(self, n_cols: int) -> "Rows":
        """Per-column view: row j lists the rows holding column j, ascending."""
        order = np.argsort(self.indices, kind="stable")
        return Rows(_indptr(np.bincount(self.indices, minlength=n_cols)),
                    self.row_ids[order], self.data[order])

    def take(self, rows) -> "Rows":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        lens = np.diff(self.indptr)[rows]
        indptr = _indptr(lens)
        pos = np.repeat(self.indptr[rows] - indptr[:-1], lens) + np.arange(indptr[-1])
        return Rows(indptr, self.indices[pos], self.data[pos])

    def shifted(self, offset: int) -> "Rows":
        """The same rows with every column id moved by offset."""
        return Rows(self.indptr, self.indices + offset, self.data)

    def __neg__(self) -> "Rows":
        return Rows(self.indptr, self.indices, -self.data)


@dataclass(frozen=True)
class LinearProgram:
    """min c.x + constant  s.t.  A_g x >= b_g,  A_h x = b_h,  lb <= x <= ub.

    g and h hold the rows of A_g and A_h (Rows, one per row, over the
    n_vars columns). b_g = g_offset + g_cap * capacity, likewise for
    equalities. Nonzero entries of g_cap/h_cap mark the rows that move with
    the owner's capacity. g_idx/h_idx are per-row read-only views of the
    column ids of g and h, kept for callers outside the package. name is
    the model's MPS NAME.
    """

    name: str
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    g: Rows
    g_offset: np.ndarray
    g_cap: np.ndarray
    h: Rows
    h_offset: np.ndarray
    h_cap: np.ndarray
    capacity: float = 0.0
    objective_constant: float = 0.0

    @property
    def n_vars(self) -> int:
        return len(self.c)

    @property
    def n_g(self) -> int:
        return self.g.n_rows

    @property
    def n_h(self) -> int:
        return self.h.n_rows

    @property
    def g_idx(self) -> tuple:
        return self.g.views[0]

    @property
    def h_idx(self) -> tuple:
        return self.h.views[0]

    def b_g(self) -> np.ndarray:
        return self.g_offset + self.g_cap * self.capacity

    def b_h(self) -> np.ndarray:
        return self.h_offset + self.h_cap * self.capacity


@dataclass
class LpSolution:
    """Primal/dual output of one LP solve.

    dual_g holds one nonnegative multiplier per inequality row, dual_h one
    free multiplier per equality row; reduced_costs cover the structural
    variables (nonzero only off-basis). An optimal simplex solve also gives
    its final basis, as column j of the LP or n_vars + i for the surplus of
    inequality row i, and its active rows: the inequality rows the basis
    holds at a bound (a nonbasic surplus, or a single-entry row that sets
    its column's nonbasic bound).
    """

    status: str  # optimal | infeasible | unbounded | iteration_limit
    x: np.ndarray
    objective: float
    dual_g: np.ndarray
    dual_h: np.ndarray
    reduced_costs: np.ndarray
    iterations: int
    basis: np.ndarray | None = None
    active: np.ndarray | None = None


@dataclass(frozen=True)
class LpEvaluation:
    objective: float
    min_inequality_slack: float
    max_equality_residual: float
    min_bound_slack: float

    def feasible(self, tol: float = 1e-6) -> bool:
        return (
            self.min_inequality_slack >= -tol
            and self.max_equality_residual <= tol
            and self.min_bound_slack >= -tol
        )


def capacity_column(lp: LinearProgram) -> LinearProgram:
    """The same LP with the capacity moved from the right-hand sides into
    one more column, kappa, fixed by its bounds at lp.capacity.

    Each marked row gets -g_cap[i] (or -h_cap[i]) in column kappa, so at
    kappa = capacity the rows are the original ones; a new capacity is then
    a bound change. The result carries no capacity markers.
    """
    n = lp.n_vars

    def kappa_entries(cap: np.ndarray) -> Rows:
        marked = cap != 0.0
        return Rows(_indptr(marked.astype(np.int64)),
                    np.full(np.count_nonzero(marked), n, dtype=np.int64), -cap[marked])

    fixed = np.array([lp.capacity], dtype=float)
    return replace(
        lp,
        c=np.append(lp.c, 0.0),
        lb=np.concatenate([lp.lb, fixed]),
        ub=np.concatenate([lp.ub, fixed]),
        g=Rows.join([lp.g, kappa_entries(lp.g_cap)]),
        g_cap=np.zeros(lp.n_g),
        h=Rows.join([lp.h, kappa_entries(lp.h_cap)]),
        h_cap=np.zeros(lp.n_h),
    )


def evaluate(lp: LinearProgram, x: np.ndarray) -> LpEvaluation:
    """Objective and worst-case feasibility residuals of a candidate point."""
    x = np.asarray(x, float)
    obj = float(lp.c @ x) + lp.objective_constant
    min_g = float((lp.g.dot(x) - lp.b_g()).min()) if lp.n_g else np.inf
    max_h = float(np.abs(lp.h.dot(x) - lp.b_h()).max()) if lp.n_h else 0.0
    bound = np.inf
    finite_lb = np.isfinite(lp.lb)
    finite_ub = np.isfinite(lp.ub)
    if finite_lb.any():
        bound = min(bound, float((x - lp.lb)[finite_lb].min()))
    if finite_ub.any():
        bound = min(bound, float((lp.ub - x)[finite_ub].min()))
    return LpEvaluation(obj, min_g, max_h, bound)


def _storage_rows(instance: Instance, soc_ini: float):
    """Rows 1..6 of the catalog for one battery share, over the columns
    ch_0..ch_{T-1}, dis_0..dis_{T-1}, family-major and slot-minor, and
    their capacity markers; every offset is 0."""
    t = instance.grid.slot_count
    dt = instance.grid.slot_hours
    st = instance.storage
    a = np.zeros((6, t, 2, t))  # [family, slot s, ch or dis, flow slot]
    # stored energy through slot s: cumulative charge minus discharge
    upto = np.tril(np.ones((t, t)))
    a[0, :, 0], a[0, :, 1] = upto * (dt * st.eta_ch), upto * (-dt / st.eta_dis)  # soc_min
    a[1, :, 0], a[1, :, 1] = upto * (-dt * st.eta_ch), upto * (dt / st.eta_dis)  # soc_max
    # signs, x_s >= 0, then power limits, k*S - x_s >= 0
    eye = np.eye(t)
    a[2, :, 1], a[3, :, 0], a[4, :, 1], a[5, :, 0] = eye, eye, -eye, -eye
    rows = Rows.from_dense(a.reshape(6 * t, 2 * t))
    cap = np.repeat([st.soc_lower - soc_ini, soc_ini - st.soc_upper, 0.0, 0.0,
                     -st.power_ratio, -st.power_ratio], t)
    return rows, cap


def _dispatch_lp(instance: Instance, name: str, c: np.ndarray, g: Rows,
                 g_offset: np.ndarray, g_cap: np.ndarray, capacity: float) -> LinearProgram:
    """Free variables ch_0..ch_{T-1}, dis_0..dis_{T-1}, then one per
    further entry of c, the inequality rows g and the energy balance
    equality (stored energy returns to its start by the end of the day)."""
    t_slots = instance.grid.slot_count
    dt = instance.grid.slot_hours
    st = instance.storage
    balance = np.concatenate([np.full(t_slots, dt * st.eta_ch),
                              np.full(t_slots, -dt / st.eta_dis)])
    return LinearProgram(
        name=name,
        c=c,
        lb=np.full(len(c), -np.inf),
        ub=np.full(len(c), np.inf),
        g=g,
        g_offset=g_offset,
        g_cap=g_cap,
        h=Rows.from_lists([np.arange(2 * t_slots)], [balance]),
        h_offset=np.zeros(1),
        h_cap=np.zeros(1),
        capacity=float(capacity),
    )


def build_llm_c(instance: Instance, customer_index: int, capacity: float) -> LinearProgram:
    """Customer dispatch LP for a given battery share (kWh).

    Variables: ch_0..ch_{T-1}, dis_0..dis_{T-1}, peak, valley (2T+2, free).
    Rows: families 1..8 slot by slot (8T inequalities) plus the energy
    balance equality. Objective: retail cost increment of the storage flows
    plus alpha * (peak - valley).
    """
    if not 0 <= customer_index < instance.customer_count:
        raise IndexError(f"customer index {customer_index} out of range")
    if not 0 <= capacity < np.inf:  # NaN fails too
        raise ValueError(f"capacity must be finite and >= 0, got {capacity}")
    t_slots = instance.grid.slot_count
    dt = instance.grid.slot_hours
    load = instance.loads.customer_load[customer_index]
    peak_col, valley_col = 2 * t_slots, 2 * t_slots + 1
    tou, alpha = instance.prices.tou, instance.weights.alpha
    c = np.concatenate([tou * dt, -tou * dt, [alpha, -alpha]])

    storage, cap = _storage_rows(
        instance, float(instance.storage.soc_ini_customer[customer_index]))
    ch, dis = np.arange(t_slots), t_slots + np.arange(t_slots)
    # peak_def: peak - ch_s + dis_s >= load_s; valley_def: ch_s - dis_s - valley >= -load_s
    profile = Rows.from_lists(
        np.concatenate([np.column_stack([np.full(t_slots, peak_col), ch, dis]),
                        np.column_stack([ch, dis, np.full(t_slots, valley_col)])]),
        np.repeat([[1.0, -1.0, 1.0], [1.0, -1.0, -1.0]], t_slots, axis=0))
    return _dispatch_lp(instance, f"llm_c[{customer_index}]", c,
                        Rows.stack([storage, profile]),
                        np.concatenate([np.zeros(storage.n_rows), load, -load]),
                        np.append(cap, np.zeros(2 * t_slots)), capacity)


def build_llm_d(instance: Instance, capacity: float) -> LinearProgram:
    """Distribution-company dispatch LP for its battery share.

    Variables: ch_0..ch_{T-1}, dis_0..dis_{T-1} (2T, free). Rows: families
    1..6 slot by slot (6T inequalities) plus the energy balance equality.
    Objective: wholesale cost increment of the storage flows.
    """
    if not 0 <= capacity < np.inf:  # NaN fails too
        raise ValueError(f"capacity must be finite and >= 0, got {capacity}")
    dt = instance.grid.slot_hours
    c = np.concatenate([instance.prices.lmp * dt, -instance.prices.lmp * dt])
    g, cap = _storage_rows(instance, instance.storage.soc_ini_disco)
    return _dispatch_lp(instance, "llm_d", c, g, np.zeros(g.n_rows), cap, capacity)


def build_party_lp(instance: Instance, party: int, capacity: float) -> LinearProgram:
    """Dispatch LP of one party: customers 0..N-1, then the DisCo as party N."""
    if party < instance.customer_count:
        return build_llm_c(instance, party, capacity)
    return build_llm_d(instance, capacity)


def no_battery_start(lp: LinearProgram):
    """Start (basic columns, point) of capacity_column(lp)'s cold solve, for
    a party LP as build_party_lp returns it: its no-battery vertex and a
    basis there, read off the LP's rows.

    Every flow (the columns of the energy balance row) is nonbasic at 0, the
    bound its folded sign row sets. Each other column (a customer's peak
    and valley) is basic on the row holding it that binds at zero flows,
    the one with the largest offset / |coefficient|: peak on its
    largest-load peak_def row, valley on its smallest-load valley_def row.
    The balance row's first flow, ch[0], is basic at 0 on that row, and
    every other row of capacity_column(lp) with two or more entries keeps
    its surplus basic. Basic columns are numbered as Simplex numbers
    capacity_column(lp)'s: column j, or n_vars + 1 + i for row i's surplus.
    """
    n, g = lp.n_vars, lp.g
    flows = lp.h.row(0)[0]
    x = np.zeros(n + 1)
    basic, tight = [flows[:1]], []
    for j in np.setdiff1d(np.arange(n), flows):
        on = g.indices == j
        rows, coef = g.row_ids[on], g.data[on]
        k = int(np.argmax(lp.g_offset[rows] / np.abs(coef)))
        x[j] = lp.g_offset[rows[k]] / coef[k]
        basic.append([j])
        tight.append(rows[k])
    # capacity_column adds one kappa entry to each row that moves with capacity
    kept = np.diff(g.indptr) + (lp.g_cap != 0.0) >= 2
    kept[tight] = False
    basic.append(n + 1 + np.flatnonzero(kept))
    return np.concatenate(basic).astype(np.int64), x


def make_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    lb=None,
    ub=None,
    name="lp",
    objective_constant=0.0,
) -> LinearProgram:
    """General-purpose constructor from dense data, a_ub x >= b_ub rows.

    Used for tests and toy models; zero coefficients are dropped so the
    sparse invariant (no explicit zeros) holds.
    """
    c = np.asarray(c, float)
    n = len(c)
    lb = np.full(n, -np.inf) if lb is None else np.asarray(lb, float)
    ub = np.full(n, np.inf) if ub is None else np.asarray(ub, float)

    def rows(a, b):
        if a is None or not len(np.atleast_2d(a)):
            return Rows.from_lists((), ()), np.zeros(0)
        return Rows.from_dense(np.atleast_2d(a)), np.asarray(b, float)

    g, g_off = rows(a_ub, b_ub)
    h, h_off = rows(a_eq, b_eq)
    return LinearProgram(
        name=name,
        c=c,
        lb=lb,
        ub=ub,
        g=g,
        g_offset=g_off,
        g_cap=np.zeros(g.n_rows),
        h=h,
        h_offset=h_off,
        h_cap=np.zeros(h.n_rows),
        objective_constant=objective_constant,
    )
