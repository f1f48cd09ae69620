"""Lower-level dispatch problems in explicit LP form, and the sparse-row
type every model in the package is stored in.

Each party's day-ahead dispatch is assembled as an inequality/equality
system A_g x >= b_g, A_h x = b_h with every sign and capacity limit written
as a row (the dispatch variables themselves stay free). Keeping limits as
rows means each row carries exactly one multiplier in the optimality
system, in a fixed catalog order the reformulation depends on:

    family 1..6, per slot: soc_min, soc_max, dis_nonneg, ch_nonneg,
                           dis_cap, ch_cap
    customers add per slot: peak_def (7), valley_def (8)
    plus one energy_balance equality.

Rows and columns carry no names; each is known by its position. Row
f*T + t of a party LP is family f + 1 at slot t, so inequality row i
belongs to family i // T + 1 (mpec.linearize_big_m sizes its big-M
bounds this way). Columns are ch_0..ch_{T-1}, dis_0..dis_{T-1}, then a
customer's peak and valley, then kappa.

The owner's capacity is the LP's last column, kappa, fixed by its bounds
at the capacity the LP is built for; a row that moves with capacity holds
kappa's coefficient as its last entry. A new capacity is then a bound
change (simplex.CapacityPath walks them all), kappa's reduced cost is a
subgradient of the party's optimal cost in its capacity, and in the division model kappa
becomes the party's share variable (mpec.assemble_mpec).

At zero flows every party LP has a vertex that is feasible at every
capacity >= 0 (no_battery_start): the battery stays idle, a customer's
peak and valley sit at its highest and lowest load, and every storage row
holds with the slack the capacity gives it, since make_instance keeps
each soc_ini inside [soc_lower, soc_upper]. Its basis is the start of a
capacity path's cold solve, which then needs no phase 1.

A_g and A_h are Rows: compressed sparse rows (CSR), with int64 row
pointers and int32 column ids. At fleet size (100 customers x 48 slots)
the division model (48,787 columns) and its big-M form (87,475) hold 2.3
million entries between them, so int32 ids keep 9.2 MB less than int64.
column_ids is the one checked cast: Rows.__post_init__ passes every id
array through it, and an id outside [0, 2**31) raises ValueError rather
than wrap. numpy indexes and counts with intp ids only and casts any
other dtype on every call, so dense, dot, tdot and transpose go through
two cached intp copies, row_ids and col_ids. Only the engine's small LPs
build them: mpec.assemble_mpec, mpec.linearize_big_m and the MPS writer
read the int32 arrays directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .instance import FEAS_TOL, Instance


def _indptr(counts) -> np.ndarray:
    """Row pointers of rows holding counts[i] entries each."""
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)


_ID_LIMIT = 2 ** 31  # column ids are int32


def column_ids(ids) -> np.ndarray:
    """ids as int32 column ids (no copy when they already are); an id
    outside [0, 2**31) raises ValueError. An int32 sum that passed 2**31 - 1
    wrapped to a negative id, which this rejects too."""
    ids = np.asarray(ids)
    # every id is in [0, 2**31) when no id sets a bit above bit 30, the sign
    # bit included: one reduction checks both ends
    if ids.size and not 0 <= np.bitwise_or.reduce(ids) < _ID_LIMIT:
        raise ValueError(f"column ids must lie in [0, 2**31), got {ids.min()}..{ids.max()}")
    return ids.astype(np.int32, copy=False)


@dataclass(frozen=True, eq=False)
class Rows:
    """Sparse matrix rows in CSR form.

    Row i holds column ids indices[indptr[i]:indptr[i + 1]] with
    coefficients data[indptr[i]:indptr[i + 1]], in the order they were
    built; every operation keeps that order. indptr is int64 and indices
    int32. The column count is not stored: the model that owns the rows
    knows it.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", column_ids(self.indices))

    @classmethod
    def _of_checked(cls, indptr, indices, data) -> "Rows":
        """Rows whose ids are a selection or concatenation of ids that
        column_ids already checked: they skip a second check, which would
        cost more than the operation on the engine's small LPs."""
        rows = cls.__new__(cls)
        rows.__dict__.update(indptr=indptr, indices=indices, data=data)
        return rows

    @classmethod
    def from_lists(cls, idx, val) -> "Rows":
        """Rows from per-row column ids and coefficients. A 2-D array pair
        gives one row per line, all of equal length."""
        if isinstance(idx, np.ndarray) and idx.ndim == 2:
            n, k = idx.shape
            return cls(np.arange(n + 1, dtype=np.int64) * k, idx.ravel(),
                       np.asarray(val, float).ravel())
        lens = np.fromiter((len(i) for i in idx), np.int64, count=len(idx))
        return cls(_indptr(lens), np.concatenate([np.empty(0, np.int32), *idx]),
                   np.concatenate([np.empty(0), *val]).astype(float))

    @classmethod
    def from_dense(cls, a) -> "Rows":
        """The nonzero entries of a 2-D array, column-ascending per row."""
        a = np.asarray(a, float)
        rows, cols = np.nonzero(a)
        return cls(_indptr(np.bincount(rows, minlength=a.shape[0])), cols, a[rows, cols])

    @classmethod
    def stack(cls, parts) -> "Rows":
        """The rows of every part, one part after the other."""
        return cls._of_checked(_indptr(np.concatenate([np.diff(p.indptr) for p in parts])),
                               np.concatenate([p.indices for p in parts]),
                               np.concatenate([p.data for p in parts]))

    @classmethod
    def join(cls, parts) -> "Rows":
        """Row i of the result is row i of every part, concatenated in part
        order; all parts have the same row count."""
        rows = np.concatenate([p.row_ids for p in parts])
        order = np.argsort(rows, kind="stable")
        return cls._of_checked(_indptr(sum(np.diff(p.indptr) for p in parts)),
                               np.concatenate([p.indices for p in parts])[order],
                               np.concatenate([p.data for p in parts])[order])

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    @cached_property
    def row_ids(self) -> np.ndarray:
        """Row id of every stored entry (intp)."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.indptr))

    @cached_property
    def col_ids(self) -> np.ndarray:
        """Column id of every stored entry, as intp: indexing and counting
        with it skip numpy's cast of the int32 indices on every call."""
        return self.indices.astype(np.intp)

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

    def dense(self, n_cols: int) -> np.ndarray:
        a = np.zeros((self.n_rows, n_cols))
        a[self.row_ids, self.col_ids] = self.data
        return a

    def dot(self, x: np.ndarray) -> np.ndarray:
        """Row products A x (x may be longer than the columns used)."""
        return np.bincount(self.row_ids, weights=self.data * x[self.col_ids],
                           minlength=self.n_rows)

    def tdot(self, y: np.ndarray, n_cols: int) -> np.ndarray:
        """Column products y A over n_cols columns (y may be longer than
        the rows)."""
        return np.bincount(self.col_ids, weights=self.data * y[self.row_ids],
                           minlength=n_cols)

    def transpose(self, n_cols: int) -> "Rows":
        """Per-column view: row j lists the rows holding column j, ascending."""
        order = np.argsort(self.col_ids, kind="stable")
        return Rows._of_checked(_indptr(np.bincount(self.col_ids, minlength=n_cols)),
                                column_ids(self.row_ids)[order], self.data[order])

    def take(self, rows) -> "Rows":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        lens = np.diff(self.indptr)[rows]
        indptr = _indptr(lens)
        pos = np.repeat(self.indptr[rows] - indptr[:-1], lens) + np.arange(indptr[-1])
        return Rows._of_checked(indptr, self.indices[pos], self.data[pos])

    def shifted(self, offset: int) -> "Rows":
        """The same rows with every column id moved by offset. The sum is
        taken in int32: one that passes 2**31 - 1 wraps negative, which
        __post_init__ rejects."""
        if not -_ID_LIMIT < offset < _ID_LIMIT:
            raise ValueError(f"column offset {offset} is outside (-2**31, 2**31)")
        return Rows(self.indptr, self.indices + np.int32(offset), self.data)

    def __neg__(self) -> "Rows":
        return Rows._of_checked(self.indptr, self.indices, -self.data)


@dataclass(frozen=True)
class LinearProgram:
    """min c.x + constant  s.t.  A_g x >= b_g,  A_h x = b_h,  lb <= x <= ub.

    g and h hold the rows of A_g and A_h (Rows, one per row, over the
    n_vars columns). g_idx/h_idx are per-row read-only views of the column
    ids of g and h, kept for callers outside the package. name is the
    model's MPS NAME.
    """

    name: str
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    g: Rows
    b_g: np.ndarray
    h: Rows
    b_h: np.ndarray
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


@dataclass
class LpSolution:
    """Primal/dual output of one LP solve.

    dual_g holds one nonnegative multiplier per inequality row, dual_h one
    free multiplier per equality row; reduced_costs cover the structural
    variables (nonzero only off-basis). On a party LP, kappa's reduced cost
    d_kappa(s) is a subgradient of the party's optimal cost phi at its
    capacity s: phi(s') >= phi(s) + d_kappa(s) (s' - s) for every s' >= 0
    (Gal & Nedoma, Manag. Sci. 18(7), 1972). At s = 0 a cold solve's may be
    steeper than phi'(0+); a lookup on simplex.CapacityPath gives phi'(0+),
    and at a breakpoint the slope below it. An optimal simplex solve also
    gives its final basis, as column j of the LP or n_vars + i for the
    surplus of inequality row i, and its active rows: the inequality rows
    the basis holds at a bound (a nonbasic surplus, or a single-entry row
    that sets its column's nonbasic bound).
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

    def feasible(self, tol: float = FEAS_TOL) -> bool:
        return (
            self.min_inequality_slack >= -tol
            and self.max_equality_residual <= tol
            and self.min_bound_slack >= -tol
        )


def evaluate(lp: LinearProgram, x: np.ndarray) -> LpEvaluation:
    """Objective and worst-case feasibility residuals of a candidate point."""
    x = np.asarray(x, float)
    obj = float(lp.c @ x) + lp.objective_constant
    min_g = float((lp.g.dot(x) - lp.b_g).min()) if lp.n_g else np.inf
    max_h = float(np.abs(lp.h.dot(x) - lp.b_h).max()) if lp.n_h else 0.0
    bound = np.inf
    finite_lb = np.isfinite(lp.lb)
    finite_ub = np.isfinite(lp.ub)
    if finite_lb.any():
        bound = min(bound, float((x - lp.lb)[finite_lb].min()))
    if finite_ub.any():
        bound = min(bound, float((lp.ub - x)[finite_ub].min()))
    return LpEvaluation(obj, min_g, max_h, bound)


def build_party_lp(instance: Instance, party: int, capacity: float) -> LinearProgram:
    """Dispatch LP of one party for a given battery share (kWh): customers
    0..N-1 (llm_c[i]), then the DisCo as party N (llm_d).

    Variables: ch_0..ch_{T-1}, dis_0..dis_{T-1}, a customer's peak and
    valley (all free), then kappa fixed at capacity. Rows: families 1..6
    slot by slot, a customer's 7..8 after them, plus the energy balance
    equality (stored energy returns to its start by the end of the day).
    Objective: the cost increment of the storage flows at the party's
    prices (TOU for a customer, plus alpha * (peak - valley); LMP for the
    DisCo).
    """
    n_cust = instance.customer_count
    if not 0 <= party <= n_cust:
        raise IndexError(f"party {party} out of range 0..{n_cust}")
    if not 0 <= capacity < np.inf:  # NaN fails too
        raise ValueError(f"capacity must be finite and >= 0, got {capacity}")
    t = instance.grid.slot_count
    dt = instance.grid.slot_hours
    st = instance.storage
    customer = party < n_cust
    price = instance.prices.tou if customer else instance.prices.lmp
    c = np.concatenate([price * dt, -price * dt])
    soc_ini = float(st.soc_ini_customer[party]) if customer else st.soc_ini_disco
    a = np.zeros((6, t, 2, t))  # [family, slot s, ch or dis, flow slot]
    # stored energy through slot s: cumulative charge minus discharge
    upto = np.tril(np.ones((t, t)))
    a[0, :, 0], a[0, :, 1] = upto * (dt * st.eta_ch), upto * (-dt / st.eta_dis)  # soc_min
    a[1, :, 0], a[1, :, 1] = upto * (-dt * st.eta_ch), upto * (dt / st.eta_dis)  # soc_max
    # signs, x_s >= 0, then power limits, k*S - x_s >= 0
    eye = np.eye(t)
    a[2, :, 1], a[3, :, 0], a[4, :, 1], a[5, :, 0] = eye, eye, -eye, -eye
    g = Rows.from_dense(a.reshape(6 * t, 2 * t))
    b_g = np.zeros(g.n_rows)
    # each row's right-hand side coefficient on the capacity, kappa
    cap = np.repeat([st.soc_lower - soc_ini, soc_ini - st.soc_upper, 0.0, 0.0,
                     -st.power_ratio, -st.power_ratio], t)
    if customer:
        load = instance.loads.customer_load[party]
        alpha = instance.weights.alpha
        c = np.append(c, [alpha, -alpha])
        ch, dis = np.arange(t), t + np.arange(t)
        peak, valley = np.full(t, 2 * t), np.full(t, 2 * t + 1)
        # peak_def: peak - ch_s + dis_s >= load_s; valley_def: ch_s - dis_s - valley >= -load_s
        profile = Rows.from_lists(
            np.concatenate([np.column_stack([peak, ch, dis]),
                            np.column_stack([ch, dis, valley])]),
            np.repeat([[1.0, -1.0, 1.0], [1.0, -1.0, -1.0]], t, axis=0))
        g = Rows.stack([g, profile])
        b_g = np.concatenate([b_g, load, -load])
        cap = np.append(cap, np.zeros(2 * t))
    n = len(c)
    kappa = Rows.from_dense(-cap[:, None]).shifted(n)
    balance = np.concatenate([np.full(t, dt * st.eta_ch), np.full(t, -dt / st.eta_dis)])
    return LinearProgram(
        name=f"llm_c[{party}]" if customer else "llm_d",
        c=np.append(c, 0.0),
        lb=np.append(np.full(n, -np.inf), capacity),
        ub=np.append(np.full(n, np.inf), capacity),
        g=Rows.join([g, kappa]),
        b_g=b_g,
        h=Rows.from_lists([np.arange(2 * t)], [balance]),
        b_h=np.zeros(1),
    )


def no_battery_start(lp: LinearProgram):
    """Start (basic columns, point) of the cold solve of a party LP as
    build_party_lp returns it: its no-battery vertex and a basis there,
    read off the LP's rows.

    Every flow (the columns of the energy balance row) is nonbasic at 0, the
    bound its folded sign row sets, and kappa at its fixed value. Each
    other column (a customer's peak and valley) is basic on the row holding
    it that binds at zero flows, the one with the largest b_g /
    |coefficient|: peak on its largest-load peak_def row, valley on its
    smallest-load valley_def row. The balance row's first flow, ch[0], is
    basic at 0 on that row, and every other row with two or more entries
    keeps its surplus basic. Basic columns are numbered as Simplex numbers
    them: column j, or n_vars + i for row i's surplus.
    """
    n, g = lp.n_vars, lp.g
    flows = lp.h.row(0)[0]
    x = np.zeros(n)
    basic, tight = [flows[:1]], []
    for j in np.setdiff1d(np.arange(n - 1), flows):  # kappa, column n - 1, stays fixed
        on = g.indices == j
        rows, coef = g.row_ids[on], g.data[on]
        k = int(np.argmax(lp.b_g[rows] / np.abs(coef)))
        x[j] = lp.b_g[rows[k]] / coef[k]
        basic.append([j])
        tight.append(rows[k])
    kept = np.diff(g.indptr) >= 2
    kept[tight] = False
    basic.append(n + np.flatnonzero(kept))
    return np.concatenate(basic).astype(np.int64), x

