"""Test-side reference tools: brute-force vertex enumeration, a random
feasible-LP generator, a one-row slack, the optimality (KKT) system of
an LP with its residual checker, a dense LP constructor (make_lp), each
party's own dispatch objective read off its schedules, and an MPS writer
and reader that walk the file one entry and one line at a time.
Deliberately independent of the package's solver, writer and reader code
paths (only the LinearProgram, instance and MpsSummary containers are
shared)."""

import itertools
from dataclasses import dataclass

import numpy as np

from storageshare.instance import Instance, ScheduleSet
from storageshare.lp import LinearProgram, Rows, evaluate
from storageshare.mps_io import MpsSummary


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
    """A LinearProgram from dense data, a_ub x >= b_ub rows, for tests and
    toy models; zero coefficients are dropped so the sparse invariant (no
    explicit zeros) holds.
    """
    c = np.asarray(c, float)
    n = len(c)
    lb = np.full(n, -np.inf) if lb is None else np.asarray(lb, float)
    ub = np.full(n, np.inf) if ub is None else np.asarray(ub, float)

    def rows(a, b):
        if a is None or not len(np.atleast_2d(a)):
            return Rows.from_lists((), ()), np.zeros(0)
        return Rows.from_dense(np.atleast_2d(a)), np.asarray(b, float)

    g, b_g = rows(a_ub, b_ub)
    h, b_h = rows(a_eq, b_eq)
    return LinearProgram(name=name, c=c, lb=lb, ub=ub, g=g, b_g=b_g, h=h, b_h=b_h,
                         objective_constant=objective_constant)


@dataclass(frozen=True)
class KktSystem:
    """Optimality system of one lower-level LP.

    Stationarity row j (one per free primal variable):
        sum_i A_g[i, j] * omega_i + sum_m A_h[m, j] * v_m = c_j
    plus omega >= 0, the primal rows verbatim, and one complementarity
    pair per inequality row.
    """

    lp: LinearProgram
    stat_g: Rows  # A_g transposed: row j lists the inequality rows using free x_j
    stat_h: Rows  # A_h transposed
    rhs: np.ndarray  # lp.c over the free columns


def derive_kkt(lp: LinearProgram) -> KktSystem:
    """Optimality system of an LP whose limits are all written as rows.

    A column fixed by its bounds (a party LP's capacity) is a constant, so
    it gets no stationarity row. Any other finite variable bound would need
    its own multiplier, which the generated stationarity rows deliberately
    omit; such LPs are rejected.
    """
    fixed = lp.lb == lp.ub
    if np.any(np.isfinite(lp.lb[~fixed])) or np.any(np.isfinite(lp.ub[~fixed])):
        raise ValueError(
            "derive_kkt needs an all-rows LP (finite variable bounds present)"
        )
    free = np.flatnonzero(~fixed)
    return KktSystem(
        lp=lp,
        stat_g=lp.g.transpose(lp.n_vars).take(free),
        stat_h=lp.h.transpose(lp.n_vars).take(free),
        rhs=lp.c[free],
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
    slack = lp.g.dot(x) - lp.b_g
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
    rows = [lp.g.dense(n), lp.b_g]
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
    b_eq = lp.b_h
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
    val = float(sol.dual_g @ lp.b_g) + float(sol.dual_h @ lp.b_h)
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
    return float(val @ x[idx]) - float(lp.b_g[i])


def customer_llm_objective(instance: Instance, n: int, schedules: ScheduleSet) -> float:
    """Customer n's own objective: retail cost increment of its storage use
    plus the weighted peak-valley spread of its net profile."""
    dt = instance.grid.slot_hours
    flow = schedules.customer_ch[n] - schedules.customer_dis[n]
    cost = float(np.dot(instance.prices.tou, flow) * dt)
    spread = schedules.customer_peak[n] - schedules.customer_valley[n]
    return cost + instance.weights.alpha * float(spread)


def disco_llm_objective(instance: Instance, schedules: ScheduleSet) -> float:
    """DisCo's own objective: wholesale cost increment of its storage use."""
    dt = instance.grid.slot_hours
    flow = schedules.disco_ch - schedules.disco_dis
    return float(np.dot(instance.prices.lmp, flow) * dt)


def read_mps_lines(source) -> MpsSummary:
    """The summary `mps_io.read_mps` must return, read one line at a time
    from a path or a text handle with str.split and float()."""
    if not hasattr(source, "read"):
        with open(source) as fh:
            return read_mps_lines(fh)
    summary = MpsSummary()
    section = None
    objective = None  # the first N row; later N rows are free rows
    seen_cols: dict[str, bool] = {}
    integral = False
    for line in source:
        tokens = line.split()
        if not tokens or tokens[0][0] == "*":  # blank or comment
            continue
        if line[0] not in " \t":
            keyword = tokens[0].upper()
            if keyword == "NAME":
                summary.name = tokens[1] if len(tokens) > 1 else ""
                continue
            if keyword == "ENDATA":
                break
            section = keyword
        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                marker = tokens[-1].upper()
                if marker == "'INTORG'":
                    integral = True
                elif marker == "'INTEND'":
                    integral = False
                continue
            seen_cols.setdefault(tokens[0], integral)
            for value in tokens[2::2]:  # (len - 1) // 2 name/value pairs
                float(value)
            summary.entries += (len(tokens) - 1) // 2
        elif section == "ROWS":
            if len(tokens) < 2:
                raise ValueError("ROWS line without a row name")
            sense, name = tokens[0].upper(), tokens[1]
            if sense == "N":
                summary.objective_rows += 1
                if objective is None:
                    objective = name
            elif sense == "G":
                summary.g_rows += 1
            elif sense == "L":
                summary.l_rows += 1
            elif sense == "E":
                summary.e_rows += 1
            else:
                raise ValueError(f"unknown row sense {sense!r}")
        elif section == "RHS":
            for p in range(1, len(tokens) - 1, 2):
                if tokens[p] == objective:
                    summary.objective_constant = -float(tokens[p + 1])
                else:
                    float(tokens[p + 1])
                summary.rhs_entries += 1
        elif section == "RANGES":
            for p in range(1, len(tokens) - 1, 2):
                float(tokens[p + 1])
                summary.range_entries += 1
        elif section == "BOUNDS":
            if len(tokens) >= 4:  # BV, FR and MI lines may have no value
                float(tokens[3])
            btype = tokens[0].upper()
            summary.bound_entries += 1
            summary.bound_types[btype] = summary.bound_types.get(btype, 0) + 1
        elif section is None:
            raise ValueError("data line before any section header")
    summary.columns = len(seen_cols)
    summary.binary_columns = sum(seen_cols.values())
    return summary


def write_mps_lines(lp: LinearProgram, binary_cols=()) -> bytes:
    """The bytes `mps_io.export_mps` must write for lp with the given binary
    columns, built one entry at a time: rows and columns named OBJ, R, E
    and X plus a 7-digit index, values written b"%.12g" % v, a name padded
    to 10 characters and a value to 12 where another field follows it."""
    def num(v):
        return b"%.12g" % v

    def pairs(head, entries):
        # (row name, value) entries two per line
        out = []
        for k in range(0, len(entries), 2):
            (row, v), rest = entries[k], entries[k + 1:k + 2]
            line = b"    " + head + row.ljust(10) + (num(v).ljust(12) if rest else num(v))
            for row2, v2 in rest:
                line += b"   " + row2.ljust(10) + num(v2)
            out.append(line + b"\n")
        return out

    n = lp.n_vars
    col = [b"X%07d" % j for j in range(n)]
    row = [b"OBJ"] + [b"R%07d" % i for i in range(lp.n_g)] + [b"E%07d" % i for i in range(lp.n_h)]
    name = "".join(ch if ch.isalnum() else "_" for ch in lp.name.upper())
    out = [b"NAME          " + (name or "MODEL")[:8].encode() + b"\n", b"ROWS\n", b" N  OBJ\n"]
    out += [b" G  " + row[1 + i] + b"\n" for i in range(lp.n_g)]
    out += [b" E  " + row[1 + lp.n_g + i] + b"\n" for i in range(lp.n_h)]

    # each column's entries in row order: the objective, then g, then h
    entries = [[] for _ in range(n)]
    for j in range(n):
        if lp.c[j] != 0.0:
            entries[j].append((row[0], lp.c[j]))
    for first, rows in ((1, lp.g), (1 + lp.n_g, lp.h)):
        for i in range(rows.n_rows):
            for j, v in zip(*rows.row(i)):
                entries[j].append((row[first + i], v))
    binary = set(int(j) for j in binary_cols)
    out.append(b"COLUMNS\n")
    integral, marker = False, 0
    for j in range(n):
        if entries[j] and (j in binary) != integral:
            integral, marker = not integral, marker + 1
            out.append(b"    M%07d  'MARKER'                 '%s'\n"
                       % (marker, b"INTORG" if integral else b"INTEND"))
        out += pairs(col[j].ljust(10), entries[j])
    if integral:
        out.append(b"    M%07d  'MARKER'                 'INTEND'\n" % (marker + 1))

    out.append(b"RHS\n")
    rhs = [(row[0], -lp.objective_constant)] if lp.objective_constant != 0.0 else []
    rhs += [(row[1 + i], v) for i, v in enumerate(list(lp.b_g) + list(lp.b_h)) if v != 0.0]
    out += pairs(b"RHS".ljust(10), rhs)
    out += [b"RANGES\n", b"BOUNDS\n"]
    for j in range(n):
        lb, ub = lp.lb[j], lp.ub[j]
        lo, hi = np.isfinite(lb), np.isfinite(ub)
        if j in binary:
            out.append(b" BV BND       " + col[j] + b"\n")
            continue
        if lo and hi and lb == ub:
            out.append(b" FX BND       " + col[j].ljust(10) + num(lb) + b"\n")
            continue
        if not lo:
            out.append((b" MI BND       " if hi else b" FR BND       ") + col[j] + b"\n")
        elif lb != 0.0:
            out.append(b" LO BND       " + col[j].ljust(10) + num(lb) + b"\n")
        if hi:
            out.append(b" UP BND       " + col[j].ljust(10) + num(ub) + b"\n")
    out.append(b"ENDATA\n")
    return b"".join(out)
