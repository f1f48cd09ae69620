"""Brute-force and residual machinery that certifies division solutions
without trusting the reformulation or the branching solvers.

grid_oracle enumerates capacity divisions on a regular grid. It reads
every party's dispatch at each share on the grid off the party's
capacity path (a party's problem depends only on its own share), then
scores the grid as an array program in blocks of up to 4,096 points: the
parties' cached flows are summed per point and priced by the division
objective. The best point is the first, in lexicographic order of the
shares with the DisCo's first, within 1e-12 of the grid minimum. Each
path's cold solve starts at the party's no-battery vertex
(simplex.CapacityPath); a party whose start the engine rejects is named
in the report's notes.
check_schedule_invariants audits a division's schedules from raw data,
without the LP rows.

Optimistic ties: each cell scores the better of the party's optimum and
the face minimum of the flow-priced part of the upper objective
(CapacityPath.flow_face); the shared peak term is not tied through. Both
are lookups: the path walks each of its pieces' faces once for the
grid's price and reads every grid share off those face lines, so no LP
is re-solved per grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import FEAS_TOL, Division, Instance, ScheduleSet, flow_price, soc_trajectory
from .simplex import day_paths

GRID_GUARD = 200_000
_BLOCK = 4096  # grid points scored per array pass


@dataclass(frozen=True)
class InvariantReport:
    items: tuple  # (name, passed, worst_violation)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.items)

    def failures(self):
        return [it for it in self.items if not it[1]]


def check_schedule_invariants(
    instance: Instance,
    division: Division,
    schedules: ScheduleSet,
    tol: float = FEAS_TOL,
) -> InvariantReport:
    """Itemized feasibility audit of a (division, schedules) pair."""
    st = instance.storage
    dt = instance.grid.slot_hours
    items = []

    caps = np.concatenate([[division.s_disco], division.s_customer])
    split = float(caps.sum() - st.total_capacity)
    items.append(("capacity_split", split <= tol and float(caps.min()) >= -tol,
                  max(split, -float(caps.min()))))

    def party(name, cap, ch, dis, soc_ini):
        worst = 0.0
        lo_viol = float(np.max(np.maximum(-ch, -dis), initial=0.0))
        hi_viol = float(
            np.max(np.maximum(ch, dis) - st.power_ratio * cap, initial=0.0)
        )
        worst = max(lo_viol, hi_viol)
        items.append((f"{name}.power_caps", worst <= tol, worst))
        traj = soc_trajectory(st, cap, ch, dis, soc_ini, dt)
        corridor = max(
            float(np.max(cap * st.soc_lower - traj, initial=0.0)),
            float(np.max(traj - cap * st.soc_upper, initial=0.0)),
        )
        items.append((f"{name}.soc_corridor", corridor <= tol, corridor))
        bal = abs(float(traj[-1]) - cap * soc_ini)
        items.append((f"{name}.energy_balance", bal <= tol, bal))

    for n in range(instance.customer_count):
        party(
            f"customer[{n}]",
            float(division.s_customer[n]),
            schedules.customer_ch[n],
            schedules.customer_dis[n],
            float(st.soc_ini_customer[n]),
        )
        net = (
            instance.loads.customer_load[n]
            + schedules.customer_ch[n]
            - schedules.customer_dis[n]
        )
        pk = float(np.max(net - schedules.customer_peak[n]))
        items.append((f"customer[{n}].peak_def", pk <= tol, max(pk, 0.0)))
        vl = float(np.max(schedules.customer_valley[n] - net))
        items.append((f"customer[{n}].valley_def", vl <= tol, max(vl, 0.0)))
    party("disco", division.s_disco, schedules.disco_ch, schedules.disco_dis,
          st.soc_ini_disco)

    net_sys = (
        instance.loads.system_load
        + (schedules.customer_ch - schedules.customer_dis).sum(axis=0)
        + schedules.disco_ch
        - schedules.disco_dis
    )
    over = float(np.max(net_sys) - schedules.system_peak)
    items.append(("system_peak", over <= tol, max(over, 0.0)))
    return InvariantReport(items=tuple(items))


@dataclass(frozen=True, eq=False)
class OracleReport:
    """The grid's best point and its scores, as arrays over the grid points
    in search order: counts[i] holds point i's share counts (DisCo first,
    each share is count * grid_step), values[i] its upper objective, and
    lower[j, k] party j's optimum (DisCo first) at share count k."""

    best_division: Division
    best_objective: float
    counts: np.ndarray
    lower: np.ndarray
    values: np.ndarray
    notes: tuple
    grid_step: float

    @property
    def records(self) -> tuple:
        """(division tuple, per-party lower objectives with customers first,
        upper objective) per grid point."""
        shares = (self.counts * self.grid_step).tolist()
        lows = self.lower[np.arange(len(self.lower)), self.counts]
        lows = np.roll(lows, -1, axis=1).tolist()
        return tuple((tuple(div), tuple(low), val)
                     for div, low, val in zip(shares, lows, self.values.tolist()))


def _compositions(k_max: int, parts: int) -> np.ndarray:
    """Every row of parts non-negative share counts summing to at most
    k_max, in lexicographic order."""
    grid = np.zeros((1, 0), dtype=np.intp)
    left = np.array([k_max])
    for _ in range(parts):
        reps = left + 1  # a row with `left` counts to spare takes 0..left next
        k = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        grid = np.column_stack([np.repeat(grid, reps, axis=0), k])
        left = np.repeat(left, reps) - k
    return grid


def grid_oracle(instance: Instance, step: float) -> OracleReport:
    """Exhaustive division search on the grid {0, step, 2 step, ...}.

    Each party's dispatch depends only on its own share, so each party's
    capacity path is read at every grid share (its optimum and face
    minimum, with no re-solve), and the grid is scored from those reads in
    blocks of _BLOCK points.
    Grid points run in lexicographic order of the share counts, DisCo
    share first; the best point is the first in that order whose upper
    objective lies within 1e-12 of the grid minimum.
    """
    if not 0 < step < math.inf:  # NaN fails too
        raise ValueError(f"step must be positive and finite, got {step}")
    n = instance.customer_count
    s_total = instance.storage.total_capacity
    k_max = int(math.floor(s_total / step + 1e-9))
    n_points = math.comb(k_max + n + 1, n + 1)
    if n_points > GRID_GUARD:
        raise ValueError(
            f"grid of {n_points} points exceeds the {GRID_GUARD}-point guard"
        )
    w = instance.weights
    price = flow_price(instance)
    sys_load = instance.loads.system_load
    base_cost = float(price @ sys_load)
    t = instance.grid.slot_count

    # per party, in grid-column order (DisCo first): flows ch - dis of the
    # optimum and of the face minimum at each share count, and the optimum
    raw = np.empty((n + 1, k_max + 1, t))
    face = np.empty_like(raw)
    lower = np.empty((n + 1, k_max + 1))
    notes = []
    for p, path in enumerate(day_paths(instance)):  # customers 0..n-1, then disco
        j = (p + 1) % (n + 1)
        for k in range(k_max + 1):
            sol, x_face = path.flow_face(k * step, price)
            raw[j, k] = sol.x[:t] - sol.x[t: 2 * t]
            face[j, k] = x_face[:t] - x_face[t: 2 * t]
            lower[j, k] = sol.objective
        if path.engine.start_rejects:
            party = f"customer[{p}]" if p < n else "disco"
            notes.append(f"{party}: no-battery start rejected, solved from the slack crash")

    def upper(by_party, ks):
        flows = by_party[0][ks[:, 0]]
        for j in range(1, n + 1):
            flows += by_party[j][ks[:, j]]
        return w.lambda1 * (sys_load + flows).max(axis=1) + flows @ price + base_cost

    grid = _compositions(k_max, n + 1)
    values = np.empty(len(grid))
    for first in range(0, len(grid), _BLOCK):
        ks = grid[first: first + _BLOCK]
        np.minimum(upper(raw, ks), upper(face, ks), out=values[first: first + len(ks)])
    best = int(np.argmax(values <= values.min() + 1e-12))
    best_obj = float(values[best])
    best_div = (grid[best] * step).tolist()
    ties = int(np.count_nonzero(np.abs(values - best_obj) <= 1e-9)) - 1
    if ties > 0:
        notes.append(f"{ties} grid points within 1e-9 of the best objective")
    return OracleReport(
        best_division=Division(
            s_disco=best_div[0], s_customer=np.array(best_div[1:])
        ),
        best_objective=best_obj,
        counts=grid,
        lower=lower,
        values=values,
        notes=tuple(notes),
        grid_step=step,
    )
