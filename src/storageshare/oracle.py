"""Brute-force and residual machinery that certifies division solutions
without trusting the reformulation or the branching solvers.

grid_oracle enumerates capacity divisions on a regular grid, solves every
party's dispatch LP independently per capacity value on one warm family
per party (cached: a party's problem depends only on its own share),
and evaluates the division objective directly from schedules. Each
family starts at the party's no-battery vertex (simplex.party_family); a
party whose start the engine rejects is named in the report's notes.
check_schedule_invariants audits a division's schedules from raw data,
without the LP rows.

Optimistic ties: each cell scores the better of the party's optimum and
the face minimum of the flow-priced part of the upper objective
(simplex.flow_face on the family's engine); the shared peak term is not
tied through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import Division, Instance, ScheduleSet, flow_price, soc_trajectory
from .simplex import flow_face, party_family

GRID_GUARD = 200_000


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
    tol: float = 1e-6,
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


@dataclass(frozen=True)
class OracleReport:
    best_division: Division
    best_objective: float
    records: tuple  # (division tuple, per-party lower objectives, upper objective)
    notes: tuple
    grid_step: float


@dataclass(frozen=True)
class _Dispatch:
    """Cached LLM outcome for one (party, capacity) cell."""

    flow_raw: np.ndarray  # ch - dis, kW
    flow_res: np.ndarray
    lower_objective: float


def _party_dispatch(family, cap, grad_flows) -> _Dispatch:
    """The party's dispatch at capacity cap, from its warm family, and the
    one of its optima that grad_flows . (ch - dis) likes best."""
    t = len(grad_flows)
    sol, x_res = flow_face(family, cap, grad_flows)
    if x_res is None:
        raise RuntimeError(f"LLM solve failed ({sol.status}) at capacity {cap}")
    return _Dispatch(
        flow_raw=sol.x[:t] - sol.x[t: 2 * t],
        flow_res=x_res[:t] - x_res[t: 2 * t],
        lower_objective=sol.objective,
    )


def grid_oracle(instance: Instance, step: float, guard: int = GRID_GUARD) -> OracleReport:
    """Exhaustive division search on the grid {0, step, 2 step, ...}.

    Each party's dispatch depends only on its own share, so each party has
    one warm family, swept over the capacity values in ascending order,
    and its LLM solutions are reused across grid points. Ties on
    the upper objective resolve to the lexicographically smallest division
    (DisCo share first).
    """
    if not 0 < step < math.inf:  # NaN fails too
        raise ValueError(f"step must be positive and finite, got {step}")
    n = instance.customer_count
    s_total = instance.storage.total_capacity
    k_max = int(math.floor(s_total / step + 1e-9))
    n_points = math.comb(k_max + n + 1, n + 1)
    if n_points > guard:
        raise ValueError(
            f"grid of {n_points} points exceeds the {guard}-point guard"
        )
    w = instance.weights
    price = flow_price(instance)
    base_cost = float(price @ instance.loads.system_load)
    sys_load = instance.loads.system_load

    cache = []  # party order: customers 0..n-1, then disco
    notes = []
    for p in range(n + 1):
        family = party_family(instance, p)
        cache.append([_party_dispatch(family, k * step, price)
                      for k in range(k_max + 1)])
        if family.engine.start_rejects:
            party = f"customer[{p}]" if p < n else "disco"
            notes.append(f"{party}: no-battery start rejected, solved from the slack crash")

    def upper_value(flows):
        net = sys_load + flows
        return w.lambda1 * float(net.max()) + float(price @ flows) + base_cost

    records = []
    best = None  # (objective, division tuple)

    def visit(idx):
        nonlocal best
        disco_k = idx[0]
        cust_k = idx[1:]
        flows_raw = cache[n][disco_k].flow_raw.copy()
        flows_res = cache[n][disco_k].flow_res.copy()
        for p, kk in enumerate(cust_k):
            flows_raw += cache[p][kk].flow_raw
            flows_res += cache[p][kk].flow_res
        val = min(upper_value(flows_raw), upper_value(flows_res))
        lower = tuple(
            [cache[p][kk].lower_objective for p, kk in enumerate(cust_k)]
            + [cache[n][disco_k].lower_objective]
        )
        division = (disco_k * step,) + tuple(kk * step for kk in cust_k)
        records.append((division, lower, val))
        if best is None or val < best[0] - 1e-12:
            best = (val, division)

    def walk(prefix, remaining):
        if len(prefix) == n + 1:
            visit(prefix)
            return
        for kk in range(remaining + 1):
            walk(prefix + (kk,), remaining - kk)

    walk((), k_max)
    best_obj, best_div = best
    ties = sum(1 for r in records if abs(r[2] - best_obj) <= 1e-9) - 1
    if ties > 0:
        notes.append(f"{ties} grid points within 1e-9 of the best objective")
    return OracleReport(
        best_division=Division(
            s_disco=best_div[0], s_customer=np.array(best_div[1:])
        ),
        best_objective=best_obj,
        records=tuple(records),
        notes=tuple(notes),
        grid_step=step,
    )
