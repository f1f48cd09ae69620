"""Domain data for the shared-storage division problem.

Holds the immutable problem instance (time grid, prices, loads, storage
parameters, objective weights) plus closed-form evaluations of the upper
objective, the per-slot net system load, and stored-energy trajectories.
Everything here is solver-free so it can double as an independent check on
solver output.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

FEAS_TOL = 1e-6  # absolute tolerance on kW / kWh feasibility checks

DEFAULT_SOC_INI = 0.5


class InstanceError(ValueError):
    """Raised when instance data violates a structural invariant."""


def _freeze(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Uniform daily grid: T slots of slot_hours each."""

    slot_count: int
    slot_hours: float


@dataclass(frozen=True)
class PriceSeries:
    """Wholesale (lmp) and retail (tou) prices per slot, currency/kWh."""

    lmp: np.ndarray
    tou: np.ndarray


@dataclass(frozen=True)
class LoadSet:
    """Customer loads [N, T], non-participating feeder load [T] and the
    system load [T] they sum to, kW (make_instance derives the last)."""

    customer_load: np.ndarray
    extra_base_load: np.ndarray
    system_load: np.ndarray


@dataclass(frozen=True)
class StorageParams:
    """Shared battery data: capacity (kWh), efficiencies, power ratio (1/h),
    SoC corridor and per-owner initial SoC fractions (soc_ini_customer one
    per customer, or one value for all; make_instance makes it an array and
    takes DEFAULT_SOC_INI for each customer when it is None)."""

    total_capacity: float
    eta_ch: float = 0.92
    eta_dis: float = 0.92
    power_ratio: float = 0.25
    soc_lower: float = 0.1
    soc_upper: float = 0.9
    soc_ini_customer: np.ndarray = None  # type: ignore[assignment]
    soc_ini_disco: float = DEFAULT_SOC_INI


@dataclass(frozen=True)
class Weights:
    """Objective weights: lambda1 on peak, lambda2/lambda3 on DisCo/customer
    cost, alpha on the customer peak-valley penalty."""

    lambda1: float = 0.8
    lambda2: float = 6.69
    lambda3: float = 1.0
    alpha: float = 0.01


@dataclass(frozen=True)
class Instance:
    grid: TimeGrid
    prices: PriceSeries
    loads: LoadSet
    storage: StorageParams
    weights: Weights
    customer_count: int


@dataclass(frozen=True)
class Division:
    """Capacity split: s_disco + sum(s_customer) <= total capacity."""

    s_disco: float
    s_customer: np.ndarray


@dataclass(frozen=True)
class ScheduleSet:
    """Charging/discharging schedules (kW) for all parties plus the
    customer peak/valley auxiliaries and the system peak."""

    customer_ch: np.ndarray  # [N, T]
    customer_dis: np.ndarray  # [N, T]
    disco_ch: np.ndarray  # [T]
    disco_dis: np.ndarray  # [T]
    customer_peak: np.ndarray  # [N]
    customer_valley: np.ndarray  # [N]
    system_peak: float


def make_instance(lmp, tou, customer_load, slot_hours: float, total_capacity: float, *,
                  extra_base_load=None, **params) -> Instance:
    """Check plain arrays and build a frozen Instance from them. params sets
    any other StorageParams or Weights field by name (an unknown name raises
    TypeError); an omitted one keeps its default, and extra_base_load is
    zero in every slot when omitted.

    The system load is derived from the checked loads, never given. Raises
    InstanceError naming the first violated invariant.
    """
    cl = _freeze(np.atleast_2d(np.asarray(customer_load, dtype=float)))
    if cl.ndim != 2:
        raise InstanceError(f"customer_load has shape {cl.shape}, expected two dimensions")
    n, t = cl.shape
    base = _freeze(np.zeros(t) if extra_base_load is None else extra_base_load)
    w = Weights(**{f.name: params.pop(f.name) for f in fields(Weights) if f.name in params})
    st = StorageParams(total_capacity=float(total_capacity), **params)
    grid = TimeGrid(slot_count=t, slot_hours=float(slot_hours))

    if t < 2:
        raise InstanceError(f"slot_count must be >= 2, got {t}")
    if not 0 < grid.slot_hours < np.inf:
        raise InstanceError(f"slot_hours must be finite and > 0, got {grid.slot_hours}")
    if n < 1:
        raise InstanceError(f"customer_count must be >= 1, got {n}")

    lmp, tou = _freeze(lmp), _freeze(tou)
    for name, arr in (("lmp", lmp), ("tou", tou)):
        if arr.shape != (t,):
            raise InstanceError(f"{name} has shape {arr.shape}, expected ({t},)")
        if not np.all(np.isfinite(arr)):
            raise InstanceError(f"{name} contains non-finite entries")
    if np.any(tou < 0):
        raise InstanceError("tou prices must be nonnegative")

    if base.shape != (t,):
        raise InstanceError(f"extra_base_load has shape {base.shape}, expected ({t},)")
    for name, arr in (("customer_load", cl), ("extra_base_load", base)):
        if not np.all((arr >= 0) & (arr < np.inf)):
            raise InstanceError(f"{name} must be finite and nonnegative")

    if not 0 <= st.total_capacity < np.inf:
        raise InstanceError(f"total_capacity must be finite and >= 0, got {st.total_capacity}")
    for name, eta in (("eta_ch", st.eta_ch), ("eta_dis", st.eta_dis)):
        if not 0 < eta <= 1:
            raise InstanceError(f"{name} must be in (0, 1], got {eta}")
    if not 0 < st.power_ratio < np.inf:
        raise InstanceError(f"power_ratio must be finite and > 0, got {st.power_ratio}")
    if not 0 <= st.soc_lower <= st.soc_upper <= 1:
        raise InstanceError(
            f"need 0 <= soc_lower <= soc_upper <= 1, got ({st.soc_lower}, {st.soc_upper})"
        )
    ini = DEFAULT_SOC_INI if st.soc_ini_customer is None else st.soc_ini_customer
    soc_ini_c = _freeze(np.full(n, ini, float) if np.isscalar(ini) else ini)
    if soc_ini_c.shape != (n,):
        raise InstanceError(f"soc_ini_customer has shape {soc_ini_c.shape}, expected ({n},)")
    for label, v in (("soc_ini_disco", st.soc_ini_disco), ("soc_ini_customer", soc_ini_c)):
        if not np.all((v >= st.soc_lower - 1e-12) & (v <= st.soc_upper + 1e-12)):
            raise InstanceError(
                f"{label} outside [soc_lower, soc_upper] = [{st.soc_lower}, {st.soc_upper}]"
            )

    if not 0 < w.lambda1 < np.inf:
        raise InstanceError(f"lambda1 must be finite and > 0 (peak linearization), got {w.lambda1}")
    for name, v in (("lambda2", w.lambda2), ("lambda3", w.lambda3), ("alpha", w.alpha)):
        if not 0 <= v < np.inf:
            raise InstanceError(f"{name} must be finite and >= 0, got {v}")

    return Instance(
        grid=grid,
        prices=PriceSeries(lmp=lmp, tou=tou),
        loads=LoadSet(customer_load=cl, extra_base_load=base,
                      system_load=_freeze(base + cl.sum(axis=0))),
        storage=replace(st, soc_ini_customer=soc_ini_c),
        weights=w,
        customer_count=n,
    )


def zero_schedules(instance: Instance) -> ScheduleSet:
    """The do-nothing schedule: per-customer peak/valley equal the original
    load extremes and the system peak equals the original maximum."""
    n = instance.customer_count
    t = instance.grid.slot_count
    cl = instance.loads.customer_load
    return ScheduleSet(
        customer_ch=np.zeros((n, t)),
        customer_dis=np.zeros((n, t)),
        disco_ch=np.zeros(t),
        disco_dis=np.zeros(t),
        customer_peak=cl.max(axis=1),
        customer_valley=cl.min(axis=1),
        system_peak=float(instance.loads.system_load.max()),
    )


def net_system_load(instance: Instance, schedules: ScheduleSet) -> np.ndarray:
    """Per-slot net feeder load: original load plus all storage flows (kW)."""
    cl_flow = (schedules.customer_ch - schedules.customer_dis).sum(axis=0)
    return (
        instance.loads.system_load
        + cl_flow
        + schedules.disco_ch
        - schedules.disco_dis
    )


def system_peak(net_load: np.ndarray) -> float:
    """Maximum of the net load over the day."""
    net_load = np.asarray(net_load, float)
    if net_load.size == 0:
        raise InstanceError("system_peak of an empty series")
    return float(net_load.max())


def disco_cost(instance: Instance, schedules: ScheduleSet) -> float:
    """DisCo's wholesale energy bill: sum_t lmp_t * net_load_t * dt."""
    net = net_system_load(instance, schedules)
    return float(np.dot(instance.prices.lmp, net) * instance.grid.slot_hours)


def customer_cost_total(instance: Instance, schedules: ScheduleSet) -> float:
    """Aggregate retail bill: the same net-load kernel priced at tou."""
    net = net_system_load(instance, schedules)
    return float(np.dot(instance.prices.tou, net) * instance.grid.slot_hours)


def flow_price(instance: Instance) -> np.ndarray:
    """Division-objective price of one kW of net storage flow in each slot:
    (lambda2 * lmp + lambda3 * tou) * dt."""
    w = instance.weights
    return (w.lambda2 * instance.prices.lmp
            + w.lambda3 * instance.prices.tou) * instance.grid.slot_hours


def upper_objective(instance: Instance, schedules: ScheduleSet) -> float:
    """Division-problem objective: lambda1*peak + lambda2*C_d + lambda3*C_c.

    schedules.system_peak must dominate the actual net-load maximum; a
    violation means the peak linearization was broken somewhere upstream.
    """
    actual = system_peak(net_system_load(instance, schedules))
    if schedules.system_peak < actual - FEAS_TOL:
        raise InstanceError(
            f"system_peak {schedules.system_peak} is below the net-load max {actual}"
        )
    w = instance.weights
    return (
        w.lambda1 * schedules.system_peak
        + w.lambda2 * disco_cost(instance, schedules)
        + w.lambda3 * customer_cost_total(instance, schedules)
    )


def soc_trajectory(
    storage: StorageParams,
    capacity: float,
    ch: np.ndarray,
    dis: np.ndarray,
    soc_ini: float,
    dt: float,
) -> np.ndarray:
    """Stored energy (kWh) after each slot.

    Entry t is capacity*soc_ini plus the efficiency-weighted cumulative
    charge minus discharge through slot t. Bound checking is left to the
    verifier; this is pure bookkeeping.
    """
    ch = np.asarray(ch, float)
    dis = np.asarray(dis, float)
    delta = ch * dt * storage.eta_ch - dis * dt / storage.eta_dis
    return capacity * soc_ini + np.cumsum(delta)
