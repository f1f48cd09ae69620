from dataclasses import fields

import numpy as np
import pytest

from storageshare.instance import (
    Division,
    InstanceError,
    ScheduleSet,
    StorageParams,
    Weights,
    customer_cost_total,
    disco_cost,
    make_instance,
    net_system_load,
    soc_trajectory,
    system_peak,
    upper_objective,
    zero_schedules,
)
from tests.conftest import rand_instance
from tests.lp_oracle import customer_llm_objective, disco_llm_objective


def test_make_instance_defaults(tiny_instance):
    inst = tiny_instance
    assert inst.customer_count == 1
    assert inst.grid.slot_count == 4
    assert inst.grid.slot_count * inst.grid.slot_hours == 4.0
    np.testing.assert_array_equal(inst.loads.system_load, [4.0, 4.0, 4.0, 4.0])
    # arrays come back frozen
    with pytest.raises(ValueError):
        inst.prices.lmp[0] = 99.0


def test_make_instance_takes_the_fields_by_name():
    # every StorageParams and Weights field is a make_instance keyword of its
    # own name; an unknown name is a TypeError, as for any keyword
    given = dict(eta_ch=0.9, eta_dis=0.8, power_ratio=0.5, soc_lower=0.2, soc_upper=0.7,
                 soc_ini_disco=0.3, lambda1=2.0, lambda2=3.0, lambda3=4.0, alpha=0.5)
    inst = make_instance(lmp=[1.0, 2.0], tou=[1.0, 2.0], customer_load=[[1.0, 1.0]] * 2,
                         slot_hours=1.0, total_capacity=4.0, soc_ini_customer=[0.4, 0.6],
                         **given)
    assert {f.name for f in fields(StorageParams) + fields(Weights)} == set(given) | {
        "total_capacity", "soc_ini_customer"}
    got = {**vars(inst.storage), **vars(inst.weights)}
    assert {k: got[k] for k in given} == given
    np.testing.assert_array_equal(inst.storage.soc_ini_customer, [0.4, 0.6])
    with pytest.raises(TypeError, match="soc_initial"):
        make_instance(lmp=[1.0, 2.0], tou=[1.0, 2.0], customer_load=[[1.0, 1.0]],
                      slot_hours=1.0, total_capacity=4.0, soc_initial=0.5)


def test_system_load_recomputed_not_trusted():
    inst = make_instance(
        lmp=[1.0, 1.0, 1.0],
        tou=[1.0, 1.0, 1.0],
        customer_load=[[1.0, 2.0, 3.0], [0.5, 0.5, 0.5]],
        slot_hours=0.5,
        total_capacity=2.0,
        extra_base_load=[10.0, 10.0, 10.0],
    )
    np.testing.assert_allclose(inst.loads.system_load, [11.5, 12.5, 13.5])


@pytest.mark.parametrize(
    "patch,msg",
    [
        (dict(lmp=[1.0, 1.0]), "lmp"),
        (dict(tou=[1.0, -0.1, 1.0]), "tou"),
        (dict(customer_load=[[1.0, -1.0, 1.0]]), "nonnegative"),
        (dict(total_capacity=-5.0), "total_capacity"),
        (dict(eta_ch=0.0), "eta_ch"),
        (dict(eta_dis=1.2), "eta_dis"),
        (dict(power_ratio=0.0), "power_ratio"),
        (dict(soc_lower=0.7, soc_upper=0.3), "soc_lower"),
        (dict(soc_ini_customer=0.05), "soc_ini_customer"),
        (dict(lambda1=0.0), "lambda1"),
        (dict(alpha=-0.01), "alpha"),
        (dict(slot_hours=0.0), "slot_hours"),
        (dict(customer_load=[[1.0, np.nan, 1.0]]), "customer_load"),
        (dict(extra_base_load=[0.0, np.inf, 0.0]), "extra_base_load"),
        (dict(total_capacity=np.inf), "total_capacity"),
        (dict(power_ratio=np.inf), "power_ratio"),
        (dict(soc_ini_customer=np.nan), "soc_ini_customer"),
        (dict(soc_ini_disco=np.nan), "soc_ini_disco"),
        (dict(lambda1=np.inf), "lambda1"),
        (dict(lambda2=np.nan), "lambda2"),
        (dict(lambda3=np.inf), "lambda3"),
        (dict(alpha=np.nan), "alpha"),
        (dict(slot_hours=np.inf), "slot_hours"),
        (dict(extra_base_load=[0.0, 0.0]), "extra_base_load"),
        (dict(customer_load=[[[1.0, 1.0, 1.0]]]), "customer_load"),
        (dict(customer_load=np.zeros((0, 3))), "customer_count"),
    ],
)
def test_validation_rejects(patch, msg):
    kw = dict(
        lmp=[1.0, 2.0, 3.0],
        tou=[1.0, 2.0, 3.0],
        customer_load=[[1.0, 1.0, 1.0]],
        slot_hours=1.0,
        total_capacity=4.0,
    )
    kw.update(patch)
    with pytest.raises(InstanceError, match=msg):
        make_instance(**kw)


def test_negative_lmp_is_allowed():
    inst = make_instance(
        lmp=[-0.5, 1.0, 2.0],
        tou=[0.0, 1.0, 2.0],
        customer_load=[[1.0, 1.0, 1.0]],
        slot_hours=1.0,
        total_capacity=4.0,
    )
    assert inst.prices.lmp[0] == -0.5


def test_single_slot_rejected():
    with pytest.raises(InstanceError, match="slot_count"):
        make_instance(
            lmp=[1.0],
            tou=[1.0],
            customer_load=[[1.0]],
            slot_hours=1.0,
            total_capacity=4.0,
        )


def test_zero_schedules_baseline(tiny_instance):
    sch = zero_schedules(tiny_instance)
    assert sch.system_peak == 4.0
    np.testing.assert_array_equal(sch.customer_peak, [4.0])
    np.testing.assert_array_equal(sch.customer_valley, [4.0])
    np.testing.assert_array_equal(net_system_load(tiny_instance, sch), [4.0] * 4)
    # baseline costs: sum(price * load) * dt
    assert disco_cost(tiny_instance, sch) == pytest.approx(24.0)
    assert customer_cost_total(tiny_instance, sch) == pytest.approx(24.0)


def _hand_schedule(inst):
    # charge 2 kW in the two cheap slots, discharge 2 kW in the two dear ones
    return ScheduleSet(
        customer_ch=np.array([[2.0, 2.0, 0.0, 0.0]]),
        customer_dis=np.array([[0.0, 0.0, 2.0, 2.0]]),
        disco_ch=np.zeros(4),
        disco_dis=np.zeros(4),
        customer_peak=np.array([6.0]),
        customer_valley=np.array([2.0]),
        system_peak=6.0,
    )


def test_hand_costs_match_closed_form(tiny_instance):
    sch = _hand_schedule(tiny_instance)
    np.testing.assert_array_equal(
        net_system_load(tiny_instance, sch), [6.0, 6.0, 2.0, 2.0]
    )
    assert system_peak(net_system_load(tiny_instance, sch)) == 6.0
    # cost shifts 4 kWh from price 2 to price 1: 24 - 4 = 20
    assert disco_cost(tiny_instance, sch) == pytest.approx(20.0)
    assert customer_cost_total(tiny_instance, sch) == pytest.approx(20.0)
    # own objective: -4 energy saving + 0.01 * (6 - 2) spread  [frozen]
    assert customer_llm_objective(tiny_instance, 0, sch) == pytest.approx(-3.96)
    assert disco_llm_objective(tiny_instance, sch) == pytest.approx(0.0)


def test_upper_objective_weighted_sum(tiny_instance):
    sch = _hand_schedule(tiny_instance)
    w = tiny_instance.weights
    want = w.lambda1 * 6.0 + w.lambda2 * 20.0 + w.lambda3 * 20.0
    assert upper_objective(tiny_instance, sch) == pytest.approx(want)


def test_upper_objective_rejects_understated_peak(tiny_instance):
    sch = _hand_schedule(tiny_instance)
    bad = ScheduleSet(**{**sch.__dict__, "system_peak": 5.0})
    with pytest.raises(InstanceError, match="below the net-load max"):
        upper_objective(tiny_instance, bad)


def test_soc_trajectory_frozen_example():
    # eta 0.92 both ways, 10 kWh at soc_ini 0.5: charging 1 kW for one hour
    # stores 0.92 kWh, discharging 0.8464 kW draws exactly that back out.
    from storageshare.instance import StorageParams

    st = StorageParams(total_capacity=10.0, eta_ch=0.92, eta_dis=0.92)
    traj = soc_trajectory(
        st, 10.0, ch=[1.0, 0.0], dis=[0.0, 0.8464], soc_ini=0.5, dt=1.0
    )
    np.testing.assert_allclose(traj, [5.92, 5.0])


def test_soc_trajectory_zero_capacity_is_flat():
    from storageshare.instance import StorageParams

    st = StorageParams(total_capacity=0.0)
    traj = soc_trajectory(st, 0.0, ch=[0.0, 0.0], dis=[0.0, 0.0], soc_ini=0.5, dt=1.0)
    np.testing.assert_array_equal(traj, [0.0, 0.0])


def test_net_load_additivity_property(rng):
    # net load responds linearly to each party's flows
    for _ in range(20):
        inst = rand_instance(rng)
        n, t = inst.customer_count, inst.grid.slot_count
        sch = ScheduleSet(
            customer_ch=rng.uniform(0, 2, (n, t)),
            customer_dis=rng.uniform(0, 2, (n, t)),
            disco_ch=rng.uniform(0, 2, t),
            disco_dis=rng.uniform(0, 2, t),
            customer_peak=np.full(n, 100.0),
            customer_valley=np.full(n, -100.0),
            system_peak=1e6,
        )
        want = (
            inst.loads.system_load
            + (sch.customer_ch - sch.customer_dis).sum(axis=0)
            + sch.disco_ch
            - sch.disco_dis
        )
        np.testing.assert_allclose(net_system_load(inst, sch), want, atol=1e-12)
        # cost kernels are the same sum priced differently
        dt = inst.grid.slot_hours
        assert disco_cost(inst, sch) == pytest.approx(
            float(np.dot(inst.prices.lmp, want)) * dt, rel=1e-12, abs=1e-12
        )
        assert customer_cost_total(inst, sch) == pytest.approx(
            float(np.dot(inst.prices.tou, want)) * dt, rel=1e-12, abs=1e-12
        )


def test_division_container():
    d = Division(s_disco=300.0, s_customer=np.full(100, 5.0))
    assert d.s_disco + d.s_customer.sum() == pytest.approx(800.0)

