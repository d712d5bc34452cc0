import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recbid.core import Bid, DayAheadProgram
from recbid.milp import build_instance, extract_program
from recbid.settlement import (
    CashFlowReport,
    decide_acceptance,
    realtime_dispatch,
    report_to_dict,
    settle,
)
from recbid.solver import reference_solve

from conftest import energy_set, known_prices, price_set, small_config


def program_with(bids, K=1, baseline=None, bess=None, nm=1):
    baseline = np.zeros(K) if baseline is None else np.asarray(baseline, dtype=float)
    bess = np.zeros(K) if bess is None else np.asarray(bess, dtype=float)
    sell_choice = np.zeros((K, nm))
    buy_choice = np.zeros((K, nm))
    for k, bid in enumerate(bids):
        if bid is not None:
            if bid.side == "sell":
                sell_choice[k, 0] = 1.0
            else:
                buy_choice[k, 0] = 1.0
    return DayAheadProgram(
        rec_baseline=baseline,
        bess_baseline=bess,
        bids=tuple(bids),
        sell_price_choice=sell_choice,
        buy_price_choice=buy_choice,
    )


class TestDecideAcceptance:
    def test_sell_below_clearing_accepted(self):
        program = [Bid(0, "sell", 80.0, 10.0, True)]
        assert decide_acceptance(program, [100.0], [0.0]) == [True]

    def test_sell_at_clearing_accepted(self):
        program = [Bid(0, "sell", 100.0, 10.0, True)]
        assert decide_acceptance(program, [100.0], [0.0]) == [True]

    def test_buy_below_minimum_rejected(self):
        program = [Bid(0, "buy", 10.0, 10.0, True)]
        assert decide_acceptance(program, [50.0], [20.0]) == [False]

    def test_missing_bid_not_accepted(self):
        assert decide_acceptance([None], [100.0], [0.0]) == [False]


class TestRealtimeDispatch:
    def test_pv_drop_covered_by_battery(self):
        # Planned: pv 40, load 10, md 0, baseline exchange 30 with an extra
        # sell of 10 -> target 40. Realized pv is 10 lower; the battery has
        # head-room, so it discharges the missing 10 and no error remains.
        cfg = small_config(
            K=1, battery_capacity_kwh=100.0, battery_power_kwh_per_slot=50.0,
            eta_charge=1.0, eta_discharge=1.0, soc_initial=0.5,
        )
        program = program_with([Bid(0, "sell", 0.3, 10.0, True)], baseline=[30.0])
        out = realtime_dispatch(program, [True], pv=[30.0], load=[10.0], member_demand=[0.0], config=cfg)
        assert out.discharge[0] == pytest.approx(20.0)  # 10 planned + 10 correction
        assert out.shortfall_sell[0] == pytest.approx(0.0)
        assert out.rec_exchange[0] == pytest.approx(40.0)

    def test_empty_battery_and_no_pv_leaves_full_shortfall(self):
        cfg = small_config(
            K=1, battery_capacity_kwh=100.0, battery_power_kwh_per_slot=50.0,
            soc_initial=0.0,
        )
        program = program_with([Bid(0, "sell", 0.3, 10.0, True)], baseline=[0.0])
        out = realtime_dispatch(program, [True], pv=[0.0], load=[0.0], member_demand=[0.0], config=cfg)
        assert out.discharge[0] == pytest.approx(0.0)
        assert out.shortfall_sell[0] == pytest.approx(10.0)

    def test_shortfall_never_exceeds_bid_quantity(self):
        cfg = small_config(K=1, battery_capacity_kwh=0.0, battery_power_kwh_per_slot=0.0)
        # Baseline promises an exchange the plant cannot produce at all; the
        # penalized error is still capped at the accepted quantity.
        program = program_with([Bid(0, "sell", 0.3, 5.0, True)], baseline=[100.0])
        out = realtime_dispatch(program, [True], pv=[0.0], load=[0.0], member_demand=[0.0], config=cfg)
        assert out.shortfall_sell[0] == pytest.approx(5.0)

    def test_renewable_only_blocks_night_charging(self):
        cfg = small_config(
            K=1, battery_capacity_kwh=100.0, battery_power_kwh_per_slot=50.0,
            soc_initial=0.2, renewable_only_charging=True,
        )
        program = program_with([Bid(0, "buy", 0.12, 30.0, True)], baseline=[0.0])
        out = realtime_dispatch(program, [True], pv=[0.0], load=[0.0], member_demand=[0.0], config=cfg)
        assert out.charge[0] == pytest.approx(0.0)

    def test_buy_shortfall_when_cannot_consume(self):
        cfg = small_config(K=1, battery_capacity_kwh=0.0, battery_power_kwh_per_slot=0.0,
                           renewable_only_charging=False)
        program = program_with([Bid(0, "buy", 0.12, 10.0, True)], baseline=[0.0])
        # pv surplus of 20 cannot be absorbed: exchange stays 20 above target
        out = realtime_dispatch(program, [True], pv=[20.0], load=[0.0], member_demand=[0.0], config=cfg)
        assert out.shortfall_buy[0] == pytest.approx(10.0)

    @given(st.integers(0, 5000))
    def test_realized_soc_always_within_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        K = 6
        cfg = small_config(
            K=K,
            battery_capacity_kwh=float(rng.uniform(10, 120)),
            battery_power_kwh_per_slot=float(rng.uniform(5, 60)),
            eta_charge=float(rng.uniform(0.8, 1.0)),
            eta_discharge=float(rng.uniform(0.8, 1.0)),
            soc_initial=float(rng.uniform(0, 1)),
            renewable_only_charging=bool(rng.integers(0, 2)),
        )
        bids = []
        for k in range(K):
            roll = rng.random()
            if roll < 0.4:
                bids.append(None)
            elif roll < 0.7:
                bids.append(Bid(k, "sell", 0.3, float(rng.uniform(0, 40)), True))
            else:
                bids.append(Bid(k, "buy", 0.12, float(rng.uniform(0, 40)), True))
        program = program_with(bids, K=K, baseline=rng.uniform(-30, 30, K))
        accepted = [b is not None and rng.random() < 0.7 for b in bids]
        out = realtime_dispatch(
            program,
            accepted,
            pv=rng.uniform(0, 40, K),
            load=rng.uniform(0, 15, K),
            member_demand=rng.uniform(0, 30, K),
            config=cfg,
        )
        assert np.all(out.soc >= -1e-12)
        assert np.all(out.soc <= 1 + 1e-12)
        for k in range(K):
            bid = bids[k]
            if bid is not None and accepted[k]:
                cap = bid.quantity + 1e-9
                assert out.shortfall_sell[k] <= cap and out.shortfall_buy[k] <= cap
            else:
                assert out.shortfall_sell[k] == 0.0 and out.shortfall_buy[k] == 0.0


class TestSettle:
    def test_all_zero_day(self):
        cfg = small_config(K=2, battery_capacity_kwh=0.0, battery_power_kwh_per_slot=0.0)
        program = program_with([None, None], K=2)
        out = realtime_dispatch(program, [False, False], pv=[0, 0], load=[0, 0],
                                member_demand=[0, 0], config=cfg)
        report = settle(out, program, [False, False], [0.1, 0.1], [0.25, 0.25],
                        cfg, penalty_sell=0.5, penalty_buy=0.05)
        assert report.totals()["net"] == 0.0

    def test_shared_incentive_paper_rate(self):
        # export 30, member demand 50 at the statutory 0.119 EUR/kWh
        cfg = small_config(K=1, battery_capacity_kwh=0.0, battery_power_kwh_per_slot=0.0,
                           incentive_shared=0.119, renewable_only_charging=False)
        program = program_with([None])
        out = realtime_dispatch(program, [False], pv=[40.0], load=[10.0],
                                member_demand=[50.0], config=cfg)
        report = settle(out, program, [False], [0.0], [0.0], cfg,
                        penalty_sell=0.5, penalty_buy=0.05)
        assert report.shared_incentive[0] == pytest.approx(3.57)

    def test_accepted_sell_revenue_and_penalty(self):
        # 10 kWh at 0.2 with a shortfall of 2 penalized at 0.3
        cfg = small_config(K=1, battery_capacity_kwh=0.0, battery_power_kwh_per_slot=0.0,
                           incentive_shared=0.0, renewable_only_charging=False)
        program = program_with([Bid(0, "sell", 0.2, 10.0, True)], baseline=[0.0])
        out = realtime_dispatch(program, [True], pv=[8.0], load=[0.0],
                                member_demand=[0.0], config=cfg)
        assert out.shortfall_sell[0] == pytest.approx(2.0)
        report = settle(out, program, [True], [0.0], [0.0], cfg,
                        penalty_sell=0.3, penalty_buy=0.05)
        assert report.msd_sell_revenue[0] == pytest.approx(2.0 * 1.0)
        assert report.penalty_sell[0] == pytest.approx(0.6)

    def test_report_invariant_on_random_components(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            parts = [rng.uniform(0, 10, 4) for _ in range(7)]
            report = CashFlowReport(*parts)
            expected = (
                parts[0] - parts[1] + parts[2] + parts[3] - parts[4] - parts[5] + parts[6]
            )
            assert np.allclose(report.net, expected)
            totals = report.totals()
            assert totals["net"] == pytest.approx(float(expected.sum()))

    def test_dict_outputs(self):
        report = CashFlowReport(*[np.arange(2, dtype=float) for _ in range(7)])
        d = report_to_dict(report)
        assert set(d) == {"hourly", "totals"}
        assert len(d["hourly"]["net"]) == 2


class TestPlanConsistency:
    def test_dispatch_reproduces_planned_scenario_and_matches_objective(self):
        # Single-scenario instance with zero slack range: when reality equals
        # the scenario, the greedy dispatch replays the planned flows and the
        # realized net equals the planner objective up to the documented
        # baseline-vs-realized energy-revenue term.
        K = 3
        cfg = small_config(
            K=K,
            battery_capacity_kwh=60.0,
            battery_power_kwh_per_slot=25.0,
            soc_initial=0.5,
            soc_final_min=0.2,
            soc_final_max=0.8,
            epsilon_max=0.0,
            incentive_shared=0.119,
            renewable_only_charging=True,
        )
        pv = [[30.0, 12.0, 0.0]]
        load = [[4.0, 5.0, 6.0]]
        md = [[10.0, 12.0, 18.0]]
        prices = price_set([[0.30, 0.28, 0.35]], [[0.12, 0.11, 0.13]])
        kp = known_prices([0.09, 0.09, 0.10], [0.24, 0.24, 0.26])
        energies = energy_set(pv, load, md)
        inst = build_instance(cfg, prices, energies, kp)
        sol = reference_solve(inst, binary_limit=24)
        assert sol.status == "optimal"
        program = extract_program(inst, sol)

        accepted = decide_acceptance(program.bids, prices.channel("price_sell_max")[0],
                                     prices.channel("price_buy_min")[0])
        out = realtime_dispatch(program, accepted, pv[0], load[0], md[0], cfg)
        assert float(out.shortfall_sell.sum()) == pytest.approx(0.0, abs=1e-9)
        assert float(out.shortfall_buy.sum()) == pytest.approx(0.0, abs=1e-9)
        for k in range(K):
            assert out.grid_export[k] == pytest.approx(sol.values[inst.var("exp", k, 0, 0)], abs=1e-6)
            assert out.grid_import[k] == pytest.approx(sol.values[inst.var("imp", k, 0, 0)], abs=1e-6)

        report = settle(out, program, accepted, kp[0].values, kp[1].values, cfg,
                        penalty_sell=inst.data["penalty_sell"],
                        penalty_buy=inst.data["penalty_buy"])
        # planner books energy revenue on baseline flows; adjust by the gap
        discrepancy = 0.0
        for k in range(K):
            base_exp = sol.values[inst.var("base_exp", k, 0, 0)]
            base_imp = sol.values[inst.var("base_imp", k, 0, 0)]
            discrepancy += (out.grid_export[k] - base_exp) * kp[0].values[k]
            discrepancy -= (out.grid_import[k] - base_imp) * kp[1].values[k]
        assert report.totals()["net"] == pytest.approx(
            sol.objective_value + discrepancy, abs=1e-6
        )
