import re
from array import array
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recbid.core import RecConfig, validate_program
from recbid.harness import CASES, RunSpec, day_inputs, load_week_data
from recbid.milp import (
    BINARY,
    CONTINUOUS,
    BuildError,
    MilpInstance,
    acceptance_matrices,
    build_instance,
    check_solution,
    epsilon_default,
    expected_cashflow,
    extract_program,
    planned_soc_paths,
    resolve_penalties,
    round_binaries,
)
from recbid.simplex import solve_lp
from recbid.solver import _highs_arrays, emit_exchange, highs_solve, reference_solve, solve_external

from conftest import (
    energy_set,
    known_prices,
    price_set,
    random_inputs,
    random_instance,
    small_config,
    tiny_inputs,
    with_big_m_caps,
    with_bids_pinned,
    with_exclusivity_binaries,
    with_implied_rows,
)

WEEK_DATA_DIR = Path(__file__).parents[1] / "data" / "synthetic_week"


def expected_counts(
    K, nm, nr, battery=True, charge_cells=None, base_binary_hours=0, exchange_binaries=True
):
    """Row/variable counts derived family by family, independent of the builder.

    Rows: one-bid K, pick sums 2K, pick-quantity sums 2K;
    acceptance definitions 2K*nm, award links 2K*nm, pick-quantity caps
    2K*nm; per (k,s,l): facility balance 1, service balance 1, shortfall
    caps 2, baseline balance 1, slack caps 4, battery service 1,
    shared-below-export 1 (11 total), plus 1 SOC balance row when the
    battery is real.
    Variables: 6 per hour, 8 per (k,s), 13 per (k,s,l), plus 1 SOC
    variable per (k,s,l) when the battery is real. Binaries: 2 per hour,
    2 per (k,s).
    The charge flag (with its two caps) exists in the ``charge_cells``
    (k,s,l) cells where the battery can charge, every cell if None.
    The exchange flag (with its export/import caps and the shared-energy
    cap) exists per (k,s,l) only with ``exchange_binaries`` (a nonzero
    incentive); the baseline flag (with its two caps) only in the
    ``base_binary_hours`` hours whose export tariff is above the import
    tariff.
    """
    rows = 5 * K + 6 * K * nm + 11 * K * nm * nr
    n_vars = 6 * K + 8 * K * nm + 13 * K * nm * nr
    n_bin = 2 * K + 2 * K * nm
    if battery:
        rows += K * nm * nr
        n_vars += K * nm * nr
    charge_cells = K * nm * nr if charge_cells is None else charge_cells
    rows += 2 * charge_cells
    n_vars += charge_cells
    n_bin += charge_cells
    if exchange_binaries:
        rows += 3 * K * nm * nr
        n_vars += K * nm * nr
        n_bin += K * nm * nr
    rows += 2 * base_binary_hours * nm * nr
    n_vars += base_binary_hours * nm * nr
    n_bin += base_binary_hours * nm * nr
    return rows, n_vars, n_bin


def lp_extreme(inst, sym, idx, fixes=None, maximize=True):
    """Bound one variable over the LP relaxation with optional bound fixes."""
    A, senses, b = inst.sparse_rows()
    A = A.toarray()
    lb = np.array(inst.lb)
    ub = np.array(inst.ub)
    for (fsym, fidx), (lo, hi) in (fixes or {}).items():
        vid = inst.var(fsym, *fidx)
        lb[vid] = lo
        ub[vid] = hi
    c = np.zeros(inst.n_vars)
    c[inst.var(sym, *idx)] = 1.0
    return solve_lp(c, A, senses, b, lb, ub, maximize=maximize)


class TestBuildCounts:
    def test_single_hour_hand_enumeration(self, tiny_instance):
        # Battery-free: every family counted by hand, and nothing can
        # charge. Zero incentive and export tariff below import tariff:
        # neither exclusivity flag is built.
        rows, n_vars, n_bin = expected_counts(
            1, 1, 1, battery=False, charge_cells=0, exchange_binaries=False
        )
        assert tiny_instance.n_rows == rows == 22
        assert tiny_instance.n_vars == n_vars == 27
        assert len(tiny_instance.binary_ids()) == n_bin == 4

    @pytest.mark.parametrize("K,nm,nr", [(1, 2, 1), (2, 2, 2), (3, 2, 2)])
    def test_counts_match_formula(self, K, nm, nr):
        self.assert_counts(K, nm, nr, gamma=0.119, high_export_hours=0)

    @pytest.mark.parametrize("gamma,high_export_hours", [(0.0, 0), (0.0, 1), (0.119, 2)])
    def test_counts_follow_netting_conditions(self, gamma, high_export_hours):
        self.assert_counts(3, 2, 2, gamma, high_export_hours)

    @staticmethod
    def assert_counts(K, nm, nr, gamma, high_export_hours):
        """The first ``high_export_hours`` hours export at 0.30 against an
        import tariff of 0.25; the others export at 0.08."""
        rng = np.random.default_rng(K * 100 + nm * 10 + nr)
        cfg = small_config(K=K, incentive_shared=gamma)
        prices = price_set(rng.uniform(0.2, 0.4, (nm, K)), rng.uniform(0.1, 0.15, (nm, K)))
        energies = energy_set(
            rng.uniform(0, 30, (nr, K)), rng.uniform(1, 5, (nr, K)), rng.uniform(2, 20, (nr, K))
        )
        ce = [0.30] * high_export_hours + [0.08] * (K - high_export_hours)
        inst = build_instance(cfg, prices, energies, known_prices(ce, [0.25] * K))
        rows, n_vars, n_bin = expected_counts(
            K, nm, nr, battery=True, base_binary_hours=high_export_hours,
            exchange_binaries=gamma > 0,
        )
        assert inst.n_rows == rows
        assert inst.n_vars == n_vars
        assert len(inst.binary_ids()) == n_bin

    # Bundled day 0 at 10x10, scenario seed 0: variables, rows, nonzeros and
    # binaries. A change that grows the model fails here.
    PAPER_SCALE_SIZES = {
        "base": (39164, 39760, 137404, 4028),
        "no_incentive": (36764, 32560, 123004, 1628),
        "no_msd": (4046, 4084, 13438, 446),
        "neither": (3806, 3364, 11998, 206),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_bundled_paper_scale_sizes(self, case):
        spec = RunSpec(config=RecConfig(), case=case, n_m=10, n_r=10, seed=0)
        config, allow_bids, prices, energies, known = day_inputs(
            spec, load_week_data(WEEK_DATA_DIR), 0
        )
        inst = build_instance(config, prices, energies, known, allow_bids=allow_bids)
        sizes = (inst.n_vars, inst.n_rows, len(inst.row_cols), len(inst.binary_ids()))
        assert sizes == self.PAPER_SCALE_SIZES[case]

    def test_paper_scale_variable_replication(self):
        # Every (k,s,l)-indexed symbol exists in 24*10*10 copies.
        K, nm, nr = 24, 10, 10
        rng = np.random.default_rng(0)
        cfg = small_config(K=K)
        prices = price_set(rng.uniform(0.2, 0.4, (nm, K)), rng.uniform(0.1, 0.15, (nm, K)))
        energies = energy_set(
            rng.uniform(0, 30, (nr, K)), rng.uniform(1, 5, (nr, K)), rng.uniform(2, 20, (nr, K))
        )
        inst = build_instance(cfg, prices, energies, known_prices([0.08] * K, [0.25] * K))
        for sym in ("exp", "imp", "shared", "chg", "dis", "short_sell", "short_buy"):
            assert inst.index[sym].shape == (K, nm, nr) and (inst.index[sym] >= 0).all()
        assert inst.index["award_sell"].shape == (K, nm) and (inst.index["award_sell"] >= 0).all()
        assert inst.index["pick_sell"].shape == (K, nm) and (inst.index["pick_sell"] >= 0).all()

    def test_two_builds_emit_identical_text(self):
        a = emit_exchange(random_instance_for_text(3))
        b = emit_exchange(random_instance_for_text(3))
        assert a == b


def random_instance_for_text(seed):
    cfg, prices, energies, kp = random_inputs(seed)
    return build_instance(cfg, prices, energies, kp)


class TestBuildValidation:
    def test_negative_pv_refused_under_renewable_only_charging(self):
        # A negative PV would make the charge bound min(pb, PV) negative.
        cfg, prices, _energies, kp = tiny_inputs()
        energies = energy_set([[-1.0]], [[10.0]], [[20.0]])
        with pytest.raises(BuildError, match="^pv scenarios contain negative values"):
            build_instance(replace(cfg, renewable_only_charging=True), prices, energies, kp)
        # Under grid charging, and in the load, a negative value bounds
        # nothing and is built as given.
        build_instance(replace(cfg, renewable_only_charging=False), prices, energies, kp)
        build_instance(cfg, prices, energy_set([[1.0]], [[-10.0]], [[20.0]]), kp)

    def test_negative_member_demand_refused(self):
        # The community exchange exp - imp - md stays within [-(pi + max md),
        # pe] only for md >= 0, which the model relies on.
        cfg, prices, _energies, kp = tiny_inputs()
        energies = energy_set([[1.0]], [[10.0]], [[-20.0]])
        with pytest.raises(BuildError, match="^member_demand scenarios contain negative values$"):
            build_instance(cfg, prices, energies, kp)

    def test_invalid_config_refused_with_violations(self):
        cfg = small_config(eta_charge=0.0)
        prices = price_set([[0.3]], [[0.1]])
        energies = energy_set([[10.0]], [[2.0]], [[5.0]])
        with pytest.raises(BuildError, match="eta_charge"):
            build_instance(
                small_config(K=1, eta_charge=0.0), prices, energies, known_prices([0.1], [0.2])
            )
        del cfg

    def test_penalty_ordering_enforced(self):
        prices = price_set([[0.30]], [[0.10]])
        cfg = small_config(K=1, penalty_sell=0.25)  # below the 0.30 clearing price
        energies = energy_set([[10.0]], [[2.0]], [[5.0]])
        with pytest.raises(BuildError, match="penalty_sell"):
            build_instance(cfg, prices, energies, known_prices([0.1], [0.2]))

    def test_default_penalties_satisfy_ordering(self):
        prices = price_set([[0.30, 0.20]], [[0.10, 0.08]])
        p_plus, p_minus = resolve_penalties(small_config(K=2), prices)
        assert p_plus > 0.30
        assert p_minus < 0.08

    def test_horizon_mismatch_refused(self):
        prices = price_set([[0.3, 0.3]], [[0.1, 0.1]])
        energies = energy_set([[10.0]], [[2.0]], [[5.0]])
        with pytest.raises(BuildError, match="horizon"):
            build_instance(small_config(K=1), prices, energies, known_prices([0.1], [0.2]))


def test_epsilon_default_is_max_net_spread():
    energies = energy_set(
        pv=[[10.0, 0.0], [4.0, 0.0]],
        load=[[1.0, 1.0], [1.0, 5.0]],
        md=[[2.0, 2.0], [2.0, 2.0]],
    )
    # net balances: scenario 0: (7, -3); scenario 1: (1, -8); spreads (6, 5)
    assert epsilon_default(energies) == 6.0


class TestAcceptanceMatrices:
    def test_hand_case_two_scenarios(self):
        prices = price_set([[50.0], [100.0]], [[10.0], [5.0]])
        a_sell, a_buy = acceptance_matrices(prices)
        # Sell: candidate j clears in s when its price <= scenario s's max.
        assert a_sell[0].tolist() == [[1.0, 0.0], [1.0, 1.0]]
        # Buy: candidate clears when its price >= scenario s's min.
        assert a_buy[0].tolist() == [[1.0, 0.0], [1.0, 1.0]]

    def test_choosing_the_high_candidate(self):
        # With candidates (50, 100): picking j=1 is accepted only in s=1.
        prices = price_set([[50.0], [100.0]], [[10.0], [5.0]])
        a_sell, _ = acceptance_matrices(prices)
        delta = a_sell[0, :, 1]
        assert delta.tolist() == [0.0, 1.0]

    def test_boundary_equality_accepts(self):
        prices = price_set([[0.2], [0.2]], [[0.1], [0.1]])
        a_sell, a_buy = acceptance_matrices(prices)
        assert a_sell[0].min() == 1.0
        assert a_buy[0].min() == 1.0


def exchange_minus_baseline(inst):
    """Objective exp - imp - base_rec of hour 0's first scenario cell: the
    community exchange less its baseline, plus the member demand."""
    c = np.zeros(inst.n_vars)
    c[inst.var("exp", 0, 0, 0)] = 1.0
    c[inst.var("imp", 0, 0, 0)] = -1.0
    c[inst.var("base_rec", 0)] = -1.0
    return c


class TestForcingRows:
    def test_no_bid_forces_zero_quantity_and_picks(self, tiny_instance):
        fixes = {("sell_on", (0,)): (0.0, 0.0)}
        assert lp_extreme(tiny_instance, "sell_qty", (0,), fixes).objective <= 1e-9
        assert lp_extreme(tiny_instance, "pick_sell", (0, 0), fixes).objective <= 1e-9

    def test_both_bids_in_one_hour_infeasible(self, tiny_instance):
        fixes = {("sell_on", (0,)): (1.0, 1.0), ("buy_on", (0,)): (1.0, 1.0)}
        res = lp_extreme(tiny_instance, "sell_qty", (0,), fixes)
        assert res.status == "infeasible"

    def test_exporting_flag_forces_zero_import(self):
        # The flag exists only with a shared-energy incentive.
        cfg, prices, energies, kp = tiny_inputs()
        inst = build_instance(replace(cfg, incentive_shared=0.119), prices, energies, kp)
        fixes = {("exp_on", (0, 0, 0)): (1.0, 1.0)}
        assert lp_extreme(inst, "imp", (0, 0, 0), fixes).objective <= 1e-9

    def test_no_service_and_no_shift_pins_exchange_to_baseline(self, tiny_instance):
        fixes = {
            ("sell_on", (0,)): (0.0, 0.0),
            ("buy_on", (0,)): (0.0, 0.0),
            ("shift_up", (0, 0, 0)): (0.0, 0.0),
            ("shift_dn", (0, 0, 0)): (0.0, 0.0),
        }
        A, senses, b = tiny_instance.sparse_rows()
        A = A.toarray()
        lb = np.array(tiny_instance.lb)
        ub = np.array(tiny_instance.ub)
        for (sym, idx), (lo, hi) in fixes.items():
            vid = tiny_instance.var(sym, *idx)
            lb[vid], ub[vid] = lo, hi
        c = exchange_minus_baseline(tiny_instance)
        hi = solve_lp(c, A, senses, b, lb, ub, maximize=True)
        lo = solve_lp(c, A, senses, b, lb, ub, maximize=False)
        # The exchange is exp - imp - md, with md = 20.
        assert abs(hi.objective - 20.0) <= 1e-9 and abs(lo.objective - 20.0) <= 1e-9

    def test_awarded_sell_shifts_exchange_by_quantity(self):
        # Sell accepted with 10 kWh and no shortfall: the exchange sits
        # exactly 10 above the baseline.
        cfg = small_config(
            K=1,
            battery_capacity_kwh=0.0,
            battery_power_kwh_per_slot=0.0,
            epsilon_max=0.0,
            renewable_only_charging=False,
            incentive_shared=0.0,
        )
        inst = build_instance(
            cfg,
            price_set([[0.30]], [[0.10]]),
            energy_set([[40.0]], [[10.0]], [[20.0]]),
            known_prices([0.10], [0.25]),
        )
        fixes = {
            ("sell_on", (0,)): (1.0, 1.0),
            ("pick_sell", (0, 0)): (1.0, 1.0),
            ("sell_qty", (0,)): (10.0, 10.0),
            ("short_sell", (0, 0, 0)): (0.0, 0.0),
        }
        A, senses, b = inst.sparse_rows()
        A = A.toarray()
        lb = np.array(inst.lb)
        ub = np.array(inst.ub)
        for (sym, idx), (lo_v, hi_v) in fixes.items():
            vid = inst.var(sym, *idx)
            lb[vid], ub[vid] = lo_v, hi_v
        c = exchange_minus_baseline(inst)
        hi = solve_lp(c, A, senses, b, lb, ub, maximize=True)
        lo = solve_lp(c, A, senses, b, lb, ub, maximize=False)
        # The exchange is exp - imp - md, with md = 20.
        assert abs(hi.objective - 10.0 - 20.0) <= 1e-9
        assert abs(lo.objective - 10.0 - 20.0) <= 1e-9


class TestStorage:
    def test_single_slot_soc_boundary(self):
        # With charging capped by the pv of 50/0.95 kWh, the terminal state
        # 0.5 + 0.95*(50/0.95)/250 = 0.7 is attainable and 0.701 is not.
        pv = 50.0 / 0.95
        def make(s_min, s_max):
            cfg = small_config(
                K=1,
                battery_capacity_kwh=250.0,
                battery_power_kwh_per_slot=120.0,
                soc_initial=0.5,
                soc_final_min=s_min,
                soc_final_max=s_max,
                renewable_only_charging=True,
                epsilon_max=0.0,
            )
            return build_instance(
                cfg,
                price_set([[0.30]], [[0.10]]),
                energy_set([[pv]], [[0.0]], [[0.0]]),
                known_prices([0.10], [0.25]),
                allow_bids=False,
            )

        ok = reference_solve(make(0.7, 0.7), binary_limit=24)
        assert ok.status == "optimal"
        bad = reference_solve(make(0.701, 1.0), binary_limit=24)
        assert bad.status == "infeasible"

    def test_zero_pv_with_renewable_flag_blocks_charging(self):
        cfg = small_config(K=2, renewable_only_charging=True, epsilon_max=0.0)
        inst = build_instance(
            cfg,
            price_set([[0.3, 0.3]], [[0.12, 0.12]]),
            energy_set([[0.0, 0.0]], [[3.0, 3.0]], [[5.0, 5.0]]),
            known_prices([0.1, 0.1], [0.25, 0.25]),
        )
        for k in range(2):
            res = lp_extreme(inst, "chg", (k, 0, 0))
            assert res.objective <= 1e-9

    def test_zero_capacity_battery_pins_charge_and_discharge(self, tiny_instance):
        vid_c = tiny_instance.var("chg", 0, 0, 0)
        vid_d = tiny_instance.var("dis", 0, 0, 0)
        assert tiny_instance.ub[vid_c] == 0.0
        assert tiny_instance.ub[vid_d] == 0.0
        assert not any(name.startswith("soc_") for name, *_ in tiny_instance.rows)
        assert "soc" not in tiny_instance.index

    def test_soc_recursion_rows_are_local_and_windows_are_bounds(self):
        K, nm, nr = 24, 2, 2
        rng = np.random.default_rng(24)
        cfg = small_config(K=K, soc_initial=0.4, soc_final_min=0.3, soc_final_max=0.7)
        prices = price_set(rng.uniform(0.2, 0.4, (nm, K)), rng.uniform(0.1, 0.15, (nm, K)))
        energies = energy_set(
            rng.uniform(0, 30, (nr, K)), rng.uniform(1, 5, (nr, K)), rng.uniform(2, 20, (nr, K))
        )
        inst = build_instance(cfg, prices, energies, known_prices([0.08] * K, [0.25] * K))
        eb = cfg.battery_capacity_kwh
        soc_ids = set(inst.index["soc"].ravel().tolist())
        storage_rows = [row for row in inst.rows if soc_ids & {vid for vid, _ in row[1]}]
        assert len(storage_rows) == K * nm * nr
        assert all(len(terms) <= 4 and sense == "=" for _, terms, sense, _ in storage_rows)
        for s in range(nm):
            for l in range(nr):
                last = inst.var("soc", K - 1, s, l)
                assert (inst.lb[last], inst.ub[last]) == (0.3 * eb, 0.7 * eb)
                mid = inst.var("soc", K // 2, s, l)
                assert (inst.lb[mid], inst.ub[mid]) == (0.0, eb)
                first = inst.rows[inst.row_names.index(f"soc_balance_k0_s{s}_l{l}")]
                assert len(first[1]) == 3 and first[3] == 0.4 * eb


class TestObjectiveAndExtraction:
    def test_hand_computed_optimum_battery_free(self, tiny_instance):
        # Posture analysis for res 40, load 10, md 20, clearing 0.30/0.10,
        # export tariff 0.10, import 0.25, limits 50:
        #   no bid:  export 30 at 0.10                    -> 3.0
        #   buy:     refund margin is negative            -> 3.0
        #   sell 50: (import 20 at 0.25) + 50 at 0.30     -> 10.0
        sol = reference_solve(tiny_instance, binary_limit=24)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - 10.0) <= 1e-9
        assert check_solution(tiny_instance, sol.values) == []

    def test_shared_energy_contribution(self):
        # Forced flows: pv 40, load 10, md 50 and no bids leave an export of
        # 30; at 0.119 EUR/kWh the incentive term is 3.57 EUR.
        cfg = small_config(
            K=1,
            battery_capacity_kwh=0.0,
            battery_power_kwh_per_slot=0.0,
            incentive_shared=0.119,
            epsilon_max=0.0,
            renewable_only_charging=False,
        )
        inst = build_instance(
            cfg,
            price_set([[0.30]], [[0.12]]),
            energy_set([[40.0]], [[10.0]], [[50.0]]),
            known_prices([0.10], [0.25]),
            allow_bids=False,
        )
        sol = reference_solve(inst, binary_limit=24)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - (30.0 * 0.10 + 30.0 * 0.119)) <= 1e-9

    def test_gamma_zero_reporting_recomputes_shared_minimum(self):
        cfg = small_config(
            K=1,
            battery_capacity_kwh=0.0,
            battery_power_kwh_per_slot=0.0,
            incentive_shared=0.0,
            epsilon_max=0.0,
            renewable_only_charging=False,
        )
        inst = build_instance(
            cfg,
            price_set([[0.30]], [[0.12]]),
            energy_set([[40.0]], [[10.0]], [[50.0]]),
            known_prices([0.10], [0.25]),
            allow_bids=False,
        )
        sol = reference_solve(inst, binary_limit=24)
        assert sol.status == "optimal"
        exp_val = sol.values[inst.var("exp", 0, 0, 0)]
        shared_var = sol.values[inst.var("shared", 0, 0, 0)]
        assert shared_var <= min(exp_val, 50.0) + 1e-9
        cash = expected_cashflow(inst, sol.values)
        # the report derives shared energy from the flows, not the variable
        assert cash["shared_incentive"] == 0.0
        assert abs(min(exp_val, 50.0) - 30.0) <= 1e-9

    def test_price_scaling_scales_objective(self):
        lam = 3.0
        base_cfg = small_config(
            K=1,
            battery_capacity_kwh=0.0,
            battery_power_kwh_per_slot=0.0,
            epsilon_max=0.0,
            renewable_only_charging=False,
            incentive_shared=0.05,
            penalty_sell=0.5,
            penalty_buy=0.01,
        )
        scaled_cfg = small_config(
            K=1,
            battery_capacity_kwh=0.0,
            battery_power_kwh_per_slot=0.0,
            epsilon_max=0.0,
            renewable_only_charging=False,
            incentive_shared=0.05 * lam,
            penalty_sell=0.5 * lam,
            penalty_buy=0.01 * lam,
        )
        energies = energy_set([[40.0]], [[10.0]], [[20.0]])
        a = build_instance(
            base_cfg,
            price_set([[0.30]], [[0.10]]),
            energies,
            known_prices([0.10], [0.25]),
        )
        b = build_instance(
            scaled_cfg,
            price_set([[0.30 * lam]], [[0.10 * lam]]),
            energies,
            known_prices([0.10 * lam], [0.25 * lam]),
        )
        sa = reference_solve(a, binary_limit=24)
        sb = reference_solve(b, binary_limit=24)
        assert abs(sb.objective_value - lam * sa.objective_value) <= 1e-8
        pa = extract_program(a, sa)
        pb = extract_program(b, sb)
        assert [bid is None for bid in pa.bids] == [bid is None for bid in pb.bids]

    def test_extracted_program_validates_against_prices(self, tiny_instance):
        sol = reference_solve(tiny_instance, binary_limit=24)
        program = extract_program(tiny_instance, sol)
        prices = price_set([[0.30]], [[0.10]])
        cfg = tiny_instance.data["config"]
        assert validate_program(program, prices, cfg) == []
        bid = program.bids[0]
        assert bid is not None and bid.side == "sell"
        assert abs(bid.quantity - 50.0) <= 1e-9
        assert abs(bid.price - 0.30) <= 1e-12

    def test_bids_off_never_beats_unrestricted(self):
        for seed in range(4):
            cfg, prices, energies, kp = random_inputs(seed, K=2, nm=2, nr=1)
            free = build_instance(cfg, prices, energies, kp)
            locked = build_instance(cfg, prices, energies, kp, allow_bids=False)
            s_free = reference_solve(free, binary_limit=40)
            s_locked = reference_solve(locked, binary_limit=40)
            assert s_free.status == "optimal" and s_locked.status == "optimal"
            assert s_free.objective_value >= s_locked.objective_value - 1e-9


class TestExclusivityNetting:
    """The model built without the exclusivity flags its netting proofs
    drop (milp.encode_energy_balance) keeps the optimum of the model with
    every flag, rebuilt by with_exclusivity_binaries."""

    @staticmethod
    def assert_same_optimum(inputs, allow_bids=True):
        reduced = build_instance(*inputs, allow_bids=allow_bids)
        full = with_exclusivity_binaries(build_instance(*inputs, allow_bids=allow_bids))
        assert len(full.binary_ids()) > len(reduced.binary_ids())
        a = solve_external(reduced, None, rel_gap=1e-9)
        b = solve_external(full, None, rel_gap=1e-9)
        assert a.status == b.status == "optimal"
        scale = max(1.0, abs(b.objective_value))
        assert abs(a.objective_value - b.objective_value) <= 1e-6 * scale
        assert check_solution(reduced, a.values) == []

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("day", [0, 1])
    def test_bundled_days_keep_their_optimum(self, day, case):
        spec = RunSpec(config=RecConfig(), case=case, n_m=2, n_r=1, seed=0)
        config, allow_bids, prices, energies, known = day_inputs(
            spec, load_week_data(WEEK_DATA_DIR), day
        )
        self.assert_same_optimum((config, prices, energies, known), allow_bids)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_family_keeps_its_optimum(self, seed):
        self.assert_same_optimum(random_inputs(seed))

    def test_export_above_import_keeps_the_baseline_flag(self):
        # Only hour 0 exports at a tariff above the import tariff.
        cfg, prices, energies, _ = random_inputs(3, K=2)
        inputs = (cfg, prices, energies, known_prices([0.30, 0.08], [0.25, 0.25]))
        inst = build_instance(*inputs)
        assert inst.data["base_netting"].tolist() == [False, True]
        assert set(np.argwhere(inst.index["base_exp_on"] >= 0)[:, 0].tolist()) == {0}
        assert "base_export_cap_k0_s1_l1" in inst.row_names
        assert "base_import_cap_k1_s0_l0" not in inst.row_names
        self.assert_same_optimum(inputs)
        # Battery-free and without bids, the hour must export 30. Exporting
        # at 0.30 and importing at 0.25, a baseline of 50 out and 20 in
        # would book 10.0 instead of 9.0; the kept flag forbids it.
        cfg, prices, energies, _ = tiny_inputs()
        kp = known_prices([0.30], [0.25])
        sol = reference_solve(build_instance(cfg, prices, energies, kp, allow_bids=False))
        assert sol.objective_value == pytest.approx(9.0, abs=1e-9)

    def test_incentive_keeps_the_exchange_flag(self):
        cfg, prices, energies, kp = tiny_inputs()
        for gamma, kept in ((0.119, True), (0.0, False)):
            inst = build_instance(replace(cfg, incentive_shared=gamma), prices, energies, kp)
            assert inst.data["exchange_netting"] is not kept
            assert bool((inst.index["exp_on"] >= 0).any()) is kept
            assert ("shared_cap_k0_s0_l0" in inst.row_names) is kept
            # Without the flag, the member demand of 20 caps shared energy.
            assert inst.ub[inst.var("shared", 0, 0, 0)] == (50.0 if kept else 20.0)


class KeepsTheOptimum:
    """Checks that the built model keeps the optimum of an older model,
    which ``reference`` rebuilds from a built instance in place, and that
    its LP relaxation is never looser."""

    reference = None

    @staticmethod
    def optimum(inst, backend):
        if backend == "reference":
            sol = reference_solve(inst, binary_limit=60)
        else:
            sol = solve_external(inst, None, rel_gap=1e-9)
        assert sol.status == "optimal", backend
        assert check_solution(inst, sol.values) == [], backend
        return sol.objective_value

    @staticmethod
    def lp_bound(inst):
        c, A, row_lo, row_hi, lb, ub, integrality = _highs_arrays(inst)
        res = highs_solve(c, A, row_lo, row_hi, lb, ub, 0 * integrality, 60.0, 1e-9)
        assert res.status == 0, res.message
        return -res.fun

    def assert_same_optimum(self, inputs, allow_bids=True, backends=("highs",)):
        new = build_instance(*inputs, allow_bids=allow_bids)
        old = self.reference(build_instance(*inputs, allow_bids=allow_bids))
        assert old.n_rows >= new.n_rows
        got = [self.optimum(inst, backend) for backend in backends for inst in (new, old)]
        scale = max(1.0, abs(got[0]))
        assert max(got) - min(got) <= 1e-6 * scale, got
        # Only the relaxation shrinks.
        assert self.lp_bound(new) <= self.lp_bound(old) + 1e-6 * scale

    # The oracle cannot search a 24-hour day; HiGHS alone solves these.
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("day", [0, 1])
    def test_bundled_days_keep_their_optimum(self, day, case):
        spec = RunSpec(config=RecConfig(), case=case, n_m=2, n_r=1, seed=0)
        config, allow_bids, prices, energies, known = day_inputs(
            spec, load_week_data(WEEK_DATA_DIR), day
        )
        self.assert_same_optimum((config, prices, energies, known), allow_bids)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_family_keeps_its_optimum(self, seed):
        self.assert_same_optimum(random_inputs(seed), backends=("highs", "reference"))


class TestStrengthenedCaps(KeepsTheOptimum):
    """The exchange caps taken from the energy balance, and the charge
    binaries left out where nothing can charge (proofs in
    milp.encode_energy_balance and milp.encode_storage), keep the optimum
    of the model with big-M caps and a charge binary in every cell, rebuilt
    by with_big_m_caps."""

    reference = staticmethod(with_big_m_caps)


class TestImpliedRows(KeepsTheOptimum):
    """The rows and variables left out because the built rows imply them
    (the bid quantity caps, the product rows of the per-pick quantities
    and the awards, the activity flags and the exchange variable ``rec``;
    proofs in the milp encoders) keep the optimum of the model with them,
    rebuilt by with_implied_rows."""

    reference = staticmethod(with_implied_rows)

    def test_reference_puts_back_what_was_left_out(self):
        inputs = random_inputs(0)
        new = build_instance(*inputs)
        old = with_implied_rows(build_instance(*inputs))
        K, n_m, n_r = 3, 2, 2
        assert old.n_vars - new.n_vars == 2 * K * n_m + K * n_m * n_r
        assert old.n_rows - new.n_rows == 2 * K + 16 * K * n_m + K * n_m * n_r
        assert old.binary_ids() == new.binary_ids()


class TestPriceCollapse:
    """A model without bids keeps one price scenario (proof in
    milp.build_instance); its optimum equals that of the model over every
    price scenario with the bids pinned to 0, rebuilt by with_bids_pinned."""

    @staticmethod
    def assert_same_optimum(inputs, backends=("external",)):
        config, prices, energies, _known = inputs
        collapsed = build_instance(*inputs, allow_bids=False)
        full = with_bids_pinned(build_instance(*inputs))
        K, n_m, n_r = config.horizon_hours, prices.n, energies.n

        d = collapsed.data
        assert (d["price_collapse"], d["n_m"], d["n_m_full"]) == (True, 1, n_m)
        assert (d["penalty_sell"], d["penalty_buy"]) == resolve_penalties(config, prices)
        assert (d["penalty_sell"], d["penalty_buy"]) == (
            full.data["penalty_sell"],
            full.data["penalty_buy"],
        )
        # The one price block is block 0 of the full model: every variable
        # indexed by another price scenario or price pick is gone.
        other_price = re.compile(r"_[sj][1-9]")
        assert collapsed.names == [n for n in full.names if not other_price.search(n)]
        binaries = [full.names[i] for i in full.binary_ids()]
        assert [collapsed.names[i] for i in collapsed.binary_ids()] == [
            n for n in binaries if not other_price.search(n)
        ]

        ref = solve_external(full, None, rel_gap=1e-9)
        assert ref.status == "optimal"
        scale = max(1.0, abs(ref.objective_value))
        for backend in backends:
            if backend == "external":
                sol = solve_external(collapsed, None, rel_gap=1e-9)
            else:
                sol = reference_solve(collapsed, binary_limit=60)
            assert sol.status == "optimal", backend
            assert abs(sol.objective_value - ref.objective_value) <= 1e-6 * scale, backend
            assert check_solution(collapsed, sol.values) == []

            program = extract_program(collapsed, sol)
            assert program.bids == (None,) * K
            assert program.sell_price_choice.shape == program.buy_price_choice.shape
            assert program.sell_price_choice.shape == (K, n_m)
            assert not program.sell_price_choice.any() and not program.buy_price_choice.any()
            paths = planned_soc_paths(collapsed, sol.values)
            assert paths.shape == (n_m, n_r, K + 1)
            assert (paths == paths[:1]).all()
            cash = expected_cashflow(collapsed, sol.values)
            assert cash["net"] == pytest.approx(sol.objective_value, abs=1e-6 * scale)

    @pytest.mark.parametrize("n_m,n_r", [(2, 1), (3, 3)])
    @pytest.mark.parametrize("case", ["no_msd", "neither"])
    @pytest.mark.parametrize("day", [0, 1])
    def test_bundled_days_keep_their_optimum(self, day, case, n_m, n_r):
        spec = RunSpec(config=RecConfig(), case=case, n_m=n_m, n_r=n_r, seed=0)
        config, allow_bids, prices, energies, known = day_inputs(
            spec, load_week_data(WEEK_DATA_DIR), day
        )
        assert not allow_bids
        self.assert_same_optimum((config, prices, energies, known))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_family_keeps_its_optimum(self, seed):
        self.assert_same_optimum(random_inputs(seed), backends=("external", "reference"))

    def test_bids_allowed_keep_every_price_scenario(self):
        inst = build_instance(*random_inputs(0))
        d = inst.data
        assert (d["price_collapse"], d["n_m"], d["n_m_full"]) == (False, 2, 2)

    def test_penalties_come_from_every_price_scenario(self):
        # Scenario 1 holds both extremes; the collapsed model keeps the
        # penalties they give.
        cfg, _prices, energies, kp = tiny_inputs()
        prices = price_set([[0.30], [0.50]], [[0.10], [0.05]])
        inst = build_instance(cfg, prices, energies, kp, allow_bids=False)
        assert inst.data["sell_max"].tolist() == [[0.30]]
        assert inst.data["penalty_sell"] == pytest.approx(1.1 * 0.50)
        assert inst.data["penalty_buy"] == pytest.approx(0.9 * 0.05)


class TestSparseRows:
    def test_matches_explicit_dense_fill(self):
        inst = random_instance(1)
        dense = np.zeros((inst.n_rows, inst.n_vars))
        for i, (_name, terms, _sense, _rhs) in enumerate(inst.rows):
            for vid, coef in terms:
                dense[i, vid] = coef
        A, senses, b = inst.sparse_rows()
        assert np.array_equal(A.toarray(), dense)
        assert senses == [row[2] for row in inst.rows]
        assert np.array_equal(b, [row[3] for row in inst.rows])
        x = np.random.default_rng(1).random(inst.n_vars)
        loop = [sum(coef * x[vid] for vid, coef in terms) for _n, terms, _s, _r in inst.rows]
        assert (A @ x).tolist() == loop  # same products, same order: bit for bit


def old_row_terms(terms) -> tuple:
    """A row's ``(vid, coef)`` terms as the per-row builder stored them:
    zero inputs dropped, duplicates summed in input order, sorted by id."""
    coeffs = {}
    for vid, coef in terms:
        if coef != 0.0:
            coeffs[vid] = coeffs.get(vid, 0.0) + coef
    return tuple(sorted(coeffs.items()))


ROW_BUFFERS = ("row_names", "row_senses", "row_rhs", "row_ptr", "row_cols", "row_vals")


def six_vars() -> MilpInstance:
    inst = MilpInstance()
    for i in range(6):
        inst.add_var(f"x_{i}", CONTINUOUS, 0.0, 1.0)
    return inst


def buffers(inst: MilpInstance) -> tuple:
    """The six row buffers, floats and ints as bytes."""
    return tuple(
        buf.tobytes() if hasattr(buf, "tobytes") else list(buf)
        for buf in (getattr(inst, name) for name in ROW_BUFFERS)
    )


class TestAddRows:
    COEFS = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -3.25, 1e16, 1e20, np.float64(-0.0)]),
        st.floats(-1e6, 1e6, allow_nan=False, width=64),
        st.floats(-1e6, 1e6, allow_nan=False, width=64).map(np.float64),
        st.integers(-3, 3),
    )
    ROWS = st.lists(
        st.tuples(
            st.lists(st.tuples(st.integers(0, 5), COEFS), max_size=8),
            st.sampled_from(["<=", ">=", "="]),
            st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.just(-0.0)),
        ),
        max_size=12,
    )

    @given(rows=ROWS)
    def test_block_stores_what_rows_one_by_one_store(self, rows):
        names = [f"r{i}" for i in range(len(rows))]
        ptr = np.cumsum([0] + [len(terms) for terms, _sense, _rhs in rows])
        cols = [vid for terms, _sense, _rhs in rows for vid, _coef in terms]
        vals = [coef for terms, _sense, _rhs in rows for _vid, coef in terms]
        block = six_vars()
        block.add_rows(names, ptr, cols, vals, [r[1] for r in rows], [r[2] for r in rows])
        one_by_one = six_vars()
        for name, (terms, sense, rhs) in zip(names, rows):
            one_by_one.add_row(name, terms, sense, rhs)
        assert buffers(block) == buffers(one_by_one)
        want = [(name, old_row_terms(row[0]), row[1], row[2]) for name, row in zip(names, rows)]
        assert list(block.rows) == want
        got_vals = array("d", [coef for _n, terms, _s, _r in block.rows for _v, coef in terms])
        want_vals = array("d", [coef for _n, terms, _s, _r in want for _v, coef in terms])
        assert got_vals.tobytes() == want_vals.tobytes()
        assert block.row_rhs.tobytes() == array("d", [r[2] for r in rows]).tobytes()

    def test_duplicates_sum_in_input_order(self):
        inst = six_vars()
        inst.add_rows(["r"], [0, 4], [2, 2, 0, 2], [1e16, 1.0, -0.0, 1.0], ["<="], [0.0])
        # (1e16 + 1.0) + 1.0 is 1e16: a pairwise or reordered sum would differ.
        assert inst.rows[0] == ("r", ((2, 1e16),), "<=", 0.0)

    def test_empty_rows_and_empty_block(self):
        inst = six_vars()
        inst.add_rows([], [0], [], [], [], [])
        inst.add_rows(["a", "b"], [0, 0, 1], [3], [0.0], ["=", ">="], [1.0, 2.0])
        assert list(inst.rows) == [("a", (), "=", 1.0), ("b", (), ">=", 2.0)]
        assert list(inst.row_ptr) == [0, 0, 0]

    @pytest.mark.parametrize("sense", ["<", "=<", "==", ""])
    def test_unknown_sense_anywhere_refuses_the_block(self, sense):
        inst = six_vars()
        inst.add_row("kept", [(0, 1.0)], "<=", 1.0)
        before = buffers(inst)
        with pytest.raises(ValueError, match=f"^row 'r1' has sense {sense!r}, not <=, >= or =$"):
            inst.add_rows(
                ["r0", "r1", "r2"], [0, 1, 2, 3], [0, 1, 2], [1.0, 1.0, 1.0],
                ["<=", sense, "="], [0.0, 0.0, 0.0],
            )
        assert buffers(inst) == before

    @pytest.mark.parametrize("vid", [-1, 6])
    def test_column_id_outside_the_variables_refuses_the_block(self, vid):
        # -1 is add_vars's id of an absent variable; 6 is one past the last.
        inst = six_vars()
        inst.add_row("kept", [(0, 1.0)], "<=", 1.0)
        before = buffers(inst)
        with pytest.raises(ValueError, match=f"^row 'r1' has column id {vid}, not in \\[0, 6\\)$"):
            inst.add_rows(
                ["r0", "r1", "r2"], [0, 1, 3, 4], [0, 2, vid, 5], [1.0, 1.0, 0.0, 1.0],
                ["<=", ">=", "="], [0.0, 0.0, 0.0],
            )
        assert buffers(inst) == before

    def test_mismatched_lengths_refused(self):
        inst = six_vars()
        with pytest.raises(ValueError, match="2 row names, 1 senses"):
            inst.add_rows(["a", "b"], [0, 1, 2], [0, 1], [1.0, 1.0], ["<="], [0.0, 0.0])
        assert inst.n_rows == 0


class TestBlockBuild:
    def test_paper_scale_day_is_built_in_a_few_block_calls(self, monkeypatch):
        # Guards against building rows or variables one call at a time.
        spec = RunSpec(config=RecConfig(), case="base", n_m=10, n_r=10, seed=0)
        config, allow_bids, prices, energies, known = day_inputs(
            spec, load_week_data(WEEK_DATA_DIR), 0
        )
        calls = dict.fromkeys(("add_var", "add_vars", "add_row", "add_rows"), 0)
        for method in calls:
            real = getattr(MilpInstance, method)

            def counting(self, *args, _real=real, _method=method):
                calls[_method] += 1
                return _real(self, *args)

            monkeypatch.setattr(MilpInstance, method, counting)
        inst = build_instance(config, prices, energies, known, allow_bids=allow_bids)
        assert (inst.n_vars, inst.n_rows) == (39164, 39760)
        assert calls["add_var"] == calls["add_row"] == 0
        assert calls["add_vars"] <= 5 and calls["add_rows"] <= 1


class TestRowView:
    @staticmethod
    def built_with_old_rows(inputs, monkeypatch):
        """The instance built from ``inputs`` and the (name, terms, sense,
        rhs) tuples that add_row stored when it kept a list of them."""
        old_rows = []
        real = MilpInstance.add_rows

        def recording(self, names, ptr, cols, vals, senses, rhs):
            for i, name in enumerate(names):
                terms = zip(cols[ptr[i] : ptr[i + 1]], vals[ptr[i] : ptr[i + 1]])
                old_rows.append((name, old_row_terms(terms), senses[i], rhs[i]))
            real(self, names, ptr, cols, vals, senses, rhs)

        monkeypatch.setattr(MilpInstance, "add_rows", recording)
        inst = build_instance(*inputs)
        monkeypatch.undo()
        return inst, old_rows

    @pytest.mark.parametrize("inputs", [tiny_inputs, lambda: random_inputs(1)])
    def test_view_yields_the_stored_tuples(self, inputs, monkeypatch):
        inst, old_rows = self.built_with_old_rows(inputs(), monkeypatch)
        assert list(inst.rows) == old_rows
        assert len(inst.rows) == inst.n_rows == len(old_rows)
        assert [inst.rows[i] for i in range(len(old_rows))] == old_rows
        assert inst.rows[-1] == old_rows[-1]
        with pytest.raises(IndexError):
            inst.rows[len(old_rows)]
        with pytest.raises(TypeError):
            inst.rows[0] = old_rows[1]

    def test_add_row_after_sparse_rows(self):
        inst = random_instance(1)
        A, senses, b = inst.sparse_rows()
        inst.add_row("extra", [(3, 2.0), (1, -1.0), (3, 1.0), (0, 0.0)], ">=", 5.0)
        A2, senses2, b2 = inst.sparse_rows()
        assert A2.shape == (A.shape[0] + 1, A.shape[1])
        assert (A2[:-1] != A).nnz == 0
        assert A2[-1].toarray()[0, :4].tolist() == [0.0, -1.0, 0.0, 3.0]
        assert senses2 == senses + [">="] and b2.tolist() == b.tolist() + [5.0]
        assert inst.rows[-1] == ("extra", ((1, -1.0), (3, 3.0)), ">=", 5.0)

    @pytest.mark.parametrize("sense", ["<", "=<", "==", ""])
    def test_add_row_refuses_an_unknown_sense(self, sense):
        # HiGHS and the oracle would read any other sense as an equality,
        # and the solution audit would skip the row.
        inst = MilpInstance()
        x = inst.add_var("x_0", CONTINUOUS, 0.0, 1.0)
        with pytest.raises(ValueError, match=f"^row 'cap_0' has sense {sense!r}, not <=, >= or =$"):
            inst.add_row("cap_0", [(x, 1.0)], sense, 1.0)
        assert (inst.n_rows, list(inst.row_ptr), len(inst.row_cols)) == (0, [0], 0)


class TestCheckSolution:
    @staticmethod
    def audited_instance():
        inst = MilpInstance()
        x = inst.add_var("x_0", CONTINUOUS, 0.0, 4.0)
        y = inst.add_var("y_0", CONTINUOUS, -1.0, 2.0)
        z = inst.add_var("z_0", BINARY, 0.0, 1.0)
        inst.add_row("le_0", [(x, 1.0), (y, 1.0)], "<=", 2.0)
        inst.add_row("ge_0", [(y, 1.0), (z, 1.0)], ">=", 0.0)
        inst.add_row("eq_0", [(x, 1.0), (z, -1.0)], "=", 1.0)
        return inst

    def test_feasible_point_is_clean(self):
        assert check_solution(self.audited_instance(), np.array([2.0, 0.0, 1.0])) == []

    def test_wrong_length_reported_alone(self):
        assert check_solution(self.audited_instance(), np.array([5.0, -2.0])) == [
            "solution has (2,) values for 3 variables"
        ]

    def test_values_that_are_not_finite_are_reported_first(self):
        # Every comparison with nan is false, so no bound or row check sees it.
        got = check_solution(self.audited_instance(), np.array([np.nan, -2.0, 0.0]))
        assert got == [
            "x_0 = nan is not finite",
            "y_0 = -2.0 below lower bound -1.0",
            "ge_0: -2.0 < 0.0",
        ]
        inst = random_instance(0)
        got = check_solution(inst, np.full(inst.n_vars, np.nan))
        assert len(got) == inst.n_vars
        assert all(line.endswith(" = nan is not finite") for line in got)

    def test_round_binaries_names_a_binary_that_is_not_finite(self):
        # Python's round on a nan binary raised a bare "cannot convert
        # float NaN to integer" before the audit could name the variable.
        inst = random_instance(0)
        values = solve_external(inst, None).values.copy()
        vid = inst.binary_ids()[3]
        values[vid] = np.nan
        with pytest.raises(RuntimeError, match=rf"{inst.names[vid]} = nan is not finite"):
            round_binaries(inst, values)

    def test_round_binaries_snaps_to_unsigned_zero_and_one(self):
        inst = random_instance(0)
        values = solve_external(inst, None).values.copy()
        binaries = inst.binary_ids()
        values[binaries] += np.where(values[binaries] > 0.5, 4e-7, -4e-7)
        out = round_binaries(inst, values)
        assert set(out[binaries].tolist()) <= {0.0, 1.0}
        assert not np.signbit(out[binaries]).any()
        rest = np.setdiff1d(np.arange(inst.n_vars), binaries)
        assert out[rest].tobytes() == values[rest].tobytes()

    def test_every_violation_kind_in_order(self):
        # x above its bound, y below, z fractional, and each row broken:
        # x + y = 3 > 2, y + z = -1.5 < 0, x - z = 4.5 != 1.
        got = check_solution(self.audited_instance(), np.array([5.0, -2.0, 0.5]))
        assert got == [
            "y_0 = -2.0 below lower bound -1.0",
            "x_0 = 5.0 above upper bound 4.0",
            "binary z_0 = 0.5 is fractional",
            "le_0: 3.0 > 2.0",
            "ge_0: -1.5 < 0.0",
            "eq_0: 4.5 != 1.0",
        ]
