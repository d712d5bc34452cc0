"""Acceptance suite: one test per release criterion, each printing a PASS line.

The heavyweight assets (the randomized instance batch solved by both
backends, the bundled-week case comparison) are computed once per module
and shared across the criteria that consume them.
"""

import filecmp
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from recbid.core import RecConfig
from recbid.harness import RunSpec, compare_cases, run_week
from recbid.milp import (
    build_instance,
    check_solution,
    planned_soc_paths,
    round_binaries,
)
from recbid.scenarios import fast_forward_select, reduce_scenarios, reduction_distance
from recbid.settlement import realtime_dispatch
from recbid.simplex import solve_lp
from recbid.solver import reference_solve, solve_external

from conftest import (
    energy_set,
    known_prices,
    price_set,
    random_inputs,
    small_config,
    with_exclusivity_binaries,
)
from test_harness import flat_week, tiny_spec, week_to_csvs
from test_settlement import program_with
from recbid.core import Bid

REPO = Path(__file__).parents[1]
WEEK_DATA_DIR = REPO / "data" / "synthetic_week"

ORACLE_BATCH_SIZE = 20
ORACLE_TIME_BUDGET_S = 60.0


@pytest.fixture(scope="module")
def oracle_batch(tmp_path_factory):
    """Randomized K=3, n_m=2, n_r=2 instances solved by both backends.

    The model carries 30 declared binaries at this size, 42 with a
    shared-energy incentive (the export and charge indicators are
    scenario-indexed; the family's export tariffs sit below its import
    tariffs, so no baseline-export indicator is built), so the reference
    oracle runs with an explicit binary budget above its default.
    """
    base = tmp_path_factory.mktemp("oracle")
    runs = []
    for seed in range(ORACLE_BATCH_SIZE):
        cfg, prices, energies, kp = random_inputs(seed, K=3, nm=2, nr=2)
        inst = build_instance(cfg, prices, energies, kp)
        t0 = time.perf_counter()
        ref = reference_solve(inst, binary_limit=60)
        t_ref = time.perf_counter() - t0
        ext = solve_external(inst, base / f"i{seed}")
        runs.append((seed, inst, ref, ext, t_ref))
    return runs


@pytest.fixture(scope="module")
def small_oracle_batch(tmp_path_factory):
    """Instances within the oracle's default 24-binary budget (K=2, n_m=2, n_r=1)."""
    base = tmp_path_factory.mktemp("oracle_small")
    runs = []
    for seed in range(100, 108):
        cfg, prices, energies, kp = random_inputs(seed, K=2, nm=2, nr=1)
        inst = build_instance(cfg, prices, energies, kp)
        assert len(inst.binary_ids()) <= 24
        ref = reference_solve(inst)  # default binary_limit
        ext = solve_external(inst, base / f"i{seed}")
        runs.append((seed, inst, ref, ext))
    return runs


@pytest.fixture(scope="module")
def week_comparison(tmp_path_factory):
    """All four cases of the bundled synthetic week, paper-style plant.

    The default RecConfig is the 15-customer community: 50 kWp PV,
    120 kW / 250 kWh storage, 200 kWh hourly exchange limits, the 0.3..0.7
    terminal window and the 0.119 EUR/kWh incentive.
    """
    out = tmp_path_factory.mktemp("week")
    spec = RunSpec(
        config=RecConfig(),
        data_dir=WEEK_DATA_DIR,
        n_m=2,
        n_r=2,
        seed=42,
        backend="external",
        out_dir=out,
        rel_gap=2e-2,
        time_limit_s=590.0,
    )
    table = compare_cases(spec)
    return spec, {row["case"]: row for row in table}


@pytest.mark.slow
class TestOracleEquivalence:
    def test_randomized_instances_agree_across_backends(self, oracle_batch):
        assert len(oracle_batch) >= 20
        for seed, inst, ref, ext, t_ref in oracle_batch:
            assert ref.status == ext.status, f"seed {seed}: {ref.status} vs {ext.status}"
            if ref.status == "optimal":
                scale = max(1.0, abs(ref.objective_value))
                gap = abs(ref.objective_value - ext.objective_value)
                assert gap <= 1e-6 * scale, f"seed {seed}: |{ref.objective_value} - {ext.objective_value}|"
            assert t_ref < ORACLE_TIME_BUDGET_S, f"seed {seed}: reference took {t_ref:.1f}s"
        print(f"\nPASS: oracle equivalence on {len(oracle_batch)} randomized instances "
              f"(max reference time {max(r[4] for r in oracle_batch):.1f}s)")

    def test_default_binary_budget_batch(self, small_oracle_batch):
        for seed, inst, ref, ext in small_oracle_batch:
            assert ref.status == ext.status
            if ref.status == "optimal":
                scale = max(1.0, abs(ref.objective_value))
                assert abs(ref.objective_value - ext.objective_value) <= 1e-6 * scale
        print(f"\nPASS: oracle equivalence on {len(small_oracle_batch)} instances "
              "within the default 24-binary budget")

    def test_dropped_exclusivity_binaries_keep_the_oracle_optimum(self, small_oracle_batch):
        # The full model, with every exclusivity flag put back, still fits
        # the default budget at this size.
        for seed, _inst, ref, _ext in small_oracle_batch:
            cfg, prices, energies, kp = random_inputs(seed, K=2, nm=2, nr=1)
            full = with_exclusivity_binaries(build_instance(cfg, prices, energies, kp))
            ref_full = reference_solve(full)
            assert ref.status == ref_full.status == "optimal", seed
            scale = max(1.0, abs(ref_full.objective_value))
            assert abs(ref.objective_value - ref_full.objective_value) <= 1e-6 * scale, seed
        print(f"\nPASS: reduced and full models share the oracle optimum on "
              f"{len(small_oracle_batch)} instances")


@pytest.mark.slow
class TestFeasibilityAudit:
    def test_every_solution_satisfies_every_row(self, oracle_batch, small_oracle_batch):
        audited = 0
        for batch in (oracle_batch, small_oracle_batch):
            for entry in batch:
                inst, ref, ext = entry[1], entry[2], entry[3]
                for sol in (ref, ext):
                    if sol.status != "optimal":
                        continue
                    assert check_solution(inst, sol.values, tol=1e-6) == []
                    rounded = round_binaries(inst, sol.values)  # raises beyond 1e-5
                    assert rounded is not None
                    audited += 1
        assert audited >= 40
        print(f"\nPASS: feasibility audit clean on {audited} solutions "
              "(rounded binaries shift no residual beyond 1e-5)")


class TestAcceptanceTruthTable:
    def test_exhaustive_over_choices_and_scenarios(self):
        checked = 0
        for nm in range(1, 5):
            rng = np.random.default_rng(nm)
            sell = rng.choice([0.18, 0.22, 0.22, 0.30, 0.35], size=(nm, 1))
            buy = rng.choice([0.11, 0.13, 0.13, 0.15], size=(nm, 1))
            prices = price_set(sell, buy)
            energies = energy_set([[20.0]], [[5.0]], [[10.0]])
            cfg = small_config(K=1, epsilon_max=0.0)
            inst = build_instance(cfg, prices, energies, known_prices([0.08], [0.25]))
            A, senses, b = inst.sparse_rows()
            A = A.toarray()
            for side, chan in (("sell", sell), ("buy", buy)):
                for j in range(nm):
                    lb = np.array(inst.lb)
                    ub = np.array(inst.ub)
                    on = inst.var(f"{side}_on", 0)
                    lb[on] = ub[on] = 1.0
                    for jj in range(nm):
                        pick = inst.var(f"pick_{side}", 0, jj)
                        lb[pick] = ub[pick] = 1.0 if jj == j else 0.0
                    for s in range(nm):
                        acc = inst.var(f"acc_{side}", 0, s)
                        c = np.zeros(inst.n_vars)
                        c[acc] = 1.0
                        hi = solve_lp(c, A, senses, b, lb, ub, maximize=True)
                        lo = solve_lp(c, A, senses, b, lb, ub, maximize=False)
                        assert hi.status == "optimal" and lo.status == "optimal"
                        if side == "sell":
                            expected = 1.0 if chan[j, 0] <= chan[s, 0] else 0.0
                        else:
                            expected = 1.0 if chan[j, 0] >= chan[s, 0] else 0.0
                        assert hi.objective == pytest.approx(expected, abs=1e-9)
                        assert lo.objective == pytest.approx(expected, abs=1e-9)
                        checked += 1
        assert checked == sum(2 * nm * nm for nm in range(1, 5))
        print(f"\nPASS: acceptance truth table exact on {checked} (choice, scenario) pairs "
              "including boundary ties")


class TestRelaxationLogic:
    def test_active_flag_truth_table_and_slack_forcing(self):
        # Two sell candidates 0.20/0.40: picking the high one is rejected in
        # the low scenario, which realizes all four (accepted, submitted)
        # combinations across (pick, scenario).
        prices = price_set([[0.20], [0.40]], [[0.12], [0.16]])
        energies = energy_set([[20.0]], [[5.0]], [[10.0]])
        cfg = small_config(K=1, epsilon_max=5.0)
        inst = build_instance(cfg, prices, energies, known_prices([0.08], [0.25]))
        A, senses, b = inst.sparse_rows()
        A = A.toarray()

        def extremes(var, fixes):
            lb = np.array(inst.lb)
            ub = np.array(inst.ub)
            for vid, val in fixes.items():
                lb[vid] = ub[vid] = val
            c = np.zeros(inst.n_vars)
            c[var] = 1.0
            hi = solve_lp(c, A, senses, b, lb, ub, maximize=True)
            lo = solve_lp(c, A, senses, b, lb, ub, maximize=False)
            return lo.objective, hi.objective

        on = inst.var("sell_on", 0)
        picks = [inst.var("pick_sell", 0, j) for j in range(2)]
        cases = [
            ({on: 0.0, picks[0]: 0.0, picks[1]: 0.0}, 0, 0.0),  # not submitted
            ({on: 0.0, picks[0]: 0.0, picks[1]: 0.0}, 1, 0.0),
            ({on: 1.0, picks[0]: 0.0, picks[1]: 1.0}, 0, 0.0),  # submitted, rejected in s=0
            ({on: 1.0, picks[0]: 0.0, picks[1]: 1.0}, 1, 1.0),  # submitted, accepted in s=1
        ]
        for fixes, s, expected in cases:
            act = inst.var("act_sell", 0, s)
            lo, hi = extremes(act, fixes)
            assert lo == pytest.approx(expected, abs=1e-9)
            assert hi == pytest.approx(expected, abs=1e-9)

        # Slack gating: an active sell bars downward baseline shifts and
        # opens the battery reserve; an inactive one does the opposite.
        active = {on: 1.0, picks[0]: 0.0, picks[1]: 1.0}
        _, hi = extremes(inst.var("shift_dn", 0, 1, 0), active)
        assert hi == pytest.approx(0.0, abs=1e-9)
        _, hi = extremes(inst.var("resv_up", 0, 0, 0), active)  # s=0 rejected
        assert hi == pytest.approx(0.0, abs=1e-9)
        inactive = {on: 0.0, picks[0]: 0.0, picks[1]: 0.0}
        _, hi = extremes(inst.var("resv_up", 0, 0, 0), inactive)
        assert hi == pytest.approx(0.0, abs=1e-9)
        _, hi = extremes(inst.var("shift_dn", 0, 0, 0), inactive)
        assert hi == pytest.approx(5.0, abs=1e-9)
        print("\nPASS: relaxation logic truth table and slack forcing verified")


@pytest.mark.slow
class TestSocInvariants:
    def test_planned_paths_stay_inside_windows(self, tmp_path):
        solved = 0
        for seed in range(200, 206):
            cfg, prices, energies, kp = random_inputs(seed, K=3, nm=2, nr=2)
            cfg = replace(
                cfg,
                battery_capacity_kwh=max(cfg.battery_capacity_kwh, 60.0),
                soc_final_min=0.3,
                soc_final_max=0.7,
            )
            inst = build_instance(cfg, prices, energies, kp)
            sol = solve_external(inst, tmp_path / f"soc{seed}")
            if sol.status != "optimal":
                continue
            paths = planned_soc_paths(inst, sol.values)
            assert np.all(paths >= -1e-6) and np.all(paths <= 1 + 1e-6)
            assert np.all(paths[:, :, -1] >= 0.3 - 1e-6)
            assert np.all(paths[:, :, -1] <= 0.7 + 1e-6)
            # The windows hold by variable bounds; the path itself must still
            # be the charge/discharge recursion from the initial state.
            eb = cfg.battery_capacity_kwh
            for s in range(2):
                for l in range(2):
                    soc = cfg.soc_initial
                    for k in range(3):
                        chg = sol.values[inst.var("chg", k, s, l)]
                        dis = sol.values[inst.var("dis", k, s, l)]
                        soc += (cfg.eta_charge * chg - dis / cfg.eta_discharge) / eb
                        assert paths[s, l, k + 1] == pytest.approx(soc, abs=1e-6)
            solved += 1
        assert solved >= 4
        print(f"\nPASS: planned SOC paths within [0,1] and the 0.3..0.7 terminal window, "
              f"equal to the integrated charge/discharge, on {solved} instances")

    def test_realized_soc_contained_for_random_realizations(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            K = 5
            cfg = small_config(
                K=K,
                battery_capacity_kwh=float(rng.uniform(20, 150)),
                battery_power_kwh_per_slot=float(rng.uniform(5, 80)),
                soc_initial=float(rng.uniform(0, 1)),
                renewable_only_charging=bool(rng.integers(0, 2)),
            )
            bids = [
                None
                if rng.random() < 0.3
                else Bid(k, "sell" if rng.random() < 0.5 else "buy",
                         0.2, float(rng.uniform(0, 50)), True)
                for k in range(K)
            ]
            program = program_with(bids, K=K, baseline=rng.uniform(-40, 40, K))
            accepted = [b is not None and rng.random() < 0.8 for b in bids]
            out = realtime_dispatch(
                program, accepted,
                pv=rng.uniform(0, 50, K), load=rng.uniform(0, 20, K),
                member_demand=rng.uniform(0, 40, K), config=cfg,
            )
            assert np.all(out.soc >= -1e-12) and np.all(out.soc <= 1 + 1e-12)
        print("\nPASS: realized SOC contained in [0,1] for 50 random realizations")


@pytest.mark.slow
class TestCaseOrdering:
    def test_planner_objective_chains_on_random_instances(self, tmp_path):
        for seed in (300, 301, 302, 303):
            cfg, prices, energies, kp = random_inputs(seed, K=2, nm=2, nr=2)
            variants = {}
            for case, (gamma, bids) in {
                "base": (cfg.incentive_shared, True),
                "no_msd": (cfg.incentive_shared, False),
                "no_incentive": (0.0, True),
                "neither": (0.0, False),
            }.items():
                cfg_c = replace(cfg, incentive_shared=gamma)
                inst = build_instance(cfg_c, prices, energies, kp, allow_bids=bids)
                sol = solve_external(inst, tmp_path / f"c{seed}_{case}")
                assert sol.status == "optimal"
                variants[case] = sol.objective_value
            tol = 1e-6 * max(1.0, *map(abs, variants.values()))
            assert variants["base"] >= variants["no_msd"] - tol
            assert variants["base"] >= variants["no_incentive"] - tol
            assert variants["no_incentive"] >= variants["neither"] - tol
            assert variants["no_msd"] >= variants["neither"] - tol
        print("\nPASS: planner objective ordering holds on all generated instances")

    def test_week_reproduces_qualitative_direction(self, week_comparison):
        spec, rows = week_comparison
        nets = {case: rows[case]["weekly_net_eur"] for case in rows}
        js = {case: rows[case]["planner_objective_sum"] for case in rows}
        slack = 2.0 * spec.rel_gap * max(abs(v) for v in js.values())
        assert js["base"] >= js["no_msd"] - slack
        assert js["base"] >= js["no_incentive"] - slack
        assert js["no_incentive"] >= js["neither"] - slack
        assert js["no_msd"] >= js["neither"] - slack
        # Realized direction: market participation and the incentive both pay.
        assert nets["base"] > nets["no_msd"]
        assert nets["no_incentive"] > nets["neither"]
        assert nets["base"] > nets["no_incentive"]
        assert nets["no_msd"] > nets["neither"]
        print(
            "\nPASS: bundled week qualitative direction "
            f"(base {nets['base']:.0f} > no_msd {nets['no_msd']:.0f} > "
            f"neither {nets['neither']:.0f}; no_incentive {nets['no_incentive']:.0f})"
        )

    def test_week_ran_paper_plant_end_to_end(self, week_comparison):
        spec, _rows = week_comparison
        cfg = spec.config
        assert cfg.battery_capacity_kwh == 250.0
        assert cfg.battery_power_kwh_per_slot == 120.0
        assert cfg.p_export_max == cfg.p_import_max == 200.0
        assert (Path(spec.out_dir) / "base" / "report.json").exists()
        report = json.loads((Path(spec.out_dir) / "base" / "report.json").read_text())
        assert len(report["days"]) == 7
        print("\nPASS: 50 kWp / 120 kW / 250 kWh community simulated for 7 days end to end")


class TestScenarioReduction:
    def test_properties_and_timing(self):
        rng = np.random.default_rng(77)
        values = np.stack(
            [
                rng.uniform(0, 40, (300, 24)),
                rng.uniform(0, 15, (300, 24)),
                rng.uniform(0, 30, (300, 24)),
            ],
            axis=1,
        )
        from recbid.core import ScenarioSet

        sset = ScenarioSet(("pv", "load", "member_demand"), values, np.full(300, 1 / 300))
        t0 = time.perf_counter()
        reduced = reduce_scenarios(sset, 10)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        assert reduced.n == 10
        kept = sorted(fast_forward_select(sset, 10))
        assert np.array_equal(reduced.values, sset.values[kept])
        originals = {sset.values[i].tobytes() for i in range(300)}
        for i in range(10):
            assert reduced.values[i].tobytes() in originals
        assert abs(reduced.probabilities.sum() - 1.0) <= 1e-9

        small = ScenarioSet(
            ("pv", "load", "member_demand"),
            values[:16],
            np.full(16, 1 / 16),
        )
        dist = [
            reduction_distance(small, fast_forward_select(small, t)) for t in range(1, 17)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(dist, dist[1:]))
        print(
            f"\nPASS: reduction subset/mass/monotonicity hold; 300 to 10 in {elapsed:.2f}s"
        )


@pytest.mark.slow
class TestRenewableOnlyCharging:
    def test_zero_pv_scenario_forces_zero_charging(self, tmp_path):
        solved = 0
        for seed in (400, 401, 402):
            cfg, prices, energies, kp = random_inputs(seed, K=3, nm=2, nr=2)
            cfg = replace(
                cfg,
                renewable_only_charging=True,
                battery_capacity_kwh=max(cfg.battery_capacity_kwh, 50.0),
            )
            vals = energies.values.copy()
            vals[0, 0, :] = 0.0  # scenario l=0 has no pv at any hour
            energies = energy_set(vals[:, 0, :], vals[:, 1, :], vals[:, 2, :])
            inst = build_instance(cfg, prices, energies, kp)
            sol = solve_external(inst, tmp_path / f"g{seed}")
            if sol.status != "optimal":
                continue
            K, nm = inst.data["K"], inst.data["n_m"]
            for k in range(K):
                for s in range(nm):
                    assert sol.values[inst.var("chg", k, s, 0)] <= 1e-6
            solved += 1
        assert solved >= 2
        print(f"\nPASS: zero-pv scenarios carry zero charging in {solved} solved instances")


@pytest.mark.slow
class TestDeterminism:
    def test_same_seed_reproduces_bytes(self, tmp_path):
        data = flat_week(n_days=2)
        data_dir = tmp_path / "data"
        week_to_csvs(data, data_dir)
        cfg = small_config(
            K=3,
            battery_capacity_kwh=50.0,
            battery_power_kwh_per_slot=20.0,
            soc_final_min=0.2,
            soc_final_max=0.8,
        )
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"run_{tag}"
            spec = tiny_spec(config=cfg, data_dir=data_dir, out_dir=out, seed=11)
            run_week(spec)
            outs.append(out)
        compared = 0
        for rel in (
            "report.json",
            "cashflow.csv",
            "cashflow_long.csv",
            "bids.csv",
            "soc.csv",
            "soc_planned.csv",
            "day0/instance.lp",
            "day1/instance.lp",
        ):
            assert filecmp.cmp(outs[0] / rel, outs[1] / rel, shallow=False), rel
            compared += 1
        print(f"\nPASS: {compared} report and instance files byte-identical across reruns")

    def test_external_backend_bytes_stable(self, tmp_path):
        from conftest import random_instance

        inst = random_instance(500)
        a = solve_external(inst, tmp_path / "x")
        b = solve_external(inst, tmp_path / "y")
        assert (tmp_path / "x/instance.lp").read_bytes() == (tmp_path / "y/instance.lp").read_bytes()
        assert (tmp_path / "x/solution.sol").read_bytes() == (tmp_path / "y/solution.sol").read_bytes()
        assert a.objective_value == b.objective_value
        print("\nPASS: external backend exchange files byte-identical across reruns")
