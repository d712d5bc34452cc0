import json
import logging
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import recbid.solver as solver_mod
from recbid import cli
from recbid.cli import main as cli_main
from recbid.core import RecConfig
from recbid.harness import (
    RunSpec,
    WeekData,
    apply_case,
    build_day_scenarios,
    compare_cases,
    load_week_data,
    run_day,
    run_week,
)
from recbid.settlement import decide_acceptance
from recbid.solver import emit_exchange

from conftest import small_config
from test_solver import no_incumbent_highs

K = 3  # short days keep the reference oracle within its binary budget
WEEK_DATA_DIR = Path(__file__).parents[1] / "data" / "synthetic_week"


def flat_week(n_hist_days=4, n_days=2, pv=(20.0, 8.0, 0.0), load=(3.0, 3.0, 3.0),
              md=(6.0, 8.0, 12.0), sell=(0.30, 0.28, 0.34), buy=(0.12, 0.11, 0.13),
              ce=(0.09, 0.09, 0.10), ci=(0.24, 0.24, 0.26)):
    """Every training and realized day identical: fully predictable world."""
    e_day = np.column_stack([pv, load, md])
    p_day = np.column_stack([sell, buy])
    kp_day = np.column_stack([ce, ci])
    return WeekData(
        energy_history=np.tile(e_day, (n_hist_days, 1)),
        price_history=np.tile(p_day, (n_hist_days, 1)),
        realized_energy=np.tile(e_day, (n_days, 1)),
        realized_prices=np.tile(p_day, (n_days, 1)),
        known_prices=np.tile(kp_day, (n_days, 1)),
        horizon=K,
    )


def tiny_spec(**overrides):
    cfg = overrides.pop(
        "config",
        small_config(
            K=K,
            battery_capacity_kwh=0.0,
            battery_power_kwh_per_slot=0.0,
            soc_final_min=0.0,
            soc_final_max=1.0,
        ),
    )
    base = dict(config=cfg, n_m=1, n_r=1, seed=3, backend="reference")
    base.update(overrides)
    return RunSpec(**base)


def infeasible_week():
    """A reference-backend spec whose terminal window no day can reach."""
    cfg = small_config(
        K=K,
        battery_capacity_kwh=50.0,
        battery_power_kwh_per_slot=5.0,
        soc_initial=0.0,
        soc_final_min=0.99,  # unreachable terminal window
        soc_final_max=1.0,
    )
    return tiny_spec(config=cfg), flat_week(pv=(0.0, 0.0, 0.0))


def week_to_csvs(data: WeekData, out: Path) -> None:
    def dump(name, header, arr):
        lines = [header]
        for i in range(arr.shape[0]):
            lines.append(",".join([f"t{i}"] + [repr(float(v)) for v in arr[i]]))
        (out / name).write_text("\n".join(lines) + "\n")

    out.mkdir(parents=True, exist_ok=True)
    dump("energy_history.csv", "timestamp,pv_kwh,load_kwh,member_demand_kwh", data.energy_history)
    dump("msd_price_history.csv", "timestamp,msd_sell_max_eur_kwh,msd_buy_min_eur_kwh", data.price_history)
    dump("realized_energy.csv", "timestamp,pv_kwh,load_kwh,member_demand_kwh", data.realized_energy)
    dump("realized_msd_prices.csv", "timestamp,msd_sell_max_eur_kwh,msd_buy_min_eur_kwh", data.realized_prices)
    dump("known_prices.csv", "timestamp,export_price_eur_kwh,import_price_eur_kwh", data.known_prices)


class TestCases:
    def test_apply_case_toggles(self):
        cfg = small_config(incentive_shared=0.119)
        assert apply_case(cfg, "base") == (cfg, True)
        assert apply_case(cfg, "no_msd") == (cfg, False)
        cfg2, bids = apply_case(cfg, "no_incentive")
        assert cfg2.incentive_shared == 0.0 and bids
        cfg3, bids = apply_case(cfg, "neither")
        assert cfg3.incentive_shared == 0.0 and not bids

    def test_bad_case_rejected(self):
        with pytest.raises(ValueError, match="case"):
            RunSpec(config=small_config(), case="case4")


class TestRunSpec:
    def test_solver_settings_validated(self):
        for time_limit_s in (0.0, float("nan")):
            with pytest.raises(ValueError, match="time_limit_s"):
                RunSpec(config=small_config(), time_limit_s=time_limit_s)
        for rel_gap in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="rel_gap"):
                RunSpec(config=small_config(), rel_gap=rel_gap)
        with pytest.raises(ValueError, match="backend"):
            RunSpec(config=small_config(), backend="quantum")
        with pytest.raises(ValueError, match="n_m must be >= 1, got 0"):
            RunSpec(config=small_config(), n_m=0)
        with pytest.raises(ValueError, match="n_r must be >= 1, got -1"):
            RunSpec(config=small_config(), n_r=-1)
        # Scenario settings that would otherwise fail only inside run_day,
        # with an error that names neither the setting nor the day.
        for field, value, least in (
            ("dmc_samples", 0, 1),
            ("dmc_bins", 1, 2),
            ("price_window_days", 0, 1),
            ("price_window_days", -3, 1),
        ):
            with pytest.raises(ValueError, match=f"^{field} must be >= {least}, got {value}$"):
                RunSpec(config=small_config(), **{field: value})

    def test_cli_refuses_bad_settings_before_solving(self, tmp_path):
        for flag, value in (("--time-limit", "0"), ("--gap", "-1"), ("--nm", "0")):
            with pytest.raises(SystemExit, match="invalid run settings"):
                cli_main([
                    "plan", "--data-dir", str(tmp_path / "missing"),
                    "--out-dir", str(tmp_path / "out"), flag, value,
                ])
        bundled = Path(__file__).resolve().parents[1] / "data" / "synthetic_week"
        for command in ("plan", "emit"):
            with pytest.raises(SystemExit, match=r"day 99: the data has 7 realized days"):
                cli_main([
                    command, "--data-dir", str(bundled),
                    "--out-dir", str(tmp_path / "out"), "--day", "99",
                ])
        assert not (tmp_path / "out").exists()


class TestScenarioTraining:
    def test_price_window_uses_trailing_days(self):
        data = flat_week(n_hist_days=6, n_days=2)
        spec = tiny_spec(n_m=3, price_window_days=4)
        prices, energies = build_day_scenarios(spec, data, 0)
        assert prices.n <= 3
        assert energies.n == 1
        # all training days identical: single distinct price trajectory
        assert np.allclose(prices.values, prices.values[0])

    def test_training_excludes_current_and_future_days(self):
        data = flat_week(n_hist_days=4, n_days=2)
        # Poison the realized series of day 1; day 0 training must not see it.
        poisoned = WeekData(
            energy_history=data.energy_history,
            price_history=data.price_history,
            realized_energy=data.realized_energy.copy(),
            realized_prices=data.realized_prices.copy(),
            known_prices=data.known_prices,
            horizon=K,
        )
        poisoned.realized_energy[K:, 0] = 999.0
        spec = tiny_spec()
        a, _ = build_day_scenarios(spec, data, 0)
        b, _ = build_day_scenarios(spec, poisoned, 0)
        assert np.array_equal(a.values, b.values)


class TestRunDay:
    def test_zero_energy_day_settles_to_zero(self, tmp_path):
        # Service prices inside the tariff band leave no profitable bid for
        # an empty plant, so the optimum is the all-zero program.
        data = flat_week(
            pv=(0, 0, 0), load=(0, 0, 0), md=(0, 0, 0),
            sell=(0.15, 0.15, 0.15), buy=(0.12, 0.12, 0.12),
        )
        spec = tiny_spec()
        res = run_day(spec, data, 0, spec.config.soc_initial, tmp_path)
        assert res.report.totals()["net"] == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(res.dispatch.grid_export, 0.0)
        assert np.allclose(res.dispatch.grid_import, 0.0)

    def test_single_scenario_parity_with_planner_objective(self, tmp_path):
        cfg = small_config(
            K=K,
            battery_capacity_kwh=50.0,
            battery_power_kwh_per_slot=20.0,
            soc_final_min=0.2,
            soc_final_max=0.8,
            epsilon_max=0.0,
        )
        data = flat_week()
        spec = tiny_spec(config=cfg)
        res = run_day(spec, data, 0, cfg.soc_initial, tmp_path)
        # deterministic world: no shortfalls, parity up to the baseline term
        assert float(res.dispatch.shortfall_sell.sum()) == pytest.approx(0.0, abs=1e-8)
        realized = res.report.totals()
        adj = realized["export_revenue"] - res.expected["export_revenue"]
        adj -= realized["import_cost"] - res.expected["import_cost"]
        assert realized["net"] == pytest.approx(res.planner_objective + adj, abs=1e-6)

    def test_infeasible_day_mentions_instance_path(self, tmp_path):
        spec, data = infeasible_week()
        with pytest.raises(RuntimeError, match="instance.lp") as err:
            run_day(spec, data, 0, spec.config.soc_initial, tmp_path)
        assert "day 0, case base: solver returned infeasible" in str(err.value)

    def test_solver_error_names_day_and_case(self, tmp_path, monkeypatch):
        # Without a workdir the failed day's instance goes to a scratch
        # directory, which the error names.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(solver_mod, "highs_solve", no_incumbent_highs)
        spec = tiny_spec(backend="external", case="no_msd")
        with pytest.raises(RuntimeError, match=r"^day 1, case no_msd: time limit of") as err:
            run_day(spec, flat_week(), 1, spec.config.soc_initial, None)
        assert isinstance(err.value.__cause__, RuntimeError)
        lp = Path(re.search(r"instance kept at (\S+)$", str(err.value)).group(1))
        assert lp.name == "instance.lp" and lp.exists()
        assert list(tmp_path.iterdir()) == [lp.parent]

    def test_day_outside_realized_days_refused(self):
        spec = tiny_spec(case="no_msd")
        for day in (2, -1):
            with pytest.raises(ValueError, match=f"^day {day}, case no_msd: .* 2 realized days"):
                run_day(spec, flat_week(n_days=2), day, spec.config.soc_initial, None)


def first_solve_without_incumbent(monkeypatch):
    """Make HiGHS's first solve stop at its time limit with no feasible
    point, and run the later ones."""
    real, calls = solver_mod.highs_solve, []

    def highs_solve(*args, **kwargs):
        calls.append(args)
        return no_incumbent_highs() if len(calls) == 1 else real(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "highs_solve", highs_solve)


class TestNoBidFallback:
    """A day with bids that HiGHS leaves without a feasible point at its
    time limit is planned without bids."""

    @pytest.mark.parametrize(
        "case, no_bid_case", [("base", "no_msd"), ("no_incentive", "neither")]
    )
    def test_bid_day_gets_the_no_bid_plan(self, case, no_bid_case, tmp_path, monkeypatch, caplog):
        data = load_week_data(WEEK_DATA_DIR)
        spec = RunSpec(config=RecConfig(), case=case, n_m=2, n_r=1, seed=0, rel_gap=1e-9)
        soc = spec.config.soc_initial
        no_bid = run_day(replace(spec, case=no_bid_case), data, 0, soc, None)
        first_solve_without_incumbent(monkeypatch)
        with caplog.at_level(logging.INFO, logger="recbid"):
            got = run_day(spec, data, 0, soc, tmp_path)

        assert got.program.bids == no_bid.program.bids == (None,) * 24
        assert got.planner_objective == pytest.approx(no_bid.planner_objective, rel=1e-12)
        for key, value in no_bid.report.totals().items():
            assert got.report.totals()[key] == pytest.approx(value, abs=1e-9), key
        warning, info = caplog.records
        gap = (114.9 - got.planner_objective) / got.planner_objective
        assert warning.levelno == logging.WARNING
        assert warning.getMessage() == (
            f"day 0, case {case}: time limit of 300.0 s reached with no feasible solution "
            "(dual bound 114.9, nodes 7); planned without bids instead, "
            f"objective {got.planner_objective:.6g}, gap {gap:.3g}"
        )
        assert info.getMessage().startswith(
            f"day 0, case {case}: gap_limit, gap {gap:.3g}, nodes 7;"
        )
        # The bid model's files record HiGHS's failure; the no-bid solve's
        # files sit beside them.
        assert (tmp_path / "solution.sol").read_text() == "status unknown\n"
        assert (tmp_path / "instance.lp").exists()
        assert (tmp_path / "no_bid" / "solution.sol").read_text().startswith("status optimal\n")
        assert (tmp_path / "no_bid" / "instance.lp").exists()

    def test_failed_no_bid_solve_names_both(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(solver_mod, "highs_solve", no_incumbent_highs)
        data = load_week_data(WEEK_DATA_DIR)
        spec = RunSpec(config=RecConfig(), n_m=2, n_r=1, seed=0)
        failed = (
            "time limit of 300.0 s reached with no feasible solution (dual bound 114.9, nodes 7)"
        )
        with pytest.raises(RuntimeError) as err:
            run_day(spec, data, 0, spec.config.soc_initial, None)
        assert str(err.value).startswith(f"day 0, case base: {failed}; without bids, {failed}; ")

    def test_paper_scale_base_day_gets_a_plan(self):
        # HiGHS needs about 40 s for this day's root LP alone, so a 3 s
        # limit leaves it without a feasible point, as 300 s can leave it
        # in the root cut loop; the no-bid model solves in about a second.
        data = load_week_data(WEEK_DATA_DIR)
        spec = RunSpec(config=RecConfig(), n_m=10, n_r=10, seed=0, time_limit_s=3.0, rel_gap=1e-3)
        soc = spec.config.soc_initial
        got = run_day(spec, data, 0, soc, None)
        no_bid = run_day(replace(spec, case="no_msd"), data, 0, soc, None)
        assert got.program.bids == no_bid.program.bids == (None,) * 24
        assert got.planner_objective == pytest.approx(no_bid.planner_objective, rel=1e-12)
        assert got.planner_objective == pytest.approx(42.628, abs=0.05)


class TestDayLog:
    def test_no_bid_day_logs_one_modelled_price_scenario(self, tmp_path, caplog):
        # Off by default: the package adds no handler of its own.
        assert logging.getLogger("recbid").handlers == []
        data = flat_week()
        spec = tiny_spec(case="no_msd", n_m=2, out_dir=tmp_path / "quiet")
        run_week(spec, data)
        with caplog.at_level(logging.INFO, logger="recbid"):
            run_week(replace(spec, out_dir=tmp_path / "logged"), data)
        assert [(r.name, r.levelno) for r in caplog.records] == [("recbid", logging.INFO)] * 2
        for day, record in enumerate(caplog.records):
            assert re.fullmatch(
                rf"day {day}, case no_msd: optimal, gap 0, nodes \d+; 84 vars, 75 rows, "
                r"195 nonzeros, 15 binaries; 1 of 2 price scenarios modelled; \d+\.\d{3} s",
                record.getMessage(),
            ), record.getMessage()
        # The log line leaves the run's outputs as they were.
        for name in ("report.json", "soc_planned.csv", "day0/instance.lp"):
            quiet = (tmp_path / "quiet" / name).read_bytes()
            assert (tmp_path / "logged" / name).read_bytes() == quiet, name


class TestRunWeek:
    def test_flat_week_repeats_daily_report(self, tmp_path):
        data = flat_week(n_days=3)
        spec = tiny_spec(out_dir=tmp_path / "run")
        result = run_week(spec, data)
        totals = [d.report.totals() for d in result.days]
        for t in totals[1:]:
            for key, val in totals[0].items():
                assert t[key] == pytest.approx(val, abs=1e-9)

    def test_soc_chain_continuity(self):
        cfg = small_config(
            K=K,
            battery_capacity_kwh=50.0,
            battery_power_kwh_per_slot=20.0,
            soc_final_min=0.2,
            soc_final_max=0.8,
        )
        data = flat_week(n_days=3)
        result = run_week(tiny_spec(config=cfg), data)
        for prev, cur in zip(result.days, result.days[1:]):
            assert cur.dispatch.soc[0] == pytest.approx(prev.soc_final, abs=0)

    def test_bid_log_consistency(self):
        data = flat_week(n_days=2)
        cfg = small_config(
            K=K, battery_capacity_kwh=50.0, battery_power_kwh_per_slot=20.0,
            soc_final_min=0.2, soc_final_max=0.8,
        )
        result = run_week(tiny_spec(config=cfg), data)
        for day, d in enumerate(result.days):
            sl = slice(day * K, (day + 1) * K)
            again = decide_acceptance(
                d.program.bids,
                data.realized_prices[sl, 0],
                data.realized_prices[sl, 1],
            )
            assert again == d.accepted

    def test_failed_day_keeps_scratch_instance(self, tmp_path, monkeypatch):
        # Without out_dir a successful week writes no files; a failed day
        # leaves the instance its error names in a scratch directory.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        for backend in ("reference", "external"):
            run_week(tiny_spec(backend=backend), flat_week())
        assert list(tmp_path.iterdir()) == []
        spec, data = infeasible_week()
        with pytest.raises(RuntimeError, match="solver returned infeasible") as err:
            run_week(spec, data)
        lp = Path(re.search(r"instance kept at (\S+)", str(err.value)).group(1))
        assert lp.name == "instance.lp" and lp.exists()
        assert list(tmp_path.iterdir()) == [lp.parent]

    def test_outputs_written(self, tmp_path):
        data = flat_week(n_days=2)
        out = tmp_path / "run"
        run_week(tiny_spec(out_dir=out), data)
        for name in ("report.json", "cashflow.csv", "cashflow_long.csv",
                     "bids.csv", "soc.csv", "soc_planned.csv"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 3
        assert len(report["days"]) == 2
        assert (out / "day0" / "instance.lp").exists()


class TestCompareCases:
    def test_collapsed_toggles_make_all_cases_equal(self):
        # Service prices that can never pay and no incentive: the four cases
        # optimize to the same program.
        data = flat_week(sell=(0.01, 0.01, 0.01), buy=(0.5, 0.5, 0.5))
        cfg = small_config(
            K=K, battery_capacity_kwh=0.0, battery_power_kwh_per_slot=0.0,
            incentive_shared=0.0, soc_final_min=0.0, soc_final_max=1.0,
        )
        table = compare_cases(tiny_spec(config=cfg), data)
        nets = [row["weekly_net_eur"] for row in table]
        assert max(nets) - min(nets) <= 1e-9

    def test_table_format_and_planner_ordering(self, tmp_path):
        data = flat_week(n_days=2)
        cfg = small_config(
            K=K, battery_capacity_kwh=50.0, battery_power_kwh_per_slot=20.0,
            soc_final_min=0.2, soc_final_max=0.8,
        )
        out = tmp_path / "cmp"
        table = compare_cases(tiny_spec(config=cfg, out_dir=out), data)
        assert [row["case"] for row in table] == ["base", "no_msd", "no_incentive", "neither"]
        for row in table:
            assert set(row) == {
                "case",
                "weekly_net_eur",
                "planner_objective_sum",
                "delta_vs_neither_pct",
                "delta_vs_no_msd_pct",
            }
        by_case = {row["case"]: row["planner_objective_sum"] for row in table}
        assert by_case["base"] >= by_case["no_msd"] - 1e-9
        assert by_case["base"] >= by_case["no_incentive"] - 1e-9
        assert by_case["no_incentive"] >= by_case["neither"] - 1e-9
        assert by_case["no_msd"] >= by_case["neither"] - 1e-9
        assert (out / "comparison.csv").exists()
        assert (out / "comparison.json").exists()


@pytest.mark.slow
class TestCli:
    def test_simulate_and_compare_roundtrip(self, tmp_path, capsys):
        data = flat_week(n_days=2)
        data_dir = tmp_path / "data"
        week_to_csvs(data, data_dir)
        cfg_path = tmp_path / "cfg.json"
        cfg = small_config(
            K=K, battery_capacity_kwh=0.0, battery_power_kwh_per_slot=0.0,
            soc_final_min=0.0, soc_final_max=1.0,
        )
        cfg_path.write_text(json.dumps({k: getattr(cfg, k) for k in RecConfig.__dataclass_fields__}))
        out = tmp_path / "out"
        rc = cli_main([
            "simulate", "--config", str(cfg_path), "--data-dir", str(data_dir),
            "--out-dir", str(out), "--nm", "1", "--nr", "1", "--backend", "reference",
        ])
        assert rc == 0
        assert (out / "report.json").exists()
        payload = json.loads(capsys.readouterr().out)
        assert "net" in payload

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"horizon_hours": "24"}', 'horizon_hours must be an integer, got "24"'),
            ('{"battery_capacity_kwh": null}', "battery_capacity_kwh must be a number, got null"),
            ('{"eta_charge": true}', "eta_charge must be a number, got true"),
            ('{"horizon_hourz": 24}', "unknown config keys: ['horizon_hourz']"),
            ("{", "Expecting property name enclosed in double quotes"),
        ],
    )
    def test_plan_refuses_a_config_of_the_wrong_type(self, tmp_path, text, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        bundled = Path(__file__).resolve().parents[1] / "data" / "synthetic_week"
        with pytest.raises(SystemExit) as info:
            cli_main([
                "plan", "--config", str(cfg_path), "--data-dir", str(bundled),
                "--out-dir", str(tmp_path / "out"),
            ])
        assert str(info.value).startswith(f"invalid config: {message}")
        assert not (tmp_path / "out").exists()

    def test_emit_writes_exchange_and_sidecar(self, tmp_path, monkeypatch):
        data = flat_week(n_days=1)
        data_dir = tmp_path / "data"
        week_to_csvs(data, data_dir)
        cfg = small_config(
            K=K, battery_capacity_kwh=0.0, battery_power_kwh_per_slot=0.0,
            soc_final_min=0.0, soc_final_max=1.0,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({k: getattr(cfg, k) for k in RecConfig.__dataclass_fields__}))
        out = tmp_path / "out"
        built = []
        real_build = cli.build_instance

        def keep(*args, **kwargs):
            built.append(real_build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "build_instance", keep)
        rc = cli_main([
            "emit", "--config", str(cfg_path), "--data-dir", str(data_dir),
            "--out-dir", str(out), "--nm", "1", "--nr", "1",
        ])
        assert rc == 0
        (inst,) = built
        assert (out / "instance.lp").read_text() == emit_exchange(inst)
        expected = {
            inst.names[inst.var(sym, *idx)]: {"symbol": sym, "indices": idx}
            for sym, grid in inst.index.items()
            for idx in np.argwhere(grid >= 0).tolist()
        }
        text = (out / "instance.vars.json").read_text()
        assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"
        assert json.loads(text)["sell_qty_k0"]["symbol"] == "sell_qty"

    def test_plan_single_day(self, tmp_path):
        data = flat_week(n_days=1)
        data_dir = tmp_path / "data"
        week_to_csvs(data, data_dir)
        cfg = small_config(
            K=K, battery_capacity_kwh=0.0, battery_power_kwh_per_slot=0.0,
            soc_final_min=0.0, soc_final_max=1.0,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({k: getattr(cfg, k) for k in RecConfig.__dataclass_fields__}))
        out = tmp_path / "out"
        rc = cli_main([
            "plan", "--config", str(cfg_path), "--data-dir", str(data_dir),
            "--out-dir", str(out), "--nm", "1", "--nr", "1", "--backend", "reference",
            "--day", "0",
        ])
        assert rc == 0
        plan = json.loads((out / "plan.json").read_text())
        assert "planner_objective" in plan
        assert len(plan["bids"]) == K


def test_load_week_data_roundtrip(tmp_path):
    data = flat_week(n_days=2)
    week_to_csvs(data, tmp_path)
    loaded = load_week_data(tmp_path, K)
    assert np.allclose(loaded.energy_history, data.energy_history)
    assert np.allclose(loaded.known_prices, data.known_prices)
    assert loaded.n_days == 2
