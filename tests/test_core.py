import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recbid.core import (
    Bid,
    DayTrajectory,
    RecConfig,
    ScenarioSet,
    load_config_json,
    validate_bid,
    validate_config,
)

from conftest import small_config


class TestValidateConfig:
    def test_paper_style_config_is_clean(self):
        cfg = RecConfig(
            horizon_hours=24,
            p_export_max=200.0,
            p_import_max=200.0,
            battery_capacity_kwh=250.0,
            battery_power_kwh_per_slot=120.0,
            eta_charge=0.95,
            eta_discharge=0.95,
            soc_initial=0.5,
            soc_final_min=0.3,
            soc_final_max=0.7,
            incentive_shared=0.119,
        )
        assert validate_config(cfg) == []

    def test_zero_charge_efficiency_names_the_field(self):
        cfg = small_config(eta_charge=0.0)
        problems = validate_config(cfg)
        assert len(problems) == 1
        assert "eta_charge" in problems[0]

    def test_soc_window_ordering_violation(self):
        cfg = small_config(soc_final_min=0.8, soc_final_max=0.7)
        problems = validate_config(cfg)
        assert len(problems) == 1
        assert "soc_final_min" in problems[0] and "soc_final_max" in problems[0]

    def test_zero_battery_is_legal(self):
        cfg = small_config(battery_capacity_kwh=0.0, battery_power_kwh_per_slot=0.0)
        assert validate_config(cfg) == []

    def test_negative_limits_are_reported(self):
        cfg = small_config(p_export_max=-1.0, p_import_max=0.0)
        problems = validate_config(cfg)
        assert any("p_export_max" in p for p in problems)
        assert any("p_import_max" in p for p in problems)

    def test_values_that_are_not_finite_are_refused_once_each(self):
        # A bound check alone passes NaN (every comparison is false) and
        # infinity (above every lower bound).
        cfg = RecConfig(p_export_max=np.nan, battery_capacity_kwh=np.inf, penalty_sell=np.nan)
        assert validate_config(cfg) == [
            "p_export_max must be finite, got nan",
            "battery_capacity_kwh must be finite, got inf",
            "penalty_sell must be finite, got nan",
        ]
        cfg = small_config(eta_charge=-np.inf, soc_final_min=np.nan, soc_final_max=0.2)
        assert validate_config(cfg) == [
            "eta_charge must be finite, got -inf",
            "soc_final_min must be finite, got nan",
        ]

    def test_bad_cap_mode(self, tmp_path):
        # The shared-energy cap is no longer a setting: the field is gone
        # from RecConfig, and a config file naming it is refused.
        with pytest.raises(TypeError, match="shared_energy_cap_mode"):
            small_config(shared_energy_cap_mode="nonsense")
        path = tmp_path / "cfg.json"
        path.write_text('{"horizon_hours": 6, "shared_energy_cap_mode": "nonsense"}')
        with pytest.raises(ValueError, match="shared_energy_cap_mode"):
            load_config_json(path)

    def test_rec_exchange_cap_mode_refused(self, tmp_path):
        # Capping shared energy by the net community exchange forbade every
        # net import, so a config file asking for it is refused.
        path = tmp_path / "cfg.json"
        path.write_text('{"horizon_hours": 6, "shared_energy_cap_mode": "rec_exchange"}')
        with pytest.raises(ValueError, match=r"^unknown config keys: \['shared_energy_cap_mode'\]$"):
            load_config_json(path)


def test_config_json_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"horizon_hours": 6, "p_export_max": 100.0, "incentive_shared": 0.0}')
    cfg = load_config_json(path)
    assert cfg.horizon_hours == 6
    assert cfg.p_export_max == 100.0
    assert cfg.incentive_shared == 0.0


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"horizon_hours": "24"}', 'horizon_hours must be an integer, got "24"'),
        ('{"horizon_hours": 24.0}', "horizon_hours must be an integer, got 24.0"),
        ('{"battery_capacity_kwh": null}', "battery_capacity_kwh must be a number, got null"),
        ('{"eta_charge": true}', "eta_charge must be a number, got true"),
        ('{"p_export_max": "200"}', 'p_export_max must be a number, got "200"'),
        ('{"p_export_max": NaN}', "p_export_max must be a number, got NaN"),
        ('{"epsilon_max": -Infinity}', "epsilon_max must be a number or null, got -Infinity"),
        ('{"penalty_sell": "high"}', 'penalty_sell must be a number or null, got "high"'),
        ('{"renewable_only_charging": 1}', "renewable_only_charging must be true or false, got 1"),
        (
            '{"eta_charge": false, "horizon_hours": null}',
            "eta_charge must be a number, got false; horizon_hours must be an integer, got null",
        ),
        ("[24]", "a config file holds one JSON object, got list"),
    ],
)
def test_config_json_refuses_values_of_the_wrong_type(tmp_path, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_config_json(path)
    assert str(info.value) == message


def test_config_json_takes_null_where_a_field_may_be_unset(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"penalty_sell": null, "penalty_buy": 0.05, "epsilon_max": 3, '
        '"renewable_only_charging": false, "soc_initial": 1}'
    )
    cfg = load_config_json(path)
    assert (cfg.penalty_sell, cfg.penalty_buy, cfg.epsilon_max) == (None, 0.05, 3)
    assert cfg.renewable_only_charging is False and cfg.soc_initial == 1


def test_config_json_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"horizon_hourz": 6}')
    with pytest.raises(ValueError, match="horizon_hourz"):
        load_config_json(path)


def test_config_json_refuses_retired_cap_mode_key(tmp_path):
    # Shared energy is always capped by member demand; the setting that
    # chose the cap is gone, so a file that still names it is refused.
    path = tmp_path / "cfg.json"
    path.write_text('{"horizon_hours": 6, "shared_energy_cap_mode": "member_demand"}')
    with pytest.raises(ValueError, match=r"^unknown config keys: \['shared_energy_cap_mode'\]$"):
        load_config_json(path)


class TestDayTrajectory:
    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DayTrajectory([1.0, -0.5], "pv")

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DayTrajectory([-0.1], "price_export")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            DayTrajectory([1.0], "wind")

    def test_len(self):
        assert len(DayTrajectory(np.zeros(24), "load")) == 24


class TestScenarioSet:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            ScenarioSet(("pv", "load", "member_demand"), np.zeros((2, 3, 4)), [0.5, 0.4])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ScenarioSet(("pv", "load", "member_demand"), np.zeros((2, 3, 4)), [1.5, -0.5])

    def test_channel_count_must_match(self):
        with pytest.raises(ValueError, match="channels"):
            ScenarioSet(("pv",), np.zeros((1, 3, 4)), [1.0])

    def test_channel_lookup(self):
        values = np.arange(24, dtype=float).reshape(2, 3, 4)
        s = ScenarioSet(("pv", "load", "member_demand"), values, [0.5, 0.5])
        assert np.array_equal(s.channel("load"), values[:, 1, :])
        assert s.n == 2 and s.horizon == 4

    @given(st.integers(1, 6), st.integers(1, 5))
    def test_uniform_probabilities_always_valid(self, n, k):
        s = ScenarioSet(
            ("pv", "load", "member_demand"),
            np.zeros((n, 3, k)),
            np.full(n, 1.0 / n),
        )
        assert abs(s.probabilities.sum() - 1.0) <= 1e-9


class TestBid:
    def test_sell_quantity_over_export_limit(self):
        cfg = small_config(p_export_max=50.0)
        bid = Bid(hour=0, side="sell", price=0.2, quantity=51.0, submitted=True)
        assert any("exceeds limit" in p for p in validate_bid(bid, cfg))

    def test_buy_quantity_checked_against_import_limit(self):
        cfg = small_config(p_import_max=50.0)
        bid = Bid(hour=0, side="buy", price=0.1, quantity=49.0, submitted=True)
        assert validate_bid(bid, cfg) == []

    def test_unsubmitted_bid_must_be_zero(self):
        cfg = small_config()
        bid = Bid(hour=3, side="sell", price=0.2, quantity=1.0, submitted=False)
        assert any("non-submitted" in p for p in validate_bid(bid, cfg))

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError, match="side"):
            Bid(hour=0, side="hold", price=0.0, quantity=0.0, submitted=False)


def test_importing_the_package_loads_no_scipy():
    # scipy is imported inside the functions that use it. A module-level
    # import adds its load time to every command and to every benchmark
    # set-up (one scipy.linalg import once cost about 0.2 s there).
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, recbid; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
