from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recbid.core import ENERGY_CHANNELS, ScenarioSet
from recbid.harness import load_week_data
from recbid.scenarios import (
    DmcModel,
    build_price_scenarios,
    fast_forward_select,
    fit_dmc,
    load_energy_csv,
    load_price_csv,
    reduce_scenarios,
    reduction_distance,
    sample_scenarios,
)


def two_day_toy_history():
    # 2-hour days; pv alternates between the two bins, load and demand are
    # constant so the joint state is just the pv bin.
    pv = [0.0, 10.0, 10.0, 0.0]
    load = [5.0] * 4
    md = [7.0] * 4
    return np.column_stack([pv, load, md])


class TestFitDmc:
    def test_constant_history_is_a_self_loop(self):
        history = np.tile([3.0, 5.0, 7.0], (4 * 6, 1))
        model = fit_dmc(history, bins_per_channel=4, horizon=6)
        state = model.encode_state(model.bin_values([3.0, 5.0, 7.0]))
        for hour in range(6):
            nxt, probs = model.row(hour, state)
            assert list(nxt) == [state]
            assert probs.tolist() == [1.0]

    def test_hand_counted_two_day_toy(self):
        model = fit_dmc(two_day_toy_history(), bins_per_channel=2, horizon=2)
        assert model.n_bins == (2, 1, 1)
        lo = model.encode_state(model.bin_values([0.0, 5.0, 7.0]))
        hi = model.encode_state(model.bin_values([10.0, 5.0, 7.0]))
        assert {lo, hi} == {0, 1}
        # Hand count: hour0 transitions 0->1 and 1->0, hour1 has 1->1 only.
        nxt, p = model.row(0, lo)
        assert list(nxt) == [hi] and p.tolist() == [1.0]
        nxt, p = model.row(0, hi)
        assert list(nxt) == [lo] and p.tolist() == [1.0]
        nxt, p = model.row(1, hi)
        assert list(nxt) == [hi] and p.tolist() == [1.0]
        # Never observed: falls back to a self-transition.
        nxt, p = model.row(1, lo)
        assert list(nxt) == [lo] and p.tolist() == [1.0]

    def test_representatives_are_bin_means(self):
        model = fit_dmc(two_day_toy_history(), bins_per_channel=2, horizon=2)
        state_hi = model.encode_state(model.bin_values([10.0, 5.0, 7.0]))
        assert model.state_values(state_hi).tolist() == [10.0, 5.0, 7.0]

    def test_array_states_match_scalar_results(self):
        model = fit_dmc(np.random.default_rng(4).uniform(0, 9, (48, 3)), bins_per_channel=3)
        states = np.arange(model.n_states(), dtype=np.int64)[::-1].copy()
        before = states.copy()
        bins = model.decode_state(states)
        for c, channel in enumerate(bins):
            assert channel.tolist() == [model.decode_state(int(s))[c] for s in states]
        values = model.state_values(states)
        assert values.shape == (len(states), 3)
        assert np.array_equal(values, np.stack([model.state_values(int(s)) for s in states]))
        assert np.array_equal(states, before)

    def test_negative_energy_rejected(self):
        history = two_day_toy_history()
        history[1, 0] = -1.0
        with pytest.raises(ValueError, match="negative"):
            fit_dmc(history, bins_per_channel=2, horizon=2)

    def test_nan_rejected(self):
        history = two_day_toy_history()
        history[2, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            fit_dmc(history, bins_per_channel=2, horizon=2)

    def test_partial_day_rejected(self):
        with pytest.raises(ValueError, match="whole number"):
            fit_dmc(np.ones((5, 3)), bins_per_channel=2, horizon=2)

    def test_single_day_rejected(self):
        with pytest.raises(ValueError, match="two days"):
            fit_dmc(np.ones((2, 3)), bins_per_channel=2, horizon=2)


def two_state_model(p_stay: float) -> DmcModel:
    """Single-hour chain over two pv bins with stay probability p_stay."""
    return DmcModel(
        horizon=1,
        bin_edges=(np.array([0.5]), np.array([]), np.array([])),
        representatives=(np.array([0.0, 1.0]), np.array([5.0]), np.array([7.0])),
        transitions=(
            {
                0: (np.array([0, 1]), np.array([p_stay, 1 - p_stay])),
                1: (np.array([0, 1]), np.array([1 - p_stay, p_stay])),
            },
        ),
    )


def reference_sample(model, initial_state, count, horizon, seed, initial_hour=None):
    """One ``rng.choice`` per step and trajectory: the sampler's definition."""
    K = horizon
    h0 = model.horizon - 1 if initial_hour is None else initial_hour
    values = np.empty((count, len(ENERGY_CHANNELS), K))
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        state = initial_state
        hour = h0
        for t in range(K):
            nxt, probs = model.row(hour, state)
            state = int(nxt[rng.choice(len(nxt), p=probs)])
            hour = (hour + 1) % model.horizon
            values[i, :, t] = model.state_values(state)
    return values


WEEK_DIR = Path(__file__).resolve().parents[1] / "data" / "synthetic_week"


def week_chain(day):
    """The chain and initial state the harness samples day ``day`` from."""
    week = load_week_data(WEEK_DIR, 24)
    rows = np.vstack([week.energy_history, week.realized_energy[: day * week.horizon]])
    model = fit_dmc(rows, bins_per_channel=10, horizon=week.horizon)
    return model, model.encode_state(model.bin_values(rows[-1]))


class TestSamplerMatchesChoice:
    """Bit-identical to the per-trajectory ``rng.choice`` loop, so fixed-seed
    outputs do not move; a numpy change to ``choice`` fails here."""

    @pytest.mark.parametrize("day", [0, 6])
    @pytest.mark.parametrize("seed", [0, 1, 1009])
    def test_bundled_week_chain(self, day, seed):
        model, state = week_chain(day)
        got = sample_scenarios(model, state, count=300, horizon=24, seed=seed)
        want = reference_sample(model, state, 300, 24, seed)
        assert got.values.tobytes() == want.tobytes()

    def test_dead_end_state_falls_back_to_self_loop(self):
        # State 1 has no row at hour 1; the fallback step still uses up one
        # uniform, or every later random step would shift.
        model = two_state_model(0.4)
        model = DmcModel(
            horizon=2,
            bin_edges=model.bin_edges,
            representatives=model.representatives,
            transitions=(model.transitions[0], {0: model.transitions[0][0]}),
        )
        assert model.row(1, 1)[0].tolist() == [1]
        got = sample_scenarios(model, 0, count=50, horizon=8, seed=3)
        want = reference_sample(model, 0, 50, 8, 3)
        assert got.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("initial_hour", [0, 5, 17])
    def test_other_initial_hour(self, initial_hour):
        model, state = week_chain(3)
        got = sample_scenarios(
            model, state, count=60, horizon=24, seed=7, initial_hour=initial_hour
        )
        want = reference_sample(model, state, 60, 24, 7, initial_hour=initial_hour)
        assert got.values.tobytes() == want.tobytes()

    def test_horizon_wraps_past_model_horizon(self):
        model, state = week_chain(2)
        got = sample_scenarios(model, state, count=40, horizon=60, seed=11)
        want = reference_sample(model, state, 40, 60, 11)
        assert got.values.tobytes() == want.tobytes()

    def test_single_trajectory(self):
        model, state = week_chain(5)
        got = sample_scenarios(model, state, count=1, horizon=24, seed=2)
        want = reference_sample(model, state, 1, 24, 2)
        assert got.values.tobytes() == want.tobytes()


class TestSampling:
    def test_shape_probabilities_and_channels(self):
        model = fit_dmc(two_day_toy_history(), bins_per_channel=2, horizon=2)
        out = sample_scenarios(model, 0, count=300, horizon=2, seed=5)
        assert out.n == 300
        assert out.horizon == 2
        assert out.channels == ENERGY_CHANNELS
        assert np.allclose(out.probabilities, 1.0 / 300)

    def test_same_seed_is_bit_identical(self):
        model = two_state_model(0.5)
        a = sample_scenarios(model, 0, count=40, horizon=4, seed=9)
        b = sample_scenarios(model, 0, count=40, horizon=4, seed=9)
        assert np.array_equal(a.values, b.values)
        c = sample_scenarios(model, 0, count=40, horizon=4, seed=10)
        assert not np.array_equal(a.values, c.values)

    def test_degenerate_model_yields_identical_scenarios(self):
        history = np.tile([3.0, 5.0, 7.0], (4, 1))
        model = fit_dmc(history, bins_per_channel=2, horizon=2)
        state = model.encode_state(model.bin_values([3.0, 5.0, 7.0]))
        out = sample_scenarios(model, state, count=7, horizon=2, seed=0)
        assert np.allclose(out.values, out.values[0])

    def test_transition_frequencies_converge(self):
        model = two_state_model(0.3)
        out = sample_scenarios(model, 0, count=10000, horizon=2, seed=123)
        pv = out.channel("pv")
        first = pv[:, 0] > 0.5
        second = pv[:, 1] > 0.5
        # First step leaves state 0: P(state 1) should be 0.7.
        assert abs(first.mean() - 0.7) < 0.05
        stay1 = second[first].mean()
        stay0 = (~second[~first]).mean()
        assert abs(stay1 - 0.3) < 0.05
        assert abs(stay0 - 0.3) < 0.05

    def test_bad_initial_state(self):
        model = two_state_model(0.5)
        with pytest.raises(ValueError, match="initial_state"):
            sample_scenarios(model, 99, count=1, horizon=1, seed=0)

    def test_count_must_be_positive(self):
        model = two_state_model(0.5)
        with pytest.raises(ValueError, match="count"):
            sample_scenarios(model, 0, count=0, horizon=1, seed=0)


class TestPriceScenarios:
    def test_thirty_days_uniform(self):
        rng = np.random.default_rng(0)
        pairs = [(rng.uniform(0.1, 0.3, 24), rng.uniform(0.02, 0.1, 24)) for _ in range(30)]
        out = build_price_scenarios(pairs)
        assert out.n == 30
        assert np.allclose(out.probabilities, 1.0 / 30)
        assert out.channels == ("price_sell_max", "price_buy_min")

    def test_single_day(self):
        out = build_price_scenarios([(np.ones(4), np.zeros(4))])
        assert out.n == 1
        assert out.probabilities.tolist() == [1.0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            build_price_scenarios([(np.ones(24), np.ones(24)), (np.ones(23), np.ones(24))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            build_price_scenarios([])


def random_set(rng, n, channels=3, K=6):
    names = ("pv", "load", "member_demand")[:channels]
    values = rng.uniform(0, 30, (n, channels, K))
    return ScenarioSet(names, values, np.full(n, 1.0 / n))


class TestReduction:
    def test_identity_at_full_target(self):
        rng = np.random.default_rng(3)
        s = random_set(rng, 8)
        out = reduce_scenarios(s, 8)
        assert np.array_equal(out.values, s.values)
        assert np.allclose(out.probabilities, s.probabilities)

    def test_duplicates_merge_with_summed_probability(self):
        base = np.arange(12, dtype=float).reshape(1, 3, 4)
        other = base + 40.0
        values = np.concatenate([base, other, base.copy()])
        s = ScenarioSet(("pv", "load", "member_demand"), values, [1 / 3, 1 / 3, 1 / 3])
        out = reduce_scenarios(s, 2)
        kept = sorted(fast_forward_select(s, 2))
        assert kept == [0, 1]
        merged = out.probabilities[kept.index(0)]
        assert abs(merged - 2 / 3) < 1e-12
        assert abs(out.probabilities.sum() - 1.0) <= 1e-9

    def test_subset_and_mass_conservation_300_to_10(self):
        rng = np.random.default_rng(11)
        s = random_set(rng, 300, K=24)
        out = reduce_scenarios(s, 10)
        assert out.n == 10
        inputs = {s.values[i].tobytes() for i in range(s.n)}
        for i in range(out.n):
            assert out.values[i].tobytes() in inputs
        assert abs(out.probabilities.sum() - 1.0) <= 1e-9

    def test_fast_forward_objective_monotone_in_target(self):
        rng = np.random.default_rng(5)
        s = random_set(rng, 14)
        distances = []
        for target in range(1, 15):
            kept = fast_forward_select(s, target)
            distances.append(reduction_distance(s, kept))
        assert all(a >= b - 1e-12 for a, b in zip(distances, distances[1:]))
        assert distances[-1] == 0.0

    def test_target_out_of_range(self):
        rng = np.random.default_rng(1)
        s = random_set(rng, 4)
        with pytest.raises(ValueError, match="target"):
            reduce_scenarios(s, 0)
        with pytest.raises(ValueError, match="target"):
            reduce_scenarios(s, 5)

    @given(st.integers(0, 10_000), st.integers(1, 9), st.integers(1, 9))
    def test_mass_conserved_for_any_target(self, seed, n, target):
        if target > n:
            target = n
        rng = np.random.default_rng(seed)
        s = random_set(rng, n, K=3)
        out = reduce_scenarios(s, target)
        assert out.n == target
        assert abs(out.probabilities.sum() - 1.0) <= 1e-9
        assert np.all(out.probabilities >= 0)


class TestCsvLoaders:
    def test_energy_roundtrip(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text(
            "timestamp,pv_kwh,load_kwh,member_demand_kwh\n"
            "2022-01-01T00:00,1.5,2.0,3.25\n"
            "2022-01-01T01:00,0.0,2.5,3.75\n"
        )
        arr = load_energy_csv(p)
        assert arr.shape == (2, 3)
        assert arr[0].tolist() == [1.5, 2.0, 3.25]

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("time,pv,load,md\n1,2,3,4\n")
        with pytest.raises(ValueError, match="header"):
            load_energy_csv(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text(
            "timestamp,msd_sell_max_eur_kwh,msd_buy_min_eur_kwh\n2022-01-01T00:00,0.2,oops\n"
        )
        with pytest.raises(ValueError, match="non-numeric"):
            load_price_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_price_csv(p)
