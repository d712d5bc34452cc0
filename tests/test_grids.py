"""The id grids of ``MilpInstance.index`` and the plan readers that index
solutions with them.

The readers are checked bit for bit against per-cell loops that look each
variable up with ``MilpInstance.var``, as the readers did before they read
whole grids.
"""

from pathlib import Path

import numpy as np
import pytest

from recbid.core import Bid, DayAheadProgram, RecConfig
from recbid.harness import CASES, RunSpec, day_inputs, load_week_data
from recbid.milp import (
    Solution,
    build_instance,
    expected_cashflow,
    extract_program,
    planned_soc_paths,
    round_binaries,
    spread_collapsed_plan,
)
from recbid.solver import solve_external

WEEK = load_week_data(Path(__file__).parents[1] / "data" / "synthetic_week")
PRICE_CHOICE_SYMBOLS = ("pick_sell", "pick_buy", "qty_pick_sell", "qty_pick_buy")


def bundled_day(case: str, day: int, n_m: int = 2, n_r: int = 1, allow_bids: bool | None = None):
    """The model of a bundled day, with bids as the case has them unless
    ``allow_bids`` says otherwise."""
    spec = RunSpec(config=RecConfig(), case=case, n_m=n_m, n_r=n_r, seed=0)
    config, bids, prices, energies, known = day_inputs(spec, WEEK, day)
    bids = bids if allow_bids is None else allow_bids
    return build_instance(
        config, prices, energies, known, soc_initial=config.soc_initial, allow_bids=bids
    )


# --- the per-cell readers -------------------------------------------------


def extract_program_by_cell(inst, solution) -> DayAheadProgram:
    x = round_binaries(inst, solution.values)
    K, n_m = inst.data["K"], inst.data["n_m"]
    sell_max, buy_min = inst.data["sell_max"], inst.data["buy_min"]
    rec_base = np.array([x[inst.var("base_rec", k)] for k in range(K)])
    bess_base = np.array([x[inst.var("base_bess", k)] for k in range(K)])
    sell_choice = np.zeros((K, inst.data["n_m_full"]))
    buy_choice = np.zeros((K, inst.data["n_m_full"]))
    bids = []
    for k in range(K):
        bid = None
        if x[inst.var("sell_on", k)] > 0.5:
            j = int(np.argmax([x[inst.var("pick_sell", k, jj)] for jj in range(n_m)]))
            sell_choice[k, j] = 1.0
            quantity = float(x[inst.var("sell_qty", k)])
            price = float(sell_max[j, k])
            bid = Bid(hour=k, side="sell", price=price, quantity=quantity, submitted=True)
        elif x[inst.var("buy_on", k)] > 0.5:
            j = int(np.argmax([x[inst.var("pick_buy", k, jj)] for jj in range(n_m)]))
            buy_choice[k, j] = 1.0
            quantity = float(x[inst.var("buy_qty", k)])
            price = float(buy_min[j, k])
            bid = Bid(hour=k, side="buy", price=price, quantity=quantity, submitted=True)
        bids.append(bid)
    return DayAheadProgram(
        rec_baseline=rec_base,
        bess_baseline=bess_base,
        bids=tuple(bids),
        sell_price_choice=sell_choice,
        buy_price_choice=buy_choice,
    )


def planned_soc_paths_by_cell(inst, values) -> np.ndarray:
    K, n_m, n_r = inst.data["K"], inst.data["n_m"], inst.data["n_r"]
    eb = inst.data["config"].battery_capacity_kwh
    paths = np.full((n_m, n_r, K + 1), inst.data["soc_initial"])
    if eb > 0:
        for k in range(K):
            for s in range(n_m):
                for l in range(n_r):
                    paths[s, l, k + 1] = values[inst.var("soc", k, s, l)] / eb
    return np.broadcast_to(paths, (inst.data["n_m_full"], n_r, K + 1)).copy()


def expected_cashflow_by_cell(inst, values) -> dict:
    d = inst.data
    K, n_m, n_r = d["K"], d["n_m"], d["n_r"]
    pm, pr, ce, ci, md = d["pm"], d["pr"], d["ce"], d["ci"], d["md"]
    out = dict.fromkeys(
        (
            "export_revenue", "import_cost", "shared_incentive", "msd_sell_revenue",
            "msd_buy_cost", "penalty_sell", "penalty_buy_refund",
        ),
        0.0,
    )
    for k in range(K):
        sell_price = sum(
            values[inst.var("pick_sell", k, j)] * d["sell_max"][j, k] for j in range(n_m)
        )
        buy_price = sum(values[inst.var("pick_buy", k, j)] * d["buy_min"][j, k] for j in range(n_m))
        for s in range(n_m):
            award_s = values[inst.var("award_sell", k, s)]
            award_b = values[inst.var("award_buy", k, s)]
            for l in range(n_r):
                w = pm[s] * pr[l]
                exp = values[inst.var("exp", k, s, l)]
                out["export_revenue"] += w * ce[k] * values[inst.var("base_exp", k, s, l)]
                out["import_cost"] += w * ci[k] * values[inst.var("base_imp", k, s, l)]
                out["shared_incentive"] += w * d["config"].incentive_shared * min(exp, md[l, k])
                out["msd_sell_revenue"] += w * sell_price * award_s
                out["msd_buy_cost"] += w * buy_price * award_b
                short_s = values[inst.var("short_sell", k, s, l)]
                short_b = values[inst.var("short_buy", k, s, l)]
                out["penalty_sell"] += w * d["penalty_sell"] * short_s
                out["penalty_buy_refund"] += w * d["penalty_buy"] * short_b
    out["net"] = (
        out["export_revenue"]
        - out["import_cost"]
        + out["shared_incentive"]
        + out["msd_sell_revenue"]
        - out["msd_buy_cost"]
        - out["penalty_sell"]
        + out["penalty_buy_refund"]
    )
    return out


def spread_collapsed_plan_by_cell(inst, collapsed, values) -> np.ndarray:
    out = np.empty(inst.n_vars)
    for sym, grid in inst.index.items():
        for idx in np.argwhere(grid >= 0).tolist():
            block0 = idx[:1] + [0] * (len(idx) > 1) + idx[2:]
            out[inst.var(sym, *idx)] = values[collapsed.var(sym, *block0)]
    return out


# --- the comparison ---------------------------------------------------------


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def bid_bits(bids) -> list:
    return [
        None if b is None else (b.hour, b.side, b.price.hex(), b.quantity.hex(), b.submitted)
        for b in bids
    ]


def assert_readers_match(inst, solution):
    program, reference = extract_program(inst, solution), extract_program_by_cell(inst, solution)
    assert bid_bits(program.bids) == bid_bits(reference.bids)
    for name in ("rec_baseline", "bess_baseline", "sell_price_choice", "buy_price_choice"):
        assert bits(getattr(program, name)) == bits(getattr(reference, name)), name
    paths = planned_soc_paths(inst, solution.values)
    assert bits(paths) == bits(planned_soc_paths_by_cell(inst, solution.values))
    cashflow = expected_cashflow(inst, solution.values)
    reference = expected_cashflow_by_cell(inst, solution.values)
    assert {key: float(v).hex() for key, v in cashflow.items()} == {
        key: float(v).hex() for key, v in reference.items()
    }


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("day", [0, 1])
def test_readers_match_the_per_cell_loops_on_highs_plans(case, day):
    inst = bundled_day(case, day)
    solution = solve_external(inst, None, time_limit_s=60.0, rel_gap=1e-6)
    assert solution.status == "optimal"
    assert_readers_match(inst, solution)


def test_readers_match_the_per_cell_loops_on_a_no_bid_fallback_plan():
    inst = bundled_day("base", 0)
    collapsed = bundled_day("base", 0, allow_bids=False)
    plan = solve_external(collapsed, None, time_limit_s=60.0, rel_gap=1e-6)
    values = spread_collapsed_plan(inst, collapsed, plan.values)
    assert bits(values) == bits(spread_collapsed_plan_by_cell(inst, collapsed, plan.values))
    solution = Solution("gap_limit", inst.evaluate_objective(values), values)
    assert_readers_match(inst, solution)


def test_spread_refuses_models_whose_cells_differ():
    inst = bundled_day("base", 0)
    collapsed = bundled_day("no_incentive", 0, allow_bids=False)  # no exp_on anywhere
    with pytest.raises(ValueError, match="^exp_on has variables in other cells"):
        spread_collapsed_plan(inst, collapsed, np.zeros(collapsed.n_vars))
    # Two price scenarios do not broadcast onto one.
    with pytest.raises(ValueError, match="broadcast"):
        spread_collapsed_plan(collapsed, inst, np.zeros(inst.n_vars))


# --- the grids --------------------------------------------------------------


@pytest.mark.parametrize(
    "case, day, n_m, n_r",
    [("base", 0, 10, 10)] + [(case, day, 2, 1) for case in CASES for day in (0, 1)],
)
def test_grids_hold_every_id_once_under_its_name(case, day, n_m, n_r):
    inst = bundled_day(case, day, n_m, n_r)
    ids = np.concatenate([grid[grid >= 0] for grid in inst.index.values()])
    assert np.array_equal(np.sort(ids), np.arange(inst.n_vars))
    names = np.array(inst.names, dtype=object)
    for sym, grid in inst.index.items():
        axes = "kj" if sym in PRICE_CHOICE_SYMBOLS else "ksl"[: grid.ndim]
        cells = np.argwhere(grid >= 0).tolist()
        expected = [sym + "_" + "_".join(map("{}{}".format, axes, idx)) for idx in cells]
        assert names[grid[grid >= 0]].tolist() == expected, sym


def test_var_refuses_cells_without_a_variable():
    inst = bundled_day("no_incentive", 0)
    assert (inst.index["exp_on"] == -1).all()
    assert inst.var("exp", 0, 1, 0) == inst.index["exp"][0, 1, 0]
    for sym, idx in (
        ("exp_on", (0, 0, 0)),  # no exp_on at a zero incentive
        ("exp", (-1, 0, 0)),  # numpy would read the last hour
        ("exp", (0, 2, 0)),  # two price scenarios
        ("exp", (24, 0, 0)),
        ("exp", (0, 0)),
        ("sell_on", (0, 0)),
        ("no_such_symbol", (0,)),
    ):
        with pytest.raises(KeyError):
            inst.var(sym, *idx)
