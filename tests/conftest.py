import os
from itertools import product

# The oracle's search path (and so its LP count) follows the last bits of
# BLAS results, and BLAS threads contending with a second process can slow
# it several-fold, so the suite runs BLAS on one thread. This must happen
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hypothesis  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402

from recbid.core import DayTrajectory, RecConfig, ScenarioSet  # noqa: E402
from recbid.milp import BINARY, CONTINUOUS, MilpInstance, build_instance  # noqa: E402

hypothesis.settings.register_profile(
    "suite", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("suite")


def small_config(K=3, **overrides) -> RecConfig:
    base = dict(
        horizon_hours=K,
        p_export_max=60.0,
        p_import_max=60.0,
        battery_capacity_kwh=80.0,
        battery_power_kwh_per_slot=30.0,
        eta_charge=0.95,
        eta_discharge=0.95,
        soc_initial=0.5,
        soc_final_min=0.3,
        soc_final_max=0.7,
        incentive_shared=0.119,
        renewable_only_charging=True,
    )
    base.update(overrides)
    return RecConfig(**base)


def price_set(sell, buy, probs=None) -> ScenarioSet:
    sell = np.atleast_2d(np.asarray(sell, dtype=float))
    buy = np.atleast_2d(np.asarray(buy, dtype=float))
    n = sell.shape[0]
    probs = np.full(n, 1.0 / n) if probs is None else np.asarray(probs, dtype=float)
    return ScenarioSet(
        channels=("price_sell_max", "price_buy_min"),
        values=np.stack([sell, buy], axis=1),
        probabilities=probs,
    )


def energy_set(pv, load, md, probs=None) -> ScenarioSet:
    pv = np.atleast_2d(np.asarray(pv, dtype=float))
    load = np.atleast_2d(np.asarray(load, dtype=float))
    md = np.atleast_2d(np.asarray(md, dtype=float))
    n = pv.shape[0]
    probs = np.full(n, 1.0 / n) if probs is None else np.asarray(probs, dtype=float)
    return ScenarioSet(
        channels=("pv", "load", "member_demand"),
        values=np.stack([pv, load, md], axis=1),
        probabilities=probs,
    )


def known_prices(ce, ci):
    return (
        DayTrajectory(np.asarray(ce, dtype=float), "price_export"),
        DayTrajectory(np.asarray(ci, dtype=float), "price_import"),
    )


def random_inputs(seed, K=3, nm=2, nr=2):
    """One member of the randomized community-instance family.

    Export tariffs sit below import tariffs and service prices are spread
    between them, which is the economically ordinary regime.
    """
    rng = np.random.default_rng(seed)
    cfg = small_config(
        K=K,
        p_export_max=float(rng.uniform(40, 80)),
        p_import_max=float(rng.uniform(40, 80)),
        battery_capacity_kwh=float(rng.choice([0.0, rng.uniform(40, 120)])),
        battery_power_kwh_per_slot=float(rng.uniform(10, 40)),
        eta_charge=float(rng.uniform(0.85, 1.0)),
        eta_discharge=float(rng.uniform(0.85, 1.0)),
        soc_initial=float(rng.uniform(0.3, 0.7)),
        soc_final_min=float(rng.uniform(0.0, 0.3)),
        soc_final_max=float(rng.uniform(0.7, 1.0)),
        incentive_shared=float(rng.choice([0.0, rng.uniform(0.05, 0.15)])),
        renewable_only_charging=bool(rng.integers(0, 2)),
    )
    sell = rng.uniform(0.15, 0.40, (nm, K))
    buy = rng.uniform(0.10, 0.16, (nm, K))
    prices = price_set(sell, buy)
    pv = rng.uniform(0.0, 35.0, (nr, K))
    pv[rng.random((nr, K)) < 0.2] = 0.0
    load = rng.uniform(2.0, 12.0, (nr, K))
    md = rng.uniform(5.0, 25.0, (nr, K))
    energies = energy_set(pv, load, md)
    kp = known_prices(rng.uniform(0.05, 0.09, K), rng.uniform(0.20, 0.30, K))
    return cfg, prices, energies, kp


def random_instance(seed, K=3, nm=2, nr=2):
    cfg, prices, energies, kp = random_inputs(seed, K=K, nm=nm, nr=nr)
    return build_instance(cfg, prices, energies, kp)


def tiny_inputs():
    """Battery-free single-hour inputs with a hand-checkable optimum."""
    cfg = small_config(
        K=1,
        p_export_max=50.0,
        p_import_max=50.0,
        battery_capacity_kwh=0.0,
        battery_power_kwh_per_slot=0.0,
        soc_final_min=0.0,
        soc_final_max=1.0,
        incentive_shared=0.0,
        epsilon_max=0.0,
        renewable_only_charging=False,
    )
    prices = price_set([[0.30]], [[0.10]])
    energies = energy_set([[40.0]], [[10.0]], [[20.0]])
    kp = known_prices([0.10], [0.25])
    return cfg, prices, energies, kp


@pytest.fixture
def tiny_instance():
    """Battery-free single-hour instance with a hand-checkable optimum."""
    return build_instance(*tiny_inputs())


def add_cell_binary(inst: MilpInstance, sym: str, idx: tuple) -> int:
    """Append ``sym``'s binary in (k, s, l) cell ``idx``, named as the
    builder names it, and enter it in ``sym``'s id grid."""
    vid = inst.add_var("{}_k{}_s{}_l{}".format(sym, *idx), BINARY, 0.0, 1.0)
    inst.index[sym][idx] = vid
    return vid


def with_exclusivity_binaries(inst: MilpInstance) -> MilpInstance:
    """Put back, in place, the exclusivity binaries and cap rows that
    build_instance leaves out where its netting conditions hold, appended
    after the built variables and rows.

    The result is the model as built before those conditions were checked
    (only the order of variables and rows differs), which the tests use as
    the reference for the reduced model's optimum.
    """
    d = inst.data
    pe, pi = d["config"].p_export_max, d["config"].p_import_max
    for k in range(d["K"]):
        for s in range(d["n_m"]):
            for l in range(d["n_r"]):
                suf = f"k{k}_s{s}_l{l}"
                idx = (k, s, l)
                if d["exchange_netting"]:
                    on = add_cell_binary(inst, "exp_on", idx)
                    exp, imp = inst.var("exp", *idx), inst.var("imp", *idx)
                    shared = inst.var("shared", *idx)
                    inst.add_row(f"export_cap_{suf}", [(exp, 1.0), (on, -pe)], "<=", 0.0)
                    inst.add_row(f"import_cap_{suf}", [(imp, 1.0), (on, pi)], "<=", pi)
                    inst.add_row(
                        f"shared_cap_{suf}", [(shared, 1.0), (on, -d["md"][l, k])], "<=", 0.0
                    )
                    inst.ub[shared] = pe
                if d["base_netting"][k]:
                    on = add_cell_binary(inst, "base_exp_on", idx)
                    exp, imp = inst.var("base_exp", *idx), inst.var("base_imp", *idx)
                    inst.add_row(f"base_export_cap_{suf}", [(exp, 1.0), (on, -pe)], "<=", 0.0)
                    inst.add_row(f"base_import_cap_{suf}", [(imp, 1.0), (on, pi)], "<=", pi)
    return inst


def with_big_m_caps(inst: MilpInstance) -> MilpInstance:
    """Put back, in place, the exchange caps and charge binaries of the model
    before its caps were taken from the energy balance.

    That model caps ``exp <= pe exp_on`` and ``imp <= pi (1 - exp_on)``
    wherever ``exp_on`` is built, has ``chg_on`` with ``chg <= pb chg_on``
    and ``dis <= pb (1 - chg_on)`` in every cell, the bound ``chg <= pb``,
    and, under renewable-only charging, a row ``chg <= res`` per cell. The
    built cap rows are dropped, and the old ones and the missing ``chg_on``
    appended after the built rows and variables; only the order of
    variables and rows differs from the old model, which the tests use as
    the reference for the strengthened model's optimum.
    """
    d = inst.data
    config = d["config"]
    pe, pi = config.p_export_max, config.p_import_max
    pb = d["battery_power"]
    strengthened = ("export_cap_", "import_cap_", "charge_cap_", "discharge_cap_")
    kept = [row for row in inst.rows if not row[0].startswith(strengthened)]
    empty = MilpInstance()
    for buffer in ("row_names", "row_senses", "row_rhs", "row_ptr", "row_cols", "row_vals"):
        setattr(inst, buffer, getattr(empty, buffer))
    for row in kept:
        inst.add_row(*row)
    for idx in product(range(d["K"]), range(d["n_m"]), range(d["n_r"])):
        k, _s, l = idx
        suf = "k{}_s{}_l{}".format(*idx)
        on = int(inst.index["exp_on"][idx])
        if on >= 0:
            exp, imp = inst.var("exp", *idx), inst.var("imp", *idx)
            inst.add_row(f"export_cap_{suf}", [(exp, 1.0), (on, -pe)], "<=", 0.0)
            inst.add_row(f"import_cap_{suf}", [(imp, 1.0), (on, pi)], "<=", pi)
        on = int(inst.index["chg_on"][idx])
        if on < 0:
            on = add_cell_binary(inst, "chg_on", idx)
        chg, dis = inst.var("chg", *idx), inst.var("dis", *idx)
        inst.add_row(f"charge_cap_{suf}", [(chg, 1.0), (on, -pb)], "<=", 0.0)
        inst.add_row(f"discharge_cap_{suf}", [(dis, 1.0), (on, pb)], "<=", pb)
        if config.renewable_only_charging:
            inst.add_row(f"green_charge_{suf}", [(chg, 1.0)], "<=", d["res"][l, k])
        inst.ub[chg] = pb
    return inst


def with_implied_rows(inst: MilpInstance) -> MilpInstance:
    """Put back, in place, the rows and variables that build_instance leaves
    out because the rows it builds imply them (proofs in the docstrings of
    milp.encode_bidding, encode_acceptance, encode_energy_balance,
    encode_relaxation_logic and encode_objective).

    That model caps ``sell_qty <= pe sell_on`` and ``buy_qty <= pi
    buy_on``; states each per-pick quantity as pick * quantity and each
    award as acc * quantity in the rows of the product linearization; has
    a flag ``act_*`` = acc AND on per (k, s), in three rows, which the
    slack caps read in place of ``acc_*``; and has a variable ``rec`` =
    exp - imp - md per (k, s, l), which ``rec_service`` reads in place of
    ``exp - imp`` with right-hand side 0. The slack caps and
    ``rec_service`` are rebuilt in place, and the rest is appended after
    the built variables and rows; only the order of variables and rows
    differs from the old model, which the tests use as the reference for
    the optimum of the model without them.
    """
    d = inst.data
    config = d["config"]
    pe, pi = config.p_export_max, config.p_import_max
    K, n_m, n_r = d["K"], d["n_m"], d["n_r"]
    caps = {"sell": pe, "buy": pi}
    for side in caps:
        grid = np.full((K, n_m), -1)
        for k, s in product(range(K), range(n_m)):
            grid[k, s] = inst.add_var(f"act_{side}_k{k}_s{s}", CONTINUOUS, 0.0, 1.0)
        inst.index[f"act_{side}"] = grid
    rec = np.full((K, n_m, n_r), -1)
    for idx in product(range(K), range(n_m), range(n_r)):
        name = "rec_k{}_s{}_l{}".format(*idx)
        rec[idx] = inst.add_var(name, CONTINUOUS, -(pi + float(d["md"].max())), pe)
    inst.index["rec"] = rec

    def pairs(frm, to):
        return dict(zip(inst.index[frm].ravel().tolist(), inst.index[to].ravel().tolist()))

    acc_to_act = {**pairs("acc_sell", "act_sell"), **pairs("acc_buy", "act_buy")}
    exp_to_rec = pairs("exp", "rec")
    imps = set(inst.index["imp"].ravel().tolist())
    slack_caps = ("shift_up_cap_", "shift_dn_cap_", "resv_up_cap_", "resv_dn_cap_")
    rows = []
    for name, terms, sense, rhs in inst.rows:
        if name.startswith(slack_caps):
            terms = [(acc_to_act.get(vid, vid), coef) for vid, coef in terms]
        elif name.startswith("rec_service_"):
            terms = [(exp_to_rec.get(vid, vid), coef) for vid, coef in terms if vid not in imps]
            rhs = 0.0
        rows.append((name, terms, sense, rhs))
    empty = MilpInstance()
    for buffer in ("row_names", "row_senses", "row_rhs", "row_ptr", "row_cols", "row_vals"):
        setattr(inst, buffer, getattr(empty, buffer))
    for row in rows:
        inst.add_row(*row)

    def product_rows(name, prod, qty, flag, cap):
        """Two rows of the product prod = flag * qty, for a 0/1 flag and
        qty in [0, cap]; the third, prod <= cap * flag, is built for the
        per-pick quantities and added below for the awards."""
        inst.add_row(f"{name}_le_qty", [(prod, 1.0), (qty, -1.0)], "<=", 0.0)
        inst.add_row(f"{name}_ge", [(prod, 1.0), (qty, -1.0), (flag, -cap)], ">=", -cap)

    for side, cap in caps.items():
        for k in range(K):
            qty, on = inst.var(f"{side}_qty", k), inst.var(f"{side}_on", k)
            inst.add_row(f"{side}_qty_cap_k{k}", [(qty, 1.0), (on, -cap)], "<=", 0.0)
            for j in range(n_m):
                q, pick = inst.var(f"qty_pick_{side}", k, j), inst.var(f"pick_{side}", k, j)
                product_rows(f"qty_pick_{side}_k{k}_j{j}", q, qty, pick, cap)
            for s in range(n_m):
                award, acc = inst.var(f"award_{side}", k, s), inst.var(f"acc_{side}", k, s)
                act, suf = inst.var(f"act_{side}", k, s), f"k{k}_s{s}"
                product_rows(f"award_{side}_{suf}", award, qty, acc, cap)
                inst.add_row(f"award_{side}_{suf}_le_flag", [(award, 1.0), (acc, -cap)], "<=", 0.0)
                inst.add_row(
                    f"act_{side}_{suf}_ge", [(act, 1.0), (acc, -1.0), (on, -1.0)], ">=", -1.0
                )
                inst.add_row(f"act_{side}_{suf}_le_acc", [(act, 1.0), (acc, -1.0)], "<=", 0.0)
                inst.add_row(f"act_{side}_{suf}_le_on", [(act, 1.0), (on, -1.0)], "<=", 0.0)
    for idx in product(range(K), range(n_m), range(n_r)):
        k, _s, l = idx
        terms = [(inst.var(sym, *idx), coef) for sym, coef in (("rec", 1), ("exp", -1), ("imp", 1))]
        inst.add_row("rec_identity_k{}_s{}_l{}".format(*idx), terms, "=", -d["md"][l, k])
    return inst


def with_bids_pinned(inst: MilpInstance) -> MilpInstance:
    """Pin, in place, every bid binary (``sell_on``, ``buy_on``,
    ``pick_sell``, ``pick_buy``) of a model built with bids to 0.

    The result is the no-bid model over every price scenario, which the
    tests use as the reference for the optimum of the one-scenario model
    that ``build_instance(..., allow_bids=False)`` builds.
    """
    for sym in ("sell_on", "buy_on", "pick_sell", "pick_buy"):
        grid = inst.index[sym]
        for vid in grid[grid >= 0].tolist():
            inst.ub[vid] = 0.0
    return inst
