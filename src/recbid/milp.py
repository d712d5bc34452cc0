"""Day-ahead stochastic program materialized as a solver-agnostic MILP.

The builder turns a configuration plus price/energy scenario sets into an
explicit list of variables, linear rows and a linear objective. Acceptance
of a bid in each price scenario is encoded through precomputed 0/1
coefficient matrices (bid prices are restricted to the predicted clearing
prices, so no big-M reification is needed there); bilinear products of a
binary and a bounded continuous variable use the standard four-row
linearization with the tightest available bound.

Index convention: k = hour, s = price scenario, l = energy scenario,
j = candidate price choice (ranges over price scenarios).
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Bid,
    DayAheadProgram,
    DayTrajectory,
    RecConfig,
    ScenarioSet,
    validate_config,
)

FEAS_TOL = 1e-6
ROUND_TOL = 1e-5

CONTINUOUS = "continuous"
BINARY = "binary"


class BuildError(ValueError):
    """Raised when the model inputs violate a documented invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class RowView(Sequence):
    """Read-only sequence of an instance's rows as ``(name, terms, sense, rhs)``.

    ``terms`` is the row's ``((vid, coef), ...)`` tuple sorted by variable id.
    Each tuple is built when it is read; the instance keeps only flat buffers.
    """

    def __init__(self, inst: MilpInstance):
        self._inst = inst

    def __len__(self) -> int:
        return len(self._inst.row_names)

    def __getitem__(self, i: int):
        inst = self._inst
        i = range(len(self))[i]
        lo, hi = inst.row_ptr[i], inst.row_ptr[i + 1]
        terms = tuple(zip(inst.row_cols[lo:hi], inst.row_vals[lo:hi]))
        return inst.row_names[i], terms, inst.row_senses[i], inst.row_rhs[i]

    def __iter__(self):
        inst = self._inst
        cols, vals, ptr = inst.row_cols, inst.row_vals, inst.row_ptr
        rows = zip(inst.row_names, inst.row_senses, inst.row_rhs, ptr, ptr[1:])
        for name, sense, rhs, lo, hi in rows:
            yield name, tuple(zip(cols[lo:hi], vals[lo:hi])), sense, rhs


@dataclass
class MilpInstance:
    """Materialized MILP: variables, rows, objective and symbol lookups.

    Rows live in flat CSR-style buffers: row ``i`` has the terms
    ``row_cols[row_ptr[i]:row_ptr[i + 1]]`` / ``row_vals[...]``, sorted by
    variable id. Tuples of Python ints and floats per term would take several
    times the memory of these 16 bytes per nonzero.
    """

    names: list[str] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    lb: list[float] = field(default_factory=list)
    ub: list[float] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    objective_constant: float = 0.0
    index: dict[str, dict[tuple, int]] = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    row_names: list[str] = field(default_factory=list)
    row_senses: list[str] = field(default_factory=list)
    row_rhs: array = field(default_factory=lambda: array("d"))
    row_ptr: array = field(default_factory=lambda: array("q", [0]))
    row_cols: array = field(default_factory=lambda: array("q"))
    row_vals: array = field(default_factory=lambda: array("d"))

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @property
    def n_rows(self) -> int:
        return len(self.row_names)

    @property
    def rows(self) -> RowView:
        return RowView(self)

    def add_var(self, sym: str, idx: tuple, name: str, kind: str, lo: float, hi: float) -> int:
        vid = len(self.names)
        self.names.append(name)
        self.kinds.append(kind)
        self.lb.append(lo)
        self.ub.append(hi)
        self.index.setdefault(sym, {})[idx] = vid
        return vid

    def add_row(self, name: str, terms, sense: str, rhs: float) -> None:
        """Append a row; duplicate terms are summed and zero inputs dropped.

        ``sense`` is one of ``<=``, ``>=`` and ``=``; any other is refused.
        """
        if sense not in ("<=", ">=", "="):
            raise ValueError(f"row {name!r} has sense {sense!r}, not <=, >= or =")
        coeffs: dict[int, float] = {}
        for vid, coef in terms:
            if coef != 0.0:
                coeffs[vid] = coeffs.get(vid, 0.0) + coef
        cols = sorted(coeffs)
        self.row_cols.extend(cols)
        self.row_vals.extend([coeffs[vid] for vid in cols])
        self.row_ptr.append(len(self.row_cols))
        self.row_names.append(name)
        self.row_senses.append(sense)
        self.row_rhs.append(rhs)

    def var(self, sym: str, *idx) -> int:
        return self.index[sym][tuple(idx)]

    def binary_ids(self) -> list[int]:
        return [i for i, k in enumerate(self.kinds) if k == BINARY]

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.n_vars)
        for vid, coef in self.objective.items():
            c[vid] = coef
        return c

    def sparse_rows(self):
        """(A, senses, b) of the rows, A as a CSR matrix.

        The one rows-to-matrix conversion: every array consumer (in-process
        HiGHS, dense solvers, the audit, the reference oracle) starts from
        it. Built on demand from copies of the row buffers: later
        ``add_row`` calls are seen, and an array whose buffer is exported
        could not grow.
        """
        from scipy import sparse

        A = sparse.csr_matrix(
            (np.array(self.row_vals), np.array(self.row_cols), np.array(self.row_ptr)),
            shape=(self.n_rows, self.n_vars),
        )
        return A, list(self.row_senses), np.array(self.row_rhs)

    def evaluate_objective(self, values: np.ndarray) -> float:
        total = self.objective_constant
        for vid, coef in self.objective.items():
            total += coef * values[vid]
        return float(total)


def acceptance_matrices(prices: ScenarioSet) -> tuple[np.ndarray, np.ndarray]:
    """0/1 acceptance coefficients per (hour, scenario, price choice).

    Sell entry (k, s, j) is 1 when candidate price j clears in scenario s,
    i.e. the candidate does not exceed scenario s's maximum accepted sell
    price; buy entries use the mirrored non-strict comparison against the
    minimum accepted purchase price.
    """
    sell = prices.channel("price_sell_max")  # (n_m, K)
    buy = prices.channel("price_buy_min")
    a_sell = (sell[None, :, :] <= sell[:, None, :]).transpose(2, 0, 1).astype(float)
    a_buy = (buy[None, :, :] >= buy[:, None, :]).transpose(2, 0, 1).astype(float)
    return a_sell, a_buy


def epsilon_default(energies: ScenarioSet) -> float:
    """Widest cross-scenario spread of the hourly net balance."""
    net = (
        energies.channel("pv") - energies.channel("load") - energies.channel("member_demand")
    )  # (n_r, K)
    return float((net.max(axis=0) - net.min(axis=0)).max())


def resolve_penalties(config: RecConfig, prices: ScenarioSet) -> tuple[float, float]:
    sell_max = prices.channel("price_sell_max")
    buy_min = prices.channel("price_buy_min")
    p_plus = config.penalty_sell if config.penalty_sell is not None else 1.1 * sell_max.max()
    p_minus = config.penalty_buy if config.penalty_buy is not None else 0.9 * buy_min.min()
    violations = []
    if not p_plus > sell_max.max():
        violations.append(
            f"penalty_sell ({p_plus}) must exceed every sell clearing price "
            f"(max {sell_max.max()})"
        )
    if not p_minus < buy_min.min():
        violations.append(
            f"penalty_buy ({p_minus}) must be below every buy clearing price "
            f"(min {buy_min.min()})"
        )
    if violations:
        raise BuildError(violations)
    return float(p_plus), float(p_minus)


def build_instance(
    config: RecConfig,
    prices: ScenarioSet,
    energies: ScenarioSet,
    known_prices: tuple[DayTrajectory, DayTrajectory],
    soc_initial: float | None = None,
    allow_bids: bool = True,
) -> MilpInstance:
    """Materialize the full day-ahead program.

    ``known_prices`` is the (export, import) tariff pair for the day.
    ``soc_initial`` overrides the configured initial state of charge, which
    lets a rolling simulation chain days together. ``allow_bids=False``
    pins every bid decision to zero and models one price scenario.

    Exclusivity binaries that some optimum provably never needs are not
    created (proofs in ``encode_energy_balance``). ``inst.data`` records
    the decision: ``"base_netting"`` holds, per hour, whether that hour's
    ``base_exp_on`` was left out (import tariff at least the export tariff),
    and ``"exchange_netting"`` whether every ``exp_on`` was (zero
    shared-energy incentive).

    Without bids, the recourse blocks are built for price scenario 0 alone,
    with probability 1; ``inst.data["price_collapse"]`` records that, and
    ``"n_m"`` is then 1 while ``"n_m_full"`` keeps the given count. The
    optimum is unchanged. With ``sell_on`` and ``buy_on`` at upper bound 0,
    the rows force ``sell_qty``, ``buy_qty``, the picks, the per-pick
    quantities, ``acc_*``, ``award_*`` and ``act_*`` to 0, and ``short_*``
    to 0 through ``short_* <= award_*``. What is left of a (k, s, l) block
    has no coefficient or right-hand side that depends on s: ``res``,
    ``load`` and ``md`` depend on l, the tariffs on k, and the penalties
    multiply only the zero shortfalls. So s enters only through the
    objective weight pm[s] pr[l], and for fixed first-stage variables
    (``base_rec``, ``base_bess``) the n_m blocks are copies of one problem.
    The full objective is then sum_s pm[s] f(base, y_s) with sum_s pm[s] =
    1: it is at most max_y f(base, y), which the one block weighted by 1
    attains, and that block's solution repeated across s attains it in the
    full model. The penalties are still resolved from every price scenario,
    and ``extract_program`` and ``planned_soc_paths`` return the full
    model's shapes.
    """
    violations = validate_config(config)
    if violations:
        raise BuildError(violations)

    K = config.horizon_hours
    if prices.channels != ("price_sell_max", "price_buy_min"):
        raise BuildError([f"price scenario channels are {prices.channels}"])
    if energies.channels != ("pv", "load", "member_demand"):
        raise BuildError([f"energy scenario channels are {energies.channels}"])
    if prices.horizon != K or energies.horizon != K:
        raise BuildError(
            [f"scenario horizons ({prices.horizon}, {energies.horizon}) differ from K={K}"]
        )
    ce, ci = known_prices
    if ce.kind != "price_export" or ci.kind != "price_import":
        raise BuildError(["known_prices must be (price_export, price_import) trajectories"])
    if len(ce) != K or len(ci) != K:
        raise BuildError([f"known price lengths ({len(ce)}, {len(ci)}) differ from K={K}"])

    p_plus, p_minus = resolve_penalties(config, prices)
    n_m_full = prices.n
    if not allow_bids:
        prices = ScenarioSet(prices.channels, prices.values[:1], np.ones(1))
    eps = config.epsilon_max if config.epsilon_max is not None else epsilon_default(energies)
    soc0 = config.soc_initial if soc_initial is None else float(soc_initial)
    if not 0.0 <= soc0 <= 1.0:
        raise BuildError([f"soc_initial must be in [0, 1], got {soc0}"])

    n_m, n_r = prices.n, energies.n
    pe, pi = config.p_export_max, config.p_import_max
    res = energies.channel("pv")
    load = energies.channel("load")
    md = energies.channel("member_demand")
    md_max = float(md.max()) if md.size else 0.0
    eb = config.battery_capacity_kwh
    pb = config.battery_power_kwh_per_slot if eb > 0 else 0.0
    m_rec = pe + pi + md_max + eps
    m_bess = pb + max(pe, pi) + eps
    base_netting = ci.values >= ce.values
    exchange_netting = config.incentive_shared == 0.0

    inst = MilpInstance()
    inst.data = {
        "K": K,
        "n_m": n_m,
        "n_m_full": n_m_full,
        "n_r": n_r,
        "config": config,
        "soc_initial": soc0,
        "penalty_sell": p_plus,
        "penalty_buy": p_minus,
        "epsilon_max": eps,
        "sell_max": prices.channel("price_sell_max").copy(),
        "buy_min": prices.channel("price_buy_min").copy(),
        "pm": prices.probabilities.copy(),
        "pr": energies.probabilities.copy(),
        "res": res.copy(),
        "load": load.copy(),
        "md": md.copy(),
        "ce": ce.values.copy(),
        "ci": ci.values.copy(),
        "allow_bids": allow_bids,
        "price_collapse": not allow_bids,
        "base_netting": base_netting,
        "exchange_netting": exchange_netting,
    }

    bid_hi = 1.0 if allow_bids else 0.0
    for k in range(K):
        inst.add_var("sell_qty", (k,), f"sell_qty_k{k}", CONTINUOUS, 0.0, pe)
        inst.add_var("buy_qty", (k,), f"buy_qty_k{k}", CONTINUOUS, 0.0, pi)
        inst.add_var("sell_on", (k,), f"sell_on_k{k}", BINARY, 0.0, bid_hi)
        inst.add_var("buy_on", (k,), f"buy_on_k{k}", BINARY, 0.0, bid_hi)
        inst.add_var("base_rec", (k,), f"base_rec_k{k}", CONTINUOUS, -m_rec, m_rec)
        inst.add_var("base_bess", (k,), f"base_bess_k{k}", CONTINUOUS, -m_bess, m_bess)
    for k in range(K):
        for j in range(n_m):
            inst.add_var("pick_sell", (k, j), f"pick_sell_k{k}_j{j}", BINARY, 0.0, bid_hi)
            inst.add_var("pick_buy", (k, j), f"pick_buy_k{k}_j{j}", BINARY, 0.0, bid_hi)
            inst.add_var("qty_pick_sell", (k, j), f"qty_pick_sell_k{k}_j{j}", CONTINUOUS, 0.0, pe)
            inst.add_var("qty_pick_buy", (k, j), f"qty_pick_buy_k{k}_j{j}", CONTINUOUS, 0.0, pi)
    for k in range(K):
        for s in range(n_m):
            # Acceptance and activity flags are affinely pinned to the pick
            # and on binaries, so they stay 0/1 without a binary marker.
            inst.add_var("acc_sell", (k, s), f"acc_sell_k{k}_s{s}", CONTINUOUS, 0.0, 1.0)
            inst.add_var("acc_buy", (k, s), f"acc_buy_k{k}_s{s}", CONTINUOUS, 0.0, 1.0)
            inst.add_var("award_sell", (k, s), f"award_sell_k{k}_s{s}", CONTINUOUS, 0.0, pe)
            inst.add_var("award_buy", (k, s), f"award_buy_k{k}_s{s}", CONTINUOUS, 0.0, pi)
            inst.add_var("act_sell", (k, s), f"act_sell_k{k}_s{s}", CONTINUOUS, 0.0, 1.0)
            inst.add_var("act_buy", (k, s), f"act_buy_k{k}_s{s}", CONTINUOUS, 0.0, 1.0)
    for k in range(K):
        for s in range(n_m):
            for l in range(n_r):
                suf = f"k{k}_s{s}_l{l}"
                inst.add_var("exp", (k, s, l), f"exp_{suf}", CONTINUOUS, 0.0, pe)
                inst.add_var("imp", (k, s, l), f"imp_{suf}", CONTINUOUS, 0.0, pi)
                if not exchange_netting:
                    inst.add_var("exp_on", (k, s, l), f"exp_on_{suf}", BINARY, 0.0, 1.0)
                inst.add_var("base_exp", (k, s, l), f"base_exp_{suf}", CONTINUOUS, 0.0, pe)
                inst.add_var("base_imp", (k, s, l), f"base_imp_{suf}", CONTINUOUS, 0.0, pi)
                if not base_netting[k]:
                    inst.add_var(
                        "base_exp_on", (k, s, l), f"base_exp_on_{suf}", BINARY, 0.0, 1.0
                    )
                inst.add_var(
                    "rec", (k, s, l), f"rec_{suf}", CONTINUOUS, -(pi + md_max), pe
                )
                inst.add_var("short_sell", (k, s, l), f"short_sell_{suf}", CONTINUOUS, 0.0, pe)
                inst.add_var("short_buy", (k, s, l), f"short_buy_{suf}", CONTINUOUS, 0.0, pi)
                inst.add_var("shift_up", (k, s, l), f"shift_up_{suf}", CONTINUOUS, 0.0, eps)
                inst.add_var("shift_dn", (k, s, l), f"shift_dn_{suf}", CONTINUOUS, 0.0, eps)
                inst.add_var("resv_up", (k, s, l), f"resv_up_{suf}", CONTINUOUS, 0.0, eps)
                inst.add_var("resv_dn", (k, s, l), f"resv_dn_{suf}", CONTINUOUS, 0.0, eps)
                inst.add_var("chg", (k, s, l), f"chg_{suf}", CONTINUOUS, 0.0, pb)
                inst.add_var("dis", (k, s, l), f"dis_{suf}", CONTINUOUS, 0.0, pb)
                inst.add_var("chg_on", (k, s, l), f"chg_on_{suf}", BINARY, 0.0, 1.0)
                # Without exp_on, the member-demand cap on shared energy is
                # a bound (see encode_shared_energy).
                shared_hi = min(pe, float(md[l, k])) if exchange_netting else pe
                inst.add_var("shared", (k, s, l), f"shared_{suf}", CONTINUOUS, 0.0, shared_hi)
    if eb > 0:
        for k in range(K):
            if k == K - 1:
                lo, hi = config.soc_final_min * eb, config.soc_final_max * eb
            else:
                lo, hi = 0.0, eb
            for s in range(n_m):
                for l in range(n_r):
                    inst.add_var("soc", (k, s, l), f"soc_k{k}_s{s}_l{l}", CONTINUOUS, lo, hi)

    encode_bidding(inst, config)
    encode_acceptance(inst, prices)
    encode_energy_balance(inst, config, energies)
    encode_relaxation_logic(inst, config)
    encode_storage(inst, config, energies)
    encode_shared_energy(inst, config)
    encode_objective(inst, config, prices, energies, known_prices)
    return inst


def encode_bidding(inst: MilpInstance, config: RecConfig) -> None:
    """Bid quantity gating, the one-bid-per-hour rule and price-choice sums."""
    K = inst.data["K"]
    n_m = inst.data["n_m"]
    for k in range(K):
        inst.add_row(
            f"sell_qty_cap_k{k}",
            [(inst.var("sell_qty", k), 1.0), (inst.var("sell_on", k), -config.p_export_max)],
            "<=",
            0.0,
        )
        inst.add_row(
            f"buy_qty_cap_k{k}",
            [(inst.var("buy_qty", k), 1.0), (inst.var("buy_on", k), -config.p_import_max)],
            "<=",
            0.0,
        )
        inst.add_row(
            f"one_bid_k{k}",
            [(inst.var("sell_on", k), 1.0), (inst.var("buy_on", k), 1.0)],
            "<=",
            1.0,
        )
        inst.add_row(
            f"pick_sell_sum_k{k}",
            [(inst.var("pick_sell", k, j), 1.0) for j in range(n_m)]
            + [(inst.var("sell_on", k), -1.0)],
            "=",
            0.0,
        )
        inst.add_row(
            f"pick_buy_sum_k{k}",
            [(inst.var("pick_buy", k, j), 1.0) for j in range(n_m)]
            + [(inst.var("buy_on", k), -1.0)],
            "=",
            0.0,
        )


def encode_acceptance(inst: MilpInstance, prices: ScenarioSet) -> None:
    """Scenario acceptance flags and the awarded-quantity products."""
    K, n_m = inst.data["K"], inst.data["n_m"]
    config = inst.data["config"]
    pe, pi = config.p_export_max, config.p_import_max
    a_sell, a_buy = acceptance_matrices(prices)
    inst.data["a_sell"], inst.data["a_buy"] = a_sell, a_buy
    for k in range(K):
        for s in range(n_m):
            inst.add_row(
                f"acc_sell_def_k{k}_s{s}",
                [(inst.var("acc_sell", k, s), 1.0)]
                + [
                    (inst.var("pick_sell", k, j), -a_sell[k, s, j])
                    for j in range(n_m)
                    if a_sell[k, s, j]
                ],
                "=",
                0.0,
            )
            inst.add_row(
                f"acc_buy_def_k{k}_s{s}",
                [(inst.var("acc_buy", k, s), 1.0)]
                + [
                    (inst.var("pick_buy", k, j), -a_buy[k, s, j])
                    for j in range(n_m)
                    if a_buy[k, s, j]
                ],
                "=",
                0.0,
            )
    for k in range(K):
        for s in range(n_m):
            _product_rows(
                inst,
                f"award_sell_k{k}_s{s}",
                inst.var("award_sell", k, s),
                inst.var("sell_qty", k),
                inst.var("acc_sell", k, s),
                pe,
            )
            _product_rows(
                inst,
                f"award_buy_k{k}_s{s}",
                inst.var("award_buy", k, s),
                inst.var("buy_qty", k),
                inst.var("acc_buy", k, s),
                pi,
            )
    # Couple each award to the per-pick quantity products. Exact whenever
    # the picks are integral (at most one pick is active), and it removes
    # the relaxation's freedom to collect several prices for one quantity.
    for k in range(K):
        for s in range(n_m):
            inst.add_row(
                f"award_sell_link_k{k}_s{s}",
                [(inst.var("award_sell", k, s), 1.0)]
                + [
                    (inst.var("qty_pick_sell", k, j), -a_sell[k, s, j])
                    for j in range(n_m)
                    if a_sell[k, s, j]
                ],
                "=",
                0.0,
            )
            inst.add_row(
                f"award_buy_link_k{k}_s{s}",
                [(inst.var("award_buy", k, s), 1.0)]
                + [
                    (inst.var("qty_pick_buy", k, j), -a_buy[k, s, j])
                    for j in range(n_m)
                    if a_buy[k, s, j]
                ],
                "=",
                0.0,
            )


def _product_rows(inst, stem, prod, cont, flag, bound):
    """prod = flag * cont for binary flag and cont in [0, bound]."""
    inst.add_row(f"{stem}_le_qty", [(prod, 1.0), (cont, -1.0)], "<=", 0.0)
    inst.add_row(f"{stem}_le_flag", [(prod, 1.0), (flag, -bound)], "<=", 0.0)
    inst.add_row(f"{stem}_ge", [(prod, 1.0), (cont, -1.0), (flag, -bound)], ">=", -bound)


def encode_energy_balance(inst: MilpInstance, config: RecConfig, energies: ScenarioSet) -> None:
    """Facility balance, exchange identity, service balance and error caps.

    The export/import pairs (``exp``, ``imp``) and (``base_exp``,
    ``base_imp``) each have a binary that forbids exporting and importing
    in the same scenario hour, through two cap rows. Where the netting
    argument below holds, the binary and its cap rows are left out; the
    variables' own bounds [0, p_export_max] and [0, p_import_max] carry the
    caps. The model without them is a relaxation of the model with them,
    so it suffices that from any of its feasible points one can reach a
    point of the full model whose objective is no worse: subtract
    delta = min(export, import) from both flows, which leaves one of them
    zero, and set the binary to whether the export is positive.

    - ``base_exp_on[k, s, l]`` when ``ci[k] >= ce[k]``. ``base_exp`` and
      ``base_imp`` enter the rows only as ``base_exp - base_imp``, in
      ``base_balance``, so netting keeps every row and bound. They enter
      the maximized objective as w (ce[k] base_exp - ci[k] base_imp) with
      w = pm[s] pr[l] >= 0, which netting changes by
      w delta (ci[k] - ce[k]) >= 0.
    - ``exp_on[k, s, l]`` when the shared-energy incentive is zero. ``exp``
      and ``imp`` enter ``cf_balance``, ``rec_identity`` and
      ``base_balance`` only as ``exp - imp``, and have no objective term;
      their one other row is ``shared <= exp``. With a zero incentive
      ``shared`` has no objective term either and can be set to 0, so
      netting keeps every row and the objective. ``shared``'s
      member-demand row then needs no binary (``encode_shared_energy``).
    """
    K, n_m, n_r = inst.data["K"], inst.data["n_m"], inst.data["n_r"]
    res, load = inst.data["res"], inst.data["load"]
    md = inst.data["md"]
    pe, pi = config.p_export_max, config.p_import_max
    base_netting = inst.data["base_netting"]
    exchange_netting = inst.data["exchange_netting"]
    for k in range(K):
        for s in range(n_m):
            for l in range(n_r):
                suf = f"k{k}_s{s}_l{l}"
                v = lambda sym: inst.var(sym, k, s, l)  # noqa: E731
                inst.add_row(
                    f"cf_balance_{suf}",
                    [(v("exp"), 1.0), (v("imp"), -1.0), (v("dis"), -1.0), (v("chg"), 1.0)],
                    "=",
                    res[l, k] - load[l, k],
                )
                if not exchange_netting:
                    inst.add_row(
                        f"export_cap_{suf}", [(v("exp"), 1.0), (v("exp_on"), -pe)], "<=", 0.0
                    )
                    inst.add_row(
                        f"import_cap_{suf}", [(v("imp"), 1.0), (v("exp_on"), pi)], "<=", pi
                    )
                inst.add_row(
                    f"rec_identity_{suf}",
                    [(v("rec"), 1.0), (v("exp"), -1.0), (v("imp"), 1.0)],
                    "=",
                    -md[l, k],
                )
                inst.add_row(
                    f"rec_service_{suf}",
                    [
                        (v("rec"), 1.0),
                        (inst.var("base_rec", k), -1.0),
                        (v("shift_up"), -1.0),
                        (v("shift_dn"), 1.0),
                        (inst.var("award_sell", k, s), -1.0),
                        (v("short_sell"), 1.0),
                        (inst.var("award_buy", k, s), 1.0),
                        (v("short_buy"), -1.0),
                    ],
                    "=",
                    0.0,
                )
                inst.add_row(
                    f"short_sell_cap_{suf}",
                    [(v("short_sell"), 1.0), (inst.var("award_sell", k, s), -1.0)],
                    "<=",
                    0.0,
                )
                inst.add_row(
                    f"short_buy_cap_{suf}",
                    [(v("short_buy"), 1.0), (inst.var("award_buy", k, s), -1.0)],
                    "<=",
                    0.0,
                )
                inst.add_row(
                    f"base_balance_{suf}",
                    [
                        (v("exp"), 1.0),
                        (v("imp"), -1.0),
                        (v("base_exp"), -1.0),
                        (v("base_imp"), 1.0),
                        (inst.var("award_sell", k, s), -1.0),
                        (v("short_sell"), 1.0),
                        (inst.var("award_buy", k, s), 1.0),
                        (v("short_buy"), -1.0),
                    ],
                    "=",
                    0.0,
                )
                if not base_netting[k]:
                    inst.add_row(
                        f"base_export_cap_{suf}",
                        [(v("base_exp"), 1.0), (v("base_exp_on"), -pe)],
                        "<=",
                        0.0,
                    )
                    inst.add_row(
                        f"base_import_cap_{suf}",
                        [(v("base_imp"), 1.0), (v("base_exp_on"), pi)],
                        "<=",
                        pi,
                    )


def encode_relaxation_logic(inst: MilpInstance, config: RecConfig) -> None:
    """Active-service flags (accepted AND submitted) gating the slack ranges."""
    K, n_m, n_r = inst.data["K"], inst.data["n_m"], inst.data["n_r"]
    eps = inst.data["epsilon_max"]
    for k in range(K):
        for s in range(n_m):
            for side, on in (("sell", "sell_on"), ("buy", "buy_on")):
                act = inst.var(f"act_{side}", k, s)
                acc = inst.var(f"acc_{side}", k, s)
                b = inst.var(on, k)
                stem = f"act_{side}_k{k}_s{s}"
                inst.add_row(f"{stem}_ge", [(act, 1.0), (acc, -1.0), (b, -1.0)], ">=", -1.0)
                inst.add_row(f"{stem}_le_acc", [(act, 1.0), (acc, -1.0)], "<=", 0.0)
                inst.add_row(f"{stem}_le_on", [(act, 1.0), (b, -1.0)], "<=", 0.0)
    for k in range(K):
        for s in range(n_m):
            act_sell = inst.var("act_sell", k, s)
            act_buy = inst.var("act_buy", k, s)
            for l in range(n_r):
                suf = f"k{k}_s{s}_l{l}"
                inst.add_row(
                    f"shift_up_cap_{suf}",
                    [(inst.var("shift_up", k, s, l), 1.0), (act_buy, eps)],
                    "<=",
                    eps,
                )
                inst.add_row(
                    f"shift_dn_cap_{suf}",
                    [(inst.var("shift_dn", k, s, l), 1.0), (act_sell, eps)],
                    "<=",
                    eps,
                )
                inst.add_row(
                    f"resv_up_cap_{suf}",
                    [(inst.var("resv_up", k, s, l), 1.0), (act_sell, -eps)],
                    "<=",
                    0.0,
                )
                inst.add_row(
                    f"resv_dn_cap_{suf}",
                    [(inst.var("resv_dn", k, s, l), 1.0), (act_buy, -eps)],
                    "<=",
                    0.0,
                )


def encode_storage(inst: MilpInstance, config: RecConfig, energies: ScenarioSet) -> None:
    """Battery service coupling, charge exclusivity, state-of-charge recursion.

    With a battery, each (k, s, l) has a ``soc`` variable in kWh whose bounds
    carry the [0, capacity] window and, at the last hour, the terminal
    window; one balance row per step ties it to the previous step:
    soc_k - soc_{k-1} - eta_c chg_k + dis_k / eta_d = 0, with soc_{-1} the
    initial state moved to the right-hand side.
    """
    K, n_m, n_r = inst.data["K"], inst.data["n_m"], inst.data["n_r"]
    res = inst.data["res"]
    soc0 = inst.data["soc_initial"]
    eb = config.battery_capacity_kwh
    pb = config.battery_power_kwh_per_slot if eb > 0 else 0.0
    eta_c, eta_d = config.eta_charge, config.eta_discharge
    for k in range(K):
        for s in range(n_m):
            for l in range(n_r):
                suf = f"k{k}_s{s}_l{l}"
                v = lambda sym: inst.var(sym, k, s, l)  # noqa: E731
                inst.add_row(
                    f"bess_service_{suf}",
                    [
                        (v("dis"), 1.0),
                        (v("chg"), -1.0),
                        (inst.var("base_bess", k), -1.0),
                        (inst.var("award_sell", k, s), -1.0),
                        (inst.var("award_buy", k, s), 1.0),
                        (v("resv_up"), -1.0),
                        (v("resv_dn"), 1.0),
                    ],
                    "=",
                    0.0,
                )
                inst.add_row(f"charge_cap_{suf}", [(v("chg"), 1.0), (v("chg_on"), -pb)], "<=", 0.0)
                inst.add_row(
                    f"discharge_cap_{suf}", [(v("dis"), 1.0), (v("chg_on"), pb)], "<=", pb
                )
    if eb > 0:
        for s in range(n_m):
            for l in range(n_r):
                for k in range(K):
                    terms = [
                        (inst.var("soc", k, s, l), 1.0),
                        (inst.var("chg", k, s, l), -eta_c),
                        (inst.var("dis", k, s, l), 1.0 / eta_d),
                    ]
                    if k > 0:
                        terms.append((inst.var("soc", k - 1, s, l), -1.0))
                    rhs = soc0 * eb if k == 0 else 0.0
                    inst.add_row(f"soc_balance_k{k}_s{s}_l{l}", terms, "=", rhs)
    if config.renewable_only_charging:
        for k in range(K):
            for s in range(n_m):
                for l in range(n_r):
                    inst.add_row(
                        f"green_charge_k{k}_s{s}_l{l}",
                        [(inst.var("chg", k, s, l), 1.0)],
                        "<=",
                        res[l, k],
                    )


def encode_shared_energy(inst: MilpInstance, config: RecConfig) -> None:
    """Shared energy below the realized export and the members' demand.

    The demand cap is gated on the export indicator: equivalent for
    integral indicators (no export means no shared energy anyway) and much
    tighter in the LP relaxation. Without ``exp_on`` (zero incentive, see
    ``encode_energy_balance``) the cap is the bound of ``shared`` instead.
    """
    K, n_m, n_r = inst.data["K"], inst.data["n_m"], inst.data["n_r"]
    md = inst.data["md"]
    for k in range(K):
        for s in range(n_m):
            for l in range(n_r):
                suf = f"k{k}_s{s}_l{l}"
                shared = inst.var("shared", k, s, l)
                inst.add_row(
                    f"shared_le_export_{suf}",
                    [(shared, 1.0), (inst.var("exp", k, s, l), -1.0)],
                    "<=",
                    0.0,
                )
                if not inst.data["exchange_netting"]:
                    inst.add_row(
                        f"shared_cap_{suf}",
                        [(shared, 1.0), (inst.var("exp_on", k, s, l), -md[l, k])],
                        "<=",
                        0.0,
                    )


def encode_objective(
    inst: MilpInstance,
    config: RecConfig,
    prices: ScenarioSet,
    energies: ScenarioSet,
    known_prices: tuple[DayTrajectory, DayTrajectory],
) -> None:
    """Expected cash flow, with pay-as-bid revenue linearized per price pick."""
    K, n_m, n_r = inst.data["K"], inst.data["n_m"], inst.data["n_r"]
    pm, pr = inst.data["pm"], inst.data["pr"]
    ce, ci = inst.data["ce"], inst.data["ci"]
    p_plus, p_minus = inst.data["penalty_sell"], inst.data["penalty_buy"]
    sell_max, buy_min = inst.data["sell_max"], inst.data["buy_min"]
    a_sell, a_buy = inst.data["a_sell"], inst.data["a_buy"]
    pe, pi = config.p_export_max, config.p_import_max
    gamma = config.incentive_shared

    for k in range(K):
        for j in range(n_m):
            _product_rows(
                inst,
                f"qty_pick_sell_k{k}_j{j}",
                inst.var("qty_pick_sell", k, j),
                inst.var("sell_qty", k),
                inst.var("pick_sell", k, j),
                pe,
            )
            _product_rows(
                inst,
                f"qty_pick_buy_k{k}_j{j}",
                inst.var("qty_pick_buy", k, j),
                inst.var("buy_qty", k),
                inst.var("pick_buy", k, j),
                pi,
            )
    # One pick at most is active per hour, so the per-pick quantities sum
    # to the bid quantity at every integral point; stating that as a row
    # keeps the relaxation from splitting one quantity across prices.
    for k in range(K):
        inst.add_row(
            f"qty_pick_sell_sum_k{k}",
            [(inst.var("qty_pick_sell", k, j), 1.0) for j in range(n_m)]
            + [(inst.var("sell_qty", k), -1.0)],
            "=",
            0.0,
        )
        inst.add_row(
            f"qty_pick_buy_sum_k{k}",
            [(inst.var("qty_pick_buy", k, j), 1.0) for j in range(n_m)]
            + [(inst.var("buy_qty", k), -1.0)],
            "=",
            0.0,
        )

    obj = inst.objective
    pr_total = float(pr.sum())
    for k in range(K):
        for s in range(n_m):
            for l in range(n_r):
                w = pm[s] * pr[l]
                obj[inst.var("base_exp", k, s, l)] = obj.get(inst.var("base_exp", k, s, l), 0.0) + w * ce[k]
                obj[inst.var("base_imp", k, s, l)] = obj.get(inst.var("base_imp", k, s, l), 0.0) - w * ci[k]
                if gamma:
                    obj[inst.var("shared", k, s, l)] = obj.get(inst.var("shared", k, s, l), 0.0) + w * gamma
                obj[inst.var("short_sell", k, s, l)] = obj.get(inst.var("short_sell", k, s, l), 0.0) - w * p_plus
                obj[inst.var("short_buy", k, s, l)] = obj.get(inst.var("short_buy", k, s, l), 0.0) + w * p_minus
    # Pay-as-bid service terms: award times chosen price, expanded over the
    # price picks. The energy-scenario probabilities sum out.
    for k in range(K):
        for j in range(n_m):
            sell_coef = pr_total * sum(pm[s] * a_sell[k, s, j] for s in range(n_m)) * sell_max[j, k]
            buy_coef = pr_total * sum(pm[s] * a_buy[k, s, j] for s in range(n_m)) * buy_min[j, k]
            if sell_coef:
                vid = inst.var("qty_pick_sell", k, j)
                obj[vid] = obj.get(vid, 0.0) + sell_coef
            if buy_coef:
                vid = inst.var("qty_pick_buy", k, j)
                obj[vid] = obj.get(vid, 0.0) - buy_coef


@dataclass
class Solution:
    """Solver output for one instance."""

    status: str  # optimal | infeasible | unbounded | gap_limit
    objective_value: float | None
    values: np.ndarray | None
    mip_gap: float = 0.0
    nodes: int | None = None  # branch-and-bound nodes, None when the solver gave no count


def check_solution(inst: MilpInstance, values: np.ndarray, tol: float = FEAS_TOL) -> list[str]:
    """Independent audit: every row, bound and binary within tolerance."""
    v: list[str] = []
    values = np.asarray(values, dtype=float)
    if values.shape != (inst.n_vars,):
        return [f"solution has {values.shape} values for {inst.n_vars} variables"]
    lb = np.asarray(inst.lb)
    ub = np.asarray(inst.ub)
    low = np.flatnonzero(values < lb - tol)
    high = np.flatnonzero(values > ub + tol)
    for i in low:
        v.append(f"{inst.names[i]} = {values[i]} below lower bound {lb[i]}")
    for i in high:
        v.append(f"{inst.names[i]} = {values[i]} above upper bound {ub[i]}")
    for i in inst.binary_ids():
        if min(abs(values[i]), abs(values[i] - 1.0)) > tol:
            v.append(f"binary {inst.names[i]} = {values[i]} is fractional")
    A, senses, b = inst.sparse_rows()
    lhs = A @ values
    sense = np.array(senses, dtype=str)
    bad = (
        ((sense == "<=") & (lhs > b + tol))
        | ((sense == ">=") & (lhs < b - tol))
        | ((sense == "=") & (np.abs(lhs - b) > tol))
    )
    ops = {"<=": ">", ">=": "<", "=": "!="}
    for i in np.flatnonzero(bad):
        v.append(f"{inst.row_names[i]}: {float(lhs[i])} {ops[senses[i]]} {inst.row_rhs[i]}")
    return v


def round_binaries(inst: MilpInstance, values: np.ndarray) -> np.ndarray:
    """Snap binaries to 0/1; loud failure if that breaks any row."""
    out = np.asarray(values, dtype=float).copy()
    for i in inst.binary_ids():
        out[i] = round(out[i])
    bad = check_solution(inst, out, tol=ROUND_TOL)
    if bad:
        raise RuntimeError(
            "rounding binaries changed constraint residuals beyond "
            f"{ROUND_TOL}: {bad[:5]}"
        )
    return out


def extract_program(inst: MilpInstance, solution: Solution) -> DayAheadProgram:
    """Pull the declared baseline, battery plan and bids out of a solution."""
    if solution.status not in ("optimal", "gap_limit") or solution.values is None:
        raise ValueError(f"cannot extract a program from a {solution.status} solution")
    x = round_binaries(inst, solution.values)
    K, n_m = inst.data["K"], inst.data["n_m"]
    sell_max, buy_min = inst.data["sell_max"], inst.data["buy_min"]
    rec_base = np.array([x[inst.var("base_rec", k)] for k in range(K)])
    bess_base = np.array([x[inst.var("base_bess", k)] for k in range(K)])
    sell_choice = np.zeros((K, inst.data["n_m_full"]))
    buy_choice = np.zeros((K, inst.data["n_m_full"]))
    bids: list[Bid | None] = []
    for k in range(K):
        sell_on = x[inst.var("sell_on", k)] > 0.5
        buy_on = x[inst.var("buy_on", k)] > 0.5
        bid = None
        if sell_on:
            j = int(np.argmax([x[inst.var("pick_sell", k, jj)] for jj in range(n_m)]))
            sell_choice[k, j] = 1.0
            bid = Bid(
                hour=k,
                side="sell",
                price=float(sell_max[j, k]),
                quantity=float(x[inst.var("sell_qty", k)]),
                submitted=True,
            )
        elif buy_on:
            j = int(np.argmax([x[inst.var("pick_buy", k, jj)] for jj in range(n_m)]))
            buy_choice[k, j] = 1.0
            bid = Bid(
                hour=k,
                side="buy",
                price=float(buy_min[j, k]),
                quantity=float(x[inst.var("buy_qty", k)]),
                submitted=True,
            )
        bids.append(bid)
    return DayAheadProgram(
        rec_baseline=rec_base,
        bess_baseline=bess_base,
        bids=tuple(bids),
        sell_price_choice=sell_choice,
        buy_price_choice=buy_choice,
    )


def planned_soc_paths(inst: MilpInstance, values: np.ndarray) -> np.ndarray:
    """State-of-charge trajectory per (price, energy) scenario, shape
    (n_m_full, n_r, K+1).

    Entry 0 is the initial state; entry k + 1 is the solution's ``soc``
    variable after hour k, as a fraction of the battery capacity. A model
    with one price scenario in place of the set gives the same paths for
    every price scenario.
    """
    K, n_m, n_r = inst.data["K"], inst.data["n_m"], inst.data["n_r"]
    eb = inst.data["config"].battery_capacity_kwh
    paths = np.full((n_m, n_r, K + 1), inst.data["soc_initial"])
    if eb > 0:
        for (k, s, l), vid in inst.index["soc"].items():
            paths[s, l, k + 1] = values[vid] / eb
    return np.broadcast_to(paths, (inst.data["n_m_full"], n_r, K + 1)).copy()


def expected_cashflow(inst: MilpInstance, values: np.ndarray) -> dict[str, float]:
    """Planner-side expected cash-flow decomposition at a solution.

    Shared energy is re-derived as min(export, member demand) so the report
    stays meaningful when the incentive is zero and the solver leaves the
    shared variable anywhere below its cap.
    """
    K, n_m, n_r = inst.data["K"], inst.data["n_m"], inst.data["n_r"]
    pm, pr = inst.data["pm"], inst.data["pr"]
    ce, ci = inst.data["ce"], inst.data["ci"]
    md = inst.data["md"]
    config: RecConfig = inst.data["config"]
    out = {
        "export_revenue": 0.0,
        "import_cost": 0.0,
        "shared_incentive": 0.0,
        "msd_sell_revenue": 0.0,
        "msd_buy_cost": 0.0,
        "penalty_sell": 0.0,
        "penalty_buy_refund": 0.0,
    }
    sell_max, buy_min = inst.data["sell_max"], inst.data["buy_min"]
    for k in range(K):
        sell_price = sum(
            values[inst.var("pick_sell", k, j)] * sell_max[j, k] for j in range(n_m)
        )
        buy_price = sum(values[inst.var("pick_buy", k, j)] * buy_min[j, k] for j in range(n_m))
        for s in range(n_m):
            award_s = values[inst.var("award_sell", k, s)]
            award_b = values[inst.var("award_buy", k, s)]
            for l in range(n_r):
                w = pm[s] * pr[l]
                exp = values[inst.var("exp", k, s, l)]
                out["export_revenue"] += w * ce[k] * values[inst.var("base_exp", k, s, l)]
                out["import_cost"] += w * ci[k] * values[inst.var("base_imp", k, s, l)]
                out["shared_incentive"] += w * config.incentive_shared * min(exp, md[l, k])
                out["msd_sell_revenue"] += w * sell_price * award_s
                out["msd_buy_cost"] += w * buy_price * award_b
                out["penalty_sell"] += w * inst.data["penalty_sell"] * values[
                    inst.var("short_sell", k, s, l)
                ]
                out["penalty_buy_refund"] += w * inst.data["penalty_buy"] * values[
                    inst.var("short_buy", k, s, l)
                ]
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
