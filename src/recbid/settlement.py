"""Ex-post market settlement: acceptance, real-time dispatch, cash flow.

The day-ahead program fixes the baseline and the bids; once the clearing
prices and the actual pv/load/member-demand realize, acceptance is decided
per hour, the battery greedily corrects toward the committed exchange, and
the cash flow is settled with penalties on undelivered service.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import DayAheadProgram, RecConfig


def decide_acceptance(
    bids, realized_sell_max: np.ndarray, realized_buy_min: np.ndarray
) -> list[bool]:
    """Pay-as-bid acceptance per hour against the realized clearing prices.

    A sell bid clears when its price does not exceed the hour's maximum
    accepted sell price; a buy bid clears when its price is at least the
    hour's minimum accepted purchase price. Both comparisons are non-strict.
    """
    realized_sell_max = np.asarray(realized_sell_max, dtype=float)
    realized_buy_min = np.asarray(realized_buy_min, dtype=float)
    out = []
    for k, bid in enumerate(bids):
        if bid is None or not bid.submitted:
            out.append(False)
        elif bid.side == "sell":
            out.append(bool(bid.price <= realized_sell_max[k]))
        else:
            out.append(bool(bid.price >= realized_buy_min[k]))
    return out


@dataclass(frozen=True)
class DispatchResult:
    """Realized hourly operation after the greedy battery correction."""

    charge: np.ndarray
    discharge: np.ndarray
    grid_export: np.ndarray
    grid_import: np.ndarray
    rec_exchange: np.ndarray
    shortfall_sell: np.ndarray
    shortfall_buy: np.ndarray
    soc: np.ndarray  # length K+1, starting state first
    member_demand: np.ndarray
    pv: np.ndarray
    load: np.ndarray


def realtime_dispatch(
    program: DayAheadProgram,
    accepted,
    pv: np.ndarray,
    load: np.ndarray,
    member_demand: np.ndarray,
    config: RecConfig,
    soc_initial: float | None = None,
) -> DispatchResult:
    """Run the day against realized energies with a greedy hourly rule.

    Each hour the battery moves from its planned baseline by exactly the
    correction that would land the community exchange on its committed
    target (baseline plus any accepted deviation), clipped to the power
    rating, the state-of-charge window and, when configured, the renewable
    charging limit. Whatever correction was clipped away surfaces as a
    service shortfall on accepted hours; unaccepted hours carry no penalty.
    """
    pv = np.asarray(pv, dtype=float)
    load = np.asarray(load, dtype=float)
    member_demand = np.asarray(member_demand, dtype=float)
    K = program.horizon
    if not (len(pv) == len(load) == len(member_demand) == K):
        raise ValueError("realized series length differs from the program horizon")
    eb = config.battery_capacity_kwh
    pb = config.battery_power_kwh_per_slot if eb > 0 else 0.0
    soc = config.soc_initial if soc_initial is None else float(soc_initial)

    charge = np.zeros(K)
    discharge = np.zeros(K)
    exp = np.zeros(K)
    imp = np.zeros(K)
    rec = np.zeros(K)
    e_sell = np.zeros(K)
    e_buy = np.zeros(K)
    soc_path = np.empty(K + 1)
    soc_path[0] = soc

    for k in range(K):
        bid = program.bids[k]
        target = float(program.rec_baseline[k])
        if accepted[k] and bid is not None:
            target += bid.quantity if bid.side == "sell" else -bid.quantity
        # Net discharge that would hit the target exactly.
        need = target + member_demand[k] - pv[k] + load[k]
        net = float(np.clip(need, -pb, pb))
        if eb > 0:
            if net > 0:
                net = min(net, soc * eb * config.eta_discharge)
            else:
                headroom = (1.0 - soc) * eb / config.eta_charge
                if config.renewable_only_charging:
                    headroom = min(headroom, pv[k])
                net = max(net, -headroom)
        else:
            net = 0.0
        discharge[k] = max(net, 0.0)
        charge[k] = max(-net, 0.0)
        if eb > 0:
            soc += (config.eta_charge * charge[k] - discharge[k] / config.eta_discharge) / eb
            soc = min(max(soc, 0.0), 1.0)
        soc_path[k + 1] = soc

        cf = pv[k] - load[k] + discharge[k] - charge[k]
        exp[k] = max(cf, 0.0)
        imp[k] = max(-cf, 0.0)
        rec[k] = exp[k] - imp[k] - member_demand[k]
        if accepted[k] and bid is not None:
            if bid.side == "sell":
                e_sell[k] = float(np.clip(target - rec[k], 0.0, bid.quantity))
            else:
                e_buy[k] = float(np.clip(rec[k] - target, 0.0, bid.quantity))
    return DispatchResult(
        charge=charge,
        discharge=discharge,
        grid_export=exp,
        grid_import=imp,
        rec_exchange=rec,
        shortfall_sell=e_sell,
        shortfall_buy=e_buy,
        soc=soc_path,
        member_demand=member_demand,
        pv=pv,
        load=load,
    )


@dataclass(frozen=True)
class CashFlowReport:
    """Hourly settlement decomposition; all amounts in EUR."""

    export_revenue: np.ndarray
    import_cost: np.ndarray
    shared_incentive: np.ndarray
    msd_sell_revenue: np.ndarray
    msd_buy_cost: np.ndarray
    penalty_sell: np.ndarray
    penalty_buy_refund: np.ndarray

    @property
    def net(self) -> np.ndarray:
        return (
            self.export_revenue
            - self.import_cost
            + self.shared_incentive
            + self.msd_sell_revenue
            - self.msd_buy_cost
            - self.penalty_sell
            + self.penalty_buy_refund
        )

    def totals(self) -> dict[str, float]:
        """Each component's day total, in field order, then the net's."""
        out = {f.name: float(getattr(self, f.name).sum()) for f in fields(self)}
        out["net"] = float(self.net.sum())
        return out


def settle(
    dispatch: DispatchResult,
    program: DayAheadProgram,
    accepted,
    price_export: np.ndarray,
    price_import: np.ndarray,
    config: RecConfig,
    penalty_sell: float,
    penalty_buy: float,
) -> CashFlowReport:
    """Realized cash flow: energy trade, shared incentive, service terms.

    Shared energy is the hourly minimum of realized export and realized
    member demand; accepted bids are paid (or pay) their own price on the
    full awarded quantity, with shortfalls penalized at ``penalty_sell``
    and refunded at ``penalty_buy``.
    """
    price_export = np.asarray(price_export, dtype=float)
    price_import = np.asarray(price_import, dtype=float)
    K = program.horizon
    export_revenue = dispatch.grid_export * price_export
    import_cost = dispatch.grid_import * price_import
    shared = np.minimum(dispatch.grid_export, dispatch.member_demand)
    shared_incentive = shared * config.incentive_shared
    sell_rev = np.zeros(K)
    buy_cost = np.zeros(K)
    for k in range(K):
        bid = program.bids[k]
        if accepted[k] and bid is not None:
            if bid.side == "sell":
                sell_rev[k] = bid.price * bid.quantity
            else:
                buy_cost[k] = bid.price * bid.quantity
    return CashFlowReport(
        export_revenue=export_revenue,
        import_cost=import_cost,
        shared_incentive=shared_incentive,
        msd_sell_revenue=sell_rev,
        msd_buy_cost=buy_cost,
        penalty_sell=dispatch.shortfall_sell * penalty_sell,
        penalty_buy_refund=dispatch.shortfall_buy * penalty_buy,
    )


def report_to_dict(report: CashFlowReport) -> dict:
    """JSON-ready structure with hourly series and totals, keyed as
    ``totals`` keys them."""
    hourly = {f.name: [float(v) for v in getattr(report, f.name)] for f in fields(report)}
    hourly["net"] = [float(v) for v in report.net]
    return {"hourly": hourly, "totals": report.totals()}
