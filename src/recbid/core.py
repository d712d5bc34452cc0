"""Shared domain records for the community bidding tool.

Everything here is an immutable value object: plant/market configuration,
hourly trajectories, weighted scenario sets, bids and the decided day-ahead
program. All energy quantities are kWh per hourly slot and all prices are
EUR per kWh; nothing in the package converts to kW.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PROB_TOL = 1e-9

ENERGY_CHANNELS = ("pv", "load", "member_demand")
PRICE_CHANNELS = ("price_sell_max", "price_buy_min")

_ENERGY_KINDS = frozenset(ENERGY_CHANNELS)
_PRICE_KINDS = frozenset(PRICE_CHANNELS + ("price_export", "price_import"))


@dataclass(frozen=True)
class RecConfig:
    """Plant, market and tuning constants for one community.

    Defaults describe a 50 kWp PV / 120 kW / 250 kWh community with a
    0.3..0.7 end-of-day battery window and the statutory 0.119 EUR/kWh
    shared-energy incentive. ``penalty_sell``/``penalty_buy`` and
    ``epsilon_max`` may be left unset; the optimizer derives them from the
    scenario data it is given.
    """

    horizon_hours: int = 24
    p_export_max: float = 200.0
    p_import_max: float = 200.0
    battery_capacity_kwh: float = 250.0
    battery_power_kwh_per_slot: float = 120.0
    eta_charge: float = 0.95
    eta_discharge: float = 0.95
    soc_initial: float = 0.5
    soc_final_min: float = 0.3
    soc_final_max: float = 0.7
    penalty_sell: float | None = None
    penalty_buy: float | None = None
    incentive_shared: float = 0.119
    epsilon_max: float | None = None
    renewable_only_charging: bool = True


# Each numeric field's allowed range: its description and its test. A field
# that may be unset (None) is checked only when set.
_FIELD_RANGES = {
    "horizon_hours": (">= 1", lambda x: x >= 1),
    "p_export_max": ("> 0", lambda x: x > 0),
    "p_import_max": ("> 0", lambda x: x > 0),
    # Zero-size battery is a legal degenerate plant (forces zero charge and
    # discharge); negative sizes are not.
    "battery_capacity_kwh": (">= 0", lambda x: x >= 0),
    "battery_power_kwh_per_slot": (">= 0", lambda x: x >= 0),
    "eta_charge": ("in (0, 1]", lambda x: 0.0 < x <= 1.0),
    "eta_discharge": ("in (0, 1]", lambda x: 0.0 < x <= 1.0),
    "soc_initial": ("in [0, 1]", lambda x: 0.0 <= x <= 1.0),
    "soc_final_min": ("in [0, 1]", lambda x: 0.0 <= x <= 1.0),
    "soc_final_max": ("in [0, 1]", lambda x: 0.0 <= x <= 1.0),
    "penalty_sell": (">= 0", lambda x: x >= 0),
    "penalty_buy": (">= 0", lambda x: x >= 0),
    "incentive_shared": (">= 0", lambda x: x >= 0),
    "epsilon_max": (">= 0", lambda x: x >= 0),
}


def validate_config(config: RecConfig) -> list[str]:
    """Return a description of every violated configuration invariant.

    An empty list means the configuration is usable. Each entry names the
    offending field and the bound it breaks, one entry per field: a NaN or
    infinite value is refused as not finite. Nothing is raised.
    """
    v: list[str] = []
    refused = set()
    for name, (wanted, ok) in _FIELD_RANGES.items():
        value = getattr(config, name)
        if value is None or (math.isfinite(value) and ok(value)):
            continue
        refused.add(name)
        wanted = wanted if math.isfinite(value) else "finite"
        v.append(f"{name} must be {wanted}, got {value}")
    low, high = config.soc_final_min, config.soc_final_max
    if not refused & {"soc_final_min", "soc_final_max"} and low > high:
        v.append(f"soc_final_min must be <= soc_final_max, got {low} > {high}")
    return v


# The JSON values a RecConfig field of each type takes: a float field any
# finite number but true or false, and only a field that may be unset null.
_JSON_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "float | None": ((int, float, type(None)), "a number or null"),
    "bool": ((bool,), "true or false"),
}


def load_config_json(path: str | Path) -> RecConfig:
    """Read a RecConfig from a JSON file with one key per field.

    An unknown key, or a value of the wrong JSON type for its field, is
    refused with a ValueError that names the key.
    """
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"a config file holds one JSON object, got {type(raw).__name__}")
    known = set(RecConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    wrong = []
    for key, value in raw.items():
        types, wanted = _JSON_TYPES[RecConfig.__dataclass_fields__[key].type]
        if type(value) not in types or (type(value) is float and not np.isfinite(value)):
            wrong.append(f"{key} must be {wanted}, got {json.dumps(value)}")
    if wrong:
        raise ValueError("; ".join(wrong))
    return RecConfig(**raw)


@dataclass(frozen=True)
class DayTrajectory:
    """One hourly series over the horizon: an energy or a price channel."""

    values: np.ndarray
    kind: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValueError(f"trajectory values must be 1-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"trajectory {self.kind!r} contains non-finite values")
        if self.kind in _ENERGY_KINDS and np.any(values < 0):
            raise ValueError(f"energy trajectory {self.kind!r} contains negative values")
        if self.kind in _PRICE_KINDS and np.any(values < 0):
            raise ValueError(f"price trajectory {self.kind!r} contains negative values")
        if self.kind not in _ENERGY_KINDS and self.kind not in _PRICE_KINDS:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ScenarioSet:
    """Equal-length multi-channel trajectories with occurrence probabilities.

    ``values`` has shape (n_scenarios, n_channels, horizon); probabilities
    are non-negative and sum to one within ``PROB_TOL``.
    """

    channels: tuple[str, ...]
    values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        probs = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probabilities", probs)
        if values.ndim != 3:
            raise ValueError(f"scenario values must be 3-D, got shape {values.shape}")
        n, c, _ = values.shape
        if c != len(self.channels):
            raise ValueError(f"{len(self.channels)} channels declared but values carry {c}")
        if probs.shape != (n,):
            raise ValueError(f"{n} scenarios but {probs.shape} probabilities")
        if not np.all(np.isfinite(values)):
            raise ValueError("scenario values contain non-finite entries")
        if np.any(probs < 0):
            raise ValueError("scenario probabilities must be non-negative")
        if n and abs(probs.sum() - 1.0) > PROB_TOL:
            raise ValueError(f"scenario probabilities sum to {probs.sum()!r}, not 1")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def horizon(self) -> int:
        return self.values.shape[2]

    def channel(self, name: str) -> np.ndarray:
        """All scenarios of one channel, shape (n, horizon)."""
        return self.values[:, self.channels.index(name), :]


@dataclass(frozen=True)
class Bid:
    """A pay-as-bid offer for one hour: price plus baseline deviation."""

    hour: int
    side: str  # "sell" or "buy"
    price: float
    quantity: float
    submitted: bool

    def __post_init__(self):
        if self.side not in ("sell", "buy"):
            raise ValueError(f"bid side must be 'sell' or 'buy', got {self.side!r}")


def validate_bid(bid: Bid, config: RecConfig) -> list[str]:
    """Check one bid against the configured export/import limits."""
    v: list[str] = []
    if bid.quantity < 0:
        v.append(f"hour {bid.hour}: quantity must be >= 0, got {bid.quantity}")
    cap = config.p_export_max if bid.side == "sell" else config.p_import_max
    if bid.quantity > cap + 1e-9:
        v.append(f"hour {bid.hour}: {bid.side} quantity {bid.quantity} exceeds limit {cap}")
    if not bid.submitted and (bid.quantity != 0 or bid.price != 0):
        v.append(f"hour {bid.hour}: non-submitted bid must have zero price and quantity")
    return v


@dataclass(frozen=True)
class DayAheadProgram:
    """The decided plan: community baseline, battery baseline and bids.

    ``bids[k]`` is None for hours without a submitted bid. The price-choice
    matrices record which predicted clearing price each bid adopted; row k
    sums to one exactly when a bid is submitted at hour k.
    """

    rec_baseline: np.ndarray
    bess_baseline: np.ndarray
    bids: tuple[Bid | None, ...]
    sell_price_choice: np.ndarray
    buy_price_choice: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rec_baseline", np.asarray(self.rec_baseline, dtype=float))
        object.__setattr__(self, "bess_baseline", np.asarray(self.bess_baseline, dtype=float))
        object.__setattr__(self, "bids", tuple(self.bids))
        object.__setattr__(
            self, "sell_price_choice", np.asarray(self.sell_price_choice, dtype=float)
        )
        object.__setattr__(
            self, "buy_price_choice", np.asarray(self.buy_price_choice, dtype=float)
        )

    @property
    def horizon(self) -> int:
        return len(self.rec_baseline)


def validate_program(program: DayAheadProgram, prices: ScenarioSet, config: RecConfig) -> list[str]:
    """Cross-check a program against its price scenarios and config limits."""
    v: list[str] = []
    K = program.horizon
    if len(program.bids) != K or len(program.bess_baseline) != K:
        v.append("program series disagree on horizon length")
        return v
    sell_max = prices.channel("price_sell_max")
    buy_min = prices.channel("price_buy_min")
    for k in range(K):
        bid = program.bids[k]
        srow = program.sell_price_choice[k]
        brow = program.buy_price_choice[k]
        s_on = 1.0 if (bid is not None and bid.side == "sell") else 0.0
        b_on = 1.0 if (bid is not None and bid.side == "buy") else 0.0
        if abs(srow.sum() - s_on) > 1e-9:
            v.append(f"hour {k}: sell price choices sum to {srow.sum()}, expected {s_on}")
        if abs(brow.sum() - b_on) > 1e-9:
            v.append(f"hour {k}: buy price choices sum to {brow.sum()}, expected {b_on}")
        if bid is None:
            continue
        v.extend(validate_bid(bid, config))
        row, cand = (srow, sell_max) if bid.side == "sell" else (brow, buy_min)
        j = int(np.argmax(row))
        if abs(bid.price - cand[j, k]) > 1e-9:
            v.append(
                f"hour {k}: bid price {bid.price} does not equal the selected "
                f"scenario price {cand[j, k]}"
            )
    return v
