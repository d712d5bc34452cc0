"""Price and energy scenario construction.

Three generators feed the day-ahead optimizer:

* historical daily trajectories of service-market clearing prices, one
  scenario per day;
* a binned discrete Markov chain over the joint (pv, load, member demand)
  state, fitted per hour of day and sampled forward;
* fast-forward scenario reduction under the Kantorovich distance, used to
  shrink either set to the scenario count the optimizer can afford.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ENERGY_CHANNELS, PRICE_CHANNELS, ScenarioSet

ENERGY_CSV_HEADER = ["timestamp", "pv_kwh", "load_kwh", "member_demand_kwh"]
PRICE_CSV_HEADER = ["timestamp", "msd_sell_max_eur_kwh", "msd_buy_min_eur_kwh"]
KNOWN_PRICE_CSV_HEADER = ["timestamp", "export_price_eur_kwh", "import_price_eur_kwh"]


@dataclass(frozen=True)
class DmcModel:
    """Hour-indexed Markov chain over the joint binned energy state.

    ``transitions[h]`` maps a joint state observed at hour ``h`` to the
    states seen at the next hour, with their empirical counts. States with
    no recorded outgoing transition fall back to a self-transition when
    sampled, so sampling never dead-ends.
    """

    horizon: int
    bin_edges: tuple[np.ndarray, ...]
    representatives: tuple[np.ndarray, ...]
    transitions: tuple[dict[int, tuple[np.ndarray, np.ndarray]], ...]

    @property
    def n_bins(self) -> tuple[int, ...]:
        return tuple(len(e) + 1 for e in self.bin_edges)

    def encode_state(self, bins: tuple[int, ...]) -> int:
        state = 0
        for b, n in zip(reversed(bins), reversed(self.n_bins)):
            state = state * n + b
        return state

    def decode_state(self, state):
        """Per-channel bin indices of a joint state, or of an int array of
        states (one index array per channel); the input is not modified."""
        bins = []
        for n in self.n_bins:
            bins.append(state % n)
            state = state // n
        return tuple(bins)

    def bin_values(self, values) -> tuple[int, ...]:
        """Joint bin indices of one (pv, load, member_demand) observation."""
        return tuple(
            int(np.searchsorted(edges, v, side="left"))
            for edges, v in zip(self.bin_edges, np.asarray(values, dtype=float))
        )

    def state_values(self, state) -> np.ndarray:
        """Representative (pv, load, member_demand) of a state, shape (3,),
        or of an int array of states, shape ``state.shape + (3,)``."""
        bins = self.decode_state(state)
        return np.stack([rep[b] for rep, b in zip(self.representatives, bins)], axis=-1)

    def row(self, hour: int, state: int) -> tuple[np.ndarray, np.ndarray]:
        """Transition probabilities out of (hour, state), with fallback."""
        entry = self.transitions[hour % self.horizon].get(state)
        if entry is None:
            return np.array([state]), np.array([1.0])
        nxt, counts = entry
        return nxt, counts / counts.sum()

    def n_states(self) -> int:
        return int(np.prod(self.n_bins))


def _quantile_edges(samples: np.ndarray, bins: int) -> np.ndarray:
    qs = np.arange(1, bins) / bins
    edges = np.unique(np.quantile(samples, qs))
    # An edge at or above the channel maximum would only open an empty top
    # bin; a constant channel therefore collapses to a single bin.
    return edges[edges < samples.max()]


def _bin_representatives(samples: np.ndarray, edges: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(edges, samples, side="left")
    reps = np.empty(len(edges) + 1)
    for b in range(len(edges) + 1):
        members = samples[idx == b]
        if members.size:
            reps[b] = members.mean()
        elif b < len(edges):
            reps[b] = edges[b]
        else:
            reps[b] = edges[-1]
    return reps


def fit_dmc(history: np.ndarray, bins_per_channel: int = 10, horizon: int = 24) -> DmcModel:
    """Fit the hour-indexed chain from an hourly (n_hours, 3) history.

    Columns are (pv, load, member_demand) in kWh per slot. The history must
    cover at least two whole days of ``horizon`` hours; binning is
    per-channel equal-probability with the bin mean as representative.
    """
    history = np.asarray(history, dtype=float)
    if history.ndim != 2 or history.shape[1] != len(ENERGY_CHANNELS):
        raise ValueError(f"history must have shape (n_hours, 3), got {history.shape}")
    if not np.all(np.isfinite(history)):
        raise ValueError("history contains NaN or infinite values")
    if np.any(history < 0):
        raise ValueError("history contains negative energies")
    n_hours = history.shape[0]
    if horizon < 1 or n_hours % horizon != 0:
        raise ValueError(f"history length {n_hours} is not a whole number of {horizon}-hour days")
    if n_hours // horizon < 2:
        raise ValueError("history must cover at least two days")
    if bins_per_channel < 2:
        raise ValueError(f"bins_per_channel must be >= 2, got {bins_per_channel}")

    edges = tuple(_quantile_edges(history[:, c], bins_per_channel) for c in range(3))
    reps = tuple(_bin_representatives(history[:, c], e) for c, e in enumerate(edges))

    n_bins = tuple(len(e) + 1 for e in edges)
    bin_idx = np.column_stack(
        [np.searchsorted(e, history[:, c], side="left") for c, e in enumerate(edges)]
    )
    radix = np.array([1, n_bins[0], n_bins[0] * n_bins[1]])
    states = bin_idx @ radix

    counts: list[dict[int, dict[int, int]]] = [dict() for _ in range(horizon)]
    for t in range(n_hours - 1):
        h = t % horizon
        row = counts[h].setdefault(int(states[t]), {})
        row[int(states[t + 1])] = row.get(int(states[t + 1]), 0) + 1

    transitions = tuple(
        {
            s: (
                np.array(sorted(row)),
                np.array([row[nxt] for nxt in sorted(row)], dtype=float),
            )
            for s, row in per_hour.items()
        }
        for per_hour in counts
    )
    return DmcModel(horizon=horizon, bin_edges=edges, representatives=reps, transitions=transitions)


def sample_scenarios(
    model: DmcModel,
    initial_state: int,
    count: int,
    horizon: int | None = None,
    seed: int = 0,
    initial_hour: int | None = None,
) -> ScenarioSet:
    """Sample ``count`` equally likely day trajectories from the chain.

    The initial state sits at ``initial_hour`` (default: the last hour of
    the preceding day), so the first sampled step lands on hour 0. Scenario
    ``i`` takes one uniform per step from its own stream
    ``default_rng([seed, i])`` and picks the next state by ``searchsorted``
    on the row's normalized cumulative probabilities. That is
    ``Generator.choice``'s own arithmetic, so the trajectories are bit for
    bit those of one ``rng.choice(len(nxt), p=probs)`` per step and
    scenario. All scenarios advance together; each step visits only the
    distinct states they are in.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0 <= initial_state < model.n_states():
        raise ValueError(f"initial_state {initial_state} out of range")
    K = model.horizon if horizon is None else horizon
    hour = model.horizon - 1 if initial_hour is None else initial_hour

    uniforms = np.stack([np.random.default_rng([seed, i]).random(K) for i in range(count)])
    states = np.full(count, initial_state, dtype=np.int64)
    values = np.empty((count, len(ENERGY_CHANNELS), K))
    for t in range(K):
        current = states.copy()
        for state in np.unique(current):
            sel = current == state
            nxt, probs = model.row(hour, int(state))
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            states[sel] = nxt[cdf.searchsorted(uniforms[sel, t], side="right")]
        hour = (hour + 1) % model.horizon
        values[:, :, t] = model.state_values(states)
    probs = np.full(count, 1.0 / count)
    return ScenarioSet(channels=ENERGY_CHANNELS, values=values, probabilities=probs)


def build_price_scenarios(history_pairs) -> ScenarioSet:
    """One scenario per historical day of (sell-max, buy-min) trajectories."""
    pairs = list(history_pairs)
    if not pairs:
        raise ValueError("price history must contain at least one day")
    K = len(np.asarray(pairs[0][0]))
    values = np.empty((len(pairs), 2, K))
    for i, (sell, buy) in enumerate(pairs):
        sell = np.asarray(sell, dtype=float)
        buy = np.asarray(buy, dtype=float)
        if sell.shape != (K,) or buy.shape != (K,):
            raise ValueError(
                f"day {i}: trajectories have lengths {sell.shape}/{buy.shape}, expected ({K},)"
            )
        values[i, 0] = sell
        values[i, 1] = buy
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ValueError("price history contains negative or non-finite values")
    probs = np.full(len(pairs), 1.0 / len(pairs))
    return ScenarioSet(channels=PRICE_CHANNELS, values=values, probabilities=probs)


def _normalized_features(sset: ScenarioSet) -> np.ndarray:
    feats = sset.values.copy()
    for c in range(feats.shape[1]):
        m = np.abs(feats[:, c, :]).max()
        if m > 0:
            feats[:, c, :] /= m
    return feats.reshape(sset.n, -1)


def _distance_matrix(sset: ScenarioSet) -> np.ndarray:
    f = _normalized_features(sset)
    sq = (f * f).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (f @ f.T)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(np.maximum(d2, 0.0))


def _fast_forward(D: np.ndarray, probabilities: np.ndarray, target: int) -> list[int]:
    if not 1 <= target <= len(probabilities):
        raise ValueError(f"target must be in [1, {len(probabilities)}], got {target}")
    pi = probabilities.copy()
    dmin = np.full(len(pi), np.inf)
    kept: list[int] = []
    cost = np.empty(len(pi))
    for _ in range(target):
        # Expected distance of the non-kept mass to its closest kept
        # scenario if u were added; D[u, u] = 0 drops u's own term.
        np.matmul(pi, np.minimum(dmin[:, None], D), out=cost)
        cost[kept] = np.inf
        u = int(np.argmin(cost))  # argmin takes the lowest index on ties
        kept.append(u)
        dmin = np.minimum(dmin, D[:, u])
        pi[u] = 0.0
    return kept


def fast_forward_select(sset: ScenarioSet, target: int) -> list[int]:
    """Indices kept by fast-forward selection, in pick order."""
    return _fast_forward(_distance_matrix(sset), sset.probabilities, target)


def reduction_distance(sset: ScenarioSet, kept: list[int]) -> float:
    """Mass-weighted distance of the deleted scenarios to the kept set."""
    D = _distance_matrix(sset)
    kept_set = set(kept)
    deleted = [i for i in range(sset.n) if i not in kept_set]
    if not deleted:
        return 0.0
    return float(sum(sset.probabilities[i] * D[i, kept].min() for i in deleted))


def reduce_scenarios(sset: ScenarioSet, target: int) -> ScenarioSet:
    """Shrink a scenario set to ``target`` members by fast-forward selection.

    Deleted scenarios hand their probability to the nearest kept scenario
    (lowest index on ties), so the returned probabilities still sum to one.
    """
    D = _distance_matrix(sset)
    kept = sorted(_fast_forward(D, sset.probabilities, target))
    nearest = np.argmin(D[:, kept], axis=1)
    probs = sset.probabilities[kept].copy()
    kept_set = set(kept)
    # Added one deleted scenario at a time in index order, as the sum's
    # last bits depend on the order.
    for i in range(sset.n):
        if i not in kept_set:
            probs[nearest[i]] += sset.probabilities[i]
    return ScenarioSet(
        channels=sset.channels, values=sset.values[kept].copy(), probabilities=probs
    )


def _read_csv(path: str | Path, header: list[str]) -> np.ndarray:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if [c.strip() for c in got] != header:
            raise ValueError(f"{path}: expected header {header}, got {got}")
        rows = []
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{ln}: expected {len(header)} columns, got {len(row)}")
            try:
                rows.append([float(x) for x in row[1:]])
            except ValueError:
                raise ValueError(f"{path}:{ln}: non-numeric value in {row[1:]}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows)


def load_energy_csv(path: str | Path) -> np.ndarray:
    """Hourly (pv, load, member_demand) kWh columns, shape (n_hours, 3)."""
    return _read_csv(path, ENERGY_CSV_HEADER)


def load_price_csv(path: str | Path) -> np.ndarray:
    """Hourly (sell-max, buy-min) clearing prices, shape (n_hours, 2)."""
    return _read_csv(path, PRICE_CSV_HEADER)


def load_known_prices_csv(path: str | Path) -> np.ndarray:
    """Hourly (export, import) energy prices, shape (n_hours, 2)."""
    return _read_csv(path, KNOWN_PRICE_CSV_HEADER)
