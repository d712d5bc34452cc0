"""Day-ahead stochastic program materialized as a solver-agnostic MILP.

The builder turns a configuration plus price/energy scenario sets into an
explicit list of variables, linear rows and a linear objective. Acceptance
of a bid in each price scenario is encoded through precomputed 0/1
coefficient matrices (bid prices are restricted to the predicted clearing
prices, so no big-M reification is needed there). The bid quantity is
split into one quantity per price pick, each gated by its pick binary, so
that the pay-as-bid revenue and the awarded quantities are linear sums of
those; no product of a binary and a continuous variable needs a
linearization of its own. A row or variable that the others imply is not
built; each encoder's docstring holds the proof.

Index convention: k = hour, s = price scenario, l = energy scenario,
j = candidate price choice (ranges over price scenarios).

The model is assembled in numpy blocks over those index grids: the
variables of each grid in one ``MilpInstance.add_vars`` call, and every
row family as part of a block that ``MilpInstance.add_rows`` stores in
one call. Ids and rows come out in the order of loops over the grids'
cells, which fixes the model's variable order and so which of several
tied plans a solver returns. ``MilpInstance.index`` keeps each symbol's
ids as such a grid, and the plan readers (``extract_program``,
``planned_soc_paths``, ``expected_cashflow``) index solutions with it.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from typing import NamedTuple

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
_SENSES = frozenset(("<=", ">=", "="))
_ROW_CHUNK = 4096


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

    ``index[sym]`` is the id grid of symbol ``sym``, as ``add_vars`` returns
    it: one axis per index, -1 in a cell without the variable.

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
    index: dict[str, np.ndarray] = field(default_factory=dict)
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

    def add_var(self, name: str, kind: str, lo: float, hi: float) -> int:
        """Append one variable that belongs to no grid; return its id."""
        vid = len(self.names)
        self.names.append(name)
        self.kinds.append(kind)
        self.lb.append(lo)
        self.ub.append(hi)
        return vid

    def add_vars(self, shape: tuple[int, ...], members) -> np.ndarray:
        """Append the variables of a grid of cells; return their ids.

        Each member is ``(sym, names, kind, lo, hi, present)``: one name per
        cell in C order, bounds that broadcast to ``shape``, and a boolean
        mask, broadcast likewise, of the cells that have the variable (None
        for all of them). Cell by cell, in C order, each present member
        takes the next id. The returned ids have the shape ``shape +
        (len(members),)``, so ``ids[..., i]`` holds member ``i``'s, with -1
        where it is absent; that grid becomes ``index[sym]``. A member absent
        everywhere may give no names.
        """
        m, n_cells = len(members), math.prod(shape)
        present = np.ones(shape + (m,), dtype=bool)
        for i, member in enumerate(members):
            if member[5] is not None:
                present[..., i] = member[5]
        flat = present.reshape(-1)
        keep = flat.tolist()
        ids = np.where(flat, np.cumsum(flat) + (len(self.names) - 1), -1).reshape(shape + (m,))

        def cell_by_cell(values):
            """Per-member values, present cells only, in id order."""
            return compress(chain.from_iterable(zip(*values)), keep)

        def per_cell(x):
            if isinstance(x, np.ndarray):
                return np.broadcast_to(x, shape).reshape(-1).tolist()
            return repeat(x, n_cells)

        self.names.extend(cell_by_cell(member[1] or repeat("") for member in members))
        self.kinds.extend(cell_by_cell(repeat(member[2], n_cells) for member in members))
        self.lb.extend(cell_by_cell(per_cell(member[3]) for member in members))
        self.ub.extend(cell_by_cell(per_cell(member[4]) for member in members))
        for i, member in enumerate(members):
            self.index[member[0]] = ids[..., i]
        return ids

    def add_row(self, name: str, terms, sense: str, rhs: float) -> None:
        """Append one row of ``(vid, coef)`` terms; see ``add_rows``."""
        terms = list(terms)
        cols = np.array([vid for vid, _coef in terms], dtype=np.int64)
        vals = np.array([coef for _vid, coef in terms], dtype=float)
        self.add_rows([name], [0, len(terms)], cols, vals, [sense], [rhs])

    def add_rows(self, names, ptr, cols, vals, senses, rhs) -> None:
        """Append rows given in CSR form; the one way rows are stored.

        Row ``i`` is named ``names[i]``, has the terms ``cols[ptr[i]:ptr[i +
        1]]`` with coefficients ``vals[...]``, the sense ``senses[i]`` and
        the right-hand side ``rhs[i]``. In each row, zero coefficients of
        either sign are dropped, the rest sorted by variable id, and
        duplicate ids summed in input order. A sense other than ``<=``,
        ``>=`` and ``=``, a column id outside ``[0, n_vars)`` (-1 is what
        ``add_vars`` gives an absent variable), or inputs of mismatched
        lengths are refused before any row is stored.
        """
        n = len(names)
        ptr = np.asarray(ptr, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        vals = np.ascontiguousarray(vals, dtype=float)
        rhs = np.ascontiguousarray(rhs, dtype=float)
        if not (
            ptr.shape == (n + 1,)
            and rhs.shape == (n,) == (len(senses),)
            and cols.shape == vals.shape == (ptr[-1],)
            and ptr[0] == 0
            and (ptr[1:] >= ptr[:-1]).all()
        ):
            raise ValueError(
                f"{n} row names, {len(senses)} senses, {rhs.shape} right-hand sides, "
                f"{ptr.shape} row pointers, {cols.shape} columns and {vals.shape} values"
            )
        if not _SENSES.issuperset(senses):
            i = next(i for i, sense in enumerate(senses) if sense not in _SENSES)
            raise ValueError(f"row {names[i]!r} has sense {senses[i]!r}, not <=, >= or =")
        if cols.size and (cols.min() < 0 or cols.max() >= self.n_vars):
            term = np.flatnonzero((cols < 0) | (cols >= self.n_vars))[0]
            i = np.searchsorted(ptr, term, side="right") - 1
            raise ValueError(
                f"row {names[i]!r} has column id {cols[term]}, not in [0, {self.n_vars})"
            )
        # A few thousand rows at a time, so that the sort's scratch arrays
        # stay small next to the model.
        for first_row in range(0, n, _ROW_CHUNK):
            rows = slice(first_row, min(first_row + _ROW_CHUNK, n))
            terms = slice(ptr[rows.start], ptr[rows.stop])
            self._append_terms(np.diff(ptr[rows.start : rows.stop + 1]), cols[terms], vals[terms])
        self.row_names.extend(names)
        self.row_senses.extend(senses)
        self.row_rhs.frombytes(memoryview(rhs).cast("B"))

    def _append_terms(self, counts: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        """Store the terms of rows with ``counts`` terms each: zero
        coefficients dropped, sorted by variable id, duplicates summed in
        input order."""
        nonzero = vals != 0.0
        key = np.repeat(np.arange(len(counts), dtype=np.int64), counts)  # the row of each term
        if not nonzero.all():
            key, cols, vals = key[nonzero], cols[nonzero], vals[nonzero]
        if cols.size:
            # Sort by (row, column): key = row * span + column - low.
            low = cols.min()
            span = cols.max() - low + 1
            key *= span
            key += cols
            key -= low
            order = np.argsort(key, kind="stable")
            key, cols, vals = key[order], cols[order], vals[order]
            first = np.empty(key.size, dtype=bool)
            first[0] = True
            np.not_equal(key[1:], key[:-1], out=first[1:])
            if not first.all():
                summed = np.zeros(np.count_nonzero(first))
                np.add.at(summed, np.cumsum(first) - 1, vals)  # in input order
                key, cols, vals = key[first], cols[first], summed
            key //= span
        ends = len(self.row_cols) + np.cumsum(np.bincount(key, minlength=len(counts)))
        self.row_cols.frombytes(memoryview(cols).cast("B"))
        self.row_vals.frombytes(memoryview(vals).cast("B"))
        self.row_ptr.frombytes(memoryview(ends.astype(np.int64)).cast("B"))

    def var(self, sym: str, *idx) -> int:
        """The id of ``sym``'s variable in cell ``idx``; KeyError for a cell
        without one or outside the grid (numpy would wrap a negative index)."""
        grid = self.index[sym]
        inside = len(idx) == grid.ndim and all(0 <= i < n for i, n in zip(idx, grid.shape))
        if not inside or grid[idx] < 0:
            raise KeyError((sym, *idx))
        return int(grid[idx])

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
        total = 0.0
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

    ``inst.index[sym]`` is the id grid of each symbol: shape (K,) for the
    hourly bid and baseline variables, (K, n_m) over hours by price choices
    (``pick_*``, ``qty_pick_*``) or by price scenarios (``acc_*``,
    ``award_*``), and (K, n_m, n_r) for the recourse variables, with -1 in
    the cells where a variable is left out.

    Exclusivity binaries that some optimum provably never needs are not
    created (proofs in ``encode_energy_balance``). ``inst.data`` records
    the decision: ``"base_netting"`` holds, per hour, whether that hour's
    ``base_exp_on`` was left out (import tariff at least the export tariff),
    and ``"exchange_netting"`` whether every ``exp_on`` was (zero
    shared-energy incentive). ``inst.data["battery_power"]`` is the most
    the battery can charge or discharge in an hour (0 without a battery),
    and ``"charge_max"``, shaped like ``"res"``, the most it can charge per
    (energy scenario, hour): the upper bound of ``chg``, and zero where no
    ``chg_on`` is built (proofs in ``encode_storage``).

    Without bids, the recourse blocks are built for price scenario 0 alone,
    with probability 1; ``inst.data["price_collapse"]`` records that, and
    ``"n_m"`` is then 1 while ``"n_m_full"`` keeps the given count. The
    optimum is unchanged. With ``sell_on`` and ``buy_on`` at upper bound 0,
    the rows force the picks, the per-pick quantities, ``sell_qty``,
    ``buy_qty``, ``acc_*`` and ``award_*`` to 0, and ``short_*`` to 0
    through ``short_* <= award_*``. What is left of a (k, s, l) block
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
    if config.renewable_only_charging and (res < 0).any():
        raise BuildError(
            ["pv scenarios contain negative values, and renewable-only charging is bounded by pv"]
        )
    load = energies.channel("load")
    md = energies.channel("member_demand")
    if (md < 0).any():
        raise BuildError(["member_demand scenarios contain negative values"])
    md_max = float(md.max()) if md.size else 0.0
    eb = config.battery_capacity_kwh
    pb = config.battery_power_kwh_per_slot if eb > 0 else 0.0
    charge_max = np.minimum(pb, res) if config.renewable_only_charging else np.full(res.shape, pb)
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
        "battery_power": pb,
        "charge_max": charge_max,
        "ce": ce.values.copy(),
        "ci": ci.values.copy(),
        "price_collapse": not allow_bids,
        "base_netting": base_netting,
        "exchange_netting": exchange_netting,
    }

    bid_hi = 1.0 if allow_bids else 0.0
    b = _Blocks(inst)
    b.add_vars("k", [
        ("sell_qty", CONTINUOUS, 0.0, pe),
        ("buy_qty", CONTINUOUS, 0.0, pi),
        ("sell_on", BINARY, 0.0, bid_hi),
        ("buy_on", BINARY, 0.0, bid_hi),
        ("base_rec", CONTINUOUS, -m_rec, m_rec),
        ("base_bess", CONTINUOUS, -m_bess, m_bess),
    ])
    b.add_vars("kj", [
        ("pick_sell", BINARY, 0.0, bid_hi),
        ("pick_buy", BINARY, 0.0, bid_hi),
        ("qty_pick_sell", CONTINUOUS, 0.0, pe),
        ("qty_pick_buy", CONTINUOUS, 0.0, pi),
    ])
    # Acceptance flags are affinely pinned to the pick binaries, so they
    # stay 0/1 without a binary marker.
    b.add_vars("ks", [
        ("acc_sell", CONTINUOUS, 0.0, 1.0),
        ("acc_buy", CONTINUOUS, 0.0, 1.0),
        ("award_sell", CONTINUOUS, 0.0, pe),
        ("award_buy", CONTINUOUS, 0.0, pi),
    ])
    # Without exp_on, the member-demand cap on shared energy is a bound
    # (see encode_shared_energy).
    shared_hi = np.minimum(pe, md.T[:, None, :]) if exchange_netting else pe
    chg_hi = charge_max.T[:, None, :]
    b.add_vars("ksl", [
        ("exp", CONTINUOUS, 0.0, pe),
        ("imp", CONTINUOUS, 0.0, pi),
        ("exp_on", BINARY, 0.0, 1.0, not exchange_netting),
        ("base_exp", CONTINUOUS, 0.0, pe),
        ("base_imp", CONTINUOUS, 0.0, pi),
        ("base_exp_on", BINARY, 0.0, 1.0, ~base_netting[:, None, None]),
        ("short_sell", CONTINUOUS, 0.0, pe),
        ("short_buy", CONTINUOUS, 0.0, pi),
        ("shift_up", CONTINUOUS, 0.0, eps),
        ("shift_dn", CONTINUOUS, 0.0, eps),
        ("resv_up", CONTINUOUS, 0.0, eps),
        ("resv_dn", CONTINUOUS, 0.0, eps),
        ("chg", CONTINUOUS, 0.0, chg_hi),
        ("dis", CONTINUOUS, 0.0, pb),
        ("chg_on", BINARY, 0.0, 1.0, chg_hi > 0.0),
        ("shared", CONTINUOUS, 0.0, shared_hi),
    ])
    if eb > 0:
        last = (np.arange(K) == K - 1)[:, None, None]
        soc_lo = np.where(last, config.soc_final_min * eb, 0.0)
        soc_hi = np.where(last, config.soc_final_max * eb, eb)
        b.add_vars("ksl", [("soc", CONTINUOUS, soc_lo, soc_hi)])

    encode_bidding(inst, b)
    encode_acceptance(inst, b, prices)
    encode_energy_balance(inst, b, config)
    encode_relaxation_logic(inst, b)
    encode_storage(inst, b, config)
    encode_shared_energy(inst, b)
    encode_objective(inst, b, config)
    b.store_rows()
    return inst


def _cell_suffixes(axes: str, shape: tuple[int, ...]) -> list[str]:
    """Name suffixes of a grid's cells in C order, e.g. ``k0_s1_l2`` for
    axes ``ksl``."""
    out = [f"{axes[0]}{i}" for i in range(shape[0])]
    for axis, size in zip(axes[1:], shape[1:]):
        labels = [f"_{axis}{i}" for i in range(size)]
        out = [head + label for head in out for label in labels]
    return out


class _Rows(NamedTuple):
    """One row family over a grid: a row per cell where ``present`` holds.

    ``name`` has ``{}`` where the cell's suffix goes. ``terms`` are
    ``(sym, coefs)`` pairs, or ``(ids, coefs)`` with ids aligned to the
    grid as ``_Blocks.ids_on`` aligns a symbol's. A symbol on the grid, or
    on fewer of its axes, gives one term per row; one with a price-choice
    axis ``j`` the grid lacks gives a term per choice. ``coefs``, ``rhs``
    and ``present`` broadcast to the grid's shape, with the choice axis
    last for ``coefs`` of such a symbol; None is every cell.
    """

    name: str
    terms: list
    sense: str
    rhs: object = 0.0
    present: object = None


def _somewhere(present) -> bool:
    """Whether a ``present`` mask (None for everywhere) holds in some cell."""
    return present is None or present is True or (present is not False and present.any())


class _Blocks:
    """The builder's blocks: the axes of each symbol's id grid in
    ``inst.index``, and the rows of the blocks made so far, which
    ``store_rows`` adds in one ``add_rows`` call.

    A grid is named by its axes: ``k`` hours, ``kj`` hours by price
    choices, ``ks`` hours by price scenarios, ``ksl`` hours by price and
    energy scenarios, and ``slk`` the last in the order of the
    state-of-charge recursion.
    """

    def __init__(self, inst: MilpInstance):
        self.inst = inst
        K, n_m, n_r = inst.data["K"], inst.data["n_m"], inst.data["n_r"]
        self.shapes = {"k": (K,), "kj": (K, n_m), "ks": (K, n_m), "ksl": (K, n_m, n_r)}
        self.sufs = {axes: _cell_suffixes(axes, shape) for axes, shape in self.shapes.items()}
        # The state-of-charge recursion runs over (s, l, k); its cells keep
        # their (k, s, l) names.
        self.shapes["slk"] = (n_m, n_r, K)
        by_ksl = np.array(self.sufs["ksl"], dtype=object).reshape(K, n_m, n_r)
        self.sufs["slk"] = by_ksl.transpose(1, 2, 0).reshape(-1).tolist()
        self.axes: dict[str, str] = {}  # the axes of the symbol's grid
        self.aligned: dict[tuple[str, str], np.ndarray] = {}  # see ids_on
        self.names: list[str] = []
        self.senses: list[str] = []
        self.made: tuple[list, list, list, list] = ([], [], [], [])  # widths, cols, vals, rhs

    def add_vars(self, axes: str, specs) -> None:
        """``inst.add_vars`` over a grid for ``(sym, kind, lo, hi[, present])``
        specs, each variable named ``<sym>_<cell suffix>``."""
        members = []
        for sym, kind, lo, hi, *present in specs:
            mask = present[0] if present else None
            names = [f"{sym}_{suf}" for suf in self.sufs[axes]] if _somewhere(mask) else ()
            members.append((sym, names, kind, lo, hi, mask))
            self.axes[sym] = axes
        self.inst.add_vars(self.shapes[axes], members)

    def ids_on(self, axes: str, sym: str) -> np.ndarray:
        """``sym``'s ids aligned to a grid: the grid's axes in its order,
        size 1 where the symbol lacks one, and the axes the grid lacks (the
        price choices j) flattened into one more, last axis."""
        key = (axes, sym)
        if key not in self.aligned:
            ids, own = self.inst.index[sym], self.axes[sym]
            extra = [i for i, a in enumerate(own) if a not in axes]
            order = [own.index(a) for a in axes if a in own] + extra
            shape = [ids.shape[own.index(a)] if a in own else 1 for a in axes]
            if extra:
                shape.append(math.prod(ids.shape[i] for i in extra))
            self.aligned[key] = ids.transpose(order).reshape(shape)
        return self.aligned[key]

    def add_rows(self, axes: str, families: list[_Rows]) -> None:
        """Make a block over a grid: cell by cell in C order, the row of
        each family present there, in family order.

        A cell's terms are laid out family by family in one array over the
        grid, a term over the price choices taking a column per choice.
        """
        shape = self.shapes[axes]
        families = [f for f in families if _somewhere(f.present)]
        placed, widths, at = [], [], 0
        for f in families:
            start = at
            for sym, coef in f.terms:
                ids = self.ids_on(axes, sym) if isinstance(sym, str) else sym
                if ids.ndim == len(shape):  # one column
                    slot, at = at, at + 1
                else:  # a column per price choice
                    slot, at = slice(at, at + ids.shape[-1]), at + ids.shape[-1]
                placed.append((slot, ids, coef))
            widths.append(at - start)
        cols = np.empty(shape + (at,), dtype=np.int64)
        vals = np.empty(cols.shape)
        for slot, ids, coef in placed:
            cols[..., slot], vals[..., slot] = ids, coef
        rhs = np.empty(shape + (len(families),))
        present = np.ones(rhs.shape, dtype=bool)
        for i, f in enumerate(families):
            rhs[..., i] = f.rhs
            if f.present is not None:
                present[..., i] = f.present
        n_cells = math.prod(shape)
        widths = np.tile(widths, n_cells)
        cols, vals, rhs = cols.reshape(-1), vals.reshape(-1), rhs.reshape(-1)
        parts = [f.name.split("{}") for f in families]
        names = [head + suf + tail for suf in self.sufs[axes] for head, tail in parts]
        senses = [f.sense for f in families] * n_cells
        if not present.all():
            keep = present.reshape(-1)
            terms_kept = np.repeat(keep, widths)
            cols, vals, rhs, widths = cols[terms_kept], vals[terms_kept], rhs[keep], widths[keep]
            keep = keep.tolist()
            names, senses = compress(names, keep), compress(senses, keep)
        self.names.extend(names)
        self.senses.extend(senses)
        for made, part in zip(self.made, (widths, cols, vals, rhs)):
            made.append(part)

    def store_rows(self) -> None:
        """The blocks made, in order, in one ``inst.add_rows`` call.

        The aligned ids go first, and each part's blocks as soon as that
        part is joined, so that a paper-scale day needs little scratch
        memory beside the model's own.
        """
        self.aligned.clear()
        widths, *parts = self.made
        ptr = np.concatenate([[0], *widths])
        np.cumsum(ptr, out=ptr)
        widths.clear()
        for i, part in enumerate(parts):
            parts[i] = np.concatenate(part)
            part.clear()
        cols, vals, rhs = parts
        self.inst.add_rows(self.names, ptr, cols, vals, self.senses, rhs)


def encode_bidding(inst: MilpInstance, b: _Blocks) -> None:
    """The one-bid-per-hour rule and price-choice sums.

    The bid quantity is gated through its per-pick quantities
    (``encode_objective``), so it needs no cap row of its own. Write q_j
    for ``qty_pick_sell[k, j]``, ``pick_j`` for ``pick_sell[k, j]`` and
    ``on`` for ``sell_on[k]``; buy is the same with p_import_max in place
    of pe = p_export_max. The rows built say q_j <= pe pick_j, sum_j q_j =
    ``sell_qty`` and sum_j pick_j = ``on``, so ``sell_qty`` = sum_j q_j <=
    pe sum_j pick_j = pe ``on`` at every point, relaxed or not: the cap
    ``sell_qty <= pe sell_on`` holds without a row.
    """
    b.add_rows("k", [
        _Rows("one_bid_{}", [("sell_on", 1.0), ("buy_on", 1.0)], "<=", 1.0),
        _Rows("pick_sell_sum_{}", [("pick_sell", 1.0), ("sell_on", -1.0)], "="),
        _Rows("pick_buy_sum_{}", [("pick_buy", 1.0), ("buy_on", -1.0)], "="),
    ])


def encode_acceptance(inst: MilpInstance, b: _Blocks, prices: ScenarioSet) -> None:
    """Scenario acceptance flags and awarded quantities.

    A term over the price choices j takes its (k, s) row's acceptance
    entries as coefficients; a zero entry drops the term. With a_j =
    ``a_sell[k, s, j]`` in {0, 1} and the notation of ``encode_bidding``,
    the rows say ``acc_sell[k, s]`` = sum_j a_j pick_j and
    ``award_sell[k, s]`` = sum_j a_j q_j: the flag says whether the
    chosen price clears in scenario s, and the award is the bid quantity
    where it does and 0 where it does not. Buy is the same.

    These rows imply the product award = acc ``sell_qty`` at every point,
    relaxed or not, through the three rows of its linearization, which
    are therefore not built:

    - award = sum_j a_j q_j <= sum_j q_j = ``sell_qty``;
    - award <= pe sum_j a_j pick_j = pe acc;
    - ``sell_qty`` - award = sum_j (1 - a_j) q_j <= pe sum_j (1 - a_j)
      pick_j = pe (``on`` - acc) <= pe (1 - acc), as ``on`` <= 1.

    The same sums give acc = sum_j a_j pick_j <= sum_j pick_j = ``on``.
    """
    a_sell, a_buy = acceptance_matrices(prices)
    inst.data["a_sell"], inst.data["a_buy"] = a_sell, a_buy
    b.add_rows("ks", [
        _Rows("acc_sell_def_{}", [("acc_sell", 1.0), ("pick_sell", -a_sell)], "="),
        _Rows("acc_buy_def_{}", [("acc_buy", 1.0), ("pick_buy", -a_buy)], "="),
    ])
    # Coupling each award to the per-pick quantities removes the
    # relaxation's freedom to collect several prices for one quantity.
    b.add_rows("ks", [
        _Rows("award_sell_link_{}", [("award_sell", 1.0), ("qty_pick_sell", -a_sell)], "="),
        _Rows("award_buy_link_{}", [("award_buy", 1.0), ("qty_pick_buy", -a_buy)], "="),
    ])


def encode_energy_balance(inst: MilpInstance, b: _Blocks, config: RecConfig) -> None:
    """Facility balance, service balance, shortfall caps and baseline balance.

    The community exchange with the members is exp - imp - md; it has no
    variable of its own. ``rec_service`` holds it against the baseline,
    the shifts and the delivered service, with md on the right-hand side.
    A variable for it would take its bounds [-(pi + max md), pe] from
    those of ``exp`` in [0, pe] and ``imp`` in [0, pi], as md >= 0.

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
      and ``imp`` enter ``cf_balance``, ``rec_service`` and
      ``base_balance`` only as ``exp - imp``, and have no objective term;
      their one other row is ``shared <= exp``. With a zero incentive
      ``shared`` has no objective term either and can be set to 0, so
      netting keeps every row and the objective. ``shared``'s
      member-demand row then needs no binary (``encode_shared_energy``).

    Where ``exp_on`` is built, its cap rows take the least big-M that
    ``cf_balance`` allows in each (k, l), broadcast over s (coefficient
    strengthening; Savelsbergh, ORSA J. Computing 6(4), 1994):
    ``exp - u_exp exp_on <= 0`` and ``imp + u_imp exp_on <= u_imp`` with
    u_exp = clip(res - load + pb, 0, pe) and u_imp = clip(load - res +
    c_max, 0, pi), where pb is the battery power (0 without a battery)
    and c_max = ``charge_max`` bounds ``chg`` (``encode_storage``). With
    the other rows and bounds, these rows admit exactly the points with
    integral ``exp_on`` that the big-M caps ``exp <= pe exp_on`` and ``imp
    <= pi (1 - exp_on)`` admit. Both pairs say ``exp = 0`` at ``exp_on =
    0`` and ``imp = 0`` at ``exp_on = 1``, and u_exp <= pe, u_imp <= pi,
    so the new rows admit no more. ``cf_balance`` reads exp - imp = res -
    load + dis - chg, with 0 <= dis <= pb and 0 <= chg <= c_max. At
    ``exp_on = 1``, imp = 0 gives exp = res - load + dis - chg <= res -
    load + pb, and with exp in [0, pe], exp <= u_exp. At ``exp_on = 0``,
    exp = 0 gives imp = load - res + chg - dis <= load - res + c_max, and
    with imp in [0, pi], imp <= u_imp. So they admit no fewer: every
    integral point, and so every optimum, is kept, and only the LP
    relaxation shrinks.
    """
    d = inst.data
    pe, pi = config.p_export_max, config.p_import_max
    exchanged = not d["exchange_netting"]
    exp_hi = np.clip(d["res"] - d["load"] + d["battery_power"], 0.0, pe).T[:, None, :]
    imp_hi = np.clip(d["load"] - d["res"] + d["charge_max"], 0.0, pi).T[:, None, :]
    base_capped = ~d["base_netting"][:, None, None]
    shortfalls = [
        ("award_sell", -1.0), ("short_sell", 1.0), ("award_buy", 1.0), ("short_buy", -1.0)
    ]
    b.add_rows("ksl", [
        _Rows(
            "cf_balance_{}",
            [("exp", 1.0), ("imp", -1.0), ("dis", -1.0), ("chg", 1.0)],
            "=",
            (d["res"] - d["load"]).T[:, None, :],
        ),
        _Rows("export_cap_{}", [("exp", 1.0), ("exp_on", -exp_hi)], "<=", 0.0, exchanged),
        _Rows("import_cap_{}", [("imp", 1.0), ("exp_on", imp_hi)], "<=", imp_hi, exchanged),
        _Rows(
            "rec_service_{}",
            [("exp", 1.0), ("imp", -1.0), ("base_rec", -1.0), ("shift_up", -1.0), ("shift_dn", 1.0)]
            + shortfalls,
            "=",
            d["md"].T[:, None, :],
        ),
        _Rows("short_sell_cap_{}", [("short_sell", 1.0), ("award_sell", -1.0)], "<="),
        _Rows("short_buy_cap_{}", [("short_buy", 1.0), ("award_buy", -1.0)], "<="),
        _Rows(
            "base_balance_{}",
            [("exp", 1.0), ("imp", -1.0), ("base_exp", -1.0), ("base_imp", 1.0)] + shortfalls,
            "=",
        ),
        _Rows(
            "base_export_cap_{}",
            [("base_exp", 1.0), ("base_exp_on", -pe)],
            "<=",
            0.0,
            base_capped,
        ),
        _Rows(
            "base_import_cap_{}", [("base_imp", 1.0), ("base_exp_on", pi)], "<=", pi, base_capped
        ),
    ])


def encode_relaxation_logic(inst: MilpInstance, b: _Blocks) -> None:
    """Slack ranges gated on whether a service is active in the scenario.

    A service is active when its bid is submitted and accepted, acc AND
    ``on``. That is ``acc_*`` itself, with no flag of its own: acc <= ``on``
    holds at every point (``encode_acceptance``), so at integral points
    acc AND ``on`` = acc. In the relaxation, the rows acc + ``on`` - 1 <=
    act <= min(acc, ``on``) of a separate flag act would admit acc as well,
    so reading acc is never looser.
    """
    eps = inst.data["epsilon_max"]
    b.add_rows("ksl", [
        _Rows("shift_up_cap_{}", [("shift_up", 1.0), ("acc_buy", eps)], "<=", eps),
        _Rows("shift_dn_cap_{}", [("shift_dn", 1.0), ("acc_sell", eps)], "<=", eps),
        _Rows("resv_up_cap_{}", [("resv_up", 1.0), ("acc_sell", -eps)], "<="),
        _Rows("resv_dn_cap_{}", [("resv_dn", 1.0), ("acc_buy", -eps)], "<="),
    ])


def encode_storage(inst: MilpInstance, b: _Blocks, config: RecConfig) -> None:
    """Battery service coupling, charge exclusivity, state-of-charge recursion.

    With a battery, each (k, s, l) has a ``soc`` variable in kWh whose bounds
    carry the [0, capacity] window and, at the last hour, the terminal
    window; one balance row per step ties it to the previous step:
    soc_k - soc_{k-1} - eta_c chg_k + dis_k / eta_d = 0, with soc_{-1} the
    initial state moved to the right-hand side.

    ``chg`` has the upper bound c_max = ``charge_max``: pb (0 without a
    battery), and under renewable-only charging min(pb, res), so that
    rule needs no row of its own. The binary ``chg_on`` forbids charging
    and discharging at once through ``chg <= c_max chg_on`` and ``dis <=
    pb (1 - chg_on)``. At integral ``chg_on`` the first row, with the
    bound, says what ``chg <= pb chg_on`` would: ``chg <= c_max`` at 1 and
    ``chg = 0`` at 0. Where c_max = 0, ``chg`` is 0, and ``chg_on`` and its
    two rows are not built. There ``chg_on`` has no objective term and no
    other row, the first row holds at ``chg = 0``, and the second is the
    bound ``dis <= pb`` at ``chg_on = 0``. So dropping them from a
    feasible point of the model with them gives a feasible point with the
    same objective, and a point of the model without them extends to one
    with ``chg_on = 0``.
    """
    eb = config.battery_capacity_kwh
    pb = inst.data["battery_power"]
    c_max = inst.data["charge_max"].T[:, None, :]
    charging = c_max > 0.0
    b.add_rows("ksl", [
        _Rows(
            "bess_service_{}",
            [
                ("dis", 1.0),
                ("chg", -1.0),
                ("base_bess", -1.0),
                ("award_sell", -1.0),
                ("award_buy", 1.0),
                ("resv_up", -1.0),
                ("resv_dn", 1.0),
            ],
            "=",
        ),
        _Rows("charge_cap_{}", [("chg", 1.0), ("chg_on", -c_max)], "<=", 0.0, charging),
        _Rows("discharge_cap_{}", [("dis", 1.0), ("chg_on", pb)], "<=", pb, charging),
    ])
    if eb > 0:
        soc = b.ids_on("slk", "soc")
        # soc at the previous hour; hour 0 has none, and its term is dropped.
        soc_prev = np.concatenate([soc[..., :1], soc[..., :-1]], axis=-1)
        first = np.arange(inst.data["K"]) == 0
        b.add_rows("slk", [
            _Rows(
                "soc_balance_{}",
                [
                    ("soc", 1.0),
                    ("chg", -config.eta_charge),
                    ("dis", 1.0 / config.eta_discharge),
                    (soc_prev, np.where(first, 0.0, -1.0)),
                ],
                "=",
                np.where(first, inst.data["soc_initial"] * eb, 0.0),
            )
        ])


def encode_shared_energy(inst: MilpInstance, b: _Blocks) -> None:
    """Shared energy below the realized export and the members' demand.

    The demand cap is gated on the export indicator: equivalent for
    integral indicators (no export means no shared energy anyway) and much
    tighter in the LP relaxation. Without ``exp_on`` (zero incentive, see
    ``encode_energy_balance``) the cap is the bound of ``shared`` instead.
    """
    d = inst.data
    b.add_rows("ksl", [
        _Rows("shared_le_export_{}", [("shared", 1.0), ("exp", -1.0)], "<="),
        _Rows(
            "shared_cap_{}",
            [("shared", 1.0), ("exp_on", -d["md"].T[:, None, :])],
            "<=",
            0.0,
            not d["exchange_netting"],
        ),
    ])


def encode_objective(inst: MilpInstance, b: _Blocks, config: RecConfig) -> None:
    """Expected cash flow, with pay-as-bid revenue linearized per price pick.

    Coefficients enter ``inst.objective`` in the order a loop over (k, s, l)
    and then over (k, j) would add them, the order
    ``evaluate_objective`` sums in.
    """
    v = inst.index
    K, n_m = inst.data["K"], inst.data["n_m"]
    pm, pr = inst.data["pm"], inst.data["pr"]
    ce, ci = inst.data["ce"], inst.data["ci"]
    p_plus, p_minus = inst.data["penalty_sell"], inst.data["penalty_buy"]
    sell_max, buy_min = inst.data["sell_max"], inst.data["buy_min"]
    a_sell, a_buy = inst.data["a_sell"], inst.data["a_buy"]
    pe, pi = config.p_export_max, config.p_import_max
    gamma = config.incentive_shared

    # Each per-pick quantity is gated by its pick. One pick at most is
    # active per hour, so the per-pick quantities sum to the bid quantity.
    # With that sum, these caps imply the rest of the product q_j = pick_j
    # ``sell_qty`` at every point, relaxed or not: q_j <= ``sell_qty`` as
    # each q is nonnegative, and ``sell_qty`` - q_j = sum_{i != j} q_i <=
    # pe (``on`` - pick_j) <= pe (1 - pick_j) (notation of encode_bidding).
    b.add_rows("kj", [
        _Rows("qty_pick_sell_cap_{}", [("qty_pick_sell", 1.0), ("pick_sell", -pe)], "<="),
        _Rows("qty_pick_buy_cap_{}", [("qty_pick_buy", 1.0), ("pick_buy", -pi)], "<="),
    ])
    b.add_rows("k", [
        _Rows("qty_pick_sell_sum_{}", [("qty_pick_sell", 1.0), ("sell_qty", -1.0)], "="),
        _Rows("qty_pick_buy_sum_{}", [("qty_pick_buy", 1.0), ("buy_qty", -1.0)], "="),
    ])

    w = (pm[:, None] * pr[None, :])[None]  # (1, n_m, n_r)
    ce, ci = ce[:, None, None], ci[:, None, None]
    terms = [("base_exp", 0.0 + w * ce), ("base_imp", 0.0 - w * ci)]
    if gamma:
        terms.append(("shared", 0.0 + w * gamma))
    terms += [("short_sell", 0.0 - w * p_plus), ("short_buy", 0.0 + w * p_minus)]
    vids = np.stack([v[sym] for sym, _coef in terms], axis=-1)
    coefs = np.empty(vids.shape)
    for i, (_sym, coef) in enumerate(terms):
        coefs[..., i] = coef
    inst.objective.update(zip(vids.reshape(-1).tolist(), coefs.reshape(-1).tolist()))
    # Pay-as-bid service terms: award times chosen price, expanded over the
    # price picks. The energy-scenario probabilities sum out; the price
    # scenarios are summed one at a time, in order.
    pr_total = float(pr.sum())
    sell_weight, buy_weight = np.zeros((K, n_m)), np.zeros((K, n_m))
    for s in range(n_m):
        sell_weight = sell_weight + pm[s] * a_sell[:, s, :]
        buy_weight = buy_weight + pm[s] * a_buy[:, s, :]
    sell_coef = pr_total * sell_weight * sell_max.T
    buy_coef = pr_total * buy_weight * buy_min.T
    vids = np.stack([v["qty_pick_sell"], v["qty_pick_buy"]], axis=-1)
    coefs = np.stack([0.0 + sell_coef, 0.0 - buy_coef], axis=-1)
    used = np.stack([sell_coef != 0.0, buy_coef != 0.0], axis=-1)
    inst.objective.update(zip(vids[used].tolist(), coefs[used].tolist()))


@dataclass
class Solution:
    """Solver output for one instance."""

    status: str  # optimal | infeasible | unbounded | gap_limit
    objective_value: float | None
    values: np.ndarray | None
    mip_gap: float = 0.0
    nodes: int | None = None  # branch-and-bound nodes, None when the solver gave no count


def check_solution(inst: MilpInstance, values: np.ndarray, tol: float = FEAS_TOL) -> list[str]:
    """Independent audit: every value finite, and every row, bound and
    binary within tolerance."""
    v: list[str] = []
    values = np.asarray(values, dtype=float)
    if values.shape != (inst.n_vars,):
        return [f"solution has {values.shape} values for {inst.n_vars} variables"]
    for i in np.flatnonzero(~np.isfinite(values)):
        v.append(f"{inst.names[i]} = {values[i]} is not finite")
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
    binaries = inst.binary_ids()
    # np.round keeps a nan, so that the audit names it; + 0.0 writes -0.0
    # as 0.0.
    out[binaries] = np.round(out[binaries]) + 0.0
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
    ids, K, n_m_full = inst.index, inst.data["K"], inst.data["n_m_full"]
    prices = {"sell": inst.data["sell_max"], "buy": inst.data["buy_min"]}
    choice = {side: np.zeros((K, n_m_full)) for side in prices}
    on = {side: x[ids[f"{side}_on"]] > 0.5 for side in prices}
    pick = {side: np.argmax(x[ids[f"pick_{side}"]], axis=1) for side in prices}
    bids: list[Bid | None] = []
    for k in range(K):
        side = "sell" if on["sell"][k] else "buy" if on["buy"][k] else None
        bid = None
        if side is not None:
            j = pick[side][k]
            choice[side][k, j] = 1.0
            bid = Bid(
                hour=k,
                side=side,
                price=float(prices[side][j, k]),
                quantity=float(x[ids[f"{side}_qty"][k]]),
                submitted=True,
            )
        bids.append(bid)
    return DayAheadProgram(
        rec_baseline=x[ids["base_rec"]],
        bess_baseline=x[ids["base_bess"]],
        bids=tuple(bids),
        sell_price_choice=choice["sell"],
        buy_price_choice=choice["buy"],
    )


def spread_collapsed_plan(
    inst: MilpInstance, collapsed: MilpInstance, values: np.ndarray
) -> np.ndarray:
    """A plan of ``collapsed``, the day's model built without bids, as a
    plan of ``inst``, the same day's model built with them.

    Every variable of ``inst`` takes the value of its namesake in price
    scenario 0 and price choice 0, the one block ``collapsed`` keeps. So
    every bid variable is 0, and each price scenario's recourse block is
    a copy of the no-bid one, which ``build_instance``'s proof shows
    feasible with the same objective. A symbol whose grids do not
    broadcast, or whose cells with a variable differ, is refused.
    """
    out = np.empty(inst.n_vars)
    for sym, grid in inst.index.items():
        block0 = np.broadcast_to(collapsed.index[sym], grid.shape)
        present = grid >= 0
        if not np.array_equal(present, block0 >= 0):
            raise ValueError(f"{sym} has variables in other cells of the model without bids")
        out[grid[present]] = values[block0[present]]
    return out


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
        paths[..., 1:] = values[inst.index["soc"]].transpose(1, 2, 0) / eb
    return np.broadcast_to(paths, (inst.data["n_m_full"], n_r, K + 1)).copy()


def expected_cashflow(inst: MilpInstance, values: np.ndarray) -> dict[str, float]:
    """Planner-side expected cash-flow decomposition at a solution.

    Shared energy is re-derived as min(export, member demand) so the report
    stays meaningful when the incentive is zero and the solver leaves the
    shared variable anywhere below its cap. Each entry sums its (k, s, l)
    terms in that order.
    """
    d, ids = inst.data, inst.index
    w = d["pm"][None, :, None] * d["pr"][None, None, :]  # (1, n_m, n_r)
    ce, ci, md = d["ce"][:, None, None], d["ci"][:, None, None], d["md"].T[:, None, :]
    # Each hour's pick price, summed over the choices in order.
    sell_price = buy_price = 0.0
    for j in range(d["n_m"]):
        sell_price = sell_price + values[ids["pick_sell"][:, j]] * d["sell_max"][j]
        buy_price = buy_price + values[ids["pick_buy"][:, j]] * d["buy_min"][j]
    sell_price, buy_price = sell_price[:, None, None], buy_price[:, None, None]
    terms = {
        "export_revenue": w * ce * values[ids["base_exp"]],
        "import_cost": w * ci * values[ids["base_imp"]],
        "shared_incentive": w * d["config"].incentive_shared * np.minimum(values[ids["exp"]], md),
        "msd_sell_revenue": w * sell_price * values[ids["award_sell"]][..., None],
        "msd_buy_cost": w * buy_price * values[ids["award_buy"]][..., None],
        "penalty_sell": w * d["penalty_sell"] * values[ids["short_sell"]],
        "penalty_buy_refund": w * d["penalty_buy"] * values[ids["short_buy"]],
    }
    # Summed in C order, one addition at a time from 0.0 as a loop's += adds
    # them; np.sum adds pairwise, which changes the last bits.
    out = {key: float(np.cumsum(np.append(0.0, term))[-1]) for key, term in terms.items()}
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
