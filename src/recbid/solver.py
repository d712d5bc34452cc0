"""Solving MilpInstances: LP export, HiGHS, exact oracle.

``solve_external`` solves an instance with HiGHS (through
``scipy.optimize.milp``) in this process, from the instance's own sparse
rows; LP text is only an export, for inspection or for other solvers.
``parse_lp`` reads back exactly the grammar ``emit_exchange`` writes and
refuses any other line.
``reference_solve`` is a self-contained exact search: branch-and-bound
over the binary variables with bound propagation and LP-relaxation
pruning, each relaxation solved by the in-package simplex (the root cold,
every other node warm from its parent's basis). Open nodes are
explored best-bound first; that order is a heuristic that finds good
incumbents early, while exactness rests on the pruning rules. It exists
to cross-check HiGHS on desk-scale instances.
"""

from __future__ import annotations

import contextlib
import heapq
import re
from dataclasses import dataclass, field
from operator import add, getitem
from pathlib import Path

import numpy as np

from .milp import MilpInstance, Solution
from .simplex import LpResult, solve_lp

BND_TOL = 1e-9


def _fmt(x: float) -> str:
    return repr(float(x) + 0.0)


class _Memo(dict):
    """``memo[key]`` is ``fn(key)``, computed once per distinct key."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _term_prefix(coef: float) -> str:
    return f"{'+' if coef >= 0 else '-'} {_fmt(abs(coef))} "


def _bound_parts(bounds: tuple[float, float]) -> tuple[str, str]:
    lo, hi = bounds
    if np.isinf(hi):
        return " ", f" >= {_fmt(lo)}"
    return f" {_fmt(lo)} <= ", f" <= {_fmt(hi)}"


def emit_exchange(inst: MilpInstance) -> str:
    """Deterministic LP-format text of an instance.

    Variables and rows appear in declaration order; floats use shortest
    round-trip formatting of their ``float`` value (``-0.0`` is written as
    ``0.0``), so equal instances emit byte-identical text. Every term is
    written as ``sign coefficient name``, and every variable gets a Bounds
    line. LP text keys variables by name, so a variable without a name,
    and two variables with the same name, are refused.

    The text of each distinct coefficient, right-hand side and bound pair
    is formatted once; a paper-scale day has 159,020 nonzeros but only 19
    distinct row coefficients.
    """
    names = inst.names
    if "" in names:
        raise ValueError(f"variable {names.index('')} has no name")
    if len(set(names)) < len(names):
        first: dict[str, int] = {}
        for i, name in enumerate(names):
            j = first.setdefault(name, i)
            if j != i:
                raise ValueError(f"variables {j} and {i} share the name {name!r}")
    prefix = _Memo(_term_prefix).__getitem__
    number = _Memo(_fmt)
    bounds = _Memo(_bound_parts)
    name_of = names.__getitem__

    out = ["Maximize"]
    objective = inst.objective
    terms = [
        prefix(coef) + names[vid]
        for vid in sorted(objective)
        if (coef := objective[vid]) != 0.0
    ]
    out.append(" obj: " + " ".join(terms) if terms else " obj:")
    out.append("Subject To")
    cols, vals, ptr = inst.row_cols, inst.row_vals, inst.row_ptr
    rows = zip(inst.row_names, inst.row_senses, inst.row_rhs, ptr, ptr[1:])
    for name, sense, rhs, lo, hi in rows:
        body = " ".join(map(add, map(prefix, vals[lo:hi]), map(name_of, cols[lo:hi])))
        out.append(f" {name}: {body} {sense} {number[rhs]}")
    out.append("Bounds")
    for name, lo, hi in zip(names, inst.lb, inst.ub):
        before, after = bounds[lo, hi]
        out.append(before + name + after)
    binaries = [names[i] for i in inst.binary_ids()]
    if binaries:
        out.append("Binaries")
        out.extend(f" {name}" for name in binaries)
    out.append("End")
    return "\n".join(out) + "\n"


@dataclass
class ParsedLp:
    """LP text read back: ``names`` in Bounds order, ``rows`` as ``(name,
    coefficients by variable name, sense, rhs)`` in file order. ``maximize``
    is always True, the one sense emit_exchange writes."""

    maximize: bool
    names: list[str]
    objective: dict[str, float]
    rows: list[tuple[str, dict[str, float], str, float]]
    lb: dict[str, float]
    ub: dict[str, float]
    binaries: set[str] = field(default_factory=set)


_NUM_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+")
_NAME_RE = re.compile(r"[A-Za-z_][\w.]*")
_VALUE_RE = re.compile(r"[+-]?[\d.eE+-]+")


def _value(tok: str) -> float | None:
    """A right-hand side or bound token as a float; None when it is not one."""
    if _VALUE_RE.fullmatch(tok):
        with contextlib.suppress(ValueError):  # e.g. "1e"
            return float(tok)
    return None


def _refused(section: str, raw: str | None) -> ValueError:
    """The error for a line of LP text, or for its end (``raw`` None)."""
    if raw is None:
        return ValueError("LP text ends before its End line")
    return ValueError(f"cannot parse {section} line: {raw!r}")


def parse_lp(text: str) -> ParsedLp:
    """Parse the LP text emit_exchange writes, and refuse anything else.

    The lines, in this order, with tokens split at whitespace: ``Maximize``;
    one objective line ``label: terms``; ``Subject To``; rows ``name: terms
    sense rhs`` with sense ``<=``, ``>=`` or ``=``; ``Bounds``; one line
    ``lo <= x <= hi`` or ``x >= lo`` per variable; optionally ``Binaries``
    and one declared name per line, which caps its upper bound at 1;
    ``End``. Terms are ``sign number name`` with distinct names in a line,
    and every name in them needs a Bounds line. ``names`` is the Bounds
    order. Any other line raises ``ValueError("cannot parse <section> line:
    '<line>'")``, and so does text that ends before ``End``. Each distinct
    number and name is checked against the grammar once.
    """
    # Signed coefficients and values are kept as floats, or None when the
    # token fails the grammar.
    signed = {
        "+": _Memo(lambda num: 0.0 + float(num) if _NUM_RE.fullmatch(num) else None),
        "-": _Memo(lambda num: 0.0 - float(num) if _NUM_RE.fullmatch(num) else None),
    }
    value = _Memo(_value)
    names_ok: set[str] = set()  # the names in the objective and the rows

    def split_terms(tokens: list[str], end: int) -> dict[str, float] | None:
        """``tokens[:end]`` as ``sign number name`` triples with distinct
        names, in a dict; None if they are anything else."""
        if end % 3:
            return None
        signs = tokens[0:end:3]
        if signs.count("+") + signs.count("-") != len(signs):
            return None
        coefs = list(map(getitem, map(signed.__getitem__, signs), tokens[1:end:3]))
        coeffs = dict(zip(tokens[2:end:3], coefs))
        if None in coefs or len(coeffs) < len(coefs):
            return None
        if not names_ok.issuperset(coeffs):
            new = coeffs.keys() - names_ok
            if not all(map(_NAME_RE.fullmatch, new)):
                return None
            names_ok.update(new)
        return coeffs

    lines = iter(text.splitlines())
    if (raw := next(lines, None)) != "Maximize":
        raise _refused("first", raw)
    raw = next(lines, None)
    label, colon, body = (raw or "").partition(":")
    tokens = body.split()
    objective = split_terms(tokens, len(tokens)) if colon and len(label.split()) == 1 else None
    if objective is None or (raw := next(lines, None)) != "Subject To":
        raise _refused("Maximize", raw)
    rows: list[tuple[str, dict[str, float], str, float]] = []
    for raw in lines:
        if raw == "Bounds":
            break
        label, colon, body = raw.partition(":")
        tokens = body.split()
        sensed = len(tokens) >= 2 and tokens[-2] in ("<=", ">=", "=")
        rhs = value[tokens[-1]] if sensed else None
        coeffs = split_terms(tokens, len(tokens) - 2) if colon and rhs is not None else None
        if coeffs is None or len(label := label.split()) != 1:
            raise _refused("Subject To", raw)
        rows.append((label[0], coeffs, tokens[-2], rhs))
    lb, ub = {}, {}  # bounds by name, in Bounds order
    for raw in lines:
        if raw in ("Binaries", "End"):
            break
        tokens = raw.split()
        if len(tokens) == 5 and tokens[1] == tokens[3] == "<=":
            lo, name, hi = value[tokens[0]], tokens[2], value[tokens[4]]
        elif len(tokens) == 3 and tokens[1] == ">=":
            lo, name, hi = value[tokens[2]], tokens[0], np.inf
        else:
            raise _refused("Bounds", raw)
        valid = name in names_ok or _NAME_RE.fullmatch(name)
        if lo is None or hi is None or name in lb or not valid:
            raise _refused("Bounds", raw)
        lb[name], ub[name] = lo, hi
    binaries: set[str] = set()
    if raw == "Binaries":
        for raw in lines:
            if raw == "End":
                break
            name = raw.strip()
            if name not in lb or name in binaries:
                raise _refused("Binaries", raw)
            binaries.add(name)
            ub[name] = min(ub[name], 1.0)
    if raw != "End":
        raise _refused("End", None)
    if (raw := next(lines, None)) is not None:
        raise _refused("End", raw)
    if missing := names_ok.difference(lb):
        raise ValueError(f"variable {min(missing)!r} has no Bounds line")
    return ParsedLp(True, list(lb), objective, rows, lb, ub, binaries)


_HIGHS_STATUS = {0: "optimal", 1: "gap_limit", 2: "infeasible", 3: "unbounded"}


def highs_solve(c, A, row_lo, row_hi, lb, ub, integrality, time_limit: float, gap: float):
    """Minimize ``c @ x`` subject to ``row_lo <= A @ x <= row_hi`` with HiGHS.

    The package's one ``scipy.optimize.milp`` call, on ``_highs_arrays`` of
    an instance: ``solve_external``'s own, or the one
    ``highs_runner.solve_parsed`` rebuilds from a parsed LP file.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    return milp(
        c,
        constraints=[LinearConstraint(A, row_lo, row_hi)] if A.shape[0] else [],
        integrality=integrality,
        bounds=Bounds(lb, ub),
        options={"time_limit": time_limit, "mip_rel_gap": gap, "presolve": True},
    )


def _highs_arrays(inst: MilpInstance):
    """``highs_solve`` inputs of an instance, maximizing its objective.

    Signed zeros become 0.0 and binaries are capped at 1, as in LP text, so
    an instance rebuilt from its own text gives the same arrays bit for bit.
    """
    A, senses, b = inst.sparse_rows()
    b += 0.0
    sense = np.array(senses, dtype=str)
    row_lo = np.where(sense == "<=", -np.inf, b)
    row_hi = np.where(sense == ">=", np.inf, b)
    lb = np.array(inst.lb, dtype=float) + 0.0
    ub = np.array(inst.ub, dtype=float) + 0.0
    integrality = np.zeros(inst.n_vars, dtype=int)
    binaries = inst.binary_ids()
    integrality[binaries] = 1
    ub[binaries] = np.minimum(ub[binaries], 1.0)
    c = -(inst.objective_vector() + 0.0)
    return c, A, row_lo, row_hi, lb, ub, integrality


def solve_external(
    inst: MilpInstance,
    workdir: str | Path | None,
    time_limit_s: float = 300.0,
    rel_gap: float = 1e-6,
) -> Solution:
    """Solve an instance with HiGHS in this process.

    The objective is re-evaluated from the returned values. With a
    ``workdir``, the instance is also exported there as ``instance.lp`` and
    the result as ``solution.sol``: a ``status`` line, the objective and gap
    HiGHS reported, then one ``name value`` line per variable in ``repr``
    floats, so the file holds the returned values bit for bit. A result with
    no solution to report raises RuntimeError; for a time limit reached
    before any feasible point, the message names HiGHS's dual bound on the
    maximized objective and its node count.
    """
    if workdir is not None:
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "instance.lp").write_text(emit_exchange(inst))
    res = highs_solve(*_highs_arrays(inst), time_limit_s, rel_gap)
    status = _HIGHS_STATUS.get(res.status, "unknown")
    if status == "gap_limit" and res.x is None:
        status = "unknown"
    gap = getattr(res, "mip_gap", 0.0) or 0.0
    if workdir is not None:
        lines = [f"status {status}"]
        if res.x is not None:
            lines.append(f"objective {-float(res.fun)!r}")
            lines.append(f"gap {gap!r}")
            lines.extend(f"{name} {float(val)!r}" for name, val in zip(inst.names, res.x))
        (workdir / "solution.sol").write_text("\n".join(lines) + "\n")
    if status == "unknown":
        if res.status == 1:
            # Both are None when the limit falls before the branch-and-bound.
            bound, nodes = res.mip_dual_bound, res.mip_node_count
            bound = "unknown" if bound is None else repr(-float(bound) + 0.0)
            nodes = "unknown" if nodes is None else nodes
            raise RuntimeError(
                f"time limit of {time_limit_s} s reached with no feasible solution "
                f"(dual bound {bound}, nodes {nodes})"
            )
        raise RuntimeError(f"HiGHS finished with unmapped status {res.status}: {res.message}")
    nodes = res.mip_node_count
    if status in ("infeasible", "unbounded"):
        return Solution(status=status, objective_value=None, values=None, nodes=nodes)
    values = np.array(res.x, dtype=float)
    return Solution(
        status=status,
        objective_value=inst.evaluate_objective(values),
        values=values,
        mip_gap=gap,
        nodes=nodes,
    )


# ---------------------------------------------------------------------------
# Exact reference oracle: propagation + LP-bounded best-bound branch-and-bound.
# ---------------------------------------------------------------------------

# Branching variable choice: decide bid postures first, then price picks,
# then the exclusivity switches. Heuristic only; exactness never depends on
# it, nor on the best-bound order in which open nodes are explored.
_BRANCH_PRIORITY = {"sell_on": 0, "buy_on": 0, "pick_sell": 1, "pick_buy": 1}


class _Propagator:
    """Vectorized activity-based bound tightening over <=-normalized rows."""

    def __init__(self, A, senses, b, binary_mask: np.ndarray):
        from scipy import sparse

        self.binary_mask = binary_mask
        senses = np.array(senses, dtype=str)
        le = senses != ">="
        ge = senses != "<="
        S = sparse.vstack([A[le], -A[ge]], format="csr")
        self.rhs = np.concatenate([b[le], -b[ge]])
        self.nz_row = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
        self.nz_col = S.indices
        self.nz_val = S.data
        self.S_pos = S.maximum(0).tocsr()
        self.S_neg = S.minimum(0).tocsr()
        self.pos_nz = self.nz_val > 0
        self.neg_nz = ~self.pos_nz

    def run(self, lb, ub, obj_cut=None, max_passes: int = 12) -> bool:
        """Tighten lb/ub in place; False when some row proves infeasible.

        ``obj_cut`` is an optional dense (coef, rhs) pair in <= form, used
        to carry the incumbent-objective bound into the tightening.
        """
        bmask = self.binary_mask
        for _ in range(max_passes):
            min_act = self.S_pos @ lb + self.S_neg @ ub
            if np.any(min_act > self.rhs + 1e-7):
                return False
            slack = self.rhs - min_act
            s_nz = slack[self.nz_row]

            ub_cand = ub.copy()
            pos = self.pos_nz
            cand = lb[self.nz_col[pos]] + s_nz[pos] / self.nz_val[pos]
            np.minimum.at(ub_cand, self.nz_col[pos], cand)

            lb_cand = lb.copy()
            neg = self.neg_nz
            cand = ub[self.nz_col[neg]] + s_nz[neg] / self.nz_val[neg]
            np.maximum.at(lb_cand, self.nz_col[neg], cand)

            if obj_cut is not None:
                co, rr = obj_cut
                lo_terms = np.where(co > 0, co * lb, co * ub)
                mact = lo_terms.sum()
                if mact > rr + 1e-7:
                    return False
                sl = rr - mact
                nzj = np.flatnonzero(co)
                for j in nzj:
                    a = co[j]
                    if a > 0:
                        ub_cand[j] = min(ub_cand[j], lb[j] + sl / a)
                    else:
                        lb_cand[j] = max(lb_cand[j], ub[j] + sl / a)

            # Binary rounding of fractional bounds.
            snap_hi = bmask & (ub_cand >= -1e-9) & (ub_cand < 1.0 - 1e-9)
            ub_cand[snap_hi] = 0.0
            snap_lo = bmask & (lb_cand > 1e-9) & (lb_cand <= 1.0 + 1e-9)
            lb_cand[snap_lo] = 1.0

            tighter_ub = ub_cand < ub - 1e-9
            tighter_lb = lb_cand > lb + 1e-9
            if not (tighter_ub.any() or tighter_lb.any()):
                return True
            ub[tighter_ub] = ub_cand[tighter_ub]
            lb[tighter_lb] = lb_cand[tighter_lb]
            if np.any(lb > ub + 1e-9):
                return False
        return True


class _Oracle:
    def __init__(self, inst: MilpInstance):
        self.inst = inst
        A, self.senses, self.b = inst.sparse_rows()
        self.A = A.toarray()
        self.A_pos = np.maximum(self.A, 0.0)
        self.A_neg = np.minimum(self.A, 0.0)
        self.c = inst.objective_vector()
        self.binaries = np.array(inst.binary_ids(), dtype=int)
        self.binary_mask = np.zeros(inst.n_vars, dtype=bool)
        self.binary_mask[self.binaries] = True
        self.prop = _Propagator(A, self.senses, self.b, self.binary_mask)
        prio = np.full(inst.n_vars, 2)
        for sym, entries in inst.index.items():
            p = _BRANCH_PRIORITY.get(sym)
            if p is not None:
                for vid in entries.values():
                    prio[vid] = p
        self.priority = prio
        # Row activity window of a feasible point, to 1e-7.
        sense = np.array(self.senses, dtype=str)
        self.row_lo = np.where(sense == "<=", -np.inf, self.b - 1e-7)
        self.row_hi = np.where(sense == ">=", np.inf, self.b + 1e-7)
        # Per binary, the rows it appears in (all that rounding it can
        # change), with their coefficients and windows.
        self.binary_rows = {}
        for j in self.binaries:
            rows = np.flatnonzero(self.A[:, j])
            self.binary_rows[j] = (rows, self.A[rows], self.row_lo[rows], self.row_hi[rows])

    def relax(self, lb, ub, basis=None) -> LpResult:
        """LP relaxation under node bounds ``lb``/``ub``.

        Every node solves the same rows and columns; only the bounds differ,
        so a parent's ``basis`` warm-starts its children. A row that no point
        in the bounds can satisfy is reported infeasible without an LP.
        """
        row_min = self.A_pos @ lb + self.A_neg @ ub
        row_max = self.A_pos @ ub + self.A_neg @ lb
        if ((row_min > self.row_hi) | (row_max < self.row_lo)).any():
            return LpResult("infeasible", None, None)
        return solve_lp(self.c, self.A, self.senses, self.b, lb, ub, basis=basis)

    def polish(self, x, lb, ub):
        """Round lazily fractional binaries that feasibility lets move.

        Keeps the continuous part untouched; every accepted rounding keeps
        the point feasible, so the result is always relaxation-feasible.
        The start point is checked once; a rounding changes only its
        column's rows, so only those are checked again. Returns (point,
        all_binaries_integral).
        """
        x2 = x.copy()
        lhs = self.A @ x2
        bad = (lhs < self.row_lo) | (lhs > self.row_hi)
        n_bad = np.count_nonzero(bad)
        clean = True
        binaries = self.binaries
        for j in binaries[np.minimum(x2[binaries], 1.0 - x2[binaries]) > 1e-9]:
            near = float(round(x2[j]))
            rows, A_rows, lo, hi = self.binary_rows[j]
            # A broken row outside this column's rows stays broken.
            movable = n_bad == 0 or np.count_nonzero(bad[rows]) == n_bad
            done = False
            for val in (near, 1.0 - near):
                if not movable or val < lb[j] - 1e-9 or val > ub[j] + 1e-9:
                    continue
                old = x2[j]
                x2[j] = val
                lhs = A_rows @ x2
                if not ((lhs < lo).any() or (lhs > hi).any()):
                    bad[rows] = False
                    n_bad = 0
                    done = True
                    break
                x2[j] = old
            clean &= done
        return x2, clean


def reference_solve(
    inst: MilpInstance,
    binary_limit: int = 24,
    node_limit: int = 200000,
) -> Solution:
    """Exact optimum by LP-bounded branch-and-bound over the binary variables.

    Every feasible binary assignment is covered unless bound propagation
    proves it infeasible or its LP relaxation cannot beat the incumbent;
    the surviving continuous program is solved by the bounded simplex.
    Open nodes are explored best-bound first (highest parent LP bound),
    ties last-in first-out. The order only decides how soon good
    incumbents turn up; exactness rests on the pruning rules alone.
    ``Solution.nodes`` counts the nodes explored. Refuses instances with
    more binaries than ``binary_limit``.
    """
    binaries = inst.binary_ids()
    if len(binaries) > binary_limit:
        raise ValueError(
            f"instance has {len(binaries)} binary variables, over the limit {binary_limit}"
        )
    oracle = _Oracle(inst)
    lb0 = np.asarray(inst.lb, dtype=float)
    ub0 = np.asarray(inst.ub, dtype=float)

    best_obj = -np.inf
    best_x = None
    nodes = 0
    saw_unbounded = False
    neg_c = -oracle.c

    # Max-heap on the parent's LP bound; the falling sequence number pops
    # the newest node first among equal bounds. Each node carries its
    # parent's optimal basis (None at the root, which solves cold).
    heap = [(-np.inf, 0, lb0.copy(), ub0.copy(), None)]
    seq = 0
    while heap:
        neg_bound, _, lb, ub, basis = heapq.heappop(heap)
        if -neg_bound <= best_obj + 1e-9:
            continue  # the parent's bound cannot beat the incumbent
        nodes += 1
        if nodes > node_limit:
            raise RuntimeError(f"reference solver exceeded {node_limit} nodes")
        obj_cut = (neg_c, -(best_obj + 1e-9)) if np.isfinite(best_obj) else None
        if not oracle.prop.run(lb, ub, obj_cut=obj_cut):
            continue
        lp = oracle.relax(lb, ub, basis)
        if lp.status == "infeasible":
            continue
        if lp.status == "unbounded":
            saw_unbounded = True
            continue
        obj, x, rc = lp.objective, lp.x, lp.reduced_costs
        if obj <= best_obj + 1e-9:
            continue
        if np.isfinite(best_obj):
            # Reduced-cost fixing: flips that provably cannot reach the
            # incumbent are pinned for this subtree before branching.
            for j in binaries:
                if ub[j] - lb[j] <= BND_TOL:
                    continue
                if x[j] <= lb[j] + 1e-9 and obj + rc[j] <= best_obj + 1e-9:
                    ub[j] = lb[j]
                elif x[j] >= ub[j] - 1e-9 and obj - rc[j] <= best_obj + 1e-9:
                    lb[j] = ub[j]
        frac = [j for j in binaries if min(x[j], 1.0 - x[j]) > 1e-9]
        if not frac:
            snapped = x.copy()
            snapped[binaries] = np.round(snapped[binaries])
            best_obj = obj
            best_x = snapped
            continue
        # Fractional flags that nothing actually constrains are rounded in
        # place; genuinely conflicting ones stay for branching.
        polished, clean = oracle.polish(x, lb, ub)
        if clean:
            pobj = float(oracle.c @ polished)
            if pobj > best_obj:
                best_obj = pobj
                best_x = polished.copy()
                best_x[binaries] = np.round(best_x[binaries])
            if pobj >= obj - 1e-9:
                continue  # the relaxation bound is attained, subtree closed
        else:
            x = polished
            frac = [j for j in binaries if min(x[j], 1.0 - x[j]) > 1e-9]
        # Branch: bid binaries first, then the most fractional, lowest index.
        scores = [(oracle.priority[j], -min(x[j], 1.0 - x[j]), j) for j in frac]
        _, _, branch = min(scores)
        lo1, up1 = lb.copy(), ub.copy()
        lo0, up0 = lb, ub
        lo1[branch] = 1.0
        up0[branch] = 0.0
        # The child on the side x leans to goes in last, so it pops first.
        children = [(lo0, up0), (lo1, up1)] if x[branch] >= 0.5 else [(lo1, up1), (lo0, up0)]
        for lo, up in children:
            seq -= 1
            heapq.heappush(heap, (-obj, seq, lo, up, lp.basis))

    if best_x is None:
        status = "unbounded" if saw_unbounded else "infeasible"
        return Solution(status=status, objective_value=None, values=None, nodes=nodes)
    return Solution(
        status="optimal", objective_value=float(best_obj), values=best_x, mip_gap=0.0, nodes=nodes
    )
