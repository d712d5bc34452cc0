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
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from operator import add, eq, ne, not_
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


class LpRows(Sequence):
    """The rows ``parse_lp`` read, in file order, as flat CSR arrays.

    Row ``i`` is named ``names[i]`` and has the terms ``cols[ptr[i]:ptr[i +
    1]]``, ids in the Bounds order of ``var_names``, with the coefficients
    ``vals[...]``, both as written; its sense is ``senses[i]`` and its
    right-hand side ``rhs[i]``. Read as a sequence, like ``milp.RowView``,
    it yields ``(name, {variable name: coefficient}, sense, rhs)`` tuples,
    each built when it is read, and it compares equal to a list of them.
    """

    def __init__(self, names, ptr, cols, vals, senses, rhs, var_names):
        self.names, self.ptr, self.cols, self.vals = names, ptr, cols, vals
        self.senses, self.rhs, self.var_names = senses, rhs, var_names

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, i: int):
        i = range(len(self))[i]
        terms = slice(self.ptr[i], self.ptr[i + 1])
        names = map(self.var_names.__getitem__, self.cols[terms].tolist())
        coeffs = dict(zip(names, self.vals[terms].tolist()))
        return self.names[i], coeffs, self.senses[i], float(self.rhs[i])

    def __iter__(self):
        terms = zip(map(self.var_names.__getitem__, self.cols.tolist()), self.vals.tolist())
        rows = zip(self.names, np.diff(self.ptr).tolist(), self.senses, self.rhs.tolist())
        for name, n_terms, sense, rhs in rows:
            yield name, dict(islice(terms, n_terms)), sense, rhs

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"LpRows({list(self)!r})"


@dataclass
class ParsedLp:
    """LP text read back. ``names`` is the Bounds order; ``objective``,
    ``lb`` and ``ub`` are keyed by name; ``rows`` are the rows in file
    order as ``LpRows``, flat arrays that read as ``(name, coefficients by
    variable name, sense, rhs)`` tuples. ``maximize`` is always True, the
    one sense emit_exchange writes."""

    maximize: bool
    names: list[str]
    objective: dict[str, float]
    rows: LpRows
    lb: dict[str, float]
    ub: dict[str, float]
    binaries: set[str] = field(default_factory=set)


_NUM_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+")
_NAME_RE = re.compile(r"[A-Za-z_][\w.]*")
_VALUE_RE = re.compile(r"[+-]?[\d.eE+-]+")
# Names of ASCII letters, digits, "_" and ".", one per line: all of them
# fit _NAME_RE when their join matches.
_ASCII_NAMES_RE = re.compile(r"(?:[A-Za-z_][\w.]*(?:\n[A-Za-z_][\w.]*)*)?", re.ASCII)
_SENSE_OF = {sense: sense for sense in ("<=", ">=", "=")}
_SIGN_BYTE = {"+": ord("+"), "-": ord("-")}
# parse_lp decodes a section this many characters (whole lines) at a time,
# so that the tokens of one piece at a time are alive.
_PIECE_CHARS = 1 << 18
# The ASCII characters other than "\n" at which str.splitlines() ends a line.
_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


def _value(tok: str) -> float:
    """A right-hand side or bound token as a float; NaN when it is not one."""
    if _VALUE_RE.fullmatch(tok):
        with contextlib.suppress(ValueError):  # e.g. "1e"
            return float(tok)
    return np.nan


def _refused(section: str, raw: str | None) -> ValueError:
    """The error for a line of LP text, or for its end (``raw`` None)."""
    if raw is None:
        return ValueError("LP text ends before its End line")
    return ValueError(f"cannot parse {section} line: {raw!r}")


def _as_lines(text: str) -> str:
    """The lines ``text.splitlines()`` gives, each ended by "\\n"."""
    if text.isascii() and not any(c in text for c in _LINE_BREAKS):
        return text if not text or text.endswith("\n") else text + "\n"
    lines = text.splitlines()
    return "\n".join(lines) + "\n" if lines else ""


def _line(text: str, at: int) -> tuple[str | None, int]:
    """The line that starts at ``at`` and where the next one starts; None at the end."""
    if at >= len(text):
        return None, at
    end = text.index("\n", at)
    return text[at:end], end + 1


def _find_line(text: str, line: str, at: int) -> int:
    """Where the first line equal to ``line`` starts, from the line start
    ``at`` on; -1 if there is none."""
    if text.startswith(line + "\n", at):
        return at
    found = text.find("\n" + line + "\n", at)
    return found + 1 if found >= 0 else -1


def _plain(block: str) -> bool:
    """Whether ``block`` is ASCII with no whitespace but " " and "\\n"."""
    return block.isascii() and "\t" not in block and "\x1f" not in block


def _token_counts(block: str) -> np.ndarray:
    """The number of tokens on each line of a plain block of whole lines,
    from the positions of its blanks and newlines."""
    text = np.frombuffer(block.encode("ascii"), np.uint8)
    newline = text == ord("\n")
    blank = newline | (text == ord(" "))
    starts = np.flatnonzero(blank[:-1] > blank[1:]) + 1  # a token after a blank
    counts = np.diff(np.searchsorted(starts, np.flatnonzero(newline)), prepend=0)
    if text.size and not blank[0]:
        counts[0] += 1
    return counts


def _layout(block: str) -> tuple[list[str], np.ndarray]:
    """``block.split()`` and the number of tokens on each line of the block."""
    if _plain(block):
        return block.split(), _token_counts(block)
    tokens: list[str] = []
    counts = []
    for line in block.split("\n")[:-1]:
        line_tokens = line.split()
        tokens += line_tokens
        counts.append(len(line_tokens))
    return tokens, np.array(counts, dtype=np.int64)


def _row_layout(block: str) -> tuple[list[str | None], list, np.ndarray]:
    """The row names, tokens and tokens per line of a Subject To block.

    A line's tokens start with one slot for its ``name:`` label. Its name
    is None when there is no such label (no colon, or not one token before
    it); then the line keeps only that slot, which fails every row shape.
    """
    if _plain(block):
        tokens, counts = block.split(), _token_counts(block)
        if counts.all():
            # Every label is the line's first token "name:", with its one colon last.
            labels = "\n".join(map(tokens.__getitem__, (np.cumsum(counts) - counts).tolist()))
            names = labels[:-1].split(":\n")
            one_colon_each = len(names) == len(counts) == labels.count(":")
            if labels.endswith(":") and one_colon_each and all(names):
                return names, tokens, counts
    names, tokens, counts = [], [], []
    for line in block.split("\n")[:-1]:
        label, colon, body = line.partition(":")
        label = label.split()
        labelled = colon and len(label) == 1
        names.append(label[0] if labelled else None)
        body = body.split() if labelled else []
        tokens.append(None)
        tokens += body
        counts.append(len(body) + 1)
    return names, tokens, np.array(counts, dtype=np.int64)


def _first(bad: np.ndarray, stop: int, n: int) -> int | None:
    """The first bad line among the first ``stop`` of ``n``, where line
    ``stop`` has the wrong shape when it is not the last; None if none."""
    bad_at = np.flatnonzero(bad)
    if bad_at.size:
        return int(bad_at[0])
    return stop if stop < n else None


def _shape_stop(fits: np.ndarray) -> int:
    """The first line of the wrong shape, or the number of lines."""
    return len(fits) if fits.all() else int(np.argmin(fits))


def _pieces(text: str, start: int, end: int):
    """``(start, end)`` of whole-line pieces of ``text[start:end]``, each
    about _PIECE_CHARS long."""
    while start < end:
        cut = text.find("\n", min(start + _PIECE_CHARS, end) - 1, end) + 1 or end
        yield start, cut
        start = cut


class _Decoder:
    """What ``parse_lp`` keeps while it decodes one text: each distinct
    number converted once, and the Bounds names with their ids."""

    def __init__(self):
        self.number = _Memo(lambda num: float(num) if _NUM_RE.fullmatch(num) else np.nan)
        self.value = _Memo(_value)
        self.lower = _Memo(lambda tok: -np.inf if tok == "-inf" else self.value[tok])
        self.id_of: dict[str, int] = {}  # a repeated name: its last Bounds line
        self.n_names = 0  # the Bounds lines read; stand-in ids come after
        self.name_ok: np.ndarray | None = None  # None when every Bounds name fits
        self.missing: dict[str, int] = {}  # names without a Bounds line, with stand-in ids

    def bounds(self, block: str):
        """A piece of the Bounds section: the names, lower and upper
        bounds and bad-line mask of its first ``stop`` lines, ``stop`` and
        its number of lines. Line ``stop``, if there is one, has the wrong
        shape; the names are checked in ``index``."""
        tokens, counts = _layout(block)
        n_lines = len(counts)
        stop = _shape_stop((counts == 5) | (counts == 3))
        counts = counts[:stop]
        five = counts == 5  # lo <= x <= hi; else x >= lo
        if five.all():  # as emit_exchange writes them when no upper bound is inf
            tokens = tokens[: 5 * stop]
            lo_tokens, names, hi_tokens = tokens[0::5], tokens[2::5], tokens[4::5]
            le_tokens, ge_tokens = tokens[1::5] + tokens[3::5], []
        else:
            first = np.cumsum(counts) - counts

            def tokens_at(index: np.ndarray) -> list[str]:
                return list(map(tokens.__getitem__, index.tolist()))

            lo_tokens = tokens_at(np.where(five, first, first + 2))
            names = tokens_at(np.where(five, first + 2, first))
            hi_tokens = tokens_at(first[five] + 4)
            le_tokens = tokens_at(np.concatenate((first[five] + 1, first[five] + 3)))
            ge_tokens = tokens_at(first[~five] + 1)
        n_five = len(hi_tokens)
        bad = np.zeros(stop, bool)
        le = np.fromiter(map(ne, le_tokens, repeat("<=")), bool, 2 * n_five)
        bad[five] = le.reshape(2, n_five).any(axis=0)
        bad[~five] = np.fromiter(map(ne, ge_tokens, repeat(">=")), bool, stop - n_five)
        lb = np.fromiter(map(self.lower.__getitem__, lo_tokens), float, stop)
        ub = np.full(stop, np.inf)
        ub[five] = np.fromiter(map(self.value.__getitem__, hi_tokens), float, n_five)
        bad |= np.isnan(lb) | np.isnan(ub)
        return names, lb, ub, bad, stop, n_lines

    def index(self, names: list[str]) -> np.ndarray:
        """Give the Bounds names their ids; the mask of the lines whose
        name fails the grammar or repeats an earlier line's."""
        n = self.n_names = len(names)
        bad = np.zeros(n, bool)
        if not _ASCII_NAMES_RE.fullmatch("\n".join(names)):
            self.name_ok = np.fromiter(map(bool, map(_NAME_RE.fullmatch, names)), bool, n)
            bad |= ~self.name_ok
        self.id_of = dict(zip(names, range(n)))
        if len(self.id_of) < n:
            first_of = dict(zip(reversed(names), range(n - 1, -1, -1)))
            bad |= np.fromiter(map(first_of.__getitem__, names), np.int64, n) != np.arange(n)
        return bad

    def terms(self, terms: list[str], per_line: np.ndarray):
        """``sign number name`` triples, ``per_line[i]`` of them on line
        ``i``: their coefficients, their ids and a mask of the lines with a
        bad triple or with a name twice."""
        n, n_vars = len(terms) // 3, self.n_names
        signs = "".join(terms[0::3])
        if len(signs) == n and signs.isascii():
            sign = np.frombuffer(signs.encode(), np.uint8)
        else:
            sign = np.fromiter(map(_SIGN_BYTE.get, terms[0::3], repeat(0)), np.uint8, n)
        minus = sign == ord("-")
        magnitude = np.fromiter(map(self.number.__getitem__, terms[1::3]), float, n)
        coefs = np.where(minus, 0.0 - magnitude, 0.0 + magnitude)
        bad = ~(minus | (sign == ord("+"))) | np.isnan(magnitude)
        names = terms[2::3]
        ids = np.fromiter(map(self.id_of.get, names, repeat(-1)), np.int64, n)
        for i in np.flatnonzero(ids < 0).tolist():
            if _NAME_RE.fullmatch(names[i]):
                ids[i] = self.missing.setdefault(names[i], n_vars + len(self.missing))
            else:
                bad[i] = True
        if self.name_ok is not None:
            known = (ids >= 0) & (ids < n_vars)
            bad[known] |= ~self.name_ok[ids[known]]
        owner = np.repeat(np.arange(len(per_line)), per_line)
        bad_lines = np.zeros(len(per_line), bool)
        bad_lines[owner[bad]] = True
        if n:  # a name twice in a line: equal (line, id) keys, side by side once sorted
            span = int(ids.max()) + 2
            key = np.sort(owner * span + ids + 1)
            bad_lines[key[1:][key[1:] == key[:-1]] // span] = True
        return coefs, ids, bad_lines

    def rows(self, block: str):
        """A piece of the Subject To section: the row names, terms per
        row, coefficients, column ids, senses and right-hand sides of its
        lines up to the first bad one, and that line or None."""
        names, tokens, counts = _row_layout(block)
        n_lines = len(counts)
        stop = _shape_stop((counts >= 3) & (counts % 3 == 0))  # label, triples, sense, rhs
        counts = counts[:stop]
        end = np.cumsum(counts)
        keep = np.ones(int(end[-1]) if stop else 0, bool)
        keep[end - counts] = keep[end - 2] = keep[end - 1] = False
        per_line = counts // 3 - 1
        coefs, cols, bad = self.terms(list(compress(tokens, keep.tobytes())), per_line)
        take = tokens.__getitem__
        senses = list(map(_SENSE_OF.get, map(take, (end - 2).tolist())))
        rhs = np.fromiter(map(self.value.__getitem__, map(take, (end - 1).tolist())), float, stop)
        bad |= np.fromiter(map(not_, senses), bool, stop) | np.isnan(rhs)
        return names[:stop], per_line, coefs, cols, senses, rhs, _first(bad, stop, n_lines)


def parse_lp(text: str) -> ParsedLp:
    """Parse the LP text emit_exchange writes, and refuse anything else.

    The lines, in this order, with tokens split at whitespace: ``Maximize``;
    one objective line ``label: terms``; ``Subject To``; rows ``name: terms
    sense rhs`` with sense ``<=``, ``>=`` or ``=``; ``Bounds``; one line
    ``lo <= x <= hi`` or ``x >= lo`` per variable, where ``lo`` may also
    be ``-inf`` (a variable without a lower bound); optionally
    ``Binaries`` and one declared name per line, which caps its upper
    bound at 1; ``End``. Terms are ``sign number name`` with distinct names
    in a line, and every name in them needs a Bounds line. ``names`` is the
    Bounds order. The first line of the text that breaks this raises
    ``ValueError("cannot parse <section> line: '<line>'")``, and text that
    ends before ``End`` raises too.

    The sections are decoded in bulk, a piece of about 256 KiB at a time,
    never line by line: one ``split()`` of the piece, token counts
    per line from the positions of its blanks and newlines, and each check
    a mask over the lines. A piece with whitespace other than " " and
    "\\n", with non-ASCII text, or with a row whose colon does not end its
    first token takes its counts from a split of each line instead, and
    then the same checks. Each distinct number is converted once, the
    Bounds names are checked by one regex over their join, and a name in
    a term is its Bounds-order id by one dict lookup.
    """
    text = _as_lines(text)
    raw, at = _line(text, 0)
    if raw != "Maximize":
        raise _refused("first", raw)
    objective_line, at = _line(text, at)
    head, rows_at = _line(text, at)
    bounds_at = _find_line(text, "Bounds", rows_at)
    rows_end = bounds_at if bounds_at >= 0 else len(text)
    bounds_from = bounds_at + len("Bounds\n") if bounds_at >= 0 else len(text)
    marks = (_find_line(text, "Binaries", bounds_from), _find_line(text, "End", bounds_from))
    bounds_end = min([mark for mark in marks if mark >= 0], default=len(text))

    # The Bounds section first: the terms name their variables by its ids.
    # Its first bad line is raised in text order, below.
    dec = _Decoder()
    names: list[str] = []
    lb, ub, bad = [np.zeros(0)], [np.zeros(0)], [np.zeros(0, bool)]
    cut = False  # whether a line of the wrong shape ended the reading
    for start, end in _pieces(text, bounds_from, bounds_end):
        piece_names, piece_lb, piece_ub, piece_bad, stop, n_lines = dec.bounds(text[start:end])
        names += piece_names
        lb.append(piece_lb)
        ub.append(piece_ub)
        bad.append(piece_bad)
        if cut := stop < n_lines:
            break
    lb, ub = np.concatenate(lb), np.concatenate(ub)
    bad = np.concatenate(bad) | dec.index(names)
    bounds_bad = _first(bad, len(names), len(names) + cut)

    if objective_line is None:
        raise _refused("Maximize", None)
    label, colon, body = objective_line.partition(":")
    terms = body.split()
    if not colon or len(label.split()) != 1 or len(terms) % 3:
        raise _refused("Maximize", objective_line)
    coefs, _ids, bad = dec.terms(terms, np.array([len(terms) // 3]))
    if bad.any():
        raise _refused("Maximize", objective_line)
    objective = dict(zip(terms[2::3], coefs.tolist()))
    if head != "Subject To":
        raise _refused("Maximize", head)

    row_names: list[str] = []
    parts = [(np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.int64), [], np.zeros(0))]
    for start, end in _pieces(text, rows_at, rows_end):
        block = text[start:end]
        piece_names, *arrays, line = dec.rows(block)
        if line is not None:
            raise _refused("Subject To", block.split("\n")[line])
        row_names += piece_names
        parts.append(arrays)
    per_line, coefs, cols, senses, rhs = zip(*parts)
    if bounds_at < 0:
        raise _refused("End", None)
    if bounds_bad is not None:
        raise _refused("Bounds", text[bounds_from:bounds_end].split("\n")[bounds_bad])

    binaries: list[str] = []
    end_at = bounds_end if text.startswith("End\n", bounds_end) else -1
    if text.startswith("Binaries\n", bounds_end):
        binaries_from = bounds_end + len("Binaries\n")
        end_at = _find_line(text, "End", binaries_from)
        lines = text[binaries_from : end_at if end_at >= 0 else len(text)].split("\n")[:-1]
        binaries = list(map(str.strip, lines))
        ids = np.fromiter(map(dec.id_of.get, binaries, repeat(-1)), np.int64, len(binaries))
        repeated = np.ones(len(ids), bool)
        repeated[np.unique(ids, return_index=True)[1]] = False
        if (line := _first((ids < 0) | repeated, len(ids), len(ids))) is not None:
            raise _refused("Binaries", lines[line])
        ub[ids] = np.minimum(ub[ids], 1.0)
    if end_at < 0:
        raise _refused("End", None)
    raw, _at = _line(text, end_at + len("End\n"))
    if raw is not None:
        raise _refused("End", raw)
    if dec.missing:
        raise ValueError(f"variable {min(dec.missing)!r} has no Bounds line")
    rows = LpRows(
        row_names,
        np.concatenate(([0], np.cumsum(np.concatenate(per_line)))),
        np.concatenate(cols),
        np.concatenate(coefs),
        list(chain.from_iterable(senses)),
        np.concatenate(rhs),
        names,
    )
    return ParsedLp(
        True,
        names,
        objective,
        rows,
        dict(zip(names, lb.tolist())),
        dict(zip(names, ub.tolist())),
        set(binaries),
    )


_HIGHS_STATUS = {0: "optimal", 1: "gap_limit", 2: "infeasible", 3: "unbounded"}


class NoIncumbentError(RuntimeError):
    """HiGHS reached its time limit before it found a feasible point.

    ``dual_bound`` is its bound on the maximized objective and ``nodes`` its
    node count; both are None when the limit fell before the
    branch-and-bound.
    """

    def __init__(self, message: str, dual_bound: float | None, nodes: int | None):
        super().__init__(message)
        self.dual_bound = dual_bound
        self.nodes = nodes


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
    before any feasible point, it is a ``NoIncumbentError`` whose message
    names HiGHS's dual bound on the maximized objective and its node count.
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
            bound = None if bound is None else -float(bound) + 0.0
            raise NoIncumbentError(
                f"time limit of {time_limit_s} s reached with no feasible solution "
                f"(dual bound {'unknown' if bound is None else repr(bound)}, "
                f"nodes {'unknown' if nodes is None else nodes})",
                bound,
                nodes,
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
    """Activity-based bound tightening over <=-normalized rows.

    The bounds live in one vector ``y = [lb, 0, -ub, 0, inf]``, in which
    every tightening is a raise, so that the candidates of all rows go in
    with one ``np.maximum.at``. A term with coefficient ``a`` reads the
    bound its column takes at the row's minimum activity (lb when ``a >
    0``, ub when ``a < 0``) and offers ``bound + slack / a`` to the other
    bound of its column, negated where that is ub. A row keeps its
    positive and its negative terms in two slot lists of one width (``rows
    x 2 x width``); slot 0 of each list, and every slot past its end, is a
    padding term with coefficient 1 that reads a zero and writes to the
    last, infinite entry. So each list sums from 0.0 in its row's CSR
    order, as a sparse matrix-vector product does, and every value is
    computed as in a sweep over the nonzeros, bit for bit.
    """

    OFFER_SIGN = np.array([[-1.0], [1.0]])  # positive terms offer to ub

    def __init__(self, A, senses, b, binary_mask: np.ndarray):
        from scipy import sparse

        senses = np.array(senses, dtype=str)
        le = senses != ">="
        ge = senses != "<="
        S = sparse.vstack([A[le], -A[ge]], format="csr")
        self.rhs = np.concatenate([b[le], -b[ge]])
        n_rows, n = S.shape
        self.n = n
        row = np.repeat(np.arange(n_rows), np.diff(S.indptr))
        col, val = S.indices, S.data
        keep = val != 0.0  # a zero coefficient bounds nothing
        row, col, val = row[keep], col[keep], val[keep]
        neg = val < 0.0
        # Each term's slot: 1 + the number of earlier terms in its row and list.
        group = 2 * row + neg
        count = np.bincount(group, minlength=2 * n_rows)
        order = np.argsort(group, kind="stable")
        slot = np.empty(len(group), dtype=np.int64)
        slot[order] = np.arange(len(group)) - (np.cumsum(count) - count)[group[order]] + 1
        shape = (n_rows, 2, 1 + count.max(initial=0))
        at = (row, neg.astype(np.int64), slot)
        lb_slot, ub_slot = col, n + 1 + col
        self.reads = np.full(shape, n)
        self.reads[at] = np.where(neg, ub_slot, lb_slot)
        self.writes = np.full(shape, 2 * n + 2)
        self.writes[at] = np.where(neg, lb_slot, ub_slot)
        self.coef = np.ones(shape)
        self.coef[at] = val
        self.slot_rows = np.zeros((2 * n + 3, n_rows), dtype=bool)
        self.slot_rows[lb_slot, row] = True
        self.slot_rows[ub_slot, row] = True
        self.sign = np.ones(2 * n + 3)
        self.sign[n + 1 : 2 * n + 1] = -1.0
        # Binary rounding of fractional bounds: a lb in (1e-9, 1 + 1e-9]
        # becomes 1, a ub in [-1e-9, 1 - 1e-9) becomes 0.
        binaries = np.flatnonzero(binary_mask)
        self.snap_lo = np.full(2 * n + 3, np.inf)
        self.snap_hi = np.full(2 * n + 3, -np.inf)
        self.snap_to = np.zeros(2 * n + 3)
        self.snap_lo[binaries] = 1e-9
        self.snap_hi[binaries] = 1.0 + 1e-9
        self.snap_to[binaries] = 1.0
        self.snap_lo[n + 1 + binaries] = -(1.0 - 1e-9)
        self.snap_hi[n + 1 + binaries] = 1e-9
        self.snap_to[n + 1 + binaries] = -0.0

    def run(self, lb, ub, obj_cut=None, max_passes: int = 12) -> bool:
        """Tighten lb/ub in place; False when some row proves infeasible.

        ``obj_cut`` is an optional dense (coef, rhs) pair in <= form, used
        to carry the incumbent-objective bound into the tightening.
        """
        n = self.n
        y = np.concatenate((lb, [0.0], -ub, [0.0, np.inf]))
        feasible = self._tighten(y, obj_cut, max_passes)
        lb[:] = y[:n]
        np.negative(y[n + 1 : 2 * n + 1], out=ub)
        return feasible

    def _tighten(self, y, obj_cut, max_passes: int) -> bool:
        """``run`` on the packed bounds ``y``.

        The first pass reads every row. A later pass reads only the rows of
        the columns the pass before tightened: every other row would offer
        what it offered then, which did not tighten and cannot now. (An
        offer that is nan would still block an objective-cut offer, but a
        row offers nan to a bound only when the other bound of its column
        is infinite, and then the cut and every other row offer it nan
        too. Binary bounds stay 0 or 1, so rounding never turns an offer
        that beats a bound into one that does not.) So the result is that
        of reading every row on every pass.
        """
        n = self.n
        sign = self.sign
        if obj_cut is not None:
            # Like a row term, each objective column reads one bound and
            # offers to the other.
            co, rr = obj_cut
            up, down = np.flatnonzero(co > 0), np.flatnonzero(co < 0)
            cut_reads = np.concatenate((up, n + 1 + down))
            cut_writes = np.concatenate((n + 1 + up, down))
            cut_coef = co[np.concatenate((up, down))]
        rows = slice(None)
        for _ in range(max_passes):
            x = sign * y  # [lb, 0, ub, 0, inf]
            bound = x[self.reads[rows]]
            coef = self.coef[rows]
            terms = coef * bound
            act = terms[:, :, 0]
            for k in range(1, terms.shape[2]):
                act = act + terms[:, :, k]
            min_act = act[:, 0] + act[:, 1]
            rhs = self.rhs[rows]
            if (min_act > rhs + 1e-7).any():
                return False
            slack = rhs - min_act
            offer = (bound + slack[:, None, None] / coef) * self.OFFER_SIGN
            cand = y.copy()
            np.maximum.at(cand, self.writes[rows].ravel(), offer.ravel())

            if obj_cut is not None:
                # A zero coefficient reads 0 in place of a bound, which may
                # be infinite.
                read = np.where(co > 0, x[:n], np.where(co < 0, x[n + 1 : 2 * n + 1], 0.0))
                mact = (co * read).sum()
                if mact > rr + 1e-7:
                    return False
                offer = (x[cut_reads] + (rr - mact) / cut_coef) * sign[cut_writes]
                # As Python's max: a nan offer leaves the bound.
                cur = cand[cut_writes]
                cand[cut_writes] = np.where(offer > cur, offer, cur)

            snap = (cand > self.snap_lo) & (cand <= self.snap_hi)
            cand[snap] = self.snap_to[snap]

            tighter = cand > y + 1e-9
            if not tighter.any():
                return True
            y[tighter] = cand[tighter]
            if (y[:n] > 1e-9 - y[n + 1 : 2 * n + 1]).any():  # lb > ub + 1e-9
                return False
            rows = self.slot_rows[tighter].any(axis=0).nonzero()[0]
        return True


class _Oracle:
    def __init__(self, inst: MilpInstance):
        self.inst = inst
        A, senses, self.b = inst.sparse_rows()
        self.senses = np.array(senses, dtype=str)
        self.A = A.toarray()
        self.A_pos = np.maximum(self.A, 0.0)
        self.A_neg = np.minimum(self.A, 0.0)
        self.c = inst.objective_vector()
        self.binaries = np.array(inst.binary_ids(), dtype=int)
        self.binary_mask = np.zeros(inst.n_vars, dtype=bool)
        self.binary_mask[self.binaries] = True
        self.prop = _Propagator(A, self.senses, self.b, self.binary_mask)
        self.priority = np.full(inst.n_vars, 2)
        for sym, grid in inst.index.items():
            if sym in _BRANCH_PRIORITY:
                self.priority[grid[grid >= 0]] = _BRANCH_PRIORITY[sym]
        # Row activity window of a feasible point, to 1e-7.
        self.row_lo = np.where(self.senses == "<=", -np.inf, self.b - 1e-7)
        self.row_hi = np.where(self.senses == ">=", np.inf, self.b + 1e-7)
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
        in the bounds can satisfy is reported infeasible without an LP. In
        the rows' activity ranges, a zero coefficient adds 0 also on an
        infinite bound, and a nonzero one makes the range infinite that way.
        """
        lo, hi = lb, ub
        lo_free, hi_free = np.isinf(lb), np.isinf(ub)
        free = lo_free.any() or hi_free.any()
        if free:
            lo, hi = np.where(lo_free, 0.0, lb), np.where(hi_free, 0.0, ub)
        row_min = self.A_pos @ lo + self.A_neg @ hi
        row_max = self.A_pos @ hi + self.A_neg @ lo
        if free:
            A_pos, A_neg = self.A_pos.astype(bool), self.A_neg.astype(bool)
            row_min[A_pos[:, lo_free].any(axis=1) | A_neg[:, hi_free].any(axis=1)] = -np.inf
            row_max[A_neg[:, lo_free].any(axis=1) | A_pos[:, hi_free].any(axis=1)] = np.inf
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
    n_binaries = len(inst.binary_ids())
    if n_binaries > binary_limit:
        raise ValueError(
            f"instance has {n_binaries} binary variables, over the limit {binary_limit}"
        )
    oracle = _Oracle(inst)
    binaries = oracle.binaries
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
            x_b, lb_b, ub_b, rc_b = x[binaries], lb[binaries], ub[binaries], rc[binaries]
            free = ~(ub_b - lb_b <= BND_TOL)
            down = free & (x_b <= lb_b + 1e-9) & (obj + rc_b <= best_obj + 1e-9)
            up = free & ~down & (x_b >= ub_b - 1e-9) & (obj - rc_b <= best_obj + 1e-9)
            ub[binaries[down]] = lb_b[down]
            lb[binaries[up]] = ub_b[up]
        dist = np.minimum(x[binaries], 1.0 - x[binaries])
        if not (dist > 1e-9).any():
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
            dist = np.minimum(x[binaries], 1.0 - x[binaries])
        # Branch: bid binaries first, then the most fractional, lowest index.
        frac = dist > 1e-9
        order = np.lexsort((-dist[frac], oracle.priority[binaries[frac]]))
        branch = binaries[frac][order[0]]
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
