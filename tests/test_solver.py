import hashlib
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

import recbid.solver as solver_mod
from recbid import highs_runner
from recbid.core import RecConfig
from recbid.harness import CASES, RunSpec, day_inputs, load_week_data
from recbid.milp import BINARY, CONTINUOUS, MilpInstance, build_instance, check_solution
from recbid.solver import (
    NoIncumbentError,
    ParsedLp,
    emit_exchange,
    parse_lp,
    reference_solve,
    solve_external,
)

from conftest import random_instance, tiny_inputs

DATA = Path(__file__).parent / "data"
WEEK_DATA_DIR = Path(__file__).parents[1] / "data" / "synthetic_week"


def single_var_instance():
    inst = MilpInstance()
    vid = inst.add_var("x_0", CONTINUOUS, 0.0, 5.0)
    inst.add_row("cap_0", [(vid, 3.0)], "<=", 6.0)
    inst.objective[vid] = 2.0
    return inst


def infeasible_instance():
    inst = MilpInstance()
    vid = inst.add_var("x_0", CONTINUOUS, 0.0, 1.0)
    inst.add_row("r0", [(vid, 1.0)], ">=", 2.0)
    return inst


class TestEmit:
    def test_empty_instance_is_header_only(self):
        text = emit_exchange(MilpInstance())
        assert text == "Maximize\n obj:\nSubject To\nBounds\nEnd\n"

    def test_matches_golden_file(self):
        assert emit_exchange(single_var_instance()) == (DATA / "golden_single_var.lp").read_text()

    def test_byte_identical_across_calls(self):
        inst = random_instance(0)
        assert emit_exchange(inst) == emit_exchange(inst)

    def test_unnamed_variable_refused(self):
        inst = MilpInstance()
        inst.add_var("", CONTINUOUS, 0.0, 1.0)
        with pytest.raises(ValueError, match="no name"):
            emit_exchange(inst)

    def test_duplicate_variable_name_refused(self):
        # LP text keys variables by name; parse_lp would merge the two.
        inst = MilpInstance()
        for sym in ("x", "y", "z"):
            inst.add_var(f"{sym}_0", CONTINUOUS, 0.0, 1.0)
        inst.add_var("y_0", CONTINUOUS, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"^variables 1 and 3 share the name 'y_0'$"):
            emit_exchange(inst)

    # The exported text, byte for byte: other solvers and saved runs read it.
    # Which of several tied plans HiGHS returns follows the variable order,
    # so the text also holds the order fixed.
    PINNED_SHA256 = {
        "random0": "a89a3dd55930cb6f922dbb63a1ff41b14eb405900f8e5c31ad9d9b8f29f5855c",
        "random1": "8d6be260e6d2bb491fe5a6f1ba7cde38f7df527747f06ddc27a54d9b8a220aeb",
        "random2": "cd6f0c573fac76e793af3ba8a9475641f4e4c2322bcbff40edce3dc4486fc477",
        "desk1": "da9f7854e761ab606a3aea6c9ec95cce2162b3402a4bc1d0797a348d519dde02",
        "tiny": "a06860aa171fe87cbc72501fcc8de41564a2383f41f9fcdcc602c21be69c096d",
        "day0_base": "a61a5e0d9fc7b20688c7263c3aee322170b31f913feb33cb826cdfc28fdff34e",
        "day0_no_incentive": "597a593b146967c960fc934e928c4f6d564763bb745091f68e41d94381d86c3a",
        "day0_no_msd": "c678c3ef57253cc3d9c7922aeac96e843971ea70d51c2e7b2a8067c6ff242ffb",
        "day0_neither": "1c09b30c622703adaa5c3afab244c3a829802e0603aabd97484415da15bdd5e4",
        "day0_3x2_no_battery": "ef57e138f8c7a37e2f43e839ced36987253d18bb1078d9d60bf142afc88949fb",
        "day0_3x2_grid_charging": "4ab0d5fce3dce1479988da56c0796842a6f3b42bfa0fd2b987e32483c25c2d77",
    }
    # evaluate_objective at default_rng(0).random(n_vars), as float.hex: the
    # objective dict's order is its summation order.
    PINNED_OBJECTIVE = {
        "random0": "-0x1.128f6b339618dp-1",
        "random1": "-0x1.f676a912d976dp-2",
        "random2": "-0x1.3041ddfa6b12cp-1",
        "desk1": "-0x1.2024da6a8708ap-4",
        "tiny": "-0x1.4a62a04b139c6p-5",
        "day0_base": "-0x1.04340fca7674bp+2",
        "day0_no_incentive": "-0x1.56f20eb967a37p+2",
        "day0_no_msd": "-0x1.e26fd71749cedp+1",
        "day0_neither": "-0x1.50cfdcfd16896p+2",
        "day0_3x2_no_battery": "-0x1.9905f94ffc51ap+0",
        "day0_3x2_grid_charging": "-0x1.3497a8c721012p+0",
    }
    # Bundled-week day 0, scenario seed 0: (case, n_m, n_r, config changes).
    PINNED_DAYS = {
        "day0_base": ("base", 10, 10, {}),
        "day0_no_incentive": ("no_incentive", 10, 10, {}),
        "day0_no_msd": ("no_msd", 10, 10, {}),
        "day0_neither": ("neither", 10, 10, {}),
        "day0_3x2_no_battery": ("base", 3, 2, {"battery_capacity_kwh": 0.0}),
        "day0_3x2_grid_charging": ("base", 3, 2, {"renewable_only_charging": False}),
    }

    @classmethod
    def pinned_instances(cls):
        """(label, instance) pairs, built one at a time."""
        for seed in range(3):
            yield f"random{seed}", random_instance(seed)
        # The oracle_desk benchmark's shape, with a battery and an incentive.
        yield "desk1", random_instance(1, K=2, nm=2, nr=1)
        yield "tiny", build_instance(*tiny_inputs())
        data = load_week_data(WEEK_DATA_DIR)
        for label, (case, n_m, n_r, changes) in cls.PINNED_DAYS.items():
            spec = RunSpec(RecConfig(**changes), case=case, n_m=n_m, n_r=n_r, seed=0)
            config, allow_bids, prices, energies, known = day_inputs(spec, data, 0)
            yield label, build_instance(config, prices, energies, known, allow_bids=allow_bids)

    def test_pinned_texts(self):
        got_text, got_objective = {}, {}
        for label, inst in self.pinned_instances():
            got_text[label] = hashlib.sha256(emit_exchange(inst).encode()).hexdigest()
            x = np.random.default_rng(0).random(inst.n_vars)
            got_objective[label] = inst.evaluate_objective(x).hex()
        assert got_text == self.PINNED_SHA256
        assert got_objective == self.PINNED_OBJECTIVE

    def test_numpy_scalars_signed_zeros_and_infinite_bounds(self):
        inst = MilpInstance()
        x = inst.add_var("x_0", CONTINUOUS, -0.0, np.inf)
        on = inst.add_var("on_0", BINARY, 0.0, 1.0)
        z = inst.add_var("z", CONTINUOUS, np.float64(-2.5), np.float64(1e-05))
        mix = [(z, np.float64(1e20)), (x, np.float64(0.95)), (on, -1.0)]
        inst.add_row("mix", mix, "<=", np.float64(-0.0))
        inst.add_row("link", [(on, 2.0), (x, 1.0)], ">=", -3.0)
        inst.add_row("fix", [(z, np.float64(-0.125))], "=", np.float64(7.0))
        inst.add_row("empty", [], "<=", 1.0)
        inst.objective.update({z: -3.0, x: np.float64(1.5), on: -0.0})
        assert emit_exchange(inst) == (
            "Maximize\n"
            " obj: + 1.5 x_0 - 3.0 z\n"
            "Subject To\n"
            " mix: + 0.95 x_0 - 1.0 on_0 + 1e+20 z <= 0.0\n"
            " link: + 1.0 x_0 + 2.0 on_0 >= -3.0\n"
            " fix: - 0.125 z = 7.0\n"
            " empty:  <= 1.0\n"
            "Bounds\n"
            " x_0 >= 0.0\n"
            " 0.0 <= on_0 <= 1.0\n"
            " -2.5 <= z <= 1e-05\n"
            "Binaries\n"
            " on_0\n"
            "End\n"
        )


class TestParseLp:
    def test_roundtrip_structure(self):
        inst = random_instance(1)
        parsed = parse_lp(emit_exchange(inst))
        assert parsed.maximize
        assert parsed.names == inst.names
        assert len(parsed.rows) == inst.n_rows
        assert parsed.binaries == {inst.names[i] for i in inst.binary_ids()}
        for i, name in enumerate(inst.names):
            assert parsed.lb[name] == pytest.approx(inst.lb[i])
            assert parsed.ub[name] == pytest.approx(inst.ub[i])
        # objective coefficients survive exactly
        for vid, coef in inst.objective.items():
            assert parsed.objective[inst.names[vid]] == pytest.approx(coef, abs=0)

    def test_rows_survive_exactly(self):
        inst = single_var_instance()
        parsed = parse_lp(emit_exchange(inst))
        name, coeffs, sense, rhs = parsed.rows[0]
        assert name == "cap_0"
        assert coeffs == {"x_0": 3.0}
        assert sense == "<="
        assert rhs == 6.0

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("day", [0, 1])
    def test_bundled_days_round_trip(self, day, case):
        # The no-bid cases build the price-collapsed model.
        spec = RunSpec(config=RecConfig(), case=case, n_m=3, n_r=3, seed=0)
        config, allow_bids, prices, energies, known = day_inputs(
            spec, load_week_data(WEEK_DATA_DIR), day
        )
        inst = build_instance(config, prices, energies, known, allow_bids=allow_bids)
        names = inst.names
        parsed = parse_lp(emit_exchange(inst))
        assert parsed.names == names
        assert parsed.objective == {names[v]: c for v, c in inst.objective.items() if c != 0.0}
        assert parsed.rows == [
            (name, {names[v]: c for v, c in terms}, sense, rhs)
            for name, terms, sense, rhs in inst.rows
        ]
        assert [parsed.lb[name] for name in names] == inst.lb
        assert [parsed.ub[name] for name in names] == inst.ub
        assert parsed.binaries == {names[i] for i in inst.binary_ids()}

    def test_minus_infinite_lower_bounds_round_trip(self):
        # Both Bounds forms: with an upper bound, and without one (free).
        inst = MilpInstance()
        x = inst.add_var("x_0", CONTINUOUS, -np.inf, 5.0)
        y = inst.add_var("y_0", CONTINUOUS, -np.inf, np.inf)
        inst.add_row("cap", [(x, 1.0), (y, 1.0)], "<=", 3.0)
        inst.add_row("floor", [(y, 1.0)], ">=", -2.0)
        inst.objective.update({x: 1.0, y: -1.0})
        text = emit_exchange(inst)
        assert " -inf <= x_0 <= 5.0\n" in text and " y_0 >= -inf\n" in text
        parsed = parse_lp(text)
        assert parsed.lb == {"x_0": -np.inf, "y_0": -np.inf}
        assert parsed.ub == {"x_0": 5.0, "y_0": np.inf}
        res = highs_runner.solve_parsed(parsed, 60.0, 1e-9)
        assert res.status == 0 and res.x.tolist() == [5.0, -2.0] and -res.fun == 7.0
        sol = solve_external(inst, None, 60.0, 1e-9)
        assert sol.values.tolist() == res.x.tolist()

    def test_complete_bounds_section_sets_the_order(self):
        parsed = parse_lp(
            "Maximize\n"
            " obj: + 1.0 y + 2.0 x\n"
            "Subject To\n"
            " r1: + 1.0 x + 1.0 y <= 4.0\n"
            "Bounds\n"
            " 0.0 <= x <= 3.0\n"
            " y >= -1.5\n"
            "End\n"
        )
        assert parsed == ParsedLp(
            maximize=True,
            names=["x", "y"],
            objective={"y": 1.0, "x": 2.0},
            rows=[("r1", {"x": 1.0, "y": 1.0}, "<=", 4.0)],
            lb={"x": 0.0, "y": -1.5},
            ub={"x": 3.0, "y": np.inf},
        )
        assert list(parsed.lb) == list(parsed.ub) == ["x", "y"]  # Bounds order

    # One line of each section, in the form emit_exchange writes.
    CANONICAL = [
        "Maximize",
        " obj: + 1.0 x",
        "Subject To",
        " r: + 1.0 x <= 1.0",
        "Bounds",
        " 0.0 <= x <= 1.0",
        "Binaries",
        " x",
        "End",
    ]
    # Where a line is put: at the end of its section ("first" goes first).
    SLOT = {"first": 0, "Maximize": 2, "Subject To": 4, "Bounds": 6, "Binaries": 8, "End": 9}

    @pytest.mark.parametrize(
        "section, line",
        [
            ("Subject To", " r: x + y"),
            ("Bounds", " x == 3"),
            ("Bounds", " x >= -inf"),
            ("first", "junk"),
            ("first", "Minimize"),
            ("first", "\\ a comment"),
            ("Maximize", " obj2: + 1.0 x"),
            ("Maximize", "Subject to"),
            ("Subject To", " r0: x - y <= 1"),
            ("Subject To", " + 1.0 x >= 2.0"),
            ("Subject To", " c1: 2x <= 4.0"),
            ("Subject To", " c1: + 2.0 x + 1.0 x = 4.0"),
            ("Subject To", " r1: + 1.0 x <= 1.0 \\ a comment"),
            ("Bounds", " c free"),
            ("Bounds", " b <= 5"),
            ("Bounds", " 0.0 <= x <= 1.0"),
            ("Binaries", " 2 y"),
            ("Binaries", " z"),
            ("Binaries", " x"),
            ("End", " ignored: + 1.0 x <= 1.0"),
            # -inf is a lower bound's value and nothing else's.
            ("Bounds", " 0.0 <= y <= -inf"),
            ("Bounds", " -inf <= y <= inf"),
            ("Bounds", " inf <= y <= 1.0"),
            ("Bounds", " y >= +inf"),
            ("Subject To", " r2: + 1.0 x <= -inf"),
        ],
    )
    def test_unparsable_lines_refused(self, section, line):
        lines = list(self.CANONICAL)
        lines.insert(self.SLOT[section], line)
        message = f"^cannot parse {section} line: {re.escape(repr(line))}$"
        with pytest.raises(ValueError, match=message):
            parse_lp("\n".join(lines) + "\n")

    def test_variable_without_bounds_line_refused(self):
        lines = list(self.CANONICAL)
        lines[3] = " r: + 1.0 x + 1.0 y <= 1.0"
        with pytest.raises(ValueError, match="^variable 'y' has no Bounds line$"):
            parse_lp("\n".join(lines) + "\n")

    def test_text_without_end_refused(self):
        for cut in range(1, len(self.CANONICAL)):
            with pytest.raises(ValueError, match="^LP text ends before its End line$"):
                parse_lp("\n".join(self.CANONICAL[:cut]) + "\n")


def line_by_line(text):
    """What parse_lp reads from valid LP text, taken one line at a time as
    the grammar states it: the reference for its bulk decoding. The
    ParsedLp fields, with every float as ``float.hex``."""
    lines = iter(text.splitlines())
    assert next(lines) == "Maximize"

    def terms(tokens):
        signs, numbers, names = tokens[0::3], tokens[1::3], tokens[2::3]
        coefs = [0.0 + float(n) if s == "+" else 0.0 - float(n) for s, n in zip(signs, numbers)]
        return [(name, coef.hex()) for name, coef in zip(names, coefs)]

    objective = terms(next(lines).partition(":")[2].split())
    assert next(lines) == "Subject To"
    rows = []
    for raw in lines:
        if raw == "Bounds":
            break
        label, _colon, body = raw.partition(":")
        tokens = body.split()
        rows.append((label.strip(), terms(tokens[:-2]), tokens[-2], float(tokens[-1]).hex()))
    lb, ub = {}, {}
    for raw in lines:
        if raw in ("Binaries", "End"):
            break
        tokens = raw.split()
        if len(tokens) == 5:
            lb[tokens[2]], ub[tokens[2]] = float(tokens[0]), float(tokens[4])
        else:
            lb[tokens[0]], ub[tokens[0]] = float(tokens[2]), np.inf
    binaries = set()
    if raw == "Binaries":
        for raw in lines:
            if raw == "End":
                break
            binaries.add(raw.strip())
            ub[raw.strip()] = min(ub[raw.strip()], 1.0)
    return {
        "maximize": True,
        "names": list(lb),
        "objective": objective,
        "rows": rows,
        "lb": [(name, value.hex()) for name, value in lb.items()],
        "ub": [(name, value.hex()) for name, value in ub.items()],
        "binaries": binaries,
    }


def parsed_fields(parsed):
    """``line_by_line``'s form of a ParsedLp."""
    return {
        "maximize": parsed.maximize,
        "names": parsed.names,
        "objective": [(name, coef.hex()) for name, coef in parsed.objective.items()],
        "rows": [
            (name, [(var, coef.hex()) for var, coef in coeffs.items()], sense, rhs.hex())
            for name, coeffs, sense, rhs in parsed.rows
        ],
        "lb": [(name, value.hex()) for name, value in parsed.lb.items()],
        "ub": [(name, value.hex()) for name, value in parsed.ub.items()],
        "binaries": parsed.binaries,
    }


def bundled_day_text(day, case, n):
    spec = RunSpec(config=RecConfig(), case=case, n_m=n, n_r=n, seed=0)
    config, allow_bids, prices, energies, known = day_inputs(
        spec, load_week_data(WEEK_DATA_DIR), day
    )
    return emit_exchange(build_instance(config, prices, energies, known, allow_bids=allow_bids))


class TestParseLpParity:
    """parse_lp decodes each section in bulk; every field must equal the
    line-by-line reading, coefficients and bounds bit for bit."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_instances(self, seed):
        text = emit_exchange(random_instance(seed))
        assert parsed_fields(parse_lp(text)) == line_by_line(text)

    @pytest.mark.parametrize("piece_chars", [1 << 18, 500])
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("day", [0, 1])
    def test_bundled_days(self, day, case, piece_chars, monkeypatch):
        monkeypatch.setattr(solver_mod, "_PIECE_CHARS", piece_chars)
        text = bundled_day_text(day, case, 3)
        assert parsed_fields(parse_lp(text)) == line_by_line(text)

    def test_paper_scale_day(self):
        text = bundled_day_text(0, "base", 10)
        parsed = parse_lp(text)
        assert parsed_fields(parsed) == line_by_line(text)
        rows = parsed.rows
        assert len(rows.ptr) == len(rows) + 1 and rows.ptr[-1] == len(rows.cols) == len(rows.vals)
        assert rows[-1] == list(rows)[-1]

    def test_rows_compare_equal_to_their_tuples(self):
        parsed = parse_lp(emit_exchange(single_var_instance()))
        assert parsed.rows == [("cap_0", {"x_0": 3.0}, "<=", 6.0)]
        assert [("cap_0", {"x_0": 3.0}, "<=", 6.0)] == parsed.rows
        assert parsed.rows != [("cap_0", {"x_0": 3.0}, "<=", 7.0)]
        assert parsed.rows != []

    # Whitespace and line ends that are legal but not what emit_exchange writes.
    VARIANTS = {
        "tab": lambda line: line.replace(" ", "\t"),
        "double spaces": lambda line: line.replace(" ", "  "),
        "space before colon": lambda line: line.replace(":", " :"),
    }

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_non_canonical_whitespace_reads_the_same(self, variant):
        canonical = "\n".join(TestParseLp.CANONICAL) + "\n"
        edit = self.VARIANTS[variant]
        lines = [edit(line) if line[0] == " " else line for line in TestParseLp.CANONICAL]
        text = "\n".join(lines) + "\n"
        assert text != canonical
        assert parse_lp(text) == parse_lp(canonical)

    def test_crlf_line_ends_read_the_same(self):
        canonical = "\n".join(TestParseLp.CANONICAL) + "\n"
        assert parse_lp(canonical.replace("\n", "\r\n")) == parse_lp(canonical)

    def test_non_ascii_name_reads_the_same(self):
        lines = ["Maximize", " obj: + 1.0 x - 2.0 y", "Subject To", " r: + 1.0 x + 1.0 y <= 1.0"]
        lines += ["Bounds", " 0.0 <= x <= 1.0", " 0.0 <= y <= 4.0", "Binaries", " x", "End"]
        canonical = "\n".join(lines) + "\n"
        text = canonical.replace("y", "y_é")
        parsed, expected = parse_lp(text), parse_lp(canonical)
        assert parsed.names == ["x", "y_é"]
        assert parsed.objective == {"x": 1.0, "y_é": -2.0}
        assert list(parsed.rows) == [("r", {"x": 1.0, "y_é": 1.0}, "<=", 1.0)]
        assert (parsed.lb, parsed.ub) == ({"x": 0.0, "y_é": 0.0}, {"x": 1.0, "y_é": 4.0})
        assert parsed.binaries == expected.binaries == {"x"}
        assert parsed_fields(parsed) == line_by_line(text)


def many_rows_lines(n=1200):
    """LP text of ``n`` rows, ``n + 1`` variables and every even one binary."""
    lines = ["Maximize", " obj: + 1.0 x0 - 2.0 x1", "Subject To"]
    lines += [f" r{i}: + 1.0 x{i} - 2.5 x{i + 1} <= {i}.0" for i in range(n)]
    lines.append("Bounds")
    lines += [f" 0.0 <= x{i} <= 10.0" for i in range(n + 1)]
    lines.append("Binaries")
    lines += [f" x{i}" for i in range(0, n + 1, 2)]
    return lines + ["End"]


class TestBulkRefusals:
    """A bad token in a text of many lines is refused with its own line,
    the first such line, as the line-by-line reading refused it."""

    ROWS = 3  # where row i sits in many_rows_lines
    BOUNDS = 1200 + 4
    BINARIES = BOUNDS + 1201 + 1
    # (section, first line index, edit of that line); the same edit is
    # also made 200 lines further on.
    CASES = {
        "sign": ("Subject To", ROWS + 700, lambda s: s.replace("+ 1.0", "* 1.0")),
        "coefficient": ("Subject To", ROWS + 700, lambda s: s.replace("- 2.5", "- 2.5.0")),
        "name": ("Subject To", ROWS + 700, lambda s: s.replace("x7", "7x")),
        "sense": ("Subject To", ROWS + 700, lambda s: s.replace("<=", "=<")),
        "rhs": ("Subject To", ROWS + 700, lambda s: s.replace(".0", ".0x")),
        "name twice in a row": ("Subject To", ROWS + 700, lambda s: s.replace("x701", "x700")),
        "Bounds lo": ("Bounds", BOUNDS + 700, lambda s: s.replace("0.0 <=", "zero <=")),
        "Bounds hi": ("Bounds", BOUNDS + 700, lambda s: s.replace("10.0", "1e")),
        "Bounds name twice": ("Bounds", BOUNDS + 700, lambda s: s.replace("x700", "x699")),
        "Binaries name": ("Binaries", BINARIES + 350, lambda s: s + "y"),
    }
    # Each section in one piece, in pieces of some 30 lines, or with tabs
    # (token counts from a split of each line).
    LAYOUTS = {
        "canonical": (lambda line: line, 1 << 18),
        "small pieces": (lambda line: line, 1000),
        "tabbed": (lambda line: "\t" + line[1:] if line[0] == " " else line, 1 << 18),
    }

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("field", CASES)
    def test_bad_token_names_its_line(self, field, layout, monkeypatch):
        section, at, edit = self.CASES[field]
        retype, piece_chars = self.LAYOUTS[layout]
        monkeypatch.setattr(solver_mod, "_PIECE_CHARS", piece_chars)
        lines = list(map(retype, many_rows_lines()))
        assert parse_lp("\n".join(lines) + "\n").names[700] == "x700"
        lines[at] = edit(lines[at])
        lines[at + 200] = edit(lines[at + 200])
        message = f"^cannot parse {section} line: {re.escape(repr(lines[at]))}$"
        with pytest.raises(ValueError, match=message):
            parse_lp("\n".join(lines) + "\n")


class TestReferenceSolve:
    def test_pure_lp_when_no_binaries(self):
        sol = reference_solve(single_var_instance())
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(4.0)

    def test_binary_limit_refusal_names_count(self):
        inst = random_instance(4)  # 30 binaries at K=3, nm=2, nr=2, zero incentive
        with pytest.raises(ValueError, match="30"):
            reference_solve(inst, binary_limit=24)

    def test_best_bound_order_bounds_lp_count(self, monkeypatch):
        # Seed 8 finds its optimum late under depth-first order (about
        # 2,800 relaxations); best-bound order proves it in under 300.
        calls = []
        real = solver_mod.solve_lp

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "solve_lp", counted)
        sol = reference_solve(random_instance(8), binary_limit=60)
        assert sol.status == "optimal"
        assert len(calls) <= 1000, f"{len(calls)} LP relaxations"

    def test_warm_started_children_bound_iteration_count(self, monkeypatch):
        # Child LPs re-optimize from their parent's basis with the dual
        # simplex; solved cold, seed 8 took 54,119 simplex iterations.
        iterations = []
        real = solver_mod.solve_lp

        def counted(*args, **kwargs):
            res = real(*args, **kwargs)
            iterations.append(res.iterations)
            return res

        monkeypatch.setattr(solver_mod, "solve_lp", counted)
        sol = reference_solve(random_instance(8), binary_limit=60)
        assert sol.status == "optimal"
        assert sum(iterations) <= 27_000, f"{sum(iterations)} iterations in {len(iterations)} LPs"

    def test_reports_nodes(self, monkeypatch):
        calls = []
        real = solver_mod.solve_lp

        def counted(*args, **kwargs):
            calls.append(kwargs.get("basis") is None)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "solve_lp", counted)
        sol = reference_solve(random_instance(0), binary_limit=60)
        # Every relaxation belongs to a popped node; only the root's is cold.
        assert calls[0] and not any(calls[1:])
        assert len(calls) <= sol.nodes
        assert reference_solve(single_var_instance()).nodes == 1

    def test_infeasible_instance(self):
        sol = reference_solve(infeasible_instance())
        assert sol.status == "infeasible"
        assert sol.nodes == 1


def full_sweep_run(A, senses, b, binary_mask, lb, ub, obj_cut=None, max_passes=12):
    """Bound propagation that reads every row on every pass, as the oracle
    did before it re-read only the rows of changed columns: the reference
    that ``_Propagator.run`` must match bit for bit."""
    from scipy import sparse

    senses = np.array(senses, dtype=str)
    le = senses != ">="
    ge = senses != "<="
    S = sparse.vstack([A[le], -A[ge]], format="csr")
    rhs = np.concatenate([b[le], -b[ge]])
    nz_row = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
    nz_col, nz_val = S.indices, S.data
    S_pos, S_neg = S.maximum(0).tocsr(), S.minimum(0).tocsr()
    pos, neg = nz_val > 0, nz_val < 0
    for _ in range(max_passes):
        min_act = S_pos @ lb + S_neg @ ub
        if np.any(min_act > rhs + 1e-7):
            return False
        s_nz = (rhs - min_act)[nz_row]
        ub_cand = ub.copy()
        np.minimum.at(ub_cand, nz_col[pos], lb[nz_col[pos]] + s_nz[pos] / nz_val[pos])
        lb_cand = lb.copy()
        np.maximum.at(lb_cand, nz_col[neg], ub[nz_col[neg]] + s_nz[neg] / nz_val[neg])
        if obj_cut is not None:
            co, rr = obj_cut
            mact = (co * np.where(co > 0, lb, np.where(co < 0, ub, 0.0))).sum()
            if mact > rr + 1e-7:
                return False
            sl = rr - mact
            for j in np.flatnonzero(co):
                a = co[j]
                if a > 0:
                    ub_cand[j] = min(ub_cand[j], lb[j] + sl / a)
                else:
                    lb_cand[j] = max(lb_cand[j], ub[j] + sl / a)
        snap_hi = binary_mask & (ub_cand >= -1e-9) & (ub_cand < 1.0 - 1e-9)
        ub_cand[snap_hi] = 0.0
        snap_lo = binary_mask & (lb_cand > 1e-9) & (lb_cand <= 1.0 + 1e-9)
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


class TestPropagation:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_a_full_sweep_bit_for_bit(self, seed):
        inst = random_instance(seed)
        if seed % 4 == 3:
            # Columns without an upper bound make nan offers.
            inst.ub = [
                np.inf if kind == CONTINUOUS and i % 5 == 0 else hi
                for i, (kind, hi) in enumerate(zip(inst.kinds, inst.ub))
            ]
        oracle = solver_mod._Oracle(inst)
        A, senses, b = inst.sparse_rows()
        lb0, ub0 = np.array(inst.lb, dtype=float), np.array(inst.ub, dtype=float)
        root = oracle.relax(lb0.copy(), ub0.copy()).objective
        rng = np.random.default_rng(seed)
        verdicts = set()
        for trial in range(24):
            lb, ub = lb0.copy(), ub0.copy()
            fixed = rng.choice(oracle.binaries, rng.integers(0, 12), replace=False)
            up = rng.random(len(fixed)) < 0.5
            lb[fixed[up]] = 1.0
            ub[fixed[~up]] = 0.0
            obj_cut = None
            if trial % 2 and root is not None:
                obj_cut = (-oracle.c, -(root - rng.uniform(0.0, 0.3) * abs(root)))
            want_lb, want_ub = lb.copy(), ub.copy()
            want = full_sweep_run(A, senses, b, oracle.binary_mask, want_lb, want_ub, obj_cut)
            got = oracle.prop.run(lb, ub, obj_cut)
            assert got == want, trial
            assert lb.tobytes() == want_lb.tobytes(), trial
            assert ub.tobytes() == want_ub.tobytes(), trial
            verdicts.add(got)
        assert verdicts == {True, False}

    @staticmethod
    def unbounded_column_instance():
        """y in [0, 10] with objective 1, and x in [0, inf) in no objective
        term and no row but ``y >= lo``."""
        inst = MilpInstance()
        inst.add_var("x_0", CONTINUOUS, 0.0, np.inf)
        y = inst.add_var("y_0", CONTINUOUS, 0.0, 10.0)
        inst.objective[y] = 1.0
        return inst, y

    def test_objective_cut_sees_past_an_unbounded_column(self):
        inst, y = self.unbounded_column_instance()
        inst.add_row("lo", [(y, 1.0)], ">=", 0.0)
        oracle = solver_mod._Oracle(inst)
        lb, ub = np.array(inst.lb), np.array(inst.ub)
        # An incumbent of 4: x's zero objective coefficient adds 0, not nan.
        assert oracle.prop.run(lb, ub, obj_cut=(-oracle.c, -4.0))
        assert lb.tolist() == [0.0, 4.0] and ub.tolist() == [np.inf, 10.0]

    def test_row_test_sees_past_an_unbounded_column(self, monkeypatch):
        inst, y = self.unbounded_column_instance()
        inst.add_row("lo", [(y, 1.0)], ">=", 11.0)
        oracle = solver_mod._Oracle(inst)
        monkeypatch.setattr(solver_mod, "solve_lp", None)  # no LP may run
        res = oracle.relax(np.array(inst.lb), np.array(inst.ub))
        assert res.status == "infeasible"


def no_incumbent_milp(*args, **kwargs):
    """What scipy.optimize.milp returns when HiGHS stops at its time limit
    before finding any feasible point. The dual bound is on the minimized
    (negated) objective."""
    return SimpleNamespace(
        status=1,
        x=None,
        fun=None,
        message="Time limit reached.",
        mip_dual_bound=-114.9,
        mip_node_count=7,
    )


class TestExternalBackend:
    def test_roundtrip_matches_reference(self, tiny_instance, tmp_path):
        ext = solve_external(tiny_instance, tmp_path)
        assert ext.status == "optimal"
        assert ext.objective_value == pytest.approx(10.0, abs=1e-6)
        assert (tmp_path / "instance.lp").exists()
        assert (tmp_path / "solution.sol").exists()
        assert check_solution(tiny_instance, ext.values) == []

    def test_agreement_on_small_instances(self, tmp_path):
        for seed in range(3):
            inst = random_instance(seed, K=2, nm=2, nr=1)  # 24 binaries
            ref = reference_solve(inst, binary_limit=24)
            ext = solve_external(inst, tmp_path / f"s{seed}")
            assert ref.status == ext.status == "optimal"
            scale = max(1.0, abs(ref.objective_value))
            assert abs(ref.objective_value - ext.objective_value) <= 1e-6 * scale

    def test_time_limit_without_incumbent_named(self, tiny_instance, tmp_path, monkeypatch):
        monkeypatch.setattr(scipy.optimize, "milp", no_incumbent_milp)
        with pytest.raises(NoIncumbentError) as err:
            solve_external(tiny_instance, tmp_path, time_limit_s=2.0)
        assert str(err.value) == (
            "time limit of 2.0 s reached with no feasible solution (dual bound 114.9, nodes 7)"
        )
        assert (err.value.dual_bound, err.value.nodes) == (114.9, 7)
        assert (tmp_path / "instance.lp").read_text() == emit_exchange(tiny_instance)
        assert (tmp_path / "solution.sol").read_text() == "status unknown\n"

    def test_time_limit_before_search_named(self, tiny_instance, monkeypatch):
        # A limit that falls before the branch-and-bound (in presolve or the
        # root LP) leaves HiGHS with neither figure.
        res = SimpleNamespace(**vars(no_incumbent_milp()))
        res.mip_dual_bound = res.mip_node_count = None
        monkeypatch.setattr(scipy.optimize, "milp", lambda *a, **k: res)
        unknown = r"\(dual bound unknown, nodes unknown\)$"
        with pytest.raises(NoIncumbentError, match=unknown) as err:
            solve_external(tiny_instance, None, time_limit_s=2.0)
        assert (err.value.dual_bound, err.value.nodes) == (None, None)

    def test_node_count_reported(self):
        sol = solve_external(random_instance(0), None)
        assert isinstance(sol.nodes, int) and sol.nodes >= 0
        # With no binaries HiGHS solves an LP and reports no node count.
        assert solve_external(single_var_instance(), None).nodes is None

    def test_infeasible_and_unmapped_statuses(self, tmp_path, monkeypatch):
        sol = solve_external(infeasible_instance(), tmp_path)
        assert (sol.status, sol.objective_value, sol.values) == ("infeasible", None, None)
        assert (tmp_path / "solution.sol").read_text() == "status infeasible\n"
        monkeypatch.setattr(
            scipy.optimize, "milp", lambda *a, **k: SimpleNamespace(status=4, x=None, message="odd")
        )
        with pytest.raises(RuntimeError, match="^HiGHS finished with unmapped status 4: odd$"):
            solve_external(infeasible_instance(), None)

    def test_solution_file_holds_returned_values_bit_for_bit(self, tmp_path):
        for seed in (0, 500):
            inst = random_instance(seed)
            sol = solve_external(inst, tmp_path / f"s{seed}")
            lines = (tmp_path / f"s{seed}" / "solution.sol").read_text().splitlines()
            assert lines[0] == "status optimal"
            assert [line.split()[0] for line in lines[:3]] == ["status", "objective", "gap"]
            assert lines[3:] == [f"{name} {float(v)!r}" for name, v in zip(inst.names, sol.values)]
            from_file = [float(line.split()[1]) for line in lines[3:]]
            assert np.array(from_file).tobytes() == sol.values.tobytes()
            assert sol.objective_value == inst.evaluate_objective(sol.values)

    def test_lp_export_round_trip_matches_in_process_bit_for_bit(self):
        for seed in [*range(6), 500]:
            inst = random_instance(seed)
            own = solve_external(inst, None)
            res = highs_runner.solve_parsed(parse_lp(emit_exchange(inst)), 300.0, 1e-6)
            assert own.status == "optimal" and res.status == 0, seed
            assert own.values.tobytes() == res.x.tobytes(), seed
