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
    vid = inst.add_var("x", (0,), "x_0", CONTINUOUS, 0.0, 5.0)
    inst.add_row("cap_0", [(vid, 3.0)], "<=", 6.0)
    inst.objective[vid] = 2.0
    return inst


def infeasible_instance():
    inst = MilpInstance()
    vid = inst.add_var("x", (0,), "x_0", CONTINUOUS, 0.0, 1.0)
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
        inst.add_var("x", (0,), "", CONTINUOUS, 0.0, 1.0)
        with pytest.raises(ValueError, match="no name"):
            emit_exchange(inst)

    def test_duplicate_variable_name_refused(self):
        # LP text keys variables by name; parse_lp would merge the two.
        inst = MilpInstance()
        for sym in ("x", "y", "z"):
            inst.add_var(sym, (0,), f"{sym}_0", CONTINUOUS, 0.0, 1.0)
        inst.add_var("w", (0,), "y_0", CONTINUOUS, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"^variables 1 and 3 share the name 'y_0'$"):
            emit_exchange(inst)

    # The exported text, byte for byte: other solvers and saved runs read it.
    PINNED_SHA256 = {
        "random0": "e1735a4810345d784aa9d06b7ab5a0c591a66574b540f62fa80d51eebd853a27",
        "random1": "815f74d9182473d38a0fc27397b087a19e931f9e48ab365a3c47f811003a7cf5",
        "random2": "22845f9fe103e69e3449834c8471535fb0337fd3d31184959656653a841947ca",
        "tiny": "e3950acdbe8a6cc34f09fa8bc1cc3fda155ba5f2472f9488441b92f3e02191ab",
    }

    def test_pinned_texts(self):
        insts = {f"random{seed}": random_instance(seed) for seed in range(3)}
        insts["tiny"] = build_instance(*tiny_inputs())
        got = {
            label: hashlib.sha256(emit_exchange(inst).encode()).hexdigest()
            for label, inst in insts.items()
        }
        assert got == self.PINNED_SHA256

    def test_numpy_scalars_signed_zeros_and_infinite_bounds(self):
        inst = MilpInstance()
        x = inst.add_var("x", (0,), "x_0", CONTINUOUS, -0.0, np.inf)
        on = inst.add_var("on", (0,), "on_0", BINARY, 0.0, 1.0)
        z = inst.add_var("z", (), "z", CONTINUOUS, np.float64(-2.5), np.float64(1e-05))
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


class TestReferenceSolve:
    def test_pure_lp_when_no_binaries(self):
        sol = reference_solve(single_var_instance())
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(4.0)

    def test_binary_limit_refusal_names_count(self):
        inst = random_instance(2)  # 30 binaries at K=3, nm=2, nr=2, zero incentive
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
        with pytest.raises(RuntimeError) as err:
            solve_external(tiny_instance, tmp_path, time_limit_s=2.0)
        assert str(err.value) == (
            "time limit of 2.0 s reached with no feasible solution (dual bound 114.9, nodes 7)"
        )
        assert (tmp_path / "instance.lp").read_text() == emit_exchange(tiny_instance)
        assert (tmp_path / "solution.sol").read_text() == "status unknown\n"

    def test_time_limit_before_search_named(self, tiny_instance, monkeypatch):
        # A limit that falls before the branch-and-bound (in presolve or the
        # root LP) leaves HiGHS with neither figure.
        res = SimpleNamespace(**vars(no_incumbent_milp()))
        res.mip_dual_bound = res.mip_node_count = None
        monkeypatch.setattr(scipy.optimize, "milp", lambda *a, **k: res)
        with pytest.raises(RuntimeError, match=r"\(dual bound unknown, nodes unknown\)$"):
            solve_external(tiny_instance, None, time_limit_s=2.0)

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
