from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

import recbid.solver as solver_mod
from recbid import highs_runner
from recbid.milp import CONTINUOUS, MilpInstance, check_solution
from recbid.solver import (
    emit_exchange,
    parse_lp,
    reference_solve,
    solve_external,
)

from conftest import random_instance

DATA = Path(__file__).parent / "data"


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

    def test_coefficient_free_term(self):
        parsed = parse_lp("Maximize\n obj: x + 2 y\nSubject To\n r0: x - y <= 1\nEnd\n")
        assert parsed.objective == {"x": 1.0, "y": 2.0}
        assert parsed.rows[0][1] == {"x": 1.0, "y": -1.0}


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
