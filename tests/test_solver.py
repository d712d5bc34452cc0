import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
import scipy.optimize

import recbid.solver as solver_mod
from recbid import highs_runner
from recbid.milp import CONTINUOUS, MilpInstance, check_solution
from recbid.solver import (
    emit_exchange,
    parse_lp,
    parse_solution,
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


class TestParseSolution:
    def test_infeasible_status(self, tiny_instance):
        sol = parse_solution("status infeasible\n", tiny_instance)
        assert sol.status == "infeasible"
        assert sol.values is None and sol.objective_value is None

    def test_all_zero_assignment_gives_objective_constant(self):
        inst = single_var_instance()
        inst.objective_constant = 2.5
        text = "status optimal\nobjective 0.0\nx_0 0.0\n"
        sol = parse_solution(text, inst)
        assert sol.objective_value == pytest.approx(2.5)

    def test_missing_variable_named(self, tiny_instance):
        with pytest.raises(ValueError, match="sell_qty_k0"):
            parse_solution("status optimal\n", tiny_instance)

    def test_unknown_status_rejected(self, tiny_instance):
        with pytest.raises(ValueError, match="exploded"):
            parse_solution("status exploded\n", tiny_instance)

    def test_objective_recomputed_not_trusted(self):
        inst = single_var_instance()
        text = "status optimal\nobjective 999.0\nx_0 2.0\n"
        sol = parse_solution(text, inst)
        assert sol.objective_value == pytest.approx(4.0)

    def test_malformed_value_names_line(self):
        for text, lineno in (("status optimal\nx_0 two\n", 2), ("status optimal\n\ngap\n", 3)):
            with pytest.raises(ValueError, match=f"line {lineno}: malformed"):
                parse_solution(text, single_var_instance())


class TestReferenceSolve:
    def test_pure_lp_when_no_binaries(self):
        sol = reference_solve(single_var_instance())
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(4.0)

    def test_binary_limit_refusal_names_count(self):
        inst = random_instance(2)  # 54 binaries at K=3, nm=2, nr=2
        with pytest.raises(ValueError, match="54"):
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

    def test_infeasible_instance(self):
        inst = MilpInstance()
        vid = inst.add_var("x", (0,), "x_0", CONTINUOUS, 0.0, 1.0)
        inst.add_row("r0", [(vid, 1.0)], ">=", 2.0)
        sol = reference_solve(inst)
        assert sol.status == "infeasible"


def no_incumbent_milp(*args, **kwargs):
    """What scipy.optimize.milp returns when HiGHS stops at its time limit
    before finding any feasible point."""
    return SimpleNamespace(status=1, x=None, fun=None, message="Time limit reached.")


CHILD_CMD = "{python} -m recbid.highs_runner {lp} {sol} --time-limit {time_limit} --gap {gap}"


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
        with pytest.raises(RuntimeError, match="time limit of 2.0 s reached with no feasible") as err:
            solve_external(tiny_instance, tmp_path, time_limit_s=2.0)
        assert str(tmp_path / "instance.lp") in str(err.value)

    def test_runner_exits_3_without_incumbent(self, tiny_instance, tmp_path, monkeypatch, capsys):
        lp = tmp_path / "instance.lp"
        lp.write_text(emit_exchange(tiny_instance))
        monkeypatch.setattr(scipy.optimize, "milp", no_incumbent_milp)
        code = highs_runner.main([str(lp), str(tmp_path / "out.sol"), "--time-limit", "2"])
        assert code == 3
        assert "time limit of 2.0 s reached with no feasible solution" in capsys.readouterr().err
        assert (tmp_path / "out.sol").read_text() == "status unknown\n"

    @pytest.mark.slow
    def test_child_matches_in_process_bit_for_bit(self, tmp_path, monkeypatch):
        for seed in [*range(6), 500]:
            inst = random_instance(seed)
            monkeypatch.delenv("REC_SOLVER_CMD", raising=False)
            own = solve_external(inst, tmp_path / f"own{seed}")
            monkeypatch.setenv("REC_SOLVER_CMD", CHILD_CMD)
            child = solve_external(inst, tmp_path / f"child{seed}")
            assert own.status == child.status == "optimal"
            assert own.values.tobytes() == child.values.tobytes()
            for name in ("instance.lp", "solution.sol"):
                own_bytes = (tmp_path / f"own{seed}" / name).read_bytes()
                assert own_bytes == (tmp_path / f"child{seed}" / name).read_bytes(), (seed, name)

    @pytest.mark.slow
    def test_child_time_limit_without_incumbent_named(self, tiny_instance, tmp_path, monkeypatch):
        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys\n"
            "import scipy.optimize\n"
            "from types import SimpleNamespace\n"
            "from recbid import highs_runner\n"
            "scipy.optimize.milp = lambda *a, **k: SimpleNamespace(\n"
            "    status=1, x=None, fun=None, message='Time limit reached.')\n"
            "raise SystemExit(highs_runner.main(sys.argv[1:]))\n"
        )
        monkeypatch.setenv(
            "REC_SOLVER_CMD", f"{sys.executable} {stub} {{lp}} {{sol}} --time-limit {{time_limit}}"
        )
        with pytest.raises(RuntimeError, match=r"failed \(3\)") as err:
            solve_external(tiny_instance, tmp_path, time_limit_s=2.0)
        assert "time limit of 2.0 s reached with no feasible solution" in str(err.value)
        assert str(tmp_path / "instance.lp") in str(err.value)

    @pytest.mark.slow
    def test_malformed_solution_line_names_file_and_line(self, tiny_instance, tmp_path, monkeypatch):
        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys\n"
            "open(sys.argv[2], 'w').write('status optimal\\ngap 0.0\\nsell_qty_k0 1.O\\n')\n"
        )
        monkeypatch.setenv("REC_SOLVER_CMD", f"{sys.executable} {stub} {{lp}} {{sol}}")
        with pytest.raises(ValueError, match="line 3") as err:
            solve_external(tiny_instance, tmp_path)
        assert str(tmp_path / "solution.sol") in str(err.value)
        assert "sell_qty_k0 1.O" in str(err.value)

    @pytest.mark.slow
    def test_solver_cmd_override(self, tiny_instance, tmp_path, monkeypatch):
        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys\n"
            "open(sys.argv[2], 'w').write('status infeasible\\n')\n"
        )
        monkeypatch.setenv(
            "REC_SOLVER_CMD", f"{sys.executable} {stub} {{lp}} {{sol}}"
        )
        sol = solve_external(tiny_instance, tmp_path)
        assert sol.status == "infeasible"

    @pytest.mark.slow
    def test_failing_command_raises(self, tiny_instance, tmp_path, monkeypatch):
        monkeypatch.setenv("REC_SOLVER_CMD", f"{sys.executable} -c raise {{lp}} {{sol}}")
        with pytest.raises(RuntimeError, match="solver command"):
            solve_external(tiny_instance, tmp_path)

    @pytest.mark.slow
    def test_hung_child_is_killed_at_time_limit_plus_grace(
        self, tiny_instance, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(solver_mod, "SOLVER_GRACE_S", 1.0)
        monkeypatch.setenv(
            "REC_SOLVER_CMD", f"{sys.executable} -c 'import time; time.sleep(60)' {{lp}} {{sol}}"
        )
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="timed out") as err:
            solve_external(tiny_instance, tmp_path, time_limit_s=1.0)
        assert time.perf_counter() - start < 30.0
        assert str(tmp_path / "instance.lp") in str(err.value)
