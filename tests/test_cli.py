import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import couplesolve
from couplesolve import cli, formats
from couplesolve.local_qp import AgentBatch

from gen import large_cost_scale_data, reduced_space_instance, strongly_convex_instance
from reference import dense_oracle


@pytest.fixture()
def toy_file(tmp_path):
    data = {
        "agents": [
            {"dim": 1, "hessian": [[1.0]], "linear": [0.0]},
            {"dim": 1, "hessian": [[1.0]], "linear": [0.0]},
        ],
        "eq": [
            {"agent": 1, "row": 1, "coeffs": [1.0], "offset": -1.0},
            {"agent": 2, "row": 1, "coeffs": [1.0], "offset": -1.0},
        ],
        "edges": [[1, 2]],
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_run_ada_writes_trace(toy_file, tmp_path, capsys):
    out = str(tmp_path / "trace.csv")
    code = cli.main(["run", toy_file, "--algo", "ada", "--rounds", "20",
                     "--gamma", "0.25", "--output", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "rounds: 20" in text
    assert "objective error:" in text
    assert "messages: 80" in text
    lines = open(out).read().splitlines()
    assert lines[0].startswith("round,phi,phi_hat,obj_err")
    assert len(lines) == 22


def test_run_auto_gamma_and_gnuplot(toy_file, tmp_path):
    out = str(tmp_path / "trace.csv")
    code = cli.main(["run", toy_file, "--algo", "ada", "--rounds", "5",
                     "--gamma", "auto", "--output", out, "--emit-gnuplot"])
    assert code == 0
    script = open(out + ".gp").read()
    assert f"csv = '{out}'" in script


def test_run_pgd_with_defaults(toy_file, tmp_path, capsys):
    out = str(tmp_path / "trace.csv")
    code = cli.main(["run", toy_file, "--algo", "pgd", "--rounds", "10",
                     "--output", out])
    assert code == 0  # box and gradient bounds derived from the oracle
    assert "max equality residual: 0" in capsys.readouterr().out


def test_run_pgd_without_oracle_needs_box(toy_file, capsys):
    code = cli.main(["run", toy_file, "--algo", "pgd", "--rounds", "5",
                     "--no-oracle"])
    assert code == 2
    assert "--box-bound" in capsys.readouterr().err


def test_run_missing_required_option(toy_file, capsys):
    code = cli.main(["run", toy_file, "--algo", "ada"])
    assert code == 2
    assert "rounds" in capsys.readouterr().err


def test_run_config_file_with_flag_override(toy_file, tmp_path, capsys):
    out = str(tmp_path / "trace.csv")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "problem": toy_file, "algorithm": "ada", "rounds": 3,
        "gamma": 0.25, "output": out,
    }))
    code = cli.main(["run", "--config", str(cfg), "--rounds", "7"])
    assert code == 0
    assert "rounds: 7" in capsys.readouterr().out


def test_run_config_rejects_unknown_keys(toy_file, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"problem": toy_file, "algorithm": "ada",
                               "rounds": 3, "gama": 0.1}))
    code = cli.main(["run", "--config", str(cfg)])
    assert code == 2
    assert "gama" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("transport", "bogus", "transport must be one of ['simnet', 'direct']"),
    ("algorithm", "adam", "algorithm must be one of ['ada', 'pgd']"),
    ("rounds", 2.5, "rounds must be an integer"),
    ("rounds", True, "rounds must be an integer"),
    ("gamma", "abc", "gamma must be numeric"),
    ("seed", "x", "seed must be an integer"),
    ("seed", -3, "seed must be nonnegative"),
    ("box_bound", "big", "box_bound must be numeric"),
    ("grad_bound", [1.0], "grad_bound must be numeric"),
    ("oracle", "yes", "oracle must be true or false"),
    ("emit_gnuplot", 1, "emit_gnuplot must be true or false"),
    ("output", 1, "output must be a file path"),
    ("problem", 0, "problem must be a file path"),
    ("gamma", math.nan, "gamma must be a finite number > 0, got nan"),
    ("gamma", math.inf, "gamma must be a finite number > 0, got inf"),
    ("gamma", -0.5, "gamma must be a finite number > 0, got -0.5"),
    ("box_bound", math.nan, "box_bound must be a finite number > 0, got nan"),
    ("box_bound", math.inf, "box_bound must be a finite number > 0, got inf"),
    ("grad_bound", math.nan, "grad_bound must be a finite number > 0, got nan"),
    ("grad_bound", math.inf, "grad_bound must be a finite number > 0, got inf"),
    ("grad_bound", 0, "grad_bound must be a finite number > 0, got 0.0"),
    ("gamma", True, "gamma must be numeric, got True"),
    ("box_bound", True, "box_bound must be numeric, got True"),
    ("grad_bound", False, "grad_bound must be numeric, got False"),
], ids=["transport", "algorithm", "rounds-fraction", "rounds-bool", "gamma", "seed",
        "seed-negative",
        "box_bound", "grad_bound", "oracle", "emit_gnuplot", "output", "problem",
        "gamma-nan", "gamma-inf", "gamma-negative", "box_bound-nan", "box_bound-inf",
        "grad_bound-nan", "grad_bound-inf", "grad_bound-zero", "gamma-bool",
        "box_bound-bool", "grad_bound-bool"])
def test_bad_run_config_value_exits_2_naming_the_key(toy_file, tmp_path, capsys,
                                                     key, value, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"problem": toy_file, "algorithm": "ada", "rounds": 3,
                               "gamma": 0.25, "output": str(tmp_path / "trace.csv"),
                               key: value}))
    code = cli.main(["run", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"run: {message}" in err
    assert "Traceback" not in err


def test_run_config_accepts_integral_rounds_and_auto_gamma(toy_file, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"algorithm": "ada", "rounds": 3.0, "gamma": "auto",
                               "seed": 1, "oracle": False, "transport": "direct",
                               "output": str(tmp_path / "trace.csv")}))
    assert cli.main(["run", toy_file, "--config", str(cfg)]) == 0
    assert "rounds: 3" in capsys.readouterr().out


@pytest.mark.parametrize("key, value, message", [
    ("dt", "x", "dt must be numeric"),
    ("horizon", None, "horizon must be numeric"),
    ("inner_iterations", 2.5, "inner_iterations must be an integer"),
    ("warm_start", "no", "warm_start must be true or false"),
    ("solver", "exact", "solver must be one of ['distributed', 'centralized']"),
    ("gamma", math.nan, "gamma must be a finite number > 0, got nan"),
    ("dt", -0.01, "dt must be a finite number > 0, got -0.01"),
    ("inner_iterations", 0, "inner_iterations must be an integer >= 1, got 0"),
    ("dt", True, "dt must be numeric, got True"),
    ("horizon", True, "horizon must be numeric, got True"),
    ("gamma", False, "gamma must be numeric, got False"),
    ("horizon", 0.004, "horizon must span at least one step of dt=0.01, got 0.004"),
], ids=["dt", "horizon", "inner_iterations", "warm_start", "solver", "gamma-nan",
        "dt-negative", "inner_iterations-zero", "dt-bool", "horizon-bool", "gamma-bool",
        "horizon-below-one-step"])
def test_bad_scenario_value_exits_2_naming_the_key(tmp_path, capsys, key, value, message):
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"horizon": 0.02, key: value}))
    code = cli.main(["cbf-sim", str(scn), "--output", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{scn}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value, message", [
    ("--dt", "nan", "dt must be a finite number > 0, got nan"),
    ("--horizon", "inf", "horizon must be a finite number > 0, got inf"),
    ("--gamma", "nan", "gamma must be a finite number > 0, got nan"),
    ("--inner", "0", "inner_iterations must be an integer >= 1, got 0"),
    ("--horizon", "0.004", "horizon must span at least one step of dt=0.01, got 0.004"),
], ids=["dt-nan", "horizon-inf", "gamma-nan", "inner-zero", "horizon-below-one-step"])
def test_bad_cbf_sim_flag_exits_2_naming_the_field(tmp_path, capsys, flag, value, message):
    code = cli.main(["cbf-sim", flag, value, "--output", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, message", [
    (["--gamma", "nan"], "gamma must be a finite number > 0, got nan"),
    (["--gamma", "inf"], "gamma must be a finite number > 0, got inf"),
    (["--algo", "pgd", "--grad-bound", "nan"], "grad_bound must be a finite number > 0, got nan"),
    (["--algo", "pgd", "--box-bound", "nan"], "box_bound must be a finite number > 0, got nan"),
    (["--algo", "pgd", "--box-bound", "inf"], "box_bound must be a finite number > 0, got inf"),
    (["--algo", "pgd", "--box-bound", "2", "--grad-bound", "inf"],
     "grad_bound must be a finite number > 0, got inf"),
    (["--algo", "pgd", "--seed", "-1"], "seed must be nonnegative"),
], ids=["gamma-nan", "gamma-inf", "grad-bound-nan", "box-bound-nan", "box-bound-inf",
        "grad-bound-inf", "seed-negative"])
def test_non_finite_run_flag_exits_2_naming_the_field(tmp_path, capsys, flags, message):
    problem, _, _ = strongly_convex_instance(3)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(formats.problem_to_dict(problem)))
    code = cli.main(["run", str(path), "--algo", "ada", "--rounds", "5", *flags,
                     "--output", str(tmp_path / "trace.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: run: {message}" in err
    assert "Traceback" not in err


def test_run_missing_file_exits_2(capsys):
    code = cli.main(["run", "nope.json", "--algo", "ada", "--rounds", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_check_reports_structure(toy_file, capsys):
    code = cli.main(["check", toy_file])
    assert code == 0
    text = capsys.readouterr().out
    assert "constraint eq 1: participants [1, 2] connected" in text
    assert "agent 1: 1 rows, full row rank" in text
    assert text.rstrip().endswith("ok")


def test_check_flags_disconnected_participants(tmp_path, capsys):
    data = {
        "agents": [{"dim": 1, "hessian": [[1.0]], "linear": [0.0]}] * 3,
        "eq": [
            {"agent": 1, "row": 1, "coeffs": [1.0], "offset": -1.0},
            {"agent": 3, "row": 1, "coeffs": [1.0], "offset": -1.0},
        ],
        "edges": [[1, 2], [2, 3]],  # agents 1 and 3 only meet through 2
    }
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(data))
    code = cli.main(["check", str(path)])
    assert code == 2
    text = capsys.readouterr().out
    assert "DISCONNECTED" in text
    assert "validation failed" in text


@pytest.mark.parametrize("edit, field", [
    (lambda d: d["agents"][0].update(linear=[float("nan")]), "linear"),
    (lambda d: d["agents"][1].update(linear=[float("inf")]), "linear"),
    (lambda d: d["eq"][0].update(offset=float("inf")), "offset"),
    (lambda d: d["eq"][1].update(offset=float("nan")), "offset"),
    (lambda d: d.update(weights=[{"constraint": 1,
                                  "matrix": [[0.5, float("nan")], [0.5, 0.5]]}]),
     "entries"),
], ids=["nan-linear", "inf-linear", "inf-offset", "nan-offset", "nan-weight"])
def test_non_finite_input_exits_2_naming_the_field(toy_file, tmp_path, capsys,
                                                   edit, field):
    # json reads and writes NaN and Infinity, so a problem file can carry them
    data = json.loads(Path(toy_file).read_text())
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for argv in (["run", str(path), "--algo", "ada", "--rounds", "2",
                  "--output", str(tmp_path / "trace.csv")],
                 ["check", str(path)]):
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert f"{field} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("constraint", [0, 2])
def test_custom_weight_constraint_out_of_range_exits_2(toy_file, tmp_path, capsys,
                                                       constraint):
    data = json.loads(Path(toy_file).read_text())
    data["weights"] = [{"constraint": constraint, "matrix": [[0.5, 0.5], [0.5, 0.5]]}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for argv in (["run", str(path), "--algo", "ada", "--rounds", "2",
                  "--output", str(tmp_path / "trace.csv")],
                 ["check", str(path)]):
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert f"constraint {constraint} out of range 1..1" in capsys.readouterr().err


def _exits_2_naming(data, tmp_path, capsys, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for argv in (["run", str(path), "--algo", "ada", "--rounds", "2",
                  "--output", str(tmp_path / "trace.csv")],
                 ["check", str(path)], ["solve-central", str(path)]):
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["eq"][0].update(offset="x"), "eq[0] offset must be numeric"),
    (lambda d: d["agents"][0].update(dim="two"), "agents[1] dim must be an integer"),
    (lambda d: d["eq"][1].update(row="first"), "eq[1] row must be an integer"),
    (lambda d: d["eq"][0].update(agent="one"), "eq[0] agent must be an integer"),
    (lambda d: d["eq"][1].update(coeffs=["x"]), "eq[1] coeffs must be numeric"),
    (lambda d: d["eq"][1].update(agent=2.9), "eq[1] agent must be an integer, got 2.9"),
    (lambda d: d["eq"][1].update(agent=True), "eq[1] agent must be an integer, got True"),
    (lambda d: d["eq"][0].update(row=1.4), "eq[0] row must be an integer, got 1.4"),
    (lambda d: d["agents"][1].update(dim=1.6), "agents[2] dim must be an integer, got 1.6"),
    (lambda d: d.update(edges=[[1.5, 2]]), "edges[0] must be an integer, got 1.5"),
    (lambda d: d.update(weights=[{"constraint": 1.5, "matrix": [[0.5, 0.5], [0.5, 0.5]]}]),
     "weights[0] constraint must be an integer, got 1.5"),
    (lambda d: d.update(m_ineq=-1), "m_ineq must be non-negative, got -1"),
    (lambda d: d.update(q_eq=-1), "q_eq must be non-negative, got -1"),
    (lambda d: d["eq"][0].update(offset=True), "eq[0] offset must be numeric, got True"),
    (lambda d: d["agents"][0].update(constant=True),
     "agents[1] constant must be numeric, got True"),
], ids=["offset", "dim", "row", "agent", "coeffs", "agent-fraction", "agent-bool",
        "row-fraction", "dim-fraction", "edge-fraction", "weight-constraint-fraction",
        "m_ineq-negative", "q_eq-negative", "offset-bool", "constant-bool"])
def test_non_numeric_field_exits_2_naming_the_field(toy_file, tmp_path, capsys,
                                                    edit, message):
    data = json.loads(Path(toy_file).read_text())
    edit(data)
    _exits_2_naming(data, tmp_path, capsys, message)


@pytest.mark.parametrize("edit, field", [
    (lambda d: d["agents"].__setitem__(0, 5), "agents[1]"),
    (lambda d: d["eq"].__setitem__(1, [1, 1]), "eq[1]"),
    (lambda d: d.update(weights=[None]), "weights[0]"),
], ids=["agent", "row", "weights"])
def test_non_object_entry_exits_2_naming_it(toy_file, tmp_path, capsys, edit, field):
    data = json.loads(Path(toy_file).read_text())
    edit(data)
    _exits_2_naming(data, tmp_path, capsys, f"{field}: expected an object")


@pytest.mark.parametrize("key, value", [
    ("agents", 5), ("agents", "ab"), ("ineq", 3), ("eq", {"row": 1}), ("edges", 5),
    ("weights", 4),
], ids=["agents-int", "agents-str", "ineq", "eq", "edges", "weights"])
def test_non_list_field_exits_2_naming_the_key(toy_file, tmp_path, capsys, key, value):
    data = json.loads(Path(toy_file).read_text())
    data[key] = value
    _exits_2_naming(data, tmp_path, capsys, f"'{key}' must be a list, got {value!r}")


def test_run_exits_3_on_a_violated_iterate_and_still_writes_the_trace(tmp_path, capsys):
    # Every cost x100 puts the auto step above the true gradient Lipschitz
    # constant of this instance, and ada diverges off the coupled rows.
    problem, _, _ = strongly_convex_instance(11)
    data = formats.problem_to_dict(problem)
    for agent in data["agents"]:
        agent["hessian"] = (100 * np.array(agent["hessian"])).tolist()
        agent["linear"] = (100 * np.array(agent["linear"])).tolist()
    path, out = tmp_path / "x100.json", tmp_path / "trace.csv"
    path.write_text(json.dumps(data))
    code = cli.main(["run", str(path), "--algo", "ada", "--gamma", "auto",
                     "--rounds", "200", "--oracle", "--output", str(out)])
    assert code == 3
    assert "violates a coupled row" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 202

    data["agents"] = formats.problem_to_dict(problem)["agents"]  # unit costs converge
    path.write_text(json.dumps(data))
    assert cli.main(["run", str(path), "--algo", "ada", "--gamma", "auto",
                     "--rounds", "200", "--output", str(out)]) == 0


@pytest.mark.parametrize("algo", [["ada", "--gamma", "auto"], ["pgd"]], ids=["ada", "pgd"])
def test_run_computes_the_rank_report_once(algo, tmp_path, monkeypatch, capsys):
    # The boundary check, the oracle, the bound (ada's Lipschitz bound, pgd's
    # sampled gradient bound) and the run all read one report of the problem.
    problem, topology, weights = strongly_convex_instance(4)
    groups = len(AgentBatch(problem, topology, weights).by_shape)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(formats.problem_to_dict(problem)))
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    assert cli.main(["run", str(path), "--algo", *algo, "--rounds", "3", "--oracle",
                     "--output", str(tmp_path / "trace.csv")]) == 0
    assert len(calls) == groups


def test_non_object_run_config_or_scenario_exits_2(toy_file, tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    for argv in (["run", toy_file, "--algo", "ada", "--rounds", "1", "--config", str(path)],
                 ["cbf-sim", str(path)]):
        assert cli.main(argv) == 2
        assert f"{path}: expected an object, got []" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["constraint", "matrix"])
def test_weights_entry_missing_key_exits_2(toy_file, tmp_path, capsys, missing):
    data = json.loads(Path(toy_file).read_text())
    entry = {"constraint": 1, "matrix": [[0.5, 0.5], [0.5, 0.5]]}
    del entry[missing]
    data["weights"] = [entry]
    _exits_2_naming(data, tmp_path, capsys, f"weights[0] missing '{missing}'")


def test_duplicate_custom_weights_exit_2_naming_the_entry(toy_file, tmp_path, capsys):
    data = json.loads(Path(toy_file).read_text())
    data["weights"] = [{"constraint": 1, "matrix": [[0.5, 0.5], [0.5, 0.5]]},
                       {"constraint": 1, "matrix": [[0.75, 0.25], [0.25, 0.75]]}]
    _exits_2_naming(data, tmp_path, capsys, "weights[1]: duplicate weights for constraint 1")


def test_solve_central_prints_and_writes(toy_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = cli.main(["solve-central", toy_file, "--output", str(out)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["x"] == [1.0, 1.0]
    assert payload["value"] == 1.0
    assert payload["eq_multipliers"] == [-1.0]
    assert json.loads(out.read_text()) == payload


def test_solve_central_multi_agent_is_deterministic_and_exact(tmp_path, capsys):
    problem, _, _ = strongly_convex_instance(9)  # 6 agents, two active inequalities
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(formats.problem_to_dict(problem)))
    outs = []
    for _ in range(2):
        assert cli.main(["solve-central", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    x, value, mu, lam, active, _ = dense_oracle(problem)
    assert payload["active_set"] == list(active) == [1, 2]
    assert payload["unique_multipliers"]
    for key, want in (("x", x), ("value", value), ("ineq_multipliers", mu),
                      ("eq_multipliers", lam)):
        assert np.allclose(payload[key], want, rtol=0, atol=1e-10), key


def test_commands_accept_hessians_at_large_cost_scale(tmp_path, capsys):
    # Two agents with 4-dim Hessians AᵀDA (eigenvalues from about 9e2 to
    # 2.5e5) whose floating-point roundoff leaves them asymmetric beyond 1e-12.
    data = large_cost_scale_data()
    assert max(np.abs(np.subtract(h, np.transpose(h))).max()
               for h in (agent["hessian"] for agent in data["agents"])) > 1e-12
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(data))
    for argv in (["check", str(path)], ["solve-central", str(path)],
                 ["run", str(path), "--algo", "ada", "--rounds", "50", "--gamma", "1e-5",
                  "--output", str(tmp_path / "trace.csv")]):
        assert cli.main(argv) == 0, capsys.readouterr().err


def test_commands_check_an_inequality_row_beside_an_equality_row(tmp_path, capsys):
    # Reduced-space seed 0: agent 1 (block dimension 2) stores inequality
    # row 1 and equality row 1; the inequality row gets one coefficient.
    problem, _, _ = reduced_space_instance(0)
    data = formats.problem_to_dict(problem)
    assert any((r["agent"], r["row"]) == (1, 1) for r in data["eq"])
    (row,) = [r for r in data["ineq"] if (r["agent"], r["row"]) == (1, 1)]
    row["coeffs"] = row["coeffs"][:1]
    path = tmp_path / "shadowed.json"
    path.write_text(json.dumps(data))
    for argv in (["check", str(path)], ["solve-central", str(path)],
                 ["run", str(path), "--algo", "ada", "--rounds", "3", "--gamma", "0.1",
                  "--output", str(tmp_path / "trace.csv")]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "agent 1 row 1: coefficients (1,) do not match block dimension 2" in err
        assert "Traceback" not in err


def test_solve_central_infeasible_exits_3(tmp_path, capsys):
    data = {
        "agents": [{"dim": 1, "hessian": [[1.0]], "linear": [0.0]}] * 2,
        "eq": [
            {"agent": 1, "row": 1, "coeffs": [1.0], "offset": -1.0},
            {"agent": 2, "row": 1, "coeffs": [1.0], "offset": -1.0},
        ],
        "ineq": [
            {"agent": 1, "row": 1, "coeffs": [1.0], "offset": 5.0},
            {"agent": 2, "row": 1, "coeffs": [1.0], "offset": 5.0},
        ],
        "edges": [[1, 2]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = cli.main(["solve-central", str(path)])
    assert code == 3
    assert "infeasible" in capsys.readouterr().err


def test_cbf_sim_short_run(tmp_path, capsys):
    out = str(tmp_path / "traj.csv")
    code = cli.main(["cbf-sim", "--horizon", "0.05", "--output", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "steps: 5" in text
    assert "final barrier values: g1=" in text
    lines = open(out).read().splitlines()
    assert lines[0].startswith("t,z1x,z1y")
    assert len(lines) == 7


def test_cbf_sim_scenario_file_with_override(tmp_path, capsys):
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"horizon": 0.03, "solver": "centralized"}))
    code = cli.main(["cbf-sim", str(scn), "--horizon", "0.02",
                     "--output", str(tmp_path / "t.csv")])
    assert code == 0
    assert "steps: 2" in capsys.readouterr().out


def test_trace_output_is_deterministic(toy_file, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        assert cli.main(["run", toy_file, "--algo", "ada", "--rounds", "15",
                         "--gamma", "0.25", "--output", out]) == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]


def test_console_entry_point(toy_file, tmp_path):
    # The child runs the imported copy: its directory leads the inherited
    # PYTHONPATH.
    package_root = str(Path(couplesolve.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH", "")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (package_root, inherited)))}
    out = str(tmp_path / "trace.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "couplesolve.cli", "run", toy_file,
         "--algo", "ada", "--rounds", "3", "--gamma", "0.25",
         "--output", out],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "trace:" in proc.stdout


def test_log_level_env(toy_file, tmp_path):
    # A bare environment keeps other variables from reaching the child; its
    # PYTHONPATH is the absolute directory holding the imported package, so
    # the child runs both from an installed copy and from a source checkout.
    package_root = str(Path(couplesolve.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "couplesolve.cli", "run", toy_file, "--algo",
         "ada", "--rounds", "2", "--gamma", "auto",
         "--output", str(tmp_path / "t.csv")],
        capture_output=True, text=True, env={"COUPLESOLVE_LOG": "info",
                                             "PATH": "/usr/bin:/bin",
                                             "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert "auto gamma" in proc.stderr
