import importlib.util
import warnings
from pathlib import Path

import numpy as np

import couplesolve as cs
from gen import strongly_convex_instance
from reference import fresh_solutions

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trace_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("trace_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_report_is_true_only_when_every_case_matches(capsys):
    report = _tool().report
    case = {"trace": np.array([1.0, np.nan]), "primal": np.array([2.0])}
    assert report({"a": case}, {"a": case})  # matching NaNs count as equal
    assert "1 of 1 cases identical" in capsys.readouterr().out

    moved = {**case, "primal": np.array([2.5])}
    assert not report({"a": case}, {"a": moved})
    assert "a trace 0 0 primal 0.5 0.2" in capsys.readouterr().out

    assert not report({"a": case}, {"a": {**case, "primal": np.zeros(2)}})
    assert "primal shape (1,)->(2,)" in capsys.readouterr().out

    assert not report({"a": case, "b": case}, {"a": case, "c": case})
    out = capsys.readouterr().out
    assert "b only in old" in out
    assert "c only in new" in out


def test_drift_of_equal_infinite_cells_is_zero_without_warnings():
    drift = _tool().drift
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert drift([np.inf, 1.0], [np.inf, 1.0]) == (0.0, 0.0)
        assert drift([np.inf, 1.0], [np.inf, 1.5]) == (0.5, 0.5 / 1.5)


def test_solution_cells_are_the_keyed_reference_solve():
    # The digest's solutions group, read off output_stacked with the case's
    # topology: every agent's x, its multipliers by row index and its active
    # rows, as the keyed reference solve gives them at the output allocation.
    problem, topology, weights = strongly_convex_instance(3)
    result = cs.run(problem, topology, weights, cs.AdaConfig(0.01, 10))
    reference = fresh_solutions(problem, topology, weights, result.output_slack.values)
    expected = np.concatenate([
        np.concatenate([s.x, [s.ineq_multipliers[k] for k in sorted(s.ineq_multipliers)],
                        [s.eq_multipliers[k] for k in sorted(s.eq_multipliers)],
                        s.active_set])
        for s in reference])
    assert any(s.active_set for s in reference)
    got = _tool().solution_cells(result.output_stacked, topology)
    assert got.tobytes() == expected.tobytes()
