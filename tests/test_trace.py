import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import couplesolve as cs
from couplesolve.trace import RoundRecord, RunTrace, gnuplot_script, trace_lines, traces_equal


def _record(r, msgs=0, **overrides):
    fields = dict(round=r, phi=1.0, phi_hat=float("nan"),
                  obj_err=float("nan"), max_ineq_viol=0.0, max_eq_resid=0.0,
                  dual_cons_err=(0.5,), msgs=msgs)
    fields.update(overrides)
    return RoundRecord(**fields)


def test_header_matches_constraint_count():
    trace = RunTrace(2, (_record(0, dual_cons_err=(0.1, 0.2)),))
    assert trace.header() == [
        "round", "phi", "phi_hat", "obj_err", "max_ineq_viol",
        "max_eq_resid", "dual_cons_err_1", "dual_cons_err_2", "msgs",
    ]


def test_column_accessors():
    trace = RunTrace(2, (
        _record(0, dual_cons_err=(0.1, 0.2)),
        _record(1, msgs=4, phi=0.5, dual_cons_err=(0.05, 0.1)),
    ))
    assert trace.column("phi").tolist() == [1.0, 0.5]
    assert trace.column("dual_cons_err_2").tolist() == [0.2, 0.1]
    assert trace.column("msgs").tolist() == [0, 4]
    assert len(trace) == 2


def test_round_trip_is_exact(tmp_path):
    # awkward floats: subnormal, huge, negative zero, NaN
    trace = RunTrace(1, (
        _record(0, phi=1 / 3, phi_hat=float("nan"), obj_err=-0.0,
                max_ineq_viol=5e-324, dual_cons_err=(1.2345678901234567e300,)),
        _record(1, phi=math.pi, phi_hat=2 / 7, obj_err=1e-17,
                max_eq_resid=-1e-13, dual_cons_err=(float("nan"),), msgs=12),
    ))
    path = tmp_path / "trace.csv"
    cs.emit_trace(trace, path)
    back = cs.parse_trace(path)
    assert traces_equal(trace, back)


@given(st.lists(
    st.floats(allow_infinity=False, width=64), min_size=6, max_size=6))
def test_float_cells_survive_text_round_trip(vals):
    rec = RoundRecord(round=3, phi=vals[0], phi_hat=vals[1], obj_err=vals[2],
                      max_ineq_viol=vals[3], max_eq_resid=vals[4],
                      dual_cons_err=(vals[5],), msgs=8)
    line = trace_lines(RunTrace(1, (rec,)))[1]
    cells = line.split(",")
    parsed = [float(c) for c in cells[1:7]]
    for orig, got in zip(vals, parsed):
        assert got == orig or (math.isnan(orig) and math.isnan(got))


def test_traces_equal_treats_nan_as_equal():
    def one(record):
        return RunTrace(1, (record,))

    a = one(_record(0, phi_hat=float("nan")))
    assert traces_equal(a, one(_record(0, phi_hat=float("nan"))))
    assert not traces_equal(a, one(_record(0, phi_hat=0.0)))  # a changed cell
    assert not traces_equal(a, one(_record(1, phi_hat=float("nan"))))  # a changed round


def test_traces_equal_checks_length_and_width():
    a = RunTrace(1, (_record(0),))
    assert not traces_equal(a, RunTrace(1, (_record(0), _record(1))))
    assert not traces_equal(a, RunTrace(2, (_record(0, dual_cons_err=(0.5, 0.5)),)))


def test_run_produces_parseable_trace(toy, tmp_path):
    problem, topology, weights = toy
    result = cs.run(problem, topology, weights,
                    cs.AdaConfig(gamma=0.25, rounds=10))
    path = tmp_path / "run.csv"
    cs.emit_trace(result.trace, path)
    back = cs.parse_trace(path)
    assert traces_equal(result.trace, back)
    text = path.read_text().splitlines()
    assert text[0].split(",")[0] == "round"
    assert len(text) == len(result.trace) + 1


def test_gnuplot_script_references_columns(tmp_path):
    script = gnuplot_script("out.csv", 3)
    assert "csv = 'out.csv'" in script
    assert "dual consensus 3" in script
    # column index for constraint l is 6 + l in 1-based gnuplot counting
    assert "using 1:9" in script
    assert "set logscale y" in script
