"""Run traces and their CSV serialization.

One row per recorded iterate: objective value of the evaluated point, the
running-average objective (averaging algorithm only), objective error against
the centralized optimum (when available), worst coupled-constraint residuals
of the stacked primal, per-constraint dual consensus errors, and the
cumulative message count.  Floats are written with 17 significant digits so a
parse reproduces the in-memory trace exactly; undefined entries are NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RoundRecord:
    round: int
    phi: float
    phi_hat: float
    obj_err: float
    max_ineq_viol: float
    max_eq_resid: float
    dual_cons_err: tuple[float, ...]
    msgs: int


class RunTrace:
    """A run's records, kept as arrays: a round column, a message column and
    the float cells (phi through max_eq_resid, then the dual consensus
    errors), a row per record.

    ``records`` rebuilds the RoundRecords on each read, with the same
    values.  A kept trace holds 8 bytes per cell instead of a Python float
    per cell and an object per record, and a float column whose cells share
    one bit pattern (``phi_hat`` under ``pgd``, the dual error of a
    constraint with one participant) as that one value.
    """

    def __init__(self, n_constraints: int, records):
        self.n_constraints = n_constraints
        self.rounds = np.array([r.round for r in records], dtype=np.int64)
        self.msgs = np.array([r.msgs for r in records], dtype=np.int64)
        cells = np.array([(r.phi, r.phi_hat, r.obj_err, r.max_ineq_viol,
                           r.max_eq_resid, *r.dual_cons_err) for r in records],
                         dtype=float).reshape(len(records), 5 + n_constraints)
        bits = cells.view(np.int64)
        self._varying = ~(bits == bits[:1]).all(0)
        self._first = cells[:1].copy()
        self._columns = cells[:, self._varying].copy()

    @property
    def cells(self) -> np.ndarray:
        cells = np.repeat(self._first, len(self), axis=0)
        cells[:, self._varying] = self._columns
        return cells

    @property
    def records(self) -> tuple[RoundRecord, ...]:
        return tuple(RoundRecord(t, *row[:5], tuple(row[5:]), m)
                     for t, row, m in zip(self.rounds.tolist(), self.cells.tolist(),
                                          self.msgs.tolist()))

    def header(self) -> list[str]:
        return (
            ["round", "phi", "phi_hat", "obj_err", "max_ineq_viol", "max_eq_resid"]
            + [f"dual_cons_err_{l}" for l in range(1, self.n_constraints + 1)]
            + ["msgs"]
        )

    def column(self, name: str) -> np.ndarray:
        if name in ("round", "msgs"):
            return (self.rounds if name == "round" else self.msgs).copy()
        return self.cells[:, self.header().index(name) - 1].copy()

    def __len__(self) -> int:
        return len(self.rounds)


def _fmt(x: float) -> str:
    return "%.17g" % x


def trace_lines(trace: RunTrace) -> list[str]:
    lines = [",".join(trace.header())]
    for t, row, msgs in zip(trace.rounds.tolist(), trace.cells.tolist(),
                            trace.msgs.tolist()):
        lines.append(",".join([str(t), *map(_fmt, row), str(msgs)]))
    return lines


def emit_trace(trace: RunTrace, path) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(trace_lines(trace)) + "\n")


def parse_trace(path) -> RunTrace:
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    header = lines[0].split(",")
    n_cons = sum(1 for name in header if name.startswith("dual_cons_err_"))
    records = []
    for line in lines[1:]:
        cells = line.split(",")
        records.append(RoundRecord(
            round=int(cells[0]),
            phi=float(cells[1]),
            phi_hat=float(cells[2]),
            obj_err=float(cells[3]),
            max_ineq_viol=float(cells[4]),
            max_eq_resid=float(cells[5]),
            dual_cons_err=tuple(float(c) for c in cells[6:6 + n_cons]),
            msgs=int(cells[6 + n_cons]),
        ))
    return RunTrace(n_cons, tuple(records))


def traces_equal(a: RunTrace, b: RunTrace) -> bool:
    """Equal on the arrays: width, rounds, message counts and cells, NaN
    equal to NaN."""
    return (a.n_constraints == b.n_constraints
            and np.array_equal(a.rounds, b.rounds) and np.array_equal(a.msgs, b.msgs)
            and np.array_equal(a.cells, b.cells, equal_nan=True))


def gnuplot_script(csv_path: str, n_constraints: int) -> str:
    """Companion gnuplot script plotting objective decay and residuals."""
    dual_plots = ", ".join(
        f"csv using 1:{7 + l - 1} with lines title 'dual consensus {l}'"
        for l in range(1, n_constraints + 1)
    )
    return "\n".join([
        f"csv = '{csv_path}'",
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set logscale y",
        "set xlabel 'round'",
        "set terminal pngcairo size 900,600",
        f"set output '{csv_path}.objective.png'",
        "plot csv using 1:(abs($4)) with lines title '|objective error|'",
        f"set output '{csv_path}.residuals.png'",
        "plot csv using 1:5 with lines title 'max inequality violation', \\",
        "     csv using 1:6 with lines title 'max equality residual'",
        f"set output '{csv_path}.dual.png'",
        f"plot {dual_plots}",
        "",
    ])
