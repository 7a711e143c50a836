"""The active-set verdicts against their per-row Python references.

``local_qp._residual_ok``, ``_accepted`` and ``_moves`` reduce short last
axes of stacked arrays.  Whatever the arrays' memory layout, every row's
answer must be the one ``reference.row_residual_ok``, ``row_accepted`` and
``row_move`` give it in Python floats: the same verdicts and moves (the
lowest index on ties) and the same row-residual bits.  Entries come from
small pools, so rows tie, sit at the add and drop tolerances, carry signed
zeros and, at a drawn rate, infinities and NaN.
"""

from datetime import timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from couplesolve.local_qp import _accepted, _moves, _residual_ok
from reference import row_accepted, row_move, row_residual_ok

POOL = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 7.0, 1e-9, -3e-9, 1e-10, 2e-10, -1e-11, -2e-11,
                 1e-12])
TINY = np.array([0.0, -0.0, 1e-10, -1e-10, 1e-12, 3e-9])  # costs and rows the bound can pass
SPECIAL = np.array([np.inf, -np.inf, np.nan])

CASES = st.fixed_dictionaries({
    "n": st.sampled_from([1, 7, 400]),
    "width": st.sampled_from([0, 1, 2, 3, 4, 5, 6, 150]),
    "dim": st.integers(1, 4),
    "tiny": st.booleans(),
    "special": st.sampled_from([0.0, 0.002, 0.05]),
    "seed": st.integers(0, 2 ** 32 - 1),
})
SETTINGS = settings(derandomize=True, max_examples=100, deadline=timedelta(seconds=10))


def _draw(rng, shape, special, pool=POOL):
    values = rng.choice(pool, size=shape)
    hit = rng.random(shape) < special
    values[hit] = rng.choice(SPECIAL, size=int(hit.sum()))
    return values


def _layouts(*arrays):
    """The arrays as drawn (C order), then agent-contiguous (Fortran order)."""
    return [arrays, tuple(np.asfortranarray(a) for a in arrays)]


def _same_bits(a, b) -> bool:
    """Equal bit for bit, signed zeros included; a NaN matches a NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.where(nan, 0.0, a).tobytes() == np.where(nan, 0.0, b).tobytes())


@SETTINGS
@given(CASES)
def test_residual_bound_matches_the_per_row_reference(case):
    n, width, dim = case["n"], case["width"], case["dim"]
    rng = np.random.default_rng(case["seed"])
    pool = TINY if case["tiny"] else POOL
    h = _draw(rng, (n, dim, dim), case["special"], pool)
    c = _draw(rng, (n, dim), case["special"], pool)
    rows = _draw(rng, (n, width, dim), case["special"], pool)
    offsets = _draw(rng, (n, width), case["special"], pool)
    z = _draw(rng, (n, dim + width), case["special"])
    kkt = rng.random((n, width)) < 0.5
    expected = [row_residual_ok(*row) for row in zip(h, c, rows, kkt, z, offsets)]
    with np.errstate(invalid="ignore"):  # inf - inf and 0 x inf are NaN rows to check
        for args in _layouts(h, c, rows, kkt, z, offsets):
            ok, residual = _residual_ok(*args[:2], np.abs(c).max(-1, initial=0.0), *args[2:])
            assert ok.tolist() == [want for want, _ in expected]
            for got, (_, want) in zip(residual, expected):
                assert _same_bits(got, want)
        if n == 1:  # one agent's arrays, unstacked
            ok, residual = _residual_ok(h[0], c[0], np.abs(c[0]).max(initial=0.0), rows[0],
                                        kkt[0], z[0], offsets[0])
            assert bool(ok) == expected[0][0] and _same_bits(residual, expected[0][1])


@SETTINGS
@given(CASES)
def test_accept_and_move_match_the_per_row_reference(case):
    n, width = case["n"], case["width"]
    rng = np.random.default_rng(case["seed"])
    work = rng.random((n, width)) < 0.3
    free = ~work & (rng.random((n, width)) < 0.7)
    residual = _draw(rng, (n, width), case["special"])
    mults = _draw(rng, (n, width), case["special"])
    accepted = [row_accepted(*row) for row in zip(free, work, residual, mults)]
    moves = [row_move(*row) for row in zip(free, work, residual, mults)] if width else None
    for args in _layouts(free, work, residual, mults):
        assert _accepted(*args).tolist() == accepted
        if width:  # a row with no rows is always accepted, so it never moves
            assert _moves(*args).tolist() == moves
    if n == 1:
        assert bool(_accepted(free[0], work[0], residual[0], mults[0])) == accepted[0]
        if width:
            assert int(_moves(free[0], work[0], residual[0], mults[0])) == moves[0]
