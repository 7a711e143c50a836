"""Every objective value's one arithmetic, ``problem.cost_shares``, against
its per-agent Python reference.

Whatever the arrays' memory layout and however many zero columns pad the
blocks, every agent's cost must be the one ``reference.row_cost`` gives it
in Python floats, bit for bit.  Block dimensions run past 8, where numpy's
pairwise sums change their order.
"""

from datetime import timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from couplesolve import AgentObjective
from couplesolve.problem import cost_shares
from reference import row_cost

CASES = st.fixed_dictionaries({
    "n": st.sampled_from([1, 7, 400]),
    "dim": st.integers(1, 10),
    "pad": st.sampled_from([0, 1, 3]),
    "seed": st.integers(0, 2 ** 32 - 1),
})
SETTINGS = settings(derandomize=True, max_examples=100, deadline=timedelta(seconds=10))


def _pad(a, pad, axes):
    """``a`` with ``pad`` zero entries after each of the given axes."""
    return np.pad(a, [(0, pad if k in axes else 0) for k in range(a.ndim)])


@SETTINGS
@given(CASES)
def test_cost_shares_match_the_per_agent_reference(case):
    n, dim, pad = case["n"], case["dim"], case["pad"]
    rng = np.random.default_rng(case["seed"])
    a = rng.standard_normal((n, dim, dim))
    h = (a @ a.transpose(0, 2, 1)) * 10.0 ** rng.integers(-3, 4, size=(n, 1, 1))
    c = rng.standard_normal((n, dim))
    constant = rng.standard_normal(n)
    x = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    expected = np.array([row_cost(*agent) for agent in zip(h, c, constant, x)])
    padded = (_pad(h, pad, (1, 2)), _pad(c, pad, (1,)), constant, _pad(x, pad, (1,)))
    for arrays in ((h, c, constant, x), padded):
        for layout in (np.ascontiguousarray, np.asfortranarray):
            assert cost_shares(*map(layout, arrays)).tobytes() == expected.tobytes()
    if n == 1:  # one agent's arrays, unstacked, and its objective
        assert cost_shares(h[0], c[0], constant[0], x[0]) == expected[0]
        assert AgentObjective(h[0], c[0], constant[0]).value(x[0]) == expected[0]
