"""The vectorized congestion kernel against the scalar reference.

:func:`repro.globalroute.cost.congestion_cost_array` powers bulk
analysis; the global graph's cost caches deliberately call the scalar
kernel instead (``numpy.exp2`` vs CPython ``2.0 ** x`` may differ in
the last ulp).  These properties pin down both facts: the piecewise
branches agree exactly, and the smooth branch agrees to float64
round-off.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.globalroute.cost import (
    _ZERO_CAPACITY_PENALTY,
    congestion_cost,
    congestion_cost_array,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
demands = st.integers(min_value=-50, max_value=200)
capacities = st.integers(min_value=-5, max_value=100)


@given(st.lists(st.tuples(demands, capacities), min_size=1, max_size=32))
def test_matches_scalar_kernel_elementwise(pairs):
    d = np.array([p[0] for p in pairs], dtype=np.float64)
    c = np.array([p[1] for p in pairs], dtype=np.float64)
    out = congestion_cost_array(d, c)
    for k, (demand, capacity) in enumerate(pairs):
        expected = congestion_cost(demand, capacity)
        assert out[k] == pytest.approx(expected, rel=1e-12, abs=0.0) or (
            out[k] == expected
        )


@given(demands.filter(lambda d: d <= 0), capacities)
def test_nonpositive_demand_is_exactly_free(demand, capacity):
    assert congestion_cost_array(demand, capacity).item() == 0.0


@given(demands.filter(lambda d: d > 0), capacities.filter(lambda c: c <= 0))
def test_zero_capacity_branch_is_exactly_linear(demand, capacity):
    out = congestion_cost_array(demand, capacity).item()
    assert out == _ZERO_CAPACITY_PENALTY * demand


@given(finite, finite)
def test_scalar_inputs_broadcast_to_scalars(demand, capacity):
    out = congestion_cost_array(demand, capacity)
    assert out.shape == ()
    # Costs are non-negative; extreme demand/capacity ratios may
    # saturate to +inf (2^1024 overflows float64), never to NaN.
    assert out.item() >= 0.0 and not math.isnan(out.item())


def test_broadcasts_demand_row_against_capacity_column():
    d = np.arange(4, dtype=np.float64)
    c = np.array([[1.0], [2.0]])
    out = congestion_cost_array(d, c)
    assert out.shape == (2, 4)
    assert out[0, 0] == 0.0
    assert out[1, 2] == pytest.approx(congestion_cost(2.0, 2.0), rel=1e-12)
