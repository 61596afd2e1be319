"""The sort-based median and quantile equal numpy's, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgad.orderstats import median, quantile

# the quantiles the code takes: 1 - target_fpr, for the default target and
# for any other the schema allows
QUANTILES = st.one_of(
    st.sampled_from([0.99, 0.95, 0.999, 0.5]),
    st.floats(min_value=0.001, max_value=0.999).map(lambda fpr: 1.0 - fpr),
)


@st.composite
def samples(draw):
    """A 1-D or (n, 7) float64 sample of 1 to 1000 rows; a few distinct
    values make ties, and the scale spans many binades."""
    rows = draw(st.integers(min_value=1, max_value=1000))
    shape = draw(st.sampled_from([(rows,), (rows, 7)]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = 10.0 ** draw(st.integers(min_value=-6, max_value=6))
    distinct = draw(st.sampled_from([None, None, None, 1, 2, 5]))
    if distinct is None:
        return rng.normal(size=shape) * scale
    return rng.choice(rng.normal(size=distinct) * scale, size=shape)


def assert_bitwise(got, want):
    want = np.asarray(want)
    assert type(got) is (float if want.ndim == 0 else np.ndarray)
    assert np.asarray(got).tobytes() == want.tobytes(), (got, want)


@given(samples(), QUANTILES)
@settings(max_examples=400, deadline=None)
def test_quantile_is_numpys(values, q):
    assert_bitwise(quantile(values, q), np.quantile(values, q, axis=0))


@given(samples())
@settings(max_examples=200, deadline=None)
def test_median_is_numpys(values):
    assert_bitwise(median(values), np.median(values, axis=0))


def test_a_column_with_a_nan_gives_nan():
    values = np.array([[1.0, 2.0], [np.nan, 3.0], [0.5, 4.0]])
    for got in (median(values), quantile(values, 0.99)):
        assert np.isnan(got[0]) and not np.isnan(got[1])


@pytest.mark.parametrize("stat", [median, lambda v: quantile(v, 0.99)],
                         ids=["median", "quantile"])
def test_no_values_are_refused(stat):
    with pytest.raises(ValueError, match="no values"):
        stat(np.zeros(0))
