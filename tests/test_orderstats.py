"""The sort-based median and quantile equal numpy's, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgad.ingest import window
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


@st.composite
def axis_samples(draw):
    """A 1-D, (rows, columns) or (n, rows, factor, columns) float64 sample
    and the axis to reduce, which holds 1 to 40 values; a few distinct
    values make ties, and one cell may hold a nan."""
    ndim = draw(st.sampled_from([1, 2, 4]))
    axis = draw(st.integers(min_value=0, max_value=ndim - 1))
    shape = [draw(st.integers(min_value=1, max_value=6)) for _ in range(ndim)]
    shape[axis] = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    distinct = draw(st.sampled_from([None, 1, 2, 5]))
    if distinct is None:
        values = rng.normal(size=shape)
    else:
        values = rng.choice(rng.normal(size=distinct), size=shape)
    if draw(st.booleans()):
        values.flat[rng.integers(values.size)] = np.nan
    return values, axis


@given(axis_samples())
@settings(max_examples=300, deadline=None)
def test_median_along_an_axis_is_numpys(sample):
    values, axis = sample
    assert_bitwise(median(values, axis), np.median(values, axis=axis))


@pytest.mark.parametrize("factor", [3, 4])
def test_median_of_a_strided_window_view_is_c_contiguous(factor):
    # the blocks downsample_median reduces: a reshape of a window view,
    # whose rows overlap, that stays a view
    windows = window(np.random.default_rng(factor).normal(size=(50, 5)), 12, 1)
    blocks = windows.reshape(len(windows), 12 // factor, factor, 5)
    assert not blocks.flags.c_contiguous
    got = median(blocks, axis=2)
    assert got.flags.c_contiguous
    assert_bitwise(got, np.median(blocks, axis=2))


def test_a_column_with_a_nan_gives_nan():
    values = np.array([[1.0, 2.0], [np.nan, 3.0], [0.5, 4.0]])
    for got in (median(values), quantile(values, 0.99)):
        assert np.isnan(got[0]) and not np.isnan(got[1])


@pytest.mark.parametrize("stat", [median, lambda v: quantile(v, 0.99)],
                         ids=["median", "quantile"])
def test_no_values_are_refused(stat):
    with pytest.raises(ValueError, match="no values"):
        stat(np.zeros(0))
