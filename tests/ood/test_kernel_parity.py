"""Bitwise parity of the OOD strategies' numpy kernels with their references.

``_logsumexp_rows`` replays ``scipy.special.logsumexp(a, axis=1)`` one
operation at a time, so ES and ED scores (and with them every routing
decision) equal the scipy computation bit for bit. ``fit_threshold``'s
sorted pass must pick the same cut as the exhaustive loop it replaced,
kept here as the reference. scipy is a test-only dependency.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from repro.ood import EnergyDiscrepancy, EnergyScore, OODStrategy
from repro.ood.strategies import _logsumexp_rows

SPECIALS = [np.inf, -np.inf, np.nan, 0.0, 1.0, -1.0, 1e306, -1e306]

elements = st.one_of(
    st.floats(-1e306, 1e306, allow_nan=False, allow_infinity=False, width=64),
    st.floats(-50, 50, allow_nan=False, width=64),
    st.sampled_from(SPECIALS),
)


@st.composite
def logit_matrices(draw, min_rows=0):
    """1-16 columns (past 8 numpy sums pairwise), with ties and flat rows."""
    n = draw(st.integers(min_rows, 12))
    c = draw(st.integers(1, 16))
    a = draw(arrays(np.float64, (n, c), elements=elements))
    for i in range(n):
        how = draw(st.sampled_from(["as drawn", "tie the max", "all equal"]))
        if how == "tie the max" and c > 1 and not np.isnan(a[i]).any():
            cols = draw(st.lists(st.integers(0, c - 1), min_size=1, max_size=c))
            a[i, cols] = a[i].max()
        elif how == "all equal":
            a[i] = a[i, 0]
    return a


class TestLogsumexpKernel:
    @settings(max_examples=400, deadline=None)
    @given(logit_matrices())
    def test_bitwise_equal_to_scipy(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the kernel raises no fp warnings
            out, row_max = _logsumexp_rows(a)
        ref = logsumexp(a, axis=1)
        assert out.dtype == ref.dtype and out.shape == ref.shape
        np.testing.assert_array_equal(out, ref)  # NaN equals NaN here
        if a.size:
            np.testing.assert_array_equal(row_max, a.max(axis=1))

    def test_ties_flat_rows_and_specials(self):
        a = np.array([
            [3.0, 3.0, 1.0],              # tied max: m = 2
            [2.0, 2.0, 2.0],              # flat row: s = 0
            [np.inf, 1.0, 0.0],
            [-np.inf, -np.inf, -np.inf],
            [np.nan, 1.0, 2.0],
            [1e306, -1e306, 1e306],
        ])
        np.testing.assert_array_equal(_logsumexp_rows(a)[0], logsumexp(a, axis=1))

    def test_columns_past_the_pairwise_block(self):
        a = np.random.default_rng(0).normal(0, 4, (64, 16))
        a[::3, 5] = a[::3].max(axis=1)
        np.testing.assert_array_equal(_logsumexp_rows(a)[0], logsumexp(a, axis=1))

    @pytest.mark.parametrize("shape", [(0, 3), (0, 1)])
    def test_empty_batch(self, shape):
        out, _ = _logsumexp_rows(np.empty(shape))
        ref = logsumexp(np.empty(shape), axis=1)
        assert out.dtype == ref.dtype and out.shape == ref.shape == (0,)


def es_reference(logits, temperature):
    return -temperature * logsumexp(logits / temperature, axis=1)


def ed_reference(logits, temperature, n_dims):
    if n_dims is not None:
        logits = logits[:, :n_dims]
    scaled = logits / temperature
    return temperature * (logsumexp(scaled, axis=1) - scaled.max(axis=1))


temperatures = st.sampled_from([1.0, 0.5, 2.0, 3.7])


class TestStrategiesAgainstScipy:
    @settings(max_examples=200, deadline=None)
    @given(logit_matrices(min_rows=1), temperatures)
    def test_es_bitwise(self, logits, temperature):
        np.testing.assert_array_equal(
            EnergyScore(temperature).ood_score(logits), es_reference(logits, temperature)
        )

    @settings(max_examples=200, deadline=None)
    @given(logit_matrices(min_rows=1), temperatures, st.integers(0, 16))
    def test_ed_bitwise_with_n_dims_slice(self, logits, temperature, n_dims):
        n_dims = min(n_dims, logits.shape[1]) or None
        ed = EnergyDiscrepancy(temperature, n_dims=n_dims)
        with np.errstate(invalid="ignore"):  # inf - inf on ±inf rows, as in scipy's form
            ours = ed.ood_score(logits)
            ref = ed_reference(logits, temperature, n_dims)
        np.testing.assert_array_equal(ours, ref)


def loop_threshold(id_scores, ood_scores):
    """The exhaustive scan ``fit_threshold`` replaced: first max of balanced accuracy."""
    all_scores = np.unique(np.concatenate([id_scores, ood_scores]))
    if len(all_scores) == 1:
        return float(all_scores[0])
    cuts = (all_scores[:-1] + all_scores[1:]) / 2.0
    best_cut, best_bal = cuts[0], -1.0
    for cut in cuts:
        tpr = float((ood_scores > cut).mean())
        tnr = float((id_scores <= cut).mean())
        balanced = 0.5 * (tpr + tnr)
        if balanced > best_bal:
            best_bal, best_cut = balanced, cut
    return float(best_cut)


class FirstColumn(OODStrategy):
    """Scores are the first logit column, so tests choose them directly."""

    def ood_score(self, logits):
        return logits[:, 0]


score_elements = st.one_of(
    st.integers(-3, 3).map(float),  # heavy ties
    st.floats(-10, 10, allow_nan=False, width=64),
    st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308]),
)


def same_float(a, b):
    return (a == b and np.signbit(a) == np.signbit(b)) or (np.isnan(a) and np.isnan(b))


class TestSortedThreshold:
    @settings(max_examples=400, deadline=None)
    @given(
        arrays(np.float64, st.integers(1, 25), elements=score_elements),
        arrays(np.float64, st.integers(1, 25), elements=score_elements),
    )
    def test_bitwise_equal_to_the_loop(self, id_scores, ood_scores):
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e308 + 1e308
            ref = loop_threshold(id_scores, ood_scores)
            got = FirstColumn().fit_threshold(id_scores[:, None], ood_scores[:, None])
        assert same_float(got, ref), (got, ref)

    @pytest.mark.parametrize("id_scores, ood_scores", [
        ([0.3], [0.7]),                 # one element per side
        ([0.5], [0.1, 0.2, 0.9]),
        ([0.1, 0.8, 0.4], [0.6]),
        ([2.0, 2.0], [2.0, 2.0, 2.0]),  # all equal: the one score is the cut
        ([1.0, 2.0, 2.0], [2.0, 2.0, 3.0]),
        ([0.9, 0.8], [0.1, 0.2]),       # inverted: balanced accuracy tops out at 0.5
    ])
    def test_edge_cases(self, id_scores, ood_scores):
        id_scores, ood_scores = np.array(id_scores), np.array(ood_scores)
        got = FirstColumn().fit_threshold(id_scores[:, None], ood_scores[:, None])
        assert same_float(got, loop_threshold(id_scores, ood_scores))
