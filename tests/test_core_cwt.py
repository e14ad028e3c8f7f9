"""The numpy CWT peak finder against its oracle, scipy's ``find_peaks_cwt``.

``repro.core.cwt`` ports scipy's ridge-line peak finder at the defaults
``analyze_latency_distribution`` uses, so that no process imports scipy.
These properties hold it to scipy's exact output on four histogram
shapes and on every histogram one tiny paper pass feeds it
(``tests/corpus/cwt/``, written by ``scripts/record_cwt_corpus.py``).
scipy is a test-only dependency: without it these tests skip.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.cwt import _score_at_10th_percentile, find_peaks_cwt
from repro.core.distribution import analyze_latency_distribution

CORPUS = Path(__file__).parent / "corpus" / "cwt" / "paper-tiny.json"


def _widths(bins: int) -> np.ndarray:
    """The widths ``analyze_latency_distribution`` passes for ``bins``."""
    return np.arange(1, max(3, min(12, bins // 4)))


def _both(histogram, widths=None) -> tuple[list[int], list[int]]:
    """(port, scipy) peaks of one histogram."""
    signal = pytest.importorskip("scipy.signal")
    vector = np.asarray(histogram, dtype=float)
    if widths is None:
        widths = _widths(len(vector))
    with np.errstate(divide="ignore", invalid="ignore"):
        ours = find_peaks_cwt(vector, widths)
        theirs = [int(b) for b in signal.find_peaks_cwt(vector, widths)]
    return ours, theirs


# ----------------------------------------------------------------------
# Histogram shapes
# ----------------------------------------------------------------------
bin_counts = st.integers(min_value=8, max_value=300)


@st.composite
def random_histograms(draw):
    """Independent counts per bin."""
    bins = draw(bin_counts)
    return draw(st.lists(st.integers(0, 60), min_size=bins, max_size=bins))


@st.composite
def sparse_histograms(draw):
    """A few spikes in a sea of zeros: most noise windows are all zero,
    so the ridge SNRs are x/0 = inf or 0/0 = NaN."""
    bins = draw(bin_counts)
    spikes = draw(st.dictionaries(
        st.integers(0, bins - 1), st.integers(1, 5000), max_size=6
    ))
    histogram = [0] * bins
    for b, count in spikes.items():
        histogram[b] = count
    return histogram


@st.composite
def plateau_histograms(draw):
    """Flat runs of equal counts: no strict maximum inside a run."""
    bins = draw(bin_counts)
    histogram = [0] * bins
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, bins - 2))
        stop = draw(st.integers(start + 1, bins))
        level = draw(st.integers(1, 40))
        histogram[start:stop] = [level] * (stop - start)
    return histogram


@st.composite
def poisson_histograms(draw):
    """Counts drawn from a Poisson law, like a smeared latency mode."""
    bins = draw(bin_counts)
    rate = draw(st.floats(0.05, 30.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).poisson(rate, bins).tolist()


# ----------------------------------------------------------------------
# Exactness against scipy
# ----------------------------------------------------------------------
@given(random_histograms())
def test_random_histogram_peaks_always_match_scipy(histogram):
    ours, theirs = _both(histogram)
    assert ours == theirs


@given(sparse_histograms())
def test_sparse_histogram_peaks_always_match_scipy(histogram):
    ours, theirs = _both(histogram)
    assert ours == theirs


@given(plateau_histograms())
def test_plateau_histogram_peaks_always_match_scipy(histogram):
    ours, theirs = _both(histogram)
    assert ours == theirs


@given(poisson_histograms())
def test_poisson_histogram_peaks_always_match_scipy(histogram):
    ours, theirs = _both(histogram)
    assert ours == theirs


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
def test_noise_floor_always_equals_scoreatpercentile(values):
    """Bit for bit: ``np.percentile`` or ``1 - frac`` weights differ
    from scipy's "fraction" arithmetic in the low bits."""
    stats = pytest.importorskip("scipy.stats")
    window = np.asarray(values)
    assert _score_at_10th_percentile(window) == stats.scoreatpercentile(
        window, 10
    )


def _corpus() -> list[dict]:
    return json.loads(CORPUS.read_text())["histograms"]


def test_recorded_paper_histograms_match_scipy():
    entries = _corpus()
    assert entries, f"no histograms in {CORPUS}"
    for entry in entries:
        histogram = [0] * entry["bins"]
        for b, count in entry["counts"].items():
            histogram[int(b)] = count
        assert entry["widths"] == _widths(entry["bins"]).tolist()
        ours, theirs = _both(histogram, np.asarray(entry["widths"]))
        assert ours == theirs


# ----------------------------------------------------------------------
# Plain properties (no oracle needed)
# ----------------------------------------------------------------------
@given(random_histograms())
def test_peaks_always_sorted_and_in_range(histogram):
    with np.errstate(divide="ignore", invalid="ignore"):
        peaks = find_peaks_cwt(np.asarray(histogram, float),
                               _widths(len(histogram)))
    assert peaks == sorted(peaks)
    assert all(0 < b < len(histogram) - 1 for b in peaks)


def test_all_zero_histogram_has_no_peaks():
    assert find_peaks_cwt(np.zeros(40), _widths(40)) == []


def test_two_mode_latencies_give_two_peaks():
    latencies = [40] * 300 + [44] * 40 + [400] * 120 + [404] * 30
    distribution = analyze_latency_distribution(latencies)
    assert distribution.peaks == [42, 402]
