"""Continuous-wavelet-transform peak finding, numpy only (paper §3.4).

The ridge-line method of Du, Kibbe & Lin (Bioinformatics 2006,
doi:10.1093/bioinformatics/btl355), ported from
``scipy.signal.find_peaks_cwt`` at the defaults
:func:`repro.core.distribution.analyze_latency_distribution` calls it
with: Ricker wavelet, ``gap_thresh = ceil(widths[0])``,
``max_distances = widths / 4``, ``min_length = ceil(rows / 4)``,
``window_size = ceil(n / 20)``, ``min_snr = 1``, ``noise_perc = 10``.
It returns exactly scipy's peaks; ``tests/test_core_cwt.py`` checks
that against scipy itself.  Three details keep it bit-exact:

* every convolution is ``np.convolve(..., "same")``: scipy picks its
  direct method for each kernel built here (at most 110 taps), and its
  direct 1-D path is ``np.convolve``;
* the noise floor uses ``scipy.stats.scoreatpercentile``'s "fraction"
  arithmetic: weights ``[j - idx, idx - i]`` divided by their sum;
* a ridge is dropped only when ``snr < 1``, so a 0/0 (NaN) SNR keeps it.

The only division is that SNR; a flat noise window makes it x/0 or
0/0, so callers silence numpy's warnings with ``np.errstate``.
"""

from __future__ import annotations

import math

import numpy as np

#: Percentile of the first CWT row taken as the noise floor.
NOISE_PERC = 10
#: A ridge whose SNR falls below this is noise.
MIN_SNR = 1


def find_peaks_cwt(vector: np.ndarray, widths: np.ndarray) -> list[int]:
    """Sorted indices of the peaks of ``vector`` (float64), as
    ``scipy.signal.find_peaks_cwt(vector, widths)`` returns them."""
    widths = np.asarray(widths)
    cwt = _cwt(vector, widths)
    lines = _ridge_lines(cwt, widths / 4.0, math.ceil(widths[0]))
    return sorted(_filter_ridge_lines(cwt, lines))


def _ricker(points, a) -> np.ndarray:
    """The Ricker ("Mexican hat") wavelet; scipy's expression order.
    It is exactly symmetric, so scipy's time reversal is a no-op."""
    amplitude = 2 / (np.sqrt(3 * a) * (np.pi**0.25))
    wsq = a**2
    vec = np.arange(0, points) - (points - 1.0) / 2
    xsq = vec**2
    mod = 1 - xsq / wsq
    gauss = np.exp(-xsq / (2 * wsq))
    return amplitude * mod * gauss


def _cwt(data: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """One row per width: ``data`` convolved with that width's wavelet."""
    out = np.empty((len(widths), len(data)), dtype=np.float64)
    for row, width in enumerate(widths):
        points = min(10 * width, len(data))
        out[row] = np.convolve(data, _ricker(points, width), "same")
    return out


def _ridge_lines(
    cwt: np.ndarray, max_distances: np.ndarray, gap_thresh: int
) -> list[tuple[list[int], list[int]]]:
    """Connect each row's strict local maxima into ridge lines, from the
    widest row down.  Each line is ``(rows, cols)`` in the order its
    points were added (rows non-increasing)."""
    # Strict relative maxima along each row; the edge columns compare
    # against themselves (numpy "clip"), so they never qualify.
    centre = cwt[:, 1:-1]
    maxima = np.zeros(cwt.shape, dtype=bool)
    maxima[:, 1:-1] = (centre > cwt[:, 2:]) & (centre > cwt[:, :-2])
    max_cols = [np.flatnonzero(row).tolist() for row in maxima]
    start = max((r for r, cols in enumerate(max_cols) if cols), default=None)
    if start is None:
        return []
    # Each open line: [rows, cols, gap].
    open_lines = [[[start], [col], 0] for col in max_cols[start]]
    closed = []
    for row in range(start - 1, -1, -1):
        for line in open_lines:
            line[2] += 1
        ends = [line[1][-1] for line in open_lines]
        limit = max_distances[row]
        for col in max_cols[row]:
            line = None
            if ends:
                diffs = [abs(col - end) for end in ends]
                closest = diffs.index(min(diffs))
                if diffs[closest] <= limit:
                    line = open_lines[closest]
            if line is not None:
                line[0].append(row)
                line[1].append(col)
                line[2] = 0
            else:
                open_lines.append([[row], [col], 0])
        for index in range(len(open_lines) - 1, -1, -1):
            if open_lines[index][2] > gap_thresh:
                closed.append(open_lines.pop(index))
    return [(line[0], line[1]) for line in closed + open_lines]


def _filter_ridge_lines(
    cwt: np.ndarray, lines: list[tuple[list[int], list[int]]]
) -> list[int]:
    """Peak columns of the ridge lines long and strong enough."""
    rows, points = cwt.shape
    min_length = math.ceil(rows / 4)
    half, odd = divmod(math.ceil(points / 20), 2)
    row_one = cwt[0]
    peaks = []
    for line_rows, line_cols in lines:
        if len(line_rows) < min_length:
            continue
        # scipy "sorts" a line by scattering it through its argsort
        # (``out[argsort(rows)] = rows``), so its first point is point
        # k of the line for the k where ``argsort(rows)[k] == 0``.
        first = int(np.flatnonzero(np.argsort(line_rows) == 0)[0])
        row, col = line_rows[first], line_cols[first]
        window = row_one[max(col - half, 0): min(col + half + odd, points)]
        snr = abs(cwt[row, col] / _score_at_10th_percentile(window))
        if not snr < MIN_SNR:  # NaN (0/0) keeps the ridge, as in scipy
            peaks.append(col)
    return peaks


def _score_at_10th_percentile(values: np.ndarray) -> np.float64:
    """``scipy.stats.scoreatpercentile(values, 10)``: linear
    interpolation with weights normalized by their sum."""
    ordered = np.sort(values)
    idx = NOISE_PERC / 100.0 * (len(ordered) - 1)
    i = int(idx)
    if i == idx:
        return ordered[i]
    weights = np.array([(i + 1 - idx), (idx - i)], float)
    return np.add.reduce(ordered[i: i + 2] * weights) / weights.sum()
