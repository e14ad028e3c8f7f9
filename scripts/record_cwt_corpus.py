#!/usr/bin/env python3
"""Record every histogram the CWT peak finder sees in one paper pass.

Runs every paper experiment at one scale in this process, captures the
``(histogram, widths)`` arguments of each CWT peak-finder call that
``analyze_latency_distribution`` makes (histograms of at least 8 bins;
smaller ones never reach it), and writes the distinct ones as a sparse
JSON corpus.  ``tests/test_core_cwt.py`` replays the committed corpus
against ``scipy.signal.find_peaks_cwt``.

Usage:
    python scripts/record_cwt_corpus.py [--scale tiny]
                                        [--out tests/corpus/cwt/paper-tiny.json]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import repro.core.distribution as distribution
from repro.experiments import ALL_EXPERIMENTS


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", default="tiny",
                        choices=("tiny", "small", "full"))
    parser.add_argument("--out", default="tests/corpus/cwt/paper-tiny.json")
    args = parser.parse_args()

    seen: dict[str, dict] = {}
    finder = distribution.find_peaks_cwt

    def recording(vector, widths):
        counts = [int(c) for c in vector]
        entry = {
            "bins": len(counts),
            "counts": {str(b): c for b, c in enumerate(counts) if c},
            "widths": [int(w) for w in widths],
        }
        seen.setdefault(json.dumps(entry, sort_keys=True), entry)
        return finder(vector, widths)

    distribution.find_peaks_cwt = recording
    try:
        for name, experiment in ALL_EXPERIMENTS.items():
            print(f"== {name} ({args.scale}) ==", flush=True)
            experiment.run(args.scale)
    finally:
        distribution.find_peaks_cwt = finder

    corpus = {
        "note": f"distinct CWT peak-finder inputs of one {args.scale} "
                "paper pass (scripts/record_cwt_corpus.py)",
        "histograms": [seen[key] for key in sorted(seen)],
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(seen)} histogram(s) to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
