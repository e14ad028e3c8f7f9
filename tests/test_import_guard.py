"""No ``repro`` entry point needs scipy (a test-only dependency).

A fresh interpreter installs a ``sys.meta_path`` finder that makes every
``scipy`` import raise ``ImportError``, then imports each entry point,
analyzes a two-peak latency histogram and runs ``repro.cli list``.  Any
import path that reaches scipy again fails the subprocess.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SCRIPT = textwrap.dedent(
    """
    import sys

    class BlockScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"scipy is blocked: {name}")
            return None

    sys.meta_path.insert(0, BlockScipy())

    import repro.api
    import repro.cli
    import repro.experiments
    import repro.serve.agent
    import repro.serve.controller
    import repro.service.api
    from repro.core.distribution import analyze_latency_distribution

    latencies = [40] * 300 + [44] * 40 + [400] * 120 + [404] * 30
    peaks = analyze_latency_distribution(latencies).peaks
    assert peaks == [42, 402], peaks
    assert repro.cli.main(["list"]) == 0
    assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
    print("ok")
    """
)


def test_entry_points_run_without_scipy():
    src = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip().endswith("ok")
