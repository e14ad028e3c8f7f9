"""Trace the ``serve-mixed`` controller and agent processes.

``worker.py`` puts this directory on the ``PYTHONPATH`` of the controller
it starts (the agent inherits it) only for a traced run, with
``PERFBENCH_TRACE_DIR`` naming where each process writes its spans and
counts when it exits.  Untraced runs never import this file.
"""

import atexit
import os
import sys

_OUT = os.environ.get("PERFBENCH_TRACE_DIR")
if _OUT:
    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracer as _tracing

    _TRACER = _tracing.Tracer(f"pid-{os.getpid()}")
    _tracing.install(_TRACER)
    _tracing.wrap_runs(None, _TRACER)
    atexit.register(
        _TRACER.dump, os.path.join(_OUT, f"trace-{os.getpid()}.json")
    )
