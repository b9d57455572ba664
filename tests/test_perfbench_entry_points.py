"""Every program entry point the repository benchmark wraps still exists.

``perfbench`` traces a run by wrapping named functions and methods of the
program (``Tracer.wrap``); a rename or deletion there would otherwise
surface only in a traced benchmark run.  Instrumenting each workload and
restoring it again fails here instead.
"""

import importlib

import pytest

from perfbench import run
from perfbench.trace import Tracer


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_instrumentation_wraps_and_restores(workload):
    module = importlib.import_module(run.WORKLOADS[workload])
    tracer = Tracer()
    try:
        module.instrument(tracer)
    finally:
        tracer.restore()
