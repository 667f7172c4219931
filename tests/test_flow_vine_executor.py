"""Integration tests for the VineExecutor (engine-backed dataflow).

One shared executor (1 worker, 4 cores) serves the whole module — each
VineExecutor spawns real processes, which is expensive on one CPU.
"""

import statistics
import time

import pytest

from repro.errors import DataflowError
from repro.flow import DataFlowKernel, ExecutionMode, VineExecutor, python_app


def square(x):
    return x * x


def combine(a, b):
    return a + b


def boom(x):
    raise RuntimeError(f"exploded on {x}")


@pytest.fixture(scope="module")
def vine():
    with VineExecutor(workers=1, cores_per_worker=4, function_slots=2) as executor:
        yield executor


@pytest.fixture(scope="module")
def dfk(vine):
    return DataFlowKernel(vine)


def test_simple_app(dfk):
    assert dfk.submit(square, 6).result(timeout=120) == 36


def test_each_function_gets_its_own_library(vine, dfk):
    dfk.submit(square, 2).result(timeout=120)
    dfk.submit(combine, 1, 2).result(timeout=120)
    assert set(vine._libraries) == {"square", "combine"}


def test_repeated_calls_reuse_library(vine, dfk):
    futures = [dfk.submit(square, i) for i in range(10)]
    assert [f.result(timeout=120) for f in futures] == [i * i for i in range(10)]
    assert vine._libraries["square"] == "flowlib-square"


def test_chained_apps_through_engine(dfk):
    a = dfk.submit(square, 3)
    b = dfk.submit(combine, a, a)
    assert b.result(timeout=120) == 18


def test_remote_failure_propagates(dfk):
    fut = dfk.submit(boom, 5)
    with pytest.raises(Exception, match="exploded on 5"):
        fut.result(timeout=120)


def test_decorated_apps_on_engine(dfk):
    sq = python_app(dfk)(square)
    assert sq(7).result(timeout=120) == 49


def test_a_submission_reaches_the_engine_at_once(dfk):
    """Submitting wakes the service thread; it used to hear of an app
    only at its next 50 ms poll (p50 ≈38 ms for this recipe)."""
    dfk.submit(square, 1).result(timeout=120)  # library deployed and warm
    took = []
    for i in range(40):
        time.sleep(0.013)  # think time: the service thread is idle in wait
        started = time.monotonic()
        assert dfk.submit(square, i).result(timeout=60) == i * i
        took.append(time.monotonic() - started)
    assert statistics.median(took) < 0.005


def test_task_mode_executor():
    with VineExecutor(workers=1, cores_per_worker=2, mode=ExecutionMode.TASK) as ex:
        dfk = DataFlowKernel(ex)
        assert dfk.submit(square, 4).result(timeout=120) == 16
        assert not ex._libraries  # task mode never installs libraries


def test_submit_after_shutdown_rejected():
    ex = VineExecutor(workers=1, cores_per_worker=2)
    ex.shutdown()
    with pytest.raises(DataflowError, match="shut down"):
        ex.submit_resolved(square, (1,), {})
    ex.shutdown()  # idempotent
