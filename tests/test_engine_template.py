"""Library instances are forked from one warm template per worker.

Covers the template's lifecycle through the public API and ``/proc``
only: instances are children of one template and are reaped by it,
nothing outlives a killed worker, a dead template is replaced on the
next deploy while its orphans keep serving, tracing and environment
packages work as they did when every instance was its own interpreter —
and a child's stderr is a file, so a chatty function cannot wedge on a
pipe nobody drains.
"""

import os
import signal
import sys
import time

import pytest

from repro.engine import (
    FaultInjector,
    FunctionCall,
    LocalWorkerFactory,
    Manager,
    PythonTask,
    TaskState,
)
from repro.engine.faults import find_library_pids
from repro.errors import TaskFailure, WorkerError
from repro.obs.trace import merge_task_timeline, unparented_events


def _echo(x):
    return x


def _other(x):
    return -x


def _nap(seconds):
    import time as _time

    _time.sleep(seconds)
    return seconds


def _chatty(x):
    import sys as _sys

    _sys.stderr.write("x" * 200_000)  # three times a pipe's 64 KiB
    return x + 1


def _boom_setup():
    import os as _os
    import sys as _sys

    _sys.stderr.write("boom\n")
    _sys.stderr.flush()
    _os._exit(3)


# ------------------------------------------------------------------ /proc
def _stat(pid: int):
    """(state, ppid) of a process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _cmdline(pid: int) -> str:
    with open(f"/proc/{pid}/cmdline", "rb") as fh:
        return fh.read().replace(b"\0", b" ").decode()


def _running(pid: int) -> bool:
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


def _children(pid: int):
    return [
        int(entry)
        for entry in os.listdir("/proc")
        if entry.isdigit() and (_stat(int(entry)) or ("", -1))[1] == pid
    ]


def _call(manager, library, function, *args, timeout=60.0):
    call = FunctionCall(library, function, *args)
    manager.submit(call)
    manager.wait_all([call], timeout=timeout)
    return call


def _wait_dispatched(manager, task):
    deadline = time.monotonic() + 30.0
    while task.state is not TaskState.DISPATCHED and time.monotonic() < deadline:
        manager.wait(timeout=0.05)
    assert task.state is TaskState.DISPATCHED


def _wait_for(predicate, seconds, what):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.02)


# -------------------------------------------------------------- lifecycle
def test_eight_deploys_fork_eight_instances_from_one_template():
    with Manager() as manager:
        manager.install_library(manager.create_library_from_functions("tpl-a", _echo))
        manager.install_library(manager.create_library_from_functions("tpl-b", _other))
        with LocalWorkerFactory(manager, count=1, cores=1) as factory:
            worker = factory.procs[0].pid
            instances, parents = [], set()
            for round_ in range(8):
                # One core: every switch evicts the other library's instance.
                name, fn = (("tpl-a", "_echo"), ("tpl-b", "_other"))[round_ % 2]
                assert abs(_call(manager, name, fn, round_).result) == round_
                (pid,) = find_library_pids(worker)
                instances.append(pid)
                parents.add(_stat(pid)[1])
                assert "repro.engine.library_main" in _cmdline(pid)
            assert manager.stats["libraries_deployed"] == 8
            assert len(set(instances)) == 8
            (template,) = parents
            assert _stat(template)[1] == worker
            assert "repro.engine.library_main" in _cmdline(template)
            # The template reaped the seven it saw off: no zombie under it.
            assert _children(template) == instances[-1:]


def _loop_fds(pid: int):
    """How many timerfds and eventfds ``pid`` holds: one of each per
    event loop it has open."""
    held = []
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            held.append(os.readlink(f"/proc/{pid}/fd/{fd}"))
        except OSError:
            continue  # closed mid-walk
    return held.count("anon_inode:[timerfd]"), held.count("anon_inode:[eventfd]")


def test_each_process_holds_only_its_own_loop():
    """A forked instance closes its template's loop before it opens its
    own."""
    with Manager() as manager:
        manager.install_library(manager.create_library_from_functions("fd-lib", _echo))
        with LocalWorkerFactory(manager, count=1, cores=1) as factory:
            assert _call(manager, "fd-lib", "_echo", 1).result == 1
            worker = factory.procs[0].pid
            (instance,) = find_library_pids(worker)
            template = _stat(instance)[1]
            for pid in (worker, template, instance):
                assert _loop_fds(pid) == (1, 1), _cmdline(pid)


def test_nothing_outlives_a_killed_worker():
    with Manager() as manager:
        manager.install_library(manager.create_library_from_functions("orphan-lib", _echo))
        with LocalWorkerFactory(manager, count=1, cores=1) as factory:
            assert _call(manager, "orphan-lib", "_echo", 1).result == 1
            (instance,) = find_library_pids(factory.procs[0].pid)
            template = _stat(instance)[1]
            factory.procs[0].kill()
            _wait_for(
                lambda: not _running(instance) and not _running(template),
                5.0,
                "template or instance outlived its SIGKILLed worker",
            )


def test_traced_deploy_is_spawn_then_warm_in_one_timeline(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")  # before the manager builds its tracer
    with Manager() as manager:
        manager.install_library(manager.create_library_from_functions("traced-lib", _echo))
        with LocalWorkerFactory(manager, count=1, cores=1):
            assert _call(manager, "traced-lib", "_echo", 3).result == 3
            events = merge_task_timeline(manager.trace_events())
    etypes = [e.etype for e in events]
    spawn = events[etypes.index("library_spawn")]
    warm = events[etypes.index("library_warm")]
    assert etypes.index("library_spawn") < etypes.index("library_warm")
    assert spawn.attrs["instance"] == warm.attrs["instance"]
    assert spawn.pid != warm.pid  # the worker recorded one, the forked instance the other
    assert "library_invoke" in etypes
    assert unparented_events(events) == []


def test_instance_imports_its_environment_package(tmp_path):
    """The template never saw the env-dir; the forked instance still
    imports from it (and from nowhere else: workers do not share this
    process's ``sys.path``)."""
    (tmp_path / "dep_only_in_env.py").write_text("NAME = 'shipped'\n")

    def uses_dep(x):
        import dep_only_in_env

        return dep_only_in_env.NAME, dep_only_in_env.__file__, x

    with Manager() as manager:
        sys.path.insert(0, str(tmp_path))
        try:
            library = manager.create_library_from_functions(
                "env-lib", uses_dep, package_environment=True
            )
            manager.install_library(library)
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("dep_only_in_env", None)
        with LocalWorkerFactory(manager, count=1, cores=1) as factory:
            name, origin, x = _call(manager, "env-lib", "uses_dep", 7).result
    assert (name, x) == ("shipped", 7)
    assert origin.startswith(os.path.join(factory.workdir, "worker-0", "envs"))


# ------------------------------------------------------------------ faults
def test_crash_libraries_shoots_the_instance_and_spares_the_template():
    with Manager() as manager:
        manager.install_library(manager.create_library_from_functions("crash-lib", _nap))
        with LocalWorkerFactory(manager, count=1, cores=1) as factory:
            worker = factory.procs[0].pid
            injector = FaultInjector(manager, factory)
            doomed = FunctionCall("crash-lib", "_nap", 30)
            manager.submit(doomed)
            _wait_dispatched(manager, doomed)
            _wait_for(lambda: find_library_pids(worker), 10.0, "no instance appeared")
            (instance,) = find_library_pids(worker)
            template = _stat(instance)[1]
            assert injector.crash_libraries(0) == 1
            # The engine's rule for a library that dies under a call: the
            # call fails at once (test_library_crash_mid_invocation_fails_cleanly).
            manager.wait_all([doomed], timeout=30)
            with pytest.raises(TaskFailure, match="library process died"):
                _ = doomed.result
            # The next call gets a fresh instance, forked by the same template.
            assert _call(manager, "crash-lib", "_nap", 0).result == 0
            assert manager.stats["libraries_deployed"] == 2
            (fresh,) = find_library_pids(worker)
            assert fresh != instance and not _running(instance)
            assert _stat(fresh)[1] == template and _running(template)


def test_killed_template_orphans_keep_serving_and_next_deploy_restarts_it():
    with Manager() as manager:
        manager.install_library(manager.create_library_from_functions("tpl-a", _echo))
        manager.install_library(manager.create_library_from_functions("tpl-b", _other))
        with LocalWorkerFactory(manager, count=1, cores=1) as factory:
            worker = factory.procs[0].pid
            assert _call(manager, "tpl-a", "_echo", 1).result == 1
            (orphan,) = find_library_pids(worker)
            template = _stat(orphan)[1]
            os.kill(template, signal.SIGKILL)
            _wait_for(lambda: not _running(template), 5.0, "template survived SIGKILL")
            # The warm instance lost its parent, not its context.
            assert _call(manager, "tpl-a", "_echo", 2).result == 2
            assert manager.stats["libraries_deployed"] == 1
            assert _running(orphan)
            # One core: deploying tpl-b evicts the orphan (nobody will
            # report its exit, so the worker kills it outright) and
            # needs a template, which the deploy restarts.
            assert _call(manager, "tpl-b", "_other", 3).result == -3
            assert manager.stats["libraries_deployed"] == 2
            (fresh,) = find_library_pids(worker)
            assert _stat(fresh)[1] not in (template, worker)
            assert _stat(_stat(fresh)[1])[1] == worker
            _wait_for(lambda: not _running(orphan), 5.0, "evicted orphan still running")


# ------------------------------------------------------------------ stderr
def test_chatty_function_call_does_not_wedge():
    """200 000 bytes to stderr used to fill the pipe the worker only read
    after the library's exit; the call sat DISPATCHED for good."""
    with Manager() as manager:
        manager.install_library(manager.create_library_from_functions("chatty-lib", _chatty))
        with LocalWorkerFactory(manager, count=1, cores=1):
            assert _call(manager, "chatty-lib", "_chatty", 1, timeout=30.0).result == 2


def test_chatty_python_task_does_not_wedge():
    with Manager() as manager, LocalWorkerFactory(manager, count=1, cores=1):
        task = PythonTask(_chatty, 5)
        manager.submit(task)
        manager.wait_all([task], timeout=30.0)
        assert task.result == 6


def _flip(x):
    return x


def _flop(x):
    return x


def test_chatty_worker_does_not_wedge(monkeypatch):
    """A worker logging at debug level writes ~70 bytes per library
    deploy; its stderr was a pipe read only after a failed start, so
    past 64 KiB the worker blocked on a log line and every call behind
    it sat DISPATCHED for good.  Its stderr is a file now."""
    from repro.engine.resources import Resources

    with Manager() as manager:  # configures this process's logging first
        monkeypatch.setenv("REPRO_LOG", "debug")  # for the worker only
        one_core = Resources(cores=1, memory=100, disk=100)
        for name, fn in (("flip", _flip), ("flop", _flop)):
            manager.install_library(
                manager.create_library_from_functions(name, fn, resources=one_core)
            )
        with LocalWorkerFactory(manager, count=1, cores=1) as factory:
            # Two one-core libraries on a one-core worker: every call
            # evicts the other library and deploys its own.
            for n in range(1200):
                name = ("flip", "flop")[n % 2]
                assert _call(manager, name, f"_{name}", n, timeout=10.0).result == n
            log = os.path.join(factory.workdir, "worker-0", "worker.stderr")
            assert os.path.getsize(log) > 64 * 1024


def test_worker_that_dies_at_start_reports_its_stderr(tmp_path):
    """A worker that exits before it registers: the factory's error
    carries the worker's own stderr."""
    (tmp_path / "worker-0").mkdir()
    (tmp_path / "worker-0" / "cache").write_text("a file where the cache goes")
    with Manager() as manager:
        factory = LocalWorkerFactory(
            manager, count=1, cores=1, workdir=str(tmp_path), connect_timeout=3.0
        )
        with pytest.raises(WorkerError, match="workers failed to connect") as failure:
            factory.start()
        assert "Traceback" in str(failure.value)
        assert "cache" in str(failure.value)


def test_factory_stops_waiting_once_every_worker_has_exited(tmp_path):
    """Regression: the factory waited out its whole connect timeout (30 s
    by default) for workers that had all died at start."""
    (tmp_path / "worker-0").mkdir()
    (tmp_path / "worker-0" / "cache").write_text("a file where the cache goes")
    with Manager() as manager:
        factory = LocalWorkerFactory(manager, count=1, cores=1, workdir=str(tmp_path))
        started = time.monotonic()
        with pytest.raises(WorkerError, match="workers failed to connect") as failure:
            factory.start()
        assert time.monotonic() - started < 5.0
        assert "Traceback" in str(failure.value)


def test_failed_setup_reports_the_stderr_tail():
    with Manager() as manager:
        manager.install_library(
            manager.create_library_from_functions("boom-lib", _echo, context=_boom_setup)
        )
        with LocalWorkerFactory(manager, count=1, cores=1):
            call = _call(manager, "boom-lib", "_echo", 1, timeout=30.0)
            with pytest.raises(TaskFailure, match="library process died") as failure:
                _ = call.result
            assert "boom" in failure.value.remote_traceback
