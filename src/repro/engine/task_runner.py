"""Entry point for *task-mode* execution (``python -m repro.engine.task_runner``).

This is the paper's "naive transformation": a generic wrapper script that
deserializes the function with its arguments from a file, reconstructs
the context from scratch, executes, and writes the result — paying the
full context-reload cost on every run.  The worker spawns one fresh
interpreter per :class:`~repro.engine.task.PythonTask`.

Exit code 0 means the wrapper itself worked (the function may still have
raised — that failure travels inside the result file).  Nonzero exit
means infrastructure failure.
"""

from __future__ import annotations

import os
import sys
import time
import traceback


def run(sandbox: str, env_dir: str | None) -> int:
    started = time.monotonic()
    if env_dir:
        sys.path.insert(0, env_dir)
    os.chdir(sandbox)
    # Import after sys.path adjustment so the shipped environment wins.
    from repro.serialize.core import deserialize, deserialize_from_file, serialize_to_file
    from repro.engine.sandbox import ARGS_FILE, CODE_FILE, RESULT_FILE
    from repro.engine import payloads

    # reload_overhead is the interpreter/import cost of rebuilding the
    # context from scratch; deserializing the shipped payload (including
    # function reconstruction) is accounted separately so the paper's
    # "deserialization" cost component is measured, not inferred.
    deserialize_started = time.monotonic()
    try:
        # The (per-function memoized) code blob and the per-task argument
        # blob ship independently, so a repeated function or argument is
        # never re-pickled into each task.
        fn = deserialize_from_file(os.path.join(sandbox, CODE_FILE))["code"].reconstruct()
        spec = deserialize_from_file(os.path.join(sandbox, ARGS_FILE))
        args = spec.get("args", ())
        kwargs = spec.get("kwargs", {})
        # Arguments declared via Manager.declare_argument arrive as
        # shared-memory placeholders; materialize them from the segment.
        args, kwargs = payloads.resolve_args(
            args, kwargs, payloads.ResolvedArgCache(), deserialize
        )
    except Exception:
        sys.stderr.write(traceback.format_exc())
        return 2
    deserialize_time = time.monotonic() - deserialize_started
    reload_overhead = deserialize_started - started
    exec_started = time.monotonic()
    try:
        value = fn(*args, **kwargs)
        outcome = {"ok": True, "value": value}
    except BaseException as exc:  # report the function's failure, any kind
        outcome = {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
    outcome["times"] = {
        "reload_overhead": reload_overhead,
        "deserialize": deserialize_time,
        "exec_time": time.monotonic() - exec_started,
    }
    try:
        serialize_to_file(outcome, os.path.join(sandbox, RESULT_FILE))
    except Exception:
        sys.stderr.write(traceback.format_exc())
        return 3
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        sys.stderr.write("usage: task_runner SANDBOX [ENV_DIR]\n")
        return 64
    sandbox = argv[0]
    env_dir = argv[1] if len(argv) > 1 else None
    return run(sandbox, env_dir)


if __name__ == "__main__":
    raise SystemExit(main())
