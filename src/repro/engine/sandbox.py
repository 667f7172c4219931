"""Per-invocation sandboxes (paper §3.4 step 3).

"The worker sets up a sandbox specifically for the invocation, and sends
the invocation metadata, its arguments, and the sandbox to the library."

A sandbox is a throwaway working directory: inputs are hard-linked in
from the cache (copy-on-miss), the invocation runs with the sandbox as
its cwd, writes its result file there, and the worker destroys the
sandbox after retrieving the result.
"""

from __future__ import annotations

import os
import shutil

from repro.errors import EngineError

RESULT_FILE = "invocation.result"
ARGS_FILE = "invocation.args"
CODE_FILE = "invocation.code"  # task-mode function blob, split from args
SPEC_FILE = "invocation.json"
# Where a task runner or a library instance writes its stderr: a file
# never fills, so a chatty function cannot block on a pipe nobody reads.
STDERR_FILE = "invocation.stderr"


class Sandbox:
    """A working directory with link-in staging and recursive cleanup."""

    def __init__(self, root: str, name: str):
        self.path = os.path.join(root, name)
        if os.path.exists(self.path):
            raise EngineError(f"sandbox {self.path} already exists")
        os.makedirs(self.path)

    def stage(self, source_path: str, remote_name: str) -> str:
        """Make ``source_path`` visible as ``remote_name`` inside the sandbox.

        Hard links share the cached bytes between concurrent sandboxes;
        when linking fails (cross-device), fall back to a copy.
        """
        if os.sep in remote_name:
            raise EngineError(f"remote name must be flat: {remote_name!r}")
        dest = os.path.join(self.path, remote_name)
        if os.path.exists(dest):
            raise EngineError(f"sandbox already stages {remote_name!r}")
        try:
            os.link(source_path, dest)
        except OSError:
            shutil.copyfile(source_path, dest)
        return dest

    def write(self, name: str, data: bytes) -> str:
        dest = os.path.join(self.path, name)
        with open(dest, "wb") as fh:
            fh.write(data)
        return dest

    def read(self, name: str) -> bytes:
        dest = os.path.join(self.path, name)
        try:
            with open(dest, "rb") as fh:
                return fh.read()
        except OSError as exc:
            raise EngineError(f"sandbox file {name!r} unreadable: {exc}") from exc

    def exists(self, name: str) -> bool:
        return os.path.exists(os.path.join(self.path, name))

    def destroy(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
