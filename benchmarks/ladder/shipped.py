"""Functions the workloads ship to libraries and task runners.

They are captured by source (``repro.serialize.capture_function``), so
each may name only builtins and globals its own set-up function binds
remotely — this module binds nothing else at top level on purpose.
"""


def noop(x):
    return x


def arg_len(blob):
    return len(blob)


def make_blob(size, fill):
    return bytes([fill]) * size


def byte_at(blob, index):
    return blob[index]


def add(a, b):
    return a + b


def load_table():
    global table
    with open("table.bin", "rb") as fh:
        table = fh.read()


def lookup(index):
    return table[index]  # noqa: F821 - bound remotely by load_table
