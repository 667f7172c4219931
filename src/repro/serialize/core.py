"""Binary value serialization with integrity framing.

Arguments and results cross three process boundaries (application →
manager → worker → library); each payload is framed with a magic tag,
a format version, and a SHA-256 digest so that transmission or cache
corruption is detected at the boundary where it happened instead of
surfacing as an unpickling crash deep inside a library process.
"""

from __future__ import annotations

import os
import pickle
from typing import Any

import cloudpickle

from repro.errors import SerializationError
from repro.util.hashing import hash_bytes

_MAGIC = b"RPRO"
_VERSION = 1
_DIGEST_LEN = 64  # hex sha256


def serialize(obj: Any) -> bytes:
    """Serialize ``obj`` to a framed, integrity-checked byte string.

    ``cloudpickle`` is used so closures, lambdas, and interactively
    defined classes — all common in function-centric applications —
    survive the trip.
    """
    try:
        payload = cloudpickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # pickling errors are a zoo of types
        raise SerializationError(f"cannot serialize {type(obj).__name__}: {exc}") from exc
    digest = hash_bytes(payload).encode("ascii")
    header = _MAGIC + bytes([_VERSION]) + len(payload).to_bytes(8, "big")
    return header + digest + payload


def frame_digest(data: "bytes | bytearray | memoryview") -> str:
    """The SHA-256 hex digest a :func:`serialize` frame carries.

    It hashes the frame's pickle, and the whole frame is a function of
    the pickle, so it names the frame's content without hashing it
    again.  Nothing is verified here: :func:`deserialize` does that.
    """
    header_len = len(_MAGIC) + 1 + 8
    return bytes(data[header_len : header_len + _DIGEST_LEN]).decode("ascii")


def deserialize(data: "bytes | bytearray | memoryview") -> Any:
    """Inverse of :func:`serialize`, validating framing and digest.

    Accepts any bytes-like object — in particular a ``memoryview`` into a
    shared-memory payload segment, so attaching receivers deserialize
    straight out of the mapping without copying the blob first.
    """
    data = memoryview(data)
    header_len = len(_MAGIC) + 1 + 8
    if len(data) < header_len + _DIGEST_LEN:
        raise SerializationError("truncated payload")
    if bytes(data[: len(_MAGIC)]) != _MAGIC:
        raise SerializationError("bad magic: not a repro-serialized payload")
    version = data[len(_MAGIC)]
    if version != _VERSION:
        raise SerializationError(f"unsupported payload version {version}")
    declared = int.from_bytes(data[len(_MAGIC) + 1 : header_len], "big")
    digest = bytes(data[header_len : header_len + _DIGEST_LEN]).decode("ascii")
    payload = data[header_len + _DIGEST_LEN :]
    if len(payload) != declared:
        raise SerializationError(
            f"length mismatch: header says {declared}, got {len(payload)}"
        )
    if hash_bytes(payload) != digest:
        raise SerializationError("payload digest mismatch (corrupt data)")
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise SerializationError(f"cannot deserialize payload: {exc}") from exc


def serialize_to_file(obj: Any, path: str | os.PathLike[str]) -> str:
    """Serialize ``obj`` into ``path`` atomically; return the payload digest.

    The write goes to a sibling temporary file first and is renamed into
    place, so a concurrent reader never observes a half-written payload —
    important because worker caches are shared between library processes.
    """
    data = serialize(obj)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return frame_digest(data)


def deserialize_from_file(path: str | os.PathLike[str]) -> Any:
    """Read and deserialize a payload previously written by
    :func:`serialize_to_file`."""
    with open(path, "rb") as fh:
        return deserialize(fh.read())
