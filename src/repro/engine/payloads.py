"""Zero-copy payload plane: a shared-memory content-addressed store.

The control plane (``messages.py``) ships small JSON frames; bulk
argument/result payloads historically rode behind those frames as raw
socket bytes, copied at every hop (manager → worker → library).  This
module moves large payloads out of the socket path entirely: a payload
above :func:`threshold_bytes` is written once into a
``multiprocessing.shared_memory`` segment and travels as a *descriptor*
``{"shm": name, "hash": digest, "size": n}``.  The receiver attaches the
segment lazily and deserializes straight out of the mapping — bytes
copied per hop is then flat in payload size.

Two ownership protocols cover every flow in the engine:

* **Store-owned segments** (:class:`PayloadStore`) — created by
  ``put``, content-addressed, refcount-pinnable; consumers only ever
  attach and close, the owner (the manager) unlinks.  An entry is one
  of two kinds.  A *transient* entry holds one call's arguments: it is
  unlinked the moment its last pin is released, when the last call in
  flight with those bytes settles (identical calls in flight together
  share it).  A *retained* entry — a declared argument — stays after
  its pins are gone and is evicted LRU within a byte budget; declared
  arguments are how bytes are reused across calls.
* **One-shot segments** (:func:`publish_once`) — created for a single
  result in flight; the *consumer* unlinks after reading
  (``fetch(..., consume=True)``).  No release round-trip is needed.

Hashing: a blob from ``serialize()`` already carries the SHA-256 of its
pickle, and the frame is a function of that digest, so the store keys
such a blob by it (``put(blob, frame_digest(blob))``) instead of
hashing the bytes again, and one-shot segments are named without any
hash.  Receivers still verify every payload when they deserialize it.

Segment names embed the creating pid (``repro-pl-<pid>-…``), so
:func:`reap_orphans` can reclaim segments whose owner died without
cleanup (a SIGKILLed worker or library) by scanning ``/dev/shm``.

Fallback: when shared memory is unavailable (platform, ``REPRO_SHM=0``)
or the peer lives on a different host (see :func:`host_token`), callers
keep shipping inline bytes — the descriptor path is an optimization,
never a requirement.

Environment knobs:

* ``REPRO_SHM`` — set to ``0`` to disable the payload plane entirely.
* ``REPRO_SHM_THRESHOLD`` — minimum payload size in bytes that rides in
  shared memory (default 32 KiB).
* ``REPRO_SHM_BUDGET`` — byte budget of a :class:`PayloadStore`'s LRU
  of unpinned retained entries (default 256 MiB).
"""

from __future__ import annotations

import itertools
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

_publish_seq = itertools.count()

from repro.errors import EngineError
from repro.util.hashing import hash_bytes

SHM_PREFIX = "repro-pl-"
_DEFAULT_THRESHOLD = 32 * 1024
_DEFAULT_BUDGET = 256 * 1024 * 1024

try:  # pragma: no cover - import availability depends on the platform
    from multiprocessing import shared_memory as _shared_memory
except Exception:  # pragma: no cover
    _shared_memory = None


class PayloadError(EngineError):
    """A shared-memory payload operation failed."""


def enabled() -> bool:
    """True when the payload plane may be used in this process."""
    if _shared_memory is None:
        return False
    return os.environ.get("REPRO_SHM", "") not in ("0", "off", "no")


def threshold_bytes() -> int:
    """Minimum payload size that ships via shared memory."""
    try:
        return int(os.environ.get("REPRO_SHM_THRESHOLD", _DEFAULT_THRESHOLD))
    except ValueError:
        return _DEFAULT_THRESHOLD


def budget_bytes() -> int:
    try:
        return int(os.environ.get("REPRO_SHM_BUDGET", _DEFAULT_BUDGET))
    except ValueError:
        return _DEFAULT_BUDGET


def host_token() -> str:
    """An identity for "same shared-memory domain" negotiation.

    A worker includes this in its ``register`` frame and the manager in
    its ``welcome``; descriptors are only exchanged when the tokens
    match (same machine, same boot).
    """
    boot = ""
    try:
        with open("/proc/sys/kernel/random/boot_id") as fh:
            boot = fh.read().strip()
    except OSError:
        pass
    return f"{os.uname().nodename}:{boot}"


def _untracked(shm):
    """Detach a segment from multiprocessing's resource tracker.

    Before Python 3.13 every ``SharedMemory`` object — even a pure
    attach — registers with the per-process resource tracker, which
    unlinks the segment when *any* attaching process exits.  Ownership
    here is explicit (store/one-shot protocols above), so the tracker
    must not interfere.
    """
    try:  # pragma: no cover - depends on interpreter version
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass
    return shm


def _unlink_segment(shm) -> None:
    """Unlink a segment without touching the resource tracker.

    Before 3.13, ``SharedMemory.unlink`` unconditionally *unregisters*
    the name — but :func:`_untracked` already did, so the tracker
    process would log a ``KeyError`` for every segment at exit.  Going
    through ``_posixshmem`` directly sidesteps the double unregister.
    """
    try:  # pragma: no cover - depends on interpreter internals
        import _posixshmem

        _posixshmem.shm_unlink(shm._name)
    except ImportError:  # pragma: no cover
        shm.unlink()
    except FileNotFoundError:
        pass


def _create_segment(name: str, size: int):
    try:
        shm = _shared_memory.SharedMemory(name=name, create=True, size=size, track=False)
    except TypeError:  # Python < 3.13: no track kwarg
        shm = _untracked(_shared_memory.SharedMemory(name=name, create=True, size=size))
    return shm


def _attach_segment(name: str):
    try:
        shm = _shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:
        shm = _untracked(_shared_memory.SharedMemory(name=name, create=False))
    return shm


def _write_segment(name: str, data: bytes):
    """A new segment ``name`` holding ``data``; the caller owns it.

    Names embed this process's pid, so a segment already under ``name``
    is stale, left by an earlier process with the same pid: replace it.
    """
    size = max(1, len(data))
    try:
        try:
            shm = _create_segment(name, size)
        except FileExistsError:
            try:
                stale = _attach_segment(name)
                _unlink_segment(stale)
                stale.close()
            except (OSError, ValueError):
                pass
            shm = _create_segment(name, size)
    except (OSError, ValueError) as exc:
        raise PayloadError(f"cannot create payload segment: {exc}") from exc
    shm.buf[: len(data)] = data
    return shm


def segment_name(digest: str, pid: Optional[int] = None) -> str:
    """Shared-memory name for ``digest`` owned by ``pid``.

    The pid makes ownership recoverable: :func:`reap_orphans` unlinks
    segments whose owner is gone.  Content addressing therefore holds
    *per owner* — the descriptor always carries the explicit name.
    """
    return f"{SHM_PREFIX}{pid if pid is not None else os.getpid()}-{digest[:24]}"


def owner_pid(name: str) -> Optional[int]:
    """Owning pid parsed back out of a segment name (None if foreign)."""
    if not name.startswith(SHM_PREFIX):
        return None
    rest = name[len(SHM_PREFIX):]
    pid_part, _, _ = rest.partition("-")
    try:
        return int(pid_part)
    except ValueError:
        return None


def make_descriptor(name: str, digest: str, size: int) -> Dict[str, Any]:
    return {"shm": name, "hash": digest, "size": size}


class MappedPayload:
    """A read-only view of a payload attached from shared memory.

    ``view`` is an exact-size memoryview into the mapping (segment sizes
    round up to page granularity, so the descriptor's ``size`` is
    authoritative).  ``close`` detaches; ``consume=True`` additionally
    unlinks — the one-shot consumer protocol.
    """

    def __init__(self, shm, size: int):
        self._shm = shm
        self.view = memoryview(shm.buf)[:size]

    def bytes(self) -> bytes:
        return bytes(self.view)

    def close(self, *, consume: bool = False) -> None:
        if self._shm is None:
            return
        self.view.release()
        if consume:
            _unlink_segment(self._shm)
        self._shm.close()
        self._shm = None

    def __enter__(self) -> "MappedPayload":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def attach(descriptor: Dict[str, Any]) -> MappedPayload:
    """Attach a descriptor's segment for reading (no copy)."""
    if _shared_memory is None:
        raise PayloadError("shared memory is unavailable in this process")
    try:
        shm = _attach_segment(str(descriptor["shm"]))
    except (OSError, ValueError) as exc:
        raise PayloadError(
            f"cannot attach payload segment {descriptor.get('shm')!r}: {exc}"
        ) from exc
    return MappedPayload(shm, int(descriptor["size"]))


def fetch(descriptor: Dict[str, Any], *, consume: bool = False) -> bytes:
    """Copy a descriptor's payload out of shared memory.

    ``consume=True`` unlinks the segment afterwards (one-shot consumer).
    Prefer :func:`attach` on hot paths — it hands back a zero-copy view.
    """
    mapped = attach(descriptor)
    try:
        return mapped.bytes()
    finally:
        mapped.close(consume=consume)


def publish_once(data: bytes) -> Dict[str, Any]:
    """Write ``data`` into a fresh one-shot segment; returns its descriptor.

    The creating process keeps no handle: the consumer unlinks via
    ``fetch(descriptor, consume=True)``.  If the consumer never reads it
    (a lost connection), :func:`reap_orphans` reclaims the segment once
    this process exits.  The name is unique per call (pid + sequence),
    not content-addressed: two identical results in flight must not
    share a segment, because the first consumer unlinks it out from
    under the second descriptor.  So nothing here hashes ``data``; the
    consumer's ``deserialize`` verifies it.
    """
    if _shared_memory is None or not enabled():
        raise PayloadError("payload plane is disabled")
    name = f"{SHM_PREFIX}{os.getpid()}-once.{next(_publish_seq)}"
    _write_segment(name, data).close()
    return {"shm": name, "size": len(data)}


@dataclass
class _StoreEntry:
    digest: str
    size: int
    shm: Any
    pins: int = 0
    transient: bool = False  # unlinked at its last unpin, never LRU-retained


class PayloadStore:
    """Content-addressed, refcount-pinned segment store.

    The single long-lived owner of argument payloads (the manager).
    ``put`` deduplicates by content digest; ``pin``/``unpin`` protect
    in-flight payloads.  A transient entry (``put(..., transient=True)``,
    one call's arguments) is unlinked when its last pin is released.
    Unpinned retained entries (declared arguments) are evicted
    least-recently-used when an insert would exceed the byte budget.
    ``close`` unlinks everything this store created.
    """

    def __init__(
        self,
        *,
        budget: Optional[int] = None,
        registry=None,
    ):
        if _shared_memory is None or not enabled():
            raise PayloadError("payload plane is disabled")
        self.budget = budget_bytes() if budget is None else budget
        self._entries: "OrderedDict[str, _StoreEntry]" = OrderedDict()
        self._used = 0
        self._pinned = 0
        if registry is not None:
            self._stored_gauge = registry.gauge("payload.shm_bytes")
            self._evictions = registry.counter("payload.shm_evictions")
        else:
            self._stored_gauge = None
            self._evictions = None

    # -- queries ---------------------------------------------------------
    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def used_bytes(self) -> int:
        return self._used

    def descriptor(self, digest: str) -> Dict[str, Any]:
        entry = self._entries[digest]
        self._entries.move_to_end(digest)
        return make_descriptor(entry.shm.name, digest, entry.size)

    def get(self, digest: str) -> bytes:
        """The stored payload bytes (a copy; tests and fallbacks only)."""
        entry = self._entries.get(digest)
        if entry is None:
            raise PayloadError(f"no payload {digest[:12]} in store")
        self._entries.move_to_end(digest)
        return bytes(memoryview(entry.shm.buf)[: entry.size])

    # -- mutation --------------------------------------------------------
    def _drop(self, digest: str) -> None:
        entry = self._entries.pop(digest)
        self._used -= entry.size
        _unlink_segment(entry.shm)
        entry.shm.close()
        if self._stored_gauge is not None:
            self._stored_gauge.set(self._used)

    def _evict_for(self, incoming: int) -> None:
        while (
            self._used + incoming > self.budget
            and self._pinned < len(self._entries)
        ):
            victim = next(
                (d for d, e in self._entries.items() if e.pins == 0), None
            )
            if victim is None:
                break
            self._drop(victim)
            if self._evictions is not None:
                self._evictions.inc()
        # When everything left is pinned the store runs over budget
        # rather than failing a dispatch: pins are short-lived.

    def put(
        self, data: bytes, digest: Optional[str] = None, *, transient: bool = False
    ) -> Dict[str, Any]:
        """Store ``data`` (content-addressed); returns its descriptor.

        ``digest`` is the content key when the caller already holds one
        (a ``serialize()`` frame's :func:`frame_digest`); without it the
        bytes are hashed here.  Storing bytes already present is free and
        returns the existing descriptor.  A ``transient`` entry is
        unlinked at its last :meth:`unpin`; putting the same bytes once
        without ``transient`` makes the entry retained for good.
        """
        if digest is None:
            digest = hash_bytes(data)
        entry = self._entries.get(digest)
        if entry is not None:
            entry.transient = entry.transient and transient
            self._entries.move_to_end(digest)
            return make_descriptor(entry.shm.name, digest, entry.size)
        self._evict_for(len(data))
        name = segment_name(digest)
        shm = _write_segment(name, data)
        self._entries[digest] = _StoreEntry(digest, len(data), shm, transient=transient)
        self._used += len(data)
        if self._stored_gauge is not None:
            self._stored_gauge.set(self._used)
        return make_descriptor(name, digest, len(data))

    def pin(self, digest: str) -> None:
        entry = self._entries.get(digest)
        if entry is None:
            raise PayloadError(f"cannot pin missing payload {digest[:12]}")
        if entry.pins == 0:
            self._pinned += 1
        entry.pins += 1

    def unpin(self, digest: str) -> None:
        entry = self._entries.get(digest)
        if entry is None:
            return  # already evicted after its last unpin; nothing to do
        if entry.pins <= 0:
            raise PayloadError(f"payload {digest[:12]} is not pinned")
        entry.pins -= 1
        if entry.pins == 0:
            self._pinned -= 1
            if entry.transient:
                self._drop(digest)

    def remove(self, digest: str) -> None:
        entry = self._entries.get(digest)
        if entry is None:
            return
        if entry.pins > 0:
            raise PayloadError(f"payload {digest[:12]} is pinned; cannot remove")
        self._drop(digest)

    def close(self) -> None:
        for entry in self._entries.values():
            _unlink_segment(entry.shm)
            entry.shm.close()
        self._entries.clear()
        self._used = 0
        self._pinned = 0
        if self._stored_gauge is not None:
            self._stored_gauge.set(0)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "bytes": self._used,
            "pinned": self._pinned,
            "budget": self.budget,
        }

    def __enter__(self) -> "PayloadStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def open_store(registry=None, budget: Optional[int] = None) -> Optional[PayloadStore]:
    """A :class:`PayloadStore` when the plane is usable, else ``None``.

    The ``None`` return is the graceful-fallback signal: callers that
    get it simply keep shipping inline bytes.
    """
    if not enabled():
        return None
    try:
        return PayloadStore(registry=registry, budget=budget)
    except PayloadError:
        return None


# --------------------------------------------------------------- orphan reaping
def _shm_dir() -> Optional[str]:
    return "/dev/shm" if os.path.isdir("/dev/shm") else None


def list_segments() -> list[str]:
    """Names of every live repro payload segment on this machine."""
    root = _shm_dir()
    if root is None:
        return []
    try:
        return sorted(n for n in os.listdir(root) if n.startswith(SHM_PREFIX))
    except OSError:
        return []


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def reap_orphans() -> int:
    """Unlink payload segments whose owning process is dead.

    A SIGKILLed worker or library cannot run its cleanup; its segments
    are identifiable by the pid embedded in their names.  Returns how
    many segments were reclaimed.  Safe to call from any process.
    """
    root = _shm_dir()
    if root is None:
        return 0
    reaped = 0
    for name in list_segments():
        pid = owner_pid(name)
        if pid is None or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(root, name))
            reaped += 1
        except OSError:
            pass
    return reaped


# ----------------------------------------------------- declared-argument plane
class PayloadArg:
    """A reusable argument declared once and referenced by many calls.

    Created by ``Manager.declare_argument``: the value is serialized
    once into the manager's :class:`PayloadStore` and every invocation
    naming it ships this ~100-byte placeholder instead of the bytes.
    Receivers resolve placeholders via :func:`resolve_args`, caching the
    *deserialized* value per digest — so a warm library pays neither the
    copy nor the unpickle for a repeated argument.
    """

    __slots__ = ("digest", "size", "shm")

    def __init__(self, digest: str, size: int, shm: Optional[str]):
        self.digest = digest
        self.size = size
        self.shm = shm

    def __getstate__(self) -> Tuple[str, int, Optional[str]]:
        return (self.digest, self.size, self.shm)

    def __setstate__(self, state: Tuple[str, int, Optional[str]]) -> None:
        self.digest, self.size, self.shm = state

    def descriptor(self) -> Dict[str, Any]:
        if self.shm is None:
            raise PayloadError(f"argument {self.digest[:12]} has no segment")
        return make_descriptor(self.shm, self.digest, self.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PayloadArg({self.digest[:12]}, {self.size}B)"


class ResolvedArgCache:
    """Per-process LRU of deserialized :class:`PayloadArg` values."""

    def __init__(self, limit: int = 32):
        self.limit = max(1, limit)
        self._values: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def resolve(self, arg: PayloadArg, loader: Callable[[bytes], Any]) -> Any:
        cached = self._values.get(arg.digest)
        if arg.digest in self._values:
            self._values.move_to_end(arg.digest)
            self.hits += 1
            return cached
        self.misses += 1
        mapped = attach(arg.descriptor())
        try:
            value = loader(mapped.view)
        finally:
            mapped.close()
        self._values[arg.digest] = value
        while len(self._values) > self.limit:
            self._values.popitem(last=False)
        return value


def substitute_args(
    args,
    kwargs,
    lookup: Callable[[str], Any],
    when: Optional[Callable[["PayloadArg"], bool]] = None,
):
    """Replace top-level :class:`PayloadArg` placeholders with real values.

    The manager uses this on links without shared memory: the argument
    is embedded inline (the pre-payload-plane wire shape), trading the
    zero-copy win for portability.  ``when`` narrows the substitution —
    on shm-capable links the manager passes ``lambda a: a.shm is None``
    so only *unbacked* placeholders (below-threshold declared arguments
    that were never given a segment) are inlined while backed ones still
    ride the store.  Only top-level positional/keyword arguments are
    scanned — a PayloadArg nested inside a container needs a shm-capable
    link.
    """
    def hits(value) -> bool:
        return isinstance(value, PayloadArg) and (when is None or when(value))

    if not any(hits(a) for a in args) and not any(
        hits(v) for v in kwargs.values()
    ):
        return args, kwargs
    new_args = tuple(lookup(a.digest) if hits(a) else a for a in args)
    new_kwargs = {
        k: lookup(v.digest) if hits(v) else v for k, v in kwargs.items()
    }
    return new_args, new_kwargs


def resolve_args(args, kwargs, cache: ResolvedArgCache, loader):
    """Resolve placeholders receiver-side (library / task runner)."""
    if not any(isinstance(a, PayloadArg) for a in args) and not any(
        isinstance(v, PayloadArg) for v in kwargs.values()
    ):
        return args, kwargs
    new_args = tuple(
        cache.resolve(a, loader) if isinstance(a, PayloadArg) else a
        for a in args
    )
    new_kwargs = {
        k: cache.resolve(v, loader) if isinstance(v, PayloadArg) else v
        for k, v in kwargs.items()
    }
    return new_args, new_kwargs
