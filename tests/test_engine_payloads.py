"""Shared-memory payload plane: store, descriptors, fallback, cleanup.

Covers the zero-copy data plane of DESIGN.md §2e: content-addressed
round-trips through :class:`~repro.engine.payloads.PayloadStore`,
pin/unpin refcounting holding segments alive under concurrent readers
and eviction pressure, inline fallback when payloads sit below the
shipping threshold (or shm is disabled outright), orphaned-segment
reaping after a SIGKILLed owner, and a store-then-load identity
property probed around the threshold boundary.
"""

import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    FaultInjector,
    FunctionCall,
    LocalWorkerFactory,
    Manager,
    PythonTask,
)
from repro.engine import payloads
from repro.engine.payloads import PayloadError, PayloadStore


def _blob_len(blob):
    return len(blob)


def _blob_echo(blob):
    return bytes(blob)


def _segments() -> set:
    return set(payloads.list_segments())


# ------------------------------------------------------------- round trip
def test_store_round_trip_and_dedup():
    with PayloadStore(budget=8 * 1024 * 1024) as store:
        data = os.urandom(100_000)
        descriptor = store.put(data)
        assert payloads.is_descriptor(descriptor)
        assert descriptor["size"] == len(data)
        # The shm segment rounds up to page size; the descriptor's size
        # is authoritative, both for attach() and fetch().
        assert payloads.fetch(descriptor) == data
        with payloads.attach(descriptor) as mapped:
            assert bytes(mapped.view) == data
        # Content addressing: storing the same bytes is free.
        again = store.put(bytes(data))
        assert again == descriptor
        assert len(store) == 1
        assert store.get(descriptor["hash"]) == data


def test_store_close_unlinks_segments():
    store = PayloadStore(budget=1024 * 1024)
    descriptor = store.put(b"x" * 4096)
    name = descriptor["shm"]
    assert name in _segments()
    store.close()
    assert name not in _segments()


def test_publish_once_consumed_by_fetch():
    descriptor = payloads.publish_once(b"y" * 50_000)
    assert descriptor["shm"] in _segments()
    assert payloads.fetch(descriptor, consume=True) == b"y" * 50_000
    assert descriptor["shm"] not in _segments()
    with pytest.raises(PayloadError):
        payloads.attach(descriptor)


# --------------------------------------------------------------- pinning
def test_pin_survives_eviction_pressure_under_concurrent_attach():
    """Pinned entries outlive budget pressure while readers are attached."""
    chunk = 256 * 1024
    with PayloadStore(budget=3 * chunk) as store:
        hot = os.urandom(chunk)
        descriptor = store.put(hot)
        digest = descriptor["hash"]
        store.pin(digest)

        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    if payloads.fetch(descriptor) != hot:
                        errors.append("content mismatch")
                        return
                except PayloadError as exc:
                    errors.append(f"attach failed: {exc}")
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            # Evict everything evictable several times over; the pinned
            # segment must never be a victim.
            for i in range(12):
                store.put(os.urandom(chunk))
            time.sleep(0.05)
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert errors == []
        assert digest in store

        # Unpinned, the same pressure reclaims it.
        store.unpin(digest)
        for i in range(4):
            store.put(os.urandom(chunk))
        assert digest not in store
        with pytest.raises(PayloadError):
            payloads.attach(descriptor)


def test_unpin_unknown_digest_is_noop():
    with PayloadStore(budget=1024 * 1024) as store:
        store.unpin("0" * 64)  # must not raise


# ----------------------------------------------------- threshold fallback
def test_small_payloads_ship_inline(monkeypatch):
    """Below-threshold arguments and results never touch the store."""
    monkeypatch.setenv("REPRO_SHM_THRESHOLD", str(1 << 30))
    blob = os.urandom(200_000)  # big, but below the inflated threshold
    with Manager() as manager:
        library = manager.create_library_from_functions(
            "payload-inline", _blob_echo, function_slots=2
        )
        manager.install_library(library)
        with LocalWorkerFactory(manager, count=1, cores=2):
            call = FunctionCall("payload-inline", "_blob_echo", blob)
            manager.submit(call)
            manager.wait_all([call], timeout=120.0)
            assert call.result == blob
        if manager.payloads is not None:
            assert len(manager.payloads) == 0
        assert manager.metrics.counter("payload.bytes_copied").value > len(blob)
    assert not _segments()


def test_shm_disabled_falls_back_to_inline(monkeypatch):
    monkeypatch.setenv("REPRO_SHM", "0")
    blob = os.urandom(150_000)
    with Manager() as manager:
        assert manager.payloads is None
        arg = manager.declare_argument(blob)
        assert arg.shm is None
        library = manager.create_library_from_functions(
            "payload-noshm", _blob_len, function_slots=2
        )
        manager.install_library(library)
        with LocalWorkerFactory(manager, count=1, cores=2):
            call = FunctionCall("payload-noshm", "_blob_len", arg)
            manager.submit(call)
            manager.wait_all([call], timeout=120.0)
            assert call.result == len(blob)
        manager.release_argument(arg)
    assert not _segments()


def test_declared_argument_round_trip_via_shm():
    """Above-threshold declared args ride as descriptors end to end."""
    blob = os.urandom(300_000)
    with Manager() as manager:
        if manager.payloads is None:
            pytest.skip("shared memory unavailable on this host")
        arg = manager.declare_argument(blob)
        assert arg.shm is not None
        library = manager.create_library_from_functions(
            "payload-shm", _blob_len, _blob_echo, function_slots=2
        )
        manager.install_library(library)
        with LocalWorkerFactory(manager, count=2, cores=2):
            calls = [
                FunctionCall("payload-shm", "_blob_len", arg) for _ in range(8)
            ]
            # A large *result* comes back through a one-shot segment.
            echo = FunctionCall("payload-shm", "_blob_echo", arg)
            for call in [*calls, echo]:
                manager.submit(call)
            manager.wait_all([*calls, echo], timeout=180.0)
            assert all(c.result == len(blob) for c in calls)
            assert echo.result == blob
            assert manager.metrics.counter("payload.bytes_mapped").value > 0
        manager.release_argument(arg)
    assert not _segments()


def test_copied_bytes_flat_while_mapped_bytes_scale():
    """A warm declared argument costs a descriptor, whatever its size.

    The zero-copy claim on exact counters: 64x more payload moves 64x
    more *mapped* bytes per invocation and the same *copied* bytes.
    """
    n = 12
    small, large = 64 * 1024, 4 * 1024 * 1024
    copied_per_inv, mapped_per_inv = {}, {}
    with Manager() as manager:
        if manager.payloads is None:
            pytest.skip("shared memory unavailable on this host")
        copied = manager.metrics.counter("payload.bytes_copied")
        mapped = manager.metrics.counter("payload.bytes_mapped")
        library = manager.create_library_from_functions(
            "payload-flat", _blob_len, function_slots=2
        )
        manager.install_library(library)
        with LocalWorkerFactory(manager, count=1, cores=2):
            for size in (small, large):
                arg = manager.declare_argument(os.urandom(size))
                assert arg.shm is not None
                # First touch deploys the library and maps the segment;
                # everything after it is the warm path under test.
                prime = FunctionCall("payload-flat", "_blob_len", arg)
                manager.submit(prime)
                manager.wait_all([prime], timeout=120.0)
                base_copied, base_mapped = copied.value, mapped.value
                calls = [
                    FunctionCall("payload-flat", "_blob_len", arg)
                    for _ in range(n)
                ]
                for call in calls:
                    manager.submit(call)
                manager.wait_all(calls, timeout=120.0)
                assert all(c.result == size for c in calls)
                copied_per_inv[size] = (copied.value - base_copied) / n
                mapped_per_inv[size] = (mapped.value - base_mapped) / n
                manager.release_argument(arg)
    assert 0 < max(copied_per_inv.values()) < 32 * 1024
    assert max(copied_per_inv.values()) <= 1.10 * min(copied_per_inv.values())
    assert small <= mapped_per_inv[small] < 2 * small
    assert mapped_per_inv[large] >= large
    assert not _segments()


# ------------------------------------------------------- orphan cleanup
def test_orphaned_segments_reaped_after_worker_kill():
    """Segments owned by a SIGKILLed process are reclaimed by name."""
    with Manager() as manager:
        if manager.payloads is None:
            pytest.skip("shared memory unavailable on this host")
        factory = LocalWorkerFactory(manager, count=1, cores=2)
        factory.start()
        injector = FaultInjector(manager=manager, factory=factory)
        task = PythonTask(_blob_len, b"z")
        manager.submit(task)
        manager.wait_all([task], timeout=120.0)

        victim_pid = factory.procs[0].pid
        # Plant a segment owned by the worker, as if it died mid-publish.
        name = payloads.segment_name("f" * 64, pid=victim_pid)
        shm = payloads._create_segment(name, 4096)
        shm.close()
        assert name in _segments()

        injector.kill_worker(0)
        # wait() reaps the zombie; only then does the pid-liveness probe
        # in reap_orphans see the owner as gone.
        factory.procs[0].wait(timeout=30)
        assert not payloads._pid_alive(victim_pid)

        assert payloads.reap_orphans() >= 1
        assert name not in _segments()
        factory.stop()
    assert not _segments()


def test_reap_orphans_spares_live_owners():
    with Manager() as manager:
        if manager.payloads is None:
            pytest.skip("shared memory unavailable on this host")
        descriptor = manager.payloads.put(b"alive" * 1000)
        payloads.reap_orphans()
        # Our own pid is alive, so the store's segment must survive.
        assert descriptor["shm"] in _segments()
    assert not _segments()


# ------------------------------------------------- property: round trip
@settings(max_examples=25, deadline=None)
@given(
    delta=st.integers(min_value=-64, max_value=64),
    seed=st.integers(min_value=0, max_value=255),
)
def test_store_then_load_identity_around_threshold(delta, seed):
    """put→get and put→fetch are identities at sizes straddling the
    inline/shm threshold (including the page-rounding edge)."""
    size = max(1, payloads.threshold_bytes() + delta)
    data = bytes((seed + i) % 256 for i in range(size))
    with PayloadStore(budget=16 * 1024 * 1024) as store:
        descriptor = store.put(data)
        assert store.get(descriptor["hash"]) == data
        assert payloads.fetch(descriptor) == data

# ------------------------------------------------- pin-refcount symmetry
def _total_pins(manager) -> int:
    return sum(e.pins for e in manager.payloads._entries.values())


def test_declare_release_pin_balance_above_threshold():
    """A segment-backed declare takes exactly one pin; release returns it.

    Regression guard for the declare/release asymmetry: pins must come
    back to zero (not go negative, not linger) after every declare is
    released, including double-release.
    """
    blob = os.urandom(payloads.threshold_bytes() + 4096)
    with Manager() as manager:
        if manager.payloads is None:
            pytest.skip("shared memory unavailable on this host")
        arg = manager.declare_argument(blob)
        assert arg.shm is not None
        assert _total_pins(manager) == 1
        manager.release_argument(arg)
        assert _total_pins(manager) == 0
        # Releasing an already-released handle is a no-op, never a
        # negative refcount.
        manager.release_argument(arg)
        assert _total_pins(manager) == 0
    assert not _segments()


def test_declare_release_pin_balance_below_threshold():
    """Below-threshold declares are unbacked: no segment, no pin.

    Regression guard for the pin-refcount leak — a tiny declared
    argument used to pin a store entry it never shipped by descriptor,
    squatting in the LRU forever.  Now the handle must carry
    ``shm=None``, leave the store untouched, and release must stay
    symmetric (only segment-backed handles ever unpin).
    """
    blob = os.urandom(max(64, payloads.threshold_bytes() // 4))
    with Manager() as manager:
        if manager.payloads is None:
            pytest.skip("shared memory unavailable on this host")
        entries_before = len(manager.payloads)
        arg = manager.declare_argument(blob)
        assert arg.shm is None
        assert len(manager.payloads) == entries_before
        assert _total_pins(manager) == 0
        # The unbacked handle still resolves at dispatch time.
        library = manager.create_library_from_functions(
            "pin-below", _blob_len, function_slots=2
        )
        manager.install_library(library)
        with LocalWorkerFactory(manager, count=1, cores=2):
            call = FunctionCall("pin-below", "_blob_len", arg)
            manager.submit(call)
            manager.wait_all([call], timeout=120.0)
            assert call.result == len(blob)
        manager.release_argument(arg)
        assert _total_pins(manager) == 0
    assert not _segments()


def _hold_blob(blob, seconds):
    time.sleep(seconds)
    return len(blob)


def test_cancel_queued_calls_mid_run_pins_return_to_zero():
    """Cancelling SUBMITTED work mid-run leaves no pins behind.

    Regression guard for the cancel bookkeeping fix: a cancelled queued
    task must be withdrawn from its queue eagerly (not tombstoned until
    the dispatch loop happens by) and go through the same finish
    bookkeeping as a completed one, so payload pins and slot accounting
    drain to zero even when half the run is cancelled.
    """
    blob = os.urandom(300_000)  # above threshold: dispatches take pins
    with Manager() as manager:
        if manager.payloads is None:
            pytest.skip("shared memory unavailable on this host")
        arg = manager.declare_argument(blob)
        library = manager.create_library_from_functions(
            "pin-cancel", _hold_blob, function_slots=1
        )
        manager.install_library(library)
        with LocalWorkerFactory(manager, count=1, cores=2):
            calls = [
                FunctionCall("pin-cancel", "_hold_blob", arg, 0.3)
                for _ in range(6)
            ]
            for call in calls:
                manager.submit(call)
            # Drive until some calls are on workers, then cancel
            # everything still queued.
            deadline = time.monotonic() + 60.0
            while (
                not any(c.state.name == "DISPATCHED" for c in calls)
                and time.monotonic() < deadline
            ):
                manager.wait(timeout=0.05)
            queued = [c for c in calls if c.state.name == "SUBMITTED"]
            assert queued, "every call dispatched before cancel could run"
            for call in queued:
                assert manager.cancel(call)
                assert call.exception is not None  # failed eagerly
            # Eager withdrawal: the queues are empty the moment cancel
            # returns, not after a dispatch pass skips tombstones.
            assert manager.state.queued_count() == 0
            survivors = [c for c in calls if c not in queued]
            manager.wait_all(calls, timeout=120.0)
            assert all(c.result == len(blob) for c in survivors)
        manager.release_argument(arg)
        # Every pin drained: the declared argument's and every
        # per-dispatch task-blob pin taken for the survivors.
        assert _total_pins(manager) == 0
    assert not _segments()
