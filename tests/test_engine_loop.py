"""The engine's one event loop, over socketpairs — no subprocesses.

Manager, router, worker and shard all drive ``repro.engine.loop``; what
they rely on is pinned here once: every buffered frame is delivered
without another wakeup, no chunking of the byte stream changes what is
delivered, neither a slow reader nor a peer stalled mid-frame blocks the
loop, a lost peer is reported exactly once, and timers run after the
iteration's I/O.
"""

import gc
import json
import selectors
import socket
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.loop import EventLoop
from repro.engine.messages import MAX_MESSAGE, Connection


class _Pair:
    """One end of a socketpair in the loop; the other end stays raw."""

    def __init__(self, loop, on_frame=None):
        self.loop = loop
        ours, self.raw = socket.socketpair()
        self.conn = Connection(ours, "peer")
        self.frames = []
        self.lost = []
        loop.add_connection(self.conn, on_frame or self.on_frame, self.lost.append)

    def on_frame(self, message, payload):
        self.frames.append((message, payload))

    def close(self):
        self.loop.remove(self.conn)
        self.conn.close()
        self.raw.close()


@pytest.fixture
def loop():
    loop = EventLoop()
    yield loop
    loop.close()


@pytest.fixture
def peer(loop):
    peer = _Pair(loop)
    yield peer
    peer.close()


def _frame(message, payload=b""):
    if payload:
        message = dict(message, payload_size=len(payload))
    blob = json.dumps(message).encode()
    return len(blob).to_bytes(4, "big") + blob + payload


def _registered(loop, conn):
    try:
        return loop._selector.get_key(conn).events
    except KeyError:
        return None


# --------------------------------------------------------------------- reads
def test_burst_from_one_sendmsg_is_delivered_in_one_iteration(loop, peer):
    frames = [_frame({"type": "n", "i": i}) for i in range(200)]
    assert peer.raw.sendmsg(frames) == sum(map(len, frames))
    loop.run_once(1.0)
    assert [m["i"] for m, _ in peer.frames] == list(range(200))


_FRAMES = st.lists(
    st.tuples(
        st.dictionaries(st.text("abc", max_size=6), st.integers(), max_size=3),
        st.binary(max_size=300),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(frames=_FRAMES, cuts=st.lists(st.integers(min_value=0), max_size=12))
def test_any_chunking_yields_the_same_frames(frames, cuts):
    expected = [
        (dict(fields, type="t", **({"payload_size": len(p)} if p else {})), p)
        for fields, p in frames
    ]
    stream = b"".join(_frame(dict(f, type="t"), p) for f, p in frames)
    # The first cut always lands inside the first 4-byte header.
    edges = sorted({1, *(c % (len(stream) + 1) for c in cuts), len(stream)})
    loop = EventLoop()
    peer = _Pair(loop)
    try:
        start = 0
        for edge in edges:
            peer.raw.sendall(stream[start:edge])
            start = edge
            loop.run_once(0)
        assert peer.frames == expected
        assert peer.lost == []
    finally:
        peer.close()
        loop.close()


def test_oversized_announced_frame_loses_the_peer_without_buffering(loop, peer):
    peer.raw.sendall((MAX_MESSAGE + 1).to_bytes(4, "big") + b"x" * 100)
    loop.run_once(1.0)
    assert len(peer.lost) == 1 and "oversized" in peer.lost[0]
    assert peer.frames == []
    assert _registered(loop, peer.conn) is None


def test_peer_close_reports_loss_once_and_unregisters(loop, peer):
    peer.raw.sendall(_frame({"type": "last"}) + b"\x00\x00")  # + a partial header
    peer.raw.close()
    for _ in range(3):
        loop.run_once(0.05)
    assert [m["type"] for m, _ in peer.frames] == ["last"]
    assert len(peer.lost) == 1
    assert _registered(loop, peer.conn) is None


def test_handler_removing_its_connection_stops_the_drain(loop):
    def on_frame(message, payload):
        peer.frames.append((message, payload))
        if message["i"] == 2:
            loop.remove(peer.conn)

    peer = _Pair(loop, on_frame)
    try:
        peer.raw.sendall(b"".join(_frame({"type": "n", "i": i}) for i in range(10)))
        loop.run_once(1.0)
        loop.run_once(0.05)
        assert [m["i"] for m, _ in peer.frames] == [0, 1, 2]
        assert peer.lost == []
        # Out of the loop the connection is blocking again and the rest
        # of the burst is still in its buffer, not lost.
        assert peer.conn.receive(timeout=1.0)[0]["i"] == 3
    finally:
        peer.close()


def test_frames_read_ahead_by_a_handshake_are_delivered_on_joining(loop):
    ours, raw = socket.socketpair()
    conn = Connection(ours, "late")
    try:
        raw.sendall(_frame({"type": "welcome"}) + _frame({"type": "behind"}))
        assert conn.receive(timeout=1.0)[0]["type"] == "welcome"
        seen = []
        loop.add_connection(conn, lambda m, p: seen.append(m["type"]), seen.append)
        assert seen == ["behind"]
    finally:
        loop.remove(conn)
        conn.close()
        raw.close()


# --------------------------------------------------------------------- sends
def test_slow_reader_never_blocks_the_loop_and_order_survives(loop, peer):
    blob = bytes(256 * 1024)
    count = 24  # 6 MiB: far more than a socketpair buffers
    started = time.monotonic()
    for i in range(count):
        loop.send(peer.conn, {"type": "big", "i": i}, blob)
        loop.run_once(0)
    assert time.monotonic() - started < 5.0
    assert peer.conn.pending_out > 0
    assert _registered(loop, peer.conn) & selectors.EVENT_WRITE

    reader = Connection(peer.raw, "reader")
    received = []
    peer.raw.settimeout(0)
    deadline = time.monotonic() + 30.0
    while len(received) < count and time.monotonic() < deadline:
        loop.run_once(0.01)
        while reader.fill():
            pass
        while (frame := reader.next_frame()) is not None:
            received.append(frame)
    assert [m["i"] for m, _ in received] == list(range(count))
    assert all(p == blob for _, p in received)
    loop.run_once(0)
    assert peer.conn.pending_out == 0
    assert _registered(loop, peer.conn) == selectors.EVENT_READ
    assert peer.lost == []


def test_send_to_a_dead_peer_reports_loss_instead_of_raising(loop, peer):
    peer.raw.close()
    loop.send(peer.conn, {"type": "x"})
    loop.run_once(0.05)
    assert len(peer.lost) == 1
    assert _registered(loop, peer.conn) is None


# -------------------------------------------------------------------- timers
def test_timers_run_after_the_iterations_io(loop):
    order = []
    peer = _Pair(loop, lambda message, payload: order.append("frame"))
    try:
        loop.call_at(time.monotonic(), lambda: order.append("timer"))
        peer.raw.sendall(_frame({"type": "heartbeat"}))
        loop.run_once(1.0)
        assert order == ["frame", "timer"]
    finally:
        peer.close()


def test_run_once_returns_at_the_earliest_deadline(loop):
    fired = []
    loop.call_at(time.monotonic() + 0.30, lambda: fired.append("late"))
    loop.call_at(time.monotonic() + 0.05, lambda: fired.append("early"))
    started = time.monotonic()
    loop.run_once(5.0)
    assert fired == ["early"]
    assert 0.04 <= time.monotonic() - started < 0.25


def test_call_every_repeats_until_cancelled(loop):
    ticks = []
    timer = loop.call_every(0.01, lambda: ticks.append(time.monotonic()))
    loop.run_once(0)  # first run is on the next iteration, not a period away
    assert len(ticks) == 1
    deadline = time.monotonic() + 5.0
    while len(ticks) < 4 and time.monotonic() < deadline:
        loop.run_once(1.0)
    assert len(ticks) == 4
    assert all(b - a >= 0.01 for a, b in zip(ticks, ticks[1:]))
    timer.cancel()
    loop.run_once(0.05)
    assert len(ticks) == 4


# ------------------------------------------------------------------ lifetime
def test_close_releases_the_owner_without_a_garbage_collection():
    """Handlers and timers are bound methods of the loop's owner; a closed
    loop must drop them, or every closed Manager (and the libraries and
    data bindings it holds) lingers until the collector next runs —
    context_churn's peak RSS read +24 % that way."""

    class Owner:
        def __init__(self):
            self.loop = EventLoop()
            self.pair = _Pair(self.loop, self.on_frame)
            self.loop.call_every(60.0, self.tick)
            self.loop.run_once(0)

        def on_frame(self, message, payload):
            pass

        def tick(self):
            pass

    gc.collect()
    gc.disable()
    try:
        owner = Owner()
        gone = weakref.ref(owner)
        owner.pair.close()
        owner.loop.close()
        del owner
        assert gone() is None
    finally:
        gc.enable()
