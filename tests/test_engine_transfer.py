"""Peer file transfers on the event loop, over loopback — no subprocesses.

One server and one client share a loop here, as a worker's do when it
serves peers while fetching from one: every answer must come from the
loop, a dead or silent source must end the fetch with an error exactly
once, and nothing may hold up the loop's other work meanwhile.
"""

import os
import socket
import time

import pytest

from repro.engine.loop import EventLoop
from repro.engine.transfer import fetch_file, serve_files
from repro.errors import ProtocolError


@pytest.fixture
def loop():
    loop = EventLoop()
    yield loop
    loop.close()


def _fetch(loop, address, name, timeout=5.0):
    """Run ``loop`` until the fetch reports; returns (outcome, seconds)."""
    outcomes = []
    started = time.monotonic()
    fetch_file(
        loop, address, name, timeout,
        lambda outcome: outcomes.append((outcome, time.monotonic() - started)),
    )
    while not outcomes and time.monotonic() - started < timeout + 5.0:
        loop.run_once(0.05)
    for _ in range(5):  # nothing more may arrive
        loop.run_once(0.01)
    assert len(outcomes) == 1
    return outcomes[0]


def test_a_mebibyte_round_trips(loop, tmp_path):
    data = os.urandom(1 << 20)
    (tmp_path / "abc123").write_bytes(data)
    server = serve_files(loop, str(tmp_path))
    try:
        outcome, _ = _fetch(loop, server.getsockname(), "abc123")
    finally:
        server.close()
    assert outcome == data


def test_an_unknown_name_is_answered_not_ok(loop, tmp_path):
    server = serve_files(loop, str(tmp_path))
    try:
        outcome, _ = _fetch(loop, server.getsockname(), "feedface")
        escape, _ = _fetch(loop, server.getsockname(), "../" + tmp_path.name)
    finally:
        server.close()
    assert isinstance(outcome, ProtocolError)
    assert "no such file" in str(outcome).lower()
    assert isinstance(escape, ProtocolError)


def test_a_refused_connect_fails_fast(loop):
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()  # nobody listens there now
    outcome, seconds = _fetch(loop, address, "abc123", timeout=30.0)
    assert isinstance(outcome, ProtocolError)
    assert seconds < 1.0


def test_a_silent_source_fails_at_the_deadline_and_blocks_nothing(loop):
    # The kernel accepts into the backlog; nobody ever reads or answers,
    # as with a SIGSTOPped peer.
    mute = socket.socket()
    mute.bind(("127.0.0.1", 0))
    mute.listen(1)
    ticks = []
    timer = loop.call_every(0.05, lambda: ticks.append(time.monotonic()))
    try:
        outcome, seconds = _fetch(loop, mute.getsockname(), "abc123", timeout=0.6)
    finally:
        timer.cancel()
        mute.close()
    assert isinstance(outcome, ProtocolError)
    assert 0.6 <= seconds < 2.0
    assert len(ticks) >= 8
    assert max(b - a for a, b in zip(ticks, ticks[1:])) < 0.3
