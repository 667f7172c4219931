"""The engine's one event loop: manager, router, worker, shard, the
library template and every library instance drive it.

It owns the process's only selector and four rules (DESIGN.md §2f):
reads never block (one ``recv`` per readable event, complete frames
delivered, a partial tail waits), sends never block (frames queue and
drain as the kernel takes them), timers run after an iteration's I/O,
and a wait ends on time: a ``timerfd`` in the selector ends it within a
``TICK_S`` of its deadline, where epoll alone would round it up to a
whole millisecond.  ``wake()`` ends it from another thread.
Accept-side handshakes wait for a newcomer's first frame in the loop too
(``await_hello``).  Blocking ``Connection.send``/``receive`` remain for
the dialling side of a handshake and for a last frame after a connection
leaves the loop.
"""

from __future__ import annotations

import ctypes
import heapq
import itertools
import math
import os
import selectors
import socket
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.messages import Connection, Payload
from repro.errors import ProtocolError

# The shortest wait, and the most a wait may overrun its deadline.  Each
# wake-up costs the process ≈20 µs of CPU on a 2-vCPU VM, so a caller
# that polls in finer steps (the ladder's open-loop pump waits 0.1 ms at
# a time in the last millisecond before a due send) is woken at most once
# a tick.  Chosen on open_poisson, against p50 ≈1.0-1.1 ms with epoll
# alone: exact deadlines read ≈0.5 ms at +20-31 % CPU per call, a 0.25 ms
# tick 0.58-0.67 ms at +9-16 %; a third of a millisecond read ≈0.05 ms
# more than 0.25 ms in the same runs, at a CPU cost they could not tell
# apart.  It must stay well under 0.5 ms: a wait that epoll overruns by
# no more than a tick is left to epoll, so a tick-long wait would then
# last 1 ms.
TICK_S = 0.00025

# timerfd(2) arrives in the os module only with Python 3.13.
_CLOCK_MONOTONIC = 1  # the clock time.monotonic() reads on Linux
_TFD_TIMER_ABSTIME = 1


class _Timespec(ctypes.Structure):
    _fields_ = [("tv_sec", ctypes.c_long), ("tv_nsec", ctypes.c_long)]


class _Itimerspec(ctypes.Structure):
    _fields_ = [("it_interval", _Timespec), ("it_value", _Timespec)]


# Both return an int and take ints and pointers, ctypes' defaults: left
# undeclared, a call skips the argument conversion (≈0.5 µs of a wake-up).
_libc = ctypes.CDLL(None, use_errno=True)
_timerfd_create = _libc.timerfd_create
_timerfd_settime = _libc.timerfd_settime


class Timer:
    """Handle of a scheduled callback; ``cancel`` stops future runs."""

    __slots__ = ("fn", "interval")

    def __init__(self, fn: Callable[[], None], interval: Optional[float]):
        self.fn: Optional[Callable[[], None]] = fn
        self.interval = interval

    def cancel(self) -> None:
        self.fn = None


class _Peer:
    __slots__ = ("conn", "on_frame", "on_lost", "writing")

    def __init__(self, conn: Connection, on_frame, on_lost):
        self.conn = conn
        self.on_frame = on_frame
        self.on_lost = on_lost
        self.writing = False  # selector currently watches for writability


class EventLoop:
    """Listeners, framed connections and deadlines behind one selector.

    Handlers may call back into the loop, even a nested ``run_once`` (the
    router awaits acknowledgements inside its shard-loss handler); what
    they raise propagates out of ``run_once``.  Only I/O failures of a
    registered connection are handled here: it is removed and its
    ``on_lost(reason)`` called, once.
    """

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._peers: Dict[Connection, _Peer] = {}
        self._timers: List[Tuple[float, int, Timer]] = []
        self._seq = itertools.count()  # ties run in scheduling order
        self._timerfd = _timerfd_create(_CLOCK_MONOTONIC, os.O_NONBLOCK | os.O_CLOEXEC)
        if self._timerfd < 0:
            errno = ctypes.get_errno()
            raise OSError(errno, f"timerfd_create: {os.strerror(errno)}")
        self._expiry = _Itimerspec()  # it_interval stays zero: one-shot
        self._expiry_ref = ctypes.byref(self._expiry)
        # The absolute expiry the timerfd holds: 0 = none, -1 = expired.
        self._armed_ns = 0
        self._wakefd = os.eventfd(0, os.EFD_NONBLOCK | os.EFD_CLOEXEC)
        self._wakes = 0  # counted, not flagged: a nested run_once sees them too
        self._selector.register(self._timerfd, selectors.EVENT_READ, self._expired)
        self._selector.register(self._wakefd, selectors.EVENT_READ, self._on_wake)

    # -- registration ----------------------------------------------------
    def add_listener(
        self, sock: socket.socket, on_accept: Callable[[socket.socket], None]
    ) -> None:
        """Call ``on_accept(client_socket)`` for every incoming connection."""
        sock.setblocking(False)
        self.add_reader(sock, partial(self._accept, sock, on_accept))

    def add_reader(self, fileobj, on_readable: Callable[[], None]) -> None:
        """Call ``on_readable()`` whenever ``fileobj`` — anything with a
        descriptor that is not a framed connection, such as a pidfd —
        is ready for reading."""
        self._selector.register(fileobj, selectors.EVENT_READ, on_readable)

    def add_connection(
        self,
        conn: Connection,
        on_frame: Callable[[Dict[str, Any], bytes], None],
        on_lost: Callable[[str], None],
    ) -> None:
        """Deliver ``conn``'s frames to ``on_frame(message, payload)``.

        The connection turns non-blocking in both directions.  Frames a
        blocking handshake already read ahead are delivered before this
        returns — they would never raise a readable event.
        """
        conn.sock.setblocking(False)
        peer = self._peers[conn] = _Peer(conn, on_frame, on_lost)
        self._selector.register(conn, selectors.EVENT_READ, peer)
        self._deliver(peer)

    def await_hello(
        self,
        sock: socket.socket,
        on_hello: Callable[[Connection, Dict[str, Any], bytes], None],
        timeout: float = 10.0,
    ) -> None:
        """Accept-side handshake that blocks nobody: the first frame the
        newcomer ``sock`` sends goes to ``on_hello(conn, message,
        payload)``, with ``conn`` already out of the loop again — the
        handler re-adds it with its real handlers, or closes it.  A peer
        silent for ``timeout`` seconds, or gone first, is closed
        unanswered."""
        conn = Connection(sock, name="newcomer")

        def hello(message: Dict[str, Any], payload: bytes) -> None:
            timer.cancel()
            self.remove(conn)
            on_hello(conn, message, payload)

        def dismiss(reason: str = "silent") -> None:
            timer.cancel()
            self.remove(conn)
            conn.close()

        timer = self.call_at(time.monotonic() + timeout, dismiss)
        self.add_connection(conn, hello, dismiss)

    def remove(self, fileobj) -> None:
        """Forget a listener, reader or connection (idempotent; closes
        nothing).  A removed connection blocks again."""
        if self._peers.pop(fileobj, None) is not None:
            fileobj.sock.setblocking(True)
        try:
            self._selector.unregister(fileobj)
        except (KeyError, ValueError):
            pass  # never registered, or already removed

    def dismiss(self, conn: Connection, farewell: Dict[str, Any]) -> None:
        """Remove ``conn``, push what is still queued plus one last frame
        in blocking mode (best effort), and close it."""
        self.remove(conn)
        try:
            conn.send(farewell)
        except ProtocolError:
            pass
        conn.close()

    def close(self) -> None:
        """Release the selector and every handler and timer, which hold
        the loop's owner: without this the two form a reference cycle and
        a closed manager would linger until the next garbage collection.
        A forked child closes its parent's loop this way: closing shares
        nothing back, where disarming the timerfd would."""
        self._selector.close()
        self._peers.clear()
        self._timers.clear()
        for fd in (self._timerfd, self._wakefd):
            if fd >= 0:
                os.close(fd)
        self._timerfd = self._wakefd = -1

    def wake(self) -> None:
        """End the current ``run_once`` (or the next one) at once; the only
        method another thread may call, and only while the loop is open."""
        os.eventfd_write(self._wakefd, 1)

    # -- sending ---------------------------------------------------------
    def send(
        self, conn: Connection, message: Dict[str, Any], payload: Payload = b""
    ) -> None:
        """Queue one frame behind anything already staged, then drain."""
        conn.send_buffered(message, payload)
        self.flush(conn)

    def flush(self, conn: Connection) -> None:
        """Write what the kernel takes of ``conn``'s staged frames now and
        the rest as the socket becomes writable.  A connection that is
        not (or no longer) in the loop flushes in its own blocking mode
        and reports failure by raising."""
        peer = self._peers.get(conn)
        if peer is None:
            conn.flush()
            return
        try:
            drained = conn.flush()
        except ProtocolError as exc:
            self._lose(peer, str(exc))
            return
        if peer.writing == drained:
            peer.writing = not drained
            events = selectors.EVENT_READ | (0 if drained else selectors.EVENT_WRITE)
            self._selector.modify(conn, events, peer)

    # -- timers ----------------------------------------------------------
    def call_at(self, when: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn()`` once ``time.monotonic()`` reaches ``when``."""
        return self._schedule(when, Timer(fn, None))

    def call_every(self, interval: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn()`` next iteration, then ``interval`` s after each run."""
        return self._schedule(time.monotonic(), Timer(fn, interval))

    def _schedule(self, when: float, timer: Timer) -> Timer:
        heapq.heappush(self._timers, (when, next(self._seq), timer))
        return timer

    # -- driving ---------------------------------------------------------
    def run_once(self, timeout: float) -> bool:
        """One iteration: wait up to ``timeout`` seconds, less when a
        timer is due sooner, for I/O, handle it, then run due timers.  A
        wait shorter than ``TICK_S`` lasts ``TICK_S``; none ends more than
        ``TICK_S`` after its deadline.  True when ``wake()`` ended it."""
        now = time.monotonic()
        deadline = now + timeout
        if self._timers and self._timers[0][0] < deadline:
            deadline = self._timers[0][0]
        wait = deadline - now
        if wait > 0.0:
            if wait < TICK_S:
                deadline, wait = now + TICK_S, TICK_S
            self._arm(deadline, wait)
        else:
            wait = 0.0
        wakes = self._wakes
        for key, mask in self._selector.select(wait):
            if isinstance(key.data, _Peer):
                self._serve(key.data, mask)
            else:
                key.data()
        now = time.monotonic()
        while self._timers and self._timers[0][0] <= now:
            timer = heapq.heappop(self._timers)[2]
            if timer.fn is not None:
                timer.fn()
            if timer.fn is not None and timer.interval is not None:
                self._schedule(time.monotonic() + timer.interval, timer)
        return self._wakes != wakes

    def _arm(self, deadline: float, wait: float) -> None:
        """Have the timerfd end a ``wait`` that epoll, which rounds its
        timeout up to a whole millisecond, would overrun by over a tick.
        An expiry already set for this deadline (a timer's) stays, and so
        does a later one; an earlier one, or one that has fired, would end
        the wait early and is cleared."""
        expiry_ns = math.ceil(deadline * 1e9)
        if expiry_ns == self._armed_ns:
            return
        if math.ceil(wait * 1e3) * 1e-3 - wait <= TICK_S:  # epoll is on time
            if self._armed_ns == 0 or self._armed_ns > expiry_ns:
                return
            expiry_ns = 0  # disarm
        self._armed_ns = expiry_ns
        value = self._expiry.it_value
        value.tv_sec, value.tv_nsec = divmod(expiry_ns, 1_000_000_000)
        if _timerfd_settime(self._timerfd, _TFD_TIMER_ABSTIME, self._expiry_ref, None):
            errno = ctypes.get_errno()
            raise OSError(errno, f"timerfd_settime: {os.strerror(errno)}")

    def _expired(self) -> None:
        # It stays readable until it is next set or disarmed, which the
        # next wait does: it either needs the timerfd or, finding an
        # expiry that has passed, disarms it.
        self._armed_ns = -1

    def _on_wake(self) -> None:
        try:
            os.eventfd_read(self._wakefd)
        except BlockingIOError:
            pass  # a nested run_once already consumed this wake-up
        self._wakes += 1

    def _accept(self, listener: socket.socket, on_accept) -> None:
        try:
            sock, _ = listener.accept()
        except (BlockingIOError, InterruptedError):
            return  # stale event: a nested run_once already accepted it
        on_accept(sock)

    def _serve(self, peer: _Peer, mask: int) -> None:
        # An earlier handler of this batch (or a nested run_once) may have
        # removed the peer; its stale event is dropped.
        if mask & selectors.EVENT_READ and self._peers.get(peer.conn) is peer:
            try:
                peer.conn.fill()
            except ProtocolError as exc:
                self._lose(peer, str(exc))
            else:
                self._deliver(peer)
        if mask & selectors.EVENT_WRITE and self._peers.get(peer.conn) is peer:
            self.flush(peer.conn)

    def _deliver(self, peer: _Peer) -> None:
        """Hand every complete buffered frame to the peer's handler,
        stopping as soon as a handler removes the connection."""
        while self._peers.get(peer.conn) is peer:
            try:
                frame = peer.conn.next_frame()
            except ProtocolError as exc:
                self._lose(peer, str(exc))
                return
            if frame is None:
                return
            peer.on_frame(*frame)

    def _lose(self, peer: _Peer, reason: str) -> None:
        if self._peers.get(peer.conn) is peer:
            self.remove(peer.conn)
            peer.on_lost(reason)
