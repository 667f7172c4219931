"""The engine's one event loop: manager, router, worker, shard and the
library template drive it.

It owns the process's only selector and three rules (DESIGN.md §2f):
reads never block (one ``recv`` per readable event, complete frames
delivered, a partial tail waits), sends never block (frames queue and
drain as the kernel takes them), and timers run after an iteration's I/O.
Blocking ``Connection.send``/``receive`` remain for handshakes: before a
connection joins the loop and after it leaves.
"""

from __future__ import annotations

import heapq
import itertools
import selectors
import socket
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.messages import Connection, Payload
from repro.errors import ProtocolError


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
        a closed manager would linger until the next garbage collection."""
        self._selector.close()
        self._peers.clear()
        self._timers.clear()

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
    def run_once(self, timeout: float) -> None:
        """One iteration: wait up to ``timeout`` seconds (less when a
        timer is due sooner) for I/O, handle it, then run due timers."""
        if self._timers:
            timeout = min(timeout, self._timers[0][0] - time.monotonic())
        for key, mask in self._selector.select(max(0.0, timeout)):
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
