"""Wire protocol shared by manager, workers, and libraries.

Every message is a JSON object framed by a 4-byte big-endian length.
Bulk data (file contents, serialized arguments/results) never travels
inside the JSON; a message that carries data declares ``payload_size``
and the raw bytes follow the JSON frame.  This mirrors TaskVine's text
protocol with out-of-band file streams and keeps the control plane
debuggable.

Two hot-path mechanisms keep small control frames cheap:

* *vectored sends* — ``send_buffered`` stages frames (headers and
  payload parts as separate buffers, never concatenated) and ``flush``
  writes them with one gathering ``sendmsg`` syscall per ``IOV_MAX``
  buffers, so a dispatch round that stages files and invocations for a
  worker costs one syscall instead of one per message and zero joins
  (``send`` is ``send_buffered`` + ``flush``, and always drains
  previously buffered frames first, preserving order).  On a socket the
  event loop (``repro.engine.loop``) has made non-blocking, ``flush``
  sends what the kernel will take, keeps the rest queued, and returns
  ``False`` so the loop can wait for writability instead of stalling
  every peer behind one slow socket;
* *incremental receives* — ``fill`` reads the socket in large chunks
  into a ``bytearray`` and ``next_frame`` parses complete frames out of
  it, keeping a partial tail for the next call; neither blocks.  The
  blocking ``receive(timeout=)`` of handshakes and library processes is
  the same parser behind a socket timeout.
"""

from __future__ import annotations

import json
import socket
from collections import deque
from itertools import islice
from typing import Any, Deque, Dict, Iterable, Optional, Tuple, Union

from repro.errors import ProtocolError

MAX_MESSAGE = 64 * 1024 * 1024  # sanity cap on a JSON frame
# Key under which trace events piggyback on ordinary frames (worker
# status/result frames, library ready/complete frames).  Receivers that
# predate tracing ignore unknown keys, so the protocol is unchanged.
TRACE_KEY = "trace"
_HDR = 4


def attach_trace(message: Dict[str, Any], tracer) -> Dict[str, Any]:
    """Drain ``tracer``'s outbox into ``message`` for piggybacking.

    No-op (and no key added) when tracing is disabled or the outbox is
    empty, so the common frame stays byte-identical.
    """
    events = tracer.drain()
    if events:
        message[TRACE_KEY] = events
    return message


# Resource-heartbeat fields every worker ``status`` report carries (on
# top of the original cache/task summary).  Piggybacked on the existing
# periodic status frame — no extra round trips — and folded into
# per-worker gauges by the manager.  Kept as a named constant so the
# telemetry tests can assert the field set stays stable.
HEARTBEAT_FIELDS = (
    "rss_bytes",       # worker process resident set size
    "busy_slots",      # running tasks + in-flight library invocations
    "cache_bytes",     # bytes resident in the worker cache
    "cache_pinned",    # pinned cache entries
    "libraries_live",  # library instances whose process is alive
    "payload_bytes_copied",  # result/argument bytes moved through sockets
    "payload_bytes_mapped",  # result/argument bytes handed off via shm
)
_RECV_CHUNK = 1 << 16  # read ahead in 64 KiB chunks; leftovers stay buffered
_IOV_MAX = 64  # buffers per sendmsg call (well under every platform's IOV_MAX)

Payload = Union[bytes, bytearray, memoryview, Iterable[bytes]]


class Connection:
    """A framed-message connection over a stream socket.

    ``send`` and ``receive`` block (handshakes, library processes); the
    event loop makes the socket non-blocking and uses ``send_buffered``
    + ``flush`` and ``fill`` + ``next_frame`` instead.  The connection
    tracks byte counters so benchmarks can report bytes moved per hop.
    """

    def __init__(self, sock: socket.socket, name: str = "?"):
        self.sock = sock
        self.name = name
        self.bytes_sent = 0
        self.bytes_received = 0
        self._recv_buffer = bytearray()
        self._recv_pos = 0  # start of the first unparsed byte
        self._recv_need = _HDR  # unparsed bytes the frame in progress needs
        self._header: Optional[Dict[str, Any]] = None  # decoded; payload pending
        self._outbound: Deque[memoryview] = deque()
        self._out_bytes = 0
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def fileno(self) -> int:
        return self.sock.fileno()

    @property
    def pending_out(self) -> int:
        """Bytes staged or queued but not yet accepted by the kernel."""
        return self._out_bytes

    # -- sending ---------------------------------------------------------
    def send_buffered(self, message: Dict[str, Any], payload: Payload = b"") -> None:
        """Stage one frame without touching the socket; ``flush`` writes
        every staged buffer with gathered ``sendmsg`` calls.

        ``payload`` may be a single buffer or an iterable of buffers
        (e.g. the per-invocation blobs of a coalesced batch); parts are
        queued as separate iovecs, so building a batch never concatenates
        payload bytes.
        """
        if isinstance(payload, (bytes, bytearray, memoryview)):
            parts = [payload] if len(payload) else []
        else:
            parts = [p for p in payload if len(p)]
        payload_size = sum(len(p) for p in parts)
        if payload_size:
            message = dict(message, payload_size=payload_size)
        blob = json.dumps(message, separators=(",", ":")).encode("utf-8")
        if len(blob) > MAX_MESSAGE:
            raise ProtocolError(f"message too large: {len(blob)} bytes")
        self._enqueue(len(blob).to_bytes(_HDR, "big") + blob)
        for part in parts:
            self._enqueue(part)

    def _enqueue(self, data) -> None:
        self._outbound.append(memoryview(data).cast("B"))
        self._out_bytes += len(data)

    def _send_once(self) -> bool:
        """One gathered write over the head of the queue.

        Returns ``False`` when the kernel would block (non-blocking
        mode), ``True`` otherwise.  Partially accepted buffers are
        advanced in place by re-slicing the head memoryview — no copy.
        """
        bufs = list(islice(self._outbound, _IOV_MAX))
        try:
            sent = self.sock.sendmsg(bufs)
        except (BlockingIOError, InterruptedError):
            return False
        except OSError as exc:
            raise ProtocolError(f"send to {self.name} failed: {exc}") from exc
        self.bytes_sent += sent
        self._out_bytes -= sent
        while sent:
            head = self._outbound[0]
            if sent >= len(head):
                sent -= len(head)
                self._outbound.popleft()
            else:
                self._outbound[0] = head[sent:]
                sent = 0
        return True

    def flush(self) -> bool:
        """Drain the outbound queue; returns ``True`` once empty.

        Loops until everything is out, unless the socket is non-blocking
        (it has joined the event loop): then it sends what it can and
        returns ``False`` if bytes remain — the loop watches the socket
        for writability and calls ``flush`` again.
        """
        if not self._outbound:
            return True
        if self.sock.gettimeout() != 0:
            self.sock.settimeout(None)  # drop a handshake's receive timeout
        while self._outbound:
            if not self._send_once():
                return False
        return True

    def send(self, message: Dict[str, Any], payload: Payload = b"") -> None:
        self.send_buffered(message, payload)
        self.flush()

    # -- receiving -------------------------------------------------------
    def fill(self) -> bool:
        """One ``recv`` into the read-ahead buffer: a 64 KiB chunk, or the
        rest of the frame in progress when that is larger.  ``False``
        when nothing arrived (non-blocking socket empty, or timed out).
        """
        missing = self._recv_need - (len(self._recv_buffer) - self._recv_pos)
        try:
            chunk = self.sock.recv(min(max(_RECV_CHUNK, missing), 1 << 20))
        except (BlockingIOError, InterruptedError, socket.timeout):
            return False
        except OSError as exc:
            raise ProtocolError(f"recv from {self.name} failed: {exc}") from exc
        if not chunk:
            raise ProtocolError(f"connection to {self.name} closed mid-message")
        self._recv_buffer += chunk
        self.bytes_received += len(chunk)
        return True

    def next_frame(self) -> Optional[Tuple[Dict[str, Any], bytes]]:
        """Parse one complete frame out of the read-ahead buffer; ``None``
        when it ends mid-frame.  The partial tail stays put, and a header
        already decoded is kept, not re-parsed, while its payload arrives.
        """
        buf = self._recv_buffer
        pos = self._recv_pos
        message = self._header
        if message is None:
            if len(buf) - pos < _HDR:
                return self._park(_HDR)
            length = int.from_bytes(buf[pos:pos + _HDR], "big")
            if length > MAX_MESSAGE:
                raise ProtocolError(f"oversized frame announced: {length}")
            end = pos + _HDR + length
            if len(buf) < end:
                return self._park(_HDR + length)
            try:
                message = json.loads(str(memoryview(buf)[pos + _HDR:end], "utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(
                    f"bad JSON frame from {self.name}: {exc}"
                ) from exc
            if not isinstance(message, dict) or "type" not in message:
                raise ProtocolError(f"frame from {self.name} lacks a type")
            pos = self._recv_pos = end
        size = message.get("payload_size", 0)
        if not isinstance(size, int) or size < 0:
            raise ProtocolError(f"bad payload_size from {self.name}")
        if len(buf) - pos < size:
            self._header = message
            return self._park(size)
        payload = bytes(memoryview(buf)[pos:pos + size]) if size else b""
        self._header = None
        self._recv_pos = pos + size
        self._park(_HDR)
        return message, payload

    def _park(self, need: int) -> None:
        """Note how many unparsed bytes the frame in progress needs, and
        drop the consumed prefix once it is at least as large as the
        unread tail — a memmove amortised to O(1) per byte received, so
        a long-lived connection never pins drained bytes."""
        self._recv_need = need
        pos = self._recv_pos
        if pos and len(self._recv_buffer) - pos <= pos:
            del self._recv_buffer[:pos]
            self._recv_pos = 0

    def receive(
        self, timeout: Optional[float] = None
    ) -> Tuple[Dict[str, Any], bytes]:
        """Block until one message arrives; returns (message, payload).

        A ``TimeoutError`` mid-message leaves the partial frame
        buffered, so polling callers (short timeouts) simply retry.
        """
        self.sock.settimeout(timeout)
        while True:
            frame = self.next_frame()
            if frame is not None:
                return frame
            if not self.fill():
                raise TimeoutError(f"recv from {self.name} timed out")

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def connect(host: str, port: int, name: str = "?", timeout: float = 10.0) -> Connection:
    """Dial a framed connection to ``host:port``."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ProtocolError(f"cannot connect to {host}:{port}: {exc}") from exc
    sock.settimeout(None)
    return Connection(sock, name=name)


def expect(message: Dict[str, Any], expected_type: str) -> Dict[str, Any]:
    """Assert the message type, returning the message for chaining."""
    if message.get("type") != expected_type:
        raise ProtocolError(
            f"expected message type {expected_type!r}, got {message.get('type')!r}"
        )
    return message
