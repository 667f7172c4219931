"""Peer file transfers on the owner's event loop (DESIGN.md §2f), for a
worker's cache and a shard's staged blobs.  One frame goes each way:
``{"type": "get", "hash"}``, then ``{"type": "data", "ok": true}`` with
the file as payload, or ``ok: false`` and an ``error``."""

from __future__ import annotations

import errno
import os
import socket
import time
from typing import Any, Callable, Dict, Tuple, Union

from repro.engine.loop import EventLoop
from repro.engine.messages import Connection
from repro.errors import ProtocolError


def serve_files(loop: EventLoop, directory: str) -> socket.socket:
    """Answer each client's ``get`` with the file of ``directory`` it
    names, on a loopback port; returns the listener for its owner to
    close.  A client silent for 10 s is closed unanswered; one that
    asked is closed once it hangs up."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(16)

    def answer(conn: Connection, request: Dict[str, Any], _: bytes) -> None:
        name = str(request.get("hash", ""))
        reply: Dict[str, Any] = {"type": "data", "ok": False, "error": "no such file"}
        data = b""
        if request["type"] == "get" and os.path.basename(name) == name != "":
            try:
                with open(os.path.join(directory, name), "rb") as fh:
                    data = fh.read()
                reply = {"type": "data", "ok": True}
            except OSError as exc:
                reply["error"] = exc.strerror or "unreadable"
        loop.add_connection(conn, lambda *_: None, lambda reason: conn.close())
        loop.send(conn, reply, data)

    loop.add_listener(listener, lambda sock: loop.await_hello(sock, answer))
    return listener


def fetch_file(
    loop: EventLoop,
    address: Tuple[str, int],
    name: str,
    timeout: float,
    on_done: Callable[[Union[bytes, ProtocolError]], None],
) -> None:
    """Ask the server at ``address`` (numeric host, port) for ``name``.
    ``on_done`` runs exactly once, with the file's bytes or a
    :class:`ProtocolError`: on the reply, when the connection is refused
    or lost, or ``timeout`` seconds from now.  Nothing here blocks: the
    request waits in the loop's send queue until the connect completes.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setblocking(False)
    err = sock.connect_ex(address)
    if err not in (0, errno.EINPROGRESS):
        sock.close()
        on_done(ProtocolError(f"cannot connect to {address}: {os.strerror(err)}"))
        return
    conn = Connection(sock, name=f"peer {address[0]}:{address[1]}")

    def finish(outcome: Union[bytes, ProtocolError]) -> None:
        timer.cancel()
        loop.remove(conn)
        conn.close()
        on_done(outcome)

    def reply(message: Dict[str, Any], data: bytes) -> None:
        error = ProtocolError(f"{conn.name}: {message.get('error')}")
        finish(data if message.get("ok") else error)

    timer = loop.call_at(
        time.monotonic() + timeout,
        lambda: finish(ProtocolError(f"{conn.name} sent nothing in {timeout} s")),
    )
    loop.add_connection(conn, reply, lambda reason: finish(ProtocolError(reason)))
    loop.send(conn, {"type": "get", "hash": name})
