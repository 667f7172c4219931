"""Unit tests for protocol framing, the file store, and sandboxes."""

import os
import socket
import threading

import pytest

from repro.engine.files import FileStore, VineFile
from repro.engine.messages import Connection, connect, expect
from repro.engine.sandbox import ARGS_FILE, RESULT_FILE, Sandbox
from repro.engine.worker import Worker
from repro.errors import EngineError, ProtocolError
from repro.util.hashing import hash_bytes


# ------------------------------------------------------------------- messages
@pytest.fixture
def conn_pair():
    a, b = socket.socketpair()
    yield Connection(a, "left"), Connection(b, "right")
    a.close()
    b.close()


def test_message_roundtrip(conn_pair):
    left, right = conn_pair
    left.send({"type": "hello", "value": 42})
    message, payload = right.receive(timeout=5.0)
    assert message == {"type": "hello", "value": 42}
    assert payload == b""


def test_message_with_payload(conn_pair):
    left, right = conn_pair
    blob = bytes(range(256)) * 10
    left.send({"type": "put"}, blob)
    message, payload = right.receive(timeout=5.0)
    assert message["payload_size"] == len(blob)
    assert payload == blob


def test_multiple_messages_in_order(conn_pair):
    left, right = conn_pair
    for i in range(5):
        left.send({"type": "n", "i": i})
    received = [right.receive(timeout=5.0)[0]["i"] for _ in range(5)]
    assert received == [0, 1, 2, 3, 4]


def test_receive_timeout(conn_pair):
    _, right = conn_pair
    with pytest.raises(TimeoutError):
        right.receive(timeout=0.05)


def test_closed_connection_detected(conn_pair):
    left, right = conn_pair
    left.close()
    with pytest.raises(ProtocolError, match="closed|failed"):
        right.receive(timeout=1.0)


def test_frame_without_type_rejected(conn_pair):
    left, right = conn_pair
    blob = b'{"no_type": 1}'
    left.sock.sendall(len(blob).to_bytes(4, "big") + blob)
    with pytest.raises(ProtocolError, match="type"):
        right.receive(timeout=5.0)


def test_garbage_frame_rejected(conn_pair):
    left, right = conn_pair
    blob = b"\xff\xfenot json"
    left.sock.sendall(len(blob).to_bytes(4, "big") + blob)
    with pytest.raises(ProtocolError, match="JSON"):
        right.receive(timeout=5.0)


def test_byte_counters(conn_pair):
    left, right = conn_pair
    left.send({"type": "x"}, b"12345")
    right.receive(timeout=5.0)
    assert left.bytes_sent > 5
    assert right.bytes_received == left.bytes_sent


def test_expect_helper():
    assert expect({"type": "ok"}, "ok") == {"type": "ok"}
    with pytest.raises(ProtocolError):
        expect({"type": "ok"}, "nope")


def test_connect_over_tcp():
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    port = server.getsockname()[1]
    received = {}

    def serve():
        client, _ = server.accept()
        conn = Connection(client, "client")
        received["msg"], _ = conn.receive(timeout=5.0)
        conn.close()

    thread = threading.Thread(target=serve)
    thread.start()
    conn = connect("127.0.0.1", port, "server")
    conn.send({"type": "ping"})
    thread.join(timeout=5.0)
    conn.close()
    server.close()
    assert received["msg"]["type"] == "ping"


def test_connect_refused():
    with pytest.raises(ProtocolError):
        connect("127.0.0.1", 1, timeout=0.5)  # port 1: nothing listening


def test_worker_rejects_task_frame_without_code_size(tmp_path):
    """A task frame is another process's input: validated, never guessed at."""
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    worker = Worker(
        "127.0.0.1", server.getsockname()[1], name="w", workdir=str(tmp_path)
    )
    client, _ = server.accept()
    manager_side = Connection(client, "manager")
    try:
        worker._on_task({"type": "task", "task_id": 7}, b"code and args in one blob")
        reply, _ = manager_side.receive(timeout=5.0)
    finally:
        worker.shutdown()
        manager_side.close()
        server.close()
    assert (reply["type"], reply["task_id"]) == ("task_failed", 7)
    assert "code_size" in reply["error"]
    assert worker.tasks == {}
    assert os.listdir(worker.sandbox_root) == []


# ------------------------------------------------------------------- file store
def test_store_put_bytes(tmp_path):
    store = FileStore(str(tmp_path / "store"))
    f = store.put_bytes(b"contents", "name.bin")
    assert f.hash == hash_bytes(b"contents")
    assert f.size == 8
    assert store.read(f.hash) == b"contents"
    assert f.hash in store


def test_store_put_path(tmp_path):
    store = FileStore(str(tmp_path / "store"))
    src = tmp_path / "input.dat"
    src.write_bytes(b"file data")
    f = store.put_path(str(src))
    assert f.remote_name == "input.dat"
    assert store.read(f.hash) == b"file data"


def test_store_deduplicates(tmp_path):
    store = FileStore(str(tmp_path / "store"))
    a = store.put_bytes(b"same", "a.bin")
    b = store.put_bytes(b"same", "b.bin")
    assert a.hash == b.hash
    assert len(store) == 1


def test_store_unknown_hash(tmp_path):
    store = FileStore(str(tmp_path / "store"))
    with pytest.raises(EngineError):
        store.get("0" * 64)
    with pytest.raises(EngineError):
        store.open_path("0" * 64)


def test_store_missing_source(tmp_path):
    store = FileStore(str(tmp_path / "store"))
    with pytest.raises(EngineError):
        store.put_path(str(tmp_path / "ghost"))


def test_vinefile_cache_key():
    f = VineFile("ab" * 32, 10, "x.bin")
    assert f.cache_key == f.hash


# ------------------------------------------------------------------- sandboxes
def test_sandbox_stage_links(tmp_path):
    src = tmp_path / "cached.bin"
    src.write_bytes(b"cached")
    box = Sandbox(str(tmp_path / "boxes"), "t1")
    staged = box.stage(str(src), "input.bin")
    assert open(staged, "rb").read() == b"cached"
    box.destroy()
    assert src.exists()  # destroying the sandbox never touches the cache


def test_sandbox_rejects_duplicate_stage(tmp_path):
    src = tmp_path / "c.bin"
    src.write_bytes(b"x")
    box = Sandbox(str(tmp_path / "boxes"), "t2")
    box.stage(str(src), "i.bin")
    with pytest.raises(EngineError):
        box.stage(str(src), "i.bin")


def test_sandbox_rejects_nested_names(tmp_path):
    src = tmp_path / "c.bin"
    src.write_bytes(b"x")
    box = Sandbox(str(tmp_path / "boxes"), "t3")
    with pytest.raises(EngineError):
        box.stage(str(src), "a/b.bin")


def test_sandbox_write_read(tmp_path):
    box = Sandbox(str(tmp_path / "boxes"), "t4")
    box.write(ARGS_FILE, b"args")
    assert box.read(ARGS_FILE) == b"args"
    assert box.exists(ARGS_FILE)
    assert not box.exists(RESULT_FILE)
    with pytest.raises(EngineError):
        box.read("missing")


def test_sandbox_unique(tmp_path):
    Sandbox(str(tmp_path / "boxes"), "t5")
    with pytest.raises(EngineError):
        Sandbox(str(tmp_path / "boxes"), "t5")
