"""Microbenchmark rungs: one pure-function measurement per layer.

None needs a cluster.  Each rung times a public function of one layer
on a fixed input and reports the median over a few batches of wall
microseconds per call; the rungs on the invocation path are summed into
``ladder.rungs_sum_us`` so the traced pass can say how much of the
per-invocation CPU cost pure functions account for
(``ladder.accounted_fraction``) and how much is event loops, selectors
and context switches.
"""

from __future__ import annotations

import os
import socket
import statistics
import time
from typing import Callable, Dict

from repro.discover.context import discover_context
from repro.discover.data import declare_data
from repro.discover.environment import resolve_environment
from repro.discover.packaging import pack_environment
from repro.distribute.plan import plan_broadcast
from repro.distribute.topology import TransferMode, uniform_topology
from repro.engine import FunctionCall, Manager
from repro.engine.messages import Connection
from repro.engine.payloads import PayloadStore
from repro.engine.resources import Resources
from repro.engine.scheduling import HashRing, Placement
from repro.serialize import deserialize, serialize

import runner
import shipped

MIB = 1024 * 1024
# How often one bulk invocation crosses each rung on its way out and
# back: arguments and result are each serialized and deserialized once,
# the manager-worker hop rides in batch frames, the worker-library hop
# in single frames.  The weighted sum is what pure functions account
# for in ``cpu_us_per_op``.
INVOCATION_PATH = {
    "serialize.args_small_us": 2,
    "serialize.deserialize_small_us": 2,
    "messages.batch16_rtt_us": 1,
    "messages.frame_rtt_us": 1,
    "scheduling.find_slot_us": 1,
    "manager.submit_us": 1,
}


def time_us(fn: Callable[[], object], *, budget_s: float = 0.06, batches: int = 5) -> float:
    """Median, over ``batches`` batches, of wall microseconds per call."""
    started = time.perf_counter()
    fn()
    once = max(time.perf_counter() - started, 1e-7)
    per_batch = max(1, int(budget_s / batches / once))
    samples = []
    for _ in range(batches):
        started = time.perf_counter()
        for _ in range(per_batch):
            fn()
        samples.append((time.perf_counter() - started) / per_batch)
    return statistics.median(samples) * 1e6


# ---------------------------------------------------------------- serialize
def serialize_rungs() -> Dict[str, float]:
    small = ((7,), {})
    big = ((os.urandom(MIB),), {})
    small_blob, big_blob = serialize(small), serialize(big)
    return {
        "serialize.args_small_us": time_us(lambda: serialize(small)),
        "serialize.deserialize_small_us": time_us(lambda: deserialize(small_blob)),
        "serialize.args_1MiB_us": time_us(lambda: serialize(big)),
        "serialize.deserialize_1MiB_us": time_us(lambda: deserialize(big_blob)),
    }


# ----------------------------------------------------------------- messages
def _invocation_header(task_id: int) -> dict:
    return {
        "type": "invocation",
        "task_id": task_id,
        "instance_id": 1,
        "function": "noop",
        "mode": "direct",
        "inputs": [],
    }


def _result_header(task_id: int) -> dict:
    return {
        "type": "result",
        "task_id": task_id,
        "kind": "invocation",
        "times": {"staging": 1.1e-05, "deserialize": 2.3e-05, "exec_time": 1.2e-06},
    }


def messages_rungs() -> Dict[str, float]:
    left, right = socket.socketpair()
    a, b = Connection(left, "rung-a"), Connection(right, "rung-b")
    args = serialize(((7,), {}))
    outcome = serialize({"ok": True, "value": 7, "times": {"exec_time": 1.2e-06}})
    try:
        staged = []

        def encode() -> None:
            a.send_buffered(_invocation_header(len(staged)), args)
            staged.append(None)
            if len(staged) >= 256:  # keep the socket buffer from filling
                drain()

        def drain() -> None:
            a.flush()
            for _ in staged:
                b.receive(timeout=5.0)
            staged.clear()

        encode_us = time_us(encode)
        drain()

        def frame_rtt() -> None:
            a.send(_invocation_header(1), args)
            b.receive(timeout=5.0)
            b.send(_result_header(1), outcome)
            a.receive(timeout=5.0)

        sent_before = a.bytes_sent + b.bytes_sent
        calls = [0]

        def counted_rtt() -> None:
            calls[0] += 1
            frame_rtt()

        frame_rtt_us = time_us(counted_rtt)
        bytes_per_inv = (a.bytes_sent + b.bytes_sent - sent_before) / calls[0]

        parts = []
        for _ in range(16):
            parts.extend((len(args).to_bytes(4, "big"), args))
        batch = {
            "type": "invocation_batch",
            "invocations": [
                {k: v for k, v in _invocation_header(i).items() if k != "type"}
                for i in range(16)
            ],
        }

        def batch_rtt() -> None:
            a.send(batch, parts)
            b.receive(timeout=5.0)
            for i in range(16):
                b.send_buffered(_result_header(i), outcome)
            b.flush()
            for _ in range(16):
                a.receive(timeout=5.0)

        batch16_rtt_us = time_us(batch_rtt) / 16
    finally:
        a.close()
        b.close()
    return {
        "messages.encode_us": encode_us,
        "messages.frame_rtt_us": frame_rtt_us,
        "messages.batch16_rtt_us": batch16_rtt_us,
        "messages.bytes_per_inv": bytes_per_inv,
    }


# --------------------------------------------------------------------- host
def host_rungs() -> Dict[str, float]:
    """Raw loopback TCP ping-pong without ``Connection``, and the fixed
    pure-Python loop: the floor and the fingerprint of the host."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = socket.create_connection(listener.getsockname())
    server, _ = listener.accept()
    try:
        for sock in (client, server):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def ping() -> None:
            client.sendall(b"x" * 64)
            server.recv(64)
            server.sendall(b"y" * 64)
            client.recv(64)

        rtt = time_us(ping)
    finally:
        for sock in (client, server, listener):
            sock.close()
    return {
        "host.socket_rtt_us": rtt,
        "host.calibration_us": runner.calibration_us(),
        "host.nproc": float(os.cpu_count() or 0),
    }


# --------------------------------------------------------------- scheduling
def _table(policy=None, workers: int = 64) -> Placement:
    """A synthetic 64-worker table, every worker hosting one ready
    two-slot instance of ``lib-<i % 8>``."""
    placement = Placement(policy=policy)
    for i in range(workers):
        placement.add_worker(f"worker-{i:03d}", Resources(cores=2, memory=4096, disk=4096))
    for i in range(workers):
        worker, instance = placement.place_library(f"lib-{i % 8}", 2, Resources(cores=1))
        placement.library_ready(worker, instance)
    return placement


def _find_slot_us(policy) -> float:
    placement = _table(policy)

    def decide() -> None:
        inst = placement.find_invocation_slot("lib-3")
        placement.start_invocation(inst)
        placement.finish_invocation(inst)

    return time_us(decide)


def scheduling_rungs() -> Dict[str, float]:
    from repro.engine.policies import resolve_policy

    placement = _table()

    def place() -> None:
        worker, instance = placement.place_library("lib-new", 2, Resources(cores=1))
        placement.remove_library(worker, instance)

    ring = HashRing()
    for i in range(64):
        ring.add(f"worker-{i:03d}")
    legacy = _find_slot_us(None)
    reactive = _find_slot_us(resolve_policy("reactive"))
    return {
        "scheduling.find_slot_us": legacy,
        "scheduling.place_library_us": time_us(place),
        "scheduling.evict_search_us": time_us(
            lambda: placement.find_evictable_library("lib-3")
        ),
        "scheduling.hashring_walk_us": time_us(lambda: list(ring.walk("lib-3"))),
        "policies.decision_overhead_us": reactive - legacy,
    }


# ----------------------------------------------------------------- payloads
def payloads_rungs() -> Dict[str, float]:
    base = os.urandom(MIB)
    fresh = bytearray(base)
    with PayloadStore(budget=64 * MIB) as store:
        counter = [0]

        def put() -> None:
            # distinct content each call, so put() creates a segment
            counter[0] += 1
            fresh[:8] = counter[0].to_bytes(8, "big")
            store.put(fresh)

        put_us = time_us(put)
        descriptor = store.put(base)
        digest = descriptor["hash"]

        def get() -> None:
            store.pin(digest)
            store.get(digest)
            store.unpin(digest)

        get_us = time_us(get)
    return {"payloads.put_1MiB_us": put_us, "payloads.get_1MiB_us": get_us}


# ------------------------------------------------------- discover, distribute
def discover_rungs(scratch: str) -> Dict[str, float]:
    binding = declare_data(os.urandom(MIB), remote_name="table.bin")

    def discover():
        return discover_context(
            "rung", [shipped.lookup], setup=shipped.load_table, data=[binding],
            scan_dependencies=False,
        )

    context_us = time_us(discover)
    spec = resolve_environment(["json"])
    package = os.path.join(scratch, "rung-env.tar.gz")
    pack_ms = time_us(lambda: pack_environment(spec, package)) / 1e3
    with Manager(workdir=os.path.join(scratch, "rung-manager")) as manager:
        serial = [0]

        def install() -> None:
            serial[0] += 1
            manager.install_library(
                manager.create_library_from_functions(
                    f"rung-{serial[0]}", shipped.lookup,
                    context=shipped.load_table, data=[binding],
                )
            )

        install_ms = time_us(install) / 1e3
        # No worker is connected, so submit() only validates and queues.
        calls = [FunctionCall("rung-1", "lookup", i) for i in range(2000)]
        started = time.perf_counter()
        for call in calls:
            manager.submit(call)
        submit_us = (time.perf_counter() - started) / len(calls) * 1e6
    return {
        "discover.context_us": context_us,
        "discover.install_ms": install_ms,
        "discover.pack_env_ms": pack_ms,
        "manager.submit_us": submit_us,
    }


def distribute_rungs() -> Dict[str, float]:
    topology = uniform_topology(256)
    return {
        "distribute.plan_us": time_us(
            lambda: plan_broadcast(topology, "context.tar.gz", 572 * MIB, TransferMode.PEER)
        )
    }


def run_all(scratch: str) -> Dict[str, float]:
    """Every rung, plus the sum of those on the invocation path."""
    values: Dict[str, float] = {}
    values.update(serialize_rungs())
    values.update(messages_rungs())
    values.update(host_rungs())
    values.update(scheduling_rungs())
    values.update(payloads_rungs())
    values.update(discover_rungs(scratch))
    values.update(distribute_rungs())
    values["ladder.rungs_sum_us"] = sum(
        values[name] * crossings for name, crossings in INVOCATION_PATH.items()
    )
    return values
