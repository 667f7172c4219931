"""Unit tests of the ladder benchmark's own helpers (no engine needed).

Run with ``python -m pytest benchmarks/ladder/test_ladder.py``.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import openloop  # noqa: E402
import runner  # noqa: E402


# ------------------------------------------------------------- statistics
def test_percentile_interpolates_between_ranks():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert runner.percentile(samples, 0) == 1.0
    assert runner.percentile(samples, 100) == 4.0
    assert runner.percentile(samples, 50) == 2.5
    assert runner.percentile(samples, 25) == pytest.approx(1.75)
    assert runner.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        runner.percentile([], 50)


def test_summarize_states_the_sample_count():
    summary = runner.summarize([5.0, 1.0, 3.0])
    assert summary == {"n": 3, "median": 3.0, "q1": 2.0, "q3": 4.0, "min": 1.0}


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert runner.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


# ------------------------------------------------------------------ spans
def _span(i, parent, start, end):
    return {"id": i, "name": f"s{i}", "op": None, "parent": parent,
            "start": start, "end": end}


def test_self_time_subtracts_covered_child_time_once():
    records = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),   # overlaps span 1: the union [1, 5] counts once
        _span(3, 0, 7.0, 8.0),
        _span(4, 2, 2.5, 3.5),   # grandchild: only shrinks span 2
    ]
    own = runner.self_times(records)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[4] == pytest.approx(1.0)


def test_self_time_clips_a_child_that_outlives_its_parent():
    own = runner.self_times([_span(0, None, 0.0, 4.0), _span(1, 0, 3.0, 9.0)])
    assert own[0] == pytest.approx(3.0)


def test_spans_nest_and_share_the_operation_id():
    spans = runner.Spans()
    with spans.span("wave", op="wave-0"):
        with spans.span("submit"):
            pass
        with spans.span("wait_all"):
            pass
    with spans.span("close"):
        pass
    by_name = {r["name"]: r for r in spans.records}
    assert by_name["submit"]["parent"] == by_name["wave"]["id"]
    assert by_name["wait_all"]["op"] == "wave-0"
    assert by_name["close"]["parent"] is None
    totals = runner.self_time_by_name(spans)
    assert set(totals) == {"wave", "submit", "wait_all", "close"}
    assert all(seconds >= 0.0 for seconds in totals.values())


# -------------------------------------------------------------- open loop
class StubSystem:
    """A system on a fake clock that answers within 1 ms, except for one
    200 ms stall that begins at the first pump at or after ``stall_at``."""

    def __init__(self, stall_at=0.1, stall_s=0.2):
        self.now = 0.0
        self.stall_at, self.stall_s = stall_at, stall_s
        self.stalled_until = None
        self.pending = []
        self.sent_at = {}

    def clock(self):
        return self.now

    def submit(self, index):
        self.pending.append(index)
        self.sent_at[index] = self.now

    def pump(self, gap):
        if self.stalled_until is None and self.now >= self.stall_at:
            self.now += self.stall_s
            self.stalled_until = self.now
        else:
            self.now += min(gap, 0.001) if self.pending else gap
        done, self.pending = [(i, self.now) for i in self.pending], []
        return done


def test_stall_is_charged_to_the_requests_due_during_it():
    """No coordinated omission: requests the stalled system kept the
    generator from sending are timed from when they were due."""
    schedule = [0.01 * (i + 1) for i in range(50)]  # one every 10 ms
    stub = StubSystem()
    result = openloop.run_open_loop(
        schedule, stub.submit, stub.pump, clock=stub.clock
    )
    assert result.unfinished(len(schedule)) == []
    stall_end = stub.stalled_until
    assert stall_end == pytest.approx(0.3)
    during = [i for i, due in enumerate(schedule) if 0.1 < due < stall_end]
    assert len(during) >= 15
    for i in during:
        # Sent only once the stall was over, yet charged the whole wait ...
        assert stub.sent_at[i] >= stall_end
        assert result.latency_s[i] >= stall_end - schedule[i] - 1e-9
        # ... which timing from the actual send would have hidden.
        assert stub.sent_at[i] - schedule[i] > 0.0
    assert max(result.latency_s.values()) >= 0.19
    assert sum(1 for v in result.latency_s.values() if v > 0.05) >= 15
    after = [i for i, due in enumerate(schedule) if due > stall_end + 0.02]
    assert all(result.latency_s[i] <= 0.0011 for i in after)
    # The generator reports how late it ran.
    assert max(result.lag_s) == pytest.approx(0.19, abs=0.011)


class DeafSystem(StubSystem):
    """Accepts requests and never answers."""

    def pump(self, gap):
        self.now += gap
        return []


def test_requests_never_answered_stay_unfinished():
    stub = DeafSystem()
    result = openloop.run_open_loop(
        [0.01, 0.02], stub.submit, stub.pump, drain_s=0.5, clock=stub.clock
    )
    assert result.unfinished(2) == [0, 1]
    assert result.wall_s == pytest.approx(0.52)


def test_poisson_schedule_is_seeded_and_has_the_asked_rate():
    a = openloop.poisson_schedule(random.Random(7), 2000, 5.0)
    b = openloop.poisson_schedule(random.Random(7), 2000, 5.0)
    c = openloop.poisson_schedule(random.Random(8), 2000, 5.0)
    assert a == b and a != c
    assert a == sorted(a) and 0.0 < a[0] and a[-1] < 5.0
    assert len(a) == pytest.approx(10_000, rel=0.05)


# -------------------------------------------------------------- processes
_ORPHAN_SCRIPT = """
import subprocess, sys
sys.path.insert(0, {ladder!r})
import runner
from multiprocessing import shared_memory
with runner.owned_processes():
    # A child that starts a sleeper and dies: the sleeper is an orphan.
    out = subprocess.run(
        [sys.executable, "-c",
         "import subprocess as s; print(s.Popen(['sleep', '60'], stdout=s.DEVNULL).pid)"],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    # This process's own resource tracker.
    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close(); segment.unlink()
    print(out.strip(), runner.descendants(trackers=True)[0])
"""


def test_owned_processes_ends_orphans_and_trackers():
    script = _ORPHAN_SCRIPT.format(ladder=os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, timeout=60
    )
    assert done.returncode == 0
    sleeper, tracker = done.stdout.split()
    # Gone altogether, not zombies handed to init.
    assert not os.path.exists(f"/proc/{sleeper}")
    assert not os.path.exists(f"/proc/{tracker}")
