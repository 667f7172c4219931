"""Serving-policy A/B benchmark: sticky, prewarm, and fair vs reactive.

Not a paper table: this scores the pluggable scheduling policies
(DESIGN.md §2h) on one recorded multi-tenant workload.  Phase A replays
an identical Zipf-skewed sequence under reactive, sticky, and prewarm
and compares warm-hit ratios; phase B runs a hog-vs-mice admission
burst and compares the starved tenants' p99 queue wait under fair
against their fair-share value (the same burst with no hog at all).

The harness itself writes the scorecard (``BENCH_policy.json`` at the
repo root) on every run — ``scripts/ci.sh`` gates directly on the
emitted deltas, so there is no separate REPRO_WRITE_BASELINE step.
"""

import _baseline

from repro.bench import policy_ab


def test_policy_ab(benchmark, show, smoke):
    result = benchmark.pedantic(policy_ab, rounds=1, iterations=1)
    show(result)
    v = result.values
    assert v["failed"] == 0
    # Warm-affinity routing must never *lose* to the reactive order on the
    # identical sequence, at any scale.
    assert v["sticky_warm_delta"] >= 0.0
    assert v["prewarm_warm_delta"] >= 0.0
    if not smoke:
        # The headline claims, same thresholds scripts/ci.sh gates on:
        # +20 warm-hit points for the warmth-ranked policies, and fair
        # admission holding the starved tenants within 3x their
        # fair-share queue wait.
        assert v["sticky_warm_delta"] >= 0.20, (
            f"sticky warm-hit delta {v['sticky_warm_delta']:.3f} below "
            "the +0.20 gate"
        )
        assert v["prewarm_warm_delta"] >= 0.20, (
            f"prewarm warm-hit delta {v['prewarm_warm_delta']:.3f} below "
            "the +0.20 gate"
        )
        assert v["fair_mouse_stretch"] <= 3.0, (
            f"fair-share mouse p99 stretch {v['fair_mouse_stretch']:.2f} "
            "exceeds 3x the no-hog fair-share wait"
        )
    _baseline.maybe_write_baseline("policy", v)
