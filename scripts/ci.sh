#!/usr/bin/env bash
# Repo CI gate: tier-1 test suite + fault-injection suite + chaos smoke
# + benchmark smoke (every bench_*.py at ≤200 invocations) + dispatch-
# throughput smoke with a regression check against the committed
# baseline (BENCH_dispatch.json) + telemetry smoke (perflog/statusd
# pipeline end to end, with sampler- and federation-overhead budgets)
# + the SLO scorecard gate (trace integrity + mouse-tenant SLOs over
# the federated 2-shard observability plane, BENCH_slo.json).
#
# Usage:  scripts/ci.sh
#
# Every stage runs under a hard wall-clock cap (coreutils timeout —
# pytest-timeout isn't in the image) so a hung worker or deadlocked
# manager fails the gate instead of wedging CI.
#
# The throughput gate fails if invocations/s drops more than 30% below
# the committed baseline at the same workload size.  Refresh the
# baseline after intentional performance changes with:
#   PYTHONPATH=src REPRO_WRITE_BASELINE=1 python -m pytest -q benchmarks/bench_dispatch_throughput.py
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Hard caps per stage, seconds.  Generous: tier-1 normally finishes in
# ~2-3 min, the chaos/bench stages in well under 1 min each.
TIER1_CAP="${CI_TIER1_CAP:-1200}"
FAULTS_CAP="${CI_FAULTS_CAP:-600}"
BENCH_CAP="${CI_BENCH_CAP:-600}"
SMOKE_CAP="${CI_SMOKE_CAP:-600}"

# The throughput measurement runs FIRST: the test suites spawn hundreds
# of short-lived worker subprocesses and leave the scheduler noisy for a
# while afterwards, which depresses the measured invocations/s by up to
# ~40% on this single-CPU host and false-fails the regression gate.
echo "== dispatch-throughput smoke (cap ${BENCH_CAP}s) =="
timeout --signal=TERM --kill-after=30 "$BENCH_CAP" python - <<'GATE'
import sys

sys.path.insert(0, "benchmarks")
import _baseline

from repro.bench import dispatch_throughput

result = dispatch_throughput()
print(result.text)
v = result.values
if v["failed"]:
    print(f"FAIL: {v['failed']} invocations failed")
    sys.exit(1)

ok, message = _baseline.compare(
    "dispatch", v, "invocations_per_second", floor_ratio=0.7
)
print(message)
sys.exit(0 if ok else 1)
GATE

# Payload plane: warm-argument sweep (1 KiB – 8 MiB at the default
# scale).  Gates the zero-copy property directly — bytes copied per
# warm invocation must stay flat (within 10%) as the payload grows, and
# throughput must hold against the committed BENCH_payload.json
# baseline.  The full 5k-invocation / 64 MiB sweep runs under
# REPRO_BENCH_FULL=1 outside CI.
echo "== payload-plane smoke (cap ${BENCH_CAP}s) =="
timeout --signal=TERM --kill-after=30 "$BENCH_CAP" python - <<'GATE'
import sys

sys.path.insert(0, "benchmarks")
import _baseline

from repro.bench import payload_plane

result = payload_plane()
print(result.text)
v = result.values
if v["failed"]:
    print(f"FAIL: {v['failed']} invocations failed")
    sys.exit(1)
if v["shm"] and v["flatness_ratio"] > 1.10:
    print(f"FAIL: copied-bytes flatness {v['flatness_ratio']:.2f} > 1.10")
    sys.exit(1)

# Gate the 32 KiB descriptor-plane row, not the aggregate: overall
# inv/s is dominated by the 8 MiB row, which is memory-bandwidth bound
# and swings several-x with page-cache state on this single-CPU host.
# The floor is 0.6 (vs 0.7 for dispatch) for the same reason — the
# payload rows see ±40% scheduler noise across back-to-back runs.
ok, message = _baseline.compare(
    "payload", v, "inv_per_s_32KiB", floor_ratio=0.6
)
print(message)
sys.exit(0 if ok else 1)
GATE

# Sharded throughput: the same sleep-modeled workload run through one
# manager and through a 2-shard router with identical per-shard
# resources.  Gates the router's reason to exist — the sharded
# deployment must beat the single manager by ≥1.8× — plus a regression
# floor against BENCH_shard.json.  The router phase also declares and
# releases a payload through every shard, so the leaked-shm check at
# the end of this script covers router-mediated pins.
echo "== shard-throughput gate (cap ${BENCH_CAP}s) =="
timeout --signal=TERM --kill-after=30 "$BENCH_CAP" python - <<'GATE'
import sys

sys.path.insert(0, "benchmarks")
import _baseline

from repro.bench import shard_throughput

result = shard_throughput()
print(result.text)
v = result.values
if v["failed"]:
    print(f"FAIL: {v['failed']} invocations failed")
    sys.exit(1)
if v["shard_spread"] != 2:
    print("FAIL: ring homed every library on one shard")
    sys.exit(1)
if v["ratio"] < 1.8:
    print(f"FAIL: sharded/single ratio {v['ratio']:.2f} below the 1.8x gate")
    sys.exit(1)
print(f"sharded/single ratio {v['ratio']:.2f} >= 1.8")

ok, message = _baseline.compare(
    "shard", v, "sharded_inv_s", floor_ratio=0.7
)
print(message)
sys.exit(0 if ok else 1)
GATE

# Serving-layer policy gate: the property/regression suites for the
# pluggable policies (sticky affinity, prewarm predictor, fair-share
# admission), then the A/B harness replaying one Zipf-skewed workload
# under every policy.  The harness writes the scorecard
# (BENCH_policy.json) on each run; the gate reads the emitted deltas:
# warmth-ranked eviction must beat the reactive order by >=20 warm-hit
# points on the identical sequence, and fair-share admission must hold
# the starved tenants' p99 queue wait within 3x their fair-share value
# (the same burst with no hog tenant at all).
echo "== serving-policy suites (cap ${FAULTS_CAP}s) =="
# One scheduler path: every decision site asks the policy object; none
# may branch on its absence again.
if grep -nE 'policy is (not )?None' src/repro/engine/{scheduling,manager,router}.py; then echo "FAIL: a policy-is-None scheduler branch is back"; exit 1; fi
timeout --signal=TERM --kill-after=30 "$FAULTS_CAP" \
    python -m pytest -x -q tests/test_engine_policies.py \
    tests/test_policy_predictor.py tests/test_policy_warmhit.py

echo "== serving-policy A/B gate (cap ${BENCH_CAP}s) =="
timeout --signal=TERM --kill-after=30 "$BENCH_CAP" \
    env REPRO_BENCH_SMOKE=1 python - <<'GATE'
import sys

from repro.bench import policy_ab

result = policy_ab()
print(result.text)
v = result.values
if v["failed"]:
    print(f"FAIL: {v['failed']:.0f} policy-harness invocations failed")
    sys.exit(1)
if v["sticky_warm_delta"] < 0.20:
    print(
        f"FAIL: sticky warm-hit delta {v['sticky_warm_delta']:+.3f} "
        "below the +0.20 gate"
    )
    sys.exit(1)
if v["prewarm_warm_delta"] < 0.20:
    print(
        f"FAIL: prewarm warm-hit delta {v['prewarm_warm_delta']:+.3f} "
        "below the +0.20 gate"
    )
    sys.exit(1)
if v["fair_mouse_stretch"] > 3.0:
    print(
        f"FAIL: fair-share mouse p99 stretch {v['fair_mouse_stretch']:.2f} "
        "exceeds 3x the no-hog fair-share wait"
    )
    sys.exit(1)
print(
    f"sticky {v['sticky_warm_delta']:+.3f} / "
    f"prewarm {v['prewarm_warm_delta']:+.3f} warm-hit points over "
    f"reactive; fair mouse stretch {v['fair_mouse_stretch']:.2f}x <= 3x"
)
GATE

# Live-telemetry pipeline: perflog sampler + txn log + /metrics and
# /status server scraped mid-run, then the same workload timed in
# back-to-back telemetry-on/off pairs, gating the minimum pair delta
# (budget: CI_TELEMETRY_OVERHEAD_PCT, default 10% of dispatch time),
# plus one federation-on/off pair through a 2-shard router (budget:
# CI_FEDERATION_OVERHEAD_PCT, default 25%).
echo "== telemetry smoke (cap ${BENCH_CAP}s) =="
timeout --signal=TERM --kill-after=30 "$BENCH_CAP" \
    python scripts/telemetry_smoke.py

# Cluster observability + SLO scorecard: the PR-9 Zipf/fair workloads
# replayed through a 2-shard router with tracing, per-shard perflogs,
# and metrics federation all on.  Gates the trace integrity of the
# federated timeline directly — zero unparented spans, zero completed
# submissions missing a required span type — and that the fair policy
# keeps the mouse tenant's latency + error-rate SLOs met under the hog
# burst.  Writes BENCH_slo.json (per-tenant attainment + burn rates)
# on every run.
echo "== slo scorecard gate (cap ${BENCH_CAP}s) =="
timeout --signal=TERM --kill-after=30 "$BENCH_CAP" \
    env REPRO_BENCH_SMOKE=1 python - <<'GATE'
import sys

from repro.bench import slo_scorecard

result = slo_scorecard()
print(result.text)
v = result.values
if v["failed"]:
    print(f"FAIL: {v['failed']:.0f} router-harness submissions failed")
    sys.exit(1)
if v["unparented_spans"]:
    print(f"FAIL: {v['unparented_spans']:.0f} spans with no router_submit root")
    sys.exit(1)
if v["dropped_spans"]:
    print(
        f"FAIL: {v['dropped_spans']:.0f} completed submissions missing a "
        "required span (router_submit/router_hop/shard_queue/task_cost...)"
    )
    sys.exit(1)
if not v["fair_mouse_slo_met"]:
    print(
        "FAIL: mouse tenant SLOs not met under fair admission "
        f"(latency attainment {v['mouse.latency.attainment']:.3f}, "
        f"error-rate attainment {v['mouse.error_rate.attainment']:.3f})"
    )
    sys.exit(1)
print(
    f"trace health: {v['spans_total']:.0f} spans, 0 unparented, 0 dropped; "
    f"mouse SLOs met (latency {v['mouse.latency.attainment']:.3f} >= 0.90, "
    f"errors {v['mouse.error_rate.attainment']:.3f} >= 0.99)"
)
GATE

echo "== tier-1 test suite (cap ${TIER1_CAP}s) =="
timeout --signal=TERM --kill-after=30 "$TIER1_CAP" python -m pytest -x -q

echo "== fault-injection suite (cap ${FAULTS_CAP}s) =="
timeout --signal=TERM --kill-after=30 "$FAULTS_CAP" \
    python -m pytest -x -q tests/test_engine_faults.py

echo "== chaos smoke (cap ${BENCH_CAP}s) =="
timeout --signal=TERM --kill-after=30 "$BENCH_CAP" \
    python -m pytest -x -q benchmarks/bench_chaos.py

# Every experiment runs end to end with workloads clamped to ≤200
# invocations (REPRO_BENCH_SMOKE, see repro/bench/experiments.py);
# assertions that only hold at paper scale are skipped inside the tests.
# Catches import errors, API drift, and crashes across the whole suite.
echo "== benchmark smoke, all experiments at tiny scale (cap ${SMOKE_CAP}s) =="
timeout --signal=TERM --kill-after=30 "$SMOKE_CAP" \
    env REPRO_BENCH_SMOKE=1 python -m pytest -q benchmarks/ \
    --ignore=benchmarks/ladder

# The ladder's own tests (runner statistics, open-loop generator) sit
# outside tier-1 testpaths and have nothing to clamp, so they run once,
# here, without the smoke switch.
echo "== benchmark-ladder tests (cap ${SMOKE_CAP}s) =="
timeout --signal=TERM --kill-after=30 "$SMOKE_CAP" \
    python -m pytest -q benchmarks/ladder/test_ladder.py

# Shared-memory hygiene: after every test, fault, chaos, and router
# stage above no repro-pl-* segment may survive.  Segments are named
# globally, so this also covers pins taken inside shard subprocesses
# during the router-mediated runs (the shard-throughput gate and the
# router test suite both declare and release payloads through shards).
# Orphans from processes the fault stages SIGKILLed are reclaimed first
# (that path is itself under test); anything still present afterwards
# is a real leak in the payload plane.
echo "== leaked-shm check =="
python - <<'GATE'
import sys

from repro.engine import payloads

reaped = payloads.reap_orphans()
if reaped:
    print(f"reaped {reaped} orphaned segment(s) from killed processes")
leaked = payloads.list_segments()
if leaked:
    print(f"FAIL: leaked shared-memory segments: {leaked}")
    sys.exit(1)
print("no leaked payload segments")
GATE

echo "== ci passed =="
