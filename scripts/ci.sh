#!/usr/bin/env bash
# Repo CI gate.  Stages, in order:
#
#   0. grep guards and the reach check (scripts/reach.py)
#   1. tier-1 test suite
#   2. fault-injection suite
#   3. chaos smoke
#   4. paper-experiment smoke (every benchmarks/bench_*.py at <=200
#      invocations)
#   5. benchmark-ladder tests
#   6. two short ladder runs (warm_bulk, payload_rw) — crash checks,
#      compared against nothing
#   7. leaked-shm check
#   8. source tree untouched
#
# Usage:  scripts/ci.sh
#
# CI checks behaviour; it measures nothing.  "How fast is it" has one
# answer, `python3 benchmarks/ladder/run.py` (see BENCHMARK.json and
# benchmarks/ladder/README.md), and a performance claim is made from
# alternating parent/change pairs of that, never from a CI pass.
#
# Every stage runs under a hard wall-clock cap (coreutils timeout —
# pytest-timeout isn't in the image) so a hung worker or deadlocked
# manager fails the gate instead of wedging CI.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Hard caps per stage, seconds.  Generous: tier-1 normally finishes in
# ~3 min, the chaos/bench stages in well under 1 min each.
TIER1_CAP="${CI_TIER1_CAP:-1200}"
FAULTS_CAP="${CI_FAULTS_CAP:-600}"
BENCH_CAP="${CI_BENCH_CAP:-600}"
SMOKE_CAP="${CI_SMOKE_CAP:-600}"

tree_state() { git status --porcelain 2>/dev/null || true; }
tree_before="$(tree_state)"

# One scheduler path: every decision site asks the policy object; none
# may branch on its absence again.
if grep -nE 'policy is (not )?None' src/repro/engine/{scheduling,manager,router}.py; then echo "FAIL: a policy-is-None scheduler branch is back"; exit 1; fi
# One event loop: engine/loop.py owns the only selector, and only
# messages.py may look inside a Connection's receive buffer.
if grep -nE 'select\.select\(|\._recv_buffer|\._recv_pos' src/repro/engine/*.py | grep -v '^src/repro/engine/messages\.py:' \
    || grep -nE 'selectors\.DefaultSelector\(' src/repro/engine/*.py | grep -v '^src/repro/engine/loop\.py:'; then
    echo "FAIL: a hand-rolled selector loop is back; repro/engine/loop.py is the one event loop"; exit 1
fi
# Peer transfers run on their owner's event loop (engine/transfer.py):
# no thread under engine/, and neither blocking transfer server nor
# blocking fetch is back.
if grep -rnE --include='*.py' 'threading|_TransferServer|_BlobServer|_fetch_blob' src/repro/engine/; then
    echo "FAIL: a thread or a blocking peer transfer is back under repro/engine"; exit 1
fi
# A library instance dials the manager's numeric address with a plain
# connect.  Anything that resolves names first loads glibc's name-service
# machinery into the freshly forked process: 3.1-3.4 ms of CPU per
# instance, measured on a 2-vCPU host, against 0.12 ms for the connect
# itself — paid on every cold start.
if grep -nE 'create_connection|messages\.connect|getaddrinfo|gethostbyname' src/repro/engine/library_main.py; then
    echo "FAIL: library_main.py resolves a name; instances connect to a numeric (ip, port)"; exit 1
fi
# One way to start a library: forked from the worker's template.  No
# per-instance command line, no child stderr (library, task, worker or
# shard) on a pipe nobody drains,
# and the package __init__ files import nothing eagerly (a child entry
# point must not pay for the manager, the router or numpy).
if grep -nF -e '"--spec"' src/repro/engine/{worker,library_main}.py \
    || grep -nF 'subprocess.PIPE' src/repro/engine/{worker,factory,router}.py \
    || grep -nE '^(from|import) repro\.' src/repro/{engine,util,obs,discover,serialize}/__init__.py | grep -vE ':(from|import) repro\.errors\b'; then
    echo "FAIL: a per-instance library start, a piped child stderr or an eager package import is back"; exit 1
fi
# One invocation path: every invocation travels on its instance's own
# link to the manager, and the worker relays nothing — no invocation
# handler in the worker, no args file between a worker and an instance.
if grep -nE '_on_invocation|unpack_invocations|_finish_invocation|invocation_batch' src/repro/engine/worker.py \
    || grep -nF 'ARGS_FILE' src/repro/engine/library_main.py; then
    echo "FAIL: a worker invocation relay is back; every invocation travels on its instance's link"; exit 1
fi
# One perf harness: no committed baseline files, no regression floors.
# (Last letters bracketed so the pattern cannot match this script.)
if grep -rnIE --exclude-dir=out 'floor_rati[o]|REPRO_WRITE_BASELIN[E]' src scripts tests examples benchmarks || compgen -G 'BENCH_*.json'; then echo "FAIL: the baseline-file perf harness is back; benchmarks/ladder/run.py is the one benchmark"; exit 1; fi

# Keep only what a product path runs: every module under src/repro and
# every top-level function or class in it is reached from a product root
# (scripts/reach.py: a static import walk, no processes).
if ! python3 scripts/reach.py; then echo "FAIL: code no product root reaches is back"; exit 1; fi

echo "== tier-1 test suite (cap ${TIER1_CAP}s) =="
timeout --signal=TERM --kill-after=30 "$TIER1_CAP" python -m pytest -x -q

echo "== fault-injection suite (cap ${FAULTS_CAP}s) =="
timeout --signal=TERM --kill-after=30 "$FAULTS_CAP" \
    python -m pytest -x -q tests/test_engine_faults.py

echo "== chaos smoke (cap ${BENCH_CAP}s) =="
timeout --signal=TERM --kill-after=30 "$BENCH_CAP" \
    python -m pytest -x -q benchmarks/bench_chaos.py

# Every paper experiment runs end to end with workloads clamped to ≤200
# invocations (REPRO_BENCH_SMOKE, see repro/bench/experiments.py);
# assertions that only hold at paper scale are skipped inside the tests.
# Catches import errors, API drift, and crashes across the whole suite.
echo "== paper-experiment smoke, all experiments at tiny scale (cap ${SMOKE_CAP}s) =="
timeout --signal=TERM --kill-after=30 "$SMOKE_CAP" \
    env REPRO_BENCH_SMOKE=1 python -m pytest -q benchmarks/ \
    --ignore=benchmarks/ladder

# The ladder's own tests (runner statistics, open-loop generator) sit
# outside tier-1 testpaths and have nothing to clamp, so they run once,
# here, without the smoke switch.
echo "== benchmark-ladder tests (cap ${SMOKE_CAP}s) =="
timeout --signal=TERM --kill-after=30 "$SMOKE_CAP" \
    python -m pytest -q benchmarks/ladder/test_ladder.py

# Fixed ladder runs in the one-run form BENCHMARK.json declares.  Each passes
# when it exits 0 and its last line is a JSON result with failed == 0.
# A 3 s window on a shared host is a crash check, not a measurement:
# the numbers it prints are compared against nothing.  payload_rw runs
# the shared-memory argument and result lifecycle end to end, ahead of
# the leaked-shm check below.
echo "== benchmark-ladder smoke (cap ${BENCH_CAP}s per run) =="
for workload in warm_bulk payload_rw; do
    ladder_out="$(timeout --signal=TERM --kill-after=30 "$BENCH_CAP" \
        python3 benchmarks/ladder/run.py --workload "$workload" --seed 0 --seconds 3 --trace 0)"
    printf '%s\n' "$ladder_out" | tail -n 1 | WORKLOAD="$workload" python3 -c '
import json, os, sys
result = json.loads(sys.stdin.read())
print("ladder smoke %s: attempted %s, failed %s"
      % (os.environ["WORKLOAD"], result["attempted"], result["failed"]))
sys.exit(1 if result["failed"] else 0)'
done

# Shared-memory hygiene: after every test, fault, chaos, and router
# stage above no repro-pl-* segment may survive.  Segments are named
# globally, so this also covers pins taken inside shard subprocesses
# during the router-mediated runs (the router test suite declares and
# releases payloads through shards).
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

# Nothing above may write into the source tree: on a clean checkout
# `git status --porcelain` prints nothing before and nothing after.
echo "== source tree untouched =="
tree_after="$(tree_state)"
if [ "$tree_after" != "$tree_before" ]; then
    echo "FAIL: a CI stage changed the source tree:"
    diff <(printf '%s\n' "$tree_before") <(printf '%s\n' "$tree_after") || true
    exit 1
fi

echo "== ci passed =="
