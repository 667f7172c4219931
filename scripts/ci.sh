#!/usr/bin/env bash
# Repo CI gate.  Stages, in order:
#
#   1. tier-1 test suite
#   2. fault-injection suite
#   3. chaos smoke
#   4. paper-experiment smoke (every benchmarks/bench_*.py at <=200
#      invocations)
#   5. benchmark-ladder tests
#   6. one short ladder run — a crash check, compared against nothing
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
# One way to start a library: forked from the worker's template.  No
# per-instance command line, no child stderr on a pipe nobody drains,
# and the package __init__ files import nothing eagerly (a child entry
# point must not pay for the manager, the router or numpy).
if grep -nF -e '"--spec"' src/repro/engine/{worker,library_main}.py \
    || grep -nF 'subprocess.PIPE' src/repro/engine/worker.py \
    || grep -nE '^(from|import) repro\.' src/repro/{engine,util,obs,discover,serialize}/__init__.py | grep -vE ':(from|import) repro\.errors\b'; then
    echo "FAIL: a per-instance library start, a piped child stderr or an eager package import is back"; exit 1
fi
# One perf harness: no committed baseline files, no regression floors.
# (Last letters bracketed so the pattern cannot match this script.)
if grep -rnIE --exclude-dir=out 'floor_rati[o]|REPRO_WRITE_BASELIN[E]' src scripts tests examples benchmarks || compgen -G 'BENCH_*.json'; then echo "FAIL: the baseline-file perf harness is back; benchmarks/ladder/run.py is the one benchmark"; exit 1; fi

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

# One fixed ladder run in the form the benchmark driver uses.  Passes
# when it exits 0 and its last line is a JSON result with failed == 0.
# A 3 s window on a shared host is a crash check, not a measurement:
# the numbers it prints are compared against nothing.
echo "== benchmark-ladder smoke (cap ${BENCH_CAP}s) =="
ladder_out="$(timeout --signal=TERM --kill-after=30 "$BENCH_CAP" \
    python3 benchmarks/ladder/run.py --workload warm_bulk --seed 0 --seconds 3 --trace 0)"
printf '%s\n' "$ladder_out" | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
print("ladder smoke: attempted %(attempted)s, failed %(failed)s" % result)
sys.exit(1 if result["failed"] else 0)'

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
