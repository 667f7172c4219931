"""Pluggable serving-layer scheduling policies.

The paper's scheduler is purely *reactive*: a library is installed on
whichever worker its first invocation lands on, invocations fill
instances in deployment order, and the empty-library eviction of §3.5.2
reclaims whichever idle instance happens to be first in the bookkeeping
tables.  That is the base :class:`SchedulingPolicy` and the default.  It
is correct but leaves the serving-layer wins on the table that a
millions-of-users deployment needs: keeping a function's invocations on
workers that are already warm for it, pre-staging libraries ahead of
forecast demand, and keeping one hot tenant from starving everyone else.

This module is the strategy layer behind :class:`~repro.engine.scheduling.Placement`
and the manager's dispatch loop.  A policy never mutates placement state
— it only *orders candidates* (which worker for a new instance, which
instance for an invocation, which victim for an eviction, which dirty
queue to drain next) and answers advisory questions (should this library
be kept alive?  may this tenant grow?).  All resource commits, blame-set
filtering, and index maintenance stay in ``Placement``/``Manager``, so a
policy bug can reorder work but can never double-book a core or route a
retry back onto a blamed worker.

Policies
--------

``reactive`` (the default)
    The paper's scheduler, :class:`SchedulingPolicy` itself: ring-walk
    placement, deployment-order instance fill, first-idle eviction.  Its
    rules are pinned directly by the property test in
    ``tests/test_engine_policies.py``.

``sticky``
    Affinity routing (StickyInvoc, PAPERS.md).  Invocations pack onto
    the *warmest* instance (most invocations served) instead of
    deployment order; new instances of a library prefer workers that
    recently ran it; eviction victims are chosen by *least warmth*
    (lowest recent service) instead of table order, so a hot library's
    instances survive contention.  At the router level, plain tasks
    follow a function-name affinity map to the shard that last completed
    that function.

``prewarm``
    Sticky, plus predictive pre-warm/keep-alive driven by the arrival
    history of each library's submissions.  A per-library EWMA
    over inter-arrival gaps forecasts the next arrival; libraries with
    an imminent forecast are deferred as eviction victims, and libraries
    with no live instance are pre-staged ahead of the forecast arrival.

``fair``
    Per-tenant admission control with weighted fair queueing.  Dirty
    queues are drained in start-time fair order with a per-visit
    quantum, and a tenant may not grow new instances beyond its weighted
    fair share of cluster capacity while other tenants have queued work
    (work-conserving: the cap lifts the moment no one else is waiting).

Selection: ``Manager(policy=...)`` / ``Router(policy=...)`` accept a
policy name or instance; the ``REPRO_POLICY`` environment variable sets
the default for both (and is inherited by shard subprocesses); with
neither, the policy is ``reactive``.

Metrics: every manager exports ``policy.*`` instruments —
``policy.warm_hits`` / ``policy.cold_hits`` (warm-hit ratio),
``policy.prewarms`` / ``policy.prewarm_hits`` (prewarm precision), and a
``policy.queue_wait.<tenant>`` histogram per tenant (admission-control
p99 queue wait).  Retention quality is scored by the benchmark ladder's
``context_churn`` workload (``warm_hit_ratio``, ``library.deploys``,
``library.evictions``): ``python3 benchmarks/ladder/run.py --workload
context_churn``.
"""

from __future__ import annotations

import collections
import math
import os
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional

from repro.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.engine.resources import Resources
    from repro.engine.scheduling import LibraryInstance, Placement, ShardState
    from repro.obs.metrics import MetricsRegistry


# --------------------------------------------------------------------------
# Arrival history + forecasting
# --------------------------------------------------------------------------
class ArrivalHistory:
    """Online per-key arrival-rate estimator (EWMA over inter-arrival gaps).

    One instance tracks every library's submission stream: ``record`` is
    O(1) per arrival, and the estimator answers "when is this key's next
    arrival due?" — the primitive both keep-alive deferral and
    predictive pre-warming are built on.
    """

    def __init__(self, alpha: float = 0.3, min_observations: int = 3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise SchedulingError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.min_observations = min_observations
        self._last: Dict[str, float] = {}
        self._ewma: Dict[str, float] = {}
        self._count: Dict[str, int] = {}

    def record(self, key: str, now: float) -> None:
        last = self._last.get(key)
        if last is not None:
            gap = max(now - last, 1e-9)
            prev = self._ewma.get(key)
            self._ewma[key] = (
                gap if prev is None else self.alpha * gap + (1.0 - self.alpha) * prev
            )
        self._last[key] = now
        self._count[key] = self._count.get(key, 0) + 1

    def observations(self, key: str) -> int:
        return self._count.get(key, 0)

    def interarrival(self, key: str) -> Optional[float]:
        """EWMA of the gap between consecutive arrivals, seconds."""
        return self._ewma.get(key)

    def rate(self, key: str) -> float:
        """Estimated arrivals per second (0.0 until two arrivals seen)."""
        gap = self._ewma.get(key)
        return 1.0 / gap if gap else 0.0

    def predict_next(self, key: str) -> Optional[float]:
        """Forecast timestamp of the key's next arrival."""
        last, gap = self._last.get(key), self._ewma.get(key)
        if last is None or gap is None:
            return None
        return last + gap

    def expected_arrivals(self, key: str, now: float, horizon: float) -> float:
        """Forecast arrival count in ``[now, now+horizon)``; 0 when stale."""
        if not self.imminent(key, now, horizon):
            return 0.0
        return max(1.0, self.rate(key) * horizon)

    def imminent(
        self, key: str, now: float, window: float, *, grace: float = 4.0
    ) -> bool:
        """True when the key's next arrival is forecast within ``window``.

        Requires ``min_observations`` arrivals (one gap proves nothing),
        and treats a key as *stale* — not imminent — once it has been
        silent for ``grace`` times its typical gap: a library that
        stopped arriving must stop pinning resources, however fast its
        cadence used to be.
        """
        if self._count.get(key, 0) < self.min_observations:
            return False
        nxt = self.predict_next(key)
        if nxt is None:
            return False
        if now - self._last[key] > grace * self._ewma[key]:
            return False
        return nxt <= now + window

    def keys(self) -> List[str]:
        return list(self._last)


class WarmPoolPredictor:
    """Decides which libraries to pre-stage and which to keep alive.

    Thin, deterministic shim over :class:`ArrivalHistory`: ``keepalive``
    is the eviction-deferral lookahead, ``horizon`` the pre-warm
    lookahead.  Both decisions reduce to ``imminent`` checks so the
    regression tests in ``tests/test_policy_predictor.py`` can pin
    precision/recall on synthetic Poisson/diurnal/burst series.
    """

    def __init__(
        self,
        history: Optional[ArrivalHistory] = None,
        *,
        keepalive: float = 2.0,
        horizon: float = 1.0,
    ) -> None:
        self.history = history if history is not None else ArrivalHistory()
        self.keepalive = keepalive
        self.horizon = horizon

    def record(self, key: str, now: float) -> None:
        self.history.record(key, now)

    def should_keep_alive(self, key: str, now: float) -> bool:
        return self.history.imminent(key, now, self.keepalive)

    def should_prewarm(self, key: str, now: float) -> bool:
        return self.history.imminent(key, now, self.horizon)

    def forecast(self, key: str, now: float) -> float:
        return self.history.expected_arrivals(key, now, self.horizon)


# --------------------------------------------------------------------------
# Policy interface
# --------------------------------------------------------------------------
class SchedulingPolicy:
    """Base strategy: every hook reproduces the reactive scheduler.

    Subclasses override the ordering/advisory hooks they care about.
    The contract for the ordering hooks is *candidates in, preference
    out*: implementations must only reorder (or subset from) what the
    caller offered, never invent members — ``Placement`` re-checks
    resource fit and blame-set exclusion after the policy has spoken.
    """

    name = "reactive"

    def __init__(self) -> None:
        self.metrics: Optional["MetricsRegistry"] = None
        self._wait_hists: Dict[str, Any] = {}
        # library -> tenant, learned at submit time (defaults to the
        # library name itself: a single-tenant deployment degenerates to
        # per-library accounting with no configuration).
        self._tenants: Dict[str, str] = {}

    # -- wiring -------------------------------------------------------------
    def bind(self, metrics: "MetricsRegistry") -> None:
        """Attach the owning manager's metrics registry (policy.* names)."""
        self.metrics = metrics

    def tenant_of(self, library_name: str) -> str:
        return self._tenants.get(library_name, library_name)

    # -- candidate ordering (Placement) ------------------------------------
    def task_worker_order(
        self, placement: "Placement", key: str, resources: "Resources"
    ) -> Iterator[str]:
        """Worker preference for a plain task (blame filtering is the
        caller's job)."""
        return placement.ring.walk(key)

    def library_worker_order(
        self, placement: "Placement", library_name: str, resources: "Resources"
    ) -> Iterator[str]:
        """Worker preference for a new library instance."""
        return placement.ring.walk(library_name)

    def instance_order(
        self,
        placement: "Placement",
        library_name: str,
        instances: Iterable["LibraryInstance"],
    ) -> Iterable["LibraryInstance"]:
        """Preference among free instances of one library (index order =
        deployment order, the reactive behavior)."""
        return instances

    def select_victim(
        self,
        placement: "Placement",
        candidates: List["LibraryInstance"],
        now: float,
    ) -> Optional["LibraryInstance"]:
        """Which idle instance to reclaim.  ``candidates`` is never empty.

        Must return one of ``candidates`` (or ``None`` to veto — only do
        that when starving the requester is acceptable; the built-in
        policies always pick someone so dispatch can't wedge)."""
        return candidates[0]

    # -- event feed ---------------------------------------------------------
    def note_arrival(
        self, library_name: str, now: float, tenant: Optional[str] = None
    ) -> None:
        """A FunctionCall for ``library_name`` was submitted."""
        if tenant is not None:
            self._tenants[library_name] = tenant

    def note_dispatch(self, library_name: str, worker: str, now: float) -> None:
        """An invocation of ``library_name`` was dispatched to ``worker``."""

    def note_queue_wait(self, tenant: str, seconds: float) -> None:
        """Record one invocation's submit→dispatch wait for ``tenant``."""
        if self.metrics is None:
            return
        hist = self._wait_hists.get(tenant)
        if hist is None:
            hist = self._wait_hists[tenant] = self.metrics.histogram(
                f"policy.queue_wait.{tenant}"
            )
        hist.observe(seconds)

    # -- predictive pre-warm / keep-alive -----------------------------------
    def prewarm_candidates(
        self,
        placement: "Placement",
        libraries: Dict[str, Any],
        now: float,
    ) -> List[str]:
        """Library names to pre-stage ahead of forecast demand."""
        return []

    # -- admission control ---------------------------------------------------
    def next_dirty(self, state: "ShardState") -> Optional[str]:
        """Which dirty library queue to drain next (None = caller's pick)."""
        return None

    def quantum(self, library_name: str) -> Optional[int]:
        """Max invocations to dispatch per queue visit (None = drain)."""
        return None

    def note_service(self, tenant: str, count: int) -> None:
        """``count`` invocations of ``tenant`` were dispatched this visit."""

    def may_deploy(
        self,
        library_name: str,
        resources: "Resources",
        placement: "Placement",
        state: "ShardState",
    ) -> bool:
        """May ``library_name`` grow a new instance right now?"""
        return True

    # -- router (shard-level) hooks -----------------------------------------
    def shard_order(self, key: str, candidates: Iterable[str]) -> Iterable[str]:
        """Shard preference for a plain task keyed by function name."""
        return candidates

    def note_shard_result(self, key: str, shard: str) -> None:
        """A plain task keyed by ``key`` completed on ``shard``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.name!r}>"


class StickyPolicy(SchedulingPolicy):
    """Affinity routing: route to warmth, evict coldness.

    * invocations prefer the instance with the most service history
      (``total_served``, then in-flight occupancy) — warm contexts soak
      up load while fresh instances only catch overflow;
    * new instances of a library prefer workers that ran it most
      recently (re-deploys land where the image/env state already was);
    * eviction victims are ranked by *warmth score* — an instance of a
      library dispatched within ``keepalive`` seconds scores its
      ``total_served``, anything silent longer scores 0 — and the
      coldest loses.  Some candidate is always returned, so keep-alive
      can defer but never deadlock the §3.5.2 reclamation;
    * at the router, plain tasks follow a per-function affinity map to
      the shard that last completed that function (blamed shards are
      filtered by the router, as always).
    """

    name = "sticky"

    def __init__(self, *, keepalive: float = 2.0, max_affinity: int = 4096) -> None:
        super().__init__()
        self.keepalive = keepalive
        self._max_affinity = max_affinity
        # library -> worker -> monotonic stamp of the last dispatch there.
        self._worker_affinity: Dict[str, Dict[str, float]] = {}
        # library -> monotonic stamp of the last dispatch anywhere.
        self._last_dispatch: Dict[str, float] = {}
        # function-name key -> shard that last completed it (router level).
        self._shard_affinity: "collections.OrderedDict[str, str]" = (
            collections.OrderedDict()
        )

    # -- ordering -----------------------------------------------------------
    def instance_order(self, placement, library_name, instances):
        return sorted(
            instances,
            key=lambda i: (-i.total_served, -i.used_slots, i.instance_id),
        )

    def library_worker_order(self, placement, library_name, resources):
        affinity = self._worker_affinity.get(library_name)
        ring = placement.ring.walk(library_name)
        if not affinity:
            return ring

        def ordered() -> Iterator[str]:
            preferred = sorted(affinity, key=lambda w: -affinity[w])
            seen = set()
            for wname in preferred:
                if wname in placement.workers and wname not in seen:
                    seen.add(wname)
                    yield wname
            for wname in ring:
                if wname not in seen:
                    seen.add(wname)
                    yield wname

        return ordered()

    def warmth(self, inst: "LibraryInstance", now: float) -> float:
        """Eviction score: recent service counts, stale history doesn't."""
        last = self._last_dispatch.get(inst.library_name)
        if last is None or now - last > self.keepalive:
            return 0.0
        return float(inst.total_served + inst.used_slots)

    def select_victim(self, placement, candidates, now):
        return min(
            candidates,
            key=lambda i: (
                self.warmth(i, now),
                self._last_dispatch.get(i.library_name, 0.0),
                i.instance_id,
            ),
        )

    # -- event feed ---------------------------------------------------------
    def note_dispatch(self, library_name, worker, now):
        self._last_dispatch[library_name] = now
        per_lib = self._worker_affinity.setdefault(library_name, {})
        per_lib[worker] = now
        if len(per_lib) > 8:  # keep only the freshest handful per library
            for stale in sorted(per_lib, key=per_lib.get)[: len(per_lib) - 8]:
                del per_lib[stale]

    # -- router -------------------------------------------------------------
    def shard_order(self, key, candidates):
        home = self._shard_affinity.get(key)
        # Materialize: candidates may be a one-shot ring iterator.
        names = list(candidates)
        if home is None or home not in names:
            return names
        return [home] + [s for s in names if s != home]

    def note_shard_result(self, key, shard):
        self._shard_affinity[key] = shard
        self._shard_affinity.move_to_end(key)
        while len(self._shard_affinity) > self._max_affinity:
            self._shard_affinity.popitem(last=False)


class PrewarmPolicy(StickyPolicy):
    """Sticky affinity plus predictive pre-warm and forecast keep-alive.

    Arrival stamps feed a per-library EWMA (:class:`ArrivalHistory`);
    a library whose next arrival is forecast within ``keepalive`` is
    deferred as an eviction victim even if it is momentarily idle, and a
    library with an imminent forecast but no live instance is pre-staged
    (``policy.prewarms``; a pre-staged instance that catches its
    forecast arrival counts into ``policy.prewarm_hits`` — the precision
    metric).
    """

    name = "prewarm"

    def __init__(
        self,
        *,
        keepalive: float = 2.0,
        horizon: float = 1.0,
        predictor: Optional[WarmPoolPredictor] = None,
    ) -> None:
        super().__init__(keepalive=keepalive)
        self.predictor = (
            predictor
            if predictor is not None
            else WarmPoolPredictor(keepalive=keepalive, horizon=horizon)
        )

    def note_arrival(self, library_name, now, tenant=None):
        super().note_arrival(library_name, now, tenant)
        self.predictor.record(library_name, now)

    def warmth(self, inst, now):
        # Forecast beats history: an idle instance whose next arrival is
        # due within the keep-alive window is worth at least its served
        # count plus a large margin over any non-imminent sibling.
        base = super().warmth(inst, now)
        if self.predictor.should_keep_alive(inst.library_name, now):
            return base + 1e6
        return base

    def prewarm_candidates(self, placement, libraries, now):
        out: List[str] = []
        for name in libraries:
            if not self.predictor.should_prewarm(name, now):
                continue
            # Only the 0 -> 1 transition is predictive territory: once an
            # instance exists, reactive scaling covers additional demand.
            if any(
                inst.library_name == name
                for slot in placement.workers.values()
                for inst in slot.libraries.values()
            ):
                continue
            out.append(name)
        return out


class FairSharePolicy(SchedulingPolicy):
    """Per-tenant admission control with weighted fair queueing.

    Two levers, both work-conserving:

    * **drain order + quantum** — dirty library queues are visited in
      start-time fair order over their tenants (virtual time advances by
      ``dispatched / weight`` per visit), at most ``quantum``
      invocations per visit, so a deep queue yields the dispatch loop to
      other tenants instead of draining to exhaustion;
    * **instance-share cap** — while *other* tenants have queued work, a
      tenant may not grow beyond ``max(1, floor(capacity × share))``
      instances, where capacity is how many such instances the current
      fleet could hold and share is its weight over the weights of all
      tenants with queued work.  The moment no one else is waiting the
      cap lifts (an idle cluster always serves whoever is asking).

    Tenant identity comes from ``task.tenant`` (default: the library
    name).  Weights default to 1.0; set them via ``set_weight``.
    """

    name = "fair"

    def __init__(self, *, quantum: int = 4) -> None:
        super().__init__()
        if quantum < 1:
            raise SchedulingError("quantum must be >= 1")
        self._quantum = quantum
        self._weights: Dict[str, float] = {}
        self._vfinish: Dict[str, float] = {}
        self._vtime = 0.0

    def set_weight(self, tenant: str, weight: float) -> None:
        if weight <= 0.0:
            raise SchedulingError("tenant weight must be positive")
        self._weights[tenant] = weight

    def weight(self, tenant: str) -> float:
        return self._weights.get(tenant, 1.0)

    # -- drain order --------------------------------------------------------
    def next_dirty(self, state):
        dirty = state.dirty_libraries
        if not dirty:
            return None
        return min(
            dirty,
            key=lambda name: (
                self._vfinish.get(self.tenant_of(name), 0.0),
                name,
            ),
        )

    def quantum(self, library_name):
        return self._quantum

    def note_service(self, tenant, count):
        if count <= 0:
            return
        start = max(self._vtime, self._vfinish.get(tenant, 0.0))
        self._vfinish[tenant] = start + count / self.weight(tenant)
        self._vtime = start

    # -- instance-share cap --------------------------------------------------
    def may_deploy(self, library_name, resources, placement, state):
        tenant = self.tenant_of(library_name)
        waiting = {
            self.tenant_of(name)
            for name, queue in state.pending_invocations.items()
            if queue
        }
        waiting.add(tenant)
        if len(waiting) <= 1:
            return True  # nobody else is asking; take the whole cluster
        capacity = self._instance_capacity(placement, resources)
        if capacity <= 0:
            return True  # can't size the fleet; never wedge on a guess
        total_weight = sum(self.weight(t) for t in waiting)
        share = self.weight(tenant) / total_weight
        allowed = max(1, math.floor(capacity * share))
        mine = sum(
            1
            for slot in placement.workers.values()
            for inst in slot.libraries.values()
            if self.tenant_of(inst.library_name) == tenant
        )
        return mine < allowed

    @staticmethod
    def _instance_capacity(placement: "Placement", resources: "Resources") -> int:
        """How many ``resources``-sized instances the whole fleet can hold."""
        total = 0
        for slot in placement.workers.values():
            fits = math.inf
            pool_total = slot.pool.total
            for dim in ("cores", "memory", "disk"):
                need = getattr(resources, dim)
                if need > 0:
                    fits = min(fits, getattr(pool_total, dim) // need)
            if fits is not math.inf:
                total += int(fits)
        return total


# --------------------------------------------------------------------------
# Selection
# --------------------------------------------------------------------------
POLICIES: Dict[str, Any] = {
    "reactive": SchedulingPolicy,
    "sticky": StickyPolicy,
    "prewarm": PrewarmPolicy,
    "fair": FairSharePolicy,
}


def resolve_policy(spec: "str | SchedulingPolicy | None") -> SchedulingPolicy:
    """Turn a config value into a policy instance.

    ``None`` consults ``REPRO_POLICY``; unset or empty means
    ``reactive``.  Instances pass through, names look up
    :data:`POLICIES`.
    """
    if spec is None:
        spec = os.environ.get("REPRO_POLICY", "").strip()
    if isinstance(spec, SchedulingPolicy):
        return spec
    try:
        factory = POLICIES[spec.lower() or "reactive"]
    except KeyError:
        raise SchedulingError(
            f"unknown scheduling policy {spec!r}; choose from "
            f"{sorted(POLICIES)} (or unset REPRO_POLICY for reactive)"
        ) from None
    return factory()
