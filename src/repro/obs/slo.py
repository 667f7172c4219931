"""Declarative per-tenant SLOs with multi-window burn rates.

The serverless-reuse literature treats warm-hit ratio and keep-alive
efficiency as *scored* quantities, not just plotted ones; this module is
the scoring side of the PR-10 observability plane.  An
:class:`SLOTarget` names a tenant, an objective, and the fraction of
good events the tenant is owed (the *goal*); an :class:`SLOBoard`
ingests timestamped good/bad observations — derived from perflog
samples, txnlog transitions, task timelines, or
``Histogram``-bucket estimates (:func:`good_fraction_from_histogram`) —
and evaluates:

- **attainment**: the good fraction over the full observation span, met
  when ``attainment >= goal``.
- **burn rates**: for each window (a trailing fraction of the span),
  the rate at which the error budget ``1 - goal`` is being consumed —
  burn 1.0 means "exactly on budget", 2.0 means "burning budget twice
  as fast as allowed".  Two windows (short and long, the classic
  multi-window alert pair) distinguish a transient spike from a
  sustained breach: page when *both* burn hot.

Results are emitted as ``slo.*`` gauges/counters on a
:class:`~repro.obs.metrics.MetricsRegistry` so the federation layer
exports them on ``/metrics``, and as a flat, JSON-ready
:meth:`SLOBoard.scorecard` dict.

Objectives are conventions, not an enum — the board only needs the
good/bad stream.  Three common ones:

- ``latency``: good = the task's latency was under the tenant's bound.
- ``warm_hit``: good = the invocation landed on a warm instance.
- ``error_rate``: good = the task completed without error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry

# Trailing-window fractions of the observed span used for burn rates.
# (name, fraction): "short" reacts to what is happening right now,
# "long" to the run as a whole.
BURN_WINDOWS: Tuple[Tuple[str, float], ...] = (("short", 0.25), ("long", 1.0))


@dataclass(frozen=True)
class SLOTarget:
    """One tenant's objective: at least ``goal`` of events must be good.

    ``threshold`` is the objective's per-event parameter (the latency
    bound in seconds, for example) — carried for reporting; the board
    itself only sees the good/bad stream the caller derived with it.
    """

    tenant: str
    objective: str
    goal: float
    threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.goal <= 1.0:
            raise ValueError(f"goal must be in (0, 1], got {self.goal}")

    @property
    def key(self) -> str:
        return f"{self.tenant}.{self.objective}"


class SLOBoard:
    """Ingests (ts, good) observations and scores them against targets."""

    def __init__(
        self,
        targets: Iterable[SLOTarget],
        *,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.targets: Dict[str, SLOTarget] = {}
        for target in targets:
            if target.key in self.targets:
                raise ValueError(f"duplicate SLO target {target.key!r}")
            self.targets[target.key] = target
        self.registry = registry
        self._observations: Dict[str, List[Tuple[float, bool]]] = {
            key: [] for key in self.targets
        }

    def observe(self, tenant: str, objective: str, ts: float, good: bool) -> None:
        """Record one event for a tenant's objective (untargeted = dropped)."""
        obs = self._observations.get(f"{tenant}.{objective}")
        if obs is not None:
            obs.append((float(ts), bool(good)))

    def observe_many(
        self, tenant: str, objective: str, events: Iterable[Tuple[float, bool]]
    ) -> None:
        for ts, good in events:
            self.observe(tenant, objective, ts, good)

    def evaluate(self) -> Dict[str, Dict[str, Any]]:
        """Score every target; emits ``slo.*`` metrics when wired.

        Returns ``{target.key: {"attainment", "met", "n", "burn": {...},
        "goal", "threshold"}}``.  A target with no observations scores
        attainment 0.0 and ``met=False`` — an SLO nobody measured is not
        being met, it is being ignored.
        """
        results: Dict[str, Dict[str, Any]] = {}
        for key, target in sorted(self.targets.items()):
            observations = sorted(self._observations[key])
            n = len(observations)
            good_n = sum(1 for _, good in observations if good)
            attainment = good_n / n if n else 0.0
            met = n > 0 and attainment >= target.goal
            burn = {
                name: self._burn_rate(observations, target.goal, fraction)
                for name, fraction in BURN_WINDOWS
            }
            results[key] = {
                "tenant": target.tenant,
                "objective": target.objective,
                "goal": target.goal,
                "threshold": target.threshold,
                "n": n,
                "attainment": attainment,
                "met": met,
                "burn": burn,
            }
            if self.registry is not None:
                self.registry.gauge(f"slo.{key}.attainment").set(attainment)
                for name, rate in burn.items():
                    self.registry.gauge(f"slo.{key}.burn.{name}").set(rate)
                if n and not met:
                    self.registry.counter(f"slo.{key}.violations").inc()
        return results

    @staticmethod
    def _burn_rate(
        observations: Sequence[Tuple[float, bool]],
        goal: float,
        window_fraction: float,
    ) -> float:
        """Error-budget burn over the trailing window of the span.

        ``bad_fraction / (1 - goal)``: 1.0 consumes the budget exactly,
        <1.0 is sustainable, >1.0 is a breach in the making.  A goal of
        1.0 has no budget, so any bad event burns infinitely fast —
        capped to a large finite number to stay JSON-serializable.
        """
        if not observations:
            return 0.0
        first_ts = observations[0][0]
        last_ts = observations[-1][0]
        span = max(last_ts - first_ts, 0.0)
        cutoff = last_ts - span * window_fraction
        window = [(ts, good) for ts, good in observations if ts >= cutoff]
        if not window:
            return 0.0
        bad_fraction = sum(1 for _, good in window if not good) / len(window)
        budget = 1.0 - goal
        if budget <= 0.0:
            return 0.0 if bad_fraction == 0.0 else 1e9
        return bad_fraction / budget

    def scorecard(self) -> Dict[str, Any]:
        """Flat, JSON-ready view: one key per score, 4-decimal floats."""
        flat: Dict[str, Any] = {}
        for key, result in self.evaluate().items():
            flat[f"{key}.attainment"] = round(result["attainment"], 4)
            flat[f"{key}.met"] = int(result["met"])
            flat[f"{key}.n"] = result["n"]
            for name, rate in result["burn"].items():
                flat[f"{key}.burn_{name}"] = round(min(rate, 1e9), 4)
        return flat


def good_fraction_from_histogram(
    hist: Dict[str, Any], threshold: float
) -> float:
    """Estimated fraction of observations at or under ``threshold``.

    Works on a ``Histogram`` snapshot entry (``bounds``/``counts``/
    ``count``) with the same uniform-within-bucket interpolation
    ``Histogram.quantile`` uses, so an SLO can be scored from a scraped
    ``/metrics`` histogram without the raw samples.  The overflow bucket
    contributes nothing below any finite threshold — a conservative
    (pessimistic) estimate, which is the right bias for an SLO.
    """
    count = int(hist.get("count", 0))
    if count <= 0:
        return 0.0
    bounds = [float(b) for b in hist["bounds"]]
    counts = [int(c) for c in hist["counts"]]
    good = 0.0
    lower = 0.0
    for bound, bucket_count in zip(bounds, counts):
        if threshold >= bound:
            good += bucket_count
        elif threshold > lower:
            good += bucket_count * (threshold - lower) / (bound - lower)
            break
        else:
            break
        lower = bound
    return min(1.0, good / count)


def latency_events(
    latencies: Iterable[Tuple[float, float]], threshold: float
) -> List[Tuple[float, bool]]:
    """Map ``(ts, seconds)`` latency samples onto good/bad events."""
    return [(ts, seconds <= threshold) for ts, seconds in latencies]
