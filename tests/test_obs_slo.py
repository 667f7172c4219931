"""SLO scoring on hand-built observation streams.

:mod:`repro.obs.slo` turns timestamped good/bad events into attainment,
a met/violated verdict and short/long error-budget burn rates.  Every
stream here is written out by hand, so each expected score is exact:
where ``met`` flips, which window a spike lands in, what "on budget"
reads as, and what an SLO nobody measured scores.
"""

import pytest

from repro.obs.metrics import MetricsRegistry, histogram_snapshot
from repro.obs.slo import (
    SLOBoard,
    SLOTarget,
    good_fraction_from_histogram,
    latency_events,
)


def _score(goal, events, registry=None):
    board = SLOBoard([SLOTarget("t", "latency", goal=goal)], registry=registry)
    board.observe_many("t", "latency", events)
    return board.evaluate()["t.latency"]


def _stream(n, bad):
    """``n`` events one second apart, bad at the timestamps in ``bad``."""
    return [(float(ts), ts not in bad) for ts in range(n)]


# -------------------------------------------------------------- attainment
@pytest.mark.parametrize("good_n, met", [(7, False), (8, True), (9, True)])
def test_attainment_is_good_fraction_and_met_flips_at_goal(good_n, met):
    result = _score(0.8, _stream(10, bad=set(range(good_n, 10))))
    assert result["n"] == 10
    assert result["attainment"] == good_n / 10
    assert result["met"] is met


def test_unmeasured_slo_is_not_met_and_divides_nothing():
    result = _score(0.9, [])
    assert result["n"] == 0
    assert result["attainment"] == 0.0
    assert result["met"] is False
    assert result["burn"] == {"short": 0.0, "long": 0.0}


def test_untargeted_observations_are_dropped_and_duplicates_rejected():
    board = SLOBoard([SLOTarget("t", "latency", goal=0.5)])
    board.observe("someone-else", "latency", 0.0, False)
    board.observe("t", "warm_hit", 0.0, False)
    assert board.evaluate()["t.latency"]["n"] == 0
    with pytest.raises(ValueError, match="duplicate"):
        SLOBoard([SLOTarget("t", "x", goal=0.5), SLOTarget("t", "x", goal=0.9)])
    with pytest.raises(ValueError, match="goal"):
        SLOTarget("t", "x", goal=0.0)


# -------------------------------------------------------------- burn rates
def test_late_spike_burns_the_short_window_hotter_than_the_long():
    # 100 s span, the last ten events bad: the trailing quarter holds all
    # ten among its 25 events, the whole run dilutes them to ten in 100.
    burn = _score(0.9, _stream(100, bad=set(range(90, 100))))["burn"]
    assert burn["short"] == pytest.approx((10 / 25) / 0.1)
    assert burn["long"] == pytest.approx((10 / 100) / 0.1)
    assert burn["short"] > burn["long"]


def test_early_spike_has_left_the_short_window():
    burn = _score(0.9, _stream(100, bad=set(range(10))))["burn"]
    assert burn["short"] == 0.0
    assert burn["long"] == pytest.approx(1.0)
    assert burn["long"] > burn["short"]


def test_exactly_on_budget_burns_at_one_in_both_windows():
    # One bad event in every ten, evenly spread: 10% bad against a 10%
    # budget, in the trailing quarter (ts >= 90: 3 of 30) as in the whole.
    result = _score(0.9, _stream(120, bad=set(range(9, 120, 10))))
    assert result["met"] is True
    assert result["burn"]["long"] == pytest.approx(1.0)
    assert result["burn"]["short"] == pytest.approx(1.0)


def test_goal_of_one_has_no_budget():
    assert _score(1.0, _stream(4, bad=set()))["burn"]["long"] == 0.0
    assert _score(1.0, _stream(4, bad={3}))["burn"]["long"] == 1e9


# ----------------------------------------------------------------- metrics
def test_scores_land_on_the_passed_registry():
    registry = MetricsRegistry()
    _score(0.9, _stream(10, bad={8, 9}), registry=registry)
    assert registry.gauges["slo.t.latency.attainment"].value == 0.8
    assert set(registry.gauges) == {
        "slo.t.latency.attainment",
        "slo.t.latency.burn.short",
        "slo.t.latency.burn.long",
    }
    assert registry.counters["slo.t.latency.violations"].value == 1
    # A met target raises no violation.
    quiet = MetricsRegistry()
    _score(0.5, _stream(10, bad={9}), registry=quiet)
    assert "slo.t.latency.violations" not in quiet.counters


def test_scorecard_is_flat_and_rounded():
    board = SLOBoard([SLOTarget("t", "error_rate", goal=0.5)])
    board.observe_many("t", "error_rate", _stream(3, bad={0}))
    assert board.scorecard() == {
        "t.error_rate.attainment": 0.6667,
        "t.error_rate.met": 1,
        "t.error_rate.n": 3,
        "t.error_rate.burn_short": 0.0,
        "t.error_rate.burn_long": 0.6667,
    }


# --------------------------------------------------------------- histogram
def test_good_fraction_from_histogram_interpolates_within_a_bucket():
    hist = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 0.5, 1.5, 1.5, 3.0, 3.0, 3.0, 3.0, 9.0, 9.0):
        hist.observe(value)
    snap = histogram_snapshot(hist)
    assert good_fraction_from_histogram(snap, 2.0) == 0.4  # two whole buckets
    assert good_fraction_from_histogram(snap, 3.0) == 0.6  # + half of (2, 4]
    # The overflow bucket never counts as good, whatever the threshold.
    assert good_fraction_from_histogram(snap, 1e6) == 0.8
    assert good_fraction_from_histogram(snap, 0.0) == 0.0


def test_good_fraction_from_empty_histogram_is_zero():
    snap = histogram_snapshot(MetricsRegistry().histogram("lat"))
    assert good_fraction_from_histogram(snap, 1.0) == 0.0


def test_latency_events_threshold_is_inclusive():
    assert latency_events([(0.0, 0.5), (1.0, 1.0), (2.0, 1.5)], 1.0) == [
        (0.0, True),
        (1.0, True),
        (2.0, False),
    ]
