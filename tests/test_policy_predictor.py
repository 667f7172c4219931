"""Deterministic-seed regression tests for the prewarm predictor.

Three synthetic arrival shapes — Poisson, diurnal (day/night), bursty —
are generated from fixed seeds (:func:`repro.util.rng.seeded_rng`) and
replayed through :class:`~repro.engine.policies.ArrivalHistory` /
:class:`~repro.engine.policies.WarmPoolPredictor` exactly as the live
manager feeds them.  Each test pins forecast precision/recall bounds:
an online one-step-ahead "will an arrival land within the window?"
prediction evaluated against what the series actually did next.  The
bounds are regression floors for the EWMA estimator, not aspirations —
if a refactor moves them, the predictor's behavior changed.
"""

import pytest

from repro.engine.policies import ArrivalHistory, WarmPoolPredictor
from repro.util.rng import seeded_rng


def one_step_scores(stamps, *, window, min_obs=3):
    """Online precision/recall of ``imminent`` over one arrival series.

    After recording arrival ``i-1`` the predictor is asked, at that very
    moment, whether another arrival is due within ``window``; the truth
    is whether ``stamps[i] - stamps[i-1] <= window``.
    """
    history = ArrivalHistory(min_observations=min_obs)
    tp = fp = fn = tn = 0
    for i, stamp in enumerate(stamps):
        if i > min_obs:
            now = stamps[i - 1]
            predicted = history.imminent("k", now, window)
            actual = (stamp - now) <= window
            if predicted and actual:
                tp += 1
            elif predicted:
                fp += 1
            elif actual:
                fn += 1
            else:
                tn += 1
        history.record("k", stamp)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall, (tp, fp, fn, tn)


# ------------------------------------------------------------------ poisson
def test_poisson_arrivals_high_recall_and_precision():
    rng = seeded_rng("policy-predictor", "poisson")
    gaps = rng.exponential(0.5, size=300)  # rate 2/s
    stamps, t = [], 0.0
    for gap in gaps:
        t += float(gap)
        stamps.append(t)
    precision, recall, _ = one_step_scores(stamps, window=1.0)
    # P(exp(2) gap <= 1.0) ~ 0.86; the EWMA predicts "imminent" for
    # nearly every step, so precision rides the base rate and recall
    # loses only the rare streak of long gaps that stales the forecast.
    assert precision >= 0.80
    assert recall >= 0.90


def test_poisson_forecast_values_track_rate():
    rng = seeded_rng("policy-predictor", "poisson-rate")
    stamps, t = [], 0.0
    for gap in rng.exponential(0.25, size=400):  # rate 4/s
        t += float(gap)
        stamps.append(t)
    history = ArrivalHistory()
    for stamp in stamps:
        history.record("k", stamp)
    assert history.rate("k") == pytest.approx(4.0, rel=0.5)
    nxt = history.predict_next("k")
    assert stamps[-1] < nxt <= stamps[-1] + 2.0


# ------------------------------------------------------------------ diurnal
def _diurnal_series(days=3, per_day=60, day_gap=0.2, night=50.0, jitter=0.02):
    rng = seeded_rng("policy-predictor", "diurnal")
    stamps, t = [], 0.0
    for _ in range(days):
        for _ in range(per_day):
            t += day_gap + float(rng.uniform(-jitter, jitter))
            stamps.append(t)
        t += night
    return stamps


def test_diurnal_recall_within_day_and_no_night_pinning():
    stamps = _diurnal_series()
    precision, recall, _ = one_step_scores(stamps, window=0.5)
    # Misses cluster at dawn (EWMA still digesting the night gap) and the
    # single false positive per dusk; the bulk of each day is covered.
    assert precision >= 0.90
    assert recall >= 0.70

    history = ArrivalHistory()
    for stamp in stamps[:60]:  # exactly one day
        history.record("k", stamp)
    day_end = stamps[59]
    # Mid-day: next arrival is forecast imminently.
    assert history.imminent("k", day_end, 1.0)
    # Deep in the night the forecast goes stale -- keep-alive must let
    # go rather than pin a library through an 8-hour trough.
    assert not history.imminent("k", day_end + 25.0, 1.0)


# ------------------------------------------------------------------- bursts
def _burst_series(bursts=5, per_burst=40, burst_gap=0.05, lull=20.0, jitter=0.005):
    rng = seeded_rng("policy-predictor", "burst")
    stamps, t = [], 0.0
    for _ in range(bursts):
        for _ in range(per_burst):
            t += burst_gap + float(rng.uniform(-jitter, jitter))
            stamps.append(t)
        t += lull
    return stamps


def test_burst_precision_stays_high_across_lulls():
    stamps = _burst_series()
    precision, recall, counts = one_step_scores(stamps, window=0.2)
    # One false positive per burst end (the predictor cannot know the
    # burst just died) against ~25 true positives per burst.
    assert precision >= 0.90
    assert recall >= 0.60
    tp, fp, _fn, _tn = counts
    assert fp <= 6  # at most ~one per lull boundary


def test_burst_keepalive_decision_flips_with_the_burst():
    stamps = _burst_series(bursts=1)
    predictor = WarmPoolPredictor(keepalive=0.2)
    for stamp in stamps:
        predictor.record("k", stamp)
    end = stamps[-1]
    assert predictor.should_keep_alive("k", end + 0.05)
    # Four typical gaps of silence: stale, release the instance.
    assert not predictor.should_keep_alive("k", end + 5.0)
