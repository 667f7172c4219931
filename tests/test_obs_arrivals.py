"""Arrival-history edge cases: the estimator the prewarm predictor trusts.

The EWMA arrival estimator (:class:`repro.engine.policies.ArrivalHistory`)
feeds keep-alive deferral and predictive pre-warming; a wrong answer here pins resources
or cold-starts tenants.  These tests pin the degenerate inputs the happy
path never exercises: empty histories, a single sample (one gap proves
nothing), wall clocks that step backwards, and forecast saturation for
keys that went silent.
"""

import math

import pytest

from repro.engine.policies import ArrivalHistory, SchedulingError


# ----------------------------------------------------------- empty history
def test_empty_history_answers_safely():
    h = ArrivalHistory()
    assert h.keys() == []
    assert h.observations("lib") == 0
    assert h.interarrival("lib") is None
    assert h.rate("lib") == 0.0
    assert h.predict_next("lib") is None
    assert h.imminent("lib", now=10.0, window=60.0) is False
    assert h.expected_arrivals("lib", now=10.0, horizon=60.0) == 0.0


def test_alpha_validation():
    with pytest.raises(SchedulingError):
        ArrivalHistory(alpha=0.0)
    with pytest.raises(SchedulingError):
        ArrivalHistory(alpha=1.5)


# ------------------------------------------------------- single-sample EWMA
def test_single_arrival_yields_no_estimate():
    h = ArrivalHistory()
    h.record("lib", 100.0)
    assert h.observations("lib") == 1
    # One arrival has no gap: no EWMA, no rate, no forecast.
    assert h.interarrival("lib") is None
    assert h.rate("lib") == 0.0
    assert h.predict_next("lib") is None
    assert h.imminent("lib", now=100.5, window=60.0) is False


def test_second_arrival_seeds_ewma_with_first_gap():
    h = ArrivalHistory(alpha=0.3)
    h.record("lib", 100.0)
    h.record("lib", 102.0)
    # The first gap IS the EWMA seed, not blended against a zero prior.
    assert h.interarrival("lib") == pytest.approx(2.0)
    assert h.rate("lib") == pytest.approx(0.5)
    assert h.predict_next("lib") == pytest.approx(104.0)
    h.record("lib", 104.0)
    # EWMA: 0.3 * 2.0 + 0.7 * 2.0 = 2.0 (steady cadence stays put).
    assert h.interarrival("lib") == pytest.approx(2.0)


# --------------------------------------------------------- clock backwards
def test_clock_stepping_backwards_clamps_the_gap():
    h = ArrivalHistory(min_observations=3)
    h.record("lib", 100.0)
    h.record("lib", 99.0)  # NTP step / clock skew: now < last
    gap = h.interarrival("lib")
    # The negative gap is clamped to a tiny positive epsilon instead of
    # poisoning the EWMA (or dividing rate() by zero).
    assert gap is not None
    assert 0.0 < gap <= 1e-9
    assert math.isfinite(h.rate("lib"))
    assert h.rate("lib") > 0.0
    # And the estimator keeps absorbing normal arrivals afterwards.
    h.record("lib", 101.0)
    h.record("lib", 102.0)
    assert h.interarrival("lib") > 0.0
    assert h.predict_next("lib") > 102.0


# ------------------------------------------------------ forecast saturation
def test_min_observations_gate_forecasts():
    h = ArrivalHistory(min_observations=3)
    h.record("lib", 100.0)
    h.record("lib", 101.0)
    # Two arrivals = one gap: below the observation floor, never imminent.
    assert h.imminent("lib", now=101.0, window=60.0) is False
    h.record("lib", 102.0)
    assert h.imminent("lib", now=102.0, window=60.0) is True


def test_stale_key_saturates_to_not_imminent():
    h = ArrivalHistory(min_observations=3)
    for ts in (100.0, 101.0, 102.0, 103.0):
        h.record("lib", ts)
    assert h.imminent("lib", now=103.5, window=10.0) is True
    # Silent for longer than grace (4x) times its ~1s cadence: the key
    # is stale, so neither keep-alive nor pre-warm may pin it — however
    # fast its cadence used to be.
    assert h.imminent("lib", now=110.0, window=10.0) is False
    assert h.expected_arrivals("lib", now=110.0, horizon=10.0) == 0.0


def test_expected_arrivals_floors_at_one_when_imminent():
    h = ArrivalHistory(min_observations=3)
    for ts in (100.0, 110.0, 120.0):
        h.record("lib", ts)  # ~0.1 arrivals/s
    # Even when rate * horizon < 1, an imminent key forecasts >= 1 so
    # the pre-warm sizing never rounds a due arrival down to nothing
    # (next arrival due at ~130; horizon 9.5 covers it, 0.1/s * 9.5 < 1).
    expected = h.expected_arrivals("lib", now=121.0, horizon=9.5)
    assert expected == 1.0
    # A longer horizon scales linearly once past the floor.
    expected = h.expected_arrivals("lib", now=121.0, horizon=40.0)
    assert expected == pytest.approx(4.0)
