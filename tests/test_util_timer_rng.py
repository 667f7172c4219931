"""Unit tests for deterministic RNG streams."""

from repro.util.rng import seeded_rng, stable_seed


def test_stable_seed_deterministic():
    assert stable_seed("x", 1) == stable_seed("x", 1)


def test_stable_seed_distinguishes_labels():
    assert stable_seed("x", 1) != stable_seed("x", 2)
    assert stable_seed("a", "bc") != stable_seed("ab", "c")


def test_stable_seed_is_nonnegative_63bit():
    for parts in [("a",), ("b", 2), ("c", "d", 3)]:
        seed = stable_seed(*parts)
        assert 0 <= seed < 2**63


def test_seeded_rng_reproducible_stream():
    a = seeded_rng("stream", 5).random(10)
    b = seeded_rng("stream", 5).random(10)
    assert (a == b).all()


def test_seeded_rng_independent_streams():
    a = seeded_rng("stream", 5).random(10)
    b = seeded_rng("stream", 6).random(10)
    assert (a != b).any()
