"""Shared utilities: hashing, statistics, RNG, and logging helpers."""

from repro import lazy_exports

# Resolved on first access: ``rng`` imports numpy, which nothing on a
# worker's, task runner's or library's start path uses.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "hashing": ("content_hash", "hash_bytes", "hash_file", "short_hash"),
        "stats": ("Histogram", "SummaryStats", "summarize"),
        "rng": ("seeded_rng", "stable_seed"),
        "logging": ("get_logger",),
    },
)
