"""Shared test settings."""
from hypothesis import settings

# Every run draws the same examples and writes no example database.
settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None, max_examples=30)
