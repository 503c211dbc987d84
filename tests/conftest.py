"""Test-suite settings shared by every test module."""
from hypothesis import settings

# Every run draws the same examples and writes no example database, so a
# property test fails or passes the same way on every machine and run.
settings.register_profile("wlckf", derandomize=True, database=None)
settings.load_profile("wlckf")
