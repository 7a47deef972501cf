"""One hypothesis profile for the whole suite: derandomized, so every run
draws the same examples, with no example database and no deadline."""

from hypothesis import settings

settings.register_profile("pbelyi", derandomize=True, database=None, deadline=None)
settings.load_profile("pbelyi")
