"""One hypothesis profile for the whole suite: no deadline, a fixed
derandomized search and no example database, so every run of the suite
draws the same cases. Tests set only ``max_examples``."""

from hypothesis import settings

settings.register_profile("tuttemap", deadline=None, derandomize=True, database=None)
settings.load_profile("tuttemap")
