"""Suite-wide test settings.

Every property test runs under one hypothesis profile: the examples are
derived from the test itself (``derandomize``), so each run of the suite
draws the same ones, and no example has a deadline.  Tests set only their
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("sepcert", derandomize=True, deadline=None)
settings.load_profile("sepcert")
