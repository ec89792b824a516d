"""Settings shared by every test module.

Hypothesis runs derandomized: each ``@given`` test draws the same
examples on every run, so a failure reproduces and a pass means the
same thing each time.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")
