"""Settings shared by the test suite."""

from hypothesis import settings

# One profile for every property test: the same examples on every run
# (derandomize) and no example database left on disk; no per-example
# deadline, because exact arithmetic on a loaded machine can take longer
# than hypothesis' default 200 ms without anything being wrong.
settings.register_profile("teichkit", deadline=None, database=None, derandomize=True)
settings.load_profile("teichkit")
