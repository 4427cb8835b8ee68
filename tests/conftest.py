import os

from hypothesis import settings

# Hosted CI runs draw the same examples every time, with no deadline, so a
# property test cannot turn a run red at random or on a slow machine.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
