import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every property test draws the same examples on every run; each test
# still sets its own max_examples.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
