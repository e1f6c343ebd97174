"""Make ``e2e`` and ``repro`` importable however pytest was started."""

import os
import sys

_E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.dirname(_E2E),
                os.path.join(os.path.dirname(os.path.dirname(_E2E)), "src")]
