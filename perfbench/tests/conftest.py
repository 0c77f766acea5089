"""Make the program sources and the benchmark modules importable."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent.parent / "src", HERE.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
