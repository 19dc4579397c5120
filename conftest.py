"""Put this checkout's ``src`` on pytest's import path, unless PYTHONPATH names a ``degenpoly``.

So ``python -m pytest`` needs no install, and ``PYTHONPATH=<checkout>/src python -m pytest``
tests the checkout it names.
"""

import os
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"

if not any((Path(entry) / "degenpoly" / "__init__.py").is_file()
           for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry):
    sys.path.insert(0, str(_SRC))
