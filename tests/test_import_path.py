"""pytest imports ``degenpoly`` from the checkout that PYTHONPATH names, else from this one.

The root ``conftest.py`` puts this checkout's ``src`` on the import path only when no
PYTHONPATH entry holds a ``degenpoly`` package, so a run pointed at another checkout
tests that checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _pythonpath_package() -> Path | None:
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        if entry and (Path(entry) / "degenpoly" / "__init__.py").is_file():
            return (Path(entry) / "degenpoly").resolve()
    return None


def test_degenpoly_comes_from_pythonpath_else_this_checkout():
    import degenpoly

    expected = _pythonpath_package() or ROOT / "src" / "degenpoly"
    assert Path(degenpoly.__file__).resolve().parent == expected


@pytest.mark.parametrize("holds_a_package", [True, False])
def test_a_pythonpath_entry_decides_the_checkout_under_test(holds_a_package, tmp_path):
    if holds_a_package:
        (tmp_path / "degenpoly").mkdir()
        (tmp_path / "degenpoly" / "__init__.py").write_text("", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    probe = f"{Path(__file__).resolve()}::test_degenpoly_comes_from_pythonpath_else_this_checkout"
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", probe],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
