"""The repository tracks no file that its own .gitignore excludes, and
exports no name it does not define."""

import importlib
import pkgutil
import shutil
import subprocess
from pathlib import Path

import pytest

import hooklab

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(),
    reason="not a git checkout",
)
def test_no_ignored_files_are_tracked():
    out = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    assert out.stdout == ""


def test_every_exported_name_resolves():
    modules = [hooklab] + [
        importlib.import_module(f"hooklab.{info.name}")
        for info in pkgutil.iter_modules(hooklab.__path__)
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__
