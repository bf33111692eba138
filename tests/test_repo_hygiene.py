"""The repository tracks no file that its own .gitignore excludes,
exports no name it does not define, and keeps each benchmark record
whole."""

import importlib
import json
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


BENCH_KEYS = {"harness", "machine", "order", "pairs", "runs", "summary"}


def test_every_bench_record_is_a_whole_pair():
    records = sorted(ROOT.glob("BENCH_pr*_*.json"))
    sides = {}
    for path in records:
        stem, _, side = path.stem.rpartition("_")
        assert side in ("parent", "change"), path.name
        sides.setdefault(stem, set()).add(side)
        doc = json.loads(path.read_text())
        assert BENCH_KEYS <= doc.keys(), path.name
        assert doc["pairs"] == len(doc["runs"]), path.name
    assert records
    assert all(found == {"parent", "change"} for found in sides.values()), sides
