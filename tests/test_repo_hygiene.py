"""The repository tracks no file that its own .gitignore excludes,
exports no name it does not define, keeps each benchmark record whole,
keeps in src only code that the command line reaches, and shows README
examples that run."""

import ast
import doctest
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


def test_the_readme_python_block_runs_as_a_doctest():
    text = (ROOT / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", "README.md", 0)
    results = doctest.DocTestRunner().run(test)
    assert results.failed == 0 and results.attempted == len(test.examples) > 0


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



def test_every_function_and_class_in_src_is_reached_from_main():
    """Walk the name and module-attribute references from cli.main: a
    function or class that no verdict or enumerate reaches is API that
    only tests would use, and belongs with the tests."""
    src = ROOT / "src" / "hooklab"
    defs = {}  # (module, name): the top-level def or assignment
    imports = {}  # (module, name): (source module, name), or (module, None)
    for path in src.glob("*.py"):
        module = "hooklab" if path.stem == "__init__" else f"hooklab.{path.stem}"
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
            elif isinstance(node, ast.Assign):
                defs.update(((module, t.id), node) for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hooklab"):
                for a in node.names:
                    whole = node.module == "hooklab" and (src / f"{a.name}.py").is_file()
                    source = (f"hooklab.{a.name}", None) if whole else (node.module, a.name)
                    imports[module, a.asname or a.name] = source

    def resolve(key):
        while key in imports:
            key = imports[key]
        return key

    seen, todo = set(), [("hooklab.cli", "main")]
    while todo:
        key = todo.pop()
        if key in seen or key not in defs:
            continue
        seen.add(key)
        for node in ast.walk(defs[key]):
            if isinstance(node, ast.Name):
                todo.append(resolve((key[0], node.id)))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module, whole = resolve((key[0], node.value.id))
                if whole is None:
                    todo.append(resolve((module, node.attr)))
    unreached = sorted(
        f"{module}:{name}"
        for (module, name), node in defs.items()
        if not isinstance(node, ast.Assign) and (module, name) not in seen
    )
    assert unreached == []


def test_no_src_module_imports_a_name_it_never_reads():
    """An import that no line reads and __all__ does not export is left
    over from code that went."""
    unread = []
    for path in sorted((ROOT / "src" / "hooklab").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
        unread += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in read and name not in exported
        ]
    assert unread == []
