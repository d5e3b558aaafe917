"""Every module-level import in ``src/bicatkit`` is used in its module.

An import a module keeps for someone else carries ``# noqa: F401 -- <reason>``
on its line, and the reason names the file of this repository that reads the
name, which must mention it.  A bare re-export comment names no reader, so an
import nothing reads cannot hide behind one.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bicatkit"
NOQA = re.compile(r"#\s*noqa:\s*F401\s*--\s*(?P<reason>\S.*)$")


def module_imports(tree: ast.Module):
    """(bound name, line) of each import at module level, in the module body
    or under a module-level ``if`` or ``try``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack += node.body + node.orelse + getattr(node, "finalbody", [])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), alias.lineno


def unused_imports(path: Path):
    """(name, line text) of each module-level import the module never reads."""
    source = path.read_text()
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    lines = source.splitlines()
    return [(name, lines[lineno - 1]) for name, lineno in module_imports(tree) if name not in used]


def kept_for(name: str, line: str) -> str | None:
    """The problem with an unused import's noqa comment, or None when its
    reason names a file that mentions the name."""
    m = NOQA.search(line)
    if m is None:
        return "unused, and no '# noqa: F401 -- <reason>' comment"
    readers = [w for w in re.findall(r"[\w./-]+\.py", m["reason"]) if (ROOT / w).is_file()]
    if not any(name in (ROOT / w).read_text() for w in readers):
        return f"the reason {m['reason']!r} names no file that reads {name!r}"
    return None


def test_every_module_level_import_is_used_or_kept_for_a_named_reader():
    problems = []
    kept = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for name, line in unused_imports(path):
            problem = kept_for(name, line)
            if problem:
                problems.append(f"{path.relative_to(ROOT)}: {name}: {problem}")
            else:
                kept.append(f"{path.stem}.{name}")
    assert problems == []
    assert kept == ["localize.f_hat_chain"]


def test_the_check_flags_an_unused_import_and_a_reason_without_a_reader(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from os import path, sep  # noqa: F401 -- re-exported\n"
        "import json\n"
        "from typing import (\n"
        "    Any,  # noqa: F401 -- tests/test_imports.py reads it\n"
        "    List,\n"
        ")\n"
        "x: List = [sep]\n"
    )
    found = {name: kept_for(name, line) for name, line in unused_imports(mod)}
    assert set(found) == {"path", "json", "Any"}
    assert found["path"] == "the reason 're-exported' names no file that reads 'path'"
    assert found["json"] == "unused, and no '# noqa: F401 -- <reason>' comment"
    assert found["Any"] is None


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every command's process imports ``bicatkit.cli``; ``dataclasses``
    would pull in ``inspect``, so neither may come with it."""
    code = (
        "import sys; before = set(sys.modules); import bicatkit.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n"
