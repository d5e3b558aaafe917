"""Every module-level import in ``src/bicatkit`` is used in its module,
every module-level private name is read somewhere in ``src/``, and every
public top-level function or class is read in ``src/`` or ``bench/``, or is
one that README promises.  Every library name that the benchmark under
``bench/`` reads exists.

An import a module keeps for someone else carries ``# noqa: F401 -- <reason>``
on its line, and the reason names the file of this repository that reads the
name, which must mention it.  A bare re-export comment names no reader, so an
import nothing reads cannot hide behind one.  A private name is read when code
outside its own definition loads it, bare or as an attribute.  No module
imports ``dataclasses``, at module level or inside a function, nor uses
``functools.cached_property``.
"""
import ast
import importlib
import re
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


def private_definitions(tree: ast.Module):
    """(name, node) of each private function, class or variable a module
    defines at module level; dunder names are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((n, node) for n in names if n.startswith("_") and not n.startswith("__"))


def unread_definitions(paths, definitions, named_elsewhere=frozenset()):
    """(module stem, name) of each name that ``definitions`` finds in a module
    of paths, that no module-level statement of paths other than its
    definition reads, and that is not in ``named_elsewhere``."""
    defined, reads = [], []
    for path in paths:
        tree = ast.parse(path.read_text())
        defined += [(path.stem, name, node) for name, node in definitions(tree)]
        for node in tree.body:
            inner = list(ast.walk(node))
            loaded = {n.id for n in inner if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            loaded |= {n.attr for n in inner if isinstance(n, ast.Attribute)}
            reads.append((node, loaded))
    return [
        (stem, name) for stem, name, where in defined
        if name not in named_elsewhere
        and not any(name in loaded for node, loaded in reads if node is not where)
    ]


def unread_private_names(paths):
    """(module stem, name) of each module-level private name in paths that no
    module-level statement of paths other than its definition reads."""
    return unread_definitions(paths, private_definitions)


def test_every_private_name_is_read():
    assert unread_private_names(sorted(PACKAGE.rglob("*.py"))) == []


def test_the_check_flags_a_private_name_only_its_definition_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['f']\n"
        "_READ = 1\n"
        "_unread: int = 2\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1)\n"
        "class _Used:\n"
        "    x = _READ\n"
    )
    (tmp_path / "b.py").write_text("from a import _Used\ny = _Used.x\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert unread_private_names(paths) == [("a", "_unread"), ("a", "_recursive")]


def imported_modules(tree: ast.Module):
    """(top-level module, line) of every import in a module, at any depth,
    relative imports left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module.split(".")[0], node.lineno


def test_no_module_imports_dataclasses():
    """``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and
    ``tokenize``; no command pays for them, nor does any path that the
    per-command test in ``tests/test_cli.py`` does not take."""
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for module, line in imported_modules(ast.parse(path.read_text()))
        if module == "dataclasses"
    ]
    assert found == []


def test_the_check_finds_a_dataclasses_import_inside_a_function():
    tree = ast.parse(
        "import os.path\n"
        "from . import dataclasses\n"
        "def f():\n"
        "    from dataclasses import dataclass\n"
        "    import dataclasses as dc\n"
    )
    assert sorted(imported_modules(tree)) == [("dataclasses", 4), ("dataclasses", 5), ("os", 1)]


def cached_property_uses(tree: ast.Module):
    """The line of each import or attribute read of ``cached_property``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(a.name == "cached_property" for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
            yield node.lineno


def test_no_module_uses_cached_property():
    """``functools.cached_property`` writes through the instance ``__dict__``,
    which on CPython 3.11 slows every later attribute read of the instance;
    ``core._SetOnFirstRead`` is the package's one write-once attribute."""
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in cached_property_uses(ast.parse(path.read_text()))
    ]
    assert found == []


def test_the_check_finds_cached_property_imported_or_read_as_an_attribute():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, cached_property as cp\n"
        "class A:\n"
        "    @functools.cached_property\n"
        "    def x(self): return cache\n"
    )
    assert list(cached_property_uses(tree)) == [2, 4]


# the public names that nothing in src/ or bench/ reads, each with the README
# phrase that promises it to library users
README_PROMISES = {
    "validate_transformation": "pseudonatural transformations (PN0–PN2)",
    "validate_modification": "modifications (PM)",
    "identity_pseudofunctor": "the identity 2-functor is itself an admissible probe",
    "apply_functor": "the push-forward along pseudofunctors",
    "expr_equal": "decides equality in the free 2-category",
    "stack": "layered expressions and their vertical stacking",
    "evaluate": "with evaluation into any strict tabulated model",
    "load_chain_pseudofunctor": "`chain_f.pf`",
    "load_presentation": "the one reader for `.bic`, `.pf` and `.cmp` documents",
}


def public_definitions(tree: ast.Module):
    """(name, node) of each public function or class a module defines at
    module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node


def named_in(paths) -> set[str]:
    """Every name a file of paths reads, bare, as an attribute, in an import,
    or as a string, as ``bench/tracing.py`` names the functions it wraps."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def unread_public_names(paths, reader_paths):
    """(module stem, name) of each public top-level function or class in paths
    that no module-level statement of paths other than its definition reads,
    and that no file of reader_paths names."""
    return unread_definitions(paths, public_definitions, named_in(reader_paths))


def test_every_public_name_is_read_or_promised_by_readme():
    unread = unread_public_names(
        sorted(PACKAGE.rglob("*.py")), sorted((ROOT / "bench").rglob("*.py"))
    )
    assert sorted(name for _, name in unread) == sorted(README_PROMISES)
    readme = " ".join((ROOT / "README.md").read_text().split())
    assert [name for name, phrase in README_PROMISES.items() if phrase not in readme] == []


def test_the_check_flags_a_public_name_only_tests_could_read(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used(): pass\n"
        "def unused(): pass\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "class Traced: pass\n"
        "class Imported: pass\n"
        "def _private(): pass\n"
    )
    (tmp_path / "b.py").write_text("import a\ny = a.used\n")
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text("from a import Imported\nWRAPPED = ('a', 'Traced')\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert unread_public_names(paths, [bench / "run.py"]) == [("a", "unused"), ("a", "recursive")]


def bench_reads(paths) -> set[tuple[str, str]]:
    """(module, name) of each library name a file of paths reads: an
    ``import`` from ``bicatkit.<module>``, and in ``bench/workloads.py``'s
    style, ``lib.<module>.<name>`` or ``alias.<name>`` after
    ``alias = lib.<module>``."""
    reads = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        modules = {}  # alias -> module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bicatkit."):
                reads |= {(node.module.split(".", 1)[1], a.name) for a in node.names}
            elif isinstance(node, ast.Assign) and _lib_module(node.value):
                modules |= {t.id: node.value.attr for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _lib_module(node.value):
                reads.add((node.value.attr, node.attr))
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                reads.add((modules[node.value.id], node.attr))
    return reads


def _lib_module(node: ast.AST) -> bool:
    """node is ``lib.<module>``."""
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "lib"


def missing_names(reads) -> list[tuple[str, str]]:
    return sorted(
        (module, name) for module, name in reads
        if not hasattr(importlib.import_module(f"bicatkit.{module}"), name)
    )


def test_every_name_the_benchmark_reads_exists():
    """The benchmark runs the library from outside the tests, so a name it
    reads that the library drops fails every op of a workload and no test;
    this test reads ``bench/tracing.py``'s ``TRACED`` and the library names
    of every file under ``bench/``."""
    from bench.tracing import TRACED

    reads = bench_reads(sorted((ROOT / "bench").glob("*.py")))
    assert ("ho", "ho_eq") in reads and ("homotopy", "ICell") in reads
    assert missing_names(reads | {(module, attr) for module, attr, _, _ in TRACED}) == []


def test_the_bench_check_finds_a_missing_name(tmp_path):
    (tmp_path / "w.py").write_text(
        "from bicatkit.ho import ho_eq, gone_a\n"
        "def setup(lib):\n"
        "    ho = lib.ho\n"
        "    lib.localize.localize, lib.localize.gone_b\n"
        "    return ho.ho_cell, ho.gone_c\n"
    )
    reads = bench_reads([tmp_path / "w.py"])
    assert missing_names(reads) == [("ho", "gone_a"), ("ho", "gone_c"), ("localize", "gone_b")]
