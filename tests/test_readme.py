import ast
import doctest
import importlib
import re
import tomllib
from pathlib import Path

import twobridge

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_session_runs():
    # The `>>>` lines of the README's short session, with their printed output.
    result = doctest.testfile(str(README), module_relative=False, optionflags=doctest.NORMALIZE_WHITESPACE)
    assert result.attempted > 0 and result.failed == 0


def test_readme_api_table_matches_all():
    # Every name of __all__ is listed under the module that defines it, and
    # every listed name is there.
    table = README.read_text().split("## Library overview", 1)[1].split("\n\n")[1]
    listed = {
        (module, name)
        for module, names in re.findall(r"^\| `(twobridge\.\w+)` \| (.+) \|$", table, re.M)
        for name in re.findall(r"`(\w+)`", names)
    }
    assert {(getattr(twobridge, name).__module__, name) for name in twobridge.__all__} == listed
    assert all(hasattr(importlib.import_module(module), name) for module, name in listed)


def references(node):
    """The names and attribute names that node reads."""
    return {x.id if isinstance(x, ast.Name) else x.attr for x in ast.walk(node) if isinstance(x, (ast.Name, ast.Attribute))}


def test_every_public_name_is_called_by_the_program():
    # The program is the console script, the benchmark and the code each
    # module runs on import.  A function or class of the package, public or
    # private, that only the tests reach belongs in the tests.
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    todo = [entry.rsplit(":", 1)[1] for entry in scripts.values()]
    defs: dict[str, list] = {}
    for path in Path(twobridge.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append(stmt)
            else:
                todo += references(stmt)
    for path in (ROOT / "perfbench").glob("*.py"):
        todo += references(ast.parse(path.read_text()))
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [ref for node in defs.get(name, []) for ref in references(node)]
    assert set(twobridge.__all__) <= reached
    assert set(defs) - reached == set()
