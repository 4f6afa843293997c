"""Every module-level name of the package has a reader.

A function, class or constant that only its own definition mentions is dead
code: no method, command, report, demo or benchmark can reach it. The
readers counted are the package modules, the demos, the benchmark harness,
the README and the acceptance suite; unit tests alone do not keep a name
alive, and the package's top-level re-exports do not either.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qtbench"


def defined_names(tree: ast.Module):
    """(name, first line, last line) of each module-level def, class and
    assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node.lineno, node.end_lineno


def test_every_module_level_name_is_read():
    modules = {p: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    others = [p.read_text() for p in
              [*sorted((ROOT / "demos").glob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.py")),
               ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]]
    unread = []
    for path, text in modules.items():
        lines = text.splitlines()
        for name, first, last in defined_names(ast.parse(text)):
            own = "\n".join(lines[:first - 1] + lines[last:])
            corpus = [own, *(t for p, t in modules.items() if p != path),
                      *others]
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(t) for t in corpus):
                unread.append(f"{path.name}:{first} {name}")
    assert not unread, "no reader for: " + ", ".join(unread)
