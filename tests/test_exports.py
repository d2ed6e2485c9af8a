"""Every name the package exports has a user in the system: a `src/monoidkit`
module loads it, or a `perfbench` workload names it.  A name that only tests
use belongs in the tests, so an export without a user cannot drift back."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "monoidkit"

# Exported with no user yet, each waiting on a ROADMAP item.
WAITING = {
    "subact_generators",  # item 3: weak coherency gives it a caller
    "nf_inverse",  # item 12: the left side of the ρ_{Y_k} classes
}


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}


def _loaded_in_package():
    loaded = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_export_has_a_user():
    exported = _exported()
    bench = "\n".join(path.read_text() for path in (ROOT / "perfbench").glob("*.py"))
    loaded = _loaded_in_package()
    unused = {name for name in exported if name not in loaded and not re.search(rf"\b{re.escape(name)}\b", bench)}
    assert len(exported) > 40
    assert unused == WAITING
