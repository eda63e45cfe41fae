"""Every name the package exports has a user: the package's own code, the
benchmark harness, or the README's library tour."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qchain"

# Exported names kept without such a user, each with its reason.
KEPT = {
    "trace_norm_hermitian": "the one checked public spectral entry; the tests take it as the "
                            "reference for the block kernel",
    "verify_multiplicative_f": "ROADMAP item 10 gives it a caller: it checks a supplied f "
                               "against the one synthesized from the law",
}


def _exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _used_names(source: str) -> set[str]:
    """Names the code reads: bare names, attributes, and a name looked up
    on a module by string, as in getattr(module, "name"). Definitions and
    docstrings are not reads."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and isinstance(node.args[0], (ast.Name, ast.Attribute))
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            used.add(node.args[1].value)
    return used


def _users() -> set[str]:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += list((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(_used_names(p.read_text(encoding="utf-8")) for p in sources))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"^## Library tour\s+```python\n(.*?)^```", readme, re.S | re.M)
    assert tour, "README has no python block under '## Library tour'"
    return used | _used_names(tour.group(1))


def test_each_exported_name_has_a_user():
    exported, users = _exported(), _users()
    assert set(KEPT) <= set(exported)
    assert not set(KEPT) & users, "a kept name that gains a user leaves the list"
    unused = [name for name in exported if name not in users and name not in KEPT]
    assert not unused, f"exported names that nothing uses: {unused}"
