"""Every public top-level function or class of the package is used by the
program itself (``src/``) or by the benchmark (``perfbench/``), so no API
stays alive only for its own tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mmadvrec"

# module.name -> why it needs no caller in src/ or perfbench/
ALLOWED = {
    "cli.main": "the console entry point named in pyproject.toml",
    "autodiff.fd_gradient": "the finite-difference oracle the gradient tests compare against",
    "reports.verify_csv": "checks the sha256 line every CSV ends with, for readers of the outputs",
}


def _imports(tree):
    """(local name -> package module) for module imports, plus the
    (module, name) pairs imported by name."""
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").split(".")[-1]
            for alias in node.names:
                if source in ("", "mmadvrec"):
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names.add((source, alias.name))
    return modules, names


def _references(path):
    """(module, name) pairs the file uses: ``module.name`` attributes,
    names imported from a module, and, in a package module, its own names
    outside the definition that binds them."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, refs = _imports(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            refs.add((modules[node.value.id], node.attr))
    if path.parent == PACKAGE:
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            refs.update((path.stem, n.id) for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and n.id != own)
    return refs


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                yield path.stem, stmt.name


def test_every_public_name_has_a_caller_outside_the_tests():
    refs = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        refs |= _references(path)
    unused = sorted(f"{mod}.{name}" for mod, name in _public_definitions()
                    if (mod, name) not in refs and f"{mod}.{name}" not in ALLOWED)
    assert unused == []


def test_allow_list_names_exist():
    defined = {f"{mod}.{name}" for mod, name in _public_definitions()}
    assert set(ALLOWED) <= defined
