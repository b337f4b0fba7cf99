"""Every public top-level function or class of the package is used by the
program itself (``src/``) or by the benchmark (``perfbench/``), and so is
every public method or property of a public class, every optional
parameter of a public function or method, every plain-default field of a
public dataclass and every config key, so no API or option stays alive only
for its own tests. The references the tests and the benchmark check against
import nothing from the package."""

import ast
import re
from pathlib import Path

from mmadvrec import config

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mmadvrec"

# module.name -> why it needs no caller in src/ or perfbench/
ALLOWED = {
    "cli.main": "the console entry point named in pyproject.toml",
}

# module.function.parameter -> why no call site in src/ or perfbench/ sets it
ALLOWED_PARAMETERS = {
    "cli.main.argv": "the console entry point reads sys.argv; the CLI tests pass a list",
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


def _public_functions():
    """(module.qualified name, name callers use, definition, number of
    leading parameters a call does not pass) for every public top-level
    function and every public method or constructor of a public class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                yield f"{path.stem}.{stmt.name}", stmt.name, stmt, 0
            if not isinstance(stmt, ast.ClassDef) or stmt.name.startswith("_"):
                continue
            for fn in stmt.body:
                if not isinstance(fn, ast.FunctionDef) or (
                        fn.name.startswith("_") and fn.name != "__init__"):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                called_as = stmt.name if fn.name == "__init__" else fn.name
                yield f"{path.stem}.{stmt.name}.{fn.name}", called_as, fn, 0 if static else 1


def _callees(expr):
    """Names of the functions an expression may evaluate to: ``f``,
    ``module.f`` and either branch of a conditional."""
    if isinstance(expr, ast.Name):
        return {expr.id}
    if isinstance(expr, ast.Attribute):
        return {expr.attr}
    if isinstance(expr, ast.IfExp):
        return _callees(expr.body) | _callees(expr.orelse)
    return set()


def _passed_arguments():
    """name -> (keywords passed, most positional arguments passed) over
    every call in src/ and perfbench/; a call through a local alias
    (``fit = a.f if c else a.g``) counts for each function it may be.
    Starred arguments are not counted: they pass nothing by name."""
    passed = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                pairs = [(t, node.value) for t in node.targets]
                if (isinstance(node.value, ast.Tuple) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Tuple)):
                    pairs = zip(node.targets[0].elts, node.value.elts)
                for target, value in pairs:
                    if isinstance(target, ast.Name) and _callees(value):
                        aliases.setdefault(target.id, set()).update(_callees(value))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            positional = 0
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    break
                positional += 1
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            names = _callees(node.func)
            for name in set(names):
                names |= aliases.get(name, set())
            for name in names:
                kws, most = passed.get(name, (set(), 0))
                passed[name] = (kws | keywords, max(most, positional))
    return passed


def test_every_public_method_has_a_caller_outside_the_tests():
    """A method or property counts as used when some attribute access in
    src/ or perfbench/ names it; the receiver's type is not resolved."""
    attributes = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        attributes |= {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                       if isinstance(node, ast.Attribute)}
    unused = sorted(qualname for qualname, _, fn, _ in _public_functions()
                    if qualname.count(".") == 2 and fn.name != "__init__"
                    and fn.name not in attributes)
    assert unused == []


def _is_dataclass(cls):
    return any(_callees(d.func if isinstance(d, ast.Call) else d) == {"dataclass"}
               for d in cls.decorator_list)


def _optional_parameters():
    """(module.qualified name, name callers use, argument position that sets
    it or None, name) for every optional parameter of a public function or
    method and every plain-default field of a public dataclass. A
    ``field(default_factory=...)`` holds state rather than an option, so it
    is left out."""
    for qualname, called_as, fn, skip in _public_functions():
        args = fn.args.posonlyargs + fn.args.args
        for index, a in enumerate(args):
            if index >= len(args) - len(fn.args.defaults):
                yield f"{qualname}.{a.arg}", called_as, index - skip, a.arg
        for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if d is not None:
                yield f"{qualname}.{a.arg}", called_as, None, a.arg
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if (not isinstance(stmt, ast.ClassDef) or stmt.name.startswith("_")
                    or not _is_dataclass(stmt)):
                continue
            fields = [f for f in stmt.body if isinstance(f, ast.AnnAssign)]
            for index, f in enumerate(fields):
                state = isinstance(f.value, ast.Call) and any(
                    kw.arg == "default_factory" for kw in f.value.keywords)
                if f.value is not None and not state:
                    yield f"{path.stem}.{stmt.name}.{f.target.id}", stmt.name, index, f.target.id


def test_every_optional_parameter_is_set_by_some_caller():
    passed = _passed_arguments()
    unset = []
    for qualname, called_as, position, name in _optional_parameters():
        kws, most = passed.get(called_as, (set(), 0))
        if name not in kws and (position is None or most <= position):
            unset.append(qualname)
    unset = sorted(set(unset) - set(ALLOWED_PARAMETERS))
    assert unset == []


def test_parameter_allow_list_names_exist():
    params = set()
    for qualname, _, fn, _ in _public_functions():
        a = fn.args
        params |= {f"{qualname}.{x.arg}" for x in a.posonlyargs + a.args + a.kwonlyargs}
    assert set(ALLOWED_PARAMETERS) <= params


# the tables in config.py that declare keys rather than read them
KEY_TABLES = {"SCHEMA"}


def _declares_keys(stmt):
    return any(getattr(t, "id", None) in KEY_TABLES for t in getattr(stmt, "targets", []))


def _key_patterns():
    """A regex per string the program or the benchmark writes outside the
    key tables: a plain string matches itself, and an f-string matches any
    text in place of each of its fields (``f"sweep.{kind}s"``)."""
    patterns = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        for stmt in body:
            if path.name == "config.py" and _declares_keys(stmt):
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.JoinedStr):
                    patterns.add("".join(re.escape(v.value) if isinstance(v, ast.Constant)
                                         else ".+" for v in node.values))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    patterns.add(re.escape(node.value))
    return [re.compile(p) for p in patterns]


def test_every_config_key_is_read_by_the_program_or_the_benchmark():
    patterns = _key_patterns()
    unread = sorted(key for key in config.SCHEMA
                    if not any(p.fullmatch(key) for p in patterns))
    assert unread == []


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_references_import_nothing_from_the_package():
    """The tests' exact references and the benchmark's oracles recompute what
    they check without the program, so no fault of the program can hide in
    the reference it is compared against."""
    for path in (ROOT / "tests" / "reference.py", ROOT / "perfbench" / "oracles.py"):
        assert [m for m in _imported_modules(path) if m.split(".")[0] == "mmadvrec"] == []
