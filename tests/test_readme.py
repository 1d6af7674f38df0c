"""The private names that README.md cites, and the docstrings' cross-references, exist in the package."""

import importlib
import pkgutil
import re
from pathlib import Path

import dynlr

README = Path(__file__).resolve().parents[1] / "README.md"

# A code span that starts with ``_name`` or ``module._name``; ``_X_arr`` stands for a family of names.
_CITED = re.compile(r"`(?:(\w+)\.)?(_\w+)")

# A Sphinx cross-reference; a leading "~" only shortens the rendered name.
_ROLE = re.compile(r":(?:func|class|meth):`~?([\w.]+)`")


def _modules():
    return {
        info.name: importlib.import_module(f"dynlr.{info.name}")
        for info in pkgutil.iter_modules(dynlr.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    }


def _has(obj, dotted):
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_cited_private_name_exists():
    cited = {m.groups() for m in _CITED.finditer(README.read_text())}
    cited = {(mod, name) for mod, name in cited if not name.startswith("__") and name != "_X_arr"}
    assert ("solvers", "_solve") in cited
    modules = _modules()
    missing = sorted(
        f"{mod}.{name}" if mod else name
        for mod, name in cited
        if not any(hasattr(modules.get(m), name) for m in ([mod] if mod else modules))
    )
    assert missing == []


def test_every_docstring_cross_reference_resolves():
    # A target resolves in its own module, as a dynlr.… path, or as a method of one of the module's classes.
    unresolved, seen = [], 0
    for name, module in {"__init__": dynlr, **_modules()}.items():
        classes = [value for value in vars(module).values() if isinstance(value, type)]
        for target in _ROLE.findall(Path(module.__file__).read_text()):
            seen += 1
            if target.startswith("dynlr."):
                found = _has(dynlr, target.removeprefix("dynlr."))
            else:
                found = _has(module, target) or any(_has(cls, target) for cls in classes)
            if not found:
                unresolved.append(f"{name}: {target}")
    assert seen > 30
    assert unresolved == []
