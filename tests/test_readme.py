"""The private names that README.md cites exist in the package."""

import importlib
import pkgutil
import re
from pathlib import Path

import dynlr

README = Path(__file__).resolve().parents[1] / "README.md"

# A code span that starts with ``_name`` or ``module._name``; ``_X_arr`` stands for a family of names.
_CITED = re.compile(r"`(?:(\w+)\.)?(_\w+)")


def test_every_cited_private_name_exists():
    cited = {m.groups() for m in _CITED.finditer(README.read_text())}
    cited = {(mod, name) for mod, name in cited if not name.startswith("__") and name != "_X_arr"}
    assert ("solvers", "_solve") in cited
    modules = {
        info.name: importlib.import_module(f"dynlr.{info.name}")
        for info in pkgutil.iter_modules(dynlr.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    }
    missing = sorted(
        f"{mod}.{name}" if mod else name
        for mod, name in cited
        if not any(hasattr(modules.get(m), name) for m in ([mod] if mod else modules))
    )
    assert missing == []
