"""The oracles share no machinery with the generator: `oracles` imports
neither `enumeration` nor a kernel backend, and `enumeration` imports
neither `oracles` nor the modules the oracles tell classes apart or build
their inputs with."""

import ast
from pathlib import Path

import pentaplanar
from pentaplanar import enumeration, families, oracles

PACKAGE = Path(oracles.__file__).parent

# module -> the package modules it must not import directly
FORBIDDEN = {
    "oracles": {"enumeration", "kernels", "_purekern", "_fastkern"},
    "enumeration": {"canon", "families", "oracles"},
}

MOVED = {
    enumeration: ("A000109", "BRUTEFORCE_MAX_N", "FLIP_ORACLE_MAX_N", "_insert_between",
                  "audit_dump", "bruteforce_triangulations", "flip_graph_triangulations"),
    families: ("discover_catalog_graphs", "verify_golden_entry"),
}


def _package_imports(module: str) -> set[str]:
    """The package modules that `module` imports anywhere in its source,
    relatively (`from .x import y`, `from . import x`) or absolutely
    (`import pentaplanar.x`, `from pentaplanar.x import y`,
    `from pentaplanar import x`)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "pentaplanar" and rest:
                    out.add(rest.partition(".")[0])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level:
                if parts[0] != "pentaplanar":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                out.add(parts[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_oracles_and_generator_import_none_of_each_others_machinery():
    assert {"canon", "embeddings", "families", "graphs"} <= _package_imports("oracles")
    assert {"kernels", "_purekern"} <= _package_imports("enumeration")
    for module, forbidden in FORBIDDEN.items():
        assert not _package_imports(module) & forbidden, module


def test_oracle_names_are_defined_only_in_oracles():
    for module, names in MOVED.items():
        for name in names:
            assert hasattr(oracles, name), name
            assert not hasattr(module, name), (module.__name__, name)
    assert pentaplanar.bruteforce_triangulations is oracles.bruteforce_triangulations
