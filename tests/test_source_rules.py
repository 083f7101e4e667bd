"""Rules on the library source itself."""

import ast
from pathlib import Path

import hopfcm

ENV_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def _environment_reads(path):
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENV_NAMES:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENV_NAMES for alias in node.names):
                yield node.lineno


def test_library_takes_configuration_as_arguments_not_environment():
    modules = sorted(Path(hopfcm.__file__).parent.glob("*.py"))
    assert modules
    offenders = [
        f"{path.name}:{line}" for path in modules for line in _environment_reads(path)
    ]
    assert offenders == []
