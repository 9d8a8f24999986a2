"""The mutant list of tools/mutants.py stays current: each mutant's text
matches its file exactly once, and its recorded killer is a test that
exists. The mutation run itself is `python tools/mutants.py`."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants",
                                               ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name, file, old, new, killer", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_mutant_text_matches_once(name, file, old, new, killer):
    source = (ROOT / "src" / "innerqft" / file).read_text()
    assert source.count(old) == 1
    assert old != new


@pytest.mark.parametrize("name, file, old, new, killer", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_mutant_killer_exists(name, file, old, new, killer):
    """The killer is a module-level test function of a test file."""
    path, _, function = killer.partition("::")
    assert path.startswith("tests/test_") and function.startswith("test_")
    tree = ast.parse((ROOT / path).read_text())
    assert function in {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef)}
