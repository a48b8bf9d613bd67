"""The README's Python blocks run as written, and the package root exports
exactly what its library example imports plus the types it returns or
raises."""

import ast
import re
from pathlib import Path

import pytest

import chainforge

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)

# the types the library example's calls return or raise
RESULT_TYPES = {
    "ChainforgeError", "ChainPartition", "KeyMaterial", "OptimizationResult", "UserBundle",
}


@pytest.mark.parametrize("block", BLOCKS, ids=["library", "oracles"])
def test_block_runs(block):
    exec(compile(block, str(README), "exec"), {})


def test_root_exports_the_library_example():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(BLOCKS[0]))
        if isinstance(node, ast.ImportFrom) and node.module == "chainforge"
        for alias in node.names
    }
    assert len(imported) == 9
    assert set(chainforge.__all__) == imported | RESULT_TYPES
    assert len(chainforge.__all__) == len(set(chainforge.__all__))
