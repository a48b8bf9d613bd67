"""The README's Python blocks and its command-line session run as written,
and the package root exports exactly what its library example imports
plus the types it returns or raises."""

import ast
import re
import shlex
from pathlib import Path

import pytest

import chainforge
from chainforge import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
POLICY = re.search(r"^```\n(elements:.*?)^```", TEXT, re.M | re.S).group(1)
SESSION = next(
    block
    for block in re.findall(r"^```console\n(.*?)^```", TEXT, re.M | re.S)
    if "$ chainforge " in block
)

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


def session_steps(block):
    """(command, shown output lines) for every ``$`` line of a console
    block, trailing ``# ...`` comments dropped from the commands."""
    steps = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append((re.sub(r"\s+#.*", "", line[2:]), []))
        elif line:
            steps[-1][1].append(line)
    return steps


def fits(shown, got):
    """True if the lines got are the lines shown, where a shown ``...``
    stands for any run of lines."""
    if not shown:
        return not got
    if shown[0] == "...":
        return any(fits(shown[1:], got[i:]) for i in range(len(got) + 1))
    return bool(got) and got[0] == shown[0] and fits(shown[1:], got[1:])


def test_cli_session(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CHAINFORGE_CI", raising=False)
    (tmp_path / "demo.policy").write_text(POLICY)
    steps = session_steps(SESSION)
    assert [" ".join(cmd.split()[:2]) for cmd, _ in steps] == [
        "chainforge analyze", "chainforge partition", "cat demo.partition",
        "chainforge evaluate", "chainforge oracle", "chainforge setup", "chainforge derive",
    ]
    for cmd, shown in steps:
        argv = shlex.split(cmd)
        if argv[0] == "cat":
            got = (tmp_path / argv[1]).read_text().splitlines()
        else:
            assert cli.main(argv[1:]) == 0, cmd
            got = capsys.readouterr().out.splitlines()
        if argv[1] == "derive":
            # the shown key is elided: the secrets come from system entropy
            material = (tmp_path / "keys" / "material.txt").read_text().splitlines()
            keys = dict(ln.split(" key ") for ln in material if " key " in ln)
            assert re.fullmatch("[0-9a-f]{64}", got[0])
            assert got == [keys[argv[-1]]]
        else:
            assert fits(shown, got), cmd
