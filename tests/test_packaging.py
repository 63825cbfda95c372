"""The README's example runs as written, and the package needs nothing
beyond the standard library at run time."""

import ast
import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import mimlab
from mimlab.cli import build_parser

README = Path(__file__).parents[1] / "README.md"
SRC = Path(mimlab.__file__).parents[1]


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks[0], {})
    value, text = out.getvalue().splitlines()
    assert value == "2"
    assert text.startswith("(") and text.endswith(")")


def test_readme_cli_block_parses():
    text = README.read_text()
    block = re.search(r"## Command line\n.*?```\n(.*?)```", text, re.S).group(1)
    commands = []
    for line in block.splitlines():
        command = re.split(r"\s{2,}", line)[0]  # the description follows
        head, _, last = command.rpartition(" ")
        commands += [f"{head} {alt}" for alt in last.split("|")]  # a|b: both
    assert len(commands) == 13
    parser = build_parser()
    for command in commands:
        prog, *argv = shlex.split(command)
        assert prog == "mimlab"
        assert callable(parser.parse_args(argv).func), command


BLOCKED_NETWORKX = """
import sys
sys.modules["networkx"] = None  # any `import networkx` now raises ImportError
import mimlab, mimlab.harness, mimlab.cli
assert len(mimlab.harness.chordal_bipartite_corpus()) == 58
sys.exit(mimlab.cli.main(["verify", "constructions"]))
"""


def test_runs_without_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED_NETWORKX], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("family,parameter,n,")


def test_library_has_no_assert():
    # `python -O` strips assert statements, so library checks must raise.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "mimlab").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
