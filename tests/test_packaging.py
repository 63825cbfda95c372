"""The README's example runs as written, the package needs nothing
beyond the standard library at run time, and each public name has one
import path: its module."""

import ast
import contextlib
import importlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import mimlab
from mimlab.cli import build_parser

ROOT = Path(__file__).parents[1]
README = ROOT / "README.md"
SRC = Path(mimlab.__file__).parents[1]
LAYERS = ("construct", "decomp", "graph", "harness", "recognize", "solver")


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


def _python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_runs_without_networkx():
    proc = _python(BLOCKED_NETWORKX)
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


def test_package_binds_only_version():
    # `import mimlab` names nothing but __version__, and imports no module.
    proc = _python(
        "import sys, mimlab\n"
        "print(sorted(k for k in vars(mimlab) if not k.startswith('__')))\n"
        "print(mimlab.__version__)\n"
        "print(sorted(m for m in sys.modules if m.startswith('mimlab.')))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"[]\n{mimlab.__version__}\n[]\n"


def _bench_names():
    """(module, name) for every library name that the benchmark reads: the
    `<layer>.<name>` reads and `from mimlab... import` lines of bench/*.py,
    the keys of its CHECKS table, and the functions that BENCHMARK.json's
    per-layer metrics name (`[setup.]<layer>.<function>.self_s|calls`)."""
    names = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in LAYERS:
                    names.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mimlab"):
                for alias in node.names:
                    if node.module == "mimlab":
                        names.add((alias.name, None))
                    else:
                        names.add((node.module.removeprefix("mimlab."), alias.name))
            elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CHECKS":
                names.update(ast.literal_eval(key) for key in node.value.keys)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        parts = metric["name"].removeprefix("setup.").split(".")
        if len(parts) == 3 and parts[0] in LAYERS and parts[2] in ("self_s", "calls"):
            names.add((parts[0], parts[1]))
    return names


def test_every_name_the_benchmark_reads_resolves():
    names = _bench_names()
    assert ("construct", "completion_ratio") in names  # a per-layer metric
    assert ("construct", "embed_chord_diagram") in names  # a CHECKS key
    assert ("decomp", "subtree_leaf_sets") in names  # an attribute read
    missing = []
    for module, name in sorted(names, key=str):
        try:
            mod = importlib.import_module(f"mimlab.{module}")
        except ImportError:
            missing.append(module)
            continue
        if name is not None and not hasattr(mod, name):
            missing.append(f"{module}.{name}")
    assert missing == []
