"""What the documentation and the packaging name must exist.

Every repository path cited by the READMEs, the CI workflow and the
docstrings under ``examples/`` and ``src/`` is resolved against the
checkout, so a deleted module or a never-written file cannot live on in
prose; ``setup.py`` must describe the ``repro`` package, and its promise
of no third-party runtime dependency must hold in a fresh interpreter.
"""

import ast
import glob
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import setuptools

ROOT = Path(__file__).resolve().parent.parent

#: ``tests/test_x.py::TestY``, ``examples/*.py``, ``benchmarks.e2e``, ``NAME.md``.
CITED = re.compile(
    r"(?<![\w/.-])(?:(?:benchmarks|examples|tests|src)/[\w./*-]+"
    r"|benchmarks\.\w+|[\w-]+\.(?:md|toml))"
)


def _docstrings(path: Path) -> str:
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return "\n".join(
        ast.get_docstring(node) or ""
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, documented)
    )


def _documents():
    for name in ("README.md", "benchmarks/e2e/README.md", ".github/workflows/ci.yml"):
        yield name, (ROOT / name).read_text()
    sources = [ROOT / "setup.py", *(ROOT / "examples").glob("*.py")]
    for path in sources + list((ROOT / "src").rglob("*.py")):
        yield str(path.relative_to(ROOT)), _docstrings(path)


def test_every_cited_path_exists():
    dangling = {}
    for name, text in _documents():
        for match in CITED.finditer(text):
            cited = match.group().split("::")[0].rstrip(".,:;")
            if cited.startswith("benchmarks."):
                cited = cited.replace(".", "/") + "*"
            if not glob.glob(str(ROOT / cited), recursive=True):
                dangling.setdefault(name, set()).add(match.group())
    assert not dangling, "\n".join(
        f"{name} cites {sorted(cited)}" for name, cited in dangling.items()
    )


def test_setup_metadata_names_the_repro_package(monkeypatch):
    metadata = {}
    monkeypatch.setattr(setuptools, "setup", metadata.update)
    monkeypatch.chdir(ROOT)
    runpy.run_path("setup.py")
    assert metadata["name"] == "repro" and metadata["version"]
    assert metadata["package_dir"] == {"": "src"}
    assert {"repro", "repro.core", "repro.net"} <= set(metadata["packages"])


#: Every driver, both session families, persistence, the report CLI, the
#: simulator and a paper figure: between them they import all of ``src/``
#: that a benchmark workload or an example loads.
ENTRY_MODULES = (
    "repro.net.runner",
    "repro.core.session",
    "repro.verdict.session",
    "repro.persist",
    "repro.obs.report",
    "repro.sim.roundsim",
    "repro.bench.fig7",
)


def test_importing_the_library_loads_no_third_party_module():
    # The benchmark's ``warm_rss_mib`` bound (10%) rests on this: ``numpy``
    # and ``cryptography`` are installed beside the interpreter on the
    # development box, and importing ``numpy`` alone costs more resident
    # memory than the bound allows a microblog workload.  A gated
    # ``try: import numpy`` would pass wherever it is absent, so the check
    # runs where site-packages is visible and looks at what got loaded.
    probe = (
        "import importlib, json, sys\n"
        "before = set(sys.modules)\n"
        f"for name in {ENTRY_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(json.dumps(sorted(loaded - sys.stdlib_module_names - {'repro'})))\n"
    )
    environment = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=environment,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []
