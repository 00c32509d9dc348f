"""What the documentation and the packaging name must exist.

Every repository path cited by the READMEs, the CI workflow and the
docstrings under ``examples/`` and ``src/`` is resolved against the
checkout, so a deleted module or a never-written file cannot live on in
prose; ``setup.py`` must describe the ``repro`` package, and its promise
of no third-party runtime dependency must hold in a fresh interpreter.
README's Observability table names exactly the metrics ``src/`` records.
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

import pytest
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


NET_MODULES = ("repro.net",) + tuple(
    f"repro.net.{path.stem}"
    for path in sorted((ROOT / "src" / "repro" / "net").glob("*.py"))
    if path.stem != "__init__"
)


@pytest.mark.parametrize("module", NET_MODULES)
def test_each_net_module_imports_first_in_a_fresh_interpreter(module):
    # A script or a node process may import any of these before anything
    # else of the library; an import cycle through ``repro.core`` shows
    # only then, never in a suite that imported ``repro.core`` first.
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


#: The registry calls whose first argument names a metric.
INSTRUMENTS = ("counter", "gauge", "histogram")


def _emitted_metric_names() -> set[str]:
    """Every metric name ``src/repro`` passes to a registry instrument.

    A string literal is taken whole; an f-string by its literal prefix,
    marked with a trailing ``*``.  A name held in a variable is forwarded,
    not emitted (``merge_snapshot``, the tracer's span histograms), and is
    skipped.
    """
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in INSTRUMENTS
                and node.args
            ):
                continue
            name = node.args[0]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                names.add(name.value)
            elif isinstance(name, ast.JoinedStr):
                prefix = ""
                for part in name.values:
                    if not isinstance(part, ast.Constant):
                        break
                    prefix += part.value
                names.add(prefix + "*")
    return names


def _documented_metric_patterns() -> list[str]:
    """The names in README's Observability table, braces expanded.

    Rows served as OpenMetrics gauges are computed by ``obs/health.py``
    from a health snapshot, not recorded on a registry, and are left out.
    """
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Observability\n", 1)[1].split("\n## ", 1)[0]
    patterns = []
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) < 4 or not cells[1].strip().startswith("`"):
            continue
        if "OpenMetrics" in cells[2]:
            continue
        for cited in re.findall(r"`([^`]+)`", cells[1]):
            expanded = [""]
            for literal, choices in re.findall(r"([^{]*)(?:\{([^}]*)\})?", cited):
                options = choices.split(",") if choices else [""]
                expanded = [e + literal + o for e in expanded for o in options]
            patterns.extend(expanded)
    return patterns


def _matches(emitted: str, pattern: str) -> bool:
    """Whether an emitted name (or f-string prefix) can be the row ``pattern``,
    whose ``<...>`` parts stand for any text."""
    head = pattern.split("<", 1)[0]
    if emitted.endswith("*"):
        prefix = emitted[:-1]
        return head.startswith(prefix) or (head != pattern and prefix.startswith(head))
    regex = ".+".join(map(re.escape, re.split(r"<[^>]*>", pattern)))
    return re.fullmatch(regex, emitted) is not None


def test_every_metric_has_a_readme_row_and_every_row_a_metric():
    emitted = _emitted_metric_names()
    documented = _documented_metric_patterns()
    undocumented = sorted(
        name for name in emitted if not any(_matches(name, p) for p in documented)
    )
    # A ``span.*`` histogram is named by the tracer from a span record
    # (``Span.metric_key``), not at a registry call, so only emitted span
    # names are checked against the table.
    unemitted = sorted(
        pattern
        for pattern in documented
        if not pattern.startswith("span.")
        and not any(_matches(name, pattern) for name in emitted)
    )
    assert not undocumented, f"metrics with no README row: {undocumented}"
    assert not unemitted, f"README rows nothing emits: {unemitted}"
