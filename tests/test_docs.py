"""What the documentation and the packaging name must exist.

Every repository path cited by the READMEs, the CI workflow and the
docstrings under ``examples/`` and ``src/`` is resolved against the
checkout, so a deleted module or a never-written file cannot live on in
prose; and ``setup.py`` must describe the ``repro`` package.
"""

import ast
import glob
import re
import runpy
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
