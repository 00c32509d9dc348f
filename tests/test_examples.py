"""Smoke tests: the example scripts stay runnable.

Every example exposes ``main(argv) -> int``; the cheap ones run end to
end here with reduced parameters, the rest are import-checked so a broken
import or signature regression fails fast without paying their multi-minute
runtimes.
"""

import importlib.util
import pathlib

import pytest

from repro.persist import CHECKPOINT_VERSION

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name",
    [
        "quickstart",
        "verdict_demo",
        "accusation_demo",
        "anonymous_browsing",
        "consensus_demo",
        "file_sharing",
        "microblog_churn",
        "networked_demo",
        "scaling_study",
        "table_probe",
    ],
)
def test_example_exposes_main(name):
    module = load_example(name)
    assert callable(module.main)


def test_quickstart_runs_reduced(capsys):
    module = load_example("quickstart")
    assert module.main(["--clients", "6", "--servers", "2"]) == 0
    out = capsys.readouterr().out
    assert "delivered after" in out
    assert "meet at the fountain at noon" in out


def test_networked_demo_runs_reduced(capsys, tmp_path):
    from repro.obs import report

    module = load_example("networked_demo")
    checkpoint = str(tmp_path / "session.ckpt")
    argv = ["--clients", "5", "--servers", "2", "--rounds", "3"]
    assert module.main(argv + ["--checkpoint-out", checkpoint]) == 0
    out = capsys.readouterr().out
    assert "asyncio TCP nodes" in out
    assert "meet at the fountain at noon" in out
    # The checkpoint it wrote reads back through the report's decoders.
    assert report.main(["--checkpoint", checkpoint]) == 0
    out = capsys.readouterr().out
    assert out.startswith(
        f"checkpoint net-session, version {CHECKPOINT_VERSION} (digest verified)"
    )
    # Two servers and five clients, each node with its member section.
    assert "\n  [6]\n    role: client\n" in out and "\n  [7]" not in out


def test_consensus_demo_runs_reduced(capsys):
    module = load_example("consensus_demo")
    assert module.main(["--clients", "4", "--rounds", "3"]) == 0
    out = capsys.readouterr().out
    assert "view change" in out
    assert "certified view=1" in out
    assert "restarting from checkpoint" in out


def test_verdict_demo_runs_reduced(capsys):
    module = load_example("verdict_demo")
    assert module.main(["--clients", "5", "--servers", "2"]) == 0
    out = capsys.readouterr().out
    assert "rejected clients" in out
    assert "accusation shuffles: 0" in out


def test_microblog_churn_runs_reduced_over_hybrid(capsys):
    module = load_example("microblog_churn")
    assert module.main(["--mode", "hybrid", "--clients", "6"]) == 0
    out = capsys.readouterr().out
    assert "dcnet mode: hybrid" in out
    assert "use the paper maps from the library" in out
