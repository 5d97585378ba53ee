import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_finds_every_target(monkeypatch):
    """Every function the benchmark's tracer wraps still exists, so a traced
    run (`perfbench/run.py --trace 1`) does not refuse to measure."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert spans.Tracer().missing == []
