"""The benchmark's tracer wraps program functions by name and raises
LayerNotCalled when a wrapped name records no call on a workload. Running a
short batch run and a short live loop under it here makes a renamed or
bypassed layer fail the test suite instead of the benchmark."""
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import child  # noqa: E402  (perfbench/child.py)
from tracer import COUNTED, SPANNED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from twinforge.cli import main  # noqa: E402


@pytest.fixture
def tracer(monkeypatch):
    # re-setting each wrapped attribute to itself makes monkeypatch restore
    # the original when the test ends
    for owner, attr, *_ in (*COUNTED, *SPANNED):
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    traced = Tracer()
    traced.install()
    return traced


@pytest.fixture(scope="module")
def trace_18s(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim18")
    assert main(["simulate", "--duration", "18", "--machines", "m1,m2,m3", "--out", str(out)]) == 0
    return out / "trace.jsonl"


def test_batch_run_reaches_every_traced_layer(tracer, trace_18s, tmp_path):
    result = child.run_batch(str(trace_18s), str(tmp_path / "out"))
    assert result["rc"] == 0
    tracer.check("batch")


def test_live_loop_reaches_every_traced_layer(tracer, trace_18s):
    result = child.run_live(WORKLOADS["live-3m-sliding"], str(trace_18s))
    assert len(result["latencies_s"]) == 6  # edges at 10 s and 14 s, 3 machines
    tracer.check("live")


def test_wrapped_names_are_restored():
    for owner, attr, *_ in (*COUNTED, *SPANNED):
        assert "Tracer" not in getattr(owner, attr).__qualname__, attr
