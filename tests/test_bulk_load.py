"""Bulk loads (cli.ingest, Archive.load) keep no object per row: with
automatic garbage collection on, they start no collection, leave the
caller's collector state as it was, and leave no garbage; append_sample
reuses the shared view of a tags mapping passed again unchanged."""
import gc
from contextlib import contextmanager

import pytest

from twinforge.archive import Archive
from twinforge.cli import ingest
from twinforge.errors import MalformedLine
from twinforge.simulate import default_scenario, simulate_scenario
from twinforge.wire import Channel, TelemetrySample, replay_trace, write_trace


@pytest.fixture(scope="module")
def trace_10k(tmp_path_factory):
    samples, _ = simulate_scenario(default_scenario(seed=42, duration_s=40, machines=("m1",)))
    path = tmp_path_factory.mktemp("bulk") / "trace.jsonl"
    assert write_trace(path, samples[:10_000]) == 10_000
    return path


@contextmanager
def collections_started():
    """The generations of the collections that start inside the block."""
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        yield starts
    finally:
        gc.callbacks.remove(hook)


@contextmanager
def collector(enabled: bool):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_no_collection_during_ingest(trace_10k):
    samples = replay_trace(trace_10k)
    with collector(True), collections_started() as starts:
        gc.collect()  # the allocation count starts from zero
        del starts[:]
        loaded = ingest(samples)  # unpacked outside: that may start a collection
        during = len(starts)  # len allocates no tracked object
    runtime, archive = loaded
    assert len(archive.scan("m1")) == 10_000
    assert during == 0


def test_no_collection_during_load(trace_10k):
    with collector(True), collections_started() as starts:
        gc.collect()
        del starts[:]
        archive = Archive.load(trace_10k)
        during = len(starts)
    assert len(archive.scan("m1")) == 10_000
    assert during == 0


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("load", ["ingest", "Archive.load"])
def test_collector_state_restored(trace_10k, enabled, load):
    with collector(enabled):
        if load == "ingest":
            ingest(replay_trace(trace_10k))
        else:
            Archive.load(trace_10k)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("load", ["ingest", "Archive.load"])
def test_collector_back_on_after_malformed_line(trace_10k, tmp_path, load):
    lines = trace_10k.read_text(encoding="utf-8").splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines[:5000]) + "{not json\n" + "".join(lines[5000:]), encoding="utf-8")
    with collector(True):
        with pytest.raises(MalformedLine, match="^line 5001: "):
            ingest(replay_trace(bad)) if load == "ingest" else Archive.load(bad)
        assert gc.isenabled()


def test_ingest_of_default_trace_leaves_no_garbage(tmp_path):
    samples, _ = simulate_scenario(default_scenario(seed=42))
    trace = tmp_path / "trace.jsonl"
    write_trace(trace, samples)
    del samples
    with collector(True), collections_started() as starts:
        gc.collect()
        del starts[:]
        loaded = ingest(replay_trace(trace))
        during = len(starts)
        assert gc.collect() == 0
    runtime, archive = loaded
    assert sorted(archive.assets()) == ["m1", "m2", "m3", "m4"]
    assert sum(len(archive.scan(m)) for m in archive.assets()) == 144_016
    assert during == 0


def sample(ts, asset="m1"):
    return TelemetrySample(asset, Channel.accel_x, ts, 0.0)


class TestRepeatedTags:
    def test_same_mapping_shares_one_view(self):
        archive = Archive()
        tags = {"phase": "Bound"}
        for ts in range(3):
            archive.append_sample(sample(ts), tags)
        archive.append_sample(sample(3), {"phase": "Bound"})
        a, b, c, d = archive.scan("m1")
        assert a.tags is b.tags is c.tags is d.tags
        assert a.tags == {"phase": "Bound"}

    def test_changed_mapping_is_copied_again(self):
        archive = Archive()
        tags = {"phase": "Bound"}
        archive.append_sample(sample(1), tags)
        tags["phase"] = "Synchronized"
        archive.append_sample(sample(2), tags)
        tags["extra"] = "x"
        archive.append_sample(sample(3), tags)
        a, b, c = archive.scan("m1")
        assert [e.tags for e in (a, b, c)] == [
            {"phase": "Bound"},
            {"phase": "Synchronized"},
            {"phase": "Synchronized", "extra": "x"},
        ]

    def test_reordered_keys_keep_their_order(self):
        archive = Archive()
        tags = {"a": "1", "b": "2"}
        archive.append_sample(sample(1), tags)
        del tags["a"]
        tags["a"] = "1"  # equal mapping, keys now b, a
        archive.append_sample(sample(2), tags)
        first, second = archive.scan("m1")
        assert list(first.tags) == ["a", "b"]
        assert list(second.tags) == ["b", "a"]
        assert first.tags is not second.tags

    def test_unhashable_value_gets_its_own_copy_each_time(self):
        archive = Archive()
        tags = {"ops": ["a"]}
        archive.append_sample(sample(1), tags)
        archive.append_sample(sample(2), tags)
        first, second = archive.scan("m1")
        assert first.tags == second.tags == {"ops": ["a"]}
        assert first.tags is not second.tags

    def test_no_tags_after_tags(self):
        archive = Archive()
        archive.append_sample(sample(1), {"phase": "Bound"})
        archive.append_sample(sample(2))
        archive.append_sample(sample(3), {})
        assert [e.tags for e in archive.scan("m1")] == [{"phase": "Bound"}, {}, {}]
