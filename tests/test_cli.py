import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from twinforge import cli
from twinforge.archive import Archive
from twinforge.cli import ingest, main
from twinforge.twin import LifecyclePhase, TwinInstance
from twinforge.wire import Channel, TelemetrySample, write_trace


ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    # one machine at the default 120 s keeps the fixture fast but realistic
    assert run_cli("simulate", "--seed", "42", "--machines", "m1",
                   "--out", str(out)) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = run_cli("run", str(sim_dir / "trace.jsonl"), "--machine", "m1",
                   "--out", str(out))
    assert code == 0
    return out


class TestSimulate:
    def test_writes_trace_and_ground_truth(self, sim_dir):
        assert (sim_dir / "trace.jsonl").exists()
        assert (sim_dir / "ground_truth.json").exists()

    def test_deterministic_trace(self, sim_dir, tmp_path):
        again = tmp_path / "again"
        run_cli("simulate", "--seed", "42", "--machines", "m1", "--out", str(again))
        assert (again / "trace.jsonl").read_bytes() == (sim_dir / "trace.jsonl").read_bytes()

    def test_duration_zero_empty_trace(self, tmp_path):
        assert run_cli("simulate", "--duration", "0", "--out", str(tmp_path)) == 0
        assert (tmp_path / "trace.jsonl").read_text() == ""

    @pytest.mark.parametrize(
        "spec, flags, reason",
        [
            ("{not json", (), "Expecting property name"),
            ("[]", (), "expected a JSON object, got list"),
            ('"x"', (), "expected a JSON object, got str"),
            ("null", (), "expected a JSON object, got NoneType"),
            ('{"failure_windows": [["m1"]]}', (), "list index out of range"),
            ('{"machines": "m1"}', (), "machines must be a list, got str"),
            ('{"machines": [5]}', (), "bad machine id 5"),
            ('{"machines": [["m1"]]}', (), "bad machine id ['m1']"),
            ('{"seed": 1e400}', (), "seed must be an integer, got inf"),
            ('{"failure_windows": [[["m1"], 1, 2]]}', (), "machine id must be a string"),
            ('{"schedule": [{"machine": ["m1"], "start_s": 0, "end_s": 4, "state": "Failure"}]}',
             (), "machine id must be a string"),
            ('{"sample_rate": 1%s, "duration_s": 10}' % ("0" * 30), (), "at most 2**56 samples"),
            ('{"sample_rate": 1%s, "duration_s": 1e300}' % ("0" * 300), (), "at most 2**56 samples"),
            (None, ("--rate", "1" + "0" * 30, "--duration", "10"), "at most 2**56 samples"),
            (None, ("--rate", "1" + "0" * 400), "at most 2**56 samples"),
            (None, ("--duration", "1e30"), "at most 2**56 samples"),
            # valid, but its 10**14 samples per channel fit no address space
            (None, ("--duration", "1e12", "--machines", "m1"), "too large to simulate: "),
            # numbers are taken as written, never rounded or parsed from a string
            ('{"sample_rate": 99.9}', (), "sample_rate must be an integer, got 99.9"),
            ('{"sample_rate": "50"}', (), "sample_rate must be an integer, got '50'"),
            ('{"sample_rate": true}', (), "sample_rate must be an integer, got True"),
            ('{"seed": 4.9}', (), "seed must be an integer, got 4.9"),
            ('{"seed": true}', (), "seed must be an integer, got True"),
            ('{"duration_s": "4"}', (), "duration_s must be a number, got '4'"),
            ('{"duration_s": false}', (), "duration_s must be a number, got False"),
            ('{"schedule": [{"machine": "m1", "start_s": "0", "end_s": 4, "state": "Failure"}]}',
             (), "start_s must be a number, got '0'"),
            ('{"schedule": [{"machine": "m1", "start_s": 0, "end_s": true, "state": "Failure"}]}',
             (), "end_s must be a number, got True"),
            ('{"failure_windows": [["m1", "1", 2]]}', (), "failure window start must be a number, got '1'"),
            ('{"failure_windows": [["m1", 1, null]]}', (), "failure window end must be a number, got None"),
        ],
        ids=[
            "not-json", "list", "string", "null", "short-failure-window", "string-machines", "int-machine",
            "list-machine", "infinite-seed", "list-failure-machine", "list-schedule-machine",
            "spec-rate", "spec-rate-and-duration", "flag-rate",
            "flag-rate-past-float", "flag-duration", "flag-duration-past-memory",
            "float-rate", "string-rate", "bool-rate", "float-seed", "bool-seed", "string-duration",
            "bool-duration", "string-start", "bool-end", "string-failure-start", "null-failure-end",
        ],
    )
    def test_malformed_spec_exits_2(self, tmp_path, capsys, spec, flags, reason):
        argv = list(flags)
        if spec is not None:
            (tmp_path / "bad.json").write_text(spec, encoding="utf-8")
            argv += ["--spec", str(tmp_path / "bad.json")]
        assert run_cli("simulate", *argv, "--out", str(tmp_path / "out")) == 2
        assert_one_line_error(capsys, "invalid scenario: ", reason)
        assert not (tmp_path / "out").exists()

    def test_invalid_schedule_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "machines": ["m1"],
                    "duration_s": 10,
                    "schedule": [
                        {"machine": "m1", "start_s": 0, "end_s": 4, "state": "Idle"}
                    ],
                }
            ),
            encoding="utf-8",
        )
        assert run_cli("simulate", "--spec", str(bad), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("duration", ["nan", "inf", "-inf"])
    def test_non_finite_duration_exits_2(self, tmp_path, capsys, duration):
        assert run_cli("simulate", f"--duration={duration}", "--out", str(tmp_path)) == 2
        assert_one_line_error(capsys, "duration must be finite")

    @pytest.mark.parametrize("duration", ["NaN", "Infinity"])
    def test_non_finite_spec_duration_exits_2(self, tmp_path, capsys, duration):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"machines": ["m1"], "duration_s": %s, "schedule": [{"machine": "m1", '
            '"start_s": 0, "end_s": %s, "state": "Idle"}]}' % (duration, duration),
            encoding="utf-8",
        )
        assert run_cli("simulate", "--spec", str(spec), "--out", str(tmp_path)) == 2
        assert_one_line_error(capsys, "duration must be finite")

    def test_out_is_a_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert run_cli("simulate", "--duration", "1", "--out", str(taken)) == 2
        assert_one_line_error(capsys, "cannot create output directory")

    def test_artifact_is_a_directory_exits_2(self, tmp_path, capsys):
        (tmp_path / "ground_truth.json").mkdir()
        assert run_cli("simulate", "--duration", "1", "--out", str(tmp_path)) == 2
        assert_one_line_error(capsys, "cannot write", "ground_truth.json", "Is a directory")

    def test_spec_file_round_trip(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "seed": 7,
                    "machines": ["mA"],
                    "duration_s": 4,
                    "sample_rate": 100,
                    "schedule": [
                        {"machine": "mA", "start_s": 0, "end_s": 2, "state": "Idle"},
                        {"machine": "mA", "start_s": 2, "end_s": 3, "state": "Failure"},
                        {"machine": "mA", "start_s": 3, "end_s": 4, "state": "Waiting"},
                    ],
                    "failure_windows": [["mA", 2, 3]],
                }
            ),
            encoding="utf-8",
        )
        assert run_cli("simulate", "--spec", str(spec_path), "--out", str(tmp_path)) == 0
        truth = json.loads((tmp_path / "ground_truth.json").read_text())
        assert truth["mA"]["boundaries"] == [200, 300]


GOOD_LINE = b'{"asset":"m1","ch":"accel_x","ts":1,"v":0.5,"q":"good"}\n'
MALFORMED_TRACES = {
    "empty-asset": b'{"asset":"","ch":"accel_x","ts":2,"v":0.5,"q":"good"}\n',
    "slash-asset": b'{"asset":"a/b","ch":"accel_x","ts":2,"v":0.5,"q":"good"}\n',
    "int-over-float": b'{"asset":"m1","ch":"accel_x","ts":2,"v":1' + b"0" * 400 + b',"q":"good"}\n',
    "int-digit-limit": b'{"asset":"m1","ch":"accel_x","ts":' + b"9" * 5000 + b',"v":0.5,"q":"good"}\n',
    "non-utf8": b'{"asset":"m\xff","ch":"accel_x","ts":2,"v":0.5,"q":"good"}\n',
    "ts-past-int64": b'{"asset":"m1","ch":"accel_x","ts":9223372036854775808,"v":0.5,"q":"good"}\n',
}


@pytest.fixture(params=sorted(MALFORMED_TRACES))
def malformed_trace(request, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(GOOD_LINE + MALFORMED_TRACES[request.param] + GOOD_LINE)
    return path


def assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("twinforge: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err, err


class TestIngest:
    def test_twins_synchronized_and_samples_tagged(self):
        samples = [
            TelemetrySample(m, Channel.accel_x, ts, float(ts)) for ts in range(3) for m in ("m1", "m2")
        ]
        runtime, archive = ingest(samples)
        for m in ("m1", "m2"):
            assert runtime.get(m).phase is LifecyclePhase.Synchronized
            entries = archive.scan(m)
            assert [e.sample.ts for e in entries] == [0, 1, 2]
            assert all(e.tags == {"phase": "Synchronized"} for e in entries)


class TestRun:
    @pytest.mark.parametrize("value, quality", [("7", "suspect"), ("-2.5", "missing")])
    def test_plc_code_naming_no_state_does_not_crash(self, sim_dir, tmp_path, capsys,
                                                     value, quality):
        # a valid line: plc codes are range-checked only at quality good
        lines = (sim_dir / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        i = next(i for i, line in enumerate(lines) if '"plc_state"' in line and i > 100)
        ts = json.loads(lines[i])["ts"]
        lines[i] = (f'{{"asset":"m1","ch":"plc_state","ts":{ts},'
                    f'"v":{value},"q":"{quality}"}}')
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_cli("run", str(trace), "--machine", "m1", "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 0, err
        assert "Traceback" not in err
        assert (tmp_path / "out" / "report.json").exists()

    def test_artifacts_written(self, run_dir):
        for name in ("report.json", "timeline.csv", "anomalies.json",
                     "changepoints.txt", "manifest.json"):
            assert (run_dir / name).exists(), name

    def test_report_schema(self, run_dir):
        payload = json.loads((run_dir / "report.json").read_text())
        assert payload["machine"] == "m1"
        assert payload["selected"] == payload["replicas"][0]["version"]
        assert len(payload["replicas"]) == 24  # default grid
        sils = [r["silhouette"] for r in payload["replicas"]]
        assert sils == sorted(sils, reverse=True)

    def test_selected_segment_count_matches_scenario(self, sim_dir, run_dir):
        truth = json.loads((sim_dir / "ground_truth.json").read_text())
        payload = json.loads((run_dir / "report.json").read_text())
        assert payload["replicas"][0]["segment_count"] == len(truth["m1"]["phases"])

    def test_timeline_header(self, run_dir):
        first = (run_dir / "timeline.csv").read_text().splitlines()[0]
        assert first == "block_start,block_end,cluster,is_anomaly"

    def test_unknown_machine_exits_3(self, sim_dir, tmp_path):
        code = run_cli("run", str(sim_dir / "trace.jsonl"), "--machine", "ghost",
                       "--out", str(tmp_path))
        assert code == 3

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        assert run_cli("run", str(tmp_path / "none.jsonl"), "--out", str(tmp_path)) == 2
        assert_one_line_error(capsys, "cannot read trace", "none.jsonl")

    def test_trace_is_a_directory_exits_2(self, tmp_path, capsys):
        assert run_cli("run", str(tmp_path), "--out", str(tmp_path / "out")) == 2
        assert_one_line_error(capsys, "cannot read trace")

    def test_out_is_a_file_exits_2(self, sim_dir, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        code = run_cli("run", str(sim_dir / "trace.jsonl"), "--machine", "m1",
                       "--grid", '{"penalty": [40], "k": [2]}', "--out", str(taken))
        assert code == 2
        assert_one_line_error(capsys, "cannot create output directory")
        assert taken.read_text(encoding="utf-8") == ""

    def test_artifact_is_a_directory_exits_2(self, sim_dir, tmp_path, capsys):
        (tmp_path / "timeline.csv").mkdir()
        code = run_cli("run", str(sim_dir / "trace.jsonl"), "--machine", "m1",
                       "--grid", '{"penalty": [40], "k": [2]}', "--out", str(tmp_path))
        assert code == 2
        assert_one_line_error(capsys, "cannot write", "timeline.csv", "Is a directory")

    def test_rerun_byte_identical(self, sim_dir, run_dir, tmp_path):
        out2 = tmp_path / "rerun"
        assert run_cli("run", str(sim_dir / "trace.jsonl"), "--machine", "m1",
                       "--out", str(out2)) == 0
        for name in ("report.json", "timeline.csv", "anomalies.json"):
            assert (out2 / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_threads_env_is_ignored(self, sim_dir, run_dir, tmp_path, monkeypatch):
        # the sweep has no worker pool; a non-integer value once crashed it
        monkeypatch.setenv("TWINFORGE_THREADS", "abc")
        out2 = tmp_path / "threads"
        assert run_cli("run", str(sim_dir / "trace.jsonl"), "--machine", "m1",
                       "--out", str(out2)) == 0
        for name in ("report.json", "timeline.csv", "anomalies.json"):
            assert (out2 / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_failing_replica_exits_4_with_its_version(self, tmp_path, capsys):
        # 2 s is 4 blocks at block size 50: k = 5 fails there, in v22 and not
        # in v13, the first replica of that block size
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--duration", "2", "--out", str(sim)) == 0
        capsys.readouterr()
        assert run_cli("run", str(sim / "trace.jsonl"), "--out", str(tmp_path / "out")) == 4
        assert capsys.readouterr().err == "twinforge: pipeline error: v22-62596441: k=5 > n=4\n"

    def test_grid_override(self, sim_dir, tmp_path):
        out = tmp_path / "small"
        code = run_cli("run", str(sim_dir / "trace.jsonl"), "--machine", "m1",
                       "--out", str(out), "--grid", '{"penalty": [40], "k": [2]}')
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert len(payload["replicas"]) == 1

    def test_bad_grid_exits_2(self, sim_dir, tmp_path):
        assert run_cli("run", str(sim_dir / "trace.jsonl"), "--out", str(tmp_path),
                       "--grid", "{bad") == 2

    @pytest.mark.parametrize(
        "grid",
        ['[1]', '{"k":5}', '{"foo":[1]}', '{"penalty":[-1]}', '{"k":[0]}',
         '{"block_size":[0]}', '{"k":[]}', '{"k":[2.5]}', '{"block_size":[25.5]}',
         '{"smooth_window":[3.0]}', '{"block_size":[true]}', '{"penalty":["x"]}',
         '{"penalty":[NaN],"k":[2]}', '{"penalty":[Infinity]}', '{"sigma_threshold":[NaN]}',
         '{"sigma_threshold":[Infinity]}',
         pytest.param('{"penalty":[1%s]}' % ("0" * 400), id="penalty-401-digit-int"),
         pytest.param('{"sigma_threshold":[1%s]}' % ("0" * 400), id="sigma-401-digit-int"),
         '{"block_size":[10000000000000000000]}', '{"block_size":[9223372036854775808]}',
         pytest.param('{"block_size":[1%s]}' % ("0" * 5000), id="block-5001-digit-int"),
         '{"normalize":["x"]}', '{"normalize":[0]}', '{"penalty":[false],"k":[2]}',
         '{"penalty":[true]}', '{"sigma_threshold":[true]}', '{"sigma_threshold":[false]}'],
    )
    def test_invalid_grid_exits_2_before_ingest(self, tmp_path, capsys, grid):
        # the trace does not exist: the grid is rejected before any ingest
        assert run_cli("run", str(tmp_path / "none.jsonl"), "--out", str(tmp_path),
                       "--grid", grid) == 2
        assert_one_line_error(capsys, "--grid")

    @pytest.mark.parametrize("block_size", ["100000", "1000000000000000000", "9223372036854775807"])
    def test_block_past_the_window_exits_4(self, sim_dir, tmp_path, capsys, block_size):
        code = run_cli("run", str(sim_dir / "trace.jsonl"), "--out", str(tmp_path),
                       "--grid", f'{{"block_size":[{block_size}]}}')
        assert code == 4
        assert_one_line_error(capsys, "pipeline error: v1-", ": 1 blocks < min_segment 2")

    @pytest.mark.parametrize("threshold", ["2", "nan", "-0.1", "inf"])
    def test_invalid_threshold_exits_2_before_ingest(self, tmp_path, capsys, threshold):
        assert run_cli("run", str(tmp_path / "none.jsonl"), "--out", str(tmp_path),
                       "--threshold", threshold) == 2
        assert_one_line_error(capsys, "--threshold")

    def test_malformed_trace_exits_2(self, malformed_trace, tmp_path, capsys):
        assert run_cli("run", str(malformed_trace), "--out", str(tmp_path / "out")) == 2
        assert_one_line_error(capsys, "malformed trace: line 2: ")


@pytest.fixture(scope="module")
def three_machine_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim3")
    assert run_cli("simulate", "--machines", "m1,m2,m3", "--duration", "10",
                   "--out", str(out)) == 0
    return out / "trace.jsonl"


class TestRunIngestsOnlyItsMachine:
    def test_shadows_and_archives_only_the_machine(self, three_machine_trace, tmp_path,
                                                   monkeypatch):
        shadowed, appended = [], []
        shadow_sample, append_sample = TwinInstance.shadow_sample, Archive.append_sample

        def counted_shadow(twin, sample):
            shadowed.append(sample.asset_id)
            return shadow_sample(twin, sample)

        def counted_append(archive, sample, tags=None):
            appended.append(sample.asset_id)
            return append_sample(archive, sample, tags)

        monkeypatch.setattr(TwinInstance, "shadow_sample", counted_shadow)
        monkeypatch.setattr(Archive, "append_sample", counted_append)
        assert run_cli("run", str(three_machine_trace), "--machine", "m2",
                       "--out", str(tmp_path / "out")) == 0
        m2_lines = three_machine_trace.read_text(encoding="utf-8").count('"asset":"m2"')
        assert m2_lines > 0
        assert shadowed == appended == ["m2"] * m2_lines

    def test_artifacts_equal_those_of_the_machine_alone(self, three_machine_trace, tmp_path):
        lines = three_machine_trace.read_text(encoding="utf-8").splitlines(keepends=True)
        alone = tmp_path / "m2.jsonl"
        alone.write_text("".join(line for line in lines if '"asset":"m2"' in line),
                         encoding="utf-8")
        for trace, out in ((three_machine_trace, "all"), (alone, "alone")):
            assert run_cli("run", str(trace), "--machine", "m2", "--out", str(tmp_path / out)) == 0
        for name in ("report.json", "timeline.csv", "changepoints.txt", "anomalies.json"):
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()

    def test_malformed_line_of_another_machine_exits_2(self, three_machine_trace, tmp_path,
                                                        capsys):
        lines = three_machine_trace.read_text(encoding="utf-8").splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if i > 100 and '"asset":"m3"' in line)
        lines[i] = lines[i].replace('"ts":', '"ts":"x",', 1)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(lines), encoding="utf-8")
        assert run_cli("run", str(bad), "--machine", "m1", "--out", str(tmp_path / "out")) == 2
        assert_one_line_error(capsys, f"malformed trace: line {i + 1}: ")

    def test_absent_machine_exits_3(self, three_machine_trace, tmp_path, capsys):
        assert run_cli("run", str(three_machine_trace), "--machine", "m4",
                       "--out", str(tmp_path / "out")) == 3
        assert_one_line_error(capsys, "no samples for machine 'm4'")

    def test_machine_with_only_plc_state_exits_3(self, tmp_path, capsys):
        trace = tmp_path / "plc.jsonl"
        write_trace(trace, [TelemetrySample("m1", Channel.plc_state, ts, 1.0) for ts in (0, 10, 20)])
        assert run_cli("run", str(trace), "--machine", "m1", "--out", str(tmp_path / "out")) == 3
        assert_one_line_error(capsys, "no samples for m1 in (0, 21)")

    def test_bench_still_reports_every_machine(self, three_machine_trace, capsys):
        assert run_cli("bench", str(three_machine_trace)) == 0
        n_lines = len(three_machine_trace.read_text(encoding="utf-8").splitlines())
        err = capsys.readouterr().err
        assert err.startswith(f"({n_lines} samples, 3 machines, "), err


class TestHugeValue:
    """One accel sample past the square root of the largest float64 is an
    outlier like any other: the run keeps the clean trace's winner and
    warns of no overflow. Block features too large for the analytics end in
    exit 4."""

    @pytest.mark.parametrize("value", ["1e155", "1.7e308"])
    def test_run_keeps_the_clean_winner(self, tmp_path, capsys, value):
        assert run_cli("simulate", "--seed", "42", "--duration", "12", "--machines", "m1",
                       "--out", str(tmp_path)) == 0
        lines = (tmp_path / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        spike = '{"asset":"m1","ch":"accel_x","ts":5000000000,'
        (i,) = [n for n, line in enumerate(lines) if line.startswith(spike)]
        lines[i] = spike + f'"v":{value},"q":"good"}}'
        (tmp_path / "huge.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("run", str(tmp_path / "huge.jsonl"), "--out", str(tmp_path)) == 0
        err = capsys.readouterr().err
        assert err.startswith("selected v15-1039b0bb: ") and err.count("\n") == 1, err
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["selected"] == "v15-1039b0bb"

    def test_unnormalized_features_too_large_exit_4(self, tmp_path, capsys):
        # every accel value x 1e160: none is an outlier, and with normalize
        # off the block peaks would overflow PELT, k-means and silhouette
        assert run_cli("simulate", "--seed", "42", "--duration", "12", "--machines", "m1",
                       "--out", str(tmp_path)) == 0
        rows = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
        for row in rows:
            if row["ch"].startswith("accel_"):
                row["v"] *= 1e160
        (tmp_path / "huge.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        capsys.readouterr()
        grid = '{"normalize": [false], "k": [2]}'
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("run", str(tmp_path / "huge.jsonl"), "--grid", grid,
                           "--out", str(tmp_path / "out"))
            assert code == 4
            assert_one_line_error(capsys, "pipeline error: v1-bfd34981: feature peak", "2**480")
            # normalized, the same trace is an ordinary one
            assert run_cli("run", str(tmp_path / "huge.jsonl"), "--out", str(tmp_path / "out")) == 0
        assert capsys.readouterr().err.startswith("selected v15-1039b0bb: ")


def _report_into_closed_pipe(report):
    """`python -m twinforge report` with stdout on a pipe whose read end is
    closed before the child starts, so its first write fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "twinforge", "report", str(report)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)


class TestReport:
    def test_closed_stdout_ends_quietly(self, run_dir):
        proc = _report_into_closed_pipe(run_dir / "report.json")
        assert proc.stderr == b""
        assert proc.returncode == 0

    def test_table(self, run_dir, capsys):
        assert run_cli("report", str(run_dir / "report.json")) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 1 + 24  # header + one row per replica
        selected = json.loads((run_dir / "report.json").read_text())["selected"]
        marked = [l for l in lines if l.startswith("*")]
        assert len(marked) == 1 and selected in marked[0]

    def test_empty_results(self, tmp_path, capsys):
        p = tmp_path / "r.json"
        p.write_text(json.dumps({"replicas": [], "selected": None}), encoding="utf-8")
        assert run_cli("report", str(p)) == 0
        assert "no replicas" in capsys.readouterr().out

    def test_truncated_json_exits_2(self, tmp_path):
        p = tmp_path / "r.json"
        p.write_text('{"replicas": [', encoding="utf-8")
        assert run_cli("report", str(p)) == 2

    @pytest.mark.parametrize(
        "content, fragment",
        [
            (b'{"replicas": 5, "selected": "x"}', "malformed report: replicas is a int"),
            (b'{"replicas": [{"version": "v1", "penalty": "x", "k": 2, "block_size": 50, '
             b'"silhouette": 0.5, "segment_count": 3, "anomaly_count": 0}], "selected": "v1"}',
             "malformed report row: "),
            (b'["replicas"]', "malformed report: "),
            (b'{"replicas": ["\xff"], "selected": null}', "malformed report: "),
            # a good first row is not printed when a later row is malformed
            (b'{"replicas": [{"version": "v1", "penalty": 10, "k": 2, "block_size": 50, '
             b'"silhouette": 0.5, "segment_count": 3, "anomaly_count": 0}, '
             b'{"version": "v2", "k": 2, "block_size": 50, '
             b'"silhouette": 0.5, "segment_count": 3, "anomaly_count": 0}], "selected": "v1"}',
             "malformed report row: 'penalty'"),
        ],
    )
    def test_malformed_report_exits_2(self, tmp_path, capsys, content, fragment):
        p = tmp_path / "r.json"
        p.write_bytes(content)
        assert run_cli("report", str(p)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"twinforge: {fragment}") and err.count("\n") == 1, err


class TestBench:
    def test_reports_integer_rate(self, sim_dir, capsys):
        assert run_cli("bench", str(sim_dir / "trace.jsonl")) == 0
        first_line = capsys.readouterr().out.splitlines()[0]
        rate, unit = first_line.split()
        assert unit == "samples/s"
        assert int(rate) > 0

    def test_empty_trace_exits_3(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("", encoding="utf-8")
        assert run_cli("bench", str(p)) == 3

    def test_trace_is_a_directory_exits_2(self, tmp_path, capsys):
        assert run_cli("bench", str(tmp_path)) == 2
        assert_one_line_error(capsys, "cannot read trace")

    def test_malformed_trace_exits_2(self, malformed_trace, capsys):
        assert run_cli("bench", str(malformed_trace)) == 2
        assert_one_line_error(capsys, "malformed trace: line 2: ")

    def test_sweeps_every_machine_as_run_does(self, tmp_path, monkeypatch, capsys):
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--machines", "m1,m2,m3", "--duration", "10",
                       "--out", str(sim)) == 0
        calls = []
        zeroconf_run = cli.zeroconf_run

        def counted(archive, machine, time_range, **kwargs):
            calls.append((machine, time_range == archive.time_span(machine), kwargs["twin"].asset_id))
            return zeroconf_run(archive, machine, time_range, **kwargs)

        monkeypatch.setattr(cli, "zeroconf_run", counted)
        capsys.readouterr()
        assert run_cli("bench", str(sim / "trace.jsonl"), "--seed", "7") == 0
        assert calls == [(m, True, m) for m in ("m1", "m2", "m3")]
        out, err = capsys.readouterr()
        assert out.split()[1] == "samples/s"
        assert err.startswith("(") and "3 machines" in err and err.count("\n") == 1

    def test_failing_sweep_exits_4_as_run_does(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--duration", "1", "--out", str(sim)) == 0
        capsys.readouterr()
        assert run_cli("run", str(sim / "trace.jsonl"), "--out", str(tmp_path / "out")) == 4
        run_err = capsys.readouterr().err
        assert run_cli("bench", str(sim / "trace.jsonl")) == 4
        out, err = capsys.readouterr()
        assert out == "" and err == run_err
        assert err.startswith("twinforge: pipeline error: v10-") and err.count("\n") == 1
