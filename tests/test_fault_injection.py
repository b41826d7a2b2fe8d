"""Seeded fault injection: one or two mutations of a short trace, each run
through `twinforge run`, must end in a documented exit code with one stderr
line. Python warnings are errors under the test configuration, so a case
that warns fails too."""
import json
import random

import pytest

from twinforge.cli import main

CASES = 200
HUGE_VALUES = (1e155, 1e300, 1.7e308, -1.7e308)


def _row_edit(edit):
    """A mutation that rewrites one random line's JSON object in place."""

    def mutate(lines, r):
        i = r.randrange(len(lines))
        row = json.loads(lines[i])
        edit(row, r)
        return lines[:i] + [json.dumps(row, separators=(",", ":"))] + lines[i + 1:]

    mutate.__name__ = edit.__name__
    return mutate


def drop(lines, r):
    i = r.randrange(len(lines))
    return lines[:i] + lines[i + r.choice([1, r.randint(2, 3000)]):]


def duplicate(lines, r):
    i = r.randrange(len(lines))
    return lines[: i + 1] + lines[i:]


def second_value(lines, r):
    i = r.randrange(len(lines))
    row = json.loads(lines[i])
    row["v"] = r.uniform(-5.0, 5.0)
    return lines[: i + 1] + [json.dumps(row, separators=(",", ":"))] + lines[i + 1:]


def swap(lines, r):
    out = list(lines)
    i, j = r.randrange(len(out)), r.randrange(len(out))
    out[i], out[j] = out[j], out[i]
    return out


def shuffle_block(lines, r):
    i = r.randrange(len(lines))
    block = lines[i : i + r.randint(2, 200)]
    r.shuffle(block)
    return lines[:i] + block + lines[i + len(block):]


def truncate(lines, r):
    i = r.randrange(len(lines))
    return lines[:i] + [lines[i][: r.randrange(len(lines[i]))]] + lines[i + 1:]


def flip_quality(row, r):
    row["q"] = r.choice(["good", "suspect", "missing"])


def null_value(row, r):
    row["v"] = None


def ts_back(row, r):
    row["ts"] = r.choice([-1, row["ts"] - r.randint(1, 10**9)])


def accel_to_plc_state(row, r):
    row["ch"] = "plc_state"


def huge_value(row, r):
    row["v"] = r.choice(HUGE_VALUES)


MUTATIONS = (
    drop, duplicate, second_value, swap, shuffle_block, truncate,
    *map(_row_edit, (flip_quality, null_value, ts_back, accel_to_plc_state, huge_value)),
)


@pytest.fixture(scope="module")
def base_lines(tmp_path_factory):
    out = tmp_path_factory.mktemp("base")
    assert main(["simulate", "--seed", "42", "--duration", "6", "--machines", "m1",
                 "--out", str(out)]) == 0
    return (out / "trace.jsonl").read_text(encoding="utf-8").splitlines()


def test_every_mutated_trace_ends_in_a_documented_exit(base_lines, tmp_path, capsys):
    failures = []
    exits = set()
    for case in range(CASES):
        r = random.Random(case)
        mutations = r.sample(MUTATIONS, 1 + case % 2)
        lines = base_lines
        for mutate in mutations:
            lines = mutate(lines, r)
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        capsys.readouterr()
        code = main(["run", str(trace), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        exits.add(code)
        one_line = err.count("\n") == 1
        prefix = "selected " if code == 0 else "twinforge: "
        if code not in (0, 2, 3, 4) or not one_line or not err.startswith(prefix):
            names = [m.__name__ for m in mutations]
            failures.append(f"case {case} {names}: exit {code}, stderr {err!r}")
    assert not failures, "\n".join(failures)
    # the corpus reaches both a clean run and a refused trace
    assert {0, 2} <= exits
