import json
import random
import struct

import numpy as np
import pytest
from conftest import HUGE_INT, HUGE_INT_SHOWN
from hypothesis import given
from hypothesis import strategies as st
from oracles import reference_decode_sample

import twinforge.rng as rng
from twinforge import wire
from twinforge.errors import InvalidAssetId, MalformedLine
from twinforge.simulate import default_scenario, simulate_scenario
from twinforge.wire import (
    Channel,
    Quality,
    TelemetrySample,
    decode_sample,
    encode_sample,
    replay_trace,
    write_trace,
)


class TestEncode:
    def test_exact_line(self):
        s = TelemetrySample("drill-1", Channel.accel_x, 1000, 0.5, Quality.good)
        assert (
            encode_sample(s)
            == '{"asset":"drill-1","ch":"accel_x","ts":1000,"v":0.5,"q":"good"}'
        )

    def test_integral_value_serialized_as_int(self):
        s = TelemetrySample("m1", Channel.plc_state, 0, 2.0)
        assert '"v":2,' in encode_sample(s)

    def test_no_trailing_whitespace(self):
        s = TelemetrySample("m1", Channel.accel_z, 5, -1.25)
        assert encode_sample(s) == encode_sample(s).strip()


MALFORMED_LINES = [
    "not json",
    '{"asset":"x","ch":"accel_x","ts":1,"v":0}',  # missing key
    '{"asset":"x","ch":"accel_x","ts":1,"v":0,"q":"good","extra":1}',
    '{"asset":"x","ch":"accel_x","ts":1,"v":0,"q":"fine"}',
    '{"asset":"x","ch":"accel_x","ts":1.5,"v":0,"q":"good"}',
    '{"asset":"x","ch":"plc_state","ts":1,"v":7,"q":"good"}',
    '{"asset":1,"ch":"accel_x","ts":1,"v":0,"q":"good"}',
    '{"asset":"x","ch":"accel_x","ts":1,"v":"0","q":"good"}',
    "[1,2,3]",
]


def _line(asset='"x"', ch='"accel_x"', ts="1", v="0.5", q='"good"'):
    """A trace line with the given raw JSON text per field."""
    return f'{{"asset":{asset},"ch":{ch},"ts":{ts},"v":{v},"q":{q}}}'


_GOOD = _line()
PARITY_CORPUS = [
    *MALFORMED_LINES,
    _GOOD,
    _line(ch='"plc_state"', v="2", q='"good"'),
    _line(ch='"plc_state"', v="7", q='"suspect"'),
    _line(v="-3", q='"missing"'),
    # whitespace, a BOM, and line ends around a valid object
    " " + _GOOD,
    _GOOD + " ",
    "\t" + _GOOD + "\n",
    _GOOD + "\r",
    "\ufeff" + _GOOD,
    "",
    "   ",
    # non-finite and out-of-range numbers
    _line(v="NaN"),
    _line(v="-Infinity"),
    _line(v="1e400"),
    _line(ts="1e400"),
    _line(ts="-1"),
    # wrong JSON types per field
    _line(ch="1"),
    _line(ch="[1]"),
    _line(ch="null"),
    _line(ch='"ACCEL_X"'),
    _line(q='["good"]'),
    _line(q="null"),
    _line(ts="true"),
    _line(v="false"),
    _line(v="null"),
    _line(asset="null"),
    # duplicate keys (the last one wins) and trailing data
    '{"asset":"x","asset":"y","ch":"accel_x","ts":1,"v":0.5,"q":"good"}',
    '{"asset":"x","ch":"accel_x","ts":1,"v":0.5,"v":1}',
    _GOOD + "{}",
    _GOOD + _GOOD,
    "{}",
    "null",
    '"accel_x"',
    "{",
    # the edges of the canonical-line fast path: number forms JSON accepts
    # or refuses, integers around its 18-digit limit, and assets it leaves
    # to the JSON decoder (escapes) or reads itself (non-ASCII, a space)
    *(_line(v=v) for v in ("-0", "-0.0", "1E5", "1e-7", "01", "+1", ".5", "1.")),
    *(_line(v=d) for d in ("1" + "0" * 16, "9" * 17, "9" * 18, "-" + "9" * 18, "9" * 19, "9" * 20)),
    *(_line(ts=d) for d in ("1" + "0" * 16, "9" * 17, "9" * 18, "9" * 19, "9" * 20)),
    _line(asset=r'"m\u0031"'),
    _line(asset='"m\u00e9"'),
    _line(asset='"x y"'),
    # bytes take the JSON path
    _GOOD.encode(),
    _line(v="-0").encode(),
]


class TestDecode:
    def test_inverse_of_encode(self):
        s = TelemetrySample("m1", Channel.accel_y, 123456789, 3.14159, Quality.suspect)
        assert decode_sample(encode_sample(s)) == s

    def test_bad_channel(self):
        line = '{"asset":"x","ch":"accel_w","ts":1,"v":0,"q":"good"}'
        with pytest.raises(MalformedLine):
            decode_sample(line)

    def test_negative_ts(self):
        line = '{"asset":"x","ch":"accel_x","ts":-1,"v":0,"q":"good"}'
        with pytest.raises(MalformedLine):
            decode_sample(line)

    def test_ts_bounded_to_int64(self):
        line = '{"asset":"x","ch":"accel_x","ts":%d,"v":0,"q":"good"}'
        assert decode_sample(line % (2**63 - 1)).ts == 9223372036854775807
        with pytest.raises(MalformedLine) as got:
            decode_sample(line % 2**63)
        assert str(got.value) == "ts 9223372036854775808 is past 2**63 - 1"
        with pytest.raises(MalformedLine):
            encode_sample(TelemetrySample("x", Channel.accel_x, 2**63, 0.0))

    @pytest.mark.parametrize("ts, message", [
        (HUGE_INT, f"ts {HUGE_INT_SHOWN} is past 2**63 - 1"),
        (-HUGE_INT, f"negative ts {HUGE_INT_SHOWN}"),
    ], ids=["huge", "huge-negative"])
    def test_ts_too_long_to_print_is_shown_by_its_size(self, int_text_limit, ts, message):
        with pytest.raises(MalformedLine) as got:
            TelemetrySample("x", Channel.accel_x, ts, 0.0).validate()
        assert str(got.value) == message

    def test_int_value_past_the_float_range_is_malformed(self, int_text_limit):
        # decode refuses such a line first; a library caller gets decode's text
        with pytest.raises(MalformedLine) as decoded:
            decode_sample(_line(v="1" + "0" * 400))
        with pytest.raises(MalformedLine) as got:
            TelemetrySample("x", Channel.accel_x, 1, 10**400).validate()
        assert str(got.value) == str(decoded.value) == "value out of float range: 1" + "0" * 400
        with pytest.raises(MalformedLine) as got:
            TelemetrySample("m1", Channel.accel_x, 1, HUGE_INT).validate()
        assert str(got.value) == f"value out of float range: {HUGE_INT_SHOWN}"

    @pytest.mark.parametrize("line", MALFORMED_LINES)
    def test_malformed_lines(self, line):
        with pytest.raises(MalformedLine):
            decode_sample(line)

    @pytest.mark.parametrize("line", PARITY_CORPUS)
    def test_parity_with_reference(self, line):
        """Same samples and same MalformedLine text as the original decoder."""
        try:
            expected = reference_decode_sample(line)
        except MalformedLine as exc:
            with pytest.raises(MalformedLine) as got:
                decode_sample(line)
            assert str(got.value) == str(exc)
        else:
            got = decode_sample(line)
            assert got == expected
            assert struct.pack("<d", got.value) == struct.pack("<d", expected.value)

    @pytest.mark.parametrize(
        "line, reference_error, message",
        [
            (_line(asset='""'), InvalidAssetId, "bad asset id ''"),
            (_line(asset='"a/b"'), InvalidAssetId, "bad asset id 'a/b'"),
            (_line(v="1" + "0" * 400), OverflowError, "value out of float range"),
            (_line(ts="9" * 5000), ValueError, "bad JSON: Exceeds the limit"),
            (_line(v="9" * 5000), ValueError, "bad JSON: Exceeds the limit"),
            ("[" * 100_000, RecursionError, "bad JSON: maximum recursion depth"),
        ],
        ids=["empty-asset", "slash-asset", "int-over-float", "long-ts", "long-v", "deep"],
    )
    def test_defects_that_escaped_now_malformed(self, line, reference_error, message):
        with pytest.raises(reference_error):
            reference_decode_sample(line)
        with pytest.raises(MalformedLine) as got:
            decode_sample(line)
        assert str(got.value).startswith(message)
        assert "\n" not in str(got.value)


def _outcome(decode, line):
    """What a decoder makes of a line: the sample with its value's bits, or
    the MalformedLine text. Any other exception propagates."""
    try:
        s = decode(line)
    except MalformedLine as exc:
        return "error", str(exc)
    return "ok", s.asset_id, s.channel, s.ts, struct.pack("<d", s.value), s.quality


# Raw JSON text per field for the fuzz: (forms a valid line may hold, forms
# one edit away that may not). Most lines take the first list throughout.
_FUZZ = {
    "asset": (['"m1"', '"drill-1"', '"x"', '"x y"', '"m\u00e9"', r'"m\u0031"'],
              ['""', '"a/b"', '"m\t"', r'"m\"1"', "1", "null"]),
    "ch": (['"accel_x"', '"accel_y"', '"accel_z"', '"plc_state"'],
           ['"accel_w"', '"ACCEL_X"', '"accel_x "', "1", "null"]),
    "ts": (["0", "1", "1000", "12345678901234567", "123456789012345678",
            "1234567890123456789", "12345678901234567890"],
           ["00", "-0", "-1", "1.0", "1e3", "true", '"1"']),
    "v": (["0", "1", "2", "3", "-0", "-0.0", "0.5", "-1.25", "3.0", "2.5", "1E5",
           "1e-7", "0.1e1", "-12.5e-3", "1.5E+300", "12345678901234567",
           "123456789012345678", "-123456789012345678", "1234567890123456789",
           "12345678901234567890", "0.30000000000000004", "5e-324"],
          ["7", "-2.5", "1e400", "-1e400", "1" + "0" * 400, "01", "+1", ".5", "1.",
           "1e", "1.e5", "-", "NaN", "Infinity", "true", "null", '"1"']),
    "q": (['"good"', '"suspect"', '"missing"'], ['"bad"', '"Good"', "null"]),
}


def _fuzz_line(r: random.Random) -> str:
    keys = ["asset", "ch", "ts", "v", "q"]
    if r.random() < 0.03:
        keys[r.randrange(5)] = keys[r.randrange(5)]  # a key lost, one doubled
    elif r.random() < 0.03:
        i = r.randrange(4)
        keys[i], keys[i + 1] = keys[i + 1], keys[i]
    line = "{"
    for i, key in enumerate(keys):
        valid, odd = _FUZZ[key]
        if i:
            line += r.choice((",", ",", ",", ", ", " ,")) if r.random() < 0.1 else ","
        line += f'"{key}"' + (r.choice((": ", " :")) if r.random() < 0.05 else ":")
        line += r.choice(odd) if r.random() < 0.08 else r.choice(valid)
    line += "}"
    if r.random() < 0.1:
        edge = r.choice((" ", "\t", "\r", "\ufeff", "x", "}"))
        line = edge + line if r.random() < 0.5 else line + edge
    return line


def _count_fast_path(monkeypatch) -> list:
    """Route decode_sample's canonical-line match through a counter; the
    returned list gets one item per line the fast path read."""
    hits = []
    match = wire._match_canonical

    def counting(line):
        m = match(line)
        if m is not None:
            hits.append(line)
        return m

    monkeypatch.setattr(wire, "_match_canonical", counting)
    return hits


def test_fuzzed_near_canonical_lines_match_reference(monkeypatch):
    hits = _count_fast_path(monkeypatch)
    r = random.Random(20260611)
    n = 20_000
    kinds = {"ok": 0, "error": 0, "escaped": 0}
    for _ in range(n):
        line = _fuzz_line(r)
        # the reference lets some defects escape as other exceptions; see
        # test_defects_that_escaped_now_malformed
        try:
            expected = _outcome(reference_decode_sample, line)
        except InvalidAssetId as exc:
            expected = "error", str(exc)
            kinds["escaped"] += 1
        except (OverflowError, ValueError, RecursionError):
            with pytest.raises(MalformedLine, match="^(value out of float range|bad JSON): "):
                decode_sample(line)
            kinds["escaped"] += 1
            continue
        else:
            kinds[expected[0]] += 1
        assert _outcome(decode_sample, line) == expected, line
    # both paths and every outcome are well exercised
    assert min(kinds["ok"], kinds["error"]) > 2000 and kinds["escaped"] > 100, kinds
    assert 0.1 * n < len(hits) < 0.9 * n, len(hits)


@pytest.mark.parametrize("source", ["random-10k", "default-scenario"])
def test_written_traces_take_the_fast_path(source, tmp_path, monkeypatch):
    if source == "random-10k":
        samples = _random_samples(10_000)
    else:
        samples, _ = simulate_scenario(default_scenario())
    path = tmp_path / "t.jsonl"
    n = write_trace(path, samples)
    hits = _count_fast_path(monkeypatch)
    assert list(replay_trace(path)) == samples
    assert len(hits) == n == len(samples)


def _random_samples(n, seed=0):
    key = rng.stream_key(seed, "roundtrip")
    u = rng.uniforms(key, np.arange(n * 4, dtype=np.uint64)).reshape(n, 4)
    channels = list(Channel)
    qualities = list(Quality)
    out = []
    for i in range(n):
        channel = channels[int(u[i, 0] * 4)]
        if channel is Channel.plc_state:
            value = float(int(u[i, 1] * 4))
        else:
            value = (u[i, 1] - 0.5) * 10 ** int(u[i, 2] * 7 - 3)
        out.append(
            TelemetrySample(
                asset_id=f"m{int(u[i, 2] * 9) + 1}",
                channel=channel,
                ts=int(u[i, 3] * 10**15),
                value=value,
                quality=qualities[int(u[i, 0] * 12) % 3] if channel is not Channel.plc_state else Quality.good,
            )
        )
    return out


def test_round_trip_bulk_10k():
    for s in _random_samples(10_000):
        assert decode_sample(encode_sample(s)) == s


@given(
    asset=st.from_regex(r"[a-z][a-z0-9\-]{0,10}", fullmatch=True),
    channel=st.sampled_from([Channel.accel_x, Channel.accel_y, Channel.accel_z]),
    ts=st.integers(0, 2**62),
    value=st.floats(allow_nan=False, allow_infinity=False, width=64),
    quality=st.sampled_from(list(Quality)),
)
def test_round_trip_property(asset, channel, ts, value, quality):
    s = TelemetrySample(asset, channel, ts, value, quality)
    assert decode_sample(encode_sample(s)) == s


class TestReplay:
    def test_file_order(self, tmp_path):
        samples = _random_samples(3)
        path = tmp_path / "t.jsonl"
        write_trace(path, samples)
        assert list(replay_trace(path)) == samples

    def test_malformed_line_numbered(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            encode_sample(_random_samples(1)[0]) + "\nnot json\n", encoding="utf-8"
        )
        with pytest.raises(MalformedLine, match="line 2"):
            list(replay_trace(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("", encoding="utf-8")
        assert list(replay_trace(path)) == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(replay_trace(tmp_path / "nope.jsonl"))

    def test_lf_terminated(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, _random_samples(2))
        raw = path.read_bytes()
        assert raw.endswith(b"\n") and b"\r" not in raw

    @pytest.mark.parametrize("bad_line", [1, 2, 3000])
    def test_undecodable_byte_names_its_line(self, tmp_path, bad_line):
        good = encode_sample(_random_samples(1)[0]).encode() + b"\n"
        lines = [good] * 3001
        lines[bad_line - 1] = good[:10] + b"\xff" + good[10:]
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"".join(lines))
        with pytest.raises(MalformedLine, match=f"^line {bad_line}: not UTF-8"):
            list(replay_trace(path))

    def test_paced_replay_preserves_order(self, tmp_path):
        # replay is unpaced and keeps file order, even where ts goes backwards
        samples = [
            TelemetrySample("m1", Channel.accel_x, ts * 1000, float(ts))
            for ts in (0, 3, 1, 4, 2)
        ]
        path = tmp_path / "t.jsonl"
        write_trace(path, samples)
        assert list(replay_trace(path)) == samples
