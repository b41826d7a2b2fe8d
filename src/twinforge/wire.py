"""Telemetry wire format: sample type, line codec, trace replay.

One sample per UTF-8 line, LF-terminated files.
"""
from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import InvalidAssetId, MalformedLine, shown


class Channel(str, enum.Enum):
    accel_x = "accel_x"
    accel_y = "accel_y"
    accel_z = "accel_z"
    plc_state = "plc_state"


ACCEL_CHANNELS = (Channel.accel_x, Channel.accel_y, Channel.accel_z)


class Quality(str, enum.Enum):
    good = "good"
    suspect = "suspect"
    missing = "missing"


class MachineState(enum.IntEnum):
    """A machine's state, coded as a plc_state sample's value. It lives here,
    next to the channel whose codes it names: the simulator and the CLI
    import it from here, and the twin and the archive look a code up in
    MACHINE_STATES."""

    Idle = 0
    Active = 1
    Waiting = 2
    Failure = 3


# The plc code book: code -> the MachineState it names. A code is looked up
# as it is, so 2.0 is Waiting and 2.5 names no state.
MACHINE_STATES = {state.value: state for state in MachineState}


# Per-sample code compares against these module constants and maps wire
# strings through these dicts: an enum class attribute lookup or call costs
# far more than a dict hit in the hot path.
_PLC_STATE = Channel.plc_state
_GOOD = Quality.good
_CHANNELS = {ch.value: ch for ch in Channel}
_QUALITIES = {q.value: q for q in Quality}

_MAX_TS = 2**63 - 1  # the archive keeps ts as an int64


@dataclass(frozen=True, slots=True)
class TelemetrySample:
    """One timestamped reading from one asset channel.

    ts is integer nanoseconds since epoch, at most 2**63 - 1. For plc_state
    the value is a MachineState code, a key of MACHINE_STATES, stored as a
    float.
    """

    asset_id: str
    channel: Channel
    ts: int
    value: float
    quality: Quality = Quality.good

    def validate(self) -> None:
        if not self.asset_id or "/" in self.asset_id:
            raise InvalidAssetId(f"bad asset id {self.asset_id!r}")
        if self.ts < 0:
            raise MalformedLine(f"negative ts {shown(self.ts, str)}")
        if self.ts > _MAX_TS:
            raise MalformedLine(f"ts {shown(self.ts, str)} is past 2**63 - 1")
        try:
            finite = math.isfinite(self.value)
        except OverflowError:  # an int past the float range
            raise MalformedLine(f"value out of float range: {shown(self.value)}") from None
        if not finite:
            raise MalformedLine(f"non-finite value {self.value!r}")
        if (
            self.channel is _PLC_STATE
            and self.quality is _GOOD
            and self.value not in MACHINE_STATES
        ):
            raise MalformedLine(f"plc_state code out of range: {self.value!r}")


_new = object.__new__
_set_asset_id = TelemetrySample.asset_id.__set__
_set_channel = TelemetrySample.channel.__set__
_set_ts = TelemetrySample.ts.__set__
_set_value = TelemetrySample.value.__set__
_set_quality = TelemetrySample.quality.__set__


def _sample(asset_id, channel, ts, value, quality) -> TelemetrySample:
    """TelemetrySample(asset_id, channel, ts, value, quality) for decode's
    hot path. The frozen dataclass __init__ sets each field through
    object.__setattr__; filling the slots through their descriptors builds
    the same object for about half the cost."""
    s = _new(TelemetrySample)
    _set_asset_id(s, asset_id)
    _set_channel(s, channel)
    _set_ts(s, ts)
    _set_value(s, value)
    _set_quality(s, quality)
    return s


def encode_sample(sample: TelemetrySample) -> str:
    """One JSON object per line, keys exactly asset/ch/ts/v/q.

    Integral values serialize as JSON integers so plc codes survive
    losslessly; everything else uses Python's shortest round-trip repr.
    """
    sample.validate()
    v: Union[int, float] = sample.value
    if float(v).is_integer():
        v = int(v)
    return json.dumps(
        {
            "asset": sample.asset_id,
            "ch": sample.channel.value,
            "ts": sample.ts,
            "v": v,
            "q": sample.quality.value,
        },
        separators=(",", ":"),
    )


_KEYS = {"asset", "ch", "ts", "v", "q"}

# Exactly the line encode_sample writes: this key order, no whitespace, an
# asset with nothing to unescape and no "/", a ts below 10**18 and a JSON
# number for v whose integer part has at most 18 digits. Group 5 is v's
# fraction and exponent, empty for an integer literal.
_match_canonical = re.compile(
    r'\{"asset":"([^"\\/\x00-\x1f]+)"'
    r',"ch":"(accel_x|accel_y|accel_z|plc_state)"'
    r',"ts":(0|[1-9][0-9]{0,17})'
    r',"v":(-?(?:0|[1-9][0-9]{0,17})((?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?))'
    r',"q":"(good|suspect|missing)"\}'
).fullmatch


def decode_sample(line: str) -> TelemetrySample:
    """Inverse of encode_sample on its image; unknown/missing keys rejected.

    Every defect of the line raises MalformedLine, including a bad asset id
    and a number no float or int can hold.

    A line in encode_sample's own form is read by one regex match; any other
    line goes through json.loads and the type checks below, so both paths
    accept the same lines and build equal samples. An integer literal
    becomes float(int(text)), as JSON's -0 is the int 0; a literal with a
    fraction or exponent becomes float(text), as in the JSON scanner.
    """
    try:
        m = _match_canonical(line)
    except TypeError:  # bytes, which json.loads also reads
        m = None
    if m is not None:
        asset, ch, ts, v, frac, q = m.groups()
        sample = _sample(
            asset,
            _CHANNELS[ch],
            int(ts),
            float(v) if frac else float(int(v)),
            _QUALITIES[q],
        )
        sample.validate()  # the value may still be inf or a bad plc code
        return sample
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also int digit limit, deep nesting
        raise MalformedLine(f"bad JSON: {exc}") from exc
    if type(obj) is not dict or obj.keys() != _KEYS:
        raise MalformedLine(f"wrong key set in {line!r}")
    asset, ch, ts, v, q = obj["asset"], obj["ch"], obj["ts"], obj["v"], obj["q"]
    if type(asset) is not str:
        raise MalformedLine("asset must be a string")
    channel = _CHANNELS.get(ch) if type(ch) is str else None
    if channel is None:
        raise MalformedLine(f"{ch!r} is not a valid Channel")
    quality = _QUALITIES.get(q) if type(q) is str else None
    if quality is None:
        raise MalformedLine(f"{q!r} is not a valid Quality")
    if type(ts) is not int or ts < 0:
        raise MalformedLine(f"bad ts {ts!r}")
    if type(v) is float:
        value = v
    elif type(v) is int:
        try:
            value = float(v)
        except OverflowError as exc:
            raise MalformedLine(f"value out of float range: {v!r}") from exc
    else:
        raise MalformedLine(f"bad value {v!r}")
    sample = _sample(asset, channel, ts, value, quality)
    try:
        sample.validate()
    except InvalidAssetId as exc:
        raise MalformedLine(str(exc)) from exc
    return sample


def replay_trace(path) -> Iterator[TelemetrySample]:
    """Yield samples from a trace file in file order, without pacing."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.rstrip("\n")
                if not stripped:
                    continue
                try:
                    sample = decode_sample(stripped)
                except MalformedLine as exc:
                    raise MalformedLine(f"line {lineno}: {exc}") from exc
                yield sample
        except UnicodeDecodeError as exc:
            raise MalformedLine(
                f"line {_undecodable_line(path)}: not UTF-8 ({exc.reason})"
            ) from exc


_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _undecodable_line(path) -> int:
    """Number of the first line holding a byte that is not UTF-8.

    Text-mode reads decode a whole buffer at once, so the failing read does
    not tell which line it was on. Reading again with surrogateescape turns
    each such byte into a lone surrogate, which valid UTF-8 cannot produce,
    and keeps the line numbering of the strict read.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if _ESCAPED_BYTE.search(line):
                return lineno
    return 0


def write_trace(path, samples) -> int:
    """Write samples as an LF-terminated trace file. Returns the line count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(encode_sample(sample))
            fh.write("\n")
            n += 1
    return n
