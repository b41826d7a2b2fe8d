"""Telemetry wire format: sample type, topic scheme, line codec, trace replay.

One sample per UTF-8 line, LF-terminated files. The topic string is a naming
contract only; a real broker adapter can be layered on without touching
anything downstream.
"""
from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import InvalidAssetId, MalformedLine


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


# Per-sample code compares against these module constants and maps wire
# strings through these dicts: an enum class attribute lookup or call costs
# far more than a dict hit in the hot path.
_PLC_STATE = Channel.plc_state
_GOOD = Quality.good
_CHANNELS = {ch.value: ch for ch in Channel}
_QUALITIES = {q.value: q for q in Quality}


@dataclass(frozen=True, slots=True)
class TelemetrySample:
    """One timestamped reading from one asset channel.

    ts is integer nanoseconds since epoch. For plc_state the value is the
    machine-state code 0..3 stored as a float.
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
            raise MalformedLine(f"negative ts {self.ts}")
        if not math.isfinite(self.value):
            raise MalformedLine(f"non-finite value {self.value!r}")
        if (
            self.channel is _PLC_STATE
            and self.quality is _GOOD
            and self.value not in (0.0, 1.0, 2.0, 3.0)
        ):
            raise MalformedLine(f"plc_state code out of range: {self.value!r}")


def topic_for(asset_id: str, channel: Channel) -> str:
    """Topic string "mf/<asset_id>/<channel>"."""
    if not asset_id or "/" in asset_id:
        raise InvalidAssetId(f"bad asset id {asset_id!r}")
    return f"mf/{asset_id}/{Channel(channel).value}"


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
_scan_once = json.JSONDecoder().scan_once


def _parse_json(line: str):
    """json.loads(line), through the C scanner when it consumes the whole line.

    Any other line (edge whitespace, a BOM, bad JSON, extra data, bytes)
    goes to json.loads, so what is accepted and every error text stay
    json.loads's.
    """
    try:
        obj, end = _scan_once(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, ValueError, TypeError, RecursionError):
        pass
    return json.loads(line)


def decode_sample(line: str) -> TelemetrySample:
    """Inverse of encode_sample on its image; unknown/missing keys rejected.

    Every defect of the line raises MalformedLine, including a bad asset id
    and a number no float or int can hold.
    """
    try:
        obj = _parse_json(line)
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
    sample = TelemetrySample(asset, channel, ts, value, quality)
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
