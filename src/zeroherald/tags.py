"""Time-tag streams and their on-disk formats.

A stream is an ordered list of (channel, timestamp) tags plus the header
needed to interpret it: timebin size, pulse period, and the divider that
says every how-many pulses a reference tag was recorded. Timestamps are
unsigned 64-bit counts of timebins since the run started.

Binary layout (little-endian), 18-byte header then 9-byte records:

    offset  size  field
    0       4     magic "ZHT1"
    4       2     u16 format version (currently 1)
    6       4     u32 timebin in picoseconds
    10      4     u32 pulse period in picoseconds
    14      4     u32 reference divider
    18      9*N   records: u8 channel, u64 timestamp

The CSV form carries the same header as "# key = value" comment lines
plus a free-text provenance note that the fixed binary header has no
room for, then the column header "channel,timestamp". Every line after
it is one record NAME,DIGITS: NAME is REF, D1 or D2 and DIGITS a
decimal below 2**64 (a plus sign, leading zeros and surrounding ASCII
blanks are tolerated). Empty lines are skipped; anything else there, a
"#" line or a character outside ASCII included, is a FormatError naming
its line.
"""

from __future__ import annotations

import io
import re
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import FormatError, IntegrityError, ValidationError

__all__ = ["Channel", "TagStream", "write_tags", "read_tags",
           "write_tags_csv", "read_tags_csv"]

MAGIC = b"ZHT1"
VERSION = 1
_HEADER = struct.Struct("<4sHIII")
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("timestamp", "<u8")])
_CSV_COLUMNS = "channel,timestamp"
_CSV_DTYPE = np.dtype([("ch", "U4"), ("ts", "u8")])
_CSV_BLOCK = 1 << 16
_CSV_SCAN = 1 << 20  # characters per block of the NUL scan
# what np.loadtxt accepts as a record: a known name, one comma, a
# decimal that may carry a plus sign, leading zeros and surrounding
# blanks; more than 20 significant digits cannot fit in a u64
_CSV_RECORD = re.compile(r"(?:REF|D1|D2),\s*\+?0*([0-9]{1,20})\s*", re.ASCII)


class Channel(IntEnum):
    """Hardware channel codes as stored in tag records."""

    REF = 0
    D1 = 1
    D2 = 2


# the writer's three-byte name fields, by channel code
_CSV_NAMES = np.frombuffer(b"REFD1 D2 ", dtype=np.uint8).reshape(len(Channel), 3)
# the reader's U4 name field as two 64-bit words of code points, and the
# words of each channel's name
_CSV_NAME_WORDS = np.dtype({"names": ["lo", "hi"], "formats": ["u8", "u8"],
                            "offsets": [0, 8], "itemsize": _CSV_DTYPE.itemsize})
_CSV_NAME_KEYS = np.array([c.name for c in Channel], dtype="U4").view(np.uint64).reshape(-1, 2)


@dataclass
class TagStream:
    """An ordered tag list with the header needed to interpret it.

    provenance is a free-text note (generator, seed); it travels with
    the CSV form and run manifests but not the binary header, and is
    excluded from equality.
    """

    timebin_ps: int
    rep_period_ps: int
    divider: int
    channels: np.ndarray
    timestamps: np.ndarray
    version: int = VERSION
    provenance: str = field(default="", compare=False)

    def __post_init__(self):
        for name in ("timebin_ps", "rep_period_ps", "divider"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value <= 0:
                raise ValidationError(f"{name} must be a positive integer, got {value!r}")
            if value > 0xFFFFFFFF:
                raise ValidationError(f"{name} does not fit the 32-bit header field")
        if self.version != VERSION:
            raise ValidationError(f"unsupported stream version {self.version!r}")
        ch = np.asarray(self.channels)
        ts = np.asarray(self.timestamps)
        if ch.ndim != 1 or ts.ndim != 1 or ch.size != ts.size:
            raise ValidationError("channels and timestamps must be 1-d and equal length")
        # u8 codes are checked on their contiguous copy, wider ones before
        # the cast, where 257 would wrap to 1; unsigned ones cannot be < 0
        codes = ch.copy() if ch.dtype == np.uint8 else ch
        if codes.size and ((codes.dtype.kind != "u" and codes.min() < 0)
                           or codes.max() > max(Channel)):
            raise ValidationError("channel codes must be 0 (REF), 1 (D1) or 2 (D2)")
        if ts.size and ts.dtype.kind not in "ui":
            raise ValidationError(f"timestamps must be integers, got dtype {ts.dtype}")
        if ts.size and ts.dtype.kind == "i" and ts.min() < 0:
            raise ValidationError("timestamps must be non-negative")
        self.channels = codes.astype(np.uint8, copy=False)
        self.timestamps = ts.astype(np.uint64)
        if np.any(self.timestamps[1:] < self.timestamps[:-1]):
            raise IntegrityError("timestamps must be non-decreasing")

    def __eq__(self, other):
        if not isinstance(other, TagStream):
            return NotImplemented
        return (
            self.version == other.version
            and self.timebin_ps == other.timebin_ps
            and self.rep_period_ps == other.rep_period_ps
            and self.divider == other.divider
            and np.array_equal(self.channels, other.channels)
            and np.array_equal(self.timestamps, other.timestamps)
        )

    def __len__(self) -> int:
        return self.channels.size

    def channel_timestamps(self, channel: Channel) -> np.ndarray:
        """Timestamps of one channel, in stream order."""
        return self.timestamps[self.channels == int(channel)]


@contextmanager
def _opened(source, mode: str, newline: str | None = None):
    """A file object as it is, or a path opened in mode and closed after."""
    if hasattr(source, "read") or hasattr(source, "write"):
        yield source
    else:
        with open(source, mode, newline=newline) as fh:
            yield fh


def write_tags(stream: TagStream, sink) -> None:
    """Write a stream in the binary format; sink is a path or file."""
    with _opened(sink, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, stream.version, stream.timebin_ps,
                              stream.rep_period_ps, stream.divider))
        records = np.empty(len(stream), dtype=_RECORD_DTYPE)
        records["channel"] = stream.channels
        records["timestamp"] = stream.timestamps
        fh.write(records)


def read_tags(source) -> TagStream:
    """Read a binary tag file; source is a path or file.

    Bad magic, version, header fields, channel codes or a truncated
    record raise FormatError; out-of-order timestamps raise
    IntegrityError. Errors in a record name it and its byte offset.
    """
    with _opened(source, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FormatError(f"file too short for a header ({len(blob)} bytes)")
    magic, version, timebin_ps, rep_period_ps, divider = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"unsupported format version {version}")
    body_size = len(blob) - _HEADER.size
    if body_size % _RECORD_DTYPE.itemsize:
        good = body_size // _RECORD_DTYPE.itemsize * _RECORD_DTYPE.itemsize
        raise FormatError(
            f"truncated record at byte offset {_HEADER.size + good} "
            f"({body_size - good} trailing bytes)"
        )
    records = np.frombuffer(blob, dtype=_RECORD_DTYPE, offset=_HEADER.size)
    try:
        # the stream copies each column once and checks the codes and order
        return TagStream(
            timebin_ps=int(timebin_ps),
            rep_period_ps=int(rep_period_ps),
            divider=int(divider),
            channels=records["channel"],
            timestamps=records["timestamp"],
            version=int(version),
        )
    except ValidationError:
        # a bad channel code, or a zero timebin, period or divider
        channels = records["channel"]
        if channels.size and channels.max() > max(Channel):
            bad = int(np.argmax(channels > max(Channel)))
            raise FormatError(
                f"unknown channel code {int(channels[bad])} at record "
                f"{bad} (byte offset {_HEADER.size + bad * _RECORD_DTYPE.itemsize})"
            ) from None
        raise FormatError("header fields must be positive") from None
    except IntegrityError:
        ts = records["timestamp"]
        bad = int(np.argmax(ts[1:] < ts[:-1])) + 1
        raise IntegrityError(
            f"timestamps go backwards at record {bad} (byte offset "
            f"{_HEADER.size + bad * _RECORD_DTYPE.itemsize})"
        ) from None


def write_tags_csv(stream: TagStream, sink) -> None:
    """Write a stream as CSV with '# key = value' header lines.

    Records go out in blocks of _CSV_BLOCK rows, each formatted with
    array arithmetic by _csv_rows, so memory stays bounded for any
    stream length.
    """
    with _opened(sink, "w") as fh:
        fh.write("# zht-csv\n")
        fh.write(f"# version = {stream.version}\n")
        fh.write(f"# timebin_ps = {stream.timebin_ps}\n")
        fh.write(f"# rep_period_ps = {stream.rep_period_ps}\n")
        fh.write(f"# divider = {stream.divider}\n")
        # provenance is advisory free text; the format is line-oriented
        flat = " ".join(stream.provenance.splitlines()) if stream.provenance else ""
        fh.write(f"# provenance = {flat}\n")
        fh.write(f"{_CSV_COLUMNS}\n")
        for start in range(0, len(stream), _CSV_BLOCK):
            fh.write(_csv_rows(stream.channels[start:start + _CSV_BLOCK],
                               stream.timestamps[start:start + _CSV_BLOCK]))


def _csv_rows(channels: np.ndarray, timestamps: np.ndarray) -> str:
    """NAME,DIGITS lines of one block, built as a byte matrix.

    Each row is a three-byte name field, a comma, the decimal digits
    right-aligned to the block's widest value and a newline. The digits
    are peeled off by repeated division by 10, in uint32 once the rest
    fits. A keep-mask drops the third name byte of D1/D2 and the leading
    zeros; reading the kept bytes row by row gives the text.
    """
    top = int(timestamps.max())
    width = len(str(top))
    rows = np.empty((channels.size, width + 5), dtype=np.uint8)
    for col, name_bytes in enumerate(_CSV_NAMES.T):
        rows[:, col] = name_bytes[channels]
    rows[:, 3] = ord(",")
    rows[:, -1] = ord("\n")
    keep = np.ones(rows.shape, dtype=bool)
    np.equal(channels, Channel.REF, out=keep[:, 2])
    rest = timestamps
    for col in range(width + 3, 3, -1):  # units digit first
        if top < 2**32:
            rest = rest.astype(np.uint32, copy=False)
        if col < width + 3:  # a zero rest left of the units is a leading zero
            np.not_equal(rest, 0, out=keep[:, col])
        quot = rest // 10
        np.add(rest - quot * 10, ord("0"), out=rows[:, col], casting="unsafe")
        rest, top = quot, top // 10
    return rows[keep].tobytes().decode("ascii")


def read_tags_csv(source) -> TagStream:
    """Read the CSV form back into a stream.

    Header lines are read one at a time up to the column header; blank
    lines there are skipped and '#' lines without '=' ignored. The body
    after it is NAME,DIGITS records only, parsed by one np.loadtxt call
    (for a path, numpy's chunked reader skips the header lines itself);
    empty lines are skipped, CRLF line ends are accepted. A comment, an
    unknown channel name, a missing or extra column, a NUL or non-ASCII
    character or a timestamp that is not a u64 decimal raises
    FormatError naming the file line. An unseekable source is copied
    into memory first, since the body is read twice.
    """
    with _opened(source, "r") as fh:
        try:
            return _read_csv(fh, None if fh is source else source)
        except UnicodeDecodeError as exc:
            raise FormatError(f"cannot decode tag CSV: {exc}") from None


def _read_csv(fh, path) -> TagStream:
    header: dict[str, str] = {}
    lineno = 0
    while True:
        raw = fh.readline()
        lineno += 1
        if not raw:
            raise FormatError(f"line {lineno}: no {_CSV_COLUMNS!r} column header")
        line = raw.strip()
        if line == _CSV_COLUMNS:
            break
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                header[key.strip()] = value.strip()
        elif line:
            raise FormatError(f"line {lineno}: expected column header, got {raw!r}")
    missing = {"version", "timebin_ps", "rep_period_ps", "divider"} - set(header)
    if missing:
        raise FormatError(f"missing header lines: {sorted(missing)}")
    try:
        version = int(header["version"])
        timebin_ps = int(header["timebin_ps"])
        rep_period_ps = int(header["rep_period_ps"])
        divider = int(header["divider"])
    except ValueError as exc:
        raise FormatError(f"bad header value: {exc}") from None
    if version != VERSION:
        raise FormatError(f"unsupported format version {version}")

    if not fh.seekable():
        fh = io.StringIO(fh.read())
    body_at = fh.tell()
    # records are ASCII, and numpy's parser must see neither a NUL (the
    # U4 field drops trailing NULs: "D1\0" would read as D1) nor a code
    # point far past U+FFFF in a number (numpy 2.4 can crash on one)
    if any("\x00" in block or not block.isascii()
           for block in iter(lambda: fh.read(_CSV_SCAN), "")):
        raise _record_error(fh, body_at, lineno, "NUL or non-ASCII character")
    fh.seek(body_at)
    body, skip = (fh, 0) if path is None else (path, lineno)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            records = np.loadtxt(body, dtype=_CSV_DTYPE, delimiter=",", comments=None, ndmin=1,
                                 skiprows=skip, encoding=getattr(fh, "encoding", None))
    except ValueError as exc:
        raise _record_error(fh, body_at, lineno, str(exc)) from None
    # integer compares on the name's code points, two 64-bit words each
    words = records.view(_CSV_NAME_WORDS)
    channels = np.full(records.size, 0xFF, dtype=np.uint8)
    for c, (lo, hi) in zip(Channel, _CSV_NAME_KEYS):
        channels[(words["lo"] == lo) & (words["hi"] == hi)] = c
    if np.any(channels == 0xFF):
        name = str(records["ch"][np.argmax(channels == 0xFF)])
        raise _record_error(fh, body_at, lineno, f"unknown channel name {name!r}")
    return TagStream(
        timebin_ps=timebin_ps,
        rep_period_ps=rep_period_ps,
        divider=divider,
        channels=channels,
        timestamps=records["ts"],
        version=version,
        provenance=header.get("provenance", ""),
    )


def _record_error(fh, body_at, header_lines: int, what: str) -> FormatError:
    """FormatError naming the first body line that is not a valid record.

    Only called once parsing has failed: it rereads the body from
    body_at and checks each line against the record grammar, so the
    line number is exact even where blank lines shift loadtxt's row
    count.
    """
    fh.seek(body_at)
    for lineno, raw in enumerate(fh, start=header_lines + 1):
        line = raw.rstrip("\r\n")
        match = _CSV_RECORD.fullmatch(line)
        if line and (match is None or int(match[1]) >= 1 << 64):
            return FormatError(f"line {lineno}: bad record {line!r}")
    return FormatError(f"bad record: {what}")
