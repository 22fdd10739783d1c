"""Time-tag streams and their on-disk formats.

A stream is a header (timebin size, pulse period, and the divider that
says every how-many pulses a reference tag was recorded) and per channel
a sorted array of u64 timebin counts since the run started: refs for
the reference clock, d1 and d2 for the detectors. Streams are equal when
their headers and each channel's timestamps are.

The binary format is version 2, each channel's array whole
(little-endian):

    offset  size  field
    0       4     magic "ZHT1"
    4       2     u16 format version (2)
    6       4     u32 timebin in picoseconds
    10      4     u32 pulse period in picoseconds
    14      4     u32 reference divider
    18      24    u64 counts of refs, d1 and d2
    42      8*R   refs timestamps, u64 each
    42+8R   8*D1  d1 timestamps
    ...     8*D2  d2 timestamps

The counts are checked against the file size before anything is
allocated: a section that runs past the end of the file, or bytes left
after the d2 section, is a FormatError naming the section (or the
trailing bytes) and its byte offset. A timestamp below the one before
it in its channel is an IntegrityError naming the channel, the index
and the byte offset of the timestamp. Any other version, the version 1
record list written before version 2 included, is a FormatError.

The CSV form stays interleaved, as the text a time-tagger exports: it
carries the header and the record count as "# key = value" comment
lines plus a free-text provenance note, then the column header
"channel,timestamp" and a record NAME,DIGITS a line in (timestamp,
channel) order, written a block at a time: NAME is REF, D1 or D2 and
DIGITS a decimal below 2**64 (a plus sign, leading zeros and surrounding
ASCII blanks are tolerated). The writer puts REF, then D1, then D2 on
equal timestamps; the reader takes ties in any channel order. Empty
lines are skipped; anything else, a "#" line or a non-ASCII character
included, is a FormatError naming its line. A record count other than
the header's, as in a file cut at a line boundary, is a FormatError
too; a file without the count line is read unchecked.

Every file the package writes to a path goes through _opened, which
writes a regular file beside the path and renames it into place, so a
failed write leaves the old file as it was; a device or a FIFO is
written in place.
"""

from __future__ import annotations

import io
import os
import re
import stat
import struct
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from enum import IntEnum
from itertools import count, islice

import numpy as np

from .errors import FormatError, IntegrityError, ValidationError, check_count, check_counts

__all__ = ["Channel", "TagStream", "write_tags", "read_tags",
           "write_tags_csv", "read_tags_csv"]

PS_PER_SECOND = 1e12
MAGIC = b"ZHT1"
VERSION = 2  # of the binary files written and read
_CSV_VERSION = 1
_HEADER = struct.Struct("<4sHIII")  # magic, version and the three header fields
_COUNTS = struct.Struct("<QQQ")  # tags in refs, d1 and d2
_STAMP = np.dtype("<u8")
_CSV_COLUMNS = "channel,timestamp"
_CSV_DTYPE = np.dtype([("ch", "S4"), ("ts", "u8")])
_BLOCK = 1 << 16  # records per block of the CSV interleave and the record split
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
# the reader's S4 name fields as one u32 each, by channel code
_CSV_NAME_KEYS = np.array([c.name for c in Channel], dtype="S4").view("<u4")


@dataclass(frozen=True, eq=False)
class TagStream:
    """A header and three sorted u64 timestamp arrays, one per channel;
    integer input is cast, u64 input kept as it is, and each array kept is
    marked read-only. provenance is free text (generator, seed) for the CSV
    form and run manifests, not the binary header. Two streams are equal
    when their headers and arrays are, whatever their provenance; a stream
    is unhashable. Frozen: a field cannot be set after its checks."""

    timebin_ps: int
    rep_period_ps: int
    divider: int
    refs: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        for name in ("timebin_ps", "rep_period_ps", "divider"):
            value = check_count(name, getattr(self, name), least=1)
            if value > 0xFFFFFFFF:
                raise ValidationError(f"{name} does not fit the 32-bit header field")
            object.__setattr__(self, name, value)
        for name in _CHANNELS:
            ts = check_counts(f"{name} timestamps", getattr(self, name))
            ts = ts.astype(np.uint64, copy=False)
            if _first_descent(ts) is not None:
                raise IntegrityError(f"{name} timestamps must be non-decreasing")
            ts.flags.writeable = False
            object.__setattr__(self, name, ts)

    @classmethod
    def from_records(cls, channels, timestamps, **header) -> TagStream:
        """A stream from (channel, timestamp) records, as the CSV reader
        splits them; header holds the other fields. Codes must be 0
        (REF), 1 (D1) or 2 (D2) and timestamps may not decrease across
        records, ties in any channel order. A pass over the blocks sizes
        the channels and a second fills them, splitting each block by one
        stable counting sort of its codes, so beside the records and the
        result only a block is held; the stream is built from the three
        filled arrays."""
        ts, block_sizes = check_counts("timestamps", timestamps).astype(np.uint64, copy=False), []
        try:  # one message for every code outside 0..2, a negative one too
            ch = check_counts("channel codes", channels, below=len(Channel))
        except ValidationError:
            raise ValidationError("channel codes must be 0 (REF), 1 (D1) or 2 (D2)") from None
        if ch.shape != ts.shape:
            raise ValidationError("channels and timestamps must be of equal length")
        for start in range(0, ch.size, _BLOCK):
            codes = ch[start:start + _BLOCK].copy()  # contiguous: it is read twice
            nonzero, high = np.count_nonzero(codes), np.count_nonzero(codes > Channel.D1)
            block_sizes.append((codes.size - nonzero, nonzero - high, high))
        cls(refs=[], d1=[], d2=[], **header)  # the header before the record order
        if _first_descent(ts) is not None:
            raise IntegrityError("timestamps must be non-decreasing")
        totals = np.array(block_sizes, dtype=np.int64).reshape(-1, len(Channel)).sum(axis=0)
        parts, filled = [np.empty(n, dtype=np.uint64) for n in totals], [0] * len(Channel)
        for start, sizes in zip(range(0, ts.size, _BLOCK), block_sizes):
            # a stable sort of the codes lists each channel's records in turn
            block = ts[start:start + _BLOCK]
            order = np.argsort(ch[start:start + _BLOCK].astype(np.uint8), kind="stable")
            for code, (part, size) in enumerate(zip(parts, sizes)):
                np.take(block, order[:size], out=part[filled[code]:filled[code] + size])
                order = order[size:]
                filled[code] += size
        return cls(**dict(zip(_CHANNELS, parts)), **header)

    def __eq__(self, other):
        if not isinstance(other, TagStream):
            return NotImplemented
        return ((self.timebin_ps, self.rep_period_ps, self.divider)
                == (other.timebin_ps, other.rep_period_ps, other.divider)
                and all(np.array_equal(getattr(self, n), getattr(other, n)) for n in _CHANNELS))

    def __len__(self) -> int:
        return self.refs.size + self.d1.size + self.d2.size

    @property
    def channels(self) -> np.ndarray:
        """Record channel codes in file order, read only by perfbench/workloads.py's
        tag count; once that reads stream.refs.size (ROADMAP item 1), this can go."""
        return np.concatenate([codes for codes, _ in _record_blocks(self)] + [np.empty(0, "u1")])


_CHANNELS = ("refs", "d1", "d2")  # the TagStream fields, by channel code


def _first_descent(ts: np.ndarray) -> int | None:
    """Index of the first timestamp below its predecessor, or None; checked block by block."""
    for start in range(1, ts.size, _BLOCK):
        down = ts[start:start + _BLOCK] < ts[start - 1:min(start + _BLOCK, ts.size) - 1]
        if down.any():
            return start + int(np.argmax(down))
    return None


def _record_blocks(stream: TagStream):
    """The records in (timestamp, channel) order, as a stable sort of the
    channels concatenated gives, in rounds of at most _BLOCK + 2, each a
    pair of arrays: the channel codes and the timestamps.

    A round takes from each channel's front a share of _BLOCK set by its
    size. The taken tags at or before the last taken tag (t, c) of any
    channel with tags left go out, as all tags left behind sort after
    them, ordered by one stable sort of their timestamps.
    """
    parts, at = [stream.refs, stream.d1, stream.d2], [0, 0, 0]
    shares = [max(1, _BLOCK * part.size // max(len(stream), 1)) for part in parts]
    while True:
        heads = [part[i:i + share] for part, i, share in zip(parts, at, shares)]
        bounds = [(head[-1], code) for code, (part, head, i) in enumerate(zip(parts, heads, at))
                  if i + head.size < part.size]
        if bounds:
            t, c = min(bounds)
            heads = [head[:np.searchsorted(head, t, side="right" if code <= c else "left")]
                     for code, head in enumerate(heads)]
        sizes = [head.size for head in heads]
        if not any(sizes):
            return
        stamps = np.concatenate(heads)
        order = np.argsort(stamps, kind="stable")
        yield np.repeat(np.arange(len(Channel), dtype="u1"), sizes)[order], stamps[order]
        at = [i + size for i, size in zip(at, sizes)]


@contextmanager
def _opened(source, mode: str, newline: str | None = None):
    """A file object as it is, or a path opened in mode and closed after.

    The one place the package opens a file to write. A path in "w" or
    "wb" mode that names a regular file or nothing (a symlink is
    followed) is replaced, not truncated: the block writes a new file
    .<name>.<pid>.<n>.tmp beside it, made with the umask's mode, and once
    the block ends the path is unlinked and the new file renamed into
    place. Truncating a file in place makes the next truncate wait for
    the writeback of the last close on ext4 (auto_da_alloc), and so does
    a rename over it; unlinking first does not. If the block or the
    unlink fails, the new file is removed and the path left as it was;
    if the rename fails once the old file is gone, the new file is kept
    and the error says where. An OSError from making, unlinking or
    renaming names the path. Anything else at the path, a device, a FIFO
    or a directory, is opened in place."""
    if hasattr(source, "read") or hasattr(source, "write"):
        yield source
        return
    path = os.fspath(source)
    if "w" not in mode or not _replaceable(path):
        with open(path, mode, newline=newline) as fh:
            yield fh
        return
    folder, name = os.path.split(path)
    while True:  # past any file a killed write left under the same name
        temp = os.path.join(folder, f".{name}.{os.getpid()}.{next(_TEMP_NUMBERS)}.tmp")
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            exc.filename, exc.filename2 = path, None
            raise
    try:
        with open(fd, mode, newline=newline) as fh:
            yield fh
        try:
            os.unlink(path)
            unlinked = True
        except FileNotFoundError:
            unlinked = False
        except OSError as exc:
            exc.filename, exc.filename2 = path, None
            raise
    except BaseException:
        with suppress(OSError):
            os.unlink(temp)
        raise
    try:
        os.rename(temp, path)
    except OSError as exc:
        if unlinked:  # the old file is gone: the new one is all there is
            exc.strerror = f"{exc.strerror}; the new file is left at {temp}"
        else:
            with suppress(OSError):
                os.unlink(temp)
        exc.filename, exc.filename2 = path, None
        raise


def _replaceable(path: str) -> bool:
    """Whether _opened replaces path: it names a regular file, through
    any symlink, or nothing that can be looked at."""
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except OSError:
        return True


_TEMP_NUMBERS = count()  # the <n> of _opened's new files


def write_tags(stream: TagStream, sink) -> None:
    """Write a stream in binary format version 2: the header and the
    three counts, then each channel's array as it is; sink is a path or
    file."""
    parts = [np.ascontiguousarray(getattr(stream, name), dtype=_STAMP) for name in _CHANNELS]
    with _opened(sink, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, stream.timebin_ps, stream.rep_period_ps,
                              stream.divider) + _COUNTS.pack(*(part.size for part in parts)))
        for part in parts:
            fh.write(part)


def read_tags(source) -> TagStream:
    """Read a binary tag file of version 2; source is a path or file,
    and an unseekable one is read whole first. Bad magic, any other
    version (1 included) or bad header fields raise FormatError, as does
    a section that does not fit the file; timestamps that go backwards
    raise IntegrityError."""
    with _opened(source, "rb") as fh:
        if not fh.seekable():
            fh = io.BytesIO(fh.read())
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"file too short for a header ({len(head)} bytes)")
        magic, version, timebin_ps, rep_period_ps, divider = _HEADER.unpack(head)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise FormatError(f"unsupported format version {version}")
        return _read_sections(fh, dict(timebin_ps=timebin_ps, rep_period_ps=rep_period_ps,
                                       divider=divider))


def _read_sections(fh, header: dict) -> TagStream:
    """The three sections of a file, fh just past the 18-byte prefix:
    the counts are checked against the bytes left, then each section is
    read into its own array and TagStream checks each channel's order."""
    raw, start = fh.read(_COUNTS.size), _HEADER.size + _COUNTS.size
    if len(raw) < _COUNTS.size:
        raise FormatError(f"file too short for a version 2 header "
                          f"({_HEADER.size + len(raw)} bytes)")
    counts, at = _COUNTS.unpack(raw), fh.tell()
    size = start + fh.seek(0, io.SEEK_END) - at
    fh.seek(at)
    offsets, end = [], start
    for name, count in zip(_CHANNELS, counts):
        if count > (size - end) // _STAMP.itemsize:
            raise FormatError(f"{name} section at byte offset {end} runs past the end of the "
                              f"file ({count} tags, {size - end} bytes left)")
        offsets.append(end)
        end += count * _STAMP.itemsize
    if end < size:
        raise FormatError(f"{size - end} trailing bytes at byte offset {end}, "
                          f"after the d2 section")
    parts = []
    for name, offset, count in zip(_CHANNELS, offsets, counts):
        part = np.empty(count, dtype=_STAMP)
        if fh.readinto(part) != part.nbytes:  # the file shrank since it was sized
            raise FormatError(f"{name} section at byte offset {offset} is cut short")
        parts.append(part)
    try:
        return TagStream(refs=parts[0], d1=parts[1], d2=parts[2], **header)
    except ValidationError:  # a zero timebin, period or divider
        raise FormatError("header fields must be positive") from None
    except IntegrityError:
        for name, offset, part in zip(_CHANNELS, offsets, parts):
            bad = _first_descent(part)
            if bad is not None:
                raise IntegrityError(f"{name} timestamps go backwards at index {bad} (byte "
                                     f"offset {offset + bad * _STAMP.itemsize})") from None
        raise


def write_tags_csv(stream: TagStream, sink) -> None:
    """Write a stream as CSV with '# key = value' header lines, a block
    of records at a time, each formatted by _csv_rows. The provenance is
    advisory free text, flattened to one line."""
    flat = " ".join(stream.provenance.splitlines())
    with _opened(sink, "w") as fh:
        fh.write(f"# zht-csv\n# version = {_CSV_VERSION}\n# timebin_ps = {stream.timebin_ps}\n"
                 f"# rep_period_ps = {stream.rep_period_ps}\n# divider = {stream.divider}\n"
                 f"# records = {len(stream)}\n# provenance = {flat}\n{_CSV_COLUMNS}\n")
        for codes, stamps in _record_blocks(stream):
            fh.write(_csv_rows(codes, stamps))


def _csv_rows(channels: np.ndarray, timestamps: np.ndarray) -> str:
    """NAME,DIGITS lines of one block, built as a byte matrix: a row is
    a three-byte name field, a comma, the decimal digits right-aligned to
    the block's widest value and a newline. The digits are peeled off by
    repeated division by 10, in uint32 once the rest fits. A keep-mask
    drops the blank padding D1/D2 to three bytes and the leading zeros."""
    top = int(timestamps.max())
    width = len(str(top))
    rows = np.empty((channels.size, width + 5), dtype=np.uint8)
    for col, name_bytes in enumerate(_CSV_NAMES.T):
        rows[:, col] = name_bytes[channels]
    rows[:, 3] = ord(",")
    rows[:, -1] = ord("\n")
    keep = np.ones(rows.shape, dtype=bool)
    np.not_equal(rows[:, 2], ord(" "), out=keep[:, 2])
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

    The header lines are read one at a time, '#' lines without '='
    ignored and a key given twice a FormatError naming both lines, and
    the records after the column header by one np.loadtxt call. A bad
    record raises FormatError and a timestamp below the one before it
    IntegrityError, each naming its line. An unseekable source is copied
    into memory, as the body is read twice."""
    with _opened(source, "r") as fh:
        try:
            return _read_csv(fh, None if fh is source else source)
        except UnicodeDecodeError as exc:
            raise FormatError(f"cannot decode tag CSV: {exc}") from None


def _read_csv(fh, path) -> TagStream:
    header: dict[str, tuple[int, str]] = {}  # key: (its line number, value)
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
            key, eq, value = (part.strip() for part in line[1:].partition("="))
            if eq and key in header:
                raise FormatError(f"line {lineno}: key {key!r} repeats line {header[key][0]}")
            if eq:
                header[key] = lineno, value
        elif line:
            raise FormatError(f"line {lineno}: expected column header, got {raw!r}")
    try:
        version, timebin_ps, rep_period_ps, divider = (
            int(header[key][1]) for key in ("version", "timebin_ps", "rep_period_ps", "divider"))
        n_records = int(header["records"][1]) if "records" in header else None
    except KeyError as exc:
        raise FormatError(f"missing header line {exc}") from None
    except ValueError as exc:
        raise FormatError(f"bad header value: {exc}") from None
    if version != _CSV_VERSION:
        raise FormatError(f"unsupported format version {version}")

    if not fh.seekable():
        fh = io.StringIO(fh.read())
    body_at = fh.tell()
    # records are ASCII: numpy's parser must see no NUL (the S4 field drops
    # trailing NULs) nor a code point far past U+FFFF (numpy 2.4 can crash)
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
    # the name's four bytes (NUL-padded, and no NUL in the body) as one
    # u32; a record's code adds up the code of each name it equals
    names = records["ch"].view("<u4")
    channels, known = np.zeros(records.size, dtype=np.uint8), np.zeros(records.size, dtype=bool)
    for c, key in zip(Channel, _CSV_NAME_KEYS):
        named = names == key
        known |= named
        channels += named.view(np.uint8) * np.uint8(c)
    if not known.all():
        raise _record_error(fh, body_at, lineno, "unknown channel name")
    if n_records not in (None, records.size):
        raise FormatError(f"the header gives {n_records} records but the file holds {records.size}")
    try:
        return TagStream.from_records(channels, records["ts"], timebin_ps=timebin_ps,
                                      rep_period_ps=rep_period_ps, divider=divider,
                                      provenance=header.get("provenance", (0, ""))[1])
    except ValidationError as exc:  # a header field that is not a positive u32
        raise FormatError(f"bad header value: {exc}") from None
    except IntegrityError:
        bad = _first_descent(records["ts"])
        lineno, line = next(islice(_record_lines(fh, body_at, lineno), bad, None))
        raise IntegrityError(f"line {lineno}: timestamps go backwards at {line!r}") from None


def _record_lines(fh, body_at, header_lines: int):
    """(line number, text) of each record of the body from body_at: the
    non-empty lines, which np.loadtxt reads, so a record's line number
    is exact even where blank lines shift loadtxt's row count."""
    fh.seek(body_at)
    for lineno, raw in enumerate(fh, start=header_lines + 1):
        line = raw.rstrip("\r\n")
        if line:
            yield lineno, line


def _record_error(fh, body_at, header_lines: int, what: str) -> FormatError:
    """FormatError naming the first record line that breaks the record
    grammar; only called once parsing has failed."""
    for lineno, line in _record_lines(fh, body_at, header_lines):
        match = _CSV_RECORD.fullmatch(line)
        if match is None or int(match[1]) >= 1 << 64:
            return FormatError(f"line {lineno}: bad record {line!r}")
    return FormatError(f"bad record: {what}")
