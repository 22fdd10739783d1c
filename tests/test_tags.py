"""Round-trip and corruption tests for the time-tag file formats."""

import errno
import io
import itertools
import os
import stat
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroherald.errors import (
    FormatError,
    IntegrityError,
    ValidationError,
    ZeroHeraldError,
)
from zeroherald import tags
from zeroherald.tags import (
    MAGIC,
    TagStream,
    _record_blocks,
    read_tags,
    read_tags_csv,
    write_tags,
    write_tags_csv,
)

from dense_oracle import oracle_records, printf_tags_csv, v1_bytes

HEADER = dict(timebin_ps=81, rep_period_ps=9963, divider=512)
RECORD = np.dtype([("channel", "u1"), ("timestamp", "<u8")])


def make_stream(channels, timestamps, **kw):
    return TagStream.from_records(
        np.asarray(channels, dtype=np.uint8),
        np.asarray(timestamps, dtype=np.uint64),
        **{**HEADER, **kw},
    )


def u64(values):
    return np.array(values, dtype=np.uint64)


records = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 10_000)),
    max_size=200,
)


@st.composite
def streams(draw):
    recs = draw(records)
    chans = [c for c, _ in recs]
    ts = np.cumsum([dt for _, dt in recs]).astype(np.uint64) if recs else []
    return make_stream(
        chans,
        ts,
        timebin_ps=draw(st.integers(1, 1000)),
        rep_period_ps=draw(st.integers(1, 100_000)),
        divider=draw(st.integers(1, 4096)),
        # the key = value header trims surrounding whitespace and the
        # writer flattens line breaks, so generate text already in that
        # normal form
        provenance=draw(
            st.text(max_size=40).map(
                lambda s: " ".join(s.splitlines()).strip()
            )
        ),
    )


class TestStreamValidation:
    def test_rejects_backwards_timestamps(self):
        with pytest.raises(IntegrityError):
            make_stream([1, 1], [100, 50])

    def test_rejects_bad_channel_code(self):
        with pytest.raises(ValidationError):
            make_stream([3], [0])

    @pytest.mark.parametrize("dtype, codes", [
        (np.int16, [0, -1, 1]),
        (np.int16, [0, 3, 1]),
        (np.uint16, [0, 257, 1]),  # 257 would pass as 1 once cast to u8
        (np.uint8, [0, 3, 1]),
    ])
    def test_rejects_bad_channel_code_of_any_dtype(self, dtype, codes):
        with pytest.raises(ValidationError,
                           match=r"^channel codes must be 0 \(REF\), 1 \(D1\) or 2 \(D2\)$"):
            TagStream.from_records(np.array(codes, dtype=dtype),
                                   np.array([0, 1, 2], dtype=np.uint64), **HEADER)

    @pytest.mark.parametrize("dtype", [np.int16, np.uint16, np.int64, np.uint8])
    def test_channel_codes_become_owned_u8(self, dtype):
        codes = np.array([0, 2, 1], dtype=dtype)
        s = TagStream.from_records(codes, np.array([0, 1, 2], dtype=np.int64), **HEADER)
        assert s.channels.dtype == np.uint8
        assert s.channels.tolist() == [0, 2, 1]
        assert s.channels.flags.owndata and not np.shares_memory(s.channels, codes)
        assert [s.refs.tolist(), s.d1.tolist(), s.d2.tolist()] == [[0], [2], [1]]
        assert all(part.dtype == np.uint64 for part in (s.refs, s.d1, s.d2))

    def test_rejects_zero_header_fields(self):
        with pytest.raises(ValidationError):
            make_stream([], [], timebin_ps=0)
        with pytest.raises(ValidationError):
            make_stream([], [], divider=0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            make_stream([1, 2], [5])

    def test_rejects_float_timestamps(self):
        with pytest.raises(ValidationError):
            TagStream.from_records(np.array([1], dtype=np.uint8), np.array([1.5]), **HEADER)
        with pytest.raises(ValidationError, match="^d2 timestamps must be a 1-d array of non-neg"):
            TagStream(refs=u64([]), d1=u64([]), d2=np.array([1.5]), **HEADER)

    @pytest.mark.parametrize("name", ["refs", "d1", "d2"])
    def test_each_channel_is_checked(self, name):
        good = dict(refs=u64([0, 4]), d1=u64([1]), d2=u64([]))
        cases = [
            (np.array([[1, 2]], dtype=np.uint64), ValidationError, "1-d"),
            (np.array([3, -1]), ValidationError, "non-negative"),
            (u64([5, 4]), IntegrityError, "non-decreasing"),
        ]
        for values, error, what in cases:
            with pytest.raises(error, match=f"^{name} .*{what}"):
                TagStream(**{**good, name: values}, **HEADER)

    def test_u64_channels_are_kept_and_others_cast(self):
        refs, d1 = u64([0, 4]), np.array([1, 1], dtype=np.int32)
        s = TagStream(refs=refs, d1=d1, d2=[], **HEADER)
        assert s.refs is refs
        assert s.d1.dtype == np.uint64 and s.d2.dtype == np.uint64 and s.d2.size == 0
        assert len(s) == 4

    def test_equality_ignores_provenance(self):
        a = make_stream([1], [7], provenance="one")
        b = make_stream([1], [7], provenance="two")
        assert a == b

    def test_equality_with_a_non_stream(self):
        s = make_stream([1], [7])
        assert s.__eq__(7) is NotImplemented
        assert s != 7 and s != None  # noqa: E711

    def test_equality_is_per_channel(self):
        a = TagStream(refs=u64([0, 4]), d1=u64([4]), d2=u64([]), **HEADER)
        assert a == TagStream(refs=u64([0, 4]), d1=np.array([4]), d2=u64([]), **HEADER)
        # the same timestamps on another channel are another stream
        assert a != TagStream(refs=u64([0, 4]), d1=u64([]), d2=u64([4]), **HEADER)

    def test_from_records_splits_by_channel(self):
        s = make_stream([0, 1, 2, 1], [0, 5, 6, 9])
        assert [s.refs.tolist(), s.d1.tolist(), s.d2.tolist()] == [[0], [5, 9], [6]]

    def test_from_records_checks_order_across_channels(self):
        # each channel alone is sorted; the records are not
        with pytest.raises(IntegrityError, match="^timestamps must be non-decreasing$"):
            make_stream([0, 1, 0], [0, 50, 40])

    @pytest.mark.parametrize("at", [3, 4, 5])
    def test_from_records_checks_order_at_a_block_edge(self, monkeypatch, at):
        # records 0-3 fill the first block: a step back at record 4 shows
        # only across the edge, at 3 and 5 inside a block; the record
        # stepping back is the only D1 tag, so each channel stays sorted
        timestamps = list(range(0, 80, 10))
        timestamps[at] = timestamps[at - 1] - 5
        channels = [0] * 8
        channels[at] = 1
        monkeypatch.setattr(tags, "_BLOCK", 4)
        with pytest.raises(IntegrityError, match="^timestamps must be non-decreasing$"):
            make_stream(channels, timestamps)

    @pytest.mark.parametrize("codes, header, match", [
        ([0, 3, 0], HEADER, r"^channel codes must be 0 \(REF\), 1 \(D1\) or 2 \(D2\)$"),
        ([0, 1, 0], {**HEADER, "divider": 0}, "^divider must be a positive integer, got 0$"),
    ], ids=["bad code", "zero divider"])
    def test_from_records_reports_codes_and_header_before_the_record_order(self, codes, header,
                                                                            match):
        with pytest.raises(ValidationError, match=match):
            TagStream.from_records(codes, [0, 50, 40], **header)


class TestBinaryRoundTrip:
    @given(streams())
    @settings(max_examples=100)
    def test_write_read_identity(self, stream):
        buf = io.BytesIO()
        write_tags(stream, buf)
        back = read_tags(io.BytesIO(buf.getvalue()))
        assert back == stream
        assert back.timebin_ps == stream.timebin_ps
        assert back.rep_period_ps == stream.rep_period_ps
        assert back.divider == stream.divider

    def test_version_1_is_rejected(self):
        # the 9-byte records written before version 2
        s = make_stream([1, 2], [3, 4])
        assert len(v1_bytes(s)) == 18 + 2 * 9
        with pytest.raises(FormatError, match="^unsupported format version 1$"):
            read_tags(io.BytesIO(v1_bytes(s)))

    def test_v2_layout_is_header_counts_and_sections(self):
        s = TagStream(refs=u64([5, 2**64 - 1]), d1=u64([]), d2=u64([7]), **HEADER)
        buf = io.BytesIO()
        write_tags(s, buf)
        assert buf.getvalue() == (struct.pack("<4sHIIIQQQ", b"ZHT1", 2, 81, 9963, 512, 2, 0, 1)
                                  + struct.pack("<QQQ", 5, 2**64 - 1, 7))

    def test_file_round_trip(self, tmp_path):
        s = make_stream([0, 1], [0, 42], provenance="unit test")
        path = tmp_path / "tags.zht"
        write_tags(s, path)
        assert read_tags(path) == s

    def test_writer_does_not_copy_the_records(self, tmp_path):
        # each channel's array is written as it is, so nothing of the
        # size of the stream is allocated
        for n_rows in (1_000_000, 3_000_000):
            stream = TagStream(refs=np.arange(0, n_rows, 3, dtype=np.uint64),
                               d1=np.arange(1, n_rows, 3, dtype=np.uint64),
                               d2=np.arange(2, n_rows, 3, dtype=np.uint64), **HEADER)
            path = tmp_path / "tags.zht"
            tracemalloc.start()
            try:
                write_tags(stream, path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert path.stat().st_size == 42 + 8 * n_rows
            assert read_tags(path) == stream
            assert peak < 2**20

    def test_record_split_copies_each_column_once(self):
        # from_records, as the CSV reader calls it: beside the records, the
        # three channel arrays (8 bytes a record) and one block of the split
        n_rows = 1_000_000
        channels = (np.arange(n_rows) % 3).astype(np.uint8)
        timestamps = np.arange(n_rows, dtype=np.uint64)
        tracemalloc.start()
        try:
            back = TagStream.from_records(channels, timestamps, **HEADER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for part in (back.refs, back.d1, back.d2):
            assert part.flags.owndata and not part.flags.writeable
        assert peak < 8 * n_rows + 2 * 2**20

    def test_v2_reader_holds_only_the_channels(self, tmp_path):
        # version 2: the three channel arrays (8 bytes a tag), read in
        # place, and the order check's blocks
        n_rows = 1_000_000
        path = tmp_path / "tags.zht"
        write_tags(make_stream(np.arange(n_rows) % 3, np.arange(n_rows)), path)
        tracemalloc.start()
        try:
            back = read_tags(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for part in (back.refs, back.d1, back.d2):
            assert part.flags.owndata and not part.flags.writeable
        assert peak < 8.1 * n_rows + 2**20


def files_beside(path):
    return sorted(entry.name for entry in path.parent.iterdir())


class TestReplacingWrites:
    """A path is written as a new file beside it, renamed into place: an
    old file stays whole until then, and a failed write leaves it as it
    was with no new file behind. Errors name the path."""

    OLD = make_stream([0, 1, 0, 2, 0], [0, 3, 10, 14, 20])
    # 13 tags, which the CSV writer takes as 9 and 4 at a block of 10
    NEW = TagStream(refs=np.arange(11) * 10, d1=[21], d2=[75], **HEADER)

    def test_open_handle_keeps_reading_the_old_file(self, tmp_path):
        path = tmp_path / "run.zht"
        write_tags(self.OLD, path)
        old = path.read_bytes()
        with open(path, "rb") as fh:
            write_tags(self.NEW, path)
            assert fh.read() == old
        assert read_tags(path) == self.NEW
        assert files_beside(path) == ["run.zht"]

    def test_failed_csv_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "run.csv"
        write_tags_csv(self.OLD, path)
        old = path.read_bytes()
        whole = io.StringIO()
        write_tags_csv(self.NEW, whole)
        header = whole.getvalue()[:whole.getvalue().index("channel,timestamp\n") + 18]
        monkeypatch.setattr(tags, "_BLOCK", 10)
        rows, blocks = tags._csv_rows, []

        def failing_rows(channels, timestamps):
            if blocks:
                raise RuntimeError("write failed")
            blocks.append(rows(channels, timestamps))
            return blocks[-1]

        monkeypatch.setattr(tags, "_csv_rows", failing_rows)
        with pytest.raises(RuntimeError, match="write failed"):
            write_tags_csv(self.NEW, path)
        assert path.read_bytes() == old
        assert files_beside(path) == ["run.csv"]
        # a file cut after the first block, as writing in place leaves
        # it, fails on its record count
        with pytest.raises(FormatError, match="gives 13 records but the file holds 9"):
            read_tags_csv(io.StringIO(header + blocks[0]))

    def test_failed_binary_write_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "run.zht"
        write_tags(self.OLD, path)
        old = path.read_bytes()
        with pytest.raises(RuntimeError):
            with tags._opened(path, "wb") as fh:
                fh.write(b"ZHT1")
                raise RuntimeError("write failed")
        assert path.read_bytes() == old
        assert files_beside(path) == ["run.zht"]

    @pytest.mark.parametrize("write", [write_tags, write_tags_csv])
    def test_missing_directory_is_named(self, tmp_path, write):
        path = tmp_path / "missing" / "run.zht"
        with pytest.raises(FileNotFoundError) as err:
            write(self.NEW, path)
        assert (err.value.filename, err.value.filename2) == (str(path), None)
        assert ".tmp" not in str(err.value)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("write", [write_tags, write_tags_csv])
    def test_directory_destination_is_named(self, tmp_path, write):
        path = tmp_path / "run.zht"
        path.mkdir()
        with pytest.raises(OSError) as err:
            write(self.NEW, path)
        assert (err.value.filename, err.value.filename2) == (str(path), None)
        assert path.is_dir() and files_beside(path) == ["run.zht"]

    def test_failed_rename_is_named(self, tmp_path, monkeypatch):
        path = tmp_path / "run.zht"

        def refuse(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, dst)

        monkeypatch.setattr(tags.os, "rename", refuse)
        with pytest.raises(OSError) as err:
            write_tags(self.NEW, path)
        assert (err.value.filename, err.value.filename2) == (str(path), None)
        assert list(tmp_path.iterdir()) == []

    def test_rename_failing_after_the_unlink_keeps_the_new_file(self, tmp_path, monkeypatch):
        path = tmp_path / "run.zht"
        write_tags(self.OLD, path)

        def refuse(src, dst):
            raise OSError(errno.EIO, os.strerror(errno.EIO), src, dst)

        monkeypatch.setattr(tags.os, "rename", refuse)
        with pytest.raises(OSError) as err:
            write_tags(self.NEW, path)
        assert (err.value.filename, err.value.filename2) == (str(path), None)
        # the old file is gone, so the new one stays and the error names it
        (left,) = tmp_path.iterdir()
        assert left.name.startswith(".run.zht.") and left.name.endswith(".tmp")
        assert err.value.strerror.endswith(f"; the new file is left at {left}")
        assert read_tags(left) == self.NEW

    def test_fifo_is_written_in_place(self, tmp_path):
        path = tmp_path / "run.fifo"
        os.mkfifo(path)
        received = []
        reader = threading.Thread(target=lambda: received.append(path.read_bytes()), daemon=True)
        reader.start()
        write_tags(self.NEW, path)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.lstat(path).st_mode)
        assert files_beside(path) == ["run.fifo"]
        assert read_tags(io.BytesIO(received[0])) == self.NEW

    def test_symlink_to_a_fifo_is_followed(self, tmp_path):
        fifo, link = tmp_path / "run.fifo", tmp_path / "link"
        os.mkfifo(fifo)
        link.symlink_to(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_tags_csv(self.NEW, link)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert link.is_symlink() and stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert read_tags_csv(io.StringIO(received[0].decode())) == self.NEW

    def test_mode_follows_the_umask(self, tmp_path):
        path = tmp_path / "run.zht"
        umask = os.umask(0o027)
        try:
            write_tags(self.NEW, path)
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_symlink_is_replaced(self, tmp_path):
        target, link = tmp_path / "target.zht", tmp_path / "link.zht"
        write_tags(self.OLD, target)
        link.symlink_to(target)
        write_tags(self.NEW, link)
        assert not link.is_symlink() and read_tags(link) == self.NEW
        assert read_tags(target) == self.OLD

    def test_left_temporary_file_is_kept(self, tmp_path, monkeypatch):
        # a killed write's file under the name the next write would take
        monkeypatch.setattr(tags, "_TEMP_NUMBERS", itertools.count())
        left = tmp_path / f".run.zht.{os.getpid()}.0.tmp"
        left.write_bytes(b"killed")
        write_tags(self.NEW, tmp_path / "run.zht")
        assert left.read_bytes() == b"killed"
        assert files_beside(left) == [left.name, "run.zht"]

    def test_file_objects_pass_through(self):
        binary, text = io.BytesIO(), io.StringIO()
        write_tags(self.NEW, binary)
        write_tags_csv(self.NEW, text)
        assert not binary.closed and not text.closed
        assert read_tags(io.BytesIO(binary.getvalue())) == self.NEW
        assert read_tags_csv(io.StringIO(text.getvalue())) == self.NEW
        with tags._opened(binary, "wb") as fh:
            assert fh is binary


def v2_blob(counts, *sections, header=(81, 9963, 512)):
    """A version 2 file of these counts and u64 sections, as given."""
    return struct.pack("<4sHIIIQQQ", b"ZHT1", 2, *header, *counts) + u64(
        [t for part in sections for t in part]).tobytes()


u64_lists = st.lists(st.sampled_from([0, 1, 7, 2**32, 2**63, 2**64 - 2, 2**64 - 1])
                     | st.integers(0, 2**64 - 1), max_size=40).map(lambda ts: u64(sorted(ts)))


class TestBinaryCorruption:
    """The prefix of a file built by v2_blob."""

    def good_bytes(self):
        return bytearray(v2_blob((1, 1, 1), [0], [10], [20]))

    def test_short_file(self):
        with pytest.raises(FormatError, match="too short"):
            read_tags(io.BytesIO(b"ZH"))

    def test_bad_magic(self):
        blob = self.good_bytes()
        blob[:4] = b"NOPE"
        with pytest.raises(FormatError, match="magic"):
            read_tags(io.BytesIO(bytes(blob)))

    def test_bad_version(self):
        blob = self.good_bytes()
        struct.pack_into("<H", blob, 4, 99)
        with pytest.raises(FormatError, match="version 99"):
            read_tags(io.BytesIO(bytes(blob)))

    def test_magic_constant(self):
        assert MAGIC == b"ZHT1"
        assert bytes(self.good_bytes()[:4]) == b"ZHT1"


class TestV2Sections:
    """Version 2 files: each channel a section of u64s after the counts."""

    @given(refs=u64_lists, d1=u64_lists, d2=u64_lists)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_with_empty_channels_and_extremes(self, refs, d1, d2):
        stream = TagStream(refs=refs, d1=d1, d2=d2, **HEADER)
        buf = io.BytesIO()
        write_tags(stream, buf)
        assert len(buf.getvalue()) == 42 + 8 * len(stream)
        back = read_tags(io.BytesIO(buf.getvalue()))
        assert back == stream
        assert all(part.dtype == np.uint64 for part in (back.refs, back.d1, back.d2))

    def test_strided_channels_are_written_whole(self):
        refs = np.arange(20, dtype=np.uint64)[::2]
        stream = TagStream(refs=refs, d1=u64([3]), d2=u64([]), **HEADER)
        buf = io.BytesIO()
        write_tags(stream, buf)
        assert read_tags(io.BytesIO(buf.getvalue())).refs.tolist() == refs.tolist()

    @pytest.mark.parametrize("counts, sections, match", [
        ((2**61, 0, 0), (), r"^refs section at byte offset 42 runs past the end of the file "
                            r"\(2305843009213693952 tags, 0 bytes left\)$"),
        ((0, 2**64 - 1, 0), ([1],), r"^d1 section at byte offset 42 runs past the end"),
        ((1, 5, 0), ([1, 2, 3],), r"^d1 section at byte offset 50 runs past the end of the "
                                  r"file \(5 tags, 16 bytes left\)$"),
        ((1, 1, 1), ([1, 2],), r"^d2 section at byte offset 58 runs past the end"),
        ((1, 0, 1), ([1, 2, 3],), r"^8 trailing bytes at byte offset 58, after the d2 section$"),
        ((0, 0, 0), ([1],), r"^8 trailing bytes at byte offset 42"),
    ], ids=["count-bytes-overflow", "largest-count", "past-the-end", "last-section-short",
            "trailing-tag", "trailing-after-empty"])
    def test_counts_are_checked_against_the_file_size(self, counts, sections, match):
        with pytest.raises(FormatError, match=match):
            read_tags(io.BytesIO(v2_blob(counts, *sections)))

    def test_trailing_partial_tag(self):
        with pytest.raises(FormatError, match=r"^3 trailing bytes at byte offset 50,"):
            read_tags(io.BytesIO(v2_blob((1, 0, 0), [4]) + b"abc"))

    def test_a_section_cut_short_after_sizing(self):
        class Shrinking(io.BytesIO):  # the file loses its tail once it is sized
            def readinto(self, buffer):
                return super().readinto(memoryview(buffer).cast("B")[:-8])

        with pytest.raises(FormatError, match=r"^refs section at byte offset 42 is cut short$"):
            read_tags(Shrinking(v2_blob((2, 0, 0), [1, 2])))

    @pytest.mark.parametrize("cut", [18, 30, 41])
    def test_cut_counts(self, cut):
        with pytest.raises(FormatError, match=f"^file too short for a version 2 header "
                                              f"\\({cut} bytes\\)$"):
            read_tags(io.BytesIO(v2_blob((0, 0, 0))[:cut]))

    @pytest.mark.parametrize("header", [(0, 9963, 512), (81, 0, 512), (81, 9963, 0)],
                             ids=["timebin", "period", "divider"])
    @pytest.mark.parametrize("tags_in_file", [0, 3])
    def test_zero_header_field(self, header, tags_in_file):
        counts, sections = ((1, 1, 1), ([1], [2], [3])) if tags_in_file else ((0, 0, 0), ())
        with pytest.raises(FormatError, match="^header fields must be positive$"):
            read_tags(io.BytesIO(v2_blob(counts, *sections, header=header)))

    def test_backwards_timestamp_names_channel_index_and_offset(self, tmp_path):
        path = tmp_path / "tags.zht"
        path.write_bytes(v2_blob((2, 1, 3), [0, 10], [5], [3, 9, 8]))
        # d2 starts at 42 + 8 * (2 + 1) = 66; its index 2 at 82
        with pytest.raises(IntegrityError, match=r"^d2 timestamps go backwards at index 2 "
                                                 r"\(byte offset 82\)$"):
            read_tags(path)

    @pytest.mark.parametrize("at", [3, 4, 5])
    def test_backwards_timestamp_at_a_block_edge(self, monkeypatch, at):
        # indices 1-4 are compared in the first block: a step back at 5
        # shows only across the edge
        refs = list(range(0, 80, 10))
        refs[at] = refs[at - 1] - 5
        monkeypatch.setattr(tags, "_BLOCK", 4)
        with pytest.raises(IntegrityError, match=f"^refs timestamps go backwards at index {at} "
                                                 f"\\(byte offset {42 + 8 * at}\\)$"):
            read_tags(io.BytesIO(v2_blob((8, 0, 0), refs)))

    def test_unseekable_source_reads_equal_to_a_seekable_one(self):
        class Unseekable(io.BytesIO):
            def seekable(self):
                return False

            def seek(self, *args):
                raise io.UnsupportedOperation("seek")

            def tell(self):
                raise io.UnsupportedOperation("tell")

        stream = make_stream([0, 1, 0, 2, 0], [0, 3, 10, 12, 20])
        buf = io.BytesIO()
        write_tags(stream, buf)
        blob = buf.getvalue()
        assert read_tags(Unseekable(blob)) == read_tags(io.BytesIO(blob)) == stream


class TestCsvRoundTrip:
    @given(streams())
    @settings(max_examples=50)
    def test_write_read_identity(self, stream):
        buf = io.StringIO()
        write_tags_csv(stream, buf)
        back = read_tags_csv(io.StringIO(buf.getvalue()))
        assert back == stream
        assert back.timebin_ps == stream.timebin_ps
        assert back.provenance == stream.provenance

    def test_human_readable_channel_names(self):
        buf = io.StringIO()
        write_tags_csv(make_stream([0, 1, 2], [0, 5, 9]), buf)
        body = buf.getvalue()
        assert "REF" in body and "D1" in body and "D2" in body

    def test_missing_header_line_rejected(self):
        buf = io.StringIO()
        write_tags_csv(make_stream([1], [4]), buf)
        kept = [
            line for line in buf.getvalue().splitlines()
            if not line.startswith("# timebin_ps")
        ]
        with pytest.raises(FormatError, match="timebin_ps"):
            read_tags_csv(io.StringIO("\n".join(kept)))

    @pytest.mark.parametrize("line, value", [
        ("# divider = 512", "0"),
        ("# divider = 512", str(2**32)),
        ("# timebin_ps = 81", "-81"),
        ("# rep_period_ps = 9963", "0"),
    ])
    def test_out_of_range_header_value_is_a_format_error(self, line, value):
        text = csv_text()
        assert line in text
        bad = text.replace(line, line.rsplit("=", 1)[0] + "= " + value)
        with pytest.raises(FormatError, match="^bad header value: "):
            read_tags_csv(io.StringIO(bad))

    @pytest.mark.parametrize("key, first, again", [
        ("divider", "512", "8"),
        ("records", "5", "5"),  # even the same value: the header says it twice
        ("provenance", "a", "b"),
    ])
    def test_repeated_header_key_is_a_format_error(self, key, first, again):
        buf = io.StringIO()
        write_tags_csv(make_stream([0, 1, 2, 0, 1], [0, 1, 2, 3, 4], provenance="a"), buf)
        lines = buf.getvalue().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith(f"# {key} ="))
        assert lines[at] == f"# {key} = {first}\n"
        lines.insert(at + 1, f"# {key} = {again}\n")
        with pytest.raises(FormatError,
                           match=f"^line {at + 2}: key '{key}' repeats line {at + 1}$"):
            read_tags_csv(io.StringIO("".join(lines)))

    def test_unknown_header_keys_are_ignored(self):
        text = csv_text().replace("# version", "# comment = x\n# version", 1)
        assert read_tags_csv(io.StringIO(text)) == make_stream([0, 1], [0, 5])

    def test_line_breaks_in_provenance_are_flattened(self):
        s = make_stream([1], [4], provenance="two\nlines")
        buf = io.StringIO()
        write_tags_csv(s, buf)
        back = read_tags_csv(io.StringIO(buf.getvalue()))
        assert back.provenance == "two lines"

    @pytest.mark.parametrize("dropped", [1, 2, 13])
    def test_file_cut_at_a_line_boundary_is_a_format_error(self, tmp_path, dropped):
        path = tmp_path / "tags.csv"
        write_tags_csv(make_stream(np.arange(13) % 3, np.arange(13) * 5), path)
        lines = path.read_text().splitlines(keepends=True)
        assert "# records = 13\n" in lines
        path.write_text("".join(lines[:-dropped]))
        with pytest.raises(FormatError, match=f"^the header gives 13 records but the file "
                                              f"holds {13 - dropped}$"):
            read_tags_csv(path)
        # a file without the count line reads as the records it holds
        path.write_text("".join(line for line in lines[:-dropped]
                                if not line.startswith("# records")))
        assert len(read_tags_csv(path)) == 13 - dropped

    def test_bad_row_rejected_with_line_number(self):
        buf = io.StringIO()
        write_tags_csv(make_stream([1], [4]), buf)
        text = buf.getvalue() + "D1,not_a_number\n"
        with pytest.raises(FormatError, match="line"):
            read_tags_csv(io.StringIO(text))


# few distinct values, the u64 extremes among them, so that channels
# tie with each other and across block edges
def tag_times(max_size):
    return st.lists(st.sampled_from([0, 1, 2, 7, 2**63, 2**64 - 2, 2**64 - 1]),
                    max_size=max_size).map(lambda ts: u64(sorted(ts)))


def interleaved(stream):
    """The records of the block-wise interleave, as one array."""
    rounds = list(_record_blocks(stream))
    records = np.empty(sum(codes.size for codes, _ in rounds), dtype=RECORD)
    records["channel"] = np.concatenate([np.empty(0, "u1"), *(codes for codes, _ in rounds)])
    records["timestamp"] = np.concatenate([np.empty(0, "u8"), *(ts for _, ts in rounds)])
    return records


class TestRecordOrder:
    """The block-wise interleave against oracle_records, a stable sort of
    the three channels concatenated, as records and as the CSV writer's
    text, at block sizes down to three records; from_records and the
    CSV reader split blocks of the same size. Inputs range from many
    references beside a few detector tags to channels of equal size."""

    @given(refs=tag_times(60), d1=tag_times(12), d2=tag_times(12),
           block=st.sampled_from([3, 4, 5, 8, 64]))
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_sort(self, refs, d1, d2, block):
        stream = TagStream(refs=refs, d1=d1, d2=d2, **HEADER)
        want_channels, want_times = oracle_records(stream)
        text = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tags, "_BLOCK", block)
            assert all(codes.size <= block + 2 for codes, _ in _record_blocks(stream))
            records = interleaved(stream)
            write_tags_csv(stream, text)
            # the records split back in blocks of the same size
            assert TagStream.from_records(want_channels, want_times, **HEADER) == stream
            assert read_tags_csv(io.StringIO(text.getvalue())) == stream
        assert records["channel"].tolist() == want_channels.tolist()
        assert records["timestamp"].tolist() == want_times.tolist()
        assert text.getvalue() == printf_text(stream)

    @pytest.mark.parametrize("block", [3, 64, 1 << 16])
    def test_references_dominate_with_ties(self, monkeypatch, block):
        # mostly references, so most rounds hold a detector tag or two among
        # them; each detector tag ties with references and the other detector
        stream = TagStream(refs=u64([0, 7, 2**64 - 1]).repeat(40), d1=u64([7, 2**64 - 1]),
                           d2=u64([0, 7, 2**64 - 1]), **HEADER)
        monkeypatch.setattr(tags, "_BLOCK", block)
        records = interleaved(stream)
        want_channels, want_times = oracle_records(stream)
        assert records["channel"].tolist() == want_channels.tolist()
        assert records["timestamp"].tolist() == want_times.tolist()

    def test_foreign_tie_order_reads_equal_and_writes_canonical(self):
        # equal-timestamp tags as another recorder may order them
        foreign = [(2, 0), (1, 0), (0, 0), (1, 5), (0, 5), (2, 7)]
        canonical = [(0, 0), (1, 0), (2, 0), (0, 5), (1, 5), (2, 7)]
        want = TagStream(refs=u64([0, 5]), d1=u64([0, 5]), d2=u64([0, 7]), **HEADER)
        text = csv_text((), ()) + "".join(f"{('REF', 'D1', 'D2')[c]},{t}\n" for c, t in foreign)
        back = read_tags_csv(io.StringIO(text))
        assert back == want
        assert interleaved(back).tolist() == canonical


def edge_stream(n_rows, seed=0):
    """n_rows sorted tags of every decimal width, with the edge values
    0, 9, 10, 2**32 - 1, 2**32, 10**19 and 2**64 - 1 among them."""
    rng = np.random.default_rng(seed)
    edges = np.array([0, 9, 10, 2**32 - 1, 2**32, 10**19, 2**64 - 1], dtype=np.uint64)
    wide = rng.integers(0, 2**64, n_rows, dtype=np.uint64, endpoint=False)
    values = np.concatenate((edges, wide >> rng.integers(0, 64, n_rows).astype(np.uint64)))
    return make_stream(rng.integers(0, 3, n_rows), np.sort(values[:n_rows]),
                       provenance="edge values")


def printf_text(stream):
    buf = io.StringIO()
    printf_tags_csv(stream, buf)
    return buf.getvalue()


def stable_split(channels, timestamps):
    """Each channel's timestamps, by one stable argsort of the codes."""
    order = np.argsort(channels, kind="stable")
    return np.split(timestamps[order], np.cumsum(np.bincount(channels, minlength=3))[:2])


@st.composite
def block_mixes(draw, block=16):
    """Records in blocks of one main channel and 0-4 others, so a block
    holds from none to a quarter of its records outside its main
    channel; timestamps step by 0-2, so runs of equal ones cross block
    edges."""
    channels = []
    for _ in range(draw(st.integers(1, 5))):
        codes = [draw(st.integers(0, 2))] * block
        for at in draw(st.lists(st.integers(0, block - 1), max_size=4)):
            codes[at] = draw(st.integers(0, 2))
        channels += codes
    channels = channels[:len(channels) - draw(st.integers(0, block - 1))]
    steps = draw(st.lists(st.integers(0, 2), min_size=len(channels), max_size=len(channels)))
    return np.array(channels, dtype=np.uint8), np.cumsum(steps, dtype=np.uint64)


class TestRecordSplit:
    """from_records splits each block by a stable counting sort of its
    codes, giving a stable argsort's split whatever share of the block
    lies outside its main channel."""

    @given(block_mixes())
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_argsort_in_small_blocks(self, mix):
        channels, timestamps = mix
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tags, "_BLOCK", 16)
            stream = TagStream.from_records(channels, timestamps, **HEADER)
        for part, want in zip((stream.refs, stream.d1, stream.d2),
                              stable_split(channels, timestamps)):
            np.testing.assert_array_equal(part, want)

    @pytest.mark.parametrize("others", [0, 4096, 4097, 1 << 15],
                             ids=["none", "one sixteenth", "one more", "half"])
    def test_full_blocks_on_both_sides_of_the_share(self, others):
        # three blocks of references, the last one short, with no, 4096,
        # 4097 or 2**15 detector tags in each; runs of eight equal
        # timestamps cross each block edge
        rng = np.random.default_rng(others)
        channels = np.zeros(3 * tags._BLOCK - 100, dtype=np.uint8)
        for start in range(0, channels.size, tags._BLOCK):
            block = channels[start:start + tags._BLOCK]
            block[rng.choice(block.size, min(others, block.size), replace=False)] = (
                rng.integers(1, 3, min(others, block.size)))
        timestamps = (np.arange(channels.size, dtype=np.uint64) + 4) // np.uint64(8)
        stream = TagStream.from_records(channels, timestamps, **HEADER)
        for part, want in zip((stream.refs, stream.d1, stream.d2),
                              stable_split(channels, timestamps)):
            np.testing.assert_array_equal(part, want)

    def test_csv_round_trip_of_a_busy_mix(self, tmp_path):
        # a reference-heavy stretch with a few detector tags, then dense
        # detector tags among sparse references, as in a high-rate run
        rng = np.random.default_rng(3)
        quiet = np.arange(80_000, dtype=np.uint64) * np.uint64(100)
        refs = np.concatenate([quiet, quiet[-1] + np.arange(1, 200, dtype=np.uint64) * 62_976])

        def tags_in(low, high, n):
            return rng.integers(int(low), int(high), n).astype(np.uint64)
        d1 = np.sort(np.concatenate([tags_in(0, quiet[-1], 100),
                                     tags_in(quiet[-1], refs[-1] + 50, 70_000)]))
        d2 = np.sort(np.concatenate([d1[::7], tags_in(quiet[-1], refs[-1], 60_000)]))
        stream = TagStream(refs=refs, d1=d1, d2=d2, provenance="busy mix", **HEADER)
        path = tmp_path / "busy.csv"
        write_tags_csv(stream, path)
        back = read_tags_csv(path)
        assert back == stream and back.provenance == "busy mix"


class TestCsvWriterMatchesPrintf:
    """The byte-matrix writer against the printf-style formatter, byte
    for byte: empty, one block, one block and one row, and blocks whose
    widest value differs."""

    @pytest.mark.parametrize("n_rows", [0, 1, 7, 65_536, 65_537, 3 * 65_536 + 5])
    def test_text_sink(self, n_rows):
        stream = edge_stream(n_rows)
        buf = io.StringIO()
        write_tags_csv(stream, buf)
        assert buf.getvalue() == printf_text(stream)

    @pytest.mark.parametrize("top", [2**32 - 1, 2**32, 2**32 + 1, 10 * 2**32 - 1, 10 * 2**32,
                                     10**10, 2**64 - 1])
    def test_block_tops_near_the_uint32_switch(self, top):
        # the digits go to uint32 once the block's rest fits; values just
        # past 2**32, one division from it, or at the u64 top must not wrap
        rng = np.random.default_rng(top % 1000)
        values = np.sort(rng.integers(0, top, 500, dtype=np.uint64, endpoint=True))
        values[-1] = top
        stream = make_stream(rng.integers(0, 3, 500), values)
        buf = io.StringIO()
        write_tags_csv(stream, buf)
        assert buf.getvalue() == printf_text(stream)

    def test_path_sink(self, tmp_path):
        stream = edge_stream(65_537, seed=1)
        write_tags_csv(stream, tmp_path / "tags.csv")
        with open(tmp_path / "want.csv", "w") as fh:
            printf_tags_csv(stream, fh)
        assert (tmp_path / "tags.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_edge_values_round_trip(self):
        stream = edge_stream(7)
        assert oracle_records(stream)[1].tolist() == [0, 9, 10, 2**32 - 1, 2**32, 10**19,
                                                      2**64 - 1]
        assert read_tags_csv(io.StringIO(printf_text(stream))) == stream

    def test_memory_stays_per_block(self):
        # 16 blocks of 20-digit values: about 23 MB of text, ~6.4 MB peak
        n_rows = 16 * 65_536
        stream = make_stream(np.arange(n_rows) % 3,
                             np.arange(n_rows, dtype=np.uint64) * np.uint64(10**13))

        class Counting:
            size = 0

            def write(self, text):
                self.size += len(text)

        sink = Counting()
        tracemalloc.start()
        try:
            write_tags_csv(stream, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 20 * 2**20
        assert peak < 12 * 2**20


def csv_text(channels=(0, 1), timestamps=(0, 5)):
    """A valid CSV file without its record count line, so that records
    can be appended: 7 header lines, then one record per tag."""
    buf = io.StringIO()
    write_tags_csv(make_stream(list(channels), list(timestamps)), buf)
    return "".join(line for line in io.StringIO(buf.getvalue())
                   if not line.startswith("# records"))


class TestCsvRecordGrammar:
    """After the column header every line is NAME,DIGITS or empty.

    The file below has its records on lines 8 and 9, the bad line on
    line 10 (later with leading blank lines) and a good record after it.
    """

    @pytest.mark.parametrize("bad, line", [
        ("D1,18446744073709551616", 10),  # 2**64
        ("D1,99999999999999999999999", 10),
        ("# divider = 7", 10),  # once silently changed the divider
        ("#", 10),
        ("D3,12", 10),
        ("d1,12", 10),
        (" D1,12", 10),
        ("REF,12,3", 10),
        ("D1,12,", 10),
        ("D1", 10),
        ("D1,", 10),
        (",12", 10),
        ("D1,-3", 10),
        ("D1,1_000", 10),
        ("D1,12.0", 10),
        ("D1,1e3", 10),
        ("channel,timestamp", 10),
        ("\n\nD3,12", 12),
        ("REF\x00junk,0", 10),  # a fixed-width name field drops the NUL tail
        ("D1\x00,5", 10),
        ("D1,5\x00", 10),
        ("\x00", 10),
        ("D1X,12", 10),  # a name that shares its first two code points
        ("REFS,12", 10),
        ("RE,12", 10),
        ("D1é,5", 10),
        ("D1,5\u2003", 10),  # a blank outside ASCII
        ("D1,\U00077685", 10),  # a code point numpy's parser can crash on
    ])
    def test_bad_record_names_its_line(self, bad, line):
        text = csv_text() + bad + "\nD2,20\n"
        with pytest.raises(FormatError, match=f"^line {line}: bad record"):
            read_tags_csv(io.StringIO(text))

    def test_bad_record_in_a_file_names_its_line(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_bytes((csv_text() + "\n# divider = 7\n").encode().replace(b"\n", b"\r\n"))
        with pytest.raises(FormatError, match="^line 11: bad record '# divider = 7'"):
            read_tags_csv(path)

    @pytest.mark.parametrize("bad", ["REF\x00junk,0", "D1\x00,5", "D1,\U00077685"])
    def test_nul_in_a_file_names_its_line(self, tmp_path, bad):
        path = tmp_path / "tags.csv"
        path.write_text(csv_text() + "\n" + bad + "\nD2,20\n")
        with pytest.raises(FormatError, match="^line 11: bad record"):
            read_tags_csv(path)

    def test_unseekable_source_reads_and_names_bad_lines(self):
        class Unseekable(io.StringIO):
            def seekable(self):
                return False

        assert read_tags_csv(Unseekable(csv_text())) == make_stream([0, 1], [0, 5])
        with pytest.raises(FormatError, match=r"^line 10: bad record 'D1\\x00,5'"):
            read_tags_csv(Unseekable(csv_text() + "D1\x00,5\n"))

    def test_file_and_text_sources_read_alike(self, tmp_path):
        text = "\n# note\n" + csv_text((0, 2, 1), (0, 3, 9)) + "\n\nD1,+0012 \nREF,18446744073709551615\n"
        path = tmp_path / "tags.csv"
        path.write_bytes(text.replace("\n", "\r\n").encode())
        from_path = read_tags_csv(path)
        assert from_path == read_tags_csv(io.StringIO(text))
        assert from_path == TagStream(refs=u64([0, 2**64 - 1]), d1=u64([9, 12]), d2=u64([3]),
                                      **HEADER)

    @pytest.mark.parametrize("source", ["text", "path"])
    def test_backwards_timestamp_names_its_line(self, tmp_path, source):
        # records on lines 8 and 9, two blank lines, the bad record on 12
        text = csv_text((0, 1), (0, 50)) + "\n\nREF,40\nD2,60\n"
        path = tmp_path / "tags.csv"
        path.write_text(text)
        with pytest.raises(IntegrityError, match="^line 12: timestamps go backwards at 'REF,40'$"):
            read_tags_csv(path if source == "path" else io.StringIO(text))

    def test_undecodable_bytes_are_a_format_error(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_bytes(csv_text().encode() + b"D1,\xff\n")
        with pytest.raises(FormatError, match="decode"):
            read_tags_csv(path)

    @pytest.mark.parametrize("old, new, error", [
        ("# version = 1", "version = 1", "^line 2: expected column header, got 'version = 1"),
        ("# divider = 512", "# divider = lots", "^bad header value: "),
        ("# version = 1", "# version = 2", "^unsupported format version 2$"),
    ])
    def test_bad_header_lines_rejected(self, old, new, error):
        with pytest.raises(FormatError, match=error):
            read_tags_csv(io.StringIO(csv_text().replace(old, new)))

    def test_missing_column_header_rejected(self):
        text = csv_text()
        with pytest.raises(FormatError, match="column header"):
            read_tags_csv(io.StringIO(text[:text.index("channel,")]))

    @pytest.mark.parametrize("name, edit", [
        ("crlf", lambda t: t.replace("\n", "\r\n")),
        ("blank trailing lines", lambda t: t + "\n\n"),
        ("blank lines between records", lambda t: t.replace("D1,5", "\nD1,5\n")),
        ("spaces and plus sign", lambda t: t.replace("D1,5", "D1, +5 ")),
        ("leading zeros", lambda t: t.replace("D1,5", "D1,0005")),
    ])
    def test_accepted_layouts(self, name, edit):
        assert read_tags_csv(io.StringIO(edit(csv_text()))) == make_stream([0, 1], [0, 5])

    def test_empty_body_and_largest_timestamp(self, tmp_path):
        empty = read_tags_csv(io.StringIO(csv_text((), ())))
        assert len(empty) == 0 and empty.divider == 512
        path = tmp_path / "tags.csv"
        path.write_text(csv_text((2,), (2**64 - 1,)))
        assert read_tags_csv(path).d2.tolist() == [2**64 - 1]


class TestReaderFuzz:
    """Hostile bodies after a valid header: a typed error or a stream."""

    @given(st.binary(min_size=8, max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_binary_body(self, body):
        # the body's whole tags, at least one, as the sections after a
        # valid version 2 prefix whose counts split them over the channels
        n = len(body) // 8
        counts = (n // 3, n // 3, n - 2 * (n // 3))
        try:
            stream = read_tags(io.BytesIO(v2_blob(counts) + body[:8 * n]))
        except ZeroHeraldError:
            return
        assert (stream.refs.size, stream.d1.size, stream.d2.size) == counts

    @given(st.tuples(*[st.integers(0, 30)] * 3), st.just(0) | st.integers(-8, 8), st.data())
    @settings(max_examples=300, deadline=None)
    def test_v2_body(self, counts, off, data):
        # three counts after a valid version 2 prefix, then a hostile body
        # of the size they need, or up to a tag shorter or longer
        size = max(8 * sum(counts) + off, 0)
        body = data.draw(st.binary(min_size=size, max_size=size))
        try:
            stream = read_tags(io.BytesIO(v2_blob(counts) + body))
        except ZeroHeraldError:
            return
        assert (stream.refs.size, stream.d1.size, stream.d2.size) == counts

    @given(st.one_of(
        st.text(max_size=120),
        st.text(alphabet="REFD12,#+- \r\n0123456789", max_size=120),
    ))
    @settings(max_examples=300, deadline=None)
    def test_csv_body(self, body):
        try:
            stream = read_tags_csv(io.StringIO(csv_text() + body))
        except ZeroHeraldError:
            return
        assert all(part.dtype == np.uint64 for part in (stream.refs, stream.d1, stream.d2))

    @given(st.binary(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_csv_body_bytes(self, body):
        fh = io.TextIOWrapper(io.BytesIO(csv_text().encode() + body))
        try:
            read_tags_csv(fh)
        except ZeroHeraldError:
            pass
