import pytest

from sectorsphere.errors import (
    AccessDeniedError,
    IntegrityError,
    NotFoundError,
    StaleError,
    TransportError,
)
from sectorsphere.fileops import FileSource, first_holder, push_file, read_records_over
from sectorsphere.records import RecordIndex


class ReplyChannel:
    """Answers each call with the next canned (header, body) reply."""

    def __init__(self, *replies):
        self.replies = list(replies)
        self.requests = []

    def call(self, kind, header=None, body=b""):
        self.requests.append(header)
        return self.replies.pop(0)


def read_reply(entries, records):
    return {"rows": len(entries)}, RecordIndex(entries).to_bytes() + b"".join(records)


def test_reply_body_is_decoded_and_capped_reads_continue():
    channel = ReplyChannel(read_reply([(0, 3), (3, 2)], [b"abc", b"de"]),
                           read_reply([(9, 1)], [b"f"]))
    records, entries = read_records_over(channel, "f.dat", [(4, 3)])
    assert list(records) == [b"abc", b"de", b"f"]
    assert entries.array.tolist() == [[0, 3], [3, 2], [9, 1]]
    assert [r["runs"] for r in channel.requests] == [[[4, 3]], [[6, 1]]]


@pytest.mark.parametrize("header,body", [
    ({"rows": 2}, RecordIndex([(0, 3)]).to_bytes() + b"abc"),            # entries cut short
    ({"rows": 1}, RecordIndex([(0, 4)]).to_bytes() + b"abc"),            # short record
    ({"rows": 1}, RecordIndex([(0, 2)]).to_bytes() + b"abc"),            # trailing bytes
    ({"rows": 1}, RecordIndex([(0, 2**63)]).to_bytes() + b"abc"),        # absurd size
    ({"rows": 0}, b""),                                                  # no progress
    ({"rows": 3}, RecordIndex([(0, 1)] * 3).to_bytes() + b"abc"),        # more than asked
    ({"rows": 1.0}, RecordIndex([(0, 3)]).to_bytes() + b"abc"),          # a float
    ({"rows": True}, RecordIndex([(0, 3)]).to_bytes() + b"abc"),         # a bool
    ({"rows": "1"}, RecordIndex([(0, 3)]).to_bytes() + b"abc"),          # a string
])
def test_malformed_read_reply_raises_integrity_error(header, body):
    with pytest.raises(IntegrityError):
        read_records_over(ReplyChannel((header, body)), "f.dat", [(0, 2)])


class Holders:
    """A transport whose channel to each holder is the holder's name; a
    holder mapped to an exception raises it from open_channel."""

    def __init__(self, **faults):
        self.faults = faults
        self.opened = []

    def open_channel(self, holder):
        self.opened.append(holder)
        if holder in self.faults:
            raise self.faults[holder]
        return holder


def test_first_holder_returns_the_first_that_answers():
    transport = Holders()
    assert first_holder(transport, ["a", "b"], lambda channel: channel * 2) == ("a", "aa")
    assert transport.opened == ["a"]


def test_first_holder_skips_unreachable_missing_and_stale_holders():
    transport = Holders(a=TransportError("down"), b=NotFoundError("gone"))

    def attempt(channel):
        if channel == "c":
            raise StaleError("old copy")
        return channel.upper()

    assert first_holder(transport, ["a", "b", "c", "d", "e"], attempt) == ("d", "D")
    assert transport.opened == ["a", "b", "c", "d"]


@pytest.mark.parametrize("error", [IntegrityError("bad reply"), AccessDeniedError("no")])
def test_first_holder_lets_other_errors_through_at_once(error):
    transport = Holders()

    def attempt(channel):
        raise error

    with pytest.raises(type(error)):
        first_holder(transport, ["a", "b"], attempt)
    assert transport.opened == ["a"]


def test_first_holder_raises_the_last_error_when_no_holder_answers():
    with pytest.raises(NotFoundError):
        first_holder(Holders(), [], lambda channel: channel)
    last = StaleError("old copy")
    transport = Holders(a=TransportError("down"), b=last)
    with pytest.raises(StaleError) as raised:
        first_holder(transport, ["a", "b"], lambda channel: channel)
    assert raised.value is last


class StoreChannel:
    """Records each STORE_DATA piece and answers it with an empty header."""

    def __init__(self):
        self.pieces = []

    def call(self, kind, header=None, body=b""):
        self.pieces.append((header["offset"], bytes(body)))
        return {}, b""


def test_a_file_source_reads_only_the_slices_asked_for(tmp_path):
    path = tmp_path / "f.dat"
    path.write_bytes(b"0123456789")
    with FileSource(path) as source:
        assert len(source) == 10
        assert source[2:5] == b"234" and source[8:20] == b"89" and source[12:15] == b""
        path.write_bytes(b"01")  # truncated while it is read
        with pytest.raises(IntegrityError, match="shrank"):
            source[0:10]
    assert source._file.closed


def test_a_file_source_reads_the_version_it_opened(tmp_path):
    path = tmp_path / "f.dat"
    path.write_bytes(b"old version")
    with FileSource(path) as source:
        (tmp_path / "new").write_bytes(b"NEW VERSION, longer")
        (tmp_path / "new").replace(path)
        assert len(source) == 11 and source[0:11] == b"old version"


def test_a_pushed_file_source_sends_the_pieces_of_its_bytes(tmp_path, monkeypatch):
    from sectorsphere import fileops

    monkeypatch.setattr(fileops, "TRANSFER_CHUNK", 7)
    data, index = bytes(range(40)), RecordIndex.uniform(4, 10).to_bytes()
    (tmp_path / "f.dat").write_bytes(data)
    (tmp_path / "f.dat.idx").write_bytes(index)
    from_bytes, from_files = StoreChannel(), StoreChannel()
    push_file(from_bytes, "f.dat", data, index)
    with FileSource(tmp_path / "f.dat") as source, FileSource(tmp_path / "f.dat.idx") as entries:
        push_file(from_files, "f.dat", source, entries)
    assert from_files.pieces == from_bytes.pieces
    assert b"".join(piece for _, piece in from_files.pieces) == data + index
    assert [offset for offset, _ in from_files.pieces] == list(range(0, 104, 7))
