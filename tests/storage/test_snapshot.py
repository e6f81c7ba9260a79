"""Snapshot format: round-trips, atomicity and corruption detection."""

from itertools import compress

import pytest

from repro.engine.columnar import RelationIndex
from repro.storage import (
    InjectedCrash,
    RelationSnapshot,
    ResultSnapshot,
    SnapshotCorruptError,
    armed,
    read_snapshot,
    write_snapshot,
)
from repro.storage.codec import pack_int64_column
from repro.storage.snapshot import (
    _COLUMN_DICT,
    _COLUMN_STR,
    _COLUMN_TAGGED,
    _decode_column,
    _encode_column,
)


def _relations():
    return [
        RelationSnapshot(
            "R1",
            ("a", "b"),
            version=7,
            interned_rows=[(1, "x"), (2, "y"), (3, None)],
            dead_tids=(1,),
        ),
        RelationSnapshot("Ints", ("v",), 2, [(10,), (20,), (30,)]),
        RelationSnapshot("Vacuum", (), 1, [()]),
        RelationSnapshot("Empty", ("a",), 0, []),
    ]


def _results():
    return [
        ResultSnapshot(
            query_name="Q",
            head=("a", "c"),
            atoms=(("R1", ("a", "b")), ("R2", ("b", "c"))),
            atom_names=("R1", "R2"),
            vacuum_refs=(),
            ref_column_buffers=[
                pack_int64_column([0, 1, 2]),
                pack_int64_column([2, 1, 0]),
            ],
            witness_output_buffer=pack_int64_column([0, 0, 1]),
            output_rows=[(1, "p"), (2, "q")],
        )
    ]


def test_roundtrip(tmp_path):
    path = tmp_path / "snapshot.bin"
    write_snapshot(
        path, registry_version=5, lsn=12, relations=_relations(), results=_results()
    )
    payload = read_snapshot(path)
    assert payload.registry_version == 5
    assert payload.lsn == 12
    by_name = {rel.name: rel for rel in payload.relations}
    assert by_name["R1"].interned_rows == [(1, "x"), (2, "y"), (3, None)]
    assert by_name["R1"].dead_tids == (1,)
    table = RelationIndex.from_rows(
        "R1", ("a", "b"), by_name["R1"].interned_rows, by_name["R1"].dead_tids
    )
    assert list(compress(table.rows, table.live)) == [(1, "x"), (3, None)]
    assert by_name["R1"].version == 7
    assert by_name["Ints"].interned_rows == [(10,), (20,), (30,)]
    assert by_name["Vacuum"].interned_rows == [()]
    assert by_name["Empty"].interned_rows == []
    (result,) = payload.results
    assert result.query_name == "Q"
    assert result.atoms == (("R1", ("a", "b")), ("R2", ("b", "c")))
    assert bytes(result.ref_column_buffers[0]) == pack_int64_column([0, 1, 2])
    assert bytes(result.witness_output_buffer) == pack_int64_column([0, 0, 1])
    assert result.output_rows == [(1, "p"), (2, "q")]


@pytest.mark.parametrize(
    "values, kind",
    [
        # Distinct strings (no codebook pays off): one blob + lengths,
        # including empty and non-ASCII strings.
        ([f"v{i}" for i in range(40)] + ["", "\u00e9t\u00e9", "\U0001f600"], _COLUMN_STR),
        # A 300-character string widens the packed lengths to two bytes.
        ([f"v{i}" for i in range(40)] + ["w" * 300], _COLUMN_STR),
        (["x", "y"] * 20, _COLUMN_DICT),
        # One non-string value keeps the whole column tagged, so types
        # round-trip exactly.
        ([f"v{i}" for i in range(40)] + [1], _COLUMN_TAGGED),
    ],
)
def test_column_kinds_roundtrip(values, kind):
    out = bytearray()
    _encode_column(out, values)
    assert out[0] == kind
    decoded, end = _decode_column(memoryview(bytes(out)), 0, len(values))
    assert end == len(out)
    assert decoded == values
    assert [type(value) for value in decoded] == [type(value) for value in values]


def test_from_rows_keeps_first_occurrence_of_duplicates():
    table = RelationIndex.from_rows(
        "R", ("a",), [("x",), ("y",), ("x",), ("z",)], dead_tids=(1,)
    )
    assert table.rows == [("x",), ("y",), ("z",)]
    assert table.ids == {("x",): 0, ("y",): 1, ("z",): 2}
    assert list(compress(table.rows, table.live)) == [("x",), ("z",)]


def test_rewrite_is_atomic(tmp_path):
    path = tmp_path / "snapshot.bin"
    write_snapshot(path, registry_version=1, lsn=0, relations=_relations())
    original = path.read_bytes()
    for point in ("snapshot.mid_write", "snapshot.pre_fsync"):
        with armed(point):
            with pytest.raises(InjectedCrash):
                write_snapshot(
                    path, registry_version=2, lsn=9, relations=_relations()
                )
        # The live file is untouched; only a temp sibling was torn.
        assert path.read_bytes() == original
        assert read_snapshot(path).registry_version == 1
    with armed("snapshot.post_rename"):
        with pytest.raises(InjectedCrash):
            write_snapshot(path, registry_version=3, lsn=9, relations=_relations())
    # Post-rename the new image is the live one.
    assert read_snapshot(path).registry_version == 3


def test_missing_file(tmp_path):
    with pytest.raises(SnapshotCorruptError):
        read_snapshot(tmp_path / "absent.bin")


def test_bad_magic(tmp_path):
    path = tmp_path / "snapshot.bin"
    write_snapshot(path, registry_version=1, lsn=0, relations=_relations())
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotCorruptError):
        read_snapshot(path)


def test_bitflip_in_any_section_is_detected(tmp_path):
    path = tmp_path / "snapshot.bin"
    write_snapshot(
        path, registry_version=1, lsn=0, relations=_relations(), results=_results()
    )
    intact = path.read_bytes()
    # Flip one byte at a sweep of positions across the whole file: every
    # flip must surface as corruption (the format has no slack bytes, so
    # each position is covered by the magic, a frame or a CRC'd payload).
    step = max(1, len(intact) // 64)
    for position in range(0, len(intact), step):
        data = bytearray(intact)
        data[position] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)
    path.write_bytes(intact)
    assert read_snapshot(path).registry_version == 1


def test_truncation_is_detected(tmp_path):
    path = tmp_path / "snapshot.bin"
    write_snapshot(path, registry_version=1, lsn=0, relations=_relations())
    intact = path.read_bytes()
    for end in (4, len(intact) // 2, len(intact) - 1):
        path.write_bytes(intact[:end])
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)
