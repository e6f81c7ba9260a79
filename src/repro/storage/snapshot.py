"""The columnar snapshot format: one durable image of a database.

A snapshot persists everything a :class:`~repro.session.Session` needs to
come back byte-identical after a crash:

* every relation's **interning table** -- the rows in interned (``tid``)
  order plus the set of dead tids (rows deleted since interning; interning
  tables are append-only, so a deleted row keeps its tid) and the relation's
  mutation counter, so the rebuilt ``version_token()`` matches exactly;
* the **packed provenance** of cached evaluation results -- per-atom
  ``tid`` columns, witness-output factorization and output rows -- so the
  first post-recovery solve is a cache hit instead of a cold join.

Layout (all integers little-endian; varints are LEB128)::

    magic "RPROSNP1" (8 bytes)
    header:   u32 length | u32 crc32 | payload
              payload = format_version, registry_version, lsn,
                        section_count (varints)
    sections: u8 kind | u64 length | u32 crc32 | payload   (x section_count)

Section kind 1 (relation) and kind 2 (cached result) payloads are built
from the :mod:`repro.storage.codec` primitives.  Relation columns and
result output-row columns are stored columnar with a per-column kind byte:
integer-only columns as raw ``<i8`` bytes (on the NumPy backend those byte
ranges load as zero-copy array views over the memory-mapped file),
low-cardinality columns dictionary-encoded (a codebook plus a packed
``<i8`` index column -- decoding is one bulk unpack plus a list lookup
instead of a tagged decode per value), other all-string columns as one
UTF-8 blob with a packed character-length column (decoded with a single
``bytes.decode`` plus slicing; all-string codebooks use the same blob),
and everything else as tagged values.  Every section carries its own
CRC32, so torn or bit-rotted bytes surface as
:class:`SnapshotCorruptError`, never as a silently wrong database.

Writes are atomic: the image is assembled in memory, written to a ``.tmp``
sibling, fsynced, renamed over the live file, and the directory is fsynced.
A crash at any point leaves either the old snapshot or the new one -- never
a mix -- which the fault-injection suite checks at every
:func:`~repro.storage.faultpoints.crash_point`.
"""

from __future__ import annotations

import dataclasses
import mmap
import os
import struct
from itertools import accumulate
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.data.relation import Row
from repro.engine.backend import as_id_list, resolve_backend
from repro.storage.codec import (
    Buffer,
    CodecError,
    checksum,
    is_int64_column,
    pack_int64_column,
    read_str,
    read_uvarint,
    read_value,
    write_str,
    write_uvarint,
    write_value,
)
from repro.storage.faultpoints import crash_point

MAGIC = b"RPROSNP1"
FORMAT_VERSION = 1

_SECTION_RELATION = 1
_SECTION_RESULT = 2

_COLUMN_TAGGED = 0
_COLUMN_INT64 = 1
_COLUMN_DICT = 2
_COLUMN_STR = 3

_CODEBOOK_TAGGED = 0
_CODEBOOK_STR = 1

#: ``struct`` codes of the packed string-length widths (8 is the signed
#: ``<i8`` of the dictionary codebooks).
_LENGTH_CODES = {1: "B", 2: "H", 4: "I", 8: "q"}

#: Dictionary-encode a column only when it is long enough to matter and at
#: least halves the number of tagged values to decode.
_DICT_MIN_ROWS = 16

_HEADER_FRAME = struct.Struct("<II")  # length, crc32
_SECTION_FRAME = struct.Struct("<BQI")  # kind, length, crc32


class SnapshotCorruptError(RuntimeError):
    """The snapshot file failed validation (bad magic, CRC mismatch, ...)."""


@dataclasses.dataclass
class RelationSnapshot:
    """One relation's durable state, in interned (``tid``) order."""

    name: str
    attributes: Tuple[str, ...]
    version: int
    #: Every row ever interned, ``rows[tid]`` being tid's row.
    interned_rows: List[Row]
    #: Tids whose rows were deleted from the live relation (the cleared
    #: bits of the table's live mask).
    dead_tids: Tuple[int, ...] = ()


@dataclasses.dataclass
class ResultSnapshot:
    """One cached evaluation result, packed and backend-agnostic.

    ``ref_column_buffers`` / ``witness_output_buffer`` hold raw ``<i8``
    bytes (possibly zero-copy views into the mapped snapshot file); the
    loader rehydrates them through the session backend's
    ``id_column_from_buffer``.
    """

    query_name: str
    head: Tuple[str, ...]
    atoms: Tuple[Tuple[str, Tuple[str, ...]], ...]
    atom_names: Tuple[str, ...]
    vacuum_refs: Tuple[str, ...]
    ref_column_buffers: List[Buffer]
    witness_output_buffer: Buffer
    output_rows: List[Row]


@dataclasses.dataclass
class SnapshotPayload:
    """A fully-validated snapshot, plus the buffer that backs its views."""

    format_version: int
    registry_version: int
    lsn: int
    relations: List[RelationSnapshot]
    results: List[ResultSnapshot]
    #: Keeps the mmap (or bytes) behind zero-copy column views alive.
    buffer: Optional[object] = None


# --------------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------------- #
def _dictionary(
    values: Sequence[object],
) -> Optional[Tuple[List[object], List[int]]]:
    """First-appearance codebook + index list, or ``None`` when not worth it.

    Codebook keys pair the value with its exact type: ``True`` and ``1``
    compare (and hash) equal but must decode back as distinct values, the
    same byte-identity guarantee the tagged codec gives.
    """
    if len(values) < _DICT_MIN_ROWS:
        return None
    codebook: List[object] = []
    lookup: dict = {}
    ids: List[int] = []
    try:
        for value in values:
            key = (value.__class__, value)
            index = lookup.get(key)
            if index is None:
                index = len(codebook)
                lookup[key] = index
                codebook.append(value)
            ids.append(index)
    except TypeError:  # an unhashable value: fall back to tagged
        return None
    if len(codebook) * 2 > len(values):
        return None
    return codebook, ids


def _narrowest_length_width(strings: Sequence[str]) -> int:
    """The fewest bytes per packed length that fit every string's length."""
    longest = max(map(len, strings), default=0)
    return next((width for width in (1, 2, 4) if longest < 1 << (8 * width)), 8)


def _encode_strings(out: bytearray, strings: Sequence[str], width: int = 8) -> None:
    """Strings as one UTF-8 blob plus a packed character-length column.

    Lengths are ``width``-byte little-endian integers.  The decoder pays a
    single bulk ``bytes.decode`` and cheap slicing instead of a tagged
    decode per value (see :func:`_decode_strings`).
    """
    lengths = [len(value) for value in strings]
    out.extend(struct.pack(f"<{len(lengths)}{_LENGTH_CODES[width]}", *lengths))
    blob = "".join(strings).encode("utf-8")
    write_uvarint(out, len(blob))
    out.extend(blob)


def _encode_column(out: bytearray, values: Sequence[object]) -> None:
    """One column: a kind byte, then int64 / dictionary / tagged payload."""
    if is_int64_column(values):
        out.append(_COLUMN_INT64)
        out.extend(pack_int64_column(values))  # type: ignore[arg-type]
        return
    encoded = _dictionary(values)
    if encoded is not None:
        codebook, ids = encoded
        out.append(_COLUMN_DICT)
        write_uvarint(out, len(codebook))
        if all(type(value) is str for value in codebook):
            out.append(_CODEBOOK_STR)
            _encode_strings(out, codebook)  # type: ignore[arg-type]
        else:
            out.append(_CODEBOOK_TAGGED)
            for value in codebook:
                write_value(out, value)
        out.extend(pack_int64_column(ids))
        return
    if all(type(value) is str for value in values):
        width = _narrowest_length_width(values)  # type: ignore[arg-type]
        out.append(_COLUMN_STR)
        out.append(width)
        _encode_strings(out, values, width)  # type: ignore[arg-type]
        return
    out.append(_COLUMN_TAGGED)
    for value in values:
        write_value(out, value)


def _encode_rows(out: bytearray, rows: Sequence[Row], width: int) -> None:
    """Same-width rows as ``width`` columns (see :func:`_encode_column`)."""
    write_uvarint(out, len(rows))
    write_uvarint(out, width)
    for position in range(width):
        _encode_column(out, [row[position] for row in rows])


def _encode_relation(relation: RelationSnapshot) -> bytes:
    out = bytearray()
    write_str(out, relation.name)
    write_uvarint(out, len(relation.attributes))
    for attribute in relation.attributes:
        write_str(out, attribute)
    write_uvarint(out, relation.version)
    _encode_rows(out, relation.interned_rows, len(relation.attributes))
    write_uvarint(out, len(relation.dead_tids))
    for tid in relation.dead_tids:
        write_uvarint(out, tid)
    return bytes(out)


def _encode_result(result: ResultSnapshot) -> bytes:
    out = bytearray()
    write_str(out, result.query_name)
    write_uvarint(out, len(result.head))
    for attribute in result.head:
        write_str(out, attribute)
    write_uvarint(out, len(result.atoms))
    for name, attributes in result.atoms:
        write_str(out, name)
        write_uvarint(out, len(attributes))
        for attribute in attributes:
            write_str(out, attribute)
    write_uvarint(out, len(result.atom_names))
    for name in result.atom_names:
        write_str(out, name)
    write_uvarint(out, len(result.vacuum_refs))
    for name in result.vacuum_refs:
        write_str(out, name)
    witness_count = len(result.witness_output_buffer) // 8
    write_uvarint(out, witness_count)
    for buffer in result.ref_column_buffers:
        out.extend(buffer)
    out.extend(result.witness_output_buffer)
    width = len(result.output_rows[0]) if result.output_rows else len(result.head)
    _encode_rows(out, result.output_rows, width)
    return bytes(out)


def _assemble(
    registry_version: int,
    lsn: int,
    relations: Sequence[RelationSnapshot],
    results: Sequence[ResultSnapshot],
) -> bytes:
    header = bytearray()
    write_uvarint(header, FORMAT_VERSION)
    write_uvarint(header, registry_version)
    write_uvarint(header, lsn)
    write_uvarint(header, len(relations) + len(results))
    blob = bytearray(MAGIC)
    blob.extend(_HEADER_FRAME.pack(len(header), checksum(header)))
    blob.extend(header)
    for relation in relations:
        payload = _encode_relation(relation)
        blob.extend(_SECTION_FRAME.pack(_SECTION_RELATION, len(payload), checksum(payload)))
        blob.extend(payload)
    for result in results:
        payload = _encode_result(result)
        blob.extend(_SECTION_FRAME.pack(_SECTION_RESULT, len(payload), checksum(payload)))
        blob.extend(payload)
    return bytes(blob)


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_snapshot(
    path: Union[str, Path],
    *,
    registry_version: int,
    lsn: int,
    relations: Sequence[RelationSnapshot],
    results: Sequence[ResultSnapshot] = (),
) -> None:
    """Atomically (re)write the snapshot at ``path``.

    Crash-point choreography: ``snapshot.mid_write`` leaves a torn temp
    file, ``snapshot.pre_fsync`` a complete-but-unsynced temp file -- both
    invisible to recovery, which only ever opens the renamed file --
    and ``snapshot.post_rename`` the new snapshot without the directory
    fsync or any follow-up (log reset) having happened.
    """
    path = Path(path)
    blob = _assemble(registry_version, lsn, relations, results)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        half = len(blob) // 2
        handle.write(blob[:half])
        handle.flush()
        crash_point("snapshot.mid_write")
        handle.write(blob[half:])
        handle.flush()
        crash_point("snapshot.pre_fsync")
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    crash_point("snapshot.post_rename")
    _fsync_dir(path.parent)


# --------------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------------- #
def _decode_int64_column(buffer: Buffer) -> List[int]:
    """Packed ``<i8`` bytes as Python ints (NumPy-accelerated when present)."""
    backend = resolve_backend("auto")
    return as_id_list(backend.id_column_from_buffer(buffer))


def _decode_strings(
    payload: Buffer, offset: int, count: int, width: int = 8
) -> Tuple[List[str], int]:
    """The inverse of :func:`_encode_strings`: ``count`` strings."""
    code = _LENGTH_CODES.get(width)
    if code is None:
        raise CodecError(f"unknown string length width {width}")
    end = offset + count * width
    if end > len(payload):
        raise CodecError("truncated string length column")
    lengths = struct.unpack(f"<{count}{code}", payload[offset:end])
    blob_length, offset = read_uvarint(payload, end)
    end = offset + blob_length
    if end > len(payload):
        raise CodecError("truncated string blob")
    text = bytes(payload[offset:end]).decode("utf-8")
    if lengths and min(lengths) < 0:
        raise CodecError("negative string length")
    stops = list(accumulate(lengths))
    if (stops[-1] if stops else 0) != len(text):
        raise CodecError("string blob length mismatch")
    starts = [0]
    starts.extend(stops[:-1])
    return list(map(text.__getitem__, map(slice, starts, stops))), end


def _decode_column(
    payload: Buffer, offset: int, row_count: int
) -> Tuple[List[object], int]:
    if offset >= len(payload):
        raise CodecError("truncated column")
    kind = payload[offset]
    offset += 1
    if kind == _COLUMN_INT64:
        end = offset + row_count * 8
        if end > len(payload):
            raise CodecError("truncated int64 column")
        return _decode_int64_column(payload[offset:end]), end
    if kind == _COLUMN_DICT:
        distinct, offset = read_uvarint(payload, offset)
        if offset >= len(payload):
            raise CodecError("truncated dictionary codebook")
        codebook_kind = payload[offset]
        offset += 1
        codebook: List[object]
        if codebook_kind == _CODEBOOK_STR:
            codebook, offset = _decode_strings(payload, offset, distinct)  # type: ignore[assignment]
        elif codebook_kind == _CODEBOOK_TAGGED:
            codebook = []
            for _ in range(distinct):
                value, offset = read_value(payload, offset)
                codebook.append(value)
        else:
            raise CodecError(f"unknown codebook kind {codebook_kind}")
        end = offset + row_count * 8
        if end > len(payload):
            raise CodecError("truncated dictionary column")
        ids = _decode_int64_column(payload[offset:end])
        if ids and (min(ids) < 0 or max(ids) >= len(codebook)):
            raise CodecError("dictionary column index out of range")
        return list(map(codebook.__getitem__, ids)), end
    if kind == _COLUMN_STR:
        if offset >= len(payload):
            raise CodecError("truncated string column")
        return _decode_strings(  # type: ignore[return-value]
            payload, offset + 1, row_count, payload[offset]
        )
    if kind == _COLUMN_TAGGED:
        column: List[object] = []
        for _ in range(row_count):
            value, offset = read_value(payload, offset)
            column.append(value)
        return column, offset
    raise CodecError(f"unknown column kind {kind}")


def _decode_rows(payload: Buffer, offset: int) -> Tuple[List[Row], int]:
    """The inverse of :func:`_encode_rows`."""
    row_count, offset = read_uvarint(payload, offset)
    width, offset = read_uvarint(payload, offset)
    columns: List[List[object]] = []
    for _ in range(width):
        column, offset = _decode_column(payload, offset, row_count)
        columns.append(column)
    if width:
        rows: List[Row] = list(zip(*columns)) if row_count else []
    else:
        rows = [()] * row_count
    return rows, offset


def _decode_relation(payload: Buffer) -> RelationSnapshot:
    offset = 0
    name, offset = read_str(payload, offset)
    attr_count, offset = read_uvarint(payload, offset)
    attributes = []
    for _ in range(attr_count):
        attribute, offset = read_str(payload, offset)
        attributes.append(attribute)
    version, offset = read_uvarint(payload, offset)
    rows, offset = _decode_rows(payload, offset)
    dead_count, offset = read_uvarint(payload, offset)
    dead: List[int] = []
    for _ in range(dead_count):
        tid, offset = read_uvarint(payload, offset)
        dead.append(tid)
    return RelationSnapshot(name, tuple(attributes), version, rows, tuple(dead))


def _decode_result(payload: Buffer) -> ResultSnapshot:
    offset = 0
    query_name, offset = read_str(payload, offset)
    head_count, offset = read_uvarint(payload, offset)
    head = []
    for _ in range(head_count):
        attribute, offset = read_str(payload, offset)
        head.append(attribute)
    atom_count, offset = read_uvarint(payload, offset)
    atoms: List[Tuple[str, Tuple[str, ...]]] = []
    for _ in range(atom_count):
        atom_name, offset = read_str(payload, offset)
        attr_count, offset = read_uvarint(payload, offset)
        attributes = []
        for _ in range(attr_count):
            attribute, offset = read_str(payload, offset)
            attributes.append(attribute)
        atoms.append((atom_name, tuple(attributes)))
    name_count, offset = read_uvarint(payload, offset)
    atom_names = []
    for _ in range(name_count):
        name, offset = read_str(payload, offset)
        atom_names.append(name)
    vacuum_count, offset = read_uvarint(payload, offset)
    vacuum_refs = []
    for _ in range(vacuum_count):
        name, offset = read_str(payload, offset)
        vacuum_refs.append(name)
    witness_count, offset = read_uvarint(payload, offset)
    width = witness_count * 8
    ref_buffers: List[Buffer] = []
    for _ in range(name_count):
        ref_buffers.append(payload[offset : offset + width])
        offset += width
    witness_buffer = payload[offset : offset + width]
    offset += width
    output_rows, offset = _decode_rows(payload, offset)
    return ResultSnapshot(
        query_name,
        tuple(head),
        tuple(atoms),
        tuple(atom_names),
        tuple(vacuum_refs),
        ref_buffers,
        witness_buffer,
        output_rows,
    )


def read_snapshot(path: Union[str, Path]) -> SnapshotPayload:
    """Load and fully validate the snapshot at ``path``.

    The file is memory-mapped when possible; integer column buffers in the
    returned payload are zero-copy views into the mapping (which stays
    alive for as long as any view references it -- ``SnapshotPayload.buffer``
    pins it explicitly as well).
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            try:
                mapped: Buffer = memoryview(
                    mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                )
            except (ValueError, OSError):  # empty file or unmappable fs
                mapped = handle.read()
    except FileNotFoundError:
        raise SnapshotCorruptError(f"{path}: no snapshot file") from None
    buf = memoryview(mapped) if isinstance(mapped, bytes) else mapped
    try:
        if len(buf) < len(MAGIC) + _HEADER_FRAME.size:
            raise SnapshotCorruptError(f"{path}: truncated snapshot header")
        if bytes(buf[: len(MAGIC)]) != MAGIC:
            raise SnapshotCorruptError(f"{path}: bad snapshot magic")
        offset = len(MAGIC)
        header_len, header_crc = _HEADER_FRAME.unpack_from(buf, offset)
        offset += _HEADER_FRAME.size
        header = buf[offset : offset + header_len]
        if len(header) != header_len or checksum(header) != header_crc:
            raise SnapshotCorruptError(f"{path}: snapshot header checksum mismatch")
        offset += header_len
        cursor = 0
        format_version, cursor = read_uvarint(header, cursor)
        if format_version != FORMAT_VERSION:
            raise SnapshotCorruptError(
                f"{path}: unsupported snapshot format version {format_version}"
            )
        registry_version, cursor = read_uvarint(header, cursor)
        lsn, cursor = read_uvarint(header, cursor)
        section_count, cursor = read_uvarint(header, cursor)
        relations: List[RelationSnapshot] = []
        results: List[ResultSnapshot] = []
        for index in range(section_count):
            if offset + _SECTION_FRAME.size > len(buf):
                raise SnapshotCorruptError(f"{path}: truncated section {index}")
            kind, length, crc = _SECTION_FRAME.unpack_from(buf, offset)
            offset += _SECTION_FRAME.size
            payload = buf[offset : offset + length]
            if len(payload) != length or checksum(payload) != crc:
                raise SnapshotCorruptError(
                    f"{path}: section {index} checksum mismatch"
                )
            offset += length
            try:
                if kind == _SECTION_RELATION:
                    relations.append(_decode_relation(payload))
                elif kind == _SECTION_RESULT:
                    results.append(_decode_result(payload))
                else:
                    raise SnapshotCorruptError(
                        f"{path}: unknown section kind {kind}"
                    )
            except CodecError as exc:
                raise SnapshotCorruptError(f"{path}: section {index}: {exc}") from exc
    except SnapshotCorruptError:
        raise
    except (struct.error, CodecError) as exc:
        raise SnapshotCorruptError(f"{path}: {exc}") from exc
    return SnapshotPayload(
        format_version=format_version,
        registry_version=registry_version,
        lsn=lsn,
        relations=relations,
        results=results,
        buffer=buf,
    )


__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "RelationSnapshot",
    "ResultSnapshot",
    "SnapshotCorruptError",
    "SnapshotPayload",
    "read_snapshot",
    "write_snapshot",
]
