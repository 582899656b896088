"""Shard files: uncompressed ``.npz`` archives, written once, mapped once.

One shard holds one array per column — ``float64`` data for numeric columns,
``int32`` *store codes* for categorical columns (codes into the dataset's
append-only store vocabulary, so a shard never needs rewriting when later
appends extend the vocabulary).

``np.load(..., mmap_mode="r")`` silently ignores ``mmap_mode`` for ``.npz``
archives (it only memory-maps bare ``.npy`` files), so :func:`open_shard`
implements the mapping itself.  The archive is written *uncompressed*
(``np.savez``), so every member's raw bytes sit contiguously in the file:
the whole file is mapped with **one** ``mmap(2)``, :mod:`zipfile` reads the
central directory from the mapping, and each column is an ``np.frombuffer``
view at its member's data offset — zero copies, no column page touched
until rows are read.
Each distinct npy header is parsed once per process (a bounded memo).

Nothing is exposed until the whole archive checks out: a file that is not a
zip (or is truncated), a compressed member, a bad local header, a bad npy
magic or version, an object dtype, or a shape that overruns its member is a
:class:`StorageError` naming the shard and the reason.
"""

from __future__ import annotations

import functools
import io
import math
import mmap
import os
import struct
import zipfile
from pathlib import Path

import numpy as np

from repro.analysis.lockwatch import named_lock
from repro.storage.format import StorageError

# CPython 3.11's ``ast`` module keeps its object-construction recursion
# counter in *module* state, so concurrent ``compile()`` calls (numpy parses
# every npy header through ``ast.literal_eval``) can corrupt it and raise
# ``SystemError: AST constructor recursion depth mismatch``.  Concurrent
# requests open shards from their own threads, so header parses are
# serialized — but only on a memo miss, i.e. once per distinct header.
_OPEN_LOCK = named_lock("shard._npy_header_lock")

_LOCAL = struct.Struct("<4s5H3L2H")       # local file header, 30 bytes


def write_shard(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """Write column arrays as an uncompressed ``.npz`` (not yet committed).

    The bytes are on disk when this returns.  The caller is responsible for
    atomic placement (write to a temp name and ``os.replace``) and for
    recording the shard in the manifest.
    """
    if not arrays:
        raise StorageError("a shard needs at least one column array")
    for name, array in arrays.items():
        if array.dtype == object:
            raise StorageError(f"column {name!r}: object arrays cannot be "
                               "stored (vocabularies live in the manifest)")
    with Path(path).open("wb") as handle:
        np.savez(handle, **arrays)
        handle.flush()
        os.fsync(handle.fileno())


def open_shard(source) -> dict[str, np.ndarray]:
    """Open a shard, returning ``{column name: read-only array}``.

    ``source`` is a path or an already-open binary file object.  With an
    open file object the file is mapped *through that descriptor*, so the
    arrays stay readable even after the path is unlinked — POSIX keeps the
    inode alive while a descriptor or mapping references it.  That is
    exactly the window a concurrent compaction opens for readers holding a
    pre-compaction manifest, which is why :meth:`StoredDataset.load_table`
    opens every shard's descriptor eagerly and hands it to the lazy handle.
    """
    if not hasattr(source, "read"):
        with Path(source).open("rb") as handle:
            # The mapping outlives the descriptor: mmap(2) holds its own
            # reference to the inode, so closing the handle here is safe.
            return open_shard(handle)
    label = Path(str(getattr(source, "name", "<shard>"))).name
    try:
        view = mmap.mmap(source.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:  # ValueError: an empty file
        raise StorageError(f"shard {label}: cannot map ({exc})") from exc
    try:
        return {name[:-4] if name.endswith(".npy") else name:
                _member_array(view, offset, size)
                for name, offset, size in _members(view)}
    except (ValueError, TypeError, struct.error) as exc:
        raise StorageError(f"shard {label}: {exc}") from exc


def _members(view) -> list[tuple[str, int, int]]:
    """``(name, data offset, size)`` of every member, from the mapping."""
    try:
        infos = zipfile.ZipFile(view).infolist()
    except (zipfile.BadZipFile, EOFError) as exc:
        raise ValueError(f"not a zip archive, or truncated ({exc})") from exc
    members = []
    for info in infos:
        name, header = info.filename, info.header_offset
        if info.compress_type != zipfile.ZIP_STORED:
            raise ValueError(f"member {name} is compressed")
        local = _LOCAL.unpack_from(view, header) \
            if header + _LOCAL.size <= len(view) else None
        if local is None or local[0] != b"PK\x03\x04":
            raise ValueError(f"member {name}: bad local header")
        offset = header + _LOCAL.size + local[9] + local[10]
        if offset + info.file_size > len(view):
            raise ValueError(f"member {name} is truncated")
        members.append((name, offset, info.file_size))
    return members


def _member_array(view, offset: int, size: int) -> np.ndarray:
    """The npy member at ``view[offset:offset + size]`` as a zero-copy array."""
    # Magic (6 bytes), version (2), then the header length: 2 bytes in
    # version 1.0, 4 bytes in 2.0.
    prefix = bytes(view[offset:offset + min(size, 12)])
    if prefix[:6] != b"\x93NUMPY":
        raise ValueError("bad npy magic")
    if prefix[6:8] not in (b"\x01\x00", b"\x02\x00"):
        raise ValueError(f"unsupported npy version {tuple(prefix[6:8])}")
    width = 2 if prefix[6] == 1 else 4
    length = 8 + width + int.from_bytes(prefix[8:8 + width], "little")
    if length > size:
        raise ValueError(f"npy header overruns its {size}-byte member")
    dtype, shape, order = _npy_header(bytes(view[offset:offset + length]))
    count = math.prod(shape)
    if length + count * dtype.itemsize > size:
        raise ValueError(f"npy shape {shape} overruns its {size}-byte member")
    flat = np.frombuffer(view, dtype=dtype, count=count,
                         offset=offset + length)
    return flat.reshape(shape, order=order)


@functools.lru_cache(maxsize=256)
def _npy_header(header: bytes) -> tuple[np.dtype, tuple, str]:
    """``(dtype, shape, order)`` of one npy header — a pure, memoised parse."""
    stream = io.BytesIO(header)
    with _OPEN_LOCK:
        if np.lib.format.read_magic(stream) == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(stream)
        else:
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(stream)
    if dtype.hasobject:
        raise ValueError(f"object dtype {dtype} cannot be mapped")
    if any(n < 0 for n in shape):
        raise ValueError(f"negative npy shape {shape}")
    return dtype, shape, "F" if fortran else "C"
