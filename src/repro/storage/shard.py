"""Shard files: uncompressed ``.npz`` archives, written once, memory-mapped.

One shard holds one array per column — ``float64`` data for numeric columns,
``int32`` *store codes* for categorical columns (codes into the dataset's
append-only store vocabulary, so a shard never needs rewriting when later
appends extend the vocabulary).

``np.load(..., mmap_mode="r")`` silently ignores ``mmap_mode`` for ``.npz``
archives (it only memory-maps bare ``.npy`` files), so :func:`open_shard`
implements the mapping itself: because the archive is written *uncompressed*
(``np.savez``), every member's raw bytes sit contiguously in the file, and
each array can be exposed as a ``np.memmap`` at the member's data offset —
zero copies, no page touched until rows are actually read.  Anything
unexpected (compressed members, pickled objects, exotic npy versions) falls
back to a plain eager ``np.load``.
"""

from __future__ import annotations

import os
import zipfile
from pathlib import Path

import numpy as np

from repro.analysis.lockwatch import named_lock
from repro.storage.format import StorageError

# CPython 3.11's ``ast`` module keeps its object-construction recursion
# counter in *module* state, so concurrent ``compile()`` calls (numpy parses
# every npy member header through ``ast.literal_eval``) can corrupt it and
# raise ``SystemError: AST constructor recursion depth mismatch``.  Shard
# opens run on the morsel pool, so serialize them; an open is header reads
# only — no data copy — and costs microseconds under the lock.
_OPEN_LOCK = named_lock("shard._npy_header_lock")


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


def open_shard(source, mmap: bool = True) -> dict[str, np.ndarray]:
    """Open a shard, returning ``{column name: array}``.

    ``source`` is a path or an already-open binary file object.  With an
    open file object the members are mapped *through that descriptor*, so
    the arrays stay readable even after the path is unlinked — POSIX keeps
    the inode alive while a descriptor or mapping references it.  That is
    exactly the window a concurrent compaction opens for readers holding a
    pre-compaction manifest, which is why :meth:`StoredDataset.load_table`
    opens every shard's descriptor eagerly and hands it to the lazy handle.

    With ``mmap=True`` (the default) arrays are read-only ``np.memmap`` views
    into the archive — opening a shard costs a few header reads, not a data
    copy.  Falls back to an eager load when the archive cannot be mapped.
    """
    if hasattr(source, "read"):
        with _OPEN_LOCK:
            if mmap:
                try:
                    source.seek(0)
                    return _mmap_npz(source)
                except (StorageError, OSError, ValueError):
                    pass  # fall back to the eager loader below
            source.seek(0)
            with np.load(source, allow_pickle=False) as archive:
                return {name: archive[name] for name in archive.files}
    with Path(source).open("rb") as handle:
        # The mappings outlive the descriptor: mmap(2) holds its own
        # reference to the inode, so closing the handle here is safe.
        return open_shard(handle, mmap=mmap)


def _mmap_npz(handle) -> dict[str, np.ndarray]:
    """Memory-map every member of an uncompressed ``.npz`` archive."""
    label = Path(str(getattr(handle, "name", "<shard>"))).name
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(handle) as archive:  # file object stays open
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise StorageError(f"{label}:{info.filename} is compressed")
            name = info.filename
            if name.endswith(".npy"):
                name = name[:-4]
            # Skip the local file header to the start of the member's bytes.
            handle.seek(info.header_offset)
            local = handle.read(30)
            if local[:4] != b"PK\x03\x04":
                raise StorageError(f"{label}: bad local header")
            name_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            handle.seek(info.header_offset + 30 + name_len + extra_len)
            version = np.lib.format.read_magic(handle)
            if version == (1, 0):
                shape, fortran, dtype = \
                    np.lib.format.read_array_header_1_0(handle)
            elif version == (2, 0):
                shape, fortran, dtype = \
                    np.lib.format.read_array_header_2_0(handle)
            else:
                raise StorageError(f"{label}: npy version {version}")
            if dtype.hasobject:
                raise StorageError(f"{label}:{info.filename} has objects")
            arrays[name] = np.memmap(handle, dtype=dtype, mode="r",
                                     offset=handle.tell(), shape=shape,
                                     order="F" if fortran else "C")
    return arrays
