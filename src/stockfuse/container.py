"""Deterministic binary container for arrays + JSON metadata.

Layout: magic line, 8-byte little-endian header length, UTF-8 JSON header,
then each array's raw C-order bytes in header order. Unlike zip-based
formats there are no timestamps, so identical content is byte-identical,
which the dataset-build and synth determinism contracts rely on.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"SFBUNDLE1\n"
FORMAT_VERSION = 1


def save_bundle(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write arrays and a JSON-serializable meta dict to `path`.

    The bundle is written and synced to a temporary file next to `path`,
    then renamed over it, so a crash or a failed write leaves the earlier
    file intact and no partial bundle under `path`.
    """
    entries = []
    blobs = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        entries.append(
            {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape), "nbytes": arr.nbytes}
        )
        blobs.append(arr.tobytes())
    header = json.dumps(
        {"format_version": FORMAT_VERSION, "meta": meta or {}, "arrays": entries},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for blob in blobs:
                fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_bundle(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a bundle; raises FormatError on corruption or version mismatch.

    The header must be a JSON object with an `arrays` list and a `meta` dict.
    Each array entry needs a string name, a numeric (bool, int, uint or
    float) dtype, a shape of non-negative ints, and `nbytes` equal to the
    shape's element count times the dtype's item size.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read bundle {path}: {exc}") from exc
    if not raw.startswith(MAGIC):
        raise FormatError(f"{path} is not a bundle (bad magic)")
    off = len(MAGIC)
    if len(raw) < off + 8:
        raise FormatError(f"{path} truncated in header length")
    (hlen,) = struct.unpack("<Q", raw[off : off + 8])
    off += 8
    if len(raw) < off + hlen:
        raise FormatError(f"{path} truncated in header")
    try:
        header = json.loads(raw[off : off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path} has a corrupt header: {exc}") from exc
    off += hlen
    if not isinstance(header, dict):
        raise FormatError(f"{path} has a header that is not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(
            f"{path}: format version {version} unsupported (expected {FORMAT_VERSION}); "
            "no migration path exists"
        )
    if not isinstance(header.get("arrays"), list) or not isinstance(header.get("meta"), dict):
        raise FormatError(f"{path} has a header without an 'arrays' list and a 'meta' dict")
    arrays = {}
    for i, entry in enumerate(header["arrays"]):
        name, dtype, shape, nbytes = _checked_entry(path, i, entry)
        if len(raw) < off + nbytes:
            raise FormatError(f"{path} truncated in array {name!r}")
        arrays[name] = np.frombuffer(raw[off : off + nbytes], dtype=dtype).reshape(shape).copy()
        off += nbytes
    if off != len(raw):
        raise FormatError(f"{path} has {len(raw) - off} trailing bytes")
    return arrays, header["meta"]


def _checked_entry(path, i: int, entry) -> tuple[str, np.dtype, list[int], int]:
    """(name, dtype, shape, nbytes) of one header array entry, or FormatError."""
    name = entry.get("name") if isinstance(entry, dict) else None
    if not isinstance(name, str):
        raise FormatError(f"{path}: array entry {i} has no string name")
    spec = entry.get("dtype")
    try:
        dtype = np.dtype(spec) if isinstance(spec, str) else None
    except (TypeError, ValueError, SyntaxError):  # numpy's parser raises all three
        dtype = None
    if dtype is None or dtype.kind not in "biuf":
        raise FormatError(f"{path}: array {name!r} has dtype {spec!r}, not a numeric one")
    shape, nbytes = entry.get("shape"), entry.get("nbytes")
    if not (isinstance(shape, list) and all(type(k) is int and k >= 0 for k in shape)):
        raise FormatError(f"{path}: array {name!r} has shape {shape!r}")
    if type(nbytes) is not int or nbytes != math.prod(shape) * dtype.itemsize:
        raise FormatError(f"{path}: array {name!r} of {shape} {dtype} cannot be {nbytes!r} bytes")
    return name, dtype, shape, nbytes
