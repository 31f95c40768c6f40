"""Deterministic binary container for arrays + JSON metadata.

Layout: magic line, 8-byte little-endian header length, UTF-8 JSON header,
then each array's raw C-order bytes in header order. Unlike zip-based
formats there are no timestamps, so identical content is byte-identical,
which the dataset-build and synth determinism contracts rely on.
"""

from __future__ import annotations

import json
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
    """Read a bundle; raises FormatError on corruption or version mismatch."""
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
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(
            f"{path}: format version {version} unsupported (expected {FORMAT_VERSION}); "
            "no migration path exists"
        )
    arrays = {}
    for entry in header["arrays"]:
        nbytes = entry["nbytes"]
        if len(raw) < off + nbytes:
            raise FormatError(f"{path} truncated in array {entry['name']!r}")
        arr = np.frombuffer(raw[off : off + nbytes], dtype=np.dtype(entry["dtype"]))
        arrays[entry["name"]] = arr.reshape(entry["shape"]).copy()
        off += nbytes
    if off != len(raw):
        raise FormatError(f"{path} has {len(raw) - off} trailing bytes")
    return arrays, header["meta"]
