"""Bit-exact persistence: NPY matrices, factorization bundles, CSV reports.

Matrices travel as NPY format version 1.0 and nothing else: 6-byte magic,
version bytes 01 00, little-endian header length, then a Python-literal
header dict with descr "<f4" or "<f8", fortran_order False and a 2-element
shape. Anything outside that subset (pickled dtypes, newer versions,
column-major data) is rejected with a FormatError naming the offending
field, so files exported from any deep-learning stack either load exactly
or fail loudly.

A factorization bundle is a directory holding meta.json, assignment.npy and
per-cluster u_i.npy / v_i.npy files; save writes to a temporary sibling and
renames, so failures never leave a partial bundle behind. Save replaces only
an empty directory or a previous bundle, never other data. Array bodies are
written from and read into the arrays' own buffers, without a copy.
"""

from __future__ import annotations

import ast
import json
import math
import os
import shutil
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .cluster import _check_assignment
from .errors import FormatError, InputError, MessiError
from .factorization import MessiFactorization, _block_views
from .linalg import _all_finite

_MAGIC = b"\x93NUMPY"
_VERSION = b"\x01\x00"

REPORT_HEADER = (
    "k,dims,params,compression_rate,frobenius_error,relative_error,iterations,converged,seed"
)

_META_KEYS = ("format_version", "n", "d", "k", "dims", "q", "seed", "cost", "iterations")
_BUNDLE_FORMAT_VERSION = 1


# ---------------------------------------------------------------- NPY files

def _build_header(descr: str, shape: tuple[int, ...]) -> bytes:
    shape_repr = "(" + ", ".join(str(int(s)) for s in shape) + ("," if len(shape) == 1 else "") + ")"
    body = f"{{'descr': '{descr}', 'fortran_order': False, 'shape': {shape_repr}, }}"
    # Pad with spaces so magic + version + length field + header is a
    # multiple of 64 bytes, terminated by a newline (the 1.0 convention).
    unpadded = len(_MAGIC) + len(_VERSION) + 2 + len(body) + 1
    pad = (64 - unpadded % 64) % 64
    header = body + " " * pad + "\n"
    return _MAGIC + _VERSION + struct.pack("<H", len(header)) + header.encode("latin1")


def _write_npy(path, arr: np.ndarray, descr: str) -> None:
    data = np.ascontiguousarray(arr).astype(descr, copy=False)
    _atomic_write_bytes(path, _build_header(descr, data.shape), data)


def _read_npy(path, allowed_descrs: tuple[str, ...], expected_ndim: int, out=None) -> np.ndarray:
    """Validate an NPY 1.0 file and read its body into a new array, or into out: a
    C-contiguous array of the shape the caller's metadata implies."""
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise FormatError(f"cannot open {path}: {e}") from e
    with fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected NPY")
        version = fh.read(2)
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported NPY version {tuple(version)}, only 1.0 is accepted")
        raw_len = fh.read(2)
        if len(raw_len) != 2:
            raise FormatError(f"{path}: truncated header length field")
        (header_len,) = struct.unpack("<H", raw_len)
        header = fh.read(header_len)
        if len(header) != header_len:
            raise FormatError(f"{path}: truncated header")
        try:
            meta = ast.literal_eval(header.decode("latin1"))
        except (ValueError, SyntaxError) as e:
            raise FormatError(f"{path}: unparseable header: {e}") from e
        if not isinstance(meta, dict) or set(meta) != {"descr", "fortran_order", "shape"}:
            raise FormatError(f"{path}: header must define exactly descr/fortran_order/shape")
        descr = meta["descr"]
        if descr not in allowed_descrs:
            raise FormatError(f"{path}: unsupported descr {descr!r}, expected one of {allowed_descrs}")
        if meta["fortran_order"] is not False:
            raise FormatError(f"{path}: fortran_order must be False")
        shape = meta["shape"]
        if (
            not isinstance(shape, tuple)
            or len(shape) != expected_ndim
            or not all(isinstance(s, int) and s >= 0 for s in shape)
        ):
            raise FormatError(f"{path}: shape {shape!r} is not a valid {expected_ndim}-d shape")
        if out is not None and shape != out.shape:
            raise FormatError(f"{path}: has shape {shape}, meta implies {out.shape}")
        nbytes = math.prod(shape) * int(descr[2:])
        # The body's size is checked against the file's before any allocation.
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        if available < nbytes:
            raise FormatError(f"{path}: data truncated ({available} of {nbytes} bytes)")
        if available > nbytes:
            raise FormatError(f"{path}: trailing bytes after array data")
        out = np.empty(shape, dtype=descr) if out is None else out
        if fh.readinto(out.reshape(-1).view(np.uint8)) != nbytes:
            raise FormatError(f"{path}: data truncated while reading")
    return out


def load_matrix(path) -> np.ndarray:
    """Load a 2-d float NPY 1.0 file as float64 ("<f4" is widened exactly)."""
    arr = _read_npy(path, allowed_descrs=("<f4", "<f8"), expected_ndim=2)
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise FormatError(f"{path}: matrix shape {arr.shape} has an empty axis")
    m = arr.astype(np.float64, copy=False)
    if not _all_finite(m):
        raise InputError(f"{path}: matrix contains non-finite entries")
    return m


def save_matrix(m, path) -> None:
    """Write a matrix as a 2-d "<f8" NPY 1.0 file (round-trips bit-exactly)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise FormatError(f"can only save 2-d matrices, got ndim={m.ndim}")
    _write_npy(path, m, "<f8")


def save_index_vector(v, path) -> None:
    """Write a 1-d integer array (assignments, labels) as "<i8" NPY 1.0."""
    v = np.asarray(v, dtype=np.int64)
    if v.ndim != 1:
        raise FormatError(f"can only save 1-d index vectors, got ndim={v.ndim}")
    _write_npy(path, v, "<i8")


def load_index_vector(path) -> np.ndarray:
    """Load a 1-d "<i8" NPY 1.0 file."""
    return _read_npy(path, allowed_descrs=("<i8",), expected_ndim=1).astype(np.int64, copy=False)


def _atomic_write_bytes(path, *parts) -> None:
    """Write the parts (bytes-like objects) to a temporary sibling, then rename it to path."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------- bundles

def save_bundle(
    f: MessiFactorization,
    directory,
    *,
    seed: int = 0,
    cost: float = 0.0,
    iterations: int = 0,
    converged: bool = True,
) -> None:
    """Serialize a factorization (plus clustering provenance) to a directory.

    The whole bundle is staged in a temporary sibling directory and renamed
    into place. An existing path must be an empty directory or a previous
    bundle (a directory holding meta.json), else FormatError is raised and
    the path is left as it was. A previous bundle is moved aside, the new
    one renamed in, and only then is the old one deleted. A non-finite cost
    raises FormatError, since load_bundle_meta would reject it.
    """
    if not math.isfinite(cost):
        raise FormatError(f"cost must be a finite number, got {cost!r}")
    directory = os.fspath(directory)
    parent = os.path.dirname(os.path.abspath(directory)) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=parent, prefix=".bundle-")
    try:
        meta = {
            "format_version": _BUNDLE_FORMAT_VERSION,
            "n": f.n,
            "d": f.d,
            "k": f.k,
            "dims": list(f.dims),
            "q": 2.0,
            "seed": int(seed),
            "cost": float(cost),
            "iterations": int(iterations),
            "converged": bool(converged),
        }
        with open(os.path.join(tmp, "meta.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        save_index_vector(f.assignment, os.path.join(tmp, "assignment.npy"))
        for c, b in enumerate(f.blocks):
            _write_npy(os.path.join(tmp, f"u_{c}.npy"), b.u, "<f8")
            _write_npy(os.path.join(tmp, f"v_{c}.npy"), b.v, "<f8")
        if check_bundle_target(directory):
            old = tempfile.mkdtemp(dir=parent, prefix=".bundle-old-")
            os.replace(directory, old)
            try:
                os.replace(tmp, directory)
            except BaseException:
                os.replace(old, directory)
                raise
            shutil.rmtree(old)
        else:
            os.replace(tmp, directory)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def check_bundle_target(directory) -> bool:
    """Whether save_bundle may write a bundle at directory, and what it replaces.

    True for a previous bundle (a directory holding meta.json), False for an
    absent path or an empty directory. Anything else is not save_bundle's to
    replace and raises FormatError, so a caller can check before any work.
    """
    if not os.path.lexists(directory):
        return False
    if not os.path.isdir(directory):
        raise FormatError(f"{directory} exists and is not a directory; refusing to replace it")
    if not os.listdir(directory):
        return False
    if not os.path.isfile(os.path.join(directory, "meta.json")):
        raise FormatError(
            f"{directory} is a non-empty directory without meta.json, not a bundle; "
            "refusing to replace it"
        )
    return True


def load_bundle_meta(directory) -> dict:
    """Read and structurally validate a bundle's meta.json."""
    path = os.path.join(os.fspath(directory), "meta.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except OSError as e:
        raise FormatError(f"cannot read bundle meta {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: meta must be a JSON object")
    for key in _META_KEYS:
        if key not in meta:
            raise FormatError(f"{path}: meta is missing key {key!r}")
    if meta["format_version"] != _BUNDLE_FORMAT_VERSION:
        raise FormatError(
            f"{path}: unsupported format_version {meta['format_version']!r}"
        )
    _check_meta_values(meta, path)
    return meta


def _is_int(value, low: int) -> bool:
    # JSON true/false load as bool, which is an int subclass in Python.
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _check_meta_values(meta: dict, path: str) -> None:
    """Reject meta fields of the wrong type or range, naming the field."""
    for key, low in (("n", 1), ("d", 1), ("k", 1), ("seed", 0), ("iterations", 0)):
        if not _is_int(meta[key], low):
            raise FormatError(f"{path}: {key} must be an integer >= {low}, got {meta[key]!r}")
    dims = meta["dims"]
    if not isinstance(dims, list) or len(dims) != meta["k"] or not all(_is_int(j, 0) for j in dims):
        raise FormatError(f"{path}: dims must be a list of {meta['k']} nonnegative integers")
    cost = meta["cost"]
    if isinstance(cost, bool) or not isinstance(cost, (int, float)) or not math.isfinite(cost):
        raise FormatError(f"{path}: cost must be a finite number, got {cost!r}")
    if meta["q"] != 2.0:
        raise FormatError(f"{path}: q must be 2.0 (squared distances), got {meta['q']!r}")
    if not isinstance(meta.get("converged", True), bool):
        raise FormatError(f"{path}: converged must be true or false, got {meta['converged']!r}")


def load_bundle(directory) -> MessiFactorization:
    """Load a bundle directory back into a factorization, verifying invariants.

    Each u_c.npy / v_c.npy body is read straight into its slice of values /
    v_stacked. Any disagreement between meta and the array shapes on disk,
    and any violated structural invariant (assignment range, orthonormal v
    blocks), raises FormatError naming the failing piece.
    """
    directory = os.fspath(directory)
    meta = load_bundle_meta(directory)
    n, d, k, dims = meta["n"], meta["d"], meta["k"], meta["dims"]
    path = os.path.join(directory, "assignment.npy")
    assignment = load_index_vector(path)
    try:
        assignment = _check_assignment(assignment, n, k)
    except MessiError as e:
        raise FormatError(f"{path}: {e}") from e
    sizes = np.bincount(assignment, minlength=k)
    try:  # before any array header is read, a corrupted meta can imply absurd sizes
        values, v_stacked = np.empty(np.dot(sizes, dims)), np.empty((sum(dims), d))
    except (MemoryError, OverflowError, ValueError) as e:
        raise FormatError(f"{directory}: meta implies arrays too large to allocate: {e}") from e
    for c, (u, v) in enumerate(_block_views(values, v_stacked, sizes, dims)):
        _read_npy(os.path.join(directory, f"u_{c}.npy"), ("<f8",), 2, out=u)
        _read_npy(os.path.join(directory, f"v_{c}.npy"), ("<f8",), 2, out=v)
    try:
        return MessiFactorization(n=n, d=d, k=k, dims=tuple(dims), assignment=assignment,
                                  values=values, v_stacked=v_stacked)
    except MessiError as e:
        raise FormatError(f"{directory}: invariant violated: {e}") from e


# ---------------------------------------------------------------- reports

@dataclass(frozen=True)
class ReportRow:
    """One line of the sweep/evaluation CSV; None fields render empty.

    A row with dims=None records a budget that was skipped as infeasible.
    """

    k: int
    dims: tuple[int, ...] | None
    params: int | None
    compression_rate: float | None
    frobenius_error: float | None
    relative_error: float | None
    iterations: int
    converged: bool
    seed: int


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ";".join(str(int(j)) for j in value)
    return str(value)


def render_report(rows) -> str:
    """The CSV text for a sequence of ReportRow (17 significant digits)."""
    lines = [REPORT_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    r.k,
                    r.dims,
                    r.params,
                    r.compression_rate,
                    r.frobenius_error,
                    r.relative_error,
                    r.iterations,
                    r.converged,
                    r.seed,
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_report(rows, path) -> None:
    """Write the report CSV; floats round-trip exactly at 17 significant digits."""
    _atomic_write_text(path, render_report(rows))


def parse_report(text: str) -> list[ReportRow]:
    """Parse CSV text produced by render_report back into rows."""
    lines = text.strip("\n").split("\n")
    if not lines or lines[0] != REPORT_HEADER:
        raise FormatError("report header does not match the expected schema")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 9:
            raise FormatError(f"report row has {len(parts)} fields, expected 9")
        k, dims, params, rate, fe, re_, iters, conv, seed = parts
        rows.append(
            ReportRow(
                k=int(k),
                dims=tuple(int(x) for x in dims.split(";")) if dims else None,
                params=int(params) if params else None,
                compression_rate=float(rate) if rate else None,
                frobenius_error=float(fe) if fe else None,
                relative_error=float(re_) if re_ else None,
                iterations=int(iters),
                converged=conv == "true",
                seed=int(seed),
            )
        )
    return rows
