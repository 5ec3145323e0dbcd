"""Bit-exact persistence: NPY matrices, factorization bundles, CSV reports.

Matrices travel as NPY format version 1.0 and nothing else. One reader,
_map_npy, loads every NPY file: numpy.lib.format parses the header, which
must be version 1.0 with a dtype whose str is "<f4" or "<f8" ("<i8" for
index vectors), fortran_order False and a shape of the expected ndim with
nonnegative dims, and the body must fill the rest of the file exactly. Only
then is the body mapped read-only, so its pages come from the page cache as
they are first touched; a "<f4" matrix is widened by one read-only copy.
numpy's parser also reads other spellings of the same dtype (such as "<d")
and Python 2 "L" suffixes, and caps a header at 10,000 bytes. Anything else
(pickled dtypes, big-endian data, newer versions, column-major data) is
rejected with a FormatError naming the file.

A factorization bundle is a directory holding meta.json (its keys and their
checks are _META_SCHEMA), assignment.npy and the factorization's two buffers
as two files: values.npy (every u block, cluster-major, 1-d) and
v_stacked.npy (sum(dims) x d). Save writes that layout, format 2, to a
temporary sibling, syncs and renames it, so neither a failure nor a crash
leaves a partial bundle or loses the previous one; it replaces only an empty
directory or a previous bundle. Load also checks the ids and the v blocks.

A mapping is only as stable as its file. Another program that rewrites a
loaded file in place (np.save onto the same path does) changes what is read,
and one that truncates it makes the next touch of a lost page raise SIGBUS.
save_matrix and save_bundle stage and rename, so old mappings live on.
"""

from __future__ import annotations

import json
import math
import mmap
import operator
import os
import shutil
import tempfile
from dataclasses import dataclass
from io import BytesIO
from tokenize import TokenError

import numpy as np
from numpy.lib import format as npy_format

from .cluster import _cluster_rows
from .errors import FormatError, InputError, MessiError, ParameterError
from .factorization import MessiFactorization, _grouped
from .linalg import _all_finite, _check_ids

# The one bundle layout that save_bundle writes and load_bundle reads.
_BUNDLE_FORMAT_VERSION = 2


# ---------------------------------------------------------------- NPY files

def _write_npy(path, arr: np.ndarray, descr: str) -> None:
    data = np.ascontiguousarray(arr).astype(descr, copy=False)
    header = BytesIO()
    npy_format.write_array_header_1_0(header, npy_format.header_data_from_array_1_0(data))
    _atomic_write_bytes(path, header.getvalue(), data)


def _map_npy(path, allowed_descrs: tuple[str, ...], ndim: int, expected_shape=None) -> np.ndarray:
    """Check an NPY 1.0 file (expected_shape is the shape metadata implies, if
    any), then map its body read-only: nothing is read or copied, and the
    mapping lives as long as the array."""
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise FormatError(f"cannot open {path}: {e}") from e
    with fh:
        try:
            version = npy_format.read_magic(fh)
        except ValueError as e:
            raise FormatError(f"{path}: {e}") from e
        if version != (1, 0):
            raise FormatError(f"{path}: unsupported NPY version {version}, only 1.0 is accepted")
        try:
            shape, fortran_order, dtype = npy_format.read_array_header_1_0(fh)
        except (ValueError, TypeError, SyntaxError, TokenError) as e:  # numpy raises all four
            raise FormatError(f"{path}: invalid NPY header: {e}") from e
        if dtype.str not in allowed_descrs:
            raise FormatError(f"{path}: unsupported descr {dtype.str!r}, expected one of {allowed_descrs}")
        if fortran_order:
            raise FormatError(f"{path}: fortran_order must be False")
        if len(shape) != ndim or any(s < 0 for s in shape):
            raise FormatError(f"{path}: shape {shape!r} is not a valid {ndim}-d shape")
        if expected_shape is not None and shape != expected_shape:
            raise FormatError(f"{path}: has shape {shape}, meta implies {expected_shape}")
        nbytes = math.prod(shape) * dtype.itemsize
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        if available < nbytes:
            raise FormatError(f"{path}: data truncated ({available} of {nbytes} bytes)")
        if available > nbytes:
            raise FormatError(f"{path}: trailing bytes after array data")
        try:
            body = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            return np.frombuffer(body, dtype, math.prod(shape), fh.tell()).reshape(shape)
        except (OSError, ValueError) as e:  # ValueError: the file shrank since its size was checked
            raise FormatError(f"{path}: cannot map array data: {e}") from e


def load_matrix(path) -> np.ndarray:
    """Load a 2-d float NPY 1.0 file as a read-only float64 array: a "<f8" body
    is mapped, not read, and a "<f4" one is widened exactly, by one copy."""
    arr = _map_npy(path, ("<f4", "<f8"), 2)
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise FormatError(f"{path}: matrix shape {arr.shape} has an empty axis")
    m = arr.astype(np.float64, copy=False)
    m.flags.writeable = False
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
    """Write a 1-d integer array (assignments, labels) as "<i8" NPY 1.0.

    The ids pass linalg._check_ids, the rule load_bundle applies on read:
    floats and bools are refused rather than cast (an empty list passes), and
    so is a negative id or one beyond the "<i8" range, as a FormatError.
    """
    try:
        a = _check_ids(v, 2**63, "index vector")
    except MessiError as e:
        raise FormatError(str(e)) from e
    _write_npy(path, a, "<i8")


def load_index_vector(path) -> np.ndarray:
    """Map a 1-d "<i8" NPY 1.0 file read-only."""
    return _map_npy(path, ("<i8",), 1)


def _atomic_write_bytes(path, *parts) -> None:
    """Write the parts (bytes-like objects) to a temporary sibling, sync it, rename
    it to path and sync the directory: after a crash, path is the old file or the new."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    _fsync_directory(directory)


def _fsync_directory(directory) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ---------------------------------------------------------------- bundles

def _is_int(value, low: int) -> bool:
    # JSON true/false load as bool, which is an int subclass in Python.
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


# meta.json's schema: its ten keys, all required, in check order (dims after
# k, since dims needs k), each with a test of (value, whole meta) and what
# the value must be.
_META_SCHEMA = (
    ("format_version", lambda v, m: type(v) is int and v == _BUNDLE_FORMAT_VERSION,
     f"be {_BUNDLE_FORMAT_VERSION}"),
    ("n", lambda v, m: _is_int(v, 1), "be an integer >= 1"),
    ("d", lambda v, m: _is_int(v, 1), "be an integer >= 1"),
    ("k", lambda v, m: _is_int(v, 1), "be an integer >= 1"),
    ("dims", lambda v, m: isinstance(v, list) and len(v) == m["k"]
     and all(_is_int(j, 0) for j in v), "be a list of k nonnegative integers"),
    ("q", lambda v, m: v == 2.0, "be 2.0 (squared distances)"),
    ("seed", lambda v, m: _is_int(v, 0), "be an integer >= 0"),
    ("cost", lambda v, m: type(v) is int or type(v) is float and math.isfinite(v),
     "be a finite number"),
    ("iterations", lambda v, m: _is_int(v, 0), "be an integer >= 0"),
    ("converged", lambda v, m: isinstance(v, bool), "be true or false"),
)
_META_FILE = "meta.json"
_ASSIGNMENT_FILE = "assignment.npy"
_VALUES_FILE = "values.npy"
_V_STACKED_FILE = "v_stacked.npy"
_BUNDLE_FILES = frozenset({_META_FILE, _ASSIGNMENT_FILE, _VALUES_FILE, _V_STACKED_FILE})


def _check_meta(meta, path: str) -> None:
    """Raise FormatError naming path unless meta has exactly the schema's keys, each valid."""
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: meta must be a JSON object")
    known = [key for key, _, _ in _META_SCHEMA]
    for key in meta:
        if key not in known:
            raise FormatError(f"{path}: meta has unknown key {key!r}")
    for key, valid, what in _META_SCHEMA:
        if key not in meta:
            raise FormatError(f"{path}: meta is missing key {key!r}")
        if not valid(meta[key], meta):
            raise FormatError(f"{path}: {key} must {what}, got {meta[key]!r}")


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

    Before anything is written, the meta is checked against the schema that
    load_bundle_meta applies, so a bad value (a negative seed, a non-finite
    cost) raises FormatError. An existing path must be an empty directory
    or a previous bundle (see check_bundle_target), else FormatError is
    raised, before anything is written, and the path is left as it was. The
    bundle is staged in a temporary sibling directory and synced to disk, the
    path is checked again, a previous bundle is moved aside, the new one
    renamed in and the parent synced; only then is the old one deleted, so a
    crash at any point leaves the old bundle or the new one.
    """
    directory = os.fspath(directory)
    meta = dict(format_version=_BUNDLE_FORMAT_VERSION, n=f.n, d=f.d, k=f.k, dims=list(f.dims),
                q=2.0, seed=int(seed), cost=float(cost), iterations=int(iterations),
                converged=bool(converged))
    _check_meta(meta, os.path.join(directory, _META_FILE))
    check_bundle_target(directory)
    parent = os.path.dirname(os.path.abspath(directory)) or "."
    os.makedirs(parent, exist_ok=True)
    work = tempfile.mkdtemp(dir=parent, prefix=".bundle-")  # holds the new bundle, then the old
    old = os.path.join(work, "old")
    try:
        new = tempfile.mkdtemp(dir=work)
        _atomic_write_bytes(os.path.join(new, _META_FILE),
                            (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode("utf-8"))
        save_index_vector(f.assignment, os.path.join(new, _ASSIGNMENT_FILE))
        _write_npy(os.path.join(new, _VALUES_FILE), f.values, "<f8")
        _write_npy(os.path.join(new, _V_STACKED_FILE), f.v_stacked, "<f8")
        replacing = check_bundle_target(directory)  # again, as the path may have changed meanwhile
        if replacing:
            os.replace(directory, old)
        try:
            os.replace(new, directory)
        except BaseException:
            if replacing:
                os.replace(old, directory)
            raise
    except BaseException:
        if not os.path.lexists(old):  # else the old bundle could not be put back: keep it
            shutil.rmtree(work, ignore_errors=True)
        raise
    _fsync_directory(parent)  # the swap is durable before the previous bundle is deleted
    shutil.rmtree(work)


def check_bundle_target(directory) -> bool:
    """Whether save_bundle may write a bundle at directory, and what it replaces.

    True for a previous bundle: a directory whose meta.json passes
    load_bundle_meta and whose entries are exactly meta.json, assignment.npy,
    values.npy and v_stacked.npy. False for an absent path or an empty
    directory. Anything else, a corrupt bundle or a symbolic link
    (named with a trailing slash too) included, is not save_bundle's to
    replace and raises FormatError, so a caller can check before any work.
    """
    if not os.path.lexists(directory):
        return False
    if os.path.islink(os.path.normpath(directory)) or not os.path.isdir(directory):
        raise FormatError(f"{directory} is not a directory or is a symlink; refusing to replace it")
    entries = set(os.listdir(directory))
    if not entries:
        return False
    if _META_FILE not in entries:
        raise FormatError(
            f"{directory} is a non-empty directory without meta.json, not a bundle; "
            "refusing to replace it"
        )
    try:
        load_bundle_meta(directory)
    except FormatError as e:
        raise FormatError(f"{directory} is not a bundle ({e}); refusing to replace it") from e
    if entries != _BUNDLE_FILES:
        odd = ", ".join(sorted(entries ^ _BUNDLE_FILES))
        raise FormatError(f"{directory} is not a bundle: its files differ from a bundle's "
                          f"in {odd}; refusing to replace it")
    return True


def load_bundle_meta(directory) -> dict:
    """Read a bundle's meta.json and check it against the schema save_bundle writes.

    A key given twice raises FormatError.
    """
    path = os.path.join(os.fspath(directory), _META_FILE)

    def unique_keys(pairs):  # json.load would keep the last of two equal keys
        meta = {}
        for key, value in pairs:
            if key in meta:
                raise FormatError(f"{path}: meta has duplicate key {key!r}")
            meta[key] = value
        return meta

    try:
        with open(path, "r", encoding="utf-8") as fh:
            meta = json.load(fh, object_pairs_hook=unique_keys)
    except OSError as e:
        raise FormatError(f"cannot read bundle meta {path}: {e}") from e
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FormatError(f"{path}: invalid JSON: {e}") from e
    _check_meta(meta, path)
    return meta


def load_bundle(directory) -> MessiFactorization:
    """Load a bundle directory back into a factorization, verifying invariants.

    Every array file is mapped read-only, and the factorization's two buffers
    are the mappings of values.npy and v_stacked.npy. A shape on disk that
    disagrees with meta, and any violated invariant (assignment range,
    orthonormal v blocks), raises FormatError naming the failing file.
    """
    directory = os.fspath(directory)
    meta = load_bundle_meta(directory)
    n, d, k, dims = meta["n"], meta["d"], meta["k"], meta["dims"]
    path = os.path.join(directory, _ASSIGNMENT_FILE)
    assignment = load_index_vector(path)
    try:
        assignment = _check_ids(assignment, k, "assignment", n)
    except MessiError as e:
        raise FormatError(f"{path}: {e}") from e
    rows = _cluster_rows(assignment, k)
    sizes = [ids.size for ids in rows]
    values = _map_npy(os.path.join(directory, _VALUES_FILE), ("<f8",), 1,
                      (sum(s * j for s, j in zip(sizes, dims)),))
    path = os.path.join(directory, _V_STACKED_FILE)
    v_stacked = _map_npy(path, ("<f8",), 2, (sum(dims), d))
    try:
        return _grouped(rows, n=n, d=d, k=k, dims=tuple(dims), assignment=assignment,
                        values=values, v_stacked=v_stacked)
    except ParameterError as e:  # meta and _map_npy checked all else: a v block is at fault
        raise FormatError(f"{path}: {e}") from e


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

    @classmethod
    def from_factorization(cls, f: MessiFactorization, frobenius_error: float,
                           relative_error: float, *, iterations: int, converged: bool,
                           seed: int) -> ReportRow:
        """The row of a factorization, given its absolute and relative error."""
        return cls(k=f.k, dims=f.dims, params=f.param_count(),
                   compression_rate=f.compression_rate(), frobenius_error=frobenius_error,
                   relative_error=relative_error, iterations=iterations,
                   converged=converged, seed=seed)


def _or_empty(render, parse):
    """The (render, parse) pair of a column whose None value is the empty string."""
    return (lambda v: "" if v is None else render(v)), (lambda text: parse(text) if text else None)


# Integers render through operator.index, so numpy integers pass and floats raise.
_INT = (lambda v: str(operator.index(v)), int)
_FLOAT = (lambda v: format(float(v), ".17g"), float)  # 17 digits round-trip a double

# Each ReportRow field, in field order, with the (render, parse) pair of its CSV text.
_COLUMNS = {
    "k": _INT,
    "dims": _or_empty(lambda v: ";".join(str(operator.index(j)) for j in v),
                      lambda text: tuple(int(j) for j in text.split(";"))),
    "params": _or_empty(*_INT),
    "compression_rate": _or_empty(*_FLOAT),
    "frobenius_error": _or_empty(*_FLOAT),
    "relative_error": _or_empty(*_FLOAT),
    "iterations": _INT,
    # index raises ValueError on any text but the two that render writes
    "converged": (lambda v: "true" if v else "false",
                  lambda text: bool(("false", "true").index(text))),
    "seed": _INT,
}
REPORT_HEADER = ",".join(_COLUMNS)


def render_report(rows) -> str:
    """The CSV text for a sequence of ReportRow; parse_report reads every row back equal."""
    lines = [REPORT_HEADER] + [
        ",".join(render(getattr(r, name)) for name, (render, _) in _COLUMNS.items()) for r in rows
    ]
    return "\n".join(lines) + "\n"


def write_report(rows, path) -> None:
    """Write the report CSV atomically."""
    _atomic_write_bytes(path, render_report(rows).encode("utf-8"))


def parse_report(text: str) -> list[ReportRow]:
    """Parse CSV text produced by render_report back into rows.

    A cell that its column cannot parse raises FormatError naming the row
    (1 is the first after the header) and the column.
    """
    lines = text.strip("\n").split("\n")
    if lines[0] != REPORT_HEADER:
        raise FormatError("report header does not match the expected schema")
    rows = []
    for number, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != len(_COLUMNS):
            raise FormatError(
                f"report row {number} has {len(parts)} fields, expected {len(_COLUMNS)}")
        fields = {}
        for (name, (_, parse)), part in zip(_COLUMNS.items(), parts):
            try:
                fields[name] = parse(part)
            except ValueError as e:
                raise FormatError(
                    f"report row {number}, column {name}: cannot parse {part!r}") from e
        rows.append(ReportRow(**fields))
    return rows
