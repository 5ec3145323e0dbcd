"""Tests for NPY parsing, bundle round-trips and CSV reports."""

import json
import mmap
import os
import re
import shutil
import struct

import numpy as np
import pytest
from click.testing import CliRunner

import messi.io as mio
from messi import (
    EmOptions,
    FormatError,
    InputError,
    MessiFactorization,
    ReportRow,
    build_factorization,
    em_multi_restart,
    load_bundle,
    load_bundle_meta,
    load_matrix,
    parse_report,
    reconstruct,
    render_report,
    save_bundle,
    save_matrix,
    write_report,
)
from messi.cli import main
from messi.linalg import CHUNK_ROWS
from oracles import save_bundle_v1


def make_factorization(seed=0, n=12, d=5, k=2, j=2):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d))
    clus = em_multi_restart(pts, k, j, EmOptions(restarts=4, seed=seed))
    return pts, clus, build_factorization(pts, clus)


def edit_v(bundle, f, c, edit):
    """Apply edit in place to cluster c's block of v_stacked.npy and rewrite the file."""
    stored = np.load(bundle / "v_stacked.npy")
    start = sum(f.dims[:c])
    edit(stored[start : start + f.dims[c]])
    mio._write_npy(bundle / "v_stacked.npy", stored, "<f8")


@pytest.fixture
def durability_calls(monkeypatch):
    """Record, in order, each os.fsync (by the inode synced), os.replace and
    shutil.rmtree call, each still made."""
    calls = []
    fsync, replace, rmtree = os.fsync, os.replace, shutil.rmtree

    def record_fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def record_replace(src, dst):
        calls.append(("replace", os.fspath(src), os.fspath(dst)))
        replace(src, dst)

    def record_rmtree(path, *args, **kwargs):
        calls.append(("rmtree", os.fspath(path)))
        rmtree(path, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", record_fsync)
    monkeypatch.setattr(os, "replace", record_replace)
    monkeypatch.setattr(shutil, "rmtree", record_rmtree)
    return calls


def nan_first(v):
    v[0, 0] = np.nan


def npy_body(path) -> bytes:
    """The bytes of an NPY 1.0 file after its header."""
    raw = path.read_bytes()
    return raw[10 + struct.unpack("<H", raw[8:10])[0]:]


class TestMatrixRoundTrip:
    def test_simple_values(self, tmp_path):
        path = tmp_path / "m.npy"
        save_matrix([[1.0, 2.0], [3.0, 4.0]], path)
        m = load_matrix(path)
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])

    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((17, 9))
        path = tmp_path / "m.npy"
        save_matrix(m, path)
        back = load_matrix(path)
        assert back.tobytes() == m.tobytes()

    def test_numpy_reads_our_files(self, tmp_path):
        # Independent reader oracle: numpy's own loader.
        rng = np.random.default_rng(2)
        m = rng.standard_normal((6, 4))
        path = tmp_path / "m.npy"
        save_matrix(m, path)
        loaded = np.load(path)
        assert loaded.dtype == np.float64
        np.testing.assert_array_equal(loaded, m)

    def test_we_read_numpy_files(self, tmp_path):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 8))
        path = tmp_path / "m.npy"
        np.save(path, m)
        np.testing.assert_array_equal(load_matrix(path), m)

    @pytest.mark.parametrize("descr", ["<f8", "<f4"])
    def test_loaded_matrix_is_read_only(self, tmp_path, descr):
        path = tmp_path / "m.npy"
        np.save(path, np.arange(6.0).reshape(2, 3).astype(descr))
        m = load_matrix(path)
        assert m.dtype == np.float64 and not m.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 1.0

    def test_loaded_index_vector_is_read_only(self, tmp_path):
        mio.save_index_vector([3, 1, 2], tmp_path / "a.npy")
        v = mio.load_index_vector(tmp_path / "a.npy")
        assert v.tolist() == [3, 1, 2] and not v.flags.writeable

    def test_saved_matrix_is_synced_before_and_after_its_rename(self, tmp_path, durability_calls):
        path = tmp_path / "m.npy"
        save_matrix(np.ones((2, 2)), path)
        (_, tmp, dst), = [call for call in durability_calls if call[0] == "replace"]
        assert dst == str(path)
        assert durability_calls == [("fsync", path.stat().st_ino), ("replace", tmp, dst),
                                    ("fsync", tmp_path.stat().st_ino)]

    def test_float32_widened_exactly(self, tmp_path):
        rng = np.random.default_rng(4)
        m32 = rng.standard_normal((7, 3)).astype(np.float32)
        path = tmp_path / "m.npy"
        np.save(path, m32)
        loaded = load_matrix(path)
        assert loaded.dtype == np.float64
        np.testing.assert_array_equal(loaded, m32.astype(np.float64))

    @pytest.mark.parametrize("save, value, header", [
        (save_matrix, np.ones((2, 2)),
         "{'descr': '<f8', 'fortran_order': False, 'shape': (2, 2), }" + " " * 58),
        (mio.save_index_vector, np.arange(3),
         "{'descr': '<i8', 'fortran_order': False, 'shape': (3,), }" + " " * 60),
        (save_matrix, np.zeros((0, 3)),
         "{'descr': '<f8', 'fortran_order': False, 'shape': (0, 3), }" + " " * 58),
    ], ids=["f8-2x2", "i8-vector", "f8-0x3"])
    def test_golden_header_bytes(self, tmp_path, save, value, header):
        # Magic, version 1.0, header length 118, then the padded header: 128 bytes.
        path = tmp_path / "a.npy"
        save(value, path)
        golden = b"\x93NUMPY\x01\x00\x76\x00" + header.encode("latin1") + b"\n"
        assert path.read_bytes() == golden + value.tobytes()

    @pytest.mark.parametrize("value", [[0.9, 1.6, True], np.array([True, False]),
                                       np.array([2**63], dtype=np.uint64), np.zeros((2, 2), int),
                                       [0, -1]],
                             ids=["float-list", "bool-array", "uint64-2**63", "2-d", "negative"])
    def test_index_vector_refuses_what_it_would_cast(self, tmp_path, value):
        path = tmp_path / "a.npy"
        with pytest.raises(FormatError, match="index vector"):
            mio.save_index_vector(value, path)
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_axis_refused(self, tmp_path, shape):
        path = tmp_path / "e.npy"
        np.save(path, np.zeros(shape))
        with pytest.raises(FormatError, match="e.npy: matrix shape .* has an empty axis"):
            load_matrix(path)

    def test_3d_matrix_not_saved(self, tmp_path):
        path = tmp_path / "m.npy"
        with pytest.raises(FormatError, match="can only save 2-d matrices, got ndim=3"):
            save_matrix(np.zeros((2, 2, 2)), path)
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_removes_the_temporary_file(self, tmp_path):
        (tmp_path / "r.csv").mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(OSError):
            write_report([], tmp_path / "r.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]
        assert (tmp_path / "r.csv").is_dir()

    def test_empty_index_vector_saved(self, tmp_path):
        mio.save_index_vector([], tmp_path / "a.npy")
        assert mio.load_index_vector(tmp_path / "a.npy").shape == (0,)


class TestNpyRejection:
    def _valid_bytes(self, tmp_path):
        path = tmp_path / "ok.npy"
        save_matrix(np.ones((2, 2)), path)
        return path.read_bytes()

    def test_bad_magic(self, tmp_path):
        raw = bytearray(self._valid_bytes(tmp_path))
        raw[0] = 0x92
        path = tmp_path / "bad.npy"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="magic"):
            load_matrix(path)

    def test_unsupported_version(self, tmp_path):
        raw = bytearray(self._valid_bytes(tmp_path))
        raw[6] = 2  # version 2.0
        path = tmp_path / "bad.npy"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="version"):
            load_matrix(path)

    def _with_header(self, tmp_path, header_body: str, payload: bytes = b""):
        unpadded = 10 + len(header_body) + 1
        pad = (64 - unpadded % 64) % 64
        header = header_body + " " * pad + "\n"
        raw = b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header.encode() + payload
        path = tmp_path / "crafted.npy"
        path.write_bytes(raw)
        return path

    def test_pickled_descr_rejected(self, tmp_path):
        path = self._with_header(
            tmp_path, "{'descr': '|O', 'fortran_order': False, 'shape': (2, 2), }"
        )
        with pytest.raises(FormatError, match="descr"):
            load_matrix(path)

    def test_integer_descr_rejected_for_matrix(self, tmp_path):
        path = tmp_path / "ints.npy"
        np.save(path, np.arange(6, dtype=np.int32).reshape(2, 3))
        with pytest.raises(FormatError, match="descr"):
            load_matrix(path)

    def test_fortran_order_rejected(self, tmp_path):
        path = tmp_path / "f.npy"
        np.save(path, np.asfortranarray(np.ones((3, 2))))
        with pytest.raises(FormatError, match="fortran_order"):
            load_matrix(path)

    def test_wrong_ndim_rejected(self, tmp_path):
        path = tmp_path / "v.npy"
        np.save(path, np.ones(4))
        with pytest.raises(FormatError, match="shape"):
            load_matrix(path)

    def test_truncated_data(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        path = tmp_path / "short.npy"
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError, match="truncated"):
            load_matrix(path)

    def test_trailing_bytes(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        path = tmp_path / "long.npy"
        path.write_bytes(raw + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_matrix(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "nan.npy"
        np.save(path, np.array([[1.0, np.nan]]))
        with pytest.raises(InputError):
            load_matrix(path)
        late = np.ones((CHUNK_ROWS + 3, 2))
        late[-1, 1] = np.nan  # past the first chunk of the finiteness check
        np.save(path, late)
        with pytest.raises(InputError, match="non-finite"):
            load_matrix(path)

    def test_big_endian_rejected(self, tmp_path):
        path = tmp_path / "big.npy"
        np.save(path, np.ones((2, 2), dtype=">f8"))
        with pytest.raises(FormatError, match="big.npy: unsupported descr '>f8'"):
            load_matrix(path)

    def test_negative_dimension_rejected(self, tmp_path):
        path = self._with_header(
            tmp_path, "{'descr': '<f8', 'fortran_order': False, 'shape': (-1, 2), }"
        )
        with pytest.raises(FormatError, match=r"crafted.npy: shape \(-1, 2\)"):
            load_matrix(path)

    @pytest.mark.parametrize("header_body", [
        "{'descr': '<f8', 'fortran_order': False, 'shape': (2, 2, }",
        "{'descr': '<f8', 'fortran_order': False, b'shape': (2, 2), }",
        "{'descr': ',<f8', 'fortran_order': False, 'shape': (2, 2), }",
        "  {'descr': '<f8'}\n {}",
    ], ids=["unclosed", "bytes-key", "comma-descr", "bad-indent"])
    def test_malformed_header_names_the_file(self, tmp_path, header_body):
        path = self._with_header(tmp_path, header_body, payload=b"\x00" * 32)
        with pytest.raises(FormatError, match="crafted.npy: "):
            load_matrix(path)

    def test_header_with_extra_keys_rejected(self, tmp_path):
        path = self._with_header(
            tmp_path,
            "{'descr': '<f8', 'fortran_order': False, 'shape': (1, 1), 'x': 1, }",
            payload=b"\x00" * 8,
        )
        with pytest.raises(FormatError, match="header"):
            load_matrix(path)


class TestBundleRoundTrip:
    def test_bit_exact(self, tmp_path):
        _, clus, fact = make_factorization(seed=5)
        bundle = tmp_path / "bundle"
        save_bundle(fact, bundle, seed=5, cost=clus.cost,
                    iterations=clus.iterations, converged=clus.converged)
        back = load_bundle(bundle)
        assert back.n == fact.n and back.d == fact.d and back.k == fact.k
        assert back.dims == fact.dims
        assert back.assignment.tobytes() == fact.assignment.tobytes()
        for b1, b2 in zip(fact.blocks, back.blocks):
            assert b1.row_ids.tobytes() == b2.row_ids.tobytes()
            assert b1.u.tobytes() == b2.u.tobytes()
            assert b1.v.tobytes() == b2.v.tobytes()
        meta = load_bundle_meta(bundle)
        assert meta["cost"] == clus.cost
        assert meta["seed"] == 5
        assert meta["converged"] == clus.converged

    def test_empty_cluster_round_trip(self, tmp_path):
        from messi import Clustering, Subspace

        pts = np.outer(np.arange(1.0, 5.0), [1.0, 0.0])
        clus = Clustering(
            k=2, assignment=np.zeros(4, dtype=int),
            subspaces=(Subspace(np.array([[1.0, 0.0]])), Subspace(np.array([[0.0, 1.0]]))),
            cost=0.0, q=2.0, iterations=1, converged=True,
        )
        fact = build_factorization(pts, clus)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle)
        back = load_bundle(bundle)
        assert back.block_sizes() == (4, 0)
        assert back.blocks[1].u.shape == (0, 1)

    def test_buffer_files_hold_the_blocks_back_to_back(self, tmp_path):
        _, clus, fact = make_factorization(seed=5, k=3)
        save_bundle(fact, tmp_path / "b", cost=clus.cost)
        assert sorted(os.listdir(tmp_path / "b")) == [
            "assignment.npy", "meta.json", "v_stacked.npy", "values.npy"]
        assert npy_body(tmp_path / "b" / "values.npy") == b"".join(b.u.tobytes() for b in fact.blocks)
        assert npy_body(tmp_path / "b" / "v_stacked.npy") == b"".join(
            b.v.tobytes() for b in fact.blocks)

    def test_loaded_buffers_are_read_only_file_mappings(self, tmp_path):
        _, clus, fact = make_factorization(seed=5)
        save_bundle(fact, tmp_path / "b", cost=clus.cost)
        back = load_bundle(tmp_path / "b")
        for arr in (back.values, back.v_stacked):
            assert not arr.flags.writeable
            base = arr
            while isinstance(base, np.ndarray):
                base = base.base
            assert isinstance(base.obj, mmap.mmap)

    def test_format_1_bundle_is_refused_and_kept(self, tmp_path, monkeypatch):
        pts, clus, fact = make_factorization(seed=5, k=3)
        bundle = tmp_path / "v1"
        save_bundle_v1(fact, bundle, cost=clus.cost, seed=5)
        before = {p.name: p.read_bytes() for p in bundle.iterdir()}
        with pytest.raises(FormatError, match="meta.json: format_version must be 2, got 1"):
            load_bundle(bundle)
        with pytest.raises(FormatError, match="v1 is not a bundle .*format_version"):
            mio.check_bundle_target(bundle)

        def must_not_run(*args, **kwargs):
            raise AssertionError("EM ran although --output cannot be written")

        monkeypatch.setattr("messi.evalgen.em_multi_restart", must_not_run)
        save_matrix(pts, tmp_path / "a.npy")
        matrix = ["--input", str(tmp_path / "a.npy")]
        for args in (["compress", *matrix, "--k", "3", "--j", "2", "--output", str(bundle)],
                     ["inspect", "--bundle", str(bundle)],
                     ["evaluate", *matrix, "--bundle", str(bundle)]):
            result = CliRunner().invoke(main, args, catch_exceptions=False)
            assert result.exit_code == 1, args
            assert "format_version must be 2, got 1" in result.output, args
        assert {p.name: p.read_bytes() for p in bundle.iterdir()} == before
        assert sorted(os.listdir(tmp_path)) == ["a.npy", "v1"]

    def test_empty_values_round_trip(self, tmp_path):
        fact = MessiFactorization(n=3, d=2, k=1, dims=(0,), assignment=np.zeros(3, dtype=int),
                                  values=np.empty(0), v_stacked=np.empty((0, 2)))
        save_bundle(fact, tmp_path / "b")
        back = load_bundle(tmp_path / "b")
        assert back.values.shape == (0,) and back.v_stacked.shape == (0, 2)
        assert back.assignment.tobytes() == fact.assignment.tobytes()
        assert reconstruct(back).tobytes() == np.zeros((3, 2)).tobytes()

    @pytest.mark.parametrize("edit, odd", [
        (lambda b: (b / "u_0.npy").write_bytes((b / "values.npy").read_bytes()), "u_0.npy"),
        (lambda b: (b / "v_stacked.npy").unlink(), "v_stacked.npy"),
    ], ids=["format-2-stray-u_0", "format-2-missing-v_stacked"])
    def test_check_bundle_target_matches_the_layout(self, tmp_path, edit, odd):
        _, clus, fact = make_factorization(seed=14)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost)
        edit(bundle)
        before = {p.name: p.read_bytes() for p in bundle.iterdir()}
        with pytest.raises(FormatError, match=f"not a bundle: .* in {odd}; refusing"):
            mio.check_bundle_target(bundle)
        with pytest.raises(FormatError, match="not a bundle"):
            save_bundle(fact, bundle, cost=clus.cost)
        assert {p.name: p.read_bytes() for p in bundle.iterdir()} == before

    def test_failed_move_aside_leaves_target_and_no_staging(self, tmp_path, monkeypatch):
        _, clus, fact = make_factorization(seed=6)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost, seed=1)
        before = {p.name: p.read_bytes() for p in bundle.iterdir()}
        real = os.replace

        def refuse_moving_the_target(src, dst):
            if os.fspath(src) == str(bundle):
                raise OSError("device busy")
            real(src, dst)

        monkeypatch.setattr(os, "replace", refuse_moving_the_target)
        with pytest.raises(OSError, match="device busy"):
            save_bundle(fact, bundle, cost=clus.cost, seed=2)
        assert {p.name: p.read_bytes() for p in bundle.iterdir()} == before
        assert os.listdir(tmp_path) == ["b"]

    @pytest.mark.parametrize("rollback_fails", [False, True])
    def test_failed_swap_never_deletes_the_old_bundle(self, tmp_path, monkeypatch,
                                                      rollback_fails):
        _, clus, fact = make_factorization(seed=6)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost, seed=1)
        before = {p.name: p.read_bytes() for p in bundle.iterdir()}
        real = os.replace

        def refuse_filling_the_target(src, dst):
            if os.fspath(dst) == str(bundle) and (rollback_fails or os.path.basename(src) != "old"):
                raise OSError("device busy")
            real(src, dst)

        monkeypatch.setattr(os, "replace", refuse_filling_the_target)
        with pytest.raises(OSError, match="device busy"):
            save_bundle(fact, bundle, cost=clus.cost, seed=2)
        if rollback_fails:  # the old bundle stays where it was moved aside
            (bundle,) = tmp_path.glob(".bundle-*/old")
        assert {p.name: p.read_bytes() for p in bundle.iterdir()} == before
        assert len(os.listdir(tmp_path)) == 1

    def test_bundle_is_synced_before_the_old_one_is_deleted(self, tmp_path, durability_calls):
        _, clus, fact = make_factorization(seed=6)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost, seed=1)
        del durability_calls[:]
        save_bundle(fact, bundle, cost=clus.cost, seed=2)
        *before_swap, swap, sync_parent, delete_old = durability_calls
        move_aside = [call for call in before_swap if call[0] == "replace"][-1]
        assert swap[0] == "replace" and move_aside[1] == swap[2] == str(bundle)
        assert sync_parent == ("fsync", tmp_path.stat().st_ino)
        assert delete_old[0] == "rmtree" and move_aside[2].startswith(delete_old[1] + os.sep)
        # Every file of the new bundle, and its directory, was synced before the swap.
        synced = {call[1] for call in before_swap if call[0] == "fsync"}
        assert {p.stat().st_ino for p in [bundle, *bundle.iterdir()]} <= synced
        assert os.listdir(tmp_path) == ["b"]

    def test_overwrite_previous_bundle(self, tmp_path):
        _, clus, fact = make_factorization(seed=6)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost)
        save_bundle(fact, bundle, cost=clus.cost, seed=99)
        assert load_bundle_meta(bundle)["seed"] == 99
        assert os.listdir(tmp_path) == ["b"]  # the moved-aside old bundle is gone

    def test_never_replaces_foreign_data(self, tmp_path):
        _, clus, fact = make_factorization(seed=12)
        target = tmp_path / "data"
        target.mkdir()
        (target / "important.txt").write_text("keep me")
        with pytest.raises(FormatError, match="not a bundle"):
            save_bundle(fact, target, cost=clus.cost)
        assert os.listdir(target) == ["important.txt"]
        assert (target / "important.txt").read_text() == "keep me"
        (tmp_path / "file").write_text("keep me too")
        with pytest.raises(FormatError, match="not a directory"):
            save_bundle(fact, tmp_path / "file", cost=clus.cost)
        assert (tmp_path / "file").read_text() == "keep me too"
        assert [p for p in os.listdir(tmp_path) if p.startswith(".bundle-")] == []

    @pytest.mark.parametrize("case", ["foreign-meta", "stray-file"])
    def test_never_replaces_lookalike_bundle(self, tmp_path, case):
        _, clus, fact = make_factorization(seed=12)
        target = tmp_path / "out"
        if case == "foreign-meta":
            target.mkdir()
            (target / "meta.json").write_text('{"name": "x"}')
            (target / "results.txt").write_text("keep me")
        else:
            save_bundle(fact, target, cost=clus.cost)
            (target / "notes.txt").write_text("keep me")
        before = {p.name: p.read_bytes() for p in target.iterdir()}
        with pytest.raises(FormatError, match="not a bundle.*refusing to replace it"):
            save_bundle(fact, target, cost=clus.cost, seed=99)
        assert {p.name: p.read_bytes() for p in target.iterdir()} == before
        assert sorted(os.listdir(tmp_path)) == ["out"]

    def test_check_bundle_target(self, tmp_path):
        _, clus, fact = make_factorization(seed=14)
        assert mio.check_bundle_target(tmp_path / "absent") is False
        (tmp_path / "empty").mkdir()
        assert mio.check_bundle_target(tmp_path / "empty") is False
        save_bundle(fact, tmp_path / "b", cost=clus.cost)
        assert mio.check_bundle_target(tmp_path / "b") is True

    def test_fills_empty_directory(self, tmp_path):
        _, clus, fact = make_factorization(seed=13)
        (tmp_path / "empty").mkdir()
        save_bundle(fact, tmp_path / "empty", cost=clus.cost)
        assert load_bundle(tmp_path / "empty").n == fact.n

    def test_meta_tamper_detected(self, tmp_path):
        _, clus, fact = make_factorization(seed=7)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost)
        meta = json.loads((bundle / "meta.json").read_text())
        meta["n"] = meta["n"] + 1
        (bundle / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError):
            load_bundle(bundle)

    def test_array_tamper_detected(self, tmp_path):
        _, clus, fact = make_factorization(seed=8)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost)
        edit_v(bundle, fact, 0, lambda v: v.fill(0.5))
        with pytest.raises(FormatError, match="invariant|orthonormal"):
            load_bundle(bundle)

    def test_nan_in_basis_rejected(self, tmp_path):
        _, clus, fact = make_factorization(seed=8)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost)
        edit_v(bundle, fact, 0, nan_first)
        with pytest.raises(FormatError, match="orthonormal"):
            load_bundle(bundle)

    def test_bad_basis_names_the_file(self, tmp_path):
        _, clus, fact = make_factorization(seed=8)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost)
        edit_v(bundle, fact, 1, nan_first)
        with pytest.raises(FormatError, match="v_stacked.npy: block 1 .*orthonormal"):
            load_bundle(bundle)

    @pytest.mark.parametrize("tamper", [
        lambda a, k: np.where(a == a[0], k, a),  # an id equal to k
        lambda a, k: np.where(a == a[0], -1, a),
        lambda a, k: a[:-1],  # n - 1 entries
    ], ids=["id-k", "id-minus-1", "short"])
    def test_bad_assignment_names_the_file(self, tmp_path, tamper):
        _, clus, fact = make_factorization(seed=17)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost)
        mio._write_npy(bundle / "assignment.npy", tamper(np.load(bundle / "assignment.npy"), fact.k),
                       "<i8")
        with pytest.raises(FormatError, match="assignment.npy: "):
            load_bundle(bundle)

    @pytest.mark.parametrize("name, tamper, match", [
        ("values.npy", lambda path: path.write_bytes(path.read_bytes()[:-8]), "data truncated"),
        ("v_stacked.npy", lambda path: path.write_bytes(path.read_bytes()[:-8]),
         "data truncated"),
        ("values.npy", lambda path: path.write_bytes(path.read_bytes() + b"\x00"),
         "trailing bytes"),
        ("v_stacked.npy", lambda path: path.write_bytes(path.read_bytes() + b"\x00"),
         "trailing bytes"),
        ("values.npy", lambda path: mio._write_npy(path, np.load(path)[:-1], "<f8"),
         "meta implies"),
        ("v_stacked.npy", lambda path: mio._write_npy(path, np.load(path)[:-1], "<f8"),
         "meta implies"),
    ])
    def test_array_file_corruption_names_the_file(self, tmp_path, name, tamper, match):
        _, clus, fact = make_factorization(seed=15)
        assert min(fact.block_sizes()) > 0
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost)
        tamper(bundle / name)
        with pytest.raises(FormatError, match=f"{name}: .*{match}"):
            load_bundle(bundle)

    @pytest.mark.parametrize("key, value", [("d", 10**13), ("dims", [10**20, 2])])
    def test_meta_implying_huge_arrays_rejected(self, tmp_path, key, value):
        # Every header is checked against meta's shapes before any buffer is
        # allocated, so the refusal names the file at fault.
        name = {"d": "v_stacked.npy", "dims": "values.npy"}[key]
        _, clus, fact = make_factorization(seed=16)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost)
        meta = json.loads((bundle / "meta.json").read_text())
        meta[key] = value
        (bundle / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=rf"b/{name}: has shape .*, meta implies"):
            load_bundle(bundle)

    def test_missing_array_file(self, tmp_path):
        _, clus, fact = make_factorization(seed=11)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost)
        (bundle / "values.npy").unlink()
        with pytest.raises(FormatError, match="values.npy"):
            load_bundle(bundle)

    def test_missing_meta_key(self, tmp_path):
        _, clus, fact = make_factorization(seed=9)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost)
        meta = json.loads((bundle / "meta.json").read_text())
        del meta["dims"]
        (bundle / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="dims"):
            load_bundle(bundle)

    @pytest.mark.parametrize("key, value", [
        ("n", 12.0), ("n", 0), ("d", 5.0), ("k", True), ("dims", [True, 2]), ("dims", [-1, 2]),
        ("seed", -1), ("seed", "5"), ("iterations", 1.5), ("iterations", False),
        ("cost", "abc"), ("cost", None), ("cost", float("inf")), ("q", 1.0), ("q", "2.0"),
        ("converged", "no"), ("converged", 1), ("format_version", True), ("format_version", 1.0),
    ])
    def test_meta_value_corruption_rejected(self, tmp_path, key, value):
        _, clus, fact = make_factorization(seed=12)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost)
        meta = json.loads((bundle / "meta.json").read_text())
        meta[key] = value
        (bundle / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=f"{key} must"):
            load_bundle(bundle)
        result = CliRunner().invoke(main, ["inspect", "--bundle", str(bundle)],
                                    catch_exceptions=False)
        assert result.exit_code == 1
        assert "Error:" in result.output

    @pytest.mark.parametrize("edit, match", [
        (lambda meta: meta.pop("converged"), "meta is missing key 'converged'"),
        (lambda meta: meta.update(bonverged=meta.pop("converged")),
         "meta has unknown key 'bonverged'"),
        (lambda meta: meta.update(note="x"), "meta has unknown key 'note'"),
    ], ids=["missing-converged", "renamed-converged", "extra-key"])
    def test_meta_key_set_is_exact(self, tmp_path, edit, match):
        _, clus, fact = make_factorization(seed=12)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost)
        meta = json.loads((bundle / "meta.json").read_text())
        edit(meta)
        (bundle / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=f"meta.json: {match}"):
            load_bundle(bundle)

    @pytest.mark.parametrize("kwargs, match", [
        ({"seed": -1}, "seed must"), ({"iterations": -1}, "iterations must"),
    ], ids=["seed", "iterations"])
    def test_invalid_meta_not_saved(self, tmp_path, kwargs, match):
        _, clus, fact = make_factorization(seed=13)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost, seed=5)
        before = {p.name: p.read_bytes() for p in bundle.iterdir()}
        with pytest.raises(FormatError, match=match):
            save_bundle(fact, bundle, cost=clus.cost, **kwargs)
        assert {p.name: p.read_bytes() for p in bundle.iterdir()} == before
        assert os.listdir(tmp_path) == ["b"]

    def test_every_bit_flip_fails_loudly_or_loads(self, tmp_path):
        """Flip bits 0x01 and 0x80 of every byte of every file of a bundle, in place.

        Each flip raises a FormatError naming a file of the bundle, or loads; a
        loading meta.json has exactly the written keys. Digit flips of cost,
        seed and iterations still load: nothing records their values twice.
        """
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((40, 6))
        clus = em_multi_restart(pts, 3, 2, EmOptions(restarts=4, seed=0))
        bundle = tmp_path / "b"
        save_bundle(build_factorization(pts, clus), bundle, cost=clus.cost,
                    iterations=clus.iterations, converged=clus.converged)
        keys = set(load_bundle_meta(bundle))
        paths = sorted(bundle.iterdir())
        names = [str(p) for p in paths]
        loaded = {}
        for path in paths:
            data = path.read_bytes()
            with open(path, "r+b") as fh:
                for i in range(len(data)):
                    for mask in (0x01, 0x80):
                        fh.seek(i)
                        fh.write(bytes([data[i] ^ mask]))
                        fh.flush()
                        try:
                            load_bundle(bundle)
                        except FormatError as e:
                            assert any(name in str(e) for name in names), str(e)
                        else:
                            loaded[path.name] = loaded.get(path.name, 0) + 1
                            if path.name == "meta.json":
                                assert set(load_bundle_meta(bundle)) == keys
                    fh.seek(i)
                    fh.write(data[i:i + 1])
                    fh.flush()
        assert 0 < loaded["meta.json"] < 28  # 28 loaded while unknown keys were ignored

    def test_nonfinite_cost_not_saved(self, tmp_path):
        _, _, fact = make_factorization(seed=13)
        with pytest.raises(FormatError, match="cost"):
            save_bundle(fact, tmp_path / "b", cost=float("nan"))
        assert not (tmp_path / "b").exists()

    def test_failed_save_leaves_no_bundle(self, tmp_path, monkeypatch):
        _, clus, fact = make_factorization(seed=10)
        bundle = tmp_path / "b"
        calls = {"n": 0}
        real = mio._write_npy

        def flaky(path, arr, descr):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise OSError("disk full")
            real(path, arr, descr)

        monkeypatch.setattr(mio, "_write_npy", flaky)
        with pytest.raises(OSError):
            save_bundle(fact, bundle, cost=clus.cost)
        assert not bundle.exists()
        assert [p for p in os.listdir(tmp_path) if p.startswith(".bundle-")] == []

    def test_refused_save_writes_nothing(self, tmp_path, monkeypatch):
        _, clus, fact = make_factorization(seed=10)
        target = tmp_path / "out"
        target.mkdir()
        (target / "notes.txt").write_text("keep me")
        calls = {"n": 0}
        real = mio._write_npy

        def counting(path, arr, descr):
            calls["n"] += 1
            real(path, arr, descr)

        monkeypatch.setattr(mio, "_write_npy", counting)
        with pytest.raises(FormatError, match="without meta.json"):
            save_bundle(fact, target, cost=clus.cost)
        assert calls["n"] == 0
        assert sorted(os.listdir(tmp_path)) == ["out"]
        assert os.listdir(target) == ["notes.txt"]

    @pytest.mark.parametrize("target", ["bundle", "empty"])
    @pytest.mark.parametrize("slash", ["", "/"])
    def test_symlink_refused(self, tmp_path, target, slash):
        # Unrefused, the swap renames through the link and fails after all the work:
        # IsADirectoryError leaving a .bundle-old-* behind, or NotADirectoryError.
        _, clus, fact = make_factorization(seed=9)
        real = tmp_path / target
        if target == "bundle":
            save_bundle(fact, real, cost=clus.cost)
        else:
            real.mkdir()
        before = {p.name: p.read_bytes() for p in real.iterdir()}
        link = tmp_path / "link"
        link.symlink_to(target)
        message = rf"^{re.escape(str(link))}/? is not a directory or is a symlink"
        for call in (mio.check_bundle_target, lambda path: save_bundle(fact, path)):
            with pytest.raises(FormatError, match=message):
                call(str(link) + slash)
        assert os.readlink(link) == target
        assert {p.name: p.read_bytes() for p in real.iterdir()} == before
        assert sorted(os.listdir(tmp_path)) == sorted([target, "link"])

    def test_meta_that_is_not_an_object_rejected(self, tmp_path):
        _, clus, fact = make_factorization(seed=12)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost)
        (bundle / "meta.json").write_text("[1, 2]\n")
        with pytest.raises(FormatError, match="meta.json: meta must be a JSON object"):
            load_bundle_meta(bundle)

    def test_unreadable_meta_rejected(self, tmp_path):
        (tmp_path / "b" / "meta.json").mkdir(parents=True)
        with pytest.raises(FormatError, match="cannot read bundle meta .*meta.json"):
            load_bundle_meta(tmp_path / "b")

    def test_duplicate_meta_key_rejected(self, tmp_path):
        _, clus, fact = make_factorization(seed=12)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost, seed=3)
        text = (bundle / "meta.json").read_text()
        assert text.count('"seed": 3') == 1
        (bundle / "meta.json").write_text(text.replace('"seed": 3', '"seed": 3,\n  "seed": 4'))
        match = "meta.json: meta has duplicate key 'seed'"
        for call in (load_bundle_meta, load_bundle, mio.check_bundle_target):
            with pytest.raises(FormatError, match=match):
                call(bundle)


class TestReports:
    def rows(self):
        return [
            ReportRow(k=1, dims=(4,), params=120, compression_rate=0.4,
                      frobenius_error=1.0 / 3.0, relative_error=1e-17,
                      iterations=3, converged=True, seed=42),
            ReportRow(k=2, dims=(3, 3), params=120, compression_rate=0.1 + 0.2,
                      frobenius_error=0.96060892448038548, relative_error=0.2359,
                      iterations=5, converged=False, seed=7),
            ReportRow(k=8, dims=None, params=None, compression_rate=None,
                      frobenius_error=None, relative_error=None,
                      iterations=0, converged=False, seed=42),
        ]

    def test_header_schema(self):
        text = render_report([])
        assert text.splitlines()[0] == (
            "k,dims,params,compression_rate,frobenius_error,relative_error,"
            "iterations,converged,seed"
        )

    def test_parse_back_is_exact(self, tmp_path):
        rows = self.rows()
        path = tmp_path / "r.csv"
        write_report(rows, path)
        back = parse_report(path.read_text())
        assert back == rows

    def test_seventeen_digit_rendering(self):
        text = render_report(self.rows())
        assert "0.33333333333333331" in text
        assert float("0.33333333333333331") == 1.0 / 3.0

    def test_bad_header_rejected(self):
        with pytest.raises(FormatError):
            parse_report("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize("column, cell", [
        ("converged", "True"), ("converged", "1"), ("converged", ""), ("iterations", "x"),
        ("k", "2.0"), ("params", "many"), ("relative_error", "0.1.2"), ("dims", "3;x"),
    ])
    def test_unparsable_cell_names_row_and_column(self, column, cell):
        lines = render_report(self.rows()).splitlines()
        names = lines[0].split(",")
        cells = lines[2].split(",")
        cells[names.index(column)] = cell
        lines[2] = ",".join(cells)
        with pytest.raises(FormatError, match=f"report row 2, column {column}: cannot parse"):
            parse_report("\n".join(lines) + "\n")

    @pytest.mark.parametrize("edit", [lambda line: line + ",1",
                                      lambda line: line[:line.rindex(",")]],
                             ids=["extra", "missing"])
    def test_wrong_field_count_names_the_row(self, edit):
        lines = render_report(self.rows()).splitlines()
        lines[3] = edit(lines[3])
        with pytest.raises(FormatError, match="report row 3 has (10|8) fields, expected 9"):
            parse_report("\n".join(lines) + "\n")

    def test_numpy_scalars_and_list_dims_parse_back_equal(self):
        row = ReportRow(k=np.int64(2), dims=[3, 3], params=np.int64(120),
                        compression_rate=np.float32(0.3), frobenius_error=np.float64(0.1),
                        relative_error=1.0 / 3.0, iterations=np.int64(5),
                        converged=np.bool_(True), seed=np.uint64(2**64 - 1))
        [back] = parse_report(render_report([row]))
        assert back.dims == tuple(row.dims)
        for name in ("k", "params", "compression_rate", "frobenius_error", "relative_error",
                     "iterations", "converged", "seed"):
            assert getattr(back, name) == getattr(row, name), name
