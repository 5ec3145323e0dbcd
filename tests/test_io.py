"""Tests for NPY parsing, bundle round-trips and CSV reports."""

import json
import os
import struct

import numpy as np
import pytest
from click.testing import CliRunner

import messi.io as mio
from messi import (
    EmOptions,
    FormatError,
    InputError,
    ReportRow,
    build_factorization,
    em_multi_restart,
    load_bundle,
    load_bundle_meta,
    load_matrix,
    parse_report,
    render_report,
    save_bundle,
    save_matrix,
    write_report,
)
from messi.cli import main
from messi.linalg import CHUNK_ROWS


def make_factorization(seed=0, n=12, d=5, k=2, j=2):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d))
    clus = em_multi_restart(pts, k, j, EmOptions(restarts=4, seed=seed))
    return pts, clus, build_factorization(pts, clus)


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

    def test_float32_widened_exactly(self, tmp_path):
        rng = np.random.default_rng(4)
        m32 = rng.standard_normal((7, 3)).astype(np.float32)
        path = tmp_path / "m.npy"
        np.save(path, m32)
        loaded = load_matrix(path)
        assert loaded.dtype == np.float64
        np.testing.assert_array_equal(loaded, m32.astype(np.float64))


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
        v = np.full((2, 5), 0.5)
        mio._write_npy(bundle / "v_0.npy", v, "<f8")
        with pytest.raises(FormatError, match="invariant|orthonormal"):
            load_bundle(bundle)

    def test_nan_in_basis_rejected(self, tmp_path):
        _, clus, fact = make_factorization(seed=8)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost)
        v = np.load(bundle / "v_0.npy")
        v[0, 0] = np.nan
        mio._write_npy(bundle / "v_0.npy", v, "<f8")
        with pytest.raises(FormatError, match="orthonormal"):
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
        ("u_1.npy", lambda path: path.write_bytes(path.read_bytes()[:-8]), "data truncated"),
        ("v_0.npy", lambda path: path.write_bytes(path.read_bytes() + b"\x00"), "trailing bytes"),
        ("u_0.npy", lambda path: mio._write_npy(path, np.load(path)[:-1], "<f8"), "meta implies"),
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
        _, clus, fact = make_factorization(seed=16)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost)
        meta = json.loads((bundle / "meta.json").read_text())
        meta[key] = value
        (bundle / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="too large to allocate"):
            load_bundle(bundle)

    def test_missing_array_file(self, tmp_path):
        _, clus, fact = make_factorization(seed=11)
        bundle = tmp_path / "b"
        save_bundle(fact, bundle, cost=clus.cost)
        (bundle / "u_1.npy").unlink()
        with pytest.raises(FormatError, match="u_1"):
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
        ("converged", "no"), ("converged", 1),
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
