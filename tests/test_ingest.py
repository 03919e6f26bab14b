import tracemalloc

import numpy as np
import pytest

from semgmm import (
    DataError,
    DataSet,
    MixtureModel,
    load_csv,
    load_model,
    normalize,
    save_csv,
    save_model,
)
import semgmm.ingest
from semgmm.ingest import _parse_rows
from semgmm.rng import substream

from conftest import make_instance


class TestCsvRoundTrip:
    def test_value_exact(self, tmp_path):
        pts = substream(111).normal(size=(30, 3)) * 1e6
        pts[0, 0] = 1.0 / 3.0
        data = DataSet(pts)
        path = tmp_path / "data.csv"
        save_csv(data, path)
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.points, data.points)

    def test_load_simple(self, tmp_path):
        path = tmp_path / "simple.csv"
        path.write_text("1.5,2\n-3,0.25\n")
        data = load_csv(path)
        np.testing.assert_array_equal(data.points, [[1.5, 2.0], [-3.0, 0.25]])

    def test_ragged_row_named(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_bad_token_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,abc\n")
        with pytest.raises(DataError, match="row 2, column 2"):
            load_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("1,inf\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")


# files that numpy's loadtxt would read differently from the row parser, or
# not at all; load_csv must give the row parser's value or message
CSV_EDGES = {
    "nan-token": "1,2\nnan,4\n",
    "inf-token": "1,2\n3,-inf\n",
    "overflow-token": "1,1e500\n",
    "blank-line-inside": "1,2\n\n3,4\n",
    "blank-lines-trailing": "1,2\n3,4\n\n\n",
    "blank-line-one-column": "1\n\n2\n",
    "whitespace-line": "1,2\n \n3,4\n",
    "ragged": "1,2\n3\n",
    "ragged-wide": "1,2\n3,4,5\n",
    "empty-field": "1,,2\n",
    "trailing-comma": "1,2,\n",
    "header": "x,y\n1,2\n",
    "comment": "# note\n1,2\n",
    "empty": "",
    "blank-only": "\n\n",
    "leading-blank-lines": "\n\n1,2\n3,4\n",
    "crlf": "1,2\r\n3,4\r\n",
    "no-final-newline": "1,2\n3,4",
    "spaces": " 1 , 2 \n3,4\n",
    "underscore-digits": "1_0,2\n",
    "one-column": "1\n2\n3\n",
    "crlf-blank-line-inside": "1,2\r\n\r\n3,4\r\n",
    "crlf-blank-line-trailing": "1,2\r\n3,4\r\n\r\n",
    "cr-line-endings": "1,2\r3,4\r",
    "utf8-bom": "\ufeff1,2\n3,4\n",
    "tab-line": "1,2\n\t\n3,4\n",
    "whitespace-line-crlf": "1,2\r\n \r\n3,4\r\n",
}


def _outcome(load, path):
    try:
        return "value", load(path).points.tolist()
    except DataError as exc:
        return "error", str(exc)


class TestCsvFastPath:
    @pytest.mark.parametrize("text", list(CSV_EDGES.values()), ids=list(CSV_EDGES))
    def test_same_value_or_message_as_row_parser(self, tmp_path, text):
        path = tmp_path / "edge.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(load_csv, path) == _outcome(_parse_rows, path)

    def test_well_formed_file_skips_row_parser(self, tmp_path, monkeypatch):
        pts = substream(113).normal(size=(200, 4)) * 1e3
        path = tmp_path / "data.csv"
        save_csv(DataSet(pts), path)

        def unexpected(path):
            raise AssertionError("row parser used for a well-formed file")

        monkeypatch.setattr(semgmm.ingest, "_parse_rows", unexpected)
        np.testing.assert_array_equal(load_csv(path).points, pts)

    def test_rejection_names_row_and_column(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text(CSV_EDGES["nan-token"])
        with pytest.raises(DataError, match="row 2, column 1: non-finite"):
            load_csv(path)


class TestCsvChunkBoundaries:
    """load_csv's pre-scan reads fixed-size chunks; with a chunk of a few
    bytes every byte pair of these files straddles some boundary."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "text", ["1,2\n\n3,4\n", "1,2\r\n\r\n3,4\r\n", "1,2\r\r3,4\r"],
        ids=["lf", "crlf", "cr"],
    )
    def test_blank_line_across_chunks_rejected(self, tmp_path, monkeypatch, chunk, text):
        monkeypatch.setattr(semgmm.ingest, "_CHUNK", chunk)
        path = tmp_path / "blank.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(DataError, match="row 2 has 1 fields, expected 2"):
            load_csv(path)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, 6, 7])
    def test_split_multibyte_character_is_utf8(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(semgmm.ingest, "_CHUNK", chunk)
        path = tmp_path / "euro.csv"
        path.write_bytes("1,2\n3,\u20ac\n".encode("utf-8"))
        with pytest.raises(DataError, match="row 2, column 2: bad token '\u20ac'"):
            load_csv(path)

    @pytest.mark.parametrize("chunk", [1, 3, 4, 7])
    @pytest.mark.parametrize(
        "raw", [b"1,2\n3,4\n5,\xff\n", b"1,2\n3,4\n5,\xe2\x82x\n", b"1,2\n3,4\n5,\xe2\x82"],
        ids=["invalid-start", "invalid-continuation", "truncated"],
    )
    def test_bad_byte_at_absolute_offset(self, tmp_path, monkeypatch, chunk, raw):
        monkeypatch.setattr(semgmm.ingest, "_CHUNK", chunk)
        path = tmp_path / "bad.csv"
        path.write_bytes(raw)
        with pytest.raises(UnicodeDecodeError) as want:
            raw.decode("utf-8")
        with pytest.raises(DataError) as got:
            load_csv(path)
        assert str(got.value) == (
            f"{path}: not UTF-8 text (byte {want.value.start}: {want.value.reason})"
        )
        assert want.value.start >= 10


def test_load_csv_peak_memory(tmp_path):
    """Parsing allocates about two arrays of the float64 data (numpy's N x D
    result and the D x N DataSet buffer), not copies of the file's text."""
    pts = substream(116).normal(size=(200_000, 3))
    path = tmp_path / "draw.csv"
    save_csv(DataSet(pts), path)
    tracemalloc.start()
    try:
        data = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(data.points, pts)
    assert peak < 3 * pts.nbytes, peak / pts.nbytes


class TestSaveCsv:
    @pytest.mark.parametrize("d", [1, 3, 7])
    def test_bytes_match_savetxt(self, tmp_path, d):
        rng = substream(117)
        pts = rng.normal(size=(9001, d)) * 10.0 ** rng.integers(-300, 300, size=(9001, d))
        pts[:6, 0] = [-0.0, 5e-324, 2.2e-308, 1e308, -1e308, 1.0 / 3.0]
        path = tmp_path / "data.csv"
        save_csv(DataSet(pts), path)
        np.savetxt(tmp_path / "ref.csv", pts, fmt="%.17g", delimiter=",", newline="\n")
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestModelRoundTrip:
    def test_value_exact(self, tmp_path):
        truth, _, _, _ = make_instance(112, d=3, k=4, n=100)
        path = tmp_path / "model.txt"
        save_model(truth, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.weights, truth.weights)
        np.testing.assert_array_equal(loaded.means, truth.means)
        np.testing.assert_array_equal(loaded.covariances, truth.covariances)

    def test_header_format(self, tmp_path):
        m = MixtureModel([1.0], [[0.0, 0.0]], [np.eye(2)])
        path = tmp_path / "m.txt"
        save_model(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "gmm 1 2"
        assert lines[1].startswith("w ")
        assert lines[2].startswith("mu ")
        assert lines[3].startswith("sigma ") and lines[4].startswith("sigma ")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("mixture 1 2\n")
        with pytest.raises(DataError, match="gmm"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.txt"
        path.write_text("gmm 2 1\nw 0.5\nmu 0\nsigma 1\n")
        with pytest.raises(DataError, match="lines"):
            load_model(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "badval.txt"
        path.write_text("gmm 1 1\nw 1\nmu x\nsigma 1\n")
        with pytest.raises(DataError):
            load_model(path)

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"gmm 1 1\nw 1\nmu \xe9\nsigma 1\n")
        with pytest.raises(DataError, match="not UTF-8"):
            load_model(path)

    def test_invalid_params_rejected(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("gmm 1 1\nw 1\nmu 0\nsigma -1\n")
        with pytest.raises(Exception, match="positive definite"):
            load_model(path)


class TestNormalize:
    def test_unit_range(self):
        pts = substream(113).normal(size=(100, 3)) * 5 + 2
        normalized, record = normalize(DataSet(pts))
        assert normalized.points.min() == 0.0
        assert normalized.points.max() == 1.0
        np.testing.assert_array_equal(
            normalized.points.max(axis=0) - normalized.points.min(axis=0), 1.0
        )
        assert not record.degenerate.any()

    def test_round_trip(self):
        pts = substream(114).normal(size=(60, 2)) * 100
        data = DataSet(pts)
        normalized, record = normalize(data)
        back = record.denormalize(normalized)
        np.testing.assert_allclose(back.points, pts, rtol=1e-14, atol=1e-12)

    def test_constant_column_kept_and_flagged(self):
        pts = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
        normalized, record = normalize(DataSet(pts))
        assert normalized.d == 2
        np.testing.assert_array_equal(normalized.points[:, 1], 0.0)
        np.testing.assert_array_equal(record.degenerate, [False, True])
        assert record.scale[1] == 1.0
        back = record.denormalize(normalized)
        np.testing.assert_array_equal(back.points[:, 1], 3.0)

    def test_record_save(self, tmp_path):
        pts = substream(115).normal(size=(20, 2))
        _, record = normalize(DataSet(pts))
        path = tmp_path / "norm.csv"
        record.save(path)
        lines = path.read_text().splitlines()
        offset = [float(v) for v in lines[0].split(",")]
        scale = [float(v) for v in lines[1].split(",")]
        np.testing.assert_array_equal(offset, record.offset)
        np.testing.assert_array_equal(scale, record.scale)
