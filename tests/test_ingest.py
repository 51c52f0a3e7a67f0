"""Snapshot I/O, dictionary evaluation, and delay embedding."""

from __future__ import annotations

import json
import pickle
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from specguard.errors import FormatError, InsufficientDataError, ShapeError
from specguard.ingest import (
    CSV_MAGIC,
    DictionarySpec,
    SnapshotSeries,
    _parse_csv_rows,
    delay_embed,
    evaluate_dictionary,
    load_snapshots,
    monomial_exponents,
    write_snapshots,
)


def _random_series(m=7, n=3, seed=0, kind="iid", dt=None):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    b = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    return SnapshotSeries(a, b, kind, dt=dt)


class TestSnapshotSeries:
    def test_shape_and_accessors(self):
        s = _random_series(m=5, n=4)
        assert s.M == 5
        assert s.N == 4

    def test_arrays_are_frozen(self):
        s = _random_series()
        with pytest.raises(ValueError):
            s.a[0, 0] = 0.0

    def test_the_callers_arrays_stay_theirs(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
        b = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
        whole = SnapshotSeries(a, b, "iid")
        head = SnapshotSeries(a[:5], b[:5], "iid")
        saved = whole.a.copy(), whole.b.copy()
        assert a.flags.writeable and b.flags.writeable
        a[0, 0] = 7.0
        b[:] = 0.0
        assert_array_equal(whole.a, saved[0])
        assert_array_equal(whole.b, saved[1])
        assert_array_equal(head.a, saved[0][:5])
        assert_array_equal(head.b, saved[1][:5])

    def test_a_pickled_series_starts_with_an_empty_memo(self):
        s = _random_series()
        s._memo.get_or_build("gram", lambda: "filled")
        back = pickle.loads(pickle.dumps(s))
        assert_array_equal(back.a, s.a)
        assert not back.a.flags.writeable
        assert back._memo.get_or_build("gram", lambda: "rebuilt") == "rebuilt"

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError):
            SnapshotSeries(np.zeros((3, 2)), np.zeros((3, 3)), "iid")

    def test_non_finite_rejected(self):
        a = np.zeros((3, 2), dtype=complex)
        b = a.copy()
        b[1, 0] = np.nan
        with pytest.raises(FormatError):
            SnapshotSeries(a, b, "iid")

    def test_unknown_kind_rejected(self):
        with pytest.raises(FormatError):
            SnapshotSeries(np.zeros((3, 2)), np.zeros((3, 2)), "stream")


class TestRealStorage:
    """A series with no nonzero imaginary part is stored once, as float64."""

    @pytest.mark.parametrize("as_complex", [False, True], ids=["real", "zero-imaginary"])
    def test_real_data_is_stored_as_owned_read_only_float64(self, as_complex):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
        if as_complex:
            a, b = a.astype(complex), b.astype(complex)
        s = SnapshotSeries(a, b, "iid")
        for got, given in ((s.a, a), (s.b, b)):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert not got.flags.writeable and not np.may_share_memory(got, given)
            assert_array_equal(got, given.real)
        assert a.flags.writeable and b.flags.writeable

    @pytest.mark.parametrize("where", ["a", "b"])
    def test_one_tiny_imaginary_part_keeps_both_complex(self, where):
        rng = np.random.default_rng(6)
        parts = {"a": rng.normal(size=(7, 3)).astype(complex), "b": rng.normal(size=(7, 3))}
        parts[where] = parts[where] + 0j
        parts[where][4, 2] += 1e-300j
        s = SnapshotSeries(parts["a"], parts["b"], "iid")
        assert s.a.dtype == s.b.dtype == np.complex128
        assert getattr(s, where)[4, 2].imag == 1e-300

    @pytest.mark.parametrize("as_complex", [False, True], ids=["real", "zero-imaginary"])
    def test_a_real_series_holds_its_samples_once(self, as_complex):
        m, n = 20_000, 10
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(m, n)), rng.normal(size=(m, n))
        if as_complex:
            a, b = a.astype(complex), b.astype(complex)
        tracemalloc.start()
        try:
            s = SnapshotSeries(a, b, "iid")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.a.dtype == float
        assert held <= 2 * m * n * 8 + 64 * 1024
        # Scanning complex input for nonzero imaginary parts may take a byte per entry.
        assert peak <= held + (m * n if as_complex else 0) + 64 * 1024

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_real_round_trip_loads_real_and_rewrites_the_same_bytes(self, tmp_path, fmt):
        x = np.random.default_rng(8).uniform(0.0, 2 * np.pi, size=(12, 1))
        s = evaluate_dictionary(x, (2 * x) % (2 * np.pi), DictionarySpec.trig(4), "trajectory", 0.5)
        first, second = tmp_path / f"first.{fmt}", tmp_path / f"second.{fmt}"
        write_snapshots(s, first, format=fmt)
        back = load_snapshots(first)
        assert back.a.dtype == back.b.dtype == np.float64
        assert_array_equal(back.a, s.a)
        assert_array_equal(back.b, s.b)
        write_snapshots(back, second, format=fmt)
        assert second.read_bytes() == first.read_bytes()


def _owned_frozen_contiguous(x: np.ndarray) -> bool:
    return x.base is None and x.flags.owndata and x.flags.c_contiguous and not x.flags.writeable


class TestBuiltSeriesAreStoredOnce:
    """Series that specguard builds keep the arrays it allocated; a caller's arrays are copied."""

    def test_the_identity_dictionary_copies_the_callers_arrays(self):
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
        s = evaluate_dictionary(x, y, DictionarySpec.identity(3))
        for got, given in ((s.a, x), (s.b, y)):
            assert not np.may_share_memory(got, given) and given.flags.writeable
            assert _owned_frozen_contiguous(got)
        x[0, 0] = 99.0
        assert s.a[0, 0] != 99.0

    @pytest.mark.parametrize(
        "builder, as_complex",
        [("trig", False), ("monomial", False), ("delay_embed", False),
         ("csv", False), ("csv", True), ("json", False), ("json", True)],
    )
    def test_built_arrays_are_owned_read_only_and_contiguous(self, tmp_path, builder, as_complex):
        rng = np.random.default_rng(10)
        x = rng.uniform(0.0, 2 * np.pi, size=(30, 2))
        if builder == "trig":
            s = evaluate_dictionary(x[:, :1], x[:, 1:], DictionarySpec.trig(6))
        elif builder == "monomial":
            s = evaluate_dictionary(x, 2 * x, DictionarySpec.monomial_delay(2, 1, 2))
        elif builder == "delay_embed":
            s = delay_embed(x, DictionarySpec.monomial_delay(2, 3, 2), step=2)
        else:
            s = _random_series(m=30, n=4, seed=11)
            if not as_complex:
                s = evaluate_dictionary(x[:, :1], x[:, 1:], DictionarySpec.trig(4))
            write_snapshots(s, tmp_path / f"s.{builder}", format=builder)
            s = load_snapshots(tmp_path / f"s.{builder}")
        assert s.a.dtype == s.b.dtype == (np.complex128 if as_complex else np.float64)
        # No view into anything: a loaded series keeps none into the parse buffer.
        assert _owned_frozen_contiguous(s.a) and _owned_frozen_contiguous(s.b)
        assert not np.may_share_memory(s.a, s.b)

    @pytest.mark.parametrize("builder", ["trig", "monomial", "delay_embed"])
    def test_a_built_series_is_held_once_while_it_is_built(self, builder):
        m, n = 20_000, 10
        rng = np.random.default_rng(12)
        x = rng.uniform(0.0, 2 * np.pi, size=(m + 4, 3))
        tracemalloc.start()
        try:
            if builder == "trig":
                s = evaluate_dictionary(x[:m, :1], x[:m, 1:2], DictionarySpec.trig(n))
            elif builder == "monomial":
                spec = DictionarySpec.monomial_delay(2, 1, 3)
                s = evaluate_dictionary(x[:m], x[1 : m + 1], spec)
            else:
                s = delay_embed(x, DictionarySpec.monomial_delay(1, 3, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.M == m and s.N == n
        # A copy of the samples would add s.a.nbytes + s.b.nbytes (20 columns of M).
        assert peak <= s.a.nbytes + s.b.nbytes + 6 * m * 8 + 64 * 1024


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_exact_round_trip(self, tmp_path, fmt):
        # repr-based float formatting must survive a write/load cycle bit-for-bit
        s = _random_series(m=9, n=5, seed=3, kind="trajectory", dt=0.25)
        path = tmp_path / f"snap.{fmt}"
        write_snapshots(s, path, format=fmt)
        back = load_snapshots(path)
        assert_array_equal(back.a, s.a)
        assert_array_equal(back.b, s.b)
        assert back.sampling_kind == "trajectory"
        assert back.dt == 0.25

    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    def test_csv_is_written_in_row_blocks(self, tmp_path, complex_data):
        # Many blocks of rows round-trip, and no text, list or copy of the
        # whole series is held while they are written.
        m, n = 4000, 10
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(m, n)), rng.normal(size=(m, n))
        if complex_data:
            a = a + 1j * rng.normal(size=(m, n))
        s = SnapshotSeries(a, b, "trajectory", dt=0.5)
        path = tmp_path / "snap.csv"
        tracemalloc.start()
        try:
            write_snapshots(s, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < s.a.nbytes + s.b.nbytes
        back = load_snapshots(path)
        assert_array_equal(back.a, s.a)
        assert_array_equal(back.b, s.b)

    def test_csv_header_magic(self, tmp_path):
        s = _random_series()
        path = tmp_path / "snap.csv"
        write_snapshots(s, path)
        first = path.read_text().splitlines()[0]
        assert first.startswith(CSV_MAGIC)
        assert "N=3" in first and "kind=iid" in first and "dt=none" in first

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(FormatError, match="header"):
            load_snapshots(path)

    def test_bad_row_width_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"{CSV_MAGIC} N=1 kind=iid dt=none\n"
            "1.0,0.0,2.0,0.0\n"
            "1.0,0.0,2.0\n"
        )
        with pytest.raises(ShapeError, match="row 1"):
            load_snapshots(path)

    def test_non_finite_row_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"{CSV_MAGIC} N=1 kind=iid dt=none\n"
            "1.0,0.0,2.0,0.0\n"
            "inf,0.0,2.0,0.0\n"
        )
        with pytest.raises(FormatError, match="row 1"):
            load_snapshots(path)

    def test_single_pair_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(f"{CSV_MAGIC} N=1 kind=iid dt=none\n1.0,0.0,2.0,0.0\n")
        with pytest.raises(InsufficientDataError):
            load_snapshots(path)

    def test_json_schema_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/v9", "N": 1}')
        with pytest.raises(FormatError, match="schema"):
            load_snapshots(path)

    def test_the_layout_is_read_from_the_file_not_its_name(self, tmp_path):
        s = _random_series(m=6, n=2, seed=4, kind="trajectory", dt=0.5)
        for fmt, name in (("json", "snap.csv"), ("csv", "snap.json")):
            write_snapshots(s, tmp_path / name, format=fmt)
            back = load_snapshots(tmp_path / name)
            assert_array_equal(back.a, s.a)
            assert_array_equal(back.b, s.b)
            assert back.dt == 0.5

    @pytest.mark.parametrize("dt", ["0", "-1", "nan", "inf"])
    def test_a_dt_that_is_not_positive_and_finite_fails_at_load(self, tmp_path, dt):
        path = tmp_path / "s.csv"
        path.write_text(f"{CSV_MAGIC} N=1 kind=trajectory dt={dt}\n1,0,2,0\n3,0,4,0\n")
        with pytest.raises(FormatError, match="dt must be positive and finite"):
            load_snapshots(path)

    def test_a_json_dt_of_zero_fails_and_an_integer_dt_loads_as_a_float(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({**self.GOOD_JSON, "dt": 0}))
        with pytest.raises(FormatError, match="dt must be positive and finite, got 0"):
            load_snapshots(path)
        path.write_text(json.dumps({**self.GOOD_JSON, "dt": 2}))
        assert repr(load_snapshots(path).dt) == "2.0"

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf])
    def test_the_builders_refuse_a_dt_that_is_not_positive_and_finite(self, dt):
        x = np.ones((8, 1))
        with pytest.raises(FormatError, match="dt must be positive and finite"):
            delay_embed(x, DictionarySpec.monomial_delay(1, 2, 1), dt=dt)
        with pytest.raises(FormatError, match="dt must be positive and finite"):
            evaluate_dictionary(x, x, DictionarySpec.trig(2), "trajectory", dt=dt)

    GOOD_JSON = {
        "schema": "specguard/v1/snapshots", "N": 1, "kind": "iid", "dt": None,
        "a_re": [[1.0], [2.0]], "a_im": [[0.0], [0.0]],
        "b_re": [[3.0], [4.0]], "b_im": [[0.0], [0.0]],
    }

    @pytest.mark.parametrize(
        "fmt,text,error,match",
        [
            ("json", json.dumps({k: v for k, v in GOOD_JSON.items() if k != "kind"}),
             FormatError, "missing field 'kind'"),
            ("json", json.dumps({**GOOD_JSON, "a_re": [[1.0], [2.0, 3.0]]}),
             FormatError, "field 'a_re' is not a numeric matrix"),
            ("json", json.dumps([GOOD_JSON]), FormatError, "expected a JSON object, got list"),
            ("json", json.dumps(GOOD_JSON)[:-1], FormatError, "is not valid JSON"),
            ("csv", f"{CSV_MAGIC} N=x kind=iid dt=none\n1,0,2,0\n3,0,4,0\n",
             FormatError, "N='x' is not a positive integer"),
            ("csv", f"{CSV_MAGIC} N=1 kind=iid dt=abc\n1,0,2,0\n3,0,4,0\n",
             FormatError, "dt='abc' is neither a number nor 'none'"),
            ("json", json.dumps({**GOOD_JSON, "N": 3}),
             ShapeError, "declares N=3, but its arrays have 1 columns"),
        ],
        ids=["no-kind", "ragged", "list", "syntax", "csv-N", "csv-dt", "json-N"],
    )
    def test_malformed_files_raise_a_named_error(self, tmp_path, fmt, text, error, match):
        path = tmp_path / f"bad.{fmt}"
        path.write_text(text)
        with pytest.raises(error, match=match):
            load_snapshots(path)
        path.write_text(json.dumps(self.GOOD_JSON))
        assert load_snapshots(path).N == 1


class TestCsvWriter:
    """The CSV writer's bytes, against a reference that formats entry by entry."""

    @staticmethod
    def _reference(s: SnapshotSeries) -> bytes:
        dt = "none" if s.dt is None else repr(float(s.dt))
        lines = [f"{CSV_MAGIC} N={s.N} kind={s.sampling_kind} dt={dt}"]
        for m in range(s.M):
            cells = []
            for z in (*s.a[m], *s.b[m]):
                cells += [repr(float(z.real)), repr(float(z.imag))]
            lines.append(",".join(cells))
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("kind, dt", [("iid", None), ("trajectory", 0.25), ("trajectory", 1e-7)])
    @pytest.mark.parametrize("as_complex", [False, True], ids=["real", "complex"])
    def test_bytes_match_the_entry_by_entry_reference(self, tmp_path, kind, dt, as_complex):
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=(25, 3)), rng.normal(size=(25, 3)) * 1e-300
        a[0, 0], b[1, 2], a[2, 1] = -0.0, 5e-324, 1e300
        if as_complex:
            a = a + 1j * rng.normal(size=a.shape)
            a[3, 0], b = complex(-0.0, -0.0), b - 0.0j
        s = SnapshotSeries(a, b, kind, dt=dt)
        assert s.a.dtype == (np.complex128 if as_complex else np.float64)
        path = tmp_path / "s.csv"
        write_snapshots(s, path)
        assert path.read_bytes() == self._reference(s)


class TestJsonWriter:
    """The JSON writer's bytes, against the document written whole, and the memory it holds."""

    @staticmethod
    def _reference(s: SnapshotSeries) -> bytes:
        doc = {
            "schema": "specguard/v1/snapshots", "N": s.N, "kind": s.sampling_kind, "dt": s.dt,
            "a_re": s.a.real.tolist(), "a_im": s.a.imag.tolist(),
            "b_re": s.b.real.tolist(), "b_im": s.b.imag.tolist(),
        }
        return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()

    @pytest.mark.parametrize("dt", [None, 0.05])
    @pytest.mark.parametrize("m, as_complex", [(25, False), (25, True), (1, False)],
                             ids=["real", "complex", "one-row"])
    def test_bytes_match_the_whole_document(self, tmp_path, m, as_complex, dt):
        rng = np.random.default_rng(14)
        a, b = rng.normal(size=(m, 3)), rng.normal(size=(m, 3)) * 1e-300
        a[0, 0], b[0, 2] = -0.0, 5e-324
        if as_complex:
            a = a + 1j * rng.normal(size=a.shape)
        s = SnapshotSeries(a, b, "trajectory", dt=dt)
        path = tmp_path / "s.json"
        write_snapshots(s, path, format="json")
        assert path.read_bytes() == self._reference(s)

    @pytest.mark.parametrize("as_complex", [False, True], ids=["real", "complex"])
    def test_no_list_or_text_of_the_whole_series_is_held(self, tmp_path, as_complex):
        m, n = 4000, 10
        rng = np.random.default_rng(15)
        a, b = rng.normal(size=(m, n)), rng.normal(size=(m, n))
        if as_complex:
            a = a + 1j * rng.normal(size=(m, n))
        s = SnapshotSeries(a, b, "iid")
        path = tmp_path / "s.json"
        tracemalloc.start()
        try:
            write_snapshots(s, path, format="json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (s.a.nbytes + s.b.nbytes) / 4
        back = load_snapshots(path)
        assert_array_equal(back.a, s.a)
        assert_array_equal(back.b, s.b)


class TestCsvLayout:
    """What the CSV loader accepts beyond the writer's exact layout, and what it names."""

    HEADER = f"{CSV_MAGIC} N=1 kind=iid dt=none"
    ROWS = ["1.5,-0.25,2.0,0.5", "3.0,0.0,-4.0,1e-3", "0.125,2.0,5.0,-6.0"]

    def _load(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        return load_snapshots(path)

    def _expected(self):
        flat = np.array([[float(c) for c in row.split(",")] for row in self.ROWS])
        return flat[:, 0] + 1j * flat[:, 1], flat[:, 2] + 1j * flat[:, 3]

    @pytest.mark.parametrize(
        "layout",
        ["plain", "blank_lines", "whitespace_line", "crlf", "spaces", "leading_blank"],
    )
    def test_accepted_layouts_give_the_same_series(self, tmp_path, layout):
        rows, header = list(self.ROWS), self.HEADER
        if layout == "blank_lines":
            text = "\n\n".join([header, *rows]) + "\n\n"
        elif layout == "whitespace_line":
            text = "\n".join([header, rows[0], "  \t", *rows[1:]]) + "\n"
        elif layout == "crlf":
            text = "\r\n".join([header, *rows]) + "\r\n"
        elif layout == "spaces":
            rows = [" " + row.replace(",", " , ") + " " for row in rows]
            text = "\n".join([header, *rows]) + "\n"
        elif layout == "leading_blank":
            text = "\n \n" + "\n".join([header, *rows])
        else:
            text = "\n".join([header, *rows]) + "\n"
        series = self._load(tmp_path, text)
        a, b = self._expected()
        assert_array_equal(series.a[:, 0], a)
        assert_array_equal(series.b[:, 0], b)

    def test_the_one_pass_parse_equals_the_row_by_row_parse(self, tmp_path):
        path = tmp_path / "s.csv"
        write_snapshots(_random_series(m=40, n=3, seed=5), path)
        lines = path.read_text().splitlines()
        flat = _parse_csv_rows(lines[1:], 3)
        series = load_snapshots(path)
        assert series.a.real.tobytes() == np.ascontiguousarray(flat[:, 0:6:2]).tobytes()
        assert series.b.imag.tobytes() == np.ascontiguousarray(flat[:, 7::2]).tobytes()

    def test_a_comment_line_after_the_header_is_an_error(self, tmp_path):
        text = "\n".join([self.HEADER, "# a comment", *self.ROWS]) + "\n"
        with pytest.raises(ShapeError, match="row 0: expected 4 columns for N=1, got 1"):
            self._load(tmp_path, text)
        text = "\n".join([self.HEADER, self.ROWS[0], "#1,2,3,4", *self.ROWS[1:]]) + "\n"
        with pytest.raises(FormatError, match="row 1: non-numeric entry"):
            self._load(tmp_path, text)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_rows_are_named(self, tmp_path, cell):
        rows = list(self.ROWS)
        rows[2] = rows[2].replace("5.0", cell)
        with pytest.raises(FormatError, match="row 2: non-finite entry"):
            self._load(tmp_path, "\n".join([self.HEADER, *rows]) + "\n")

    def test_the_first_bad_row_is_named_whatever_its_fault(self, tmp_path):
        rows = list(self.ROWS)
        rows[1] = rows[1].replace("3.0", "nan")
        rows[2] = rows[2].replace("5.0", "x")
        with pytest.raises(FormatError, match="row 1: non-finite entry"):
            self._load(tmp_path, "\n".join([self.HEADER, *rows]) + "\n")
        rows = [row + ",7.0" for row in self.ROWS]
        with pytest.raises(ShapeError, match="row 0: expected 4 columns for N=1, got 5"):
            self._load(tmp_path, "\n".join([self.HEADER, *rows]) + "\n")

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_an_empty_file_is_a_format_error(self, tmp_path, text):
        with pytest.raises(FormatError, match="is empty"):
            self._load(tmp_path, text)

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_pairs_are_rejected(self, tmp_path, count):
        text = "\n".join([self.HEADER, *self.ROWS[:count]]) + "\n"
        with pytest.raises(InsufficientDataError, match=f"holds {count} pairs; need at least 2"):
            self._load(tmp_path, text)


class TestDictionarySpec:
    def test_trig_requires_even(self):
        with pytest.raises(ShapeError):
            DictionarySpec.trig(7)

    def test_monomial_count_3d_degree3(self):
        # degree 1..3, per-variable exponent <= 2, at most two variables active
        exps = monomial_exponents(3, 3)
        assert len(exps) == 15
        degs = [sum(e) for e in exps]
        assert degs == sorted(degs)
        assert all(max(e) <= 2 for e in exps)
        assert all(sum(1 for k in e if k) <= 2 for e in exps)

    def test_delay_dictionary_width(self):
        spec = DictionarySpec.monomial_delay(3, 10, 3)
        assert spec.n_obs == 151

    def test_identity(self):
        spec = DictionarySpec.identity(4)
        assert spec.n_obs == 4


class TestEvaluateDictionary:
    def test_trig_columns(self):
        x = np.array([0.0, np.pi / 2])
        s = evaluate_dictionary(x, x, DictionarySpec.trig(4))
        # columns: 1, cos x, sin x, cos 2x
        assert_allclose(s.a[0], [1.0, 1.0, 0.0, 1.0], atol=1e-15)
        assert_allclose(s.a[1], [1.0, 0.0, 1.0, -1.0], atol=1e-15)

    def test_identity_passthrough(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(6, 3))
        s = evaluate_dictionary(x, y, DictionarySpec.identity(3))
        assert_allclose(s.a, x)
        assert_allclose(s.b, y)

    def test_monomial_single_delay(self):
        x = np.array([[2.0, 3.0]])
        y = np.array([[1.0, 1.0]])
        spec = DictionarySpec.monomial_delay(2, 1, 2)
        s = evaluate_dictionary(x, y, spec, sampling_kind="iid")
        # exponents for degree<=2 in 2 vars: x, y, x^2, xy, y^2 after the constant
        vals = sorted(s.a[0].real.tolist())
        assert vals == sorted([1.0, 2.0, 3.0, 4.0, 6.0, 9.0])

    def test_trig_needs_scalar_states(self):
        with pytest.raises(ShapeError):
            evaluate_dictionary(np.zeros((4, 2)), np.zeros((4, 2)), DictionarySpec.trig(4))


class TestDelayEmbed:
    def test_shift_identity(self):
        """b_m must equal a_{m+step} wherever both windows exist."""
        rng = np.random.default_rng(7)
        traj = rng.normal(size=(40, 3))
        spec = DictionarySpec.monomial_delay(3, 4, 3)
        s = delay_embed(traj, spec, step=1, dt=0.2)
        assert s.M == 40 - 4 - 1
        assert s.N == spec.n_obs
        assert_allclose(s.b[:-1], s.a[1:], rtol=0, atol=0)
        assert s.sampling_kind == "trajectory"

    def test_constant_column(self):
        traj = np.random.default_rng(0).normal(size=(20, 2))
        spec = DictionarySpec.monomial_delay(2, 3, 2)
        s = delay_embed(traj, spec)
        assert_array_equal(s.a[:, 0].real, np.ones(s.M))
        assert_array_equal(s.a[:, 0].imag, np.zeros(s.M))

    def test_rows_follow_the_window_with_any_step(self):
        traj = np.random.default_rng(15).normal(size=(25, 2))
        spec = DictionarySpec.monomial_delay(2, 3, 2)
        exps = monomial_exponents(2, 2)

        def row(t):  # the constant, then the monomials at t, t - 1, t - 2
            return [1.0] + [float(np.prod(traj[t - d] ** np.array(e))) for d in range(3) for e in exps]

        s = delay_embed(traj, spec, step=3)
        assert s.M == 25 - 3 - 3
        for m in (0, 7, s.M - 1):
            assert_allclose(s.a[m], row(m + 3), rtol=1e-15)
            assert_allclose(s.b[m], row(m + 6), rtol=1e-15)

    def test_too_short_trajectory(self):
        spec = DictionarySpec.monomial_delay(3, 10, 3)
        with pytest.raises(InsufficientDataError):
            delay_embed(np.zeros((11, 3)), spec, step=1)

    def test_wrong_variant_rejected(self):
        with pytest.raises(ShapeError):
            delay_embed(np.zeros((30, 1)), DictionarySpec.trig(4))
