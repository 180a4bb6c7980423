import io
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_rng, sparsify, to_csr
import nmfkit.mio as mio_mod
from nmfkit.errors import (DomainError, IoError, OutOfMemoryError, ParamError,
                           ParseError, ShapeError)
from nmfkit.factor import FactorConfig, factorize
from nmfkit.matcore import DataMatrix
from nmfkit.mio import (read_matrix, synth, write_matrix, write_summary,
                        write_text)


class TestReadMtx:
    def test_coordinate_single_entry(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "% a comment\n"
                        "2 2 1\n"
                        "1 1 3.0\n")
        m = read_matrix(path)
        assert m.is_sparse and m.shape == (2, 2) and m.nnz == 1
        np.testing.assert_array_equal(m.to_dense(), [[3.0, 0.0], [0.0, 0.0]])

    def test_array_is_column_major(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n"
                        "2 2\n1\n2\n3\n4\n")
        m = read_matrix(path)
        np.testing.assert_array_equal(m.to_dense(), [[1.0, 3.0], [2.0, 4.0]])

    def test_entry_count_mismatch(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 3.0\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket tensor coordinate real general\n1 1 0\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_unsupported_field(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n"
                        "1 1 1\n1 1 1.0 0.0\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_nan_rejected_with_parse_error(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "1 1 1\n1 1 nan\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_out_of_bounds_index(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n3 1 1.0\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert "line" in str(err.value)

    def test_duplicate_entry(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 1.0\n1 1 2.0\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_negative_entry_kept_until_factorize(self, tmp_path):
        # V >= 0 is a rule of the model input, checked by factorize alone
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "1 1 1\n1 1 -2.0\n")
        m = read_matrix(path)
        assert m.to_dense()[0, 0] == -2.0
        with pytest.raises(DomainError, match="negative"):
            factorize(m, FactorConfig(method="nmf-eu", rank=1))

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            read_matrix(tmp_path / "absent.mtx")

    @pytest.mark.parametrize("name", ["m.mtx", "m.csv"])
    def test_non_utf8_file_is_io_error(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"1,2\n3,\xff\n")
        with pytest.raises(IoError, match="^cannot read .*%s: 'utf-8' codec"
                           % name):
            read_matrix(path)

    def test_memory_error_is_typed(self, tmp_path, monkeypatch):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n"
                        "1 1\n2.0\n")

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(mio_mod, "_read_mtx", exhausted)
        with pytest.raises(OutOfMemoryError, match="m.mtx") as info:
            read_matrix(path)
        assert info.value.kind == "memory"

    def test_loadtxt_memory_error_is_typed(self, tmp_path, monkeypatch):
        # loadtxt's MemoryError is no refusal: no fallback swallows it
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "1 1 1\n1 1 2.0\n")

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(mio_mod.np, "loadtxt", exhausted)
        with pytest.raises(OutOfMemoryError, match="m.mtx") as info:
            read_matrix(path)
        assert info.value.kind == "memory"


class TestReadCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        np.testing.assert_array_equal(read_matrix(path).to_dense(),
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("alpha,beta\n1,2\n3,4\n")
        np.testing.assert_array_equal(read_matrix(path).to_dense(),
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_inf_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,inf\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_unknown_format_is_param_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n")
        with pytest.raises(ParamError, match="^unknown matrix format 'tsv'$"):
            read_matrix(path, "tsv")

    def test_unknown_extension_needs_format(self, tmp_path):
        path = tmp_path / "m.dat"
        path.write_text("1,2\n")
        with pytest.raises(ParamError):
            read_matrix(path)
        np.testing.assert_array_equal(read_matrix(path, fmt="csv").to_dense(),
                                      [[1.0, 2.0]])


MTX_COORD = "%%MatrixMarket matrix coordinate real general\n"
MTX_ARRAY = "%%MatrixMarket matrix array real general\n"


class TestReaderErrors:
    """The exact text of every reader ParseError.  The first faulty line in
    file order wins; within a line the checks run in the order field
    count, indices, bounds, duplicate, number, finite."""

    @pytest.mark.parametrize("name, text, message", [
        ("m.mtx", "", "line 1: empty MatrixMarket file"),
        ("m.mtx", "  ", "line 1: malformed MatrixMarket header"),
        ("m.mtx", "\t", "line 1: malformed MatrixMarket header"),
        ("m.mtx", " \n", "line 1: malformed MatrixMarket header"),
        ("m.mtx", "%%MatrixMarket tensor coordinate real general\n1 1 0\n",
         "line 1: malformed MatrixMarket header"),
        ("m.mtx", "%%MatrixMarket matrix diagonal real general\n1 1 0\n",
         "line 1: unsupported layout 'diagonal'"),
        ("m.mtx", "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
         "line 1: only 'real general' matrices are supported"),
        ("m.mtx", MTX_COORD + "% only a comment\n\n", "missing size line"),
        ("m.mtx", MTX_COORD + "\n2 2\n",
         "line 3: coordinate size line needs 'rows cols nnz'"),
        ("m.mtx", MTX_ARRAY + "2 x\n", "line 2: bad size line"),
        # coordinate body, one fault each
        ("m.mtx", MTX_COORD + "2 2 2\n1 1 3.0\n",
         "entry count 1 does not match declared nnz 2"),
        ("m.mtx", MTX_COORD + "2 2 1\n1 1\n", "line 3: expected 'i j value'"),
        ("m.mtx", MTX_COORD + "2 2 1\n1 1 2 3\n",
         "line 3: expected 'i j value'"),
        ("m.mtx", MTX_COORD + "2 2 1\n1 x 2.0\n",
         "line 3: bad coordinate indices"),
        ("m.mtx", MTX_COORD + "2 2 1\n1.0 1 2.0\n",
         "line 3: bad coordinate indices"),
        ("m.mtx", MTX_COORD + "2 2 1\n3 1 1.0\n",
         "line 3: index (3, 1) out of bounds"),
        ("m.mtx", MTX_COORD + "2 2 1\n1 0 1.0\n",
         "line 3: index (1, 0) out of bounds"),
        ("m.mtx", MTX_COORD + "2 2 1\n99999999999999999999 1 1.0\n",
         "line 3: index (99999999999999999999, 1) out of bounds"),
        ("m.mtx", MTX_COORD + "2 2 1\n1 -99999999999999999999 1.0\n",
         "line 3: index (1, -99999999999999999999) out of bounds"),
        ("m.mtx", MTX_COORD + "2 2 2\n1 1 1.0\n1 1 2.0\n",
         "line 4: duplicate entry (1, 1)"),
        ("m.mtx", MTX_COORD + "2 2 1\n1 1 abc\n",
         "line 3: 'abc' is not a number"),
        ("m.mtx", MTX_COORD + "2 2 1\n1 1 nan\n",
         "line 3: non-finite value 'nan'"),
        ("m.mtx", MTX_COORD + "2 2 1\n1 1 1e400\n",
         "line 3: non-finite value '1e400'"),
        # comments and blank lines keep their numbers
        ("m.mtx", MTX_COORD + "% c\n\n2 2 2\n% c\n  \n1 1 1.0\n\n1 2 x\n",
         "line 9: 'x' is not a number"),
        # two faults: the earlier line wins, whatever its kind
        ("m.mtx", MTX_COORD + "2 2 3\n1 1 1.0\n1 1 2.0\n2 2 abc\n",
         "line 4: duplicate entry (1, 1)"),
        ("m.mtx", MTX_COORD + "2 2 3\n1 1 abc\n1 1 2.0\n2 x 1.0\n",
         "line 3: 'abc' is not a number"),
        ("m.mtx", MTX_COORD + "2 2 3\n1 1 inf\n2 2\n2 3 1.0\n",
         "line 3: non-finite value 'inf'"),
        ("m.mtx", MTX_COORD + "2 2 3\n1 1 1.0\n2 2 x\n1 1 1.0\n",
         "line 4: 'x' is not a number"),
        ("m.mtx", MTX_COORD + "2 2 3\n2 2 1.0\n1 9 nan\n1 y 1.0\n",
         "line 4: index (1, 9) out of bounds"),
        ("m.mtx", MTX_COORD + "2 2 3\n1 1 nan\n99999999999999999999 1 1\n"
         "1 1 1\n", "line 3: non-finite value 'nan'"),
        ("m.mtx", MTX_COORD + "2 2 3\n1 1 1\n1 99999999999999999999 1\n"
         "1 1 1\n", "line 4: index (1, 99999999999999999999) out of bounds"),
        ("m.mtx", MTX_COORD + "2 2 3\n1 1 1\n2 2 1\n2 2 x y\n",
         "line 5: expected 'i j value'"),
        # two faults in one line: the check order decides
        ("m.mtx", MTX_COORD + "2 2 1\nx 1 abc extra\n",
         "line 3: expected 'i j value'"),
        ("m.mtx", MTX_COORD + "2 2 1\n99999999999999999999 x abc\n",
         "line 3: bad coordinate indices"),
        ("m.mtx", MTX_COORD + "2 2 1\n3 1 abc\n",
         "line 3: index (3, 1) out of bounds"),
        ("m.mtx", MTX_COORD + "2 2 2\n1 2 1\n1 2 nan\n",
         "line 4: duplicate entry (1, 2)"),
        # rows x cols past int64: entries are ordered without a flat key
        ("m.mtx", MTX_COORD + "3 10000000000000000000 3\n"
         "2 9000000000000000000 1\n1 5 2\n2 9000000000000000000 3\n",
         "line 5: duplicate entry (2, 9000000000000000000)"),
        ("m.mtx", MTX_COORD + "0 10000000000000000000 1\n1 1 1\n",
         "line 3: index (1, 1) out of bounds"),
        # array body
        ("m.mtx", MTX_ARRAY + "2 2\n1\n2\n3\n",
         "entry count 3 does not match 2 x 2"),
        ("m.mtx", MTX_ARRAY + "2 2\n1 2\n3 x\n4\n",
         "line 4: 'x' is not a number"),
        ("m.mtx", MTX_ARRAY + "2 2\n1\n% c\n\n-inf\n3\n4\n",
         "line 6: non-finite value '-inf'"),
        ("m.mtx", MTX_ARRAY + "2 2\n1 inf x\n",
         "line 3: non-finite value 'inf'"),
        ("m.mtx", MTX_ARRAY + "2 2\n1 x inf\n",
         "line 3: 'x' is not a number"),
        ("m.mtx", MTX_ARRAY + "2 2\n1 2 3 4 5\nNaN\n",
         "line 4: non-finite value 'NaN'"),
        # CSV
        ("m.csv", "", "line 1: empty CSV file"),
        ("m.csv", " \n\n", "line 1: empty CSV file"),
        ("m.csv", "  ", "line 1: empty CSV file"),
        ("m.csv", "a,b\n", "CSV contains a header but no data rows"),
        ("m.csv", "1,2\n3\n", "line 2: expected 2 fields, found 1"),
        ("m.csv", "1,2\n3,x\n", "line 2: 'x' is not a number"),
        ("m.csv", "1,2\n3,\n", "line 2: '' is not a number"),
        ("m.csv", "1,inf\n", "line 1: non-finite value 'inf'"),
        ("m.csv", "1,2\n3, nan\n", "line 2: non-finite value ' nan'"),
        ("m.csv", "a,b\n\n1,2\n  \n3,x\n", "line 5: 'x' is not a number"),
        ("m.csv", "1,2\n3,x\n4\n", "line 2: 'x' is not a number"),
        ("m.csv", "1,2\n3\n4,x\n", "line 2: expected 2 fields, found 1"),
        ("m.csv", "1,2\nx,y,z\n", "line 2: expected 2 fields, found 3"),
    ])
    def test_message(self, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, line", [
        (MTX_COORD + "-1 2 0\n", 2),
        (MTX_COORD + "10000000000000000000 2 0\n", 2),
        (MTX_COORD + "% c\n2 0 0\n", 3),
        (MTX_COORD + "2 -3 0\n", 2),
        (MTX_COORD + "2 2 -1\n", 2),
        (MTX_ARRAY + "-1 -2\n1\n2\n", 2),
        (MTX_ARRAY + "0 0\n", 2),
    ])
    def test_size_line_counts(self, tmp_path, text, line):
        # a ShapeError, which comes after any ParseError of the body
        path = tmp_path / "m.mtx"
        path.write_text(text)
        with pytest.raises(ShapeError) as err:
            read_matrix(path)
        assert str(err.value) == (
            "line %d: the size line needs at least one row and column, "
            "fewer than 2**63 rows and nnz >= 0" % line)


# int()/float() syntax corner cases; the readers accept what they accept
TOKENS = ["+3", "03", "1_0", "1__0", "_1", "3.0", "1e2", "٣", "nan",
          "inf", "Infinity", "1e400", " 2", "", "0x10", "-0"]
MTX_TOKENS = [t for t in TOKENS if t and t.strip() == t]  # one token each


def _python_value(token):
    """What float() makes of a value token: its value, or the message."""
    try:
        value = float(token)
    except ValueError:
        return "%r is not a number" % (token,)
    return value if np.isfinite(value) else "non-finite value %r" % (token,)


class TestTokenSyntax:
    @pytest.mark.parametrize("token", MTX_TOKENS)
    def test_coordinate_index(self, tmp_path, token):
        path = tmp_path / "m.mtx"
        path.write_text(MTX_COORD + "2 20 1\n1 %s 5.0\n" % token)
        try:
            j = int(token)
        except ValueError:
            with pytest.raises(ParseError,
                               match="^line 3: bad coordinate indices$"):
                read_matrix(path)
            return
        if not 1 <= j <= 20:
            with pytest.raises(ParseError, match="^line 3: index "):
                read_matrix(path)
            return
        m = read_matrix(path)
        assert m.indices.tolist() == [j - 1] and m.data.tolist() == [5.0]

    @pytest.mark.parametrize("token", MTX_TOKENS)
    @pytest.mark.parametrize("layout", ["coordinate", "array"])
    def test_mtx_value(self, tmp_path, token, layout):
        path = tmp_path / "m.mtx"
        body = "1 1 1\n1 1 %s\n" if layout == "coordinate" else "1 1\n%s\n"
        path.write_text("%%%%MatrixMarket matrix %s real general\n" % layout
                        + body % token)
        self._check(path, 3, token)

    @pytest.mark.parametrize("token", TOKENS)
    def test_csv_value(self, tmp_path, token):
        path = tmp_path / "m.csv"
        path.write_text("1,1\n1,%s\n" % token)
        self._check(path, 2, token)

    @staticmethod
    def _check(path, lineno, token):
        expected = _python_value(token)
        if isinstance(expected, str):
            with pytest.raises(ParseError) as err:
                read_matrix(path)
            assert str(err.value) == "line %d: %s" % (lineno, expected)
        else:
            got = read_matrix(path).to_dense()[-1, -1]
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_random_tokens_bitwise_equal_to_float(self, tmp_path):
        bits = make_rng(11).integers(0, 2 ** 64, size=100_000,
                                     dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        tokens = ["%.17g" % x for x in values.tolist()]
        path = tmp_path / "m.mtx"
        path.write_text(MTX_ARRAY + "%d 1\n" % len(tokens)
                        + "\n".join(tokens) + "\n")
        got = read_matrix(path).to_dense().ravel()
        want = np.array([float(t) for t in tokens])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_column_count_past_int64_flat_index(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(MTX_COORD + "3 10000000000000000000 3\n"
                        "2 9000000000000000000 1\n1 5 2\n1 1 3\n")
        m = read_matrix(path)
        assert m.indptr.tolist() == [0, 2, 3, 3]
        assert m.indices.tolist() == [0, 4, 8999999999999999999]
        assert m.data.tolist() == [3.0, 2.0, 1.0]

    def test_no_rows_and_columns_past_int64(self, tmp_path):
        # a typed error, not an overflow while ordering the entries
        path = tmp_path / "m.mtx"
        path.write_text(MTX_COORD + "0 10000000000000000000 0\n")
        with pytest.raises(ShapeError, match="at least one row"):
            read_matrix(path)

    def test_shuffled_coordinate_file_matches_from_coo(self, tmp_path):
        rng = make_rng(12)
        m, n, nnz = 2000, 1000, 40_000
        flat = rng.choice(m * n, size=nnz, replace=False)
        vals = rng.poisson(3.0, size=nnz) * rng.uniform(-2, 2, size=nnz)
        lines = ["%d %d %.17g" % (k // n + 1, k % n + 1, x)
                 for k, x in zip(flat.tolist(), vals.tolist())]
        path = tmp_path / "m.mtx"
        path.write_text(MTX_COORD + "%d %d %d\n" % (m, n, nnz)
                        + "\n".join(lines) + "\n")
        triplets = [ln.split() for ln in lines]
        want = DataMatrix.from_coo([int(i) - 1 for i, _, _ in triplets],
                                   [int(j) - 1 for _, j, _ in triplets],
                                   [float(v) for _, _, v in triplets], (m, n))
        got = read_matrix(path)
        assert got.indptr.tobytes() == want.indptr.tobytes()
        assert got.indices.tobytes() == want.indices.tobytes()
        assert got.data.tobytes() == want.data.tobytes()


def _load(text):
    """What the loadtxt path makes of `text`: a DataMatrix, or None where
    it leaves the file to the token path."""
    return mio_mod._load_coordinates(io.StringIO(text))


def _python_number(cast, token):
    try:
        return cast(token)
    except ValueError:
        return None


class TestLoadtxtPath:
    """The coordinate bodies that numpy's C reader takes, and the token
    path's fallback for everything else."""

    def test_differential_against_int_and_float(self):
        rng = make_rng(21)
        alphabet = list("0123456789+-.e_naifx")
        tokens = ["".join(rng.choice(alphabet, size=rng.integers(1, 7)))
                  for _ in range(3000)]
        tokens += ["inf", "-inf", "nan", "-nan", "Infinity", "1e308", "1e309",
                   ".5", "5.", "+.5e-3", "1_0", "5e1_0", "0x10", "1e+", "++1"]
        taken = 0
        for token in tokens:
            i, x = _python_number(int, token), _python_number(float, token)
            got = _load(MTX_COORD + "1 %d 1\n1 %s 1\n" % (2**62, token))
            if got is not None:  # Python takes it, as the same index
                assert i is not None and got.indices.tolist() == [i - 1]
            got = _load(MTX_COORD + "1 1 1\n1 1 %s\n" % token)
            if got is not None:  # Python takes it, with the same bits
                taken += 1
                assert x is not None and np.isfinite(x)
                assert got.data.tobytes() == np.float64(x).tobytes()
        assert taken > 250

    def test_random_values_read_bitwise_equal_to_float(self):
        bits = make_rng(24).integers(0, 2 ** 64, size=20_000,
                                     dtype=np.uint64)
        values = bits.view(np.float64)
        tokens = ["%.17g" % x for x in values[np.isfinite(values)].tolist()]
        got = _load(MTX_COORD + "%d 1 %d\n" % (len(tokens), len(tokens))
                    + "".join("%d 1 %s\n" % (k, t)
                              for k, t in enumerate(tokens, 1)))
        want = np.array([float(t) for t in tokens])
        assert got.data.view(np.uint64).tolist() == \
            want.view(np.uint64).tolist()

    @pytest.mark.parametrize("text, want", [
        ("2 2 2\n1 1 1_0\n2 2 2\n", [[10.0, 0.0], [0.0, 2.0]]),
        ("2 2 1\n1 1 ٣\n", [[3.0, 0.0], [0.0, 0.0]]),
        ("2 2 1\n٢ 1 1\n", [[0.0, 0.0], [1.0, 0.0]]),
        ("2 2 2\n1 1 1\n% c\n2 2 2\n", [[1.0, 0.0], [0.0, 2.0]]),
        ("2 2 2\n1 1 1\n2 2 2 5\n", "line 4: expected 'i j value'"),
        ("2 2 1\n1.0 1 2.0\n", "line 3: bad coordinate indices"),
        ("2 2 1\n9223372036854775808 1 1\n",
         "line 3: index (9223372036854775808, 1) out of bounds"),
        ("2 2 1\n1 1 1e400\n", "line 3: non-finite value '1e400'"),
        ("2 2 2\n1 1 1\n1 1 2\n", "line 4: duplicate entry (1, 1)"),
    ], ids=["underscore", "arabic-digit", "arabic-index", "comment",
            "ragged", "float-index", "index-past-int64",
            "overflow-value", "duplicate"])
    def test_fallback_gives_the_token_path_result(self, tmp_path, text,
                                                  want):
        assert _load(MTX_COORD + text) is None
        path = tmp_path / "m.mtx"
        path.write_text(MTX_COORD + text)
        if isinstance(want, str):
            with pytest.raises(ParseError) as err:
                read_matrix(path)
            assert str(err.value) == want
        else:
            assert read_matrix(path).to_dense().tolist() == want

    def test_a_loadtxt_warning_is_a_refusal(self, tmp_path, monkeypatch):
        # a numpy that parses `1.0` as an index warns instead of refusing
        def lenient(fh, dtype, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is "
                          "deprecated.", DeprecationWarning)
            return np.array([(1, 1, 2.0)], dtype=dtype)

        monkeypatch.setattr(mio_mod.np, "loadtxt", lenient)
        path = tmp_path / "m.mtx"
        path.write_text(MTX_COORD + "2 2 1\n1.0 1 2.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # as outside the test suite
            with pytest.raises(ParseError,
                               match="^line 3: bad coordinate indices$"):
                read_matrix(path)

    def test_fallback_reads_the_file_once(self, tmp_path, monkeypatch):
        calls = []

        class Counted(io.TextIOWrapper):
            def read(self, *args):
                calls.append(("read",) + args)
                return super().read(*args)

        def counted_open(path, mode="r", encoding=None):
            calls.append(("open", path))
            return Counted(open(path, "rb"), encoding=encoding)

        monkeypatch.setattr(mio_mod, "open", counted_open, raising=False)
        path = tmp_path / "m.mtx"  # refused by loadtxt: the token path
        path.write_text(MTX_COORD + "2 2 2\n1 1 1_0\n2 2 2\n")
        assert read_matrix(path).to_dense().tolist() == [[10.0, 0.0],
                                                         [0.0, 2.0]]
        assert calls == [("open", path), ("read",)]

    def test_lone_carriage_return_ends_a_line(self, tmp_path):
        # universal newlines, as the token path reads the text
        path = tmp_path / "m.mtx"
        path.write_bytes(MTX_COORD.encode() + b"2 2 2\n1 1 2\r2 2 3\n")
        assert read_matrix(path).to_dense().tolist() == [[2.0, 0.0],
                                                         [0.0, 3.0]]

    @pytest.mark.parametrize("text", [MTX_COORD + "2 2 0\n",
                                      MTX_COORD + "2 2 0\n\n"])
    def test_empty_body_reads_without_warning(self, tmp_path, text):
        path = tmp_path / "m.mtx"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = read_matrix(path)
        assert m.is_sparse and m.shape == (2, 2) and m.nnz == 0

    @pytest.mark.parametrize("name", ["m.mtx", "m.csv"])
    def test_body_not_utf8_partway_is_io_error(self, tmp_path, name):
        # past the first decoded chunk: the position is the file's own
        body = "".join("%d,1\n" % k if name == "m.csv" else "%d 1 1\n" % k
                       for k in range(1, 3001))
        head = "" if name == "m.csv" else MTX_COORD + "3001 1 3001\n"
        data = (head + body).encode() + b"\xff\n"
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(IoError) as err:
            read_matrix(path)
        assert str(err.value) == (
            "cannot read %s: 'utf-8' codec can't decode byte 0xff in "
            "position %d: invalid start byte" % (path, len(data) - 2))

    @pytest.mark.parametrize("comment", ["", "% c\n"],
                             ids=["loadtxt", "token-path"])
    def test_least_int64_index_stays_out_of_bounds(self, tmp_path, comment):
        # made 0-based, -2**63 must not wrap round to a column below 10**19
        path = tmp_path / "m.mtx"
        path.write_text(MTX_COORD + "3 %d 1\n%s1 %d 1.0\n"
                        % (10**19, comment, -2**63))
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert str(err.value) == "line %d: index (1, %d) out of bounds" % (
            4 if comment else 3, -2**63)

    def test_coordinate_read_memory_is_bounded(self, tmp_path):
        # 40k entries: about 13 MB of Python strings on the token path
        rng = make_rng(22)
        m, n, nnz = 2000, 1000, 40_000
        flat = np.sort(rng.choice(m * n, size=nnz, replace=False))
        v = DataMatrix.from_coo(flat // n, flat % n,
                                rng.poisson(3.0, size=nnz) + 1.0, (m, n))
        path = tmp_path / "m.mtx"
        write_matrix(v, path)
        tracemalloc.start()
        try:
            got = read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.data.tobytes() == v.data.tobytes()
        assert peak < 5e6

    @pytest.mark.parametrize("shape", [(3000, 7), (7, 3000), (1, 1)])
    def test_chunked_writer_matches_one_join(self, tmp_path, shape):
        rng = make_rng(23)
        dense = sparsify(rng, *shape, density=0.5)
        sp = DataMatrix.from_coo(*np.nonzero(dense), dense[dense != 0], shape)
        rows = np.repeat(np.arange(1, shape[0] + 1), np.diff(sp.indptr))
        want = {
            "s.mtx": [MTX_COORD.strip(), "%d %d %d" % (*shape, sp.nnz)]
            + ["%d %d %.17g" % e for e in zip(rows.tolist(),
                                              (sp.indices + 1).tolist(),
                                              sp.data.tolist())],
            "d.mtx": [MTX_ARRAY.strip(), "%d %d" % shape]
            + ["%.17g" % x for x in dense.T.ravel().tolist()],
            "d.csv": [",".join("%.17g" % x for x in row)
                      for row in dense.tolist()]}
        for name, lines in want.items():
            write_matrix(sp if name == "s.mtx" else dense, tmp_path / name)
            assert (tmp_path / name).read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("name", ["s.mtx", "d.mtx", "d.csv",
                                      "summary.json"])
    def test_failed_chunk_leaves_no_file(self, tmp_path, monkeypatch, name):
        def one_then_exhausted(n, step=mio_mod._CHUNK):
            yield slice(0, 1)
            raise MemoryError

        class FailsOnSecondPass(dict):
            # the finiteness check reads the field once; the write fails
            passes = 0

            def items(self):
                self.passes += 1
                if self.passes > 1:
                    raise MemoryError
                return super().items()

        monkeypatch.setattr(mio_mod, "_chunks", one_then_exhausted)
        dense = np.arange(1.0, 7.0).reshape(2, 3)
        matrix = DataMatrix.dense(dense)
        if name == "s.mtx":
            matrix = DataMatrix.from_coo(*np.nonzero(dense), dense.ravel(),
                                         dense.shape)
        path = tmp_path / name
        path.write_text("an older file\n")
        with pytest.raises(MemoryError):
            if name == "summary.json":
                write_summary({"a": 1, "b": FailsOnSecondPass(c=2)}, path)
            else:
                write_matrix(matrix, path)
        assert list(tmp_path.iterdir()) == []


class TestRoundtrips:
    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                                       max_side=6),
                      elements=st.floats(min_value=-1e12, max_value=1e12,
                                         allow_nan=False)))
    def test_dense_mtx_roundtrip_exact(self, arr):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.mtx"
            write_matrix(DataMatrix.dense(arr), path)
            back = read_matrix(path)
        np.testing.assert_array_equal(back.to_dense(), arr)

    @pytest.mark.parametrize("seed", range(6))
    def test_sparse_mtx_roundtrip_exact(self, seed, tmp_path):
        rng = make_rng(seed)
        dense = sparsify(rng, 7, 5, density=0.3)
        sp = to_csr(dense)
        path = tmp_path / "m.mtx"
        write_matrix(sp, path)
        back = read_matrix(path)
        assert back.is_sparse
        np.testing.assert_array_equal(back.indptr, sp.indptr)
        np.testing.assert_array_equal(back.indices, sp.indices)
        np.testing.assert_array_equal(back.data, sp.data)

    @pytest.mark.parametrize("seed", range(4))
    def test_csv_roundtrip_exact(self, seed, tmp_path):
        rng = make_rng(seed)
        arr = rng.normal(size=(5, 4)) * 10.0 ** rng.integers(-8, 8)
        path = tmp_path / "m.csv"
        write_matrix(DataMatrix.dense(arr), path)
        np.testing.assert_array_equal(
            read_matrix(path).to_dense(), arr)


class TestSummary:
    def doc(self, **overrides):
        base = dict(schema_version="2", method="lsnmf", rank=3,
                    seed_method="random_vcol", n_iter=10, max_iter=20,
                    rss=1.0, evar=0.9, dist_euclidean=1.0, dist_kl=2.0,
                    sparseness_w=0.5, sparseness_h=0.6, warnings=[])
        base.update(overrides)
        return base

    def test_writes_the_given_keys_sorted(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary(self.doc(), path)
        assert json.loads(path.read_text()) == self.doc()
        assert path.read_text() == (
            json.dumps(self.doc(), indent=2, sort_keys=True) + "\n")

    def test_trace_included_when_present(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary(self.doc(objective_trace=[3.0, 2.0]), path)
        assert json.loads(path.read_text())["objective_trace"] == [3.0, 2.0]

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ParamError):
            write_summary(self.doc(rss=float("nan")), tmp_path / "s.json")

    def test_write_to_a_directory_is_io_error(self, tmp_path):
        with pytest.raises(IoError, match="^cannot write %s: "
                           % re.escape(str(tmp_path))):
            write_text(tmp_path, ["x"])
        assert tmp_path.is_dir()

    def test_nested_non_finite_rejected(self, tmp_path):
        with pytest.raises(ParamError, match="'ranks'"):
            write_summary(self.doc(ranks=[{"cophenetic": float("inf")}]),
                          tmp_path / "s.json")
        assert not (tmp_path / "s.json").exists()


class TestSynth:
    def test_noise_free_is_exact_product_with_bounded_rank(self):
        v, w, h = synth(15, 12, 3, noise_sigma=0.0, density=1.0, seed=4)
        np.testing.assert_array_equal(v.to_dense(), w @ h)
        assert np.linalg.matrix_rank(v.to_dense()) <= 3

    def test_deterministic(self):
        a = synth(10, 8, 2, noise_sigma=0.05, density=0.8, seed=9)
        b = synth(10, 8, 2, noise_sigma=0.05, density=0.8, seed=9)
        for x, y in zip(a, b):
            x = x.to_dense() if isinstance(x, DataMatrix) else x
            y = y.to_dense() if isinstance(y, DataMatrix) else y
            np.testing.assert_array_equal(x, y)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 15), st.integers(2, 15), st.integers(1, 4),
           st.floats(0, 0.5), st.floats(0.1, 1.0), st.integers(0, 50))
    def test_always_nonnegative(self, m, n, k, noise, density, seed):
        k = min(k, m, n)
        v, w, h = synth(m, n, k, noise_sigma=noise, density=density, seed=seed)
        assert float(v.to_dense().min()) >= 0.0
        assert w.min() >= 0.0 and h.min() >= 0.0

    def test_density_thresholding(self):
        v, _, _ = synth(20, 20, 2, noise_sigma=0.0, density=0.3, seed=1)
        frac = np.count_nonzero(v.to_dense()) / 400.0
        assert frac <= 0.35

    @pytest.mark.parametrize("m, n, k, message", [
        (4, 4, 9, r"^k_true must be finite and lie in \[1, 4\], got 9$"),
        (0, 4, 1, r"^m must be finite and lie in \[1, inf\), got 0$"),
        (2.5, 4, 1, "^m must be of type int, got 2.5$"),
        (4, 4, True, "^k_true must be of type int, got True$"),
        (4, "4", 1, "^n must be of type int, got '4'$")],
        ids=["rank-too-large", "zero-rows", "fractional-rows", "bool-rank",
             "string-cols"])
    def test_sizes_are_integers_in_range(self, m, n, k, message):
        # 2.5 and "4" raised TypeError; True ran as k_true 1
        with pytest.raises(ParamError, match=message):
            synth(m, n, k)

    def test_param_validation(self):
        with pytest.raises(ParamError):
            synth(4, 4, 2, density=0.0)
        with pytest.raises(ParamError):
            synth(4, 4, 2, noise_sigma=-1.0)
        for sigma in (float("nan"), float("inf")):  # nan gave noise-free data
            with pytest.raises(ParamError, match="noise_sigma"):
                synth(4, 4, 2, noise_sigma=sigma)

    @pytest.mark.parametrize("settings, message", [
        # True ran as sigma (density) 1.0
        ({"noise_sigma": True},
         "^noise_sigma must be of type float, got True$"),
        ({"density": True}, "^density must be of type float, got True$"),
        # a TypeError at the parent
        ({"noise_sigma": None},
         "^noise_sigma must be of type float, got None$"),
        ({"density": "0.5"}, "^density must be of type float, got '0.5'$"),
        ({"density": 0.0},
         r"^density must be finite and lie in \(0, 1\], got 0.0$")])
    def test_float_arguments_are_checked_settings(self, settings, message):
        with pytest.raises(ParamError, match=message):
            synth(4, 4, 2, **settings)
