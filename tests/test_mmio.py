import numpy as np
import pytest

from diagdom import (
    MatrixMarketError,
    dominance_partition,
    matrix_digest,
    read_matrix_market,
    write_matrix_market,
)
from matrices import NORM_8X8


def test_array_round_trip_bit_for_bit(tmp_path):
    rng = np.random.default_rng(3)
    A = rng.normal(size=(7, 7))
    path = tmp_path / "a.mtx"
    write_matrix_market(path, A, comment="round trip")
    back = read_matrix_market(path)
    assert np.array_equal(back, A)


def test_fixture_partition_matches(fixture_path):
    A = read_matrix_market(fixture_path("norm_8x8.mtx"))
    assert np.array_equal(A, NORM_8X8)
    part = dominance_partition(A)
    assert part.n1 == (0, 1, 2, 3)


def test_coordinate_format(tmp_path):
    text = """%%MatrixMarket matrix coordinate real general
% three entries of a 3x3
3 3 3
1 1 2.5
2 3 -1.0
3 2 4.0
"""
    path = tmp_path / "c.mtx"
    path.write_text(text)
    A = read_matrix_market(path)
    expected = np.zeros((3, 3))
    expected[0, 0] = 2.5
    expected[1, 2] = -1.0
    expected[2, 1] = 4.0
    assert np.array_equal(A, expected)


def test_array_column_major_order(tmp_path):
    path = tmp_path / "cm.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n2 2\n1.0\n0.0\n0.0\n1.0\n"
    )
    assert np.array_equal(read_matrix_market(path), np.eye(2))
    path.write_text(
        "%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n4.0\n"
    )
    assert np.array_equal(read_matrix_market(path), [[1.0, 3.0], [2.0, 4.0]])


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("", "empty"),
        ("%%MatrixMarket matrix array complex general\n2 2\n", "complex"),
        ("%%MatrixMarket matrix array real symmetric\n2 2\n", "symmetry"),
        ("%%MatrixMarket matrix array real general\n2 3\n1\n1\n1\n1\n1\n1\n", "square"),
        ("%%MatrixMarket matrix array real general\n2 2\n1.0\n", "expected 4 values"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 3.0\n", "outside"),
        ("not a banner\n", "banner"),
        ("%%MatrixMarket matrix array real general\n2 2\nfoo\n1\n1\n1\n", "real number"),
    ],
)
def test_parse_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert fragment in str(err.value)
    assert err.value.line is not None


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n2 x 1.0\n"
    )
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert err.value.line == 4


def test_digest_distinguishes_matrices():
    a = matrix_digest(np.eye(3))
    b = matrix_digest(np.eye(4))
    c = matrix_digest(np.eye(3) * 2)
    assert a != b and a != c
    assert a == matrix_digest(np.eye(3))
    assert a.startswith("sha256:")


ARRAY = "%%MatrixMarket matrix array real general\n"
COORD = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize(
    "content, fragment, line",
    [
        ("%%MatrixMarket matrix dense real general\n2 2\n", "unsupported layout", 1),
        ("%%MatrixMarket matrix array pattern general\n2 2\n", "unsupported field", 1),
        (ARRAY + "% only comments\n\n", "missing size line", 3),
        (ARRAY + "2 2 4\n", "array size line needs exactly two integers", 2),
        (COORD + "2 2\n", "coordinate size line needs exactly three integers", 2),
        (ARRAY + "2 x\n", "expected an integer, got 'x'", 2),
        (COORD + "2 3 0\n", "matrix is not square: 2 x 3", 2),
        (ARRAY + "-1 -1\n1.0\n", "matrix order must be at least 1, got -1", 2),
        (COORD + "-2 -2 0\n", "matrix order must be at least 1, got -2", 2),
        (ARRAY + "0 0\n", "matrix order must be at least 1, got 0", 2),
        (COORD + "0 0 0\n", "matrix order must be at least 1, got 0", 2),
        (COORD + "2 2 1\n1 1\n", "coordinate entries need 'row col value'", 3),
        (COORD + "2 2 2\n1 1 1.0\n", "expected 2 entries, found 1", 3),
        (COORD + "2 2 1\n\n% skipped\n1 1 x\n", "expected a real number, got 'x'", 5),
        (COORD + "2 2 3\n1 1 1.0\n2 2 1.0\n1 1 5.0\n", "entry (1, 1) repeats line 3", 5),
    ],
    ids=["layout", "field", "no-size-line", "array-size-tokens", "coordinate-size-tokens",
         "size-integer", "coordinate-not-square", "array-negative", "coordinate-negative",
         "array-zero", "coordinate-zero", "entry-tokens", "entry-count", "line-after-skips",
         "duplicate-entry"],
)
def test_parse_error_message_and_line(tmp_path, content, fragment, line):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert fragment in str(err.value)
    assert err.value.line == line


@pytest.mark.parametrize(
    "content",
    [
        ARRAY + "% c\n2 2\n1.0\n\n% between values\n  % indented\n2.0\n3.0\n\n4.0\n",
        COORD + "% c\n2 2 4\n1 1 1.0\n\n% between entries\n  % indented\n2 1 2.0\n1 2 3.0\n\n2 2 4.0\n",
        ARRAY + "  % indented\n\t%\n2 2\n1.0\n2.0\n3.0\n4.0\n",
        COORD + "  % indented\n2 2 4\n1 1 1.0\n2 1 2.0\n1 2 3.0\n2 2 4.0\n",
    ],
    ids=["array-inside-data", "coordinate-inside-data", "array-before-size-line",
         "coordinate-before-size-line"],
)
def test_comment_and_blank_lines_are_skipped(tmp_path, content):
    path = tmp_path / "c.mtx"
    path.write_text(content)
    assert np.array_equal(read_matrix_market(path), [[1.0, 3.0], [2.0, 4.0]])
