"""The JSON matrix codec against the QQi routes it replaced.

The reader parses every part by ``_exact_part`` and builds a real matrix
straight into integer rows; the writer prints every matrix from its integer
rows.  The routes they replaced, every part into a :class:`QQi` entry and
every entry printed from :attr:`Mat.data`, are the oracles here: the same
matrices and the same bytes.  ``Fraction`` itself is the oracle of each
part: the same value, or a ``ValueError`` where it refuses the part, except
that a decimal exponent beyond 4,300 in magnitude is refused before
``Fraction`` would build ten to that power.
"""

import json
from contextlib import nullcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qqi_oracle import builds_no_qqi
from qpslab.liegroup import GROUPS, context, random_point, read_element
from qpslab.linalg import Mat
from qpslab.matio import _exact_part, entry_pairs, mat_from_json, mat_to_json
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi, ZZi

from oracles import scalar_to_json


def qqi_from_json(obj: dict) -> Mat:
    """The reader as it was: a ``Fraction`` and a :class:`QQi` per entry."""
    rows, cols, pairs = entry_pairs(obj)
    entries = [QQi(_exact_part(re), _exact_part(im)) for re, im in pairs]
    return Mat([entries[i * cols:(i + 1) * cols] for i in range(rows)])


def qqi_to_json(m: Mat) -> dict:
    """The writer as it was: every entry printed from ``.data``."""
    return {"rows": m.rows, "cols": m.cols,
            "entries": [scalar_to_json(x) for row in m.data for x in row]}


def _outcome(f, v):
    """The value of ``f(v)``, or the type and text of its ValueError."""
    try:
        return "value", f(v)
    except ValueError as e:
        return "error", type(e), str(e)


BIG = 2 ** 200 + 987654321
CORPUS = [
    "+5", " 3", "3 ", "1_0", "٣", "²", "1.5", "1e3", "3/0", "0/0",
    "/3", "3/", "-", "-0", "007", "-007/010", "3/-4", "--3", "-3/4", "1/ 2",
    "", "0", "12/4", "-12/4", str(BIG), str(-BIG), f"{BIG}/{BIG + 2}",
    f"-{BIG}/3", f"3/{BIG}", "9" * 5000, "1/" + "7" * 5000,
    5, -7, 0, BIG, 1.5, None, True, [1],
]


# the edge cases of a part's spelling: leading zeros, signs, whitespace,
# zero denominators, other digits and notations, and very long digit strings
EDGE_CASES = [
    "00", "0007", "-0007", "007/0014", "0/0005", "-0", "-0/7", "+0", "+1",
    "+1/2", "-+1", "+-1", " 1", "1 ", " -3/4 ", "\t2\n", "1 /2", "1/+2",
    "1/-2", "1/0", "-1/0", "0/0", "1//2", "1/2/3", "0x10", "1.0", "1e2",
    "½", "١٢", " ", "9" * 5000 + "/7", "7/" + "9" * 5000, "-" + "1" * 5000,
    -0, 10 ** 60,
]


def fraction_outcome(v):
    """What ``Fraction`` makes of a part: its value for a string or an
    integer, and ValueError where it refuses one or for any other type."""
    if not isinstance(v, (str, int)):
        return "error", ValueError
    try:
        return "value", Fraction(v)
    except (ValueError, ZeroDivisionError):
        return "error", ValueError


def read_part(v) -> QQi:
    """The entry the matrix reader makes of ``v`` as a real part."""
    return mat_from_json({"rows": 1, "cols": 1, "entries": [[v, "0"]]}).entry(0, 0)


def assert_part_read_as_fraction_does(part):
    want = fraction_outcome(part)
    assert _outcome(_exact_part, part)[:2] == want
    got = _outcome(read_part, part)[:2]
    if type(part) in (str, int):
        assert got == (want if want[0] == "error" else ("value", QQi(want[1])))
    else:  # the reader refuses any other type, a boolean too
        assert got == ("error", ValueError)


@pytest.mark.parametrize("part", CORPUS, ids=repr)
def test_fast_path_parts_match_fraction(part):
    # every part, through the part parser and through the matrix reader,
    # reads as Fraction(s), or is refused with a ValueError
    assert_part_read_as_fraction_does(part)


@pytest.mark.parametrize("part", EDGE_CASES, ids=repr)
def test_edge_case_parts_read_as_fraction_does(part):
    assert_part_read_as_fraction_does(part)


@pytest.mark.parametrize("part", ["1e4300", "1E-4300", "1e+4300"])
def test_an_exponent_at_the_limit_reads_as_fraction_does(part):
    assert_part_read_as_fraction_does(part)


@pytest.mark.parametrize("part", ["1e5000", "1e-5000"])
def test_an_exponent_beyond_the_limit_is_refused(part):
    # Fraction would build ten to that power first; the reader refuses the
    # part before any large integer is built
    assert _outcome(_exact_part, part)[:2] == ("error", ValueError)
    assert _outcome(read_part, part)[:2] == ("error", ValueError)


def test_reader_errors_are_those_of_the_qqi_route():
    # the first bad part, in entry order and real part first, sets the error
    bad = [[["1", "0"], ["3/0", "x"], ["0", "1.5x"], [1, 0]],
           [["1", "0"], ["2", "1_"], ["3/0", "0"], [1, 0]],
           [[1, 0], [0, 0], [0, 0], [1.5, 0]],
           [[1, 0], [0, 0], [0, 0], [True, 0]],
           [[1, 0], [0, 0], [0, 0]]]
    for entries in bad:
        obj = {"rows": 2, "cols": 2, "entries": entries}
        assert _outcome(mat_from_json, obj)[0] == "error"
        assert _outcome(mat_from_json, obj) == _outcome(qqi_from_json, obj)
    for obj in ({"rows": 0, "cols": 0, "entries": []},
                {"rows": 2, "cols": 0, "entries": []}):
        assert _outcome(lambda o: mat_from_json(o).shape, obj) == \
            _outcome(lambda o: qqi_from_json(o).shape, obj)


def test_decoding_a_real_point_builds_no_qqi():
    rng = SplitMix64(110)
    for group in sorted(GROUPS):
        ctx = context(group)
        with builds_no_qqi():
            m = random_point(ctx, "G", rng)
            back = mat_from_json(mat_to_json(m))
        g = read_element(ctx, mat_to_json(m))
        assert back == m and back._ints == m._ints
        assert g == m and g._ints == m._ints
    # a non-real entry anywhere is built from QQi entries into integer rows
    # with a Gaussian numerator
    m = mat_from_json({"rows": 1, "cols": 2, "entries": [["1/2", "0"], ["0", "1"]]})
    assert m.data == ((QQi(Fraction(1, 2)), QQi(0, 1)),)
    assert m._ints == [([1, ZZi(0, 2)], 2)]


_parts = st.one_of(
    st.integers(-5, 5),
    st.fractions(max_denominator=30).filter(lambda f: abs(f) < 100),
    st.integers(-BIG, BIG),
)


@st.composite
def _matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    real = [[draw(_parts) for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):
        return Mat(real)
    imag = [[draw(_parts) if draw(st.booleans()) else 0 for _ in range(cols)]
            for _ in range(rows)]
    imag[0][0] = draw(_parts) or 1  # at least one non-real entry
    return Mat([[QQi(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(real, imag)])


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_codec_round_trip_and_bytes_match_the_qqi_route(m):
    obj = mat_to_json(m)
    assert json.dumps(obj) == json.dumps(qqi_to_json(m))
    real = all(not x.im for r in m.data for x in r)
    with builds_no_qqi() if real else nullcontext():
        back = mat_from_json(json.loads(json.dumps(obj)))
    assert back == m and back == qqi_from_json(obj)
    assert back.data == m.data


def test_writer_on_rows_with_distinct_denominators():
    with builds_no_qqi():  # printed from the integer rows
        m = Mat([[Fraction(1, 6), Fraction(-2, 3), 0],
                 [Fraction(5, 4), 7, Fraction(-BIG, 35)],
                 [0, 0, 0]])
        obj = mat_to_json(m)
    assert [e[0] for e in obj["entries"]] == [
        "1/6", "-2/3", "0", "5/4", "7", str(Fraction(-BIG, 35)), "0", "0", "0"]
    assert obj == qqi_to_json(Mat(m.data))
