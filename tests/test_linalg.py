"""Rank/kernel/intersection oracles and the subspace dimension laws."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qqi_oracle import builds_no_qqi
import qpslab
from qpslab import linalg
from qpslab.diffcalc import Dual
from qpslab.linalg import (LinAlgError, Mat, Subspace, annihilator,
                           intersect, kernel, mat_vec, rank, rref,
                           solve_columns, solve_unique)
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi


def M(rows):
    return Mat([[QQi(Fraction(x)) for x in r] for r in rows])


# -- frozen examples ---------------------------------------------------------


def test_rank_examples():
    assert rank(Mat.identity(2)) == 2
    assert rank(Mat.zeros(3, 3)) == 0
    # [[1,2],[2,4]]: second row is twice the first, one pivot survives
    assert rank(M([[1, 2], [2, 4]])) == 1


def test_kernel_examples():
    assert kernel(Mat.identity(3)).dim == 0
    assert kernel(Mat.zeros(3, 3)).equals(Subspace.full(3))
    k = kernel(M([[1, 1]]))
    assert k.dim == 1
    assert k.contains_vector([QQi(1), QQi(-1)])


def test_intersect_examples():
    xy = Subspace.from_vectors([[1, 0, 0], [0, 1, 0]], 3)
    yz = Subspace.from_vectors([[0, 1, 0], [0, 0, 1]], 3)
    meet = intersect(xy, yz)
    assert meet.dim == 1 and meet.contains_vector([QQi(0), QQi(1), QQi(0)])
    assert intersect(xy, xy).equals(xy)


def test_intersect_generic_dimension():
    # two random 3-dim subspaces of 4-space: dim was computed independently
    # through the rank of the stacked bases
    rng = SplitMix64(31)
    for _ in range(5):
        a = Subspace.from_vectors(
            [[QQi(rng.rational(5)) for _ in range(4)] for _ in range(3)], 4)
        b = Subspace.from_vectors(
            [[QQi(rng.rational(5)) for _ in range(4)] for _ in range(3)], 4)
        if a.dim != 3 or b.dim != 3:
            continue
        expected = a.dim + b.dim - rank(a.basis.hstack(b.basis))
        assert intersect(a, b).dim == expected


def test_annihilator_examples():
    dot = Mat.identity(3)
    zero = Subspace.zero(3)
    assert annihilator(zero, dot).equals(Subspace.full(3))
    assert annihilator(Subspace.full(3), dot).dim == 0
    e1 = Subspace.from_vectors([[1, 0, 0]], 3)
    ann = annihilator(e1, dot)
    assert ann.equals(Subspace.from_vectors([[0, 1, 0], [0, 0, 1]], 3))


def test_annihilator_rejects_degenerate_pairing():
    with pytest.raises(LinAlgError):
        annihilator(Subspace.full(2), M([[1, 0], [0, 0]]))


def test_intersect_rejects_mismatched_ambient():
    with pytest.raises(LinAlgError):
        intersect(Subspace.full(2), Subspace.full(3))


# -- randomized invariants ----------------------------------------------------

small_entries = st.integers(min_value=-6, max_value=6)


def subspaces(ambient, max_vecs=None):
    max_vecs = max_vecs or ambient
    return st.lists(
        st.lists(small_entries, min_size=ambient, max_size=ambient),
        min_size=0,
        max_size=max_vecs,
    ).map(lambda vs: Subspace.from_vectors(
        [[QQi(x) for x in v] for v in vs], ambient))


@settings(deadline=None, max_examples=200)
@given(subspaces(4), subspaces(4))
def test_dimension_formula(a, b):
    total = a.sum(b)
    meet = intersect(a, b)
    assert total.dim + meet.dim == a.dim + b.dim


@settings(deadline=None, max_examples=60)
@given(st.lists(st.lists(small_entries, min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_rank_nullity(rows):
    m = M(rows)
    assert rank(m) + kernel(m).dim == m.cols


def test_float_backend_is_confined():
    """A matrix holds exact entries only: a float entry is a TypeError."""
    with pytest.raises(TypeError):
        Mat([[0.5]])
    with pytest.raises(TypeError):
        Subspace.from_vectors([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]], 3)
    with pytest.raises(TypeError):
        solve_unique(M([[2, 1, 0], [1, 3, 1], [0, 1, 4]]), [1.0, 0.0, 0.0])


def test_mat_vec_takes_exact_entries_only():
    # one body of integer dot products: an entry that is neither an int, a
    # Fraction nor a QQi is refused, a dual number as a float is
    m = M([[1, 2], [3, 4]])
    assert mat_vec(m, [1, QQi(Fraction(1, 2))]) == [QQi(2), QQi(5)]
    for bad in (0.5, Dual(QQi(1), QQi(0))):
        with pytest.raises(TypeError):
            mat_vec(m, [QQi(1), bad])


def test_scale_takes_exact_scalars_only():
    # a float scalar is refused as a float entry is, not read as the binary
    # fraction it stores
    with pytest.raises(TypeError):
        Mat([[1, 2]]).scale(0.1)
    assert Mat([[1, 2]]).scale(Fraction(1, 10)) == Mat([[Fraction(1, 10), Fraction(1, 5)]])
    assert Mat([[1, 2]]).scale(3) == Mat([[3, 6]])
    assert Mat([[1, 2]]).scale(QQi(0, 1)) == Mat([[QQi(0, 1), QQi(0, 2)]])


def test_zero_column_shapes():
    empty = Mat.zeros(3, 0)
    assert empty.transpose().shape == (0, 3)
    assert empty.transpose().transpose().shape == (3, 0)
    # an empty inner dimension gives the zero matrix of the outer shape
    assert empty @ empty.transpose() == Mat.zeros(3, 3)
    assert (empty @ Mat.zeros(3, 0).transpose()).shape == (3, 3)
    # no equation: the kernel of the 0 x 3 matrix is the whole space
    red, pivots = rref(empty.transpose())
    assert red.shape == (0, 3) and pivots == []
    assert kernel(empty.transpose()).equals(Subspace.full(3))


def test_no_module_imports_numpy():
    """The package computes nothing in floating point: no module imports
    numpy, at the top or inside a function."""
    importers = set()
    for path in Path(qpslab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "numpy" or n.startswith("numpy.") for n in names):
                importers.add(path.stem)
    assert importers == set()


@settings(deadline=None, max_examples=40)
@given(subspaces(4), subspaces(4))
def test_intersection_contained_in_both(a, b):
    meet = intersect(a, b)
    assert a.contains(meet) and b.contains(meet)


@settings(deadline=None, max_examples=40)
@given(subspaces(5, 3))
def test_annihilator_dimension(s):
    ann = annihilator(s, Mat.identity(5))
    assert ann.dim == 5 - s.dim


def test_kernel_vectors_annihilate():
    rng = SplitMix64(77)
    for _ in range(20):
        m = Mat([[QQi(rng.rational(6)) for _ in range(4)] for _ in range(3)])
        k = kernel(m)
        for j in range(k.dim):
            col = k.basis.col(j)
            from qpslab.linalg import mat_vec

            assert all(not x for x in mat_vec(m, col))


def test_solve_unique():
    a = M([[1, 2], [3, 4]])
    sol, unique, consistent = solve_unique(a, [QQi(5), QQi(11)])
    assert consistent and unique
    from qpslab.linalg import mat_vec

    assert mat_vec(a, sol) == [QQi(5), QQi(11)]
    # inconsistent system
    b = M([[1, 1], [1, 1]])
    sol, _, consistent = solve_unique(b, [QQi(0), QQi(1)])
    assert sol is None and not consistent
    # underdetermined
    sol, unique, consistent = solve_unique(M([[1, 1]]), [QQi(3)])
    assert consistent and not unique


def test_solve_columns_is_solve_unique_per_column():
    rng = SplitMix64(23)
    gauss = QQi(Fraction(1, 2), 1)
    for a in (M([[1, 2, 0], [2, 4, 1], [0, 0, 3]]),      # square, rank 2
              M([[1, 2, 3], [2, 4, 6]]),                  # wide, rank 1
              M([[1, 0], [0, 1], [1, 1], [2, 3]]),        # tall, full column rank
              Mat([[gauss, QQi(1)], [QQi(2), gauss]])):   # Gaussian entries
        xs = [[QQi(rng.rational(5)) for _ in range(a.cols)] for _ in range(3)]
        b = Mat.from_columns([mat_vec(a, x) for x in xs], a.rows)
        sols, unique, consistent = solve_columns(a, b)
        assert consistent and unique == (rank(a) == a.cols)
        for j in range(b.cols):
            sol, uniq, ok = solve_unique(a, b.col(j))
            assert ok and uniq == unique and sols.col(j) == sol
        # one inconsistent column makes the whole system inconsistent
        if rank(a) < a.rows:
            bad = [QQi(rng.rational(5)) for _ in range(a.rows)]
            while solve_unique(a, bad)[2]:
                bad = [QQi(rng.rational(5)) for _ in range(a.rows)]
            assert solve_columns(a, b.hstack(Mat.from_columns([bad], a.rows))) == \
                (None, False, False)


def test_from_columns_rejects_a_column_of_another_length():
    assert Mat.from_columns([[1, 2], [3, 4]], 2) == M([[1, 3], [2, 4]])
    for cols in ([[1, 2, 3], [4, 5]], [[1, 2], [3, 4, 5]], [[1], [2, 3]]):
        with pytest.raises(LinAlgError):
            Mat.from_columns(cols, 2)  # one column longer or shorter


def test_subspace_equality_is_containment_based():
    a = Subspace.from_vectors([[1, 0], [0, 1]], 2)
    b = Subspace.from_vectors([[1, 1], [1, -1]], 2)
    assert a.equals(b)


def cols(*vectors) -> Mat:
    return Mat.from_columns([list(v) for v in vectors], len(vectors[0]))


def spans_canonically(s: Subspace, m: Mat) -> bool:
    """The canonical route: the subspace of ``m``'s columns equals ``s``."""
    return Subspace.from_spanning(m).equals(s)


def test_spanned_by_zero_subspace():
    zero = Subspace.zero(3)
    assert zero.spanned_by(Mat.zeros(3, 2))
    assert zero.spanned_by(Mat.zeros(3, 1))
    assert not zero.spanned_by(cols([0, 1, 0]))
    assert not zero.spanned_by(cols([0, 0, 0], [1, 0, 2]))


@pytest.mark.parametrize("mat, spans", [
    # a column outside the plane, at full rank
    (cols([1, 0, 0], [0, 0, 1]), False),
    (cols([1, 0, 0], [0, 1, 1], [0, 1, 0]), False),
    # inside the plane, of lower rank
    (cols([1, 1, 1], [2, 2, 2]), False),
    (cols([1, 1, 1], [2, 2, 2], [-1, -1, -1]), False),
    (cols([1, 1, 1]), False),
    # inside, with more columns than the dimension
    (cols([1, 1, 1], [1, -1, -1], [2, 0, 0]), True),
    (cols([0, 0, 0], [2, 3, 3], [1, 0, 0], [0, 1, 1]), True),
    (cols([1, 0, 0], [0, 1, 1]), True),
], ids=["outside", "outside-more-columns", "lower-rank", "lower-rank-more-columns",
        "one-column", "more-columns", "zero-column-more-columns", "basis"])
def test_spanned_by_a_plane(mat, spans):
    plane = Subspace.from_vectors([[1, 0, 0], [0, 1, 1]], 3)
    assert plane.spanned_by(mat) == spans == spans_canonically(plane, mat)


def test_spanned_by_ranks_the_pivot_rows_only(monkeypatch):
    # a mat inside is the basis times its pivot rows, so the rank is taken
    # on dim rows; a mat outside takes no rank at all
    plane = Subspace.from_vectors([[1, 0, 0, 2], [0, 1, 1, 0]], 4)
    shapes = []
    real = linalg.rank

    def spy(m):
        shapes.append(m.shape)
        return real(m)

    monkeypatch.setattr(linalg, "rank", spy)
    assert plane.spanned_by(cols([1, 1, 1, 2], [2, 0, 0, 4], [0, 3, 3, 0]))
    assert not plane.spanned_by(cols([1, 0, 0, 0], [0, 1, 1, 0]))
    assert shapes == [(2, 3)]


def test_rref_pivots():
    red, piv = rref(M([[0, 1, 2], [0, 2, 4]]))
    assert piv == [1]
    assert red.data[0][1] == QQi(1)


def test_stacking_keeps_the_left_backend():
    exact = M([[1, 2]])
    assert exact.hstack(M([[3]])).data == M([[1, 2, 3]]).data


def test_rational_and_integer_row_constructors_match_the_entry_route():
    # built straight into integer form (Mat of int and Fraction rows), they
    # give the canonical rows the QQi entries clear to, and the same entries
    rng = SplitMix64(7)
    for rows, cols in ((3, 3), (2, 5), (1, 1)):
        fr = [[rng.rational(12) if rng.below(3) else rng.below(5) - 2
               for _ in range(cols)] for _ in range(rows)]
        want = Mat([[QQi(x) for x in r] for r in fr])
        with builds_no_qqi():
            got = Mat(fr)
        assert got == want and got.data == want.data
        assert got._ints == want._ints
        den = 1 + rng.below(12)
        nums = [[rng.below(41) - 20 for _ in range(cols)] for _ in range(rows)]
        with builds_no_qqi():
            got = Mat.from_int_rows(nums, den)
        want = Mat([[QQi(Fraction(a, den)) for a in r] for r in nums])
        assert got == want and got.data == want.data
        assert got._ints == want._ints
