"""Group contexts, Borel data, the invariant form, and the sigma/rho maps."""

import copy
import itertools
from fractions import Fraction

from hypothesis import example, given, settings
import hypothesis.strategies as st
import pytest

from qqi_oracle import builds_no_qqi
from oracles import (annihilator, below, conj_field, from_vectors, mat_vec, rational,
                     rho_adjoint, sigma_adjoint)
from qpslab import liegroup
from qpslab.conventions import CORRUPTIONS, FROZEN, using
from qpslab.gspringer import _nonregular_torus
from qpslab.liegroup import (GroupContext, bracket, conjugate, context, group_of_json,
                             invariants, random_algebra, random_point, read_element,
                             sigma, torus_part, weyl_orders)
from qpslab.linalg import Mat, rank
from qpslab.matio import mat_to_json
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi

SL2 = context("sl2")
SL3 = context("sl3")
GL2 = context("gl2")
GROUPS = (SL2, SL3, GL2)


def alg(ctx, rows):
    """The algebra matrix with these rows; on SL it must be trace-free."""
    m = Mat([[QQi(Fraction(x)) for x in r] for r in rows])
    assert ctx.family == "GL" or not m.trace(), rows
    return m


def grp(rows):
    return Mat([[QQi(Fraction(x)) for x in r] for r in rows])


E12 = alg(SL2, [[0, 1], [0, 0]])
E21 = alg(SL2, [[0, 0], [1, 0]])
H = alg(SL2, [[1, 0], [0, -1]])
DIAG2 = grp([[2, 0], [0, Fraction(1, 2)]])
IDENT2 = grp([[1, 0], [0, 1]])


def test_dimension_table():
    for ctx, dims in ((SL2, (3, 2, 1, 1)), (SL3, (8, 5, 3, 2)), (GL2, (4, 3, 1, 2))):
        assert (ctx.dim_g, len(ctx.borel), len(ctx.unipotent), ctx.rank) == dims


def test_bracket_examples():
    assert bracket(E12, E12).is_zero()
    assert bracket(E12, E21) == H           # [e, f] = h
    assert bracket(H, E12) == E12.scale(QQi(2))  # [h, e] = 2e


def test_ad_examples():
    x = alg(SL2, [[1, 2], [3, -1]])
    assert conjugate(IDENT2, x) == x
    g = grp([[1, 1], [1, 2]])
    assert conjugate(g, conjugate(g.inverse(), x)) == x
    assert conjugate(DIAG2, E12) == E12.scale(QQi(4))


def test_sigma_examples():
    assert sigma(IDENT2, E12) == E12
    zero = alg(SL2, [[0, 0], [0, 0]])
    assert sigma(DIAG2, zero).is_zero()
    assert sigma(DIAG2, E12) == E12.scale(QQi(Fraction(5, 8)))


def test_sigma_adjoint_examples():
    assert sigma_adjoint(IDENT2, E12) == E12
    assert sigma_adjoint(DIAG2, alg(SL2, [[0, 0], [0, 0]])).is_zero()


def test_sigma_adjointness_two_routes():
    # (sigma-adjoint(alpha), xi) against alpha paired with sigma(xi), both
    # evaluated independently through the form, under the frozen and every
    # corrupted sigma (the two share one averaging helper)
    rng = SplitMix64(12)
    for conv in (FROZEN, *CORRUPTIONS.values()):
        with using(conv):
            for ctx in GROUPS:
                for _ in range(20):
                    g = random_point(ctx, "G", rng)
                    a = random_algebra(ctx, rng)
                    xi = random_algebra(ctx, rng)
                    lhs = ctx.form(sigma_adjoint(g, a), xi)
                    rhs = ctx.form(a, sigma(g, xi))
                    assert lhs == rhs, conv


def test_conj_field_examples():
    assert conj_field(IDENT2, E12).is_zero()
    center = alg(GL2, [[1, 0], [0, 1]])
    g = Mat([[QQi(2), QQi(1)], [QQi(0), QQi(3)]])
    assert conj_field(g, center).is_zero()
    assert conj_field(DIAG2, E12) == E12.scale(QQi(Fraction(3, 4)))


def test_rho_adjoint_against_closed_form():
    rng = SplitMix64(13)
    zero = alg(SL2, [[0, 0], [0, 0]])
    assert rho_adjoint(SL2, DIAG2, zero).is_zero()
    assert rho_adjoint(SL2, IDENT2, E12).is_zero()
    for ctx in GROUPS:
        for _ in range(20):
            g = random_point(ctx, "G", rng)
            v = random_algebra(ctx, rng)
            assert rho_adjoint(ctx, g, v) == v - g @ v @ g.inverse()


def test_torus_part_splits_a_borel_element():
    # b = t u, t the diagonal of b and u = t^-1 b unit upper triangular
    b = grp([[2, 3], [0, Fraction(1, 2)]])
    for m, t, u in ((IDENT2, IDENT2, IDENT2), (DIAG2, DIAG2, IDENT2),
                    (b, DIAG2, Mat([[QQi(1), QQi(Fraction(3, 2))], [QQi(0), QQi(1)]]))):
        assert torus_part(m) == t
        assert torus_part(m).inverse() @ m == u


def test_chevalley_examples():
    assert invariants(SL2, IDENT2) == (QQi(2),)
    assert invariants(SL2, DIAG2) == (QQi(Fraction(5, 2)),)
    unip = grp([[1, 1], [0, 1]])
    assert invariants(SL2, unip) == invariants(SL2, IDENT2)
    g3 = Mat([[QQi(1), QQi(2)], [QQi(3), QQi(4)]])
    assert invariants(GL2, g3) == (QQi(5), QQi(-2))  # trace and determinant


def test_chevalley_conjugation_invariant():
    rng = SplitMix64(14)
    for ctx in GROUPS:
        for _ in range(10):
            g = random_point(ctx, "G", rng)
            h = random_point(ctx, "G", rng)
            conj = h @ g @ h.inverse()
            assert invariants(ctx, conj) == invariants(ctx, g)


def newton_on_entries(ctx, m: Mat) -> tuple:
    """The invariants by Newton's identities on the QQi power sums tr(m^k)."""
    powers, acc = [m.trace()], m
    for _ in range(ctx.n - 1):
        acc = acc @ m
        powers.append(acc.trace())
    es = [QQi(1)]
    for k in range(1, ctx.n + 1):
        s = QQi(0)
        for i in range(1, k + 1):
            s = s + (es[k - i] * powers[i - 1] if i % 2 else -(es[k - i] * powers[i - 1]))
        es.append(s / k)
    return tuple(es[1:ctx.n] if ctx.family == "SL" else es[1:])


@pytest.mark.parametrize("name", sorted(liegroup.GROUPS))
def test_integer_invariants_match_newton_on_the_entries(name):
    # the integer route scales by den^k: rows over distinct denominators, a
    # Gaussian matrix and a negative trace all take it
    ctx = context(name)
    rng = SplitMix64(15)
    i = QQi(0, 1)
    gauss = Mat([[i * (r + 1) + Fraction(c, r + 2) for c in range(ctx.n)]
                 for r in range(ctx.n)])
    mats = [random_point(ctx, kind, rng) for kind in ("G", "G", "B", "U")]
    for m in mats + [gauss, -gauss, Mat.zeros(ctx.n, ctx.n)]:
        got = liegroup.invariants(ctx, m)
        assert got == newton_on_entries(ctx, m)
        assert got[0] == m.trace()
        if ctx.family == "GL":
            assert got[-1] == m.det()


def test_random_point_membership():
    rng = SplitMix64(15)
    t = random_point(SL2, "T", rng)
    assert t.entry(0, 1) == QQi(0) and t.entry(1, 0) == QQi(0)
    assert t.det() == QQi(1)
    u = random_point(SL3, "U", rng)
    for i in range(3):
        assert u.entry(i, i) == QQi(1)
        for j in range(i):
            assert u.entry(i, j) == QQi(0)
    for _ in range(10):
        assert random_point(SL3, "G", rng).det() == QQi(1)
    treg = random_point(SL3, "T-regular", rng)
    d = [treg.entry(i, i) for i in range(3)]
    assert len({repr(x) for x in d}) == 3


def test_form_ad_invariance():
    rng = SplitMix64(16)
    for ctx in GROUPS:
        for _ in range(100):
            g = random_point(ctx, "G", rng)
            x = random_algebra(ctx, rng)
            y = random_algebra(ctx, rng)
            assert ctx.form(conjugate(g, x), conjugate(g, y)) == ctx.form(x, y)


def test_borel_perp_is_unipotent_radical():
    # the annihilator of the Borel subalgebra under the form is the
    # unipotent radical; this is what kills the 3-form on B
    for ctx in GROUPS:
        b_cols = [[QQi(1) if i == k else QQi(0) for i in range(ctx.dim_g)]
                  for k in ctx.borel]
        bsub = from_vectors(b_cols, ctx.dim_g)
        ann = annihilator(bsub, ctx.gram)
        u_cols = [[QQi(1) if i == k else QQi(0) for i in range(ctx.dim_g)]
                  for k in ctx.unipotent]
        usub = from_vectors(u_cols, ctx.dim_g)
        assert ann.equals(usub)


def test_kernel_lemma_on_borel():
    # sigma(xi) annihilates all of T_B at tu exactly when the torus
    # component of xi vanishes
    rng = SplitMix64(17)
    for ctx in GROUPS:
        for _ in range(20):
            b = random_point(ctx, "B", rng)
            for k in ctx.borel:
                sig = sigma(b, ctx.basis[k])
                annihilates = all(
                    not ctx.form(sig, b.inverse() @ ctx.basis[m] @ b)
                    for m in ctx.borel
                )
                expected = k in ctx.unipotent
                assert annihilates == expected


def test_eta_alternating_and_invariant():
    rng = SplitMix64(18)
    for ctx in (SL2, SL3):
        for _ in range(20):
            x = random_algebra(ctx, rng)
            y = random_algebra(ctx, rng)
            z = random_algebra(ctx, rng)
            assert ctx.eta(x, y, z) == -ctx.eta(y, x, z)
            assert ctx.eta(x, y, z) == -ctx.eta(x, z, y)
            g = random_point(ctx, "G", rng)
            assert ctx.eta(conjugate(g, x), conjugate(g, y), conjugate(g, z)) \
                == ctx.eta(x, y, z)


def weyl_representative(n: int, order: list[int]) -> Mat:
    """W_w from its signed column order: the columns of [I | -I] in order."""
    return Mat.identity(n).hstack(-Mat.identity(n)).select_cols(order)


def test_weyl_group():
    # the one statement of the representatives, on every group: the n!
    # permutations in itertools order, det W_w = 1 on SL, and W_v W_w =
    # W_(v w) modulo the torus
    for name in sorted(liegroup.GROUPS):
        ctx = context(name)
        n, orders = ctx.n, weyl_orders(ctx)
        perms = [tuple(k % n for k in order) for order in orders]
        assert perms == list(itertools.permutations(range(n)))
        reps = {p: weyl_representative(n, order) for p, order in zip(perms, orders)}
        if ctx.family == "SL":
            assert all(rep.det() == QQi(1) for rep in reps.values())
        for v, w in itertools.product(perms, repeat=2):
            vw = tuple(v[w[j]] for j in range(n))
            t = reps[vw].inverse() @ reps[v] @ reps[w]
            assert all(not t.entry(i, j) for i in range(n) for j in range(n)
                       if i != j), (name, v, w)


def test_group_element_validation():
    # membership is checked where a matrix enters, in read_element
    det2 = mat_to_json(Mat([[1, 0], [0, 2]]))
    with pytest.raises(ValueError, match="determinant 1"):
        read_element(SL2, det2)
    with pytest.raises(ValueError, match="invertible"):
        read_element(SL2, mat_to_json(Mat([[0, 0], [0, 0]])))
    assert read_element(GL2, det2) == Mat([[1, 0], [0, 2]])


def test_group_element_json_roundtrip():
    g = DIAG2
    obj = dict(mat_to_json(g), group="sl2")
    assert group_of_json(obj) is SL2
    assert read_element(SL2, obj) == g
    with pytest.raises(ValueError):
        read_element(SL2, {"rows": 2, "cols": 2, "entries": []})


def test_gram_nondegenerate():
    for ctx in GROUPS:
        assert rank(ctx.gram) == ctx.dim_g


def test_gram_is_the_trace_form_on_the_basis():
    # the Gram matrix is read off the basis tables as T = G Ad_I; the d^2
    # trace products are its oracle
    for name in liegroup.GROUPS:
        ctx = context(name)
        assert ctx.gram == Mat([[ctx.form(x, y) for y in ctx.basis] for x in ctx.basis])


def test_dual_coords_are_the_trace_form_functionals():
    # dual_coords reads tr(e_c a) off the functional readers; the trace
    # products with the basis, and the Gram matrix times the coordinates,
    # are its oracles on the algebra
    rng = SplitMix64(30)
    for name in liegroup.GROUPS:
        ctx = context(name)
        for _ in range(3):
            a = liegroup.random_algebra(ctx, rng)
            want = [ctx.form(e, a) for e in ctx.basis]
            assert ctx.dual_coords(a) == want == mat_vec(ctx.gram, ctx.coords(a))


def test_gram_symmetric():
    # the double's A4 compares one block of the pulled-back form per draw;
    # the other three follow from it because the Gram matrix is symmetric
    for name in liegroup.GROUPS:
        ctx = context(name)
        assert ctx.gram == ctx.gram.transpose()


# the ordered bases written out: each label with the nonzero entries of its
# matrix, as (row, column, entry) with 1-based indices
LITERAL_BASES = {
    "sl3": (
        ("E12", ((1, 2, 1),)), ("E13", ((1, 3, 1),)), ("E23", ((2, 3, 1),)),
        ("H1", ((1, 1, 1), (2, 2, -1))), ("H2", ((2, 2, 1), (3, 3, -1))),
        ("E21", ((2, 1, 1),)), ("E31", ((3, 1, 1),)), ("E32", ((3, 2, 1),)),
    ),
    "gl3": (
        ("E12", ((1, 2, 1),)), ("E13", ((1, 3, 1),)), ("E23", ((2, 3, 1),)),
        ("E11", ((1, 1, 1),)), ("E22", ((2, 2, 1),)), ("E33", ((3, 3, 1),)),
        ("E21", ((2, 1, 1),)), ("E31", ((3, 1, 1),)), ("E32", ((3, 2, 1),)),
    ),
    "sl4": (
        ("E12", ((1, 2, 1),)), ("E13", ((1, 3, 1),)), ("E14", ((1, 4, 1),)),
        ("E23", ((2, 3, 1),)), ("E24", ((2, 4, 1),)), ("E34", ((3, 4, 1),)),
        ("H1", ((1, 1, 1), (2, 2, -1))), ("H2", ((2, 2, 1), (3, 3, -1))),
        ("H3", ((3, 3, 1), (4, 4, -1))),
        ("E21", ((2, 1, 1),)), ("E31", ((3, 1, 1),)), ("E32", ((3, 2, 1),)),
        ("E41", ((4, 1, 1),)), ("E42", ((4, 2, 1),)), ("E43", ((4, 3, 1),)),
    ),
}

# one matrix of the algebra on each group and its coordinates: the root
# coordinates are entries, the SL torus ones partial sums of the diagonal
LITERAL_COORDS = {
    "sl3": ([[1, 2, 3], [4, 5, 6], [7, 8, -6]],
            [2, 3, 6, 1, 1 + 5, 4, 7, 8]),
    "gl3": ([[1, 2, 3], [4, 5, 6], [7, 8, 9]],
            [2, 3, 6, 1, 5, 9, 4, 7, 8]),
    "sl4": ([[1, 5, 6, 7], [8, 2, 9, 10], [11, 12, 3, 13], [14, 15, 16, -6]],
            [5, 6, 7, 9, 10, 13, 1, 1 + 2, 1 + 2 + 3, 8, 11, 12, 14, 15, 16]),
}


@pytest.mark.parametrize("name", sorted(LITERAL_BASES))
def test_the_basis_and_its_coordinates_written_out(name):
    ctx = context(name)
    n = ctx.n
    want = []
    for _, entries in LITERAL_BASES[name]:
        m = [[0] * n for _ in range(n)]
        for i, j, x in entries:
            m[i - 1][j - 1] = x
        want.append(Mat(m))
    assert ctx.basis_labels == tuple(label for label, _ in LITERAL_BASES[name])
    assert ctx.basis == tuple(want)
    rows, coords = LITERAL_COORDS[name]
    assert ctx.coords(Mat(rows)) == [QQi(c) for c in coords]
    assert ctx.mat_from_coords(coords) == Mat(rows)


def test_coords_roundtrip():
    rng = SplitMix64(19)
    for ctx in GROUPS:
        for _ in range(10):
            x = random_algebra(ctx, rng)
            assert ctx.mat_from_coords(ctx.coords(x)) == x
        for indices in (ctx.borel, ctx.torus, ctx.unipotent):
            y = random_algebra(ctx, rng, indices=indices)
            full = ctx.coords(y)
            assert not any(c for i, c in enumerate(full) if i not in indices)
            assert ctx.mat_from_coords(full) == y


def sum_of_scaled_basis(ctx, coords):
    """The defining formula sum c_k b_k, the oracle for mat_from_coords."""
    acc = Mat.zeros(ctx.n, ctx.n)
    for c, b in zip(coords, ctx.basis):
        acc = acc + b.scale(c)
    return acc


def test_mat_from_coords_scatters_the_basis_sum():
    rng = SplitMix64(23)
    for name in liegroup.GROUPS:
        ctx = context(name)
        kinds = (
            lambda: below(rng, 21) - 10,
            lambda: rational(rng, 8),
            lambda: QQi(rational(rng, 8)),
        )
        for kind in kinds:
            for _ in range(5):
                c = [kind() for _ in range(ctx.dim_g)]
                m = ctx.mat_from_coords(c)
                assert m == sum_of_scaled_basis(ctx, c)
                assert ctx.coords(m) == c
        zero = [0] * ctx.dim_g
        assert ctx.mat_from_coords(zero) == Mat.zeros(ctx.n, ctx.n)
        with pytest.raises(ValueError):
            ctx.mat_from_coords(zero[1:])


def per_pair_brackets(ctx, v):
    """coords([Y_p, Y_q]) and the trace products (tr(e_c [Y_p, Y_q]))_c in
    row p k + q, one matrix bracket at a time: the oracle for
    GroupContext.brackets and brackets_and_functionals."""
    ys = [ctx.mat_from_coords(v.col(p)) for p in range(v.cols)]
    rows = [ctx.coords(liegroup.bracket(x, y)) for x in ys for y in ys]
    return Mat(rows), Mat([[ctx.form(e, liegroup.bracket(x, y)) for e in ctx.basis]
                           for x in ys for y in ys])


def test_brackets_match_the_per_pair_oracle():
    rng = SplitMix64(29)
    i = QQi(0, 1)
    for name in liegroup.GROUPS:
        ctx = context(name)
        d = ctx.dim_g
        fams = [Mat.identity(d),
                Mat([[QQi(rational(rng, 8)) for _ in range(3)] for _ in range(d)]),
                # a non-real family, with Gaussian numerators
                Mat([[QQi(rational(rng, 4), below(rng, 3)) for _ in range(2)]
                     for _ in range(d)]).hstack(Mat.from_columns([[i] * d], d))]
        for v in fams:
            coords, dual, den = ctx.brackets_and_functionals(v)
            want = per_pair_brackets(ctx, v)
            assert (Mat.from_int_rows(coords, den),
                    Mat.from_int_rows(dual, den)) == want, (name, v.cols)
            # brackets reads the pairs it is given, in their order
            k = v.cols
            pairs = [(p, q) for p in range(k) for q in range(k)][::-1]
            rows, rden = ctx.brackets(v, pairs)
            assert rden == den and rows == [coords[p * k + q] for p, q in pairs], \
                (name, k)
            # the rows are fresh lists, so no caller that combines them can
            # touch the integer rows that int_entries keeps
            kept = {id(r) for m in (v, v.transpose(), *ctx.algebra_matrices(v))
                    for r in m.int_entries()[0]}
            assert not kept & {id(r) for r in (*rows, *coords, *dual)}
            # the algebra matrices of the columns, built as integer rows
            with builds_no_qqi():
                mats = ctx.algebra_matrices(v)
            assert mats == [ctx.mat_from_coords(v.col(p)) for p in range(v.cols)]


# the samplers as they were built before, entry by entry over QQi: the
# oracles of the integer-form samplers


def qqi_unitriangular(n, rng, height, lower):
    m = [[QQi(1) if i == j else QQi(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if (i > j) if lower else (i < j):
                m[i][j] = QQi(rational(rng, height))
    return Mat(m)


def qqi_diagonal(entries):
    n = len(entries)
    return Mat([[QQi(entries[i]) if i == j else QQi(0) for j in range(n)]
                for i in range(n)])


def qqi_torus_mat(ctx, rng, height, regular):
    n = ctx.n
    while True:
        if ctx.family == "SL":
            entries = [rational(rng, height, nonzero=True) for _ in range(n - 1)]
            prod = Fraction(1)
            for e in entries:
                prod *= e
            entries.append(1 / prod)
        else:
            entries = [rational(rng, height, nonzero=True) for _ in range(n)]
        if not regular or len(set(entries)) == n:
            break
    return qqi_diagonal(entries)


def qqi_random_point(ctx, kind, rng, height):
    n = ctx.n
    if kind == "G":
        low = qqi_unitriangular(n, rng, height, lower=True)
        up = qqi_unitriangular(n, rng, height, lower=False)
        return low @ qqi_torus_mat(ctx, rng, height, regular=False) @ up
    if kind == "B":
        t = qqi_torus_mat(ctx, rng, height, regular=False)
        return t @ qqi_unitriangular(n, rng, height, lower=False)
    if kind in ("T", "T-regular"):
        return qqi_torus_mat(ctx, rng, height, regular=kind == "T-regular")
    return qqi_unitriangular(n, rng, height, lower=False)


def qqi_random_algebra(ctx, rng, height, indices):
    coords = [QQi(0)] * ctx.dim_g
    for i in indices:
        coords[i] = QQi(rational(rng, height))
    return ctx.mat_from_coords(coords)


def qqi_nonregular_torus(ctx, rng):
    n = ctx.n
    r = rational(rng, 6, nonzero=True)
    entries = [r, r]
    while len(entries) < n:
        entries.append(rational(rng, 6, nonzero=True))
    if ctx.family == "SL":
        prod = Fraction(1)
        for e in entries[:-1]:
            prod *= e
        entries[-1] = 1 / prod
        if n == 2:
            entries = [Fraction(-1), Fraction(-1)]
    return qqi_diagonal(entries)


SAMPLE_KINDS = ("G", "B", "T", "T-regular", "U")
# the h of the sampling note in the conventions, at which every sampler draws
SAMPLE_HEIGHT = 10


def samplers_match_the_oracles(ctx, seed):
    """Draw every sampler from two streams of ``seed``, one for the
    integer-form samplers and one for their QQi entry oracles, and
    assert the same matrices, in entries and integer form, from the same
    draws: after each sample the two streams are in the same state.

    Returns the draws' events: "negative" for an SL torus whose drawn
    entries have a negative product (so its last entry 1/prod is negative),
    "redraw" for a T-regular sample that redrew its diagonal.
    """
    events = set()
    new, old = SplitMix64(seed), SplitMix64(seed)
    for kind in SAMPLE_KINDS:
        probe = copy.copy(new)
        got, want = (random_point(ctx, kind, new),
                     qqi_random_point(ctx, kind, old, SAMPLE_HEIGHT))
        assert got == want and got.data == want.data, (seed, kind)
        assert new.state == old.state, (seed, kind)
        if kind == "T" and ctx.family == "SL" and got.data[-1][-1].re < 0:
            events.add("negative")
        if kind == "T-regular":
            # one diagonal draw moves the probe as far as a sample without
            # a redraw moves the stream
            random_point(ctx, "T", probe)
            if probe.state != new.state:
                events.add("redraw")
    for indices in (range(ctx.dim_g), ctx.borel, ctx.unipotent, ctx.torus):
        got = random_algebra(ctx, new, indices)
        want = qqi_random_algebra(ctx, old, SAMPLE_HEIGHT, indices)
        assert got == want and got.data == want.data, (seed, indices)
        assert new.state == old.state, (seed, indices)
    got, want = _nonregular_torus(ctx, new), qqi_nonregular_torus(ctx, old)
    assert got == want and got.data == want.data, seed
    assert new.state == old.state, seed
    return events


@pytest.mark.parametrize("name", sorted(liegroup.GROUPS))
def test_samplers_match_the_qqi_entry_oracles(name):
    ctx = context(name)
    for seed in (1, 2, 3, 20260809):
        samplers_match_the_oracles(ctx, seed)


# a seed whose draws hold an SL torus with a negative product and a
# T-regular redraw: an explicit example of the property below
PINNED_DRAWS = 4


def test_the_pinned_draws_hold_a_negative_torus_and_a_redraw():
    events = set()
    for name in sorted(liegroup.GROUPS):
        events |= samplers_match_the_oracles(context(name), PINNED_DRAWS)
    assert events == {"negative", "redraw"}


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
@example(PINNED_DRAWS)
def test_samplers_match_the_oracles_at_any_seed(seed):
    for name in sorted(liegroup.GROUPS):
        samplers_match_the_oracles(context(name), seed)


# the guards where a group and its samples are named
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: GroupContext("XL", 2), "family must be 'SL' or 'GL'",
                 id="bad-family"),
    pytest.param(lambda: GroupContext("GL", 1), "need n >= 2", id="n-below-2"),
    pytest.param(lambda: context("so3"), "unknown group 'so3'", id="unknown-group"),
    pytest.param(lambda: random_point(context("sl2"), "Q", SplitMix64(1)),
                 "unknown sample kind 'Q'", id="unknown-sample-kind"),
])
def test_each_group_guard_refuses_its_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
