"""The fusion double, its restriction to G x B, and the quotient G x_B B.

Everything here is pointwise and exact; no computation here runs in
floating point.  The double G x G carries the 2-form

    omega_(a,b)((x1,y1),(x2,y2)) = -1/2 [ (x1, Ad_b y2) - (x2, Ad_b y1)
                                        + (x2, Ad_b x1) - (x1, Ad_b x2)
                                        + (x1, y2)      - (x2, y1) ]

in left-trivialized coordinates: the standard double form transported to
the coordinates where the group acts by (g1,g2).(a,b) = (g1 a g2^-1,
g2 b g2^-1) with moment map (a,b) -> (a b a^-1, b^-1), with the global sign
chosen so that the moment maps are forward-Dirac onto the conjugation
structure whose tangent part is xi^L - xi^R.  Consistently, action
generators throughout this module are the *negatives* of the naive
derivative of the printed action; the identity-fiber value
(x2,y1) - (x1,y2) is forced by the moment condition and anchors the sign.
The axiom suite (moment condition, d(omega), nondegeneracy, invariance)
plus the forward-Dirac checks are the contract for this formula.

The quotient's data is the double's data restricted to G x P.  Three
matrices are built, each in one place and on the double only: the form
(:func:`omega_matrix`), the differential of the moment map
(:func:`phi_differential`) and the second factor's action generators
(:func:`action_generators`).  A :class:`QuotientChart` states P once, as the
index lists of its coordinates and of its nilradical N's in the algebra
basis, and every G x P or G x N quantity is the block of one of the three
that those lists select.  P = B with N = U is the one maker
(:func:`borel_chart`), and the only code here that reads the context's
``borel`` and ``unipotent`` index tuples; no other function takes a
subgroup tag or does dimension arithmetic on P.

A point of G x_P P is its representative pair (g, p) of group elements,
each its n x n matrix, and every function here that needs the group takes
its context first; nothing wraps them, so mu is ``conjugate(g, p)`` and
lambda ``torus_part(p)``.  The JSON form of a point of G x_B B,
``{"g", "b", "group"}``, has one writer (:func:`point_to_json`) and one
reader (:func:`point_from_json`), and the reader is the one place that
checks b in B.

omega depends on the point only through T = G Ad_b, so its matrix and its
exterior derivative (:func:`d_omega`) are closed block forms on the integer
kernel; the derivative of T along a direction is a bracket, read off the
n x n products of :meth:`~qpslab.liegroup.GroupContext.brackets`.  The
suites take d(omega) on the double and on the leaf slice G x tU from
:func:`d_omega`, on random triples drawn by one sampler
(:func:`sampled_d_identity`).  The entrywise
:func:`qpslab.diffcalc.omega_value`, differentiated with dual numbers by
:func:`qpslab.diffcalc.d_two_form`, is the independent oracle of both
closed forms in the tests; this module does not import the engine.

Quotient computations work in per-point charts: the vertical space of the
P-action h.(g,p) = (g h^-1, h p h^-1) is complemented by a deterministic
greedy choice of coordinate directions, and representative independence is
itself one of the verified claims, never an assumption: a chart's fiber,
moved by :func:`chart_transport` to the chart of another representative,
must be the fiber built there (:func:`representative_independent`).  The
vertical space is the block of the action generators at P's columns, its
canonical basis as built, and by matroid duality its greedy complement is
the complement of its lexicographically last row basis (Oxley, *Matroid
Theory*, the greedy algorithm and duality), so one small elimination builds
the chart coordinates.

The :class:`QuotientChart` is the one place where a quotient point's
closed-form data is derived.  It builds T, the G x P block W of the form
and the vertical space, and derives the rest when first read, at most once:
regact reads W and the vertical space alone, and only theorem 1 reads the
graph.  The conjugation sections at mu are not kept on the chart, because
they read the active conventions at the moment they are built; each check
builds them once and reads their columns, and builds
:func:`~qpslab.dirac.cartan_dirac`'s fiber of them only for a witness.

Every check builds only what its verdict reads.  The chart keeps the rows
of d(phi) that are d(mu . q) and the vertical basis as a matrix, and an
equality of a Lagrangian with a spanning set is decided on the set as it
comes (:meth:`~qpslab.linalg.Subspace.spanned_by`), with one side
canonical: the fiber and its pushforward along d(mu) are the only fibers
the checks canonicalize.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, reduce
from math import lcm
from operator import sub

from .conventions import ACTIVE
from .dirac import (DiracFiber, cartan_dirac, graph_two_form, is_lagrangian,
                    is_skew, pushforward_spanning_set)
from .liegroup import (GroupContext, _parity, conjugate, conjugation_sections,
                       group_of_json, invariants, random_point, read_element,
                       reciprocal_product, sigma_average, weyl_orders)
from .linalg import Mat, Subspace, kernel, null_vectors, rref, solve_columns
from .matio import mat_to_json
from .prng import SplitMix64
from .scalars import QQi


class NotRegularSemisimple(ValueError):
    pass


# ---------------------------------------------------------------------------
# points


def point_to_json(ctx: GroupContext, g: Mat, b: Mat) -> dict:
    """The JSON object of the point [g : b] of G x_B B, through its pair."""
    return {"g": mat_to_json(g), "b": mat_to_json(b), "group": ctx.name}


def point_from_json(obj: dict) -> tuple[GroupContext, Mat, Mat]:
    """The group and representative pair (g, b) of a JSON point, the one
    check that b lies in B, after :func:`~qpslab.liegroup.read_element`'s
    checks of each."""
    ctx = group_of_json(obj)
    g, b = read_element(ctx, obj["g"]), read_element(ctx, obj["b"])
    if not ctx.in_borel(b):
        raise ValueError("second component must be upper triangular")
    return ctx, g, b


def steinberg_membership(ctx: GroupContext, g: Mat, t: Mat) -> bool:
    """Whether g lies in the Steinberg fiber of the diagonal t: the same
    Chevalley invariants."""
    if not ctx.in_borel(t) or not ctx.in_borel(t.transpose()):
        raise ValueError("reference point must be diagonal")
    return invariants(ctx, g) == invariants(ctx, t)


# ---------------------------------------------------------------------------
# the maps of the big diagram


def phi(a: Mat, b: Mat) -> tuple[Mat, Mat]:
    """The moment map of the double: (a, b) -> (a b a^-1, b^-1)."""
    return conjugate(a, b), b.inverse()


def phi_differential(ctx: GroupContext, a: Mat, b: Mat) -> Mat:
    """Closed-form differential of the moment map (a, b) -> (a b a^-1, b^-1).

    Built on the double only.  (x, y) -> (Ad_a (Ad_{b^-1} x + y - x),
    -Ad_b y), so the matrix is [[Ad_a (Ad_{b^-1} - I), Ad_a], [0, -Ad_b]],
    where Ad_a Ad_{b^-1} = Ad_{a b^-1}; its first dim G rows are
    :func:`mu_differential`.  The per-basis columns coords(a (b^-1 x b - x)
    a^-1) and (coords(a y a^-1), -coords(b y b^-1)) are its oracle in the
    tests, as is the dual-number :func:`qpslab.diffcalc.phi_map`.  Each
    adjoint reads the inverse its matrix keeps.
    """
    top = mu_differential(ctx, a, b, range(ctx.dim_g))
    return top.vstack(Mat.zeros(ctx.dim_g, ctx.dim_g).hstack(-ctx.adjoint(b)))


def mu_differential(ctx: GroupContext, a: Mat, b: Mat, second) -> Mat:
    """The first dim G rows of :func:`phi_differential`, d(a b a^-1) =
    [Ad_{a b^-1} - Ad_a | Ad_a], at the columns of the first factor and of
    the increasing index list ``second`` of the second's coordinates.

    With b in a subgroup P and ``second`` P's list, this is d(mu . q) on a
    :class:`QuotientChart`'s upstairs coordinates, the only rows of d(phi)
    that the chart reads, so the chart builds no Ad_b.
    """
    ad_a = ctx.adjoint(a)
    return (ctx.adjoint(a @ b.inverse()) - ad_a).hstack(
        _restrict(ad_a, range(ctx.dim_g), second))


def action_generators(ctx: GroupContext, b: Mat, second) -> Mat:
    """The second factor's action generators at (a, b), [I; I - Ad_{b^-1}],
    at the rows of the first factor and, for both factors' second part and
    the columns, the increasing index list ``second`` of the second
    factor's coordinates: ``range(dim G)`` on the double.

    Column k is ``rho_double`` of (0, e_k), the oracle in
    ``tests/oracles.py``: the negated derivative of the action of e_k; it
    does not depend on a.  With ``second`` the index list of a subgroup P,
    the P-action on G x P generates this block, at a
    :class:`QuotientChart`'s upstairs rows and P's columns, and the
    N-action the columns of N among those.  Transposed, the block is
    already in reduced row echelon form (row r is zero in the first factor
    but for a 1 at the r-th listed coordinate, and the list increases), so
    a :class:`~qpslab.linalg.Subspace` recognises it as the canonical basis
    of its span without elimination.
    """
    d = ctx.dim_g
    eye = Mat.identity(d)
    return _restrict(eye, range(d), second).vstack(
        _restrict(eye - ctx.adjoint(b.inverse()), second))


def _restrict(m: Mat, rows, cols=None) -> Mat:
    """The block of ``m`` at the increasing index lists ``rows`` and
    ``cols`` (default ``rows``); a list of every index keeps its side as it
    is, with no copy."""
    cols = rows if cols is None else cols
    if len(rows) < m.rows:
        m = m.select_rows(rows)
    return m.select_cols(cols) if len(cols) < m.cols else m


# ---------------------------------------------------------------------------
# the 2-form of the double


def omega_scale() -> Fraction:
    """-omega_sign/2 of the active conventions: the scale of omega's blocks."""
    return Fraction(-ACTIVE.get().omega_sign, 2)


def omega_matrix(ctx: GroupContext, t: Mat, second) -> Mat:
    """Matrix of omega on the tangent basis of the double, at the
    coordinates of the first factor and of the increasing index list
    ``second`` of the second's: ``range(dim G)`` on the double.

    The closed block form is W = c [[T' - T, T + G], [-(T' + G), 0]] with
    c = :func:`omega_scale`, T = G Ad_b on algebra coordinates
    (:meth:`~qpslab.liegroup.GroupContext.gram_adjoint`, read off b and the
    inverse it keeps, with no d x d product) and G the form's Gram matrix:
    omega depends on the point (a, b) only through T.  G is symmetric, so
    with A = T + G the form is c [[A' - A, A], [-A', 0]], one sum and one
    transpose.  With ``second`` the index list of a subgroup P this is the
    G x P block, built from the columns of A and the rows of A' at
    ``second`` directly, as a :class:`QuotientChart` reads it.  The
    entrywise evaluator :func:`qpslab.diffcalc.omega_value` is the
    independent oracle for this in the tests.
    """
    d, k = ctx.dim_g, len(second)
    a = t + ctx.gram
    at = a.transpose()
    w = (at - a).hstack(_restrict(a, range(d), second)).vstack(
        (-_restrict(at, second, range(d))).hstack(Mat.zeros(k, k)))
    return w.scale(omega_scale())


def _t_derivative(t: Mat, r: Mat) -> Mat:
    """The derivative -T R(y) of T = G Ad_b along b (I + s y), ``r`` being R(y).

    Ad_{b (I + s y)} = Ad_b (I + s ad_y) and ad_y = -R(y).  The product is
    associative, so ``t`` may be any P T and ``r`` any [R(y) E | ...].
    """
    return -(t @ r)


def d_omega(ctx: GroupContext, t: Mat, w: Mat, second, v: Mat):
    """d(omega)(x, y, z) from the block form of :func:`omega_matrix`.

    ``t`` is T = G Ad_b at the point and ``w`` the omega matrix there, on
    the double or on a slice G x K of it, K a subgroup (P, or its
    nilradical N); ``second`` is the increasing index list of the second
    factor's coordinates in the algebra basis, ``range(dim G)`` on the
    double, and may be empty.  The tangent coordinates x, y, z are the three
    columns of ``v``.  With constant-coordinate fields,

        d(omega)(X, Y, Z) = sum_cyc [ Y' (d_X W) Z - [X, Y]' W Z ].

    W depends on the point only through T, and along (x, y) the matrix T
    moves by -T R(y) (:func:`_t_derivative`), so d_X W is the block form with
    T replaced by D = -T R(y_X) and the constant G blocks dropped.  On the
    directions u_j, that form is -s/2 (K[j, l] - K[l, j]) with K = P' D (Q - P),
    the columns of P and Q being the first- and second-factor parts of the
    directions (the second written out in all dim G coordinates, zero off
    ``second``).  The cyclic sum reads K at (j, (i, l)) and (l, (i, j)) for
    (i, j, l) cyclic, so only the six columns R(y_i) (Q - P) at l != i of
    the product, R(y) a being coords([a, y]), are built.  Those columns and
    the brackets, blockwise, read 15 of the 36 brackets of the six
    directions, read off one n x n product (:meth:`GroupContext.brackets`),
    whose raw integer rows each row of both is combined from, and
    canonicalized once.  :func:`qpslab.diffcalc.d_two_form` of
    :func:`qpslab.diffcalc.omega_fn` is the oracle for this in the tests.
    """
    d = ctx.dim_g
    dim = w.rows
    first = v.row_block(0, d)
    # Q: v's rows after the first d at the coordinates ``second``, and the
    # zero row appended to v at the others
    at = dict(zip(second, range(d, dim)))
    q = v.vstack(Mat.zeros(1, 3)).select_rows([at.get(c, dim) for c in range(d)])
    cyc = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    # the columns (i, l) of R at l != i, and the brackets they and the
    # cyclic sum read, Y_p being the columns of P and then Q
    cols = list(itertools.permutations(range(3), 2))
    pairs = ([(i, j) for i, j, _ in cyc] + [(3 + l, 3 + i) for i, l in cols]
             + [(l, 3 + i) for i, l in cols])
    brackets, den = ctx.brackets(first.hstack(q), pairs)
    row = dict(zip(pairs, brackets)).__getitem__

    # entry (c, l): omega of the c-th bracket, blockwise, and direction l;
    # K is a subgroup, so the brackets of Q lie in its coordinates
    alg = Mat.from_int_rows([row((i, j)) + [row((3 + i, 3 + j))[c] for c in second]
                             for i, j, _ in cyc], den) @ w @ v
    # K = P' D (Q - P) as (P' T) R, R's column (i, l) being R(q_i) (q_l - p_l)
    rmat = Mat.from_int_rows([list(map(sub, row((3 + l, 3 + i)), row((l, 3 + i))))
                              for i, l in cols], den)
    kmat = _t_derivative(first.transpose() @ t, rmat.transpose())
    col = {c: k for k, c in enumerate(cols)}
    scale = omega_scale()
    total = QQi(0)
    for c, (i, j, l) in enumerate(cyc):
        kij = kmat.entry(j, col[i, l]) - kmat.entry(l, col[i, j])
        total = total + kij * scale - alg.entry(c, l)
    return total


def sampled_d_identity(ctx: GroupContext, t: Mat, w: Mat, second,
                       dphi: Mat, rng: SplitMix64, triples: int) -> bool:
    """d(omega) = -(sum of eta) pulled back by ``dphi``, on random triples.

    ``t`` and ``w`` are T = G Ad_b and an :func:`omega_matrix` at a point,
    ``second`` the second factor's algebra index list (:func:`d_omega`),
    and ``dphi`` the differential, on the same tangent coordinates, of the
    map that pulls eta back: its rows are stacked dim G blocks, one
    per factor of the target, and each block carries eta.  The double's A2
    passes ``range(dim G)`` and its :func:`phi_differential` (eta (+) eta);
    the leaf d-identity of :func:`leaf_two_form` passes N's list and d(mu)
    on the slice G x tN.  Each triple
    is three height-3 direction vectors of ``w``'s size, drawn from ``rng``
    one after another as the columns of one matrix V, built straight into
    integer rows from the drawn pairs (:meth:`Mat.from_pairs`), so the
    check runs on the integer kernel throughout: one product ``dphi @ V``
    pushes all three, each dim G block of it gives eta's three algebra
    matrices as integer rows
    (:meth:`~qpslab.liegroup.GroupContext.algebra_matrices`), and d(omega)
    comes from :func:`d_omega` on V.  The first failing triple ends the
    check.
    """
    d = ctx.dim_g
    dim = w.rows
    for _ in range(triples):
        cols = [[rng.rational_pair(3) for _ in range(dim)] for _ in range(3)]
        v = Mat.from_pairs(list(zip(*cols)))
        pushed = dphi @ v
        rhs = QQi(0)
        for r in range(0, dphi.rows, d):
            rhs = rhs - ctx.eta(*ctx.algebra_matrices(pushed.row_block(r, r + d)))
        if d_omega(ctx, t, w, second, v) != rhs:
            return False
    return True


def moment_condition_holds(ctx: GroupContext, a: Mat, b: Mat, w: Mat,
                           dphi: Mat) -> bool:
    """omega^flat of every basis action field equals its pulled-back sigma
    covector (axiom A1), as one matrix equation.

    ``w`` and ``dphi`` are :func:`omega_matrix` and :func:`phi_differential`
    at (a, b) on the double.  The action generator of (xi1, xi2) is
    R (xi1, xi2) with

        R = [[-Ad_{a^-1}, I], [0, I - Ad_{b^-1}]]

    (the oracle ``rho_double``; its second block column is
    :func:`action_generators`), and its sigma covector at phi(a, b) =
    (g1, b^-1) has functional coordinates
    diag(G sigma(I, Ad_{g1^-1}), G sigma(I, Ad_b)), the A blocks of
    :func:`~qpslab.liegroup.conjugation_sections` at g1 and at b^-1.  So A1
    on the basis of g (+) g is

        W' R == dphi' diag(G sigma(I, Ad_{g1^-1}), G sigma(I, Ad_b)).

    The per-generator ``moment_condition_check`` of ``tests/oracles.py`` is
    the oracle for this in the tests.
    """
    zero = Mat.zeros(ctx.dim_g, ctx.dim_g)
    r = (-ctx.adjoint(a.inverse())).vstack(zero).hstack(
        action_generators(ctx, b, range(ctx.dim_g)))
    s1 = conjugation_sections(ctx, conjugate(a, b))[2]
    s2 = conjugation_sections(ctx, b.inverse())[2]
    sig = s1.hstack(zero).vstack(zero.hstack(s2))
    return w.transpose() @ r == dphi.transpose() @ sig


# ---------------------------------------------------------------------------
# the quotient point and its chart


class QuotientChart:
    """A point of G x_P P at its representative (g, p): the double there
    restricted to G x P, and a pointwise chart, a complement to the
    vertical space.

    The subgroup P is given as index lists of the algebra basis, both in
    increasing order: ``sub`` holds P's coordinates and ``nil`` those of its
    nilradical N.  They are P's data, not options; :func:`borel_chart` gives
    them for P = B.  ``up`` lists the upstairs coordinates, those of G x P
    among the double's: all of the first factor, then P's of the second;
    ``ambient`` is their count and ``hdim``, dim G, the chart's.  Built with
    the chart, under the conventions active then:

    * ``t``, T = G Ad_p (:meth:`~qpslab.liegroup.GroupContext.gram_adjoint`),
      through which omega depends on the point, and ``w``, the G x P block
      :func:`omega_matrix` builds at P's list;
    * ``vertical``, the P-action generators, the block of
      :func:`action_generators` at P's columns: a basis of the vertical
      space, whose transpose is in reduced row echelon form, kept as a
      matrix because only its columns are read;
    * two lists of upstairs positions: ``leaf_slice``, the coordinates of
      the leaf slice G x N, and ``levi``, the rows of P's coordinates
      outside N (for P = B, the torus rows).

    Every G x P or G x N quantity of the quotient is one of these blocks,
    so the functions below state nothing about where P sits in the basis.

    ``indices`` are the coordinate directions S that complement the
    vertical space V greedily: taken in order, each unit vector leaves the
    span of V and those before it.  By matroid duality this greedy basis of
    the quotient by V is the complement of V's lexicographically last row
    basis T (Oxley, *Matroid Theory*, the greedy algorithm and duality), and
    T is the pivot set of one rref R of V^T with its columns in reverse
    order.  The rows of R span V as well, with R[:, T] = I, so ``proj``, the
    first h rows of [I_S | V]^-1, I_S the identity's columns at S, is read
    off it: proj[:, S] = I_h and proj[:, t_r] = -R[r, S]^T for the pivot
    t_r of row r.  ``proj`` maps upstairs tangent coordinates to chart
    coordinates; chart coordinate i is upstairs coordinate ``indices[i]``,
    so the chart embeds back by a selection.  Quotient covectors are the
    functionals that factor through ``proj``.

    The rest reads no convention, and is derived when first read and then
    kept: ``dmu_up``, d(mu . q) upstairs, the first dim G rows of the G x P
    block of :func:`phi_differential` (:func:`mu_differential`), the only
    rows of it that anything reads; the complement, ``indices`` and
    ``proj``; ``fiber_span``, columns that span the pushforward of the
    graph of W to the chart (:func:`quotient_fiber`), and ``fiber``, their
    canonical span; ``graph``, ``mu``, ``dmu`` and ``leaf``.  A check that
    only asks whether the fiber equals a subspace known canonically reads
    ``fiber_span`` and leaves the fiber unbuilt
    (:func:`representative_independent`).
    """

    def __init__(self, ctx: GroupContext, g: Mat, p: Mat, sub, nil):
        self.ctx = ctx
        d = self.hdim = ctx.dim_g
        self.g, self.p = g, p
        self.sub, self.nil = tuple(sub), tuple(nil)
        self.up = [*range(d), *(d + k for k in self.sub)]
        self.ambient = len(self.up)
        # the upstairs position of each of P's coordinates
        at = {k: d + i for i, k in enumerate(self.sub)}
        self.leaf_slice = [*range(d), *(at[k] for k in self.nil)]
        self.levi = [at[k] for k in self.sub if k not in self.nil]
        self.t = ctx.gram_adjoint(p)
        self.w = omega_matrix(ctx, self.t, self.sub)
        self.vertical = action_generators(ctx, p, self.sub)

    def translate(self, h: Mat) -> "QuotientChart":
        """The chart at the representative h.(g, p) = (g h^-1, h p h^-1) of
        the same class, h in P."""
        return QuotientChart(self.ctx, self.g @ h.inverse(), conjugate(h, self.p),
                             self.sub, self.nil)

    @cached_property
    def dmu_up(self) -> Mat:
        """d(mu . q) on the upstairs coordinates: the first dim G rows of
        the G x P block of :func:`phi_differential` at (g, p)."""
        return mu_differential(self.ctx, self.g, self.p, self.sub)

    @cached_property
    def _complement(self) -> tuple[tuple, Mat]:
        """``(indices, proj)``, from one rref of the reversed V^T."""
        amb = self.ambient
        # pivot p of the reversed rref is the coordinate amb - 1 - p
        echelon, pivots = rref(
            self.vertical.transpose().select_cols(range(amb - 1, -1, -1)))
        last = [amb - 1 - p for p in pivots]
        indices = [j for j in range(amb) if j not in last]
        # [I_h | -R[:, S]^T] holds the columns of S, then those of T; put
        # each coordinate's column at its place
        rs = echelon.select_cols([amb - 1 - j for j in indices])
        order = indices + last
        proj = Mat.identity(self.hdim).hstack(-rs.transpose()).select_cols(
            sorted(range(amb), key=order.__getitem__))
        return tuple(indices), proj

    indices = property(lambda self: self._complement[0])
    proj = property(lambda self: self._complement[1])

    @cached_property
    def fiber_span(self) -> Mat:
        """Columns that span the pushforward of the graph of W to the
        chart, not canonicalized (:func:`quotient_fiber`)."""
        return quotient_fiber(self)

    @cached_property
    def fiber(self) -> DiracFiber:
        """The pushforward of the graph of W to the chart: the canonical
        span of ``fiber_span``."""
        return DiracFiber(self.fiber_span)

    @cached_property
    def graph(self) -> DiracFiber:
        """The graph of W upstairs: a reshaping of W, which reads no
        convention."""
        return graph_two_form(self.w)

    @cached_property
    def mu(self) -> Mat:
        """mu at the chart's point, g p g^-1: the first factor of :func:`phi`."""
        return conjugate(self.g, self.p)

    @cached_property
    def dmu(self) -> Mat:
        """d(mu) on the chart: ``dmu_up`` at the chart coordinates' columns."""
        return self.dmu_up.select_cols(self.indices)

    @cached_property
    def leaf(self) -> Subspace:
        """The leaf directions: the tangent part of ``fiber``, read off its
        canonical basis with no elimination
        (:meth:`~qpslab.dirac.DiracFiber.tangent_part`)."""
        return self.fiber.tangent_part()


def borel_chart(ctx: GroupContext, g: Mat, b: Mat) -> QuotientChart:
    """The chart of G x_B B at the representative pair (g, b) of a point.

    B's and U's coordinates are the context's ``borel`` and ``unipotent``
    index tuples; this is the one quotient function that reads them.
    """
    return QuotientChart(ctx, g, b, ctx.borel, ctx.unipotent)


def quotient_fiber(chart: QuotientChart) -> Mat:
    """Columns that span the pushforward of the restricted graph to the
    chart, a Lagrangian of dim G; the chart's ``fiber`` is their span.

    It is reduced to one small null space.  With P = ``proj``, S the chart's
    coordinates (``indices``), w the chart's form and V its vertical basis,
    the pushforward of the graph {(X, w^T X)} is {(P X, b) : P^T b = w^T X}.
    P has full rank and kernel V, so P^T maps the chart covectors one to one
    onto the covectors that vanish on V.  Hence b exists exactly when
    V^T w^T X = 0, and it is then unique, b = (P^T b)_S = (w^T X)_S, since
    the columns of P at S are the identity's.  So

        f_* L = {(P X, (w^T X)_S) : V^T w^T X = 0},

    spanned over the null vectors X of the dim V x ambient matrix V^T w^T.
    :func:`~qpslab.dirac.pushforward_linear` along ``proj`` solves an
    ambient x (dim G + ambient) system for the same subspace, and is the
    oracle of this reduction in the tests.
    """
    wt = chart.w.transpose()
    null = null_vectors(chart.vertical.transpose() @ wt)
    return (chart.proj @ null).vstack(wt.select_rows(chart.indices) @ null)


def weyl_fiber(ctx: GroupContext, rs: Mat, t: Mat
               ) -> tuple[list[tuple[Mat, Mat]], dict | None]:
    """The mu-fiber over rs = g t g^-1, for a diagonal t, as exact pairs (h, b).

    Column i of h is the null vector of rs - t_i I; on SL column 0 is scaled
    so that det h = 1.  Each Weyl representative W_w, in the order of
    :func:`~qpslab.liegroup.weyl_orders`, gives the point (h_w, b_w) =
    (h W_w, W_w^-1 t W_w): the columns of h in w's signed order, and the
    diagonal of t in w's order.  h is inverted once: h_w^-1 is the rows of
    h^-1 in the same signed order.

    Returns ``(points, witness)``.  The witness is None when all four
    conditions hold; otherwise it names the first that fails, with its
    entry or ordering:

    * ``regular``: each null space of rs - t_i I is one line;
    * ``det-one``: on SL, det h_w = 1, read as det h times det W_w, the
      sign of w's signed order;
    * ``mu-is-rs``: h_w^-1 rs h_w = b_w, so mu(h_w, b_w) = rs exactly;
    * ``inequivalent``: h_v^-1 h_w is not upper triangular for v before w,
      the test of the oracle ``same_class`` (``tests/oracles.py``), so the
      points are pairwise inequivalent.

    The last two are read off the integer rows of one product each,
    entry by entry, with no sub-matrix built.
    """
    n = ctx.n
    nums, den = t.int_entries()
    cols = []
    for i in range(n):
        v = null_vectors(rs - Mat.identity(n).scale_rows([(nums[i][i], den)] * n))
        if v.cols != 1:
            return [], {"condition": "regular", "entry": i, "nullity": v.cols}
        cols.append(v)
    sl = ctx.family == "SL"
    if sl:
        cols[0] = cols[0].scale(1 / reduce(Mat.hstack, cols).det())
    h = reduce(Mat.hstack, cols)
    deth = h.det() if sl else None
    # negating column 0 of h_w (row 0 of h_w^-1) selects it from -h (-h^-1),
    # so each product below holds every ordering's, or pair's, as a block;
    # each is read as integer rows over one denominator
    signed, signed_inv = h.hstack(-h), (hinv := h.inverse()).vstack(-hinv)
    conj, cden = (signed_inv @ (rs @ signed)).int_entries()
    cross, _ = (signed_inv @ signed).int_entries()
    orders = weyl_orders(ctx)
    points = []
    for order in orders:
        perm = [k % n for k in order]
        hw = signed.select_cols(order)
        bw = t.select_rows(perm).select_cols(perm)
        # det W_w = +-1 is the sign of w, times -1 for each negated column,
        # so det h_w = det h det W_w is 1 exactly when det h is det W_w
        if sl and deth != _parity(perm) * (-1) ** sum(k >= n for k in order):
            return points, {"condition": "det-one", "ordering": perm}
        bnums, bden = bw.int_entries()
        if any(conj[r][c] * bden != x * cden
               for r, brow in zip(order, bnums) for c, x in zip(order, brow)):
            return points, {"condition": "mu-is-rs", "ordering": perm}
        points.append((hw, bw))
    for v, w in itertools.combinations(orders, 2):
        # the block of h_v^-1 h_w is upper triangular when its lower entries vanish
        if not any(cross[v[i]][w[j]] for i in range(n) for j in range(i)):
            return points, {"condition": "inequivalent",
                            "orderings": [[k % n for k in v], [k % n for k in w]]}
    return points, None


def weyl_fiber_enum(ctx: GroupContext, g: Mat) -> list[tuple[Mat, Mat]]:
    """The mu-fiber over g, for g regular semisimple with its spectrum in Q.

    The spectrum is the roots of the characteristic polynomial x^n - e_1
    x^(n-1) + ... + (-1)^n e_n, the e_k read off
    :func:`~qpslab.liegroup.invariants` (e_n = 1 on SL).  With a the lcm of
    its denominators and y = a x, a^n times it is the monic integer
    polynomial y^n - a e_1 y^(n-1) + ... + (-1)^n a^n e_n, whose rational
    roots are integers, found by :func:`_integer_roots` in a number of steps
    polynomial in the bit size of its coefficients.  With t the diagonal of
    the roots y / a in ascending order, the points are those of
    :func:`weyl_fiber` (ctx, g, t).

    Raises :class:`NotRegularSemisimple` when a root found is repeated and
    ValueError when fewer than n are found, as happens exactly when the
    spectrum is not in Q.
    """
    n = ctx.n
    es = invariants(ctx, g) + ((QQi(1),) if ctx.family == "SL" else ())
    if any(e.im for e in es):
        raise ValueError(f"{ctx.name} element does not split over Q: its "
                         "characteristic polynomial is not real")
    coeffs = [Fraction(1)] + [e.re if k % 2 == 0 else -e.re
                              for k, e in enumerate(es, 1)]
    a = lcm(*(c.denominator for c in coeffs))
    roots = sorted(Fraction(y, a) for y in _integer_roots(
        [c.numerator * a ** k // c.denominator for k, c in enumerate(coeffs)]))
    if len(roots) < n:
        raise ValueError(f"{ctx.name} element does not split over Q: "
                         f"fewer than {n} of its eigenvalues are rational")
    t = Mat.identity(n).scale_rows([(r.numerator, r.denominator) for r in roots])
    points, witness = weyl_fiber(ctx, g, t)
    # distinct eigenvalues make g regular semisimple, so every condition holds
    assert witness is None, witness
    return points


def _integer_roots(cs: list[int]) -> list[int]:
    """The integer roots of the monic integer polynomial p with coefficients
    ``cs``, leading first, from the largest down while the next is found.

    Every root lies below B = 1 + max |c|, where the search starts.  Where
    p(x) and p'(x) are positive, the integer Newton step x -> x - ceil(p(x)
    / p'(x)) goes down by at least 1.  When every root is real and x is
    above the largest root r, p/p' = 1 / sum 1/(x - r_i) lies between
    (x - r) / n and x - r, so for an integer r the steps stay at or above
    r and reach it exactly, in O(n log B) of them.  Each root found is
    divided out, and the search goes on below it.  It ends where p(x) or
    p'(x) is not positive, as they are of opposite signs left of every root:
    then the largest root left is not an integer, or not every root is
    real.

    Raises :class:`NotRegularSemisimple` when a root found is repeated.
    """
    def value(cs, x):
        return reduce(lambda acc, c: acc * x + c, cs, 0)

    roots, x = [], 1 + max(map(abs, cs))
    while len(cs) > 1:
        slope = [(len(cs) - 1 - k) * c for k, c in enumerate(cs[:-1])]
        while px := value(cs, x):
            dp = value(slope, x)
            if px < 0 or dp <= 0:
                return roots
            x += -px // dp
        cs = list(itertools.accumulate(cs[:-1], lambda acc, c: acc * x + c))
        if not value(cs, x):
            raise NotRegularSemisimple("not regular semisimple: repeated eigenvalue")
        roots.append(x)
    return roots


def induced_action(chart: QuotientChart, sections: tuple) -> tuple[Mat, Mat]:
    """The h x dim G matrices of q_* rho(e_k) and d(mu)^T sigma(mu, e_k).

    Column k of the first is ``chart_action_field`` of the algebra basis
    element e_k, the oracle in ``tests/oracles.py``, and of the second the
    pulled-back sigma covector.  Both are linear in e_k, so each is one
    product: rho(e_k) upstairs is (-Ad_{g^-1} e_k, 0), and the functional
    coordinates of every sigma(mu, e_k) are the columns of the A block of
    ``sections``, the :func:`~qpslab.liegroup.conjugation_sections` at mu.
    """
    ctx, g = chart.ctx, chart.g
    fields = -(chart.proj.col_block(0, ctx.dim_g) @ ctx.adjoint(g.inverse()))
    return fields, chart.dmu.transpose() @ sections[2]


def chart_transport(chart1: QuotientChart, chart2: QuotientChart, h: Mat) -> Mat:
    """Identification of chart1 with chart2 when point2 = h . point1.

    The action diffeomorphism has differential Ad_h (+) Ad_h upstairs and
    descends to the identity on the quotient tangent space, so the matrix is
    proj2 M on chart1's coordinates, M the G x P block of diag(Ad_h, Ad_h),
    built as diag(Ad_h, the block of Ad_h at P's list): h is in P, so Ad_h
    keeps P's coordinates among themselves, and M is the whole map on
    G x P.  Chart1's coordinates are upstairs coordinates, so M on them is
    M's columns at chart1's ``indices``.
    """
    ctx, k = chart1.ctx, len(chart1.sub)
    ad = ctx.adjoint(h)
    move = ad.hstack(Mat.zeros(ctx.dim_g, k)).vstack(
        Mat.zeros(k, ctx.dim_g).hstack(_restrict(ad, chart1.sub)))
    return chart2.proj @ move.select_cols(chart1.indices)


def representative_independent(chart: QuotientChart, h: Mat) -> bool:
    """Whether the chart's fiber F1, moved to the chart of h.(g, p) for h in
    P, is the fiber F2 built there.

    :func:`chart_transport` T moves tangent rows, and its inverse transpose
    covector rows.  T is invertible, so T(F1) = F2 exactly when F1 =
    T^-1(F2): the moved chart's spanning set (``fiber_span``), its tangent
    rows by T^-1 and its covector rows by T^T, must span the chart's
    canonical fiber (:meth:`~qpslab.linalg.Subspace.spanned_by`).  So the
    moved fiber is never canonicalized.
    """
    moved_chart = chart.translate(h)
    trans = chart_transport(chart, moved_chart, h)
    span, hdim = moved_chart.fiber_span, chart.hdim
    pulled = (trans.inverse() @ span.row_block(0, hdim)).vstack(
        trans.transpose() @ span.row_block(hdim, span.rows))
    return chart.fiber.spanned_by(pulled)


# ---------------------------------------------------------------------------
# the verification computations


def regact_check(chart: QuotientChart) -> dict:
    """Intersection of the P-action directions with the restricted graph.

    Passes when the intersection is exactly the N directions, so its
    dimension is dim N at every point (the regularity making the quotient a
    bundle).  Both sides are built with the chart, its complement is not
    read, and neither depends on g; the N directions V_N are the columns of
    N's coordinates among P's in the vertical basis V.

    V's columns are independent, so V c lies in ker w^T exactly when c lies
    in ker(w^T V), and the intersection is V ker(w^T V), of the dimension
    of ker(w^T V).  It contains span(V_N) exactly when w^T V_N = 0, and is
    then equal to it exactly when that dimension is dim N.  So one product
    and one kernel decide it.
    """
    prod = chart.w.transpose() @ chart.vertical
    dim = kernel(prod).dim
    nil = [i for i, k in enumerate(chart.sub) if k in chart.nil]
    ok = dim == len(nil) and (not nil or prod.select_cols(nil).is_zero())
    return {"dim": dim, "expected_dim": len(nil), "passed": ok}


def theorem1_check(chart: QuotientChart) -> dict:
    """The moment-map realization checks at the chart's quotient point.

    (i) the fiber pushes forward to the conjugation structure at mu(p);
    (ii) ker d(mu) meets the fiber trivially; (iii) the induced action pairs
    with the pulled-back sigma covectors inside the fiber; (iv) pushing
    forward through the quotient or through the double moment map agree.
    The second route of (iv) pushes the restricted graph along d(phi) and
    then along the projection [I | 0] onto the first factor.  Linear Dirac
    pushforward is functorial, (f g)_* = f_* g_* for every subspace, so it
    is one pushforward along the composite, the chart's ``dmu_up``.
    A failing check carries a witness.

    Only the pushforward of the fiber along d(mu) is canonicalized.  Both
    equalities compare it with a spanning set by
    :meth:`~qpslab.linalg.Subspace.spanned_by`: (i) with the section
    columns [X; A] that :func:`~qpslab.dirac.cartan_dirac` spans, and (iv)
    with the raw spanning set of the upstairs graph's pushforward
    (:func:`~qpslab.dirac.pushforward_spanning_set`); either fiber is built
    only for a failure's witness.  (ii) reads the same pushforward: its
    spanning set has one column per null vector of the incidence system,
    and the null vectors that give the zero column are exactly the fiber's
    meet with ker d(mu) (+) 0, so the meet's dimension is the column count
    less the pushforward's dimension.
    """
    ctx = chart.ctx
    fib = chart.fiber
    out = {}

    lag, wit = is_lagrangian(fib)
    out["lagrangian"] = lag and fib.dim == ctx.dim_g
    if not out["lagrangian"]:
        out["witness_lagrangian"] = wit or {"dim": fib.dim}

    m = chart.mu
    spanning = pushforward_spanning_set(fib, chart.dmu)
    pushed = DiracFiber(spanning)
    # one set of sections at mu serves the target and the induced action
    sections = conjugation_sections(ctx, m)
    out["f_dirac"] = pushed.spanned_by(sections[1].vstack(sections[2]))
    if not out["f_dirac"]:
        out["witness_f_dirac"] = _column_outside(pushed, cartan_dirac(sections),
                                                 ("pushed", "cartan"))

    # the fiber meets ker d(mu) (+) 0 in as many dimensions as the
    # pushforward's spanning set has columns beyond its rank
    meet = spanning.cols - pushed.dim
    out["kernel_clean"] = meet == 0
    if meet:
        out["witness_kernel"] = {"dim": meet}

    # one containment product for all dim G pairs; only a failure walks them
    # for the first basis index outside the fiber
    fields, duals = induced_action(chart, sections)
    out["induced_action"] = fib.contains_columns(fields.vstack(duals))
    if not out["induced_action"]:
        out["witness_action"] = {"basis_index": next(
            k for k in range(ctx.dim_g)
            if not fib.contains_vector(fields.col(k) + duals.col(k)))}

    # route (iv): along the double's moment map, then onto its first factor
    route_b = pushforward_spanning_set(chart.graph, chart.dmu_up)
    out["pushforward_commutes"] = pushed.spanned_by(route_b)
    if not out["pushforward_commutes"]:
        out["witness_pushforward"] = _column_outside(pushed, DiracFiber(route_b),
                                                     ("quotient", "double"))

    out["passed"] = all(
        out[k] for k in
        ("lagrangian", "f_dirac", "kernel_clean", "induced_action",
         "pushforward_commutes")
    )
    return out


def _column_outside(a: DiracFiber, b: DiracFiber, names: tuple[str, str]) -> dict:
    """Witness that two fibers differ: the first basis column of one outside the other."""
    for name, fib, other in ((names[0], a, b), (names[1], b, a)):
        for j in range(fib.dim):
            if not other.contains_vector(fib.basis.col(j)):
                return {"fiber": name, "column": j, "dims": [a.dim, b.dim]}
    return {"dims": [a.dim, b.dim]}


def theorem2_check(chart: QuotientChart) -> dict:
    """Leaf identification: the chart fiber's tangent image is q_* of the
    tangent space of the leaf slice G x tN (G x tU for P = B)."""
    ctx = chart.ctx
    leaf = chart.leaf
    out = {
        "leaf_dim": leaf.dim,
        "expected_dim": ctx.dim_g - ctx.rank,
        "projection_matches": leaf.spanned_by(chart.proj.select_cols(chart.leaf_slice)),
    }
    # lambda . q takes (g, b) to diag(b), and diag(b y) = diag(b) diag(y) for
    # b, y upper triangular: d(lambda . q) selects the second factor's torus
    # coordinates, so on the chart it reads the leaf rows at the chart
    # positions of the Levi coordinates, and is zero when none is a chart
    # coordinate
    at = [i for i, j in enumerate(chart.indices) if j in chart.levi]
    killed = not at or leaf.basis.select_rows(at).is_zero()
    out["lambda_locally_constant"] = killed
    out["passed"] = (
        out["projection_matches"]
        and leaf.dim == out["expected_dim"]
        and killed
    )
    return out


def leaf_two_form(chart: QuotientChart, rng: SplitMix64):
    """The induced presymplectic form on the leaf directions at the chart's point.

    Returns (form matrix, leaf, checks).  The form is obtained by inverting
    the graph over the leaf directions: with the fiber's basis cut into its
    tangent rows ``top`` and covector rows ``bot``, the coefficients S of
    every leaf basis vector (the columns of L) solve top S = L, and the form
    is (bot S)' L; isotropy of the fiber makes the matrix well-defined and
    skew.  L is read off the fiber's canonical basis as top's columns at
    the fiber's tangent pivots (:meth:`~qpslab.dirac.DiracFiber.tangent_part`),
    so S is the unit columns there, the solution an rref of ``[top | L]``
    gives, and top S = L is checked as that equality of columns
    (``graphical``), with no elimination; bot S is bot's columns there.
    Checks:

    * the restricted moment identity: the action fields V lie in the span of
      L, and F' C = L' M for their coefficients C, the form F and the
      pulled-back sigma covectors M.  L is the leaf's canonical basis, so C
      is V's rows at L's pivot rows, read with the containment by one
      product (:meth:`~qpslab.linalg.Subspace.coordinates`), with no rref;
    * the exterior-derivative identity d(omega_leaf) = -mu^* eta, evaluated
      upstairs on the G x tU slice through (g, u), b = t u, where the leaf is
      a coordinate subspace, by :func:`sampled_d_identity` on two triples
      drawn from ``rng`` (a campaign passes the point's salted stream).
      There the leaf form is the pullback of omega, whose matrix is the
      block of the chart's ``w`` at its ``leaf_slice``: the slice curve
      u (I + s y) is the curve b (I + s y).  d(mu) on the slice,
      (g, u) -> g t u g^-1, is the chart's ``dmu_up`` at the
      ``leaf_slice`` columns.
    """
    ctx = chart.ctx
    fib = chart.fiber
    leaf = chart.leaf
    h = chart.hdim
    top = fib.basis.row_block(0, h)
    bot = fib.basis.row_block(h, fib.basis.rows)
    # the leaf has dimension dim G - rank > 0 (theorem2_check)
    cols = fib.tangent_columns()
    if top.select_cols(cols) != leaf.basis:
        return None, leaf, {"graphical": False, "passed": False}
    form = bot.select_cols(cols).transpose() @ leaf.basis
    checks = {"graphical": True, "skew": is_skew(form)}

    m = chart.mu
    fields, duals = induced_action(chart, conjugation_sections(ctx, m))
    coeffs = leaf.coordinates(fields)
    checks["moment_identity"] = coeffs is not None and (
        form.transpose() @ coeffs == leaf.basis.transpose() @ duals)

    checks["d_identity"] = sampled_d_identity(
        ctx, chart.t, _restrict(chart.w, chart.leaf_slice), chart.nil,
        chart.dmu_up.select_cols(chart.leaf_slice), rng, 2)
    checks["passed"] = all(checks.values())
    return form, leaf, checks


def reconstruct_bivector(chart: QuotientChart):
    """Rebuild the bivector of the quotient structure from the chart's fiber.

    For each covector the defining pair of conditions (image under d(mu)
    prescribed through the adjoints, membership of (X, C^* alpha) in the
    fiber) has a unique solution; the h covectors e_i are solved together,
    by one rref with h right-hand sides, and failures are reported.  Returns
    (bivector matrix, checks).
    """
    ctx = chart.ctx
    fib = chart.fiber
    h = chart.hdim
    d = ctx.dim_g
    m = chart.mu
    dmu = chart.dmu
    top = fib.basis.row_block(0, h)
    bot = fib.basis.row_block(h, fib.basis.rows)

    # chart-level action map R: algebra coords -> chart tangent coords, from
    # the pairs that also span the action part of the graph below
    rmat, duals = induced_action(chart, conjugation_sections(ctx, m))

    # sigma-adjoint of the dual basis covectors at m; column i of gram^-1 is
    # the algebra coordinate of the i-th one, so column i of sv is the
    # algebra coordinate of its sigma-adjoint
    adm = ctx.adjoint(m)
    sv = sigma_average(ctx.gram_inv, adm @ ctx.gram_inv)

    rho_adj = Mat.identity(d) - adm  # v -> v - Ad_m v
    cmat = Mat.identity(h) - (rmat @ rho_adj @ dmu).scale(QQi(Fraction(1, 4)))

    # image condition mu_* X = -(sigma-adjoint dual of rho_M^* alpha); the
    # sign is the one consistent with the frozen action-generator flip, and
    # is validated through the moment and graph-consistency checks below.
    # For alpha = e_i: C^* alpha is row i of C, and <alpha, R sv_k> is entry
    # i of column k of R sv.
    rsv = rmat @ sv
    rhs = cmat.transpose().vstack(-rsv.transpose())
    sols, unique, consistent = solve_columns(bot.vstack(dmu @ top), rhs)
    if not consistent or not unique:
        return None, {"solvable": False, "unique": unique, "passed": False}
    pimat = top @ sols

    checks = {"solvable": True, "skew": is_skew(pimat)}
    # beta = e_i: d(mu)^T beta is row i of d(mu)
    checks["moment_condition"] = pimat @ dmu.transpose() == rsv
    checks["graph_consistency"] = fib.spanned_by(
        pimat.vstack(cmat.transpose()).hstack(rmat.vstack(duals)))
    checks["passed"] = all(checks.values())
    return pimat, checks


# ---------------------------------------------------------------------------
# seeded sampling


def sample_double(ctx: GroupContext, rng: SplitMix64) -> tuple:
    """A point (a, b) of the double G x G, as two group matrices; a is drawn
    first."""
    return random_point(ctx, "G", rng), random_point(ctx, "G", rng)


def sample_gspoint(ctx: GroupContext, rng: SplitMix64,
                   stratum: str = "random") -> tuple[Mat, Mat]:
    """Sample a quotient point as its pair (g, b); degenerate strata are
    first-class citizens."""
    g = random_point(ctx, "G", rng)
    if stratum == "identity-b":
        b = Mat.identity(ctx.n)
    elif stratum == "springer":
        b = random_point(ctx, "U", rng)
    elif stratum == "nonregular":
        b = _nonregular_torus(ctx, rng) @ random_point(ctx, "U", rng)
    else:
        b = random_point(ctx, "B", rng)
    return g, b


FORCED_STRATA = ("springer", "nonregular", "identity-b")


def gspoint_stream(ctx: GroupContext, rng: SplitMix64,
                   samples: int) -> list[tuple[Mat, Mat]]:
    """Deterministic stream that always exercises the degenerate strata."""
    out = []
    for i in range(samples):
        stratum = FORCED_STRATA[i] if i < len(FORCED_STRATA) else "random"
        out.append(sample_gspoint(ctx, rng, stratum))
    return out


def _nonregular_torus(ctx: GroupContext, rng: SplitMix64) -> Mat:
    n = ctx.n
    r = rng.rational_pair(6, nonzero=True)
    entries = [r, r]
    while len(entries) < n:
        entries.append(rng.rational_pair(6, nonzero=True))
    if ctx.family == "SL":
        entries[-1] = reciprocal_product(entries[:-1])
        if n == 2:
            entries = [(-1, 1), (-1, 1)]
    return Mat.identity(n).scale_rows(entries)
