"""The frozen convention set, as a hashable document and as one value.

Reports embed the SHA-256 of this text so that runs are comparable across
builds: two reports verify the same claims only if their convention hashes
agree.  Changing anything here (or any constant it describes) is a breaking
change to report comparability.

The settable constants live in one frozen :class:`Conventions` value.  The
builders read the active value from :data:`ACTIVE`; :func:`using` switches it
for a block, which is how negative-control runs and the calibration sweep
evaluate the same code under other choices.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from fractions import Fraction

CONVENTIONS = """\
qpslab frozen conventions, v1
=============================

Trivialization.  Tangent vectors of a matrix group are left-trivialized:
the vector X at g has coordinate theta(X) = g^-1 X in the Lie algebra.
Covectors are stored either as algebra coordinates a (pairing through the
invariant form, alpha(X) = (a, theta(X))) or, inside Dirac fibers, as
functional coordinates on the fixed algebra basis.  The algebra basis is
ordered: strictly upper entries, then torus directions, then strictly
lower entries, so the Borel subalgebra is a coordinate prefix.

Invariant form.  (x, y) = c * tr(x y), default c = 1.

Invariant 3-form.  eta(x, y, z) = -1/2 * (x, [y, z]) as a trilinear
evaluation.  Relative to the wedge-coefficient normalization
(1/12)<theta, [theta, theta]> this is a factor 6 (evaluating the
coefficient tensor as a form in the determinant convention) and one global
sign (tied to the action-generator convention below).  The value is the
unique one for which the three calibration constraints below hold
simultaneously; see scripts/calibrate_conventions.py.

Averaged covector map.  sigma(xi) at g has algebra coordinate
1/2 (xi + Ad_{g^-1} xi); its adjoint has coordinate 1/2 (a + Ad_g a).

Conjugation structure.  rho(xi) = xi^L - xi^R, left-trivialized
coordinate xi - Ad_{g^-1} xi.  The fiber is spanned by (rho(xi),
sigma(xi)) over an algebra basis.  rho-adjoint: v -> v - Ad_g v.

Action generators.  All group-action generators are taken with the sign
matching xi^L - xi^R (the negative of the naive derivative of the printed
left action).  On the double, rho(xi1, xi2) at (a, b) has coordinates
(xi2 - Ad_{a^-1} xi1, xi2 - Ad_{b^-1} xi2).

Double 2-form.  At (a, b), on coordinates (x1,y1), (x2,y2):
omega = -1/2 [ (x1, Ad_b y2) - (x2, Ad_b y1)
             + (x2, Ad_b x1) - (x1, Ad_b x2)
             + (x1, y2) - (x2, y1) ].
Identity-fiber anchor: omega_(e,e) = (x2, y1) - (x1, y2).

Dorfman bracket.  [[(X, alpha), (Y, beta)]] =
([X, Y], L_X beta - i_Y d(alpha) + i_{X^Y} eta), with
(i_{X^Y} eta)(Z) = eta(X, Y, Z) and eta as frozen above.

Form conventions.  omega-flat(X) = omega(X, .); wedge evaluation in the
determinant convention; d(omega)(X,Y,Z) = sum_cyc X(omega(Y,Z)) -
sum_cyc omega([X,Y], Z).

Bivector reconstruction.  C = 1 - 1/4 rho_M . rho-adjoint . d(mu); the
prescribed image of the reconstructed sharp map is
mu_* X_alpha = - sigma-adjoint-dual of rho_M^*(alpha), the sign again tied
to the generator convention, validated by the moment and graph-consistency
checks.

Calibration constraints (all exact, random points): (C) the conjugation
sections close under the twisted Dorfman bracket, sending (xi, zeta) to
the section of [xi, zeta]; (D) d(omega) = -Phi^*(eta (+) eta) on the
double; (F) the double's moment map pushes its graph onto the product of
conjugation structures.  Exactly one sign/scale combination satisfies all
three; it is the one above.

Weyl representatives.  Permutation matrices; for SL the odd permutations
carry -1 in the first column.  Representatives multiply correctly modulo
the torus.

Sampling.  SplitMix64 (Steele/Lea/Flood constants); bounded-height
rationals with numerator in [-h, h] (redrawn while zero if a unit is
required) and denominator in [1, h], h = 10; group samples are
(unit lower) * (torus) * (unit upper).
"""

CONVENTIONS_HASH = hashlib.sha256(CONVENTIONS.encode()).hexdigest()


@dataclass(frozen=True)
class Conventions:
    """The sign and scale choices every suite verdict depends on.

    ``eta_coeff``: the coefficient in eta(x, y, z) = eta_coeff * (x, [y, z]).
    It is the unique scaling for which, simultaneously, d(omega) =
    -Phi^*(eta (+) eta) holds on the fusion double, the conjugation-structure
    sections close under the twisted Dorfman bracket, and the moment maps are
    forward-Dirac onto the conjugation structure with tangent part
    xi^L - xi^R.  It differs from the wedge-coefficient normalization 1/12 by
    a factor 6 (evaluating the coefficient tensor as a form) and one global
    sign tied to the action convention.

    ``twist``: the multiple of i_{X^Y} eta in the Dorfman bracket.  Its sign
    is pinned jointly with ``eta_coeff`` by requiring (a) d(omega) =
    -Phi^*(eta (+) eta) on the double and (b) closure of the
    conjugation-structure sections; with the frozen eta the twist enters with
    the literal printed sign ([X,Y], L_X beta - i_Y d alpha + i_{XY} eta).

    ``omega_sign``: the global sign of the double 2-form.

    ``sigma_factor`` and ``sigma_ad_sign``: sigma(xi) at g has coordinate
    sigma_factor * (xi + sigma_ad_sign * Ad_{g^-1} xi).

    The first three are the combination scripts/calibrate_conventions.py
    shows to be the only survivor of its sweep; the sigma pair is fixed by
    the averaging in the conventions text.
    """

    eta_coeff: Fraction
    twist: int
    omega_sign: int
    sigma_factor: Fraction
    sigma_ad_sign: int


FROZEN = Conventions(eta_coeff=Fraction(-1, 2), twist=1, omega_sign=1,
                     sigma_factor=Fraction(1, 2), sigma_ad_sign=1)

# one frozen choice broken at a time, for negative-control runs (--corrupt)
CORRUPTIONS = {
    "sigma-half": replace(FROZEN, sigma_factor=Fraction(1)),
    "sigma-ad-flip": replace(FROZEN, sigma_ad_sign=-1),
    "omega-sign": replace(FROZEN, omega_sign=-1),
    "dorfman-eta": replace(FROZEN, twist=0),
}

ACTIVE: ContextVar[Conventions] = ContextVar("qpslab_conventions", default=FROZEN)


@contextmanager
def using(conv: Conventions):
    """Make ``conv`` the active conventions for the block, then restore."""
    token = ACTIVE.set(conv)
    try:
        yield conv
    finally:
        ACTIVE.reset(token)
