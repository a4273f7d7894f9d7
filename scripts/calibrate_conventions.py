#!/usr/bin/env python3
"""Calibration experiment that freezes the sign/scale conventions.

Sweeps the finitely many candidate normalizations of the invariant 3-form
and of the Dorfman twist term, together with the global sign of the double
2-form, and reports which combination satisfies, at random exact sample
points:

  (C) closure of the conjugation-structure sections under the twisted
      Dorfman bracket,
  (D) d(omega) = -Phi^*(eta (+) eta) on the fusion double, and
  (F) the moment map of the double is forward-Dirac onto the product of
      conjugation structures with tangent parts xi^L - xi^R.

Each candidate is a ``qpslab.conventions.Conventions`` value, evaluated under
``using()``; nothing module-level is assigned, so the frozen value is active
again once the sweep ends.  Exactly one combination survives; it is the
``eta_coeff``, ``twist`` and ``omega_sign`` of ``qpslab.conventions.FROZEN``,
recorded in the ``CONVENTIONS`` text.  Rerun after touching any convention.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from fractions import Fraction

sys.path.insert(0, "src")

from qpslab.conventions import FROZEN, using
from qpslab.diffcalc import Space
from qpslab.dirac import (DiracFiber, cartan_eta3, cartan_section, dorfman,
                          graph_two_form, pushforward_linear)
from qpslab.gspringer import (omega_matrix, phi, phi_differential,
                              sample_double, sampled_d_identity)
from qpslab.linalg import Mat
from qpslab.liegroup import (conjugation_sections, context, random_algebra,
                             random_point)
from qpslab.prng import SplitMix64

# the candidate normalizations the sweep tries, in sweep order
ETA_COEFFS = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 12), Fraction(-1, 12))
TWISTS = (1, -1)
OMEGA_SIGNS = (1, -1)


def closure_holds(ctx, samples, rng) -> bool:
    space = Space(ctx, ("g",))
    eta3 = cartan_eta3(space)
    for _ in range(samples):
        g = random_point(ctx, "G", rng)
        xi = random_algebra(ctx, rng)
        ze = random_algebra(ctx, rng)
        s1 = cartan_section(ctx, xi.m)
        s2 = cartan_section(ctx, ze.m)
        tangent, cov = dorfman(s1, s2, eta3, space, (g.m,))
        br = xi.m @ ze.m - ze.m @ xi.m
        target = cartan_section(ctx, br)((g.m,))
        if tangent != target[0] or cov != target[1]:
            return False
    return True


def d_omega_matches(ctx, samples, rng) -> bool:
    for _ in range(samples):
        a, b = sample_double(ctx, rng)
        dphi = phi_differential(a, b)
        t = ctx.gram_adjoint(b.m, b.inv)
        w = omega_matrix(ctx, t)
        if not sampled_d_identity(ctx, t, w, range(ctx.dim_g), dphi, rng, 1):
            return False
    return True


def f_dirac_holds(ctx, samples, rng) -> bool:
    d = ctx.dim_g
    for _ in range(samples):
        a, b = sample_double(ctx, rng)
        w = omega_matrix(ctx, ctx.gram_adjoint(b.m, b.inv))
        fiber = graph_two_form(w)
        dphi = phi_differential(a, b)
        pushed = pushforward_linear(fiber, dphi)
        # the product of the conjugation structures at phi(a, b): the basis
        # sections of each factor, block diagonal in tangent and covector
        (_, x1, a1), (_, x2, a2) = (conjugation_sections(ctx, g.m, g.inv)
                                    for g in phi(a, b))
        zero = Mat.zeros(d, d)
        tangent = x1.hstack(zero).vstack(zero.hstack(x2))
        cotangent = a1.hstack(zero).vstack(zero.hstack(a2))
        target = DiracFiber(4 * d, tangent.vstack(cotangent))
        if not pushed.equals(target):
            return False
    return True


def main():
    rng = SplitMix64(20260809)
    results = {}
    combos = [
        (coeff, twist, omega)
        for coeff in ETA_COEFFS for twist in TWISTS for omega in OMEGA_SIGNS
    ]
    ctx = context("sl2")
    for coeff, twist, omega in combos:
        salt = hash((coeff, twist, omega)) & 0xFFFF
        with using(replace(FROZEN, eta_coeff=coeff, twist=twist,
                           omega_sign=omega)):
            ok_c = closure_holds(ctx, 3, rng.fork(salt))
            ok_d = d_omega_matches(ctx, 2, rng.fork(salt + 1))
            ok_f = f_dirac_holds(ctx, 2, rng.fork(salt + 2))
        results[(str(coeff), twist, omega)] = (ok_c, ok_d, ok_f)
        print(
            f"eta={str(coeff):>6}*(x,[y,z])  twist {twist:+d}  omega {omega:+d}   "
            f"closure={'PASS' if ok_c else 'fail'}  "
            f"d(omega)={'PASS' if ok_d else 'fail'}  "
            f"f-Dirac={'PASS' if ok_f else 'fail'}"
        )
    winners = [k for k, v in results.items() if all(v)]
    frozen = (str(FROZEN.eta_coeff), FROZEN.twist, FROZEN.omega_sign)
    print("\nsurviving combination(s):", winners or "none")
    if len(winners) == 1:
        print("frozen in code:", frozen)
    return 0 if winners == [frozen] else 1


if __name__ == "__main__":
    raise SystemExit(main())
