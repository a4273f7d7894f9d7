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

from qpslab.campaigns import _a2_sample
from qpslab.conventions import FROZEN, using
from qpslab.diffcalc import Space
from qpslab.dirac import (DiracFiber, cartan_eta3, cartan_section, dorfman,
                          graph_two_form, pushforward_linear, TwoFormFiber)
from qpslab.gspringer import (double_space, omega_matrix, phi,
                              phi_differential, sample_double)
from qpslab.linalg import Mat
from qpslab.liegroup import (AlgebraElement, context, random_algebra,
                             random_point, sigma)
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi

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
        target = cartan_section(ctx, br).fn((g.m,))
        if tangent != target[0] or cov != target[1]:
            return False
    return True


def d_omega_matches(ctx, samples, rng) -> bool:
    for _ in range(samples):
        dp = sample_double(ctx, rng)
        dphi = phi_differential(ctx, dp.a.m, dp.b.m, double_space(ctx))
        if not _a2_sample(ctx, dp, dphi, rng, triples=1):
            return False
    return True


def f_dirac_holds(ctx, samples, rng) -> bool:
    d = ctx.dim_g
    for _ in range(samples):
        dp = sample_double(ctx, rng)
        w = omega_matrix(ctx, dp.a.m, dp.b.m, double_space(ctx))
        fiber = graph_two_form(TwoFormFiber(None, w))
        dphi = phi_differential(ctx, dp.a.m, dp.b.m, double_space(ctx))
        pushed = pushforward_linear(fiber, dphi)
        g1, g2 = phi(dp)
        cols = []
        for k in range(2 * d):
            ximat = ctx.basis[k % d]
            xi = AlgebraElement(ctx, ximat, check=False)
            zero = [QQi(0)] * d
            if k < d:
                rho = ctx.coords(ximat - g1.inv @ ximat @ g1.m)
                cols.append(rho + zero + sigma(g1, xi).dual_coords() + zero)
            else:
                rho = ctx.coords(ximat - g2.inv @ ximat @ g2.m)
                cols.append(zero + rho + zero + sigma(g2, xi).dual_coords())
        target = DiracFiber(None, 2 * d, Mat.from_columns(cols, 4 * d))
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
