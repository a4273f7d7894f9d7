"""Seeded verification campaigns and their machine-readable reports.

A campaign is deterministic in (suite, group, seed, samples): the point
stream is pre-generated from a SplitMix64 stream, each point carries its own
derived salt for any in-check randomness, and the report is canonical
(records sorted by point index, JSON with sorted keys) regardless of how
many workers ran the points.

A point is its drawn matrices by payload key and its salt.  A group
element is its matrix, so its check receives them as drawn, with the
group's context and the point's salted stream: a suite's check takes
``(ctx, pt, rng)`` and draws whatever randomness it needs from ``rng``
alone: the config stops at :func:`_run_one`, which picks the check.  The
point never enters as JSON; it is written to JSON once, for its records.
The geometry a check reports on is computed in :mod:`qpslab.gspringer` and
:mod:`qpslab.dirac`.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
from dataclasses import asdict, dataclass
from fractions import Fraction

from .conventions import ACTIVE, CONVENTIONS_HASH, CORRUPTIONS, FROZEN, using
from .dirac import (cartan_closure_check, cartan_dirac, closure_sample,
                    graph_bivector, graph_two_form, is_lagrangian, pairing)
from .gspringer import (borel_reduction, gspoint_stream, leaf_two_form,
                        moment_condition_holds, omega_matrix, phi_differential,
                        point_from_json, point_to_json, QuotientChart,
                        reconstruct_bivector, regact_check,
                        representative_independent, sample_double,
                        sampled_d_identity, steinberg_membership, theorem1_check,
                        theorem2_check, weyl_fiber, weyl_fiber_enum)
from .liegroup import (conjugate, conjugation_sections, context, group_of_json,
                       invariants, random_algebra, random_point, read_element,
                       torus_part)
from .linalg import EXACT, FLOAT, Mat, dot, kernel, rank
from .matio import mat_to_json
from .prng import SplitMix64

CLI_GROUPS = ("sl2", "sl3", "gl2", "gl3")

# every report's config records this tolerance, though no record reads it:
# every recorded report digest, bench/golden_digests.json included, hashes
# the config, so the key goes only when those digests are re-recorded
REPORTED_TOLERANCE = 1e-9


class UsageError(ValueError):
    pass


@dataclass
class CampaignConfig:
    suite: str
    group: str = "sl2"
    backend: str = EXACT
    samples: int = 20
    seed: int = 1
    jobs: int = 1
    corrupt: str | None = None

    def validate(self) -> None:
        if self.suite not in SUITE_NAMES:
            raise UsageError(f"unknown suite {self.suite!r}")
        if self.group not in CLI_GROUPS:
            raise UsageError(f"unknown group {self.group!r} (use one of {CLI_GROUPS})")
        if self.backend not in (EXACT, FLOAT):
            raise UsageError("backend must be 'exact' or 'float'")
        if self.backend == FLOAT and self.suite not in FLOAT_CHECKS:
            raise UsageError(
                f"suite {self.suite!r} runs on the exact backend; "
                f"float is reserved for {tuple(FLOAT_CHECKS)}"
            )
        if self.samples < 1:
            raise UsageError("samples must be >= 1")
        if self.jobs < 1:
            raise UsageError("jobs must be >= 1")
        # SplitMix64 keeps a seed's low 64 bits: outside them two seeds alias
        if not 0 <= self.seed < 2 ** 64:
            raise UsageError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.corrupt is not None and self.corrupt not in CORRUPTIONS:
            raise UsageError(f"unknown corruption {self.corrupt!r}")


@dataclass
class VerificationReport:
    config: dict
    checks: list
    summary: dict
    generated_at: str = ""

    def to_json(self) -> str:
        payload = {
            "schema": "qpslab/1",
            "config": self.config,
            "conventions_hash": CONVENTIONS_HASH,
            "generated_at": self.generated_at,
            "checks": self.checks,
            "summary": self.summary,
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0


def _record(check_id: str, passed: bool, witness=None) -> dict:
    rec = {"check_id": check_id, "passed": bool(passed)}
    if witness is not None and not passed:
        rec["witness"] = witness
    return rec


# ---------------------------------------------------------------------------
# point generators


def _point_generator(sampler):
    """The generator of a suite whose points are drawn one after another.

    ``sampler(ctx, rng)`` gives a point's matrices by payload key; each
    point is those matrices and its salt, drawn right after them.
    """
    def gen(cfg: CampaignConfig) -> list:
        ctx = context(cfg.group)
        rng = SplitMix64(cfg.seed)
        # a tuple display evaluates in order: the salt is drawn after the matrices
        return [(sampler(ctx, rng), rng.next_u64()) for _ in range(cfg.samples)]

    return gen


_gen_group_points = _point_generator(
    lambda ctx, rng: {"g": random_point(ctx, "G", rng)})
_gen_double_points = _point_generator(
    lambda ctx, rng: dict(zip("ab", sample_double(ctx, rng))))
_gen_borel_points = _point_generator(
    lambda ctx, rng: {"b": random_point(ctx, "B", rng)})
# a dict display evaluates in order: g is drawn before b
_gen_gxb_points = _point_generator(
    lambda ctx, rng: {"g": random_point(ctx, "G", rng),
                      "b": random_point(ctx, "B", rng)})


# ---------------------------------------------------------------------------
# suite: pairing


def _check_pairing(ctx, pt, rng) -> list:
    d = ctx.dim_g
    recs = []
    x = random_algebra(ctx, rng)
    y = random_algebra(ctx, rng)
    a = random_algebra(ctx, rng)
    b = random_algebra(ctx, rng)
    zero = Mat.zeros(ctx.n, ctx.n)
    recs.append(_record("pairing/tangent-isotropic",
                        not pairing(ctx, (x, zero), (y, zero))))
    recs.append(_record("pairing/cotangent-isotropic",
                        not pairing(ctx, (zero, a), (zero, b))))
    sym = pairing(ctx, (x, a), (y, b)) == pairing(ctx, (y, b), (x, a))
    recs.append(_record("pairing/symmetric", sym))
    # the second route pairs functional coordinates with tangent coordinates,
    # as pairing_gram does: it holds only if dual_coords applies the Gram matrix
    two_route = pairing(ctx, (x, a), (y, b)) == (
        dot(ctx.dual_coords(a), ctx.coords(y)) + dot(ctx.dual_coords(b), ctx.coords(x)))
    recs.append(_record("pairing/metric-identification", two_route))

    wdata = [[(0, 1)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            p, q = rng.rational_pair(5)
            wdata[i][j] = p, q
            wdata[j][i] = -p, q
    w = Mat.from_pairs(wdata)
    gw = graph_two_form(w)
    ok, wit = is_lagrangian(gw)
    recs.append(_record("pairing/graph-two-form-lagrangian", ok, wit))
    recs.append(_record("pairing/graph-meets-cotangent-trivially",
                        gw.cotangent_intersection().dim == 0))
    pmat = w.scale(2)
    gp = graph_bivector(pmat)
    ok, wit = is_lagrangian(gp)
    recs.append(_record("pairing/graph-bivector-lagrangian", ok, wit))
    if rank(w) == d:
        recs.append(_record(
            "pairing/graph-inverse-consistency",
            graph_bivector(w.transpose().inverse()).equals(gw),
        ))
    return recs


# ---------------------------------------------------------------------------
# suite: cartan-dirac


def _check_cartan_dirac(ctx, pt, rng) -> list:
    g = pt["g"]
    recs = []
    # one set of sections serves the fiber and the closure sample
    sections = conjugation_sections(ctx, g, g.inverse())
    fib = cartan_dirac(sections)
    ok, wit = is_lagrangian(fib)
    recs.append(_record("cartan-dirac/lagrangian", ok and fib.dim == ctx.dim_g, wit))

    # the rank of the tangent part I - Ad_{g^-1} against d minus the
    # dimension of the centralizer, computed in the group as the null space
    # of x -> g x - x g on the algebra basis, so not through Ad
    d = ctx.dim_g
    proj = rank(fib.basis.row_block(0, d))
    cent = d - rank(ctx.commutator_matrix(g))
    recs.append(_record(
        "cartan-dirac/leaf-dimension",
        proj == d - cent,
        {"proj": proj, "centralizer": cent},
    ))

    xi = random_algebra(ctx, rng)
    ze = random_algebra(ctx, rng)
    recs.append(_record("cartan-dirac/closure-sample",
                        closure_sample(ctx, sections, xi, ze)))
    return recs


# ---------------------------------------------------------------------------
# suite: dorfman-closure


def _check_dorfman(ctx, pt, rng) -> list:
    g = pt["g"]
    ok, witness = cartan_closure_check(ctx, g, g.inverse())
    return [_record("dorfman-closure/basis-pairs", ok, witness)]


# ---------------------------------------------------------------------------
# suite: double


def _check_double(ctx, pt, rng) -> list:
    a, b = pt["a"], pt["b"]
    recs = []

    t = ctx.gram_adjoint(b, b.inverse())
    w = omega_matrix(ctx, t)
    dphi = phi_differential(ctx, a, b)
    recs.append(_record("double/A1-moment-condition",
                        moment_condition_holds(ctx, a, b, w, dphi)))
    # A2: d(omega) = -phi^*(eta (+) eta), the salted stream's first draws
    recs.append(_record("double/A2-exterior-derivative",
                        sampled_d_identity(ctx, t, w, range(ctx.dim_g), dphi, rng, 2)))
    recs.append(_record("double/A3-nondegenerate", *_a3_nondegenerate(w, dphi)))
    recs.append(_record("double/A4-invariance", _a4_sample(ctx, b, w, rng)))
    return recs


def _a3_nondegenerate(w: Mat, dphi: Mat) -> tuple[bool, dict | None]:
    """ker omega-flat meets ker dphi only in 0: [w^T; dphi] has full column
    rank.  Only on failure are the two kernels built, for the witness.

    A3 is vacuous wherever w is nondegenerate: then ker w^T is 0 and the
    stack has full column rank whatever dphi is.  So whether w has full rank
    is decided first, on omega's two d x d off-diagonal blocks once one scan
    finds its lower-right block zero (:func:`_nondegenerate`), and the stack
    is ranked only when w is degenerate, which no sampled double point is.
    """
    if _nondegenerate(w) or rank(w.transpose().vstack(dphi)) == dphi.cols:
        return True, None
    return False, {"ker_omega": kernel(w.transpose()).dim, "ker_dphi": kernel(dphi).dim}


def _nondegenerate(w: Mat) -> bool:
    """Whether the square matrix w has full rank, on two d x d blocks when
    its lower-right d x d block is zero.

    Every :func:`omega_matrix` is [[W11, W12], [W21, 0]].  One scan of the
    lower-right block confirms that form, and then det w = ±det W12 det W21
    (move the last d columns in front, d^2 column swaps, to get
    [[W12, W11], [0, W21]], block triangular).  So w has rank 2d exactly
    when both off-diagonal blocks have rank d, and two d x d ranks replace
    the 2d x 2d one.  Any other w, of odd size or with a non-zero
    lower-right block, is ranked whole, so no caller vouches for the form.
    """
    d, odd = divmod(w.rows, 2)
    lower = w.row_block(d, w.rows)
    if odd or not lower.col_block(d, w.rows).is_zero():
        return rank(w) == w.rows
    return rank(lower.col_block(0, d)) == d == rank(w.row_block(0, d).col_block(d, w.rows))


def _a4_sample(ctx, b, w, rng) -> bool:
    """Invariance of omega under (g1, g2) . (a, b) = (g1 a g2^-1, g2 b g2^-1).

    ``w`` is :func:`omega_matrix` at (a, b).  omega depends on the point only
    through ``b``, and in left-trivialized coordinates the action's differential
    is Ad_{g2} on both factors, so each of the 10 samples draws g2
    and compares the pullback (Ad (+) Ad)^T w2 (Ad (+) Ad) with ``w`` for w2
    at (., b2), b2 = g2 b g2^-1.  Whatever g1 is, it does not enter, so none
    is drawn: the first factor's half of the invariance is not tested here.

    One d x d block decides each comparison.  Write A = Ad_{g2}, T2 =
    G Ad_{b2}, G the Gram matrix and c = -omega_sign/2, so that
    w2 = c [[T2' - T2, T2 + G], [-(T2' + G), 0]].  A (+) A is block diagonal,
    so the pullback is c [[A'(T2' - T2)A, A'(T2 + G)A], [-A'(T2' + G)A, 0]].
    Put P = A'(T2 + G)A.  As G' = G, P' = A'(T2' + G)A and A'(T2' - T2)A =
    P' - P, so the pullback is omega_matrix(P - G).  omega_matrix(X) has
    (1,2) block c (X + G), which fixes X.  So with ref the (1,2) block of
    ``w`` over c, the pullback equals ``w`` exactly when
    w = omega_matrix(ref - G), checked once, and P = ref, checked per sample.
    """
    d = ctx.dim_g
    ref = w.row_block(0, d).col_block(d, 2 * d).scale(
        1 / Fraction(-ACTIVE.get().omega_sign, 2))
    if omega_matrix(ctx, ref - ctx.gram) != w:
        return False
    for _ in range(10):
        g2 = random_point(ctx, "G", rng)
        # b2^-1 = g2 b^-1 g2^-1, a product rather than a fresh inverse
        t2 = ctx.gram_adjoint(conjugate(g2, b), conjugate(g2, b.inverse()))
        ad2 = ctx.adjoint(g2, g2.inverse())
        if ad2.transpose() @ (t2 + ctx.gram) @ ad2 != ref:
            return False
    return True


# ---------------------------------------------------------------------------
# suite: lemma-kernel


def _check_lemma_kernel(ctx, pt, rng) -> list:
    b = pt["b"]
    xis = [(ctx.basis_labels[k], ctx.basis[k]) for k in ctx.borel]
    xis += [("mixed", random_algebra(ctx, rng, indices=ctx.borel)) for _ in range(3)]
    # entry (i, k) pairs sigma(xi_i) at b with x^R = Ad_{b^-1} e_k, the
    # left-trivialized right-invariant field of e_k in b
    m, _, a = conjugation_sections(ctx, b, b.inverse())
    coords = [ctx.coords(ximat) for _, ximat in xis]
    sig = a @ Mat.from_columns(coords, ctx.dim_g)
    paired = sig.transpose() @ m.select_cols(ctx.borel)
    for i, (label, _) in enumerate(xis):
        annihilates = paired.row_block(i, i + 1).is_zero()
        expected = all(not coords[i][k] for k in ctx.torus)
        if annihilates != expected:
            return [_record(
                "lemma-kernel/iff", False,
                {"xi": label, "annihilates": annihilates, "torus_free": expected},
            )]
    return [_record("lemma-kernel/iff", True)]


# ---------------------------------------------------------------------------
# suite: regact


def _check_regact(ctx, pt, rng) -> list:
    # the reduction's form and directions depend on b alone; g stays in the report
    res = regact_check(borel_reduction(ctx, pt["g"], pt["b"]))
    return [_record("regact/constant-intersection", res["passed"],
                    {"dim": res["dim"], "expected": res["expected_dim"]})]


# ---------------------------------------------------------------------------
# gs suites


def _gen_gspoints(cfg: CampaignConfig) -> list:
    """All points first (the stream forces the degenerate strata), then
    every salt."""
    ctx = context(cfg.group)
    rng = SplitMix64(cfg.seed)
    pts = gspoint_stream(ctx, rng, cfg.samples)
    return [({"g": g, "b": b}, rng.next_u64()) for g, b in pts]


def _check_theorem1(ctx, pt, rng) -> list:
    chart = QuotientChart(borel_reduction(ctx, pt["g"], pt["b"]))
    res = theorem1_check(chart)
    recs = [
        _record("gs-theorem1/lagrangian", res["lagrangian"],
                res.get("witness_lagrangian")),
        _record("gs-theorem1/f-dirac", res["f_dirac"], res.get("witness_f_dirac")),
        _record("gs-theorem1/moment-kernel-clean", res["kernel_clean"],
                res.get("witness_kernel")),
        _record("gs-theorem1/induced-action", res["induced_action"],
                res.get("witness_action")),
        _record("gs-theorem1/pushforward-commutes", res["pushforward_commutes"],
                res.get("witness_pushforward")),
    ]
    h = random_point(ctx, "B", rng)
    recs.append(_record("gs-theorem1/representative-independent",
                        representative_independent(chart, h)))
    return recs


def _check_theorem2(ctx, pt, rng) -> list:
    chart = QuotientChart(borel_reduction(ctx, pt["g"], pt["b"]))
    res = theorem2_check(chart)
    recs = [
        _record("gs-theorem2/leaf-projection", res["projection_matches"],
                {"dim": res["leaf_dim"], "expected": res["expected_dim"]}),
        _record("gs-theorem2/leaf-dimension",
                res["leaf_dim"] == res["expected_dim"]),
        _record("gs-theorem2/lambda-constant", res["lambda_locally_constant"]),
    ]
    form, leaf, checks = leaf_two_form(chart, rng)
    recs.append(_record("gs-theorem2/leaf-form-graphical", checks.get("graphical", False)))
    if checks.get("graphical"):
        recs.append(_record("gs-theorem2/leaf-form-skew", checks["skew"]))
        recs.append(_record("gs-theorem2/leaf-form-moment", checks["moment_identity"]))
        recs.append(_record("gs-theorem2/leaf-form-d-identity", checks["d_identity"]))
    return recs


def _check_bivector(ctx, pt, rng) -> list:
    chart = QuotientChart(borel_reduction(ctx, pt["g"], pt["b"]))
    pi, checks = reconstruct_bivector(chart)
    recs = [_record("bivector/solvable", checks.get("solvable", False),
                    None if checks.get("solvable") else checks)]
    if checks.get("solvable"):
        recs.append(_record("bivector/skew", checks["skew"]))
        recs.append(_record("bivector/moment-condition", checks["moment_condition"]))
        recs.append(_record("bivector/graph-consistency", checks["graph_consistency"]))
    return recs


# ---------------------------------------------------------------------------
# suite: diagram-gs


def _kappa_commutes(ctx, pt) -> dict:
    kmu = invariants(ctx, conjugate(pt["g"], pt["b"]))
    klam = invariants(ctx, torus_part(pt["b"]))
    return _record("diagram-gs/kappa-commutes", kmu == klam,
                   {"mu": [repr(v) for v in kmu], "lam": [repr(v) for v in klam]})


def _check_diagram_gs(ctx, pt, rng) -> list:
    kappa = _kappa_commutes(ctx, pt)
    u = random_point(ctx, "U", rng)
    g = random_point(ctx, "G", rng)
    unipotent = invariants(ctx, conjugate(g, u)) == invariants(ctx, Mat.identity(ctx.n))
    # mu in the Steinberg fiber of lam is kappa(mu) == kappa(lam), the
    # kappa-commutes comparison itself, so this record repeats it
    return [kappa, _record("diagram-gs/steinberg-membership", kappa["passed"]),
            _record("diagram-gs/unipotent-in-identity-fiber", unipotent)]


def _check_diagram_gs_float(ctx, pt, rng) -> list:
    # the float backend's record is the Weyl fiber over g t g^-1, decided
    # exactly like every other record
    t = random_point(ctx, "T-regular", rng)
    g = random_point(ctx, "G", rng)
    _, witness = weyl_fiber(ctx, conjugate(g, t), t)
    return [_kappa_commutes(ctx, pt),
            _record("diagram-gs/weyl-fiber", witness is None, witness)]


# ---------------------------------------------------------------------------
# registry and runner


SUITES = {
    "pairing": (_gen_group_points, _check_pairing),
    "cartan-dirac": (_gen_group_points, _check_cartan_dirac),
    "dorfman-closure": (_gen_group_points, _check_dorfman),
    "double": (_gen_double_points, _check_double),
    "lemma-kernel": (_gen_borel_points, _check_lemma_kernel),
    "regact": (_gen_gxb_points, _check_regact),
    "gs-theorem1": (_gen_gspoints, _check_theorem1),
    "gs-theorem2": (_gen_gspoints, _check_theorem2),
    "bivector": (_gen_gspoints, _check_bivector),
    "diagram-gs": (_gen_gspoints, _check_diagram_gs),
}

SUITE_NAMES = tuple(SUITES)

# the check that --backend float selects, by suite
FLOAT_CHECKS = {"diagram-gs": _check_diagram_gs_float}


def _run_one(cfg: CampaignConfig, index: int, mats: dict, salt: int) -> list:
    check = FLOAT_CHECKS[cfg.suite] if cfg.backend == FLOAT else SUITES[cfg.suite][1]
    with using(FROZEN if cfg.corrupt is None else CORRUPTIONS[cfg.corrupt]):
        recs = check(context(cfg.group), mats, SplitMix64(salt))
    point = {k: mat_to_json(m) for k, m in mats.items()}
    for r in recs:
        r["point"] = point
        r["point_index"] = index
    return recs


def run_suite(config: CampaignConfig) -> VerificationReport:
    """Run a campaign; deterministic given (suite, group, seed, samples)."""
    config.validate()
    gen, _ = SUITES[config.suite]
    points = gen(config)
    # a pool forks all its workers at the first submit: no more than points,
    # and no more than the machine has cores
    workers = min(config.jobs, len(points), os.cpu_count() or 1)
    if workers > 1:
        # imported here, so a one-worker run never loads the process pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            futs = [ex.submit(_run_one, config, i, *p) for i, p in enumerate(points)]
            results = [f.result() for f in futs]
    else:
        results = [_run_one(config, i, *p) for i, p in enumerate(points)]
    checks = [r for recs in results for r in recs]
    passed = sum(1 for r in checks if r["passed"])
    return VerificationReport(
        config={**asdict(config), "tolerance": REPORTED_TOLERANCE},
        checks=checks,
        summary={"total": len(checks), "passed": passed,
                 "failed": len(checks) - passed},
        generated_at=_dt.datetime.now(_dt.timezone.utc).isoformat(),
    )


# ---------------------------------------------------------------------------
# eval commands


def eval_command(kind: str, payload: dict) -> dict:
    """One-shot evaluations over JSON inputs; see the CLI for file handling."""
    if kind == "kappa":
        ctx = group_of_json(payload)
        g = read_element(ctx, payload)
        return {"group": ctx.name, "kappa": [repr(v) for v in invariants(ctx, g)]}
    if kind == "steinberg":
        ctx = group_of_json(payload)
        g = read_element(ctx, payload["g"])
        t = read_element(ctx, payload["t"])
        return {"member": steinberg_membership(ctx, g, t)}
    if kind == "fiber-enum":
        ctx = group_of_json(payload)
        pts = weyl_fiber_enum(ctx, read_element(ctx, payload))
        return {"count": len(pts), "points": [point_to_json(ctx, *p) for p in pts]}
    if kind == "leaf-form":
        chart = QuotientChart(borel_reduction(*point_from_json(payload)))
        # an eval input carries no salt, so the d-identity directions come
        # from a fixed stream
        form, leaf, checks = leaf_two_form(chart, SplitMix64(0x1EAF))
        out = {"checks": checks}
        if form is not None:
            out["leaf_basis"] = mat_to_json(leaf.basis)
            out["matrix"] = mat_to_json(form)
        return out
    raise UsageError(f"unknown eval kind {kind!r}")
