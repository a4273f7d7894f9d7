"""Seeded verification campaigns and their machine-readable reports.

A campaign is deterministic in (suite, group, seed, samples): the point
stream is pre-generated from a SplitMix64 stream, each point carries its own
derived salt for any in-check randomness, and the report is canonical
(records sorted by point index, JSON with sorted keys) regardless of how
many workers ran the points.

Each point is decoded once, by :func:`decode_point`, into the group's
context, every payload matrix as a group element by its payload key, and
the point's salted stream.  A suite's check takes ``(cfg, ctx, pt, rng)``
and draws whatever randomness it needs from ``rng`` alone; the geometry it
reports on is computed in :mod:`qpslab.gspringer` and :mod:`qpslab.dirac`.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import factorial

from .conventions import ACTIVE, CONVENTIONS_HASH, CORRUPTIONS, FROZEN, using
from .dirac import (cartan_closure_check, cartan_dirac, closure_sample,
                    graph_bivector, graph_two_form, is_lagrangian, pairing)
from .gspringer import (GSPoint, borel_reduction, float_array,
                        float_element_from_json, float_mu, float_point_to_json,
                        float_same_class, gspoint_stream, lam, leaf_two_form,
                        moment_condition_holds, mu, mu_residual, omega_matrix,
                        phi_differential, QuotientChart, reconstruct_bivector,
                        regact_check, representative_independent, sample_double,
                        sampled_d_identity, steinberg_membership, theorem1_check,
                        theorem2_check, weyl_fiber_enum, NotRegularSemisimple)
from .liegroup import (GroupContext, GroupElement, chevalley, conjugate,
                       conjugation_sections, context, group_of_json, invariants,
                       random_algebra, random_point, read_element)
from .linalg import EXACT, FLOAT, Mat, dot, kernel, rank
from .matio import mat_to_json
from .prng import SplitMix64

CLI_GROUPS = ("sl2", "sl3", "gl2", "gl3")

# only the Weyl-fiber enumeration genuinely needs floats; diagram-gs hosts it
FLOAT_SUITES = ("diagram-gs",)

# fiber-enum rejects eigenvalues within this relative tolerance of each other
# as colliding; from 1e-2 on that would turn away well-separated eigenvalues.
# verify --tol, which compares float invariants and fiber points, shares it.
FIBER_TOL_LIMIT = 1e-2


class UsageError(ValueError):
    pass


def _check_tolerance(tolerance: float) -> None:
    """Reject a tolerance outside (0, FIBER_TOL_LIMIT); NaN and inf fail too."""
    if not 0 < tolerance < FIBER_TOL_LIMIT:
        raise UsageError(f"tolerance must be in (0, {FIBER_TOL_LIMIT:g}), "
                         f"got {tolerance!r}")


@dataclass
class CampaignConfig:
    suite: str
    group: str = "sl2"
    backend: str = EXACT
    samples: int = 20
    seed: int = 1
    tolerance: float = 1e-9
    jobs: int = 1
    corrupt: str | None = None

    def validate(self) -> None:
        if self.suite not in SUITE_NAMES:
            raise UsageError(f"unknown suite {self.suite!r}")
        if self.group not in CLI_GROUPS:
            raise UsageError(f"unknown group {self.group!r} (use one of {CLI_GROUPS})")
        if self.backend not in (EXACT, FLOAT):
            raise UsageError("backend must be 'exact' or 'float'")
        if self.backend == FLOAT and self.suite not in FLOAT_SUITES:
            raise UsageError(
                f"suite {self.suite!r} runs on the exact backend; "
                f"float is reserved for {FLOAT_SUITES}"
            )
        if self.samples < 1:
            raise UsageError("samples must be >= 1")
        if self.jobs < 1:
            raise UsageError("jobs must be >= 1")
        # SplitMix64 keeps a seed's low 64 bits: outside them two seeds alias
        if not 0 <= self.seed < 2 ** 64:
            raise UsageError(f"seed must be in [0, 2^64), got {self.seed}")
        _check_tolerance(self.tolerance)
        if self.corrupt is not None and self.corrupt not in CORRUPTIONS:
            raise UsageError(f"unknown corruption {self.corrupt!r}")


@dataclass
class VerificationReport:
    config: dict
    checks: list
    summary: dict
    conventions_hash: str = CONVENTIONS_HASH
    schema: str = "qpslab/1"
    generated_at: str = ""

    def to_json(self) -> str:
        payload = {
            "schema": self.schema,
            "config": self.config,
            "conventions_hash": self.conventions_hash,
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
    point's salt is drawn right after its matrices.
    """
    def gen(cfg: CampaignConfig) -> list:
        ctx = context(cfg.group)
        rng = SplitMix64(cfg.seed)
        out = []
        for _ in range(cfg.samples):
            point = {k: mat_to_json(m) for k, m in sampler(ctx, rng).items()}
            point["salt"] = rng.next_u64()
            out.append(point)
        return out

    return gen


def _sample_double(ctx, rng) -> dict:
    a, b = sample_double(ctx, rng)
    return {"a": a.m, "b": b.m}


_gen_group_points = _point_generator(
    lambda ctx, rng: {"g": random_point(ctx, "G", rng).m})
_gen_double_points = _point_generator(_sample_double)
_gen_borel_points = _point_generator(
    lambda ctx, rng: {"b": random_point(ctx, "B", rng).m})
# a dict display evaluates in order: g is drawn before b
_gen_gxb_points = _point_generator(
    lambda ctx, rng: {"g": random_point(ctx, "G", rng).m,
                      "b": random_point(ctx, "B", rng).m})


# ---------------------------------------------------------------------------
# suite: pairing


def _check_pairing(cfg, ctx, pt, rng) -> list:
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


def _check_cartan_dirac(cfg, ctx, pt, rng) -> list:
    g = pt["g"]
    recs = []
    # one set of sections serves the fiber and the closure sample
    sections = conjugation_sections(ctx, g.m, g.inv)
    fib = cartan_dirac(g, sections)
    ok, wit = is_lagrangian(fib)
    recs.append(_record("cartan-dirac/lagrangian", ok and fib.dim == ctx.dim_g, wit))

    # the rank of the tangent part I - Ad_{g^-1} against d minus the
    # dimension of the centralizer, computed in the group as the null space
    # of x -> g x - x g on the algebra basis, so not through Ad
    d = ctx.dim_g
    proj = rank(fib.basis.row_block(0, d))
    cent = d - rank(ctx.commutator_matrix(g.m))
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


def _check_dorfman(cfg, ctx, pt, rng) -> list:
    g = pt["g"]
    ok, witness = cartan_closure_check(ctx, g.m, g.inv)
    return [_record("dorfman-closure/basis-pairs", ok, witness)]


# ---------------------------------------------------------------------------
# suite: double


def _check_double(cfg, ctx, pt, rng) -> list:
    a, b = pt["a"], pt["b"]
    recs = []

    t = ctx.gram_adjoint(b.m, b.inv)
    w = omega_matrix(ctx, t)
    dphi = phi_differential(a, b)
    recs.append(_record("double/A1-moment-condition",
                        moment_condition_holds(a, b, w, dphi)))
    # A2: d(omega) = -phi^*(eta (+) eta), the salted stream's first draws
    recs.append(_record("double/A2-exterior-derivative",
                        sampled_d_identity(ctx, t, w, range(ctx.dim_g), dphi, rng, 2)))
    recs.append(_record("double/A3-nondegenerate", *_a3_nondegenerate(w, dphi)))
    recs.append(_record("double/A4-invariance", _a4_sample(ctx, b, w, rng, count=10)))
    return recs


def _a3_nondegenerate(w: Mat, dphi: Mat) -> tuple[bool, dict | None]:
    """ker omega-flat meets ker dphi only in 0: [w^T; dphi] has full column
    rank.  Only on failure are the two kernels built, for the witness.

    A3 is vacuous wherever w is nondegenerate: then ker w^T is 0 and the
    stack has full column rank whatever dphi is.  So w's rank is taken
    first, and the stack is ranked only when w is degenerate, which no
    sampled double point is.
    """
    if rank(w) == w.rows or rank(w.transpose().vstack(dphi)) == dphi.cols:
        return True, None
    return False, {"ker_omega": kernel(w.transpose()).dim, "ker_dphi": kernel(dphi).dim}


def _a4_sample(ctx, b, w, rng, count: int) -> bool:
    """Invariance of omega under (g1, g2) . (a, b) = (g1 a g2^-1, g2 b g2^-1).

    ``w`` is :func:`omega_matrix` at (a, b).  omega depends on the point only
    through ``b``, and in left-trivialized coordinates the action's differential
    is Ad_{g2} on both factors, so each of the ``count`` samples draws g2
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
    for _ in range(count):
        g2 = random_point(ctx, "G", rng)
        b2 = g2.m @ b.m @ g2.inv
        # b2^-1 = g2 b^-1 g2^-1, a product rather than a fresh inverse
        t2 = ctx.gram_adjoint(b2, g2.m @ b.inv @ g2.inv)
        ad2 = ctx.adjoint(g2.m, g2.inv)
        if ad2.transpose() @ (t2 + ctx.gram) @ ad2 != ref:
            return False
    return True


# ---------------------------------------------------------------------------
# suite: lemma-kernel


def _check_lemma_kernel(cfg, ctx, pt, rng) -> list:
    b = pt["b"]
    xis = [(ctx.basis_labels[k], ctx.basis[k]) for k in ctx.borel]
    xis += [("mixed", random_algebra(ctx, rng, indices=ctx.borel)) for _ in range(3)]
    # entry (i, k) pairs sigma(xi_i) at b with x^R = Ad_{b^-1} e_k, the
    # left-trivialized right-invariant field of e_k in b
    m, _, a = conjugation_sections(ctx, b.m, b.inv)
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


def _check_regact(cfg, ctx, pt, rng) -> list:
    # the reduction's form and directions depend on b alone; g stays in the report
    res = regact_check(borel_reduction(GSPoint(pt["g"], pt["b"])))
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
    return [
        {"g": mat_to_json(p.g.m), "b": mat_to_json(p.b.m), "salt": rng.next_u64()}
        for p in pts
    ]


def _check_theorem1(cfg, ctx, pt, rng) -> list:
    chart = QuotientChart(borel_reduction(GSPoint(pt["g"], pt["b"])))
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


def _check_theorem2(cfg, ctx, pt, rng) -> list:
    chart = QuotientChart(borel_reduction(GSPoint(pt["g"], pt["b"])))
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


def _check_bivector(cfg, ctx, pt, rng) -> list:
    chart = QuotientChart(borel_reduction(GSPoint(pt["g"], pt["b"])))
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


def _check_diagram_gs(cfg, ctx, pt, rng) -> list:
    tol = cfg.tolerance
    point = GSPoint(pt["g"], pt["b"])
    recs = []
    if cfg.backend == EXACT:
        m, t = mu(point), lam(point)
        kmu, klam = chevalley(m), chevalley(t)
        close = kmu == klam
    else:
        fpoint = (float_array(point.g.m), float_array(point.b.m))
        kmu = tuple(map(complex, invariants(ctx, float_mu(fpoint))))
        klam = tuple(map(complex, invariants(ctx, float_array(lam(point).m))))
        close = all(abs(x - y) <= tol * max(1.0, abs(x)) for x, y in zip(kmu, klam))
    recs.append(_record("diagram-gs/kappa-commutes", close,
                        {"mu": [repr(v) for v in kmu], "lam": [repr(v) for v in klam]}))
    if cfg.backend == EXACT:
        # mu in the Steinberg fiber of lam is chevalley(mu) == chevalley(lam),
        # the kappa-commutes comparison itself, so this record repeats it
        recs.append(_record("diagram-gs/steinberg-membership", close))
        u = random_point(ctx, "U", rng)
        g = random_point(ctx, "G", rng)
        ident = GroupElement(ctx, Mat.identity(ctx.n))
        recs.append(_record("diagram-gs/unipotent-in-identity-fiber",
                            chevalley(conjugate(g, u)) == chevalley(ident)))
    else:
        t = random_point(ctx, "T-regular", rng)
        g = random_point(ctx, "G", rng)
        rs = float_array(g.m @ t.m @ g.inv)
        try:
            pts = weyl_fiber_enum(ctx, rs)
            count_ok = len(pts) == factorial(ctx.n)  # |W| = |S_n|
            residuals = [mu_residual(p, rs) for p in pts]
            res_ok = all(r < 1e-8 for r in residuals)
            distinct = all(
                not float_same_class(pts[i], pts[j], tol)
                for i in range(len(pts))
                for j in range(i + 1, len(pts))
            )
            recs.append(_record(
                "diagram-gs/weyl-fiber", count_ok and res_ok and distinct,
                {"count": len(pts), "expected": factorial(ctx.n),
                 "max_residual": max(residuals)},
            ))
        except NotRegularSemisimple as e:
            recs.append(_record("diagram-gs/weyl-fiber", False, {"error": str(e)}))
    return recs


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


def decode_point(cfg: CampaignConfig,
                 payload: dict) -> tuple[GroupContext, dict, SplitMix64]:
    """A point's context, its group elements by payload key (each read with
    its determinant check) and its salted stream: the arguments after
    ``cfg`` of every suite's check."""
    ctx = context(cfg.group)
    pt = {k: read_element(ctx, v) for k, v in payload.items() if k != "salt"}
    return ctx, pt, SplitMix64(payload["salt"])


def _run_one(cfg_dict: dict, index: int, payload: dict) -> tuple[int, list]:
    cfg = CampaignConfig(**cfg_dict)
    _, check = SUITES[cfg.suite]
    with using(FROZEN if cfg.corrupt is None else CORRUPTIONS[cfg.corrupt]):
        recs = check(cfg, *decode_point(cfg, payload))
    for r in recs:
        r["point"] = {k: v for k, v in payload.items() if k != "salt"}
        r["point_index"] = index
    return index, recs


def run_suite(config: CampaignConfig) -> VerificationReport:
    """Run a campaign; deterministic given (suite, group, seed, samples)."""
    config.validate()
    gen, _ = SUITES[config.suite]
    points = gen(config)
    cfg_dict = asdict(config)
    results = []
    # a pool forks all its workers at the first submit: no more than points,
    # and no more than the machine has cores
    workers = min(config.jobs, len(points), os.cpu_count() or 1)
    if workers > 1:
        # imported here, so a one-worker run never loads the process pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            futs = [
                ex.submit(_run_one, cfg_dict, i, p) for i, p in enumerate(points)
            ]
            for f in futs:
                results.append(f.result())
    else:
        for i, p in enumerate(points):
            results.append(_run_one(cfg_dict, i, p))
    results.sort(key=lambda t: t[0])
    checks = [r for _, recs in results for r in recs]
    passed = sum(1 for r in checks if r["passed"])
    return VerificationReport(
        config=cfg_dict,
        checks=checks,
        summary={"total": len(checks), "passed": passed,
                 "failed": len(checks) - passed},
        generated_at=_dt.datetime.now(_dt.timezone.utc).isoformat(),
    )


# ---------------------------------------------------------------------------
# eval commands


def eval_command(kind: str, payload: dict, tolerance: float = 1e-9) -> dict:
    """One-shot evaluations over JSON inputs; see the CLI for file handling."""
    if kind == "kappa":
        g = GroupElement.from_json(payload)
        return {"group": g.ctx.name, "kappa": [repr(v) for v in chevalley(g)]}
    if kind == "steinberg":
        ctx = group_of_json(payload)
        g = read_element(ctx, payload["g"])
        t = read_element(ctx, payload["t"])
        return {"member": steinberg_membership(g, t)}
    if kind == "fiber-enum":
        # the one float input: entries may be plain numbers
        _check_tolerance(tolerance)
        ctx, g = float_element_from_json(payload)
        pts = weyl_fiber_enum(ctx, g, tol=tolerance)
        return {
            "count": len(pts),
            "points": [float_point_to_json(ctx, p) for p in pts],
            "residuals": [mu_residual(p, g) for p in pts],
        }
    if kind == "leaf-form":
        chart = QuotientChart(borel_reduction(GSPoint.from_json(payload)))
        # an eval input carries no salt, so the d-identity directions come
        # from a fixed stream
        form, leaf, checks = leaf_two_form(chart, SplitMix64(0x1EAF))
        out = {"checks": checks}
        if form is not None:
            out["leaf_basis"] = mat_to_json(leaf.basis)
            out["matrix"] = mat_to_json(form)
        return out
    raise UsageError(f"unknown eval kind {kind!r}")
