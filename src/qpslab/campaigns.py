"""Seeded verification campaigns and their machine-readable reports.

A campaign is deterministic in (suite, group, seed, samples): the point
stream is pre-generated from a SplitMix64 stream, each point carries its own
derived salt for any in-check randomness, and the report is canonical
(records sorted by point index, JSON with sorted keys) regardless of how
many workers ran the points.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

from .conventions import CONVENTIONS_HASH, CORRUPTIONS, FROZEN, using
from .diffcalc import Space, d_two_form
from .dirac import (cartan_closure_check, cartan_dirac, cartan_eta3,
                    cartan_section, dorfman, graph_bivector, graph_two_form,
                    is_lagrangian, pairing, BivectorFiber, TwoFormFiber)
from .gspringer import (DoublePoint, GSPoint, SteinbergFiber, double_space,
                        gspoint_stream, lam, leaf_two_form, mu, mu_residual,
                        omega_fn, omega_matrix, phi_differential,
                        QuotientChart, chart_transport,
                        reconstruct_bivector, regact_check, rho_double,
                        sample_double, theorem1_check, theorem2_check,
                        weyl_fiber_enum, NotRegularSemisimple)
from .liegroup import (AlgebraElement, GroupElement, WeylGroup, chevalley,
                       context, random_algebra, random_point, sigma)
from .linalg import (EXACT, FLOAT, Mat, Subspace, intersect, kernel, mat_vec,
                     rank)
from .matio import mat_from_json, mat_to_json
from .prng import SplitMix64
from .scalars import QQi

SUITE_NAMES = (
    "pairing",
    "cartan-dirac",
    "dorfman-closure",
    "double",
    "lemma-kernel",
    "regact",
    "gs-theorem1",
    "gs-theorem2",
    "bivector",
    "diagram-gs",
)

CLI_GROUPS = ("sl2", "sl3", "gl2", "gl3")

# only the Weyl-fiber enumeration genuinely needs floats; diagram-gs hosts it
FLOAT_SUITES = ("diagram-gs",)

# fiber-enum rejects eigenvalues within this relative tolerance of each other
# as colliding; from 1e-2 on that would turn away well-separated eigenvalues
FIBER_TOL_LIMIT = 1e-2


class UsageError(ValueError):
    pass


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
# suite: pairing


def _gen_group_points(cfg: CampaignConfig) -> list:
    ctx = context(cfg.group)
    rng = SplitMix64(cfg.seed)
    out = []
    for _ in range(cfg.samples):
        g = random_point(ctx, "G", rng)
        out.append({"g": mat_to_json(g.m), "salt": rng.next_u64()})
    return out


def _check_pairing(cfg: CampaignConfig, payload: dict) -> list:
    ctx = context(cfg.group)
    rng = SplitMix64(payload["salt"])
    g = GroupElement(ctx, mat_from_json(payload["g"], EXACT))
    d = ctx.dim_g
    recs = []
    x = random_algebra(ctx, rng)
    y = random_algebra(ctx, rng)
    a = random_algebra(ctx, rng)
    b = random_algebra(ctx, rng)
    zero = AlgebraElement(ctx, Mat.zeros(ctx.n, ctx.n), check=False)
    recs.append(_record("pairing/tangent-isotropic",
                        not pairing((x, zero), (y, zero))))
    recs.append(_record("pairing/cotangent-isotropic",
                        not pairing((zero, a), (zero, b))))
    sym = pairing((x, a), (y, b)) == pairing((y, b), (x, a))
    recs.append(_record("pairing/symmetric", sym))
    two_route = pairing((x, a), (y, b)) == ctx.form(a.m, y.m) + ctx.form(b.m, x.m)
    recs.append(_record("pairing/metric-identification", two_route))

    wdata = [[QQi(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            v = QQi(rng.rational(5))
            wdata[i][j] = v
            wdata[j][i] = -v
    w = Mat(wdata)
    gw = graph_two_form(TwoFormFiber(None, w))
    ok, wit = is_lagrangian(gw)
    recs.append(_record("pairing/graph-two-form-lagrangian", ok, wit))
    recs.append(_record("pairing/graph-meets-cotangent-trivially",
                        gw.cotangent_intersection().dim == 0))
    pmat = Mat(wdata).scale(QQi(2))
    gp = graph_bivector(BivectorFiber(None, pmat))
    ok, wit = is_lagrangian(gp)
    recs.append(_record("pairing/graph-bivector-lagrangian", ok, wit))
    if rank(w) == d:
        inv_pi = BivectorFiber(None, w.transpose().inverse())
        recs.append(_record(
            "pairing/graph-inverse-consistency",
            graph_bivector(inv_pi).equals(gw),
        ))
    return recs


# ---------------------------------------------------------------------------
# suite: cartan-dirac


def _check_cartan_dirac(cfg: CampaignConfig, payload: dict) -> list:
    ctx = context(cfg.group)
    rng = SplitMix64(payload["salt"])
    g = GroupElement(ctx, mat_from_json(payload["g"], EXACT))
    recs = []
    fib = cartan_dirac(g)
    ok, wit = is_lagrangian(fib)
    recs.append(_record("cartan-dirac/lagrangian", ok and fib.dim == ctx.dim_g, wit))

    # tangent image dimension against the centralizer, computed independently
    admat = Mat.from_columns(
        [ctx.coords(g.m @ bk @ g.inv) for bk in ctx.basis], ctx.dim_g, EXACT
    )
    cent = kernel(admat - Mat.identity(ctx.dim_g))
    proj = fib.tangent_part()
    recs.append(_record(
        "cartan-dirac/leaf-dimension",
        proj.dim == ctx.dim_g - cent.dim,
        {"proj": proj.dim, "centralizer": cent.dim},
    ))

    space = Space(ctx, ("g",))
    eta3 = cartan_eta3(space)
    xi = random_algebra(ctx, rng)
    ze = random_algebra(ctx, rng)
    tangent, cov = dorfman(
        cartan_section(ctx, xi.m), cartan_section(ctx, ze.m), eta3, space, (g.m,)
    )
    target = cartan_section(ctx, xi.m @ ze.m - ze.m @ xi.m).fn((g.m,))
    recs.append(_record(
        "cartan-dirac/closure-sample",
        tangent == target[0] and cov == target[1],
    ))
    return recs


# ---------------------------------------------------------------------------
# suite: dorfman-closure


def _check_dorfman(cfg: CampaignConfig, payload: dict) -> list:
    ctx = context(cfg.group)
    g = GroupElement(ctx, mat_from_json(payload["g"], EXACT))
    ok, witness = cartan_closure_check(ctx, g.m)
    return [_record("dorfman-closure/basis-pairs", ok, witness)]


# ---------------------------------------------------------------------------
# suite: double


def _gen_double_points(cfg: CampaignConfig) -> list:
    ctx = context(cfg.group)
    rng = SplitMix64(cfg.seed)
    out = []
    for _ in range(cfg.samples):
        dp = sample_double(ctx, rng)
        out.append({"a": mat_to_json(dp.a.m), "b": mat_to_json(dp.b.m),
                    "salt": rng.next_u64()})
    return out


def _check_double(cfg: CampaignConfig, payload: dict) -> list:
    ctx = context(cfg.group)
    rng = SplitMix64(payload["salt"])
    a = GroupElement(ctx, mat_from_json(payload["a"], EXACT))
    b = GroupElement(ctx, mat_from_json(payload["b"], EXACT))
    dp = DoublePoint(a, b)
    d = ctx.dim_g
    sp = double_space(ctx)
    recs = []

    w = omega_matrix(ctx, a.m, b.m, sp)
    dphi = phi_differential(ctx, a.m, b.m, sp)
    recs.append(_record("double/A1-moment-condition", _a1_all(ctx, dp, w, dphi)))
    recs.append(_record("double/A2-exterior-derivative",
                        _a2_sample(ctx, dp, dphi, rng, triples=2)))
    ko = kernel(w.transpose())
    kphi = kernel(dphi)
    recs.append(_record("double/A3-nondegenerate",
                        intersect(ko, kphi).dim == 0,
                        {"ker_omega": ko.dim, "ker_dphi": kphi.dim}))
    recs.append(_record("double/A4-invariance", _a4_sample(ctx, dp, w, rng, count=10)))
    return recs


def _a1_all(ctx, dp, w, dphi) -> bool:
    wt = w.transpose()
    dphit = dphi.transpose()
    g1, g2 = (GroupElement(ctx, dp.a.m @ dp.b.m @ dp.a.inv, check=False),
              dp.b.inverse())
    for k in range(2 * ctx.dim_g):
        ximat = ctx.basis[k % ctx.dim_g]
        zero = Mat.zeros(ctx.n, ctx.n)
        xi1, xi2 = (ximat, zero) if k < ctx.dim_g else (zero, ximat)
        u = rho_double(ctx, dp.a.m, dp.b.m, xi1, xi2)
        lhs = mat_vec(wt, u)
        dual = (sigma(g1, AlgebraElement(ctx, xi1, check=False)).dual_coords()
                + sigma(g2, AlgebraElement(ctx, xi2, check=False)).dual_coords())
        if lhs != mat_vec(dphit, dual):
            return False
    return True


def _a2_sample(ctx, dp, dphi, rng, triples: int) -> bool:
    sp = double_space(ctx)
    ev = omega_fn(ctx, sp)
    point = (dp.a.m, dp.b.m)
    d = ctx.dim_g
    for _ in range(triples):
        dirs = [[QQi(rng.rational(3)) for _ in range(2 * d)] for _ in range(3)]
        lhs = d_two_form(ev, sp, point, *dirs)
        pushed = [sp.split(mat_vec(dphi, v)) for v in dirs]
        mats = [(sp.part_matrix("g", p[0]), sp.part_matrix("g", p[1]))
                for p in pushed]
        rhs = -(ctx.eta(mats[0][0], mats[1][0], mats[2][0])
                + ctx.eta(mats[0][1], mats[1][1], mats[2][1]))
        if lhs != rhs:
            return False
    return True


def _a4_sample(ctx, dp, w, rng, count: int) -> bool:
    for _ in range(count):
        g1 = random_point(ctx, "G", rng)
        g2 = random_point(ctx, "G", rng)
        a2 = g1.m @ dp.a.m @ g2.inv
        b2 = g2.m @ dp.b.m @ g2.inv
        w2 = omega_matrix(ctx, a2, b2, double_space(ctx))
        ad2 = Mat.from_columns(
            [ctx.coords(g2.m @ bk @ g2.inv) for bk in ctx.basis], ctx.dim_g, EXACT
        )
        # Ad (+) Ad is block diagonal, so its pullback of w2 acts blockwise
        adt = ad2.transpose()
        if any(adt @ b2 @ ad2 != b for b2, b in zip(_blocks(w2, ctx.dim_g),
                                                    _blocks(w, ctx.dim_g))):
            return False
    return True


def _blocks(m: Mat, d: int) -> list[Mat]:
    """The four d x d blocks of a 2d x 2d matrix, row by row."""
    return [Mat([r[c:c + d] for r in m.data[r0:r0 + d]], m.backend)
            for r0 in (0, d) for c in (0, d)]


# ---------------------------------------------------------------------------
# suite: lemma-kernel


def _gen_borel_points(cfg: CampaignConfig) -> list:
    ctx = context(cfg.group)
    rng = SplitMix64(cfg.seed)
    out = []
    for _ in range(cfg.samples):
        b = random_point(ctx, "B", rng)
        out.append({"b": mat_to_json(b.m), "salt": rng.next_u64()})
    return out


def _check_lemma_kernel(cfg: CampaignConfig, payload: dict) -> list:
    ctx = context(cfg.group)
    rng = SplitMix64(payload["salt"])
    b = GroupElement(ctx, mat_from_json(payload["b"], EXACT))
    binv = b.inv
    xis = [(ctx.basis_labels[k], ctx.basis[k]) for k in ctx.sub_indices("b")]
    for _ in range(3):
        mixed = random_algebra(ctx, rng, part="b")
        xis.append(("mixed", mixed.m))
    for label, ximat in xis:
        xi = AlgebraElement(ctx, ximat, check=False)
        sig = sigma(b, xi)
        annihilates = True
        for k in ctx.sub_indices("b"):
            xr = binv @ ctx.basis[k] @ b.m  # x^R at b, left-trivialized
            if ctx.form(sig.coord.m, xr):
                annihilates = False
                break
        t_component = ctx.part_coords("t", ximat)
        expected = all(not c for c in t_component)
        if annihilates != expected:
            return [_record(
                "lemma-kernel/iff", False,
                {"xi": label, "annihilates": annihilates, "torus_free": expected},
            )]
    return [_record("lemma-kernel/iff", True)]


# ---------------------------------------------------------------------------
# suite: regact


def _gen_gxb_points(cfg: CampaignConfig) -> list:
    ctx = context(cfg.group)
    rng = SplitMix64(cfg.seed)
    out = []
    for _ in range(cfg.samples):
        g = random_point(ctx, "G", rng)
        b = random_point(ctx, "B", rng)
        out.append({"g": mat_to_json(g.m), "b": mat_to_json(b.m),
                    "salt": rng.next_u64()})
    return out


def _check_regact(cfg: CampaignConfig, payload: dict) -> list:
    ctx = context(cfg.group)
    g = GroupElement(ctx, mat_from_json(payload["g"], EXACT))
    b = GroupElement(ctx, mat_from_json(payload["b"], EXACT))
    res = regact_check(g, b)
    return [_record("regact/constant-intersection", res["passed"],
                    {"dim": res["dim"], "expected": res["expected_dim"]})]


# ---------------------------------------------------------------------------
# gs suites


def _gen_gspoints(cfg: CampaignConfig) -> list:
    ctx = context(cfg.group)
    rng = SplitMix64(cfg.seed)
    pts = gspoint_stream(ctx, rng, cfg.samples)
    return [
        {"g": mat_to_json(p.g.m), "b": mat_to_json(p.b.m), "salt": rng.next_u64()}
        for p in pts
    ]


def _load_gspoint(cfg: CampaignConfig, payload: dict) -> GSPoint:
    ctx = context(cfg.group)
    return GSPoint(
        GroupElement(ctx, mat_from_json(payload["g"], EXACT)),
        GroupElement(ctx, mat_from_json(payload["b"], EXACT), check=False),
    )


def _check_theorem1(cfg: CampaignConfig, payload: dict) -> list:
    ctx = context(cfg.group)
    point = _load_gspoint(cfg, payload)
    rng = SplitMix64(payload["salt"])
    chart1 = QuotientChart(point)
    res = theorem1_check(chart1)
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
    chart2 = QuotientChart(point.translate(h))
    trans = chart_transport(chart1, chart2, h)
    fib1, fib2 = chart1.fiber, chart2.fiber
    tinv = trans.inverse()
    moved_basis = trans @ fib1.basis.row_block(0, chart1.hdim)
    moved_cov = tinv.transpose() @ fib1.basis.row_block(chart1.hdim, fib1.basis.rows)
    moved_fib = Subspace.from_spanning(moved_basis.vstack(moved_cov))
    recs.append(_record(
        "gs-theorem1/representative-independent",
        moved_fib.equals(fib2.subspace()),
    ))
    return recs


def _check_theorem2(cfg: CampaignConfig, payload: dict) -> list:
    chart = QuotientChart(_load_gspoint(cfg, payload))
    rng = SplitMix64(payload["salt"])
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


def _check_bivector(cfg: CampaignConfig, payload: dict) -> list:
    pi, checks = reconstruct_bivector(QuotientChart(_load_gspoint(cfg, payload)))
    recs = [_record("bivector/solvable", checks.get("solvable", False),
                    None if checks.get("solvable") else checks)]
    if checks.get("solvable"):
        recs.append(_record("bivector/skew", checks["skew"]))
        recs.append(_record("bivector/moment-condition", checks["moment_condition"]))
        recs.append(_record("bivector/graph-consistency", checks["graph_consistency"]))
    return recs


# ---------------------------------------------------------------------------
# suite: diagram-gs


def _check_diagram_gs(cfg: CampaignConfig, payload: dict) -> list:
    backend = EXACT if cfg.backend == EXACT else FLOAT
    ctx = context(cfg.group)
    tol = cfg.tolerance
    point = GSPoint(
        GroupElement(ctx, mat_from_json(payload["g"], backend)),
        GroupElement(ctx, mat_from_json(payload["b"], backend), check=False),
    )
    rng = SplitMix64(payload["salt"])
    recs = []
    kmu = chevalley(mu(point))
    klam = chevalley(lam(point))
    recs.append(_record("diagram-gs/kappa-commutes",
                        _values_close(kmu, klam, backend, tol),
                        {"mu": [repr(v) for v in kmu], "lam": [repr(v) for v in klam]}))
    if backend == EXACT:
        recs.append(_record(
            "diagram-gs/steinberg-membership",
            SteinbergFiber(lam(point)).contains(mu(point)),
        ))
        u = random_point(ctx, "U", rng)
        g = random_point(ctx, "G", rng)
        conj = GroupElement(ctx, g.m @ u.m @ g.inv, check=False)
        ident = GroupElement(ctx, Mat.identity(ctx.n), check=False)
        recs.append(_record(
            "diagram-gs/unipotent-in-identity-fiber",
            SteinbergFiber(ident).contains(conj),
        ))
    else:
        t = random_point(ctx, "T-regular", rng)
        g = random_point(ctx, "G", rng)
        rs = GroupElement(ctx, (g.m @ t.m @ g.inv).to_float(), check=False)
        try:
            pts = weyl_fiber_enum(rs)
            w = WeylGroup(ctx)
            count_ok = len(pts) == len(w)
            res_ok = all(mu_residual(p, rs) < 1e-8 for p in pts)
            distinct = all(
                not pts[i].same_class(pts[j], tol)
                for i in range(len(pts))
                for j in range(i + 1, len(pts))
            )
            recs.append(_record(
                "diagram-gs/weyl-fiber", count_ok and res_ok and distinct,
                {"count": len(pts), "expected": len(w),
                 "max_residual": max(mu_residual(p, rs) for p in pts)},
            ))
        except NotRegularSemisimple as e:
            recs.append(_record("diagram-gs/weyl-fiber", False, {"error": str(e)}))
    return recs


def _values_close(a, b, backend, tol) -> bool:
    if backend == EXACT:
        return tuple(a) == tuple(b)
    return all(abs(complex(x) - complex(y)) <= tol * max(1.0, abs(complex(x)))
               for x, y in zip(a, b))


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


def _run_one(cfg_dict: dict, index: int, payload: dict) -> tuple[int, list]:
    cfg = CampaignConfig(**cfg_dict)
    _, check = SUITES[cfg.suite]
    with using(FROZEN if cfg.corrupt is None else CORRUPTIONS[cfg.corrupt]):
        recs = check(cfg, payload)
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
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as ex:
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
    report = VerificationReport(
        config=cfg_dict,
        checks=checks,
        summary={"total": len(checks), "passed": passed,
                 "failed": len(checks) - passed},
        generated_at=_dt.datetime.now(_dt.timezone.utc).isoformat(),
    )
    return report


# ---------------------------------------------------------------------------
# eval commands


def eval_command(kind: str, payload: dict, tolerance: float = 1e-9) -> dict:
    """One-shot evaluations over JSON inputs; see the CLI for file handling."""
    if kind == "kappa":
        g = GroupElement.from_json(payload)
        return {"group": g.ctx.name,
                "kappa": [_scalar_repr(v) for v in chevalley(g)]}
    if kind == "steinberg":
        ctx = context(payload["group"])
        g = GroupElement(ctx, mat_from_json(payload["g"]))
        t = GroupElement(ctx, mat_from_json(payload["t"]))
        from .gspringer import steinberg_membership

        return {"member": steinberg_membership(g, t)}
    if kind == "fiber-enum":
        if not (math.isfinite(tolerance) and 0 < tolerance < FIBER_TOL_LIMIT):
            raise UsageError(f"fiber-enum tolerance must be in (0, "
                             f"{FIBER_TOL_LIMIT:g}), got {tolerance!r}")
        g = GroupElement.from_json(payload, backend=FLOAT)
        pts = weyl_fiber_enum(g, tol=tolerance)
        return {
            "count": len(pts),
            "points": [p.to_json() for p in pts],
            "residuals": [mu_residual(p, g) for p in pts],
        }
    if kind == "leaf-form":
        # exact input only: a float entry is an input error, not a traceback
        chart = QuotientChart(GSPoint.from_json(payload, backend=EXACT))
        # an eval input carries no salt, so the d-identity directions come
        # from a fixed stream
        form, leaf, checks = leaf_two_form(chart, SplitMix64(0x1EAF))
        out = {"checks": checks}
        if form is not None:
            out["leaf_basis"] = mat_to_json(leaf.basis)
            out["matrix"] = mat_to_json(form.matrix)
        return out
    raise UsageError(f"unknown eval kind {kind!r}")


def _scalar_repr(v):
    if isinstance(v, QQi):
        return repr(v)
    return [complex(v).real, complex(v).imag]
