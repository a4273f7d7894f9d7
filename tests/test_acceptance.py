"""Acceptance criteria, one test per criterion, at the stated sample counts.

Every record is decided with zero tolerance (exact equality of rationals),
the Weyl fibers of ``diagram-gs --backend float`` and of ``eval fiber-enum``
included.  Campaign runs are cached per (suite, group, samples, corruption,
backend) so criteria sharing a suite reuse the same seeded stream.  Run with
``pytest -v`` for the per-criterion lines.
"""

from qpslab.campaigns import CampaignConfig, run_suite
from qpslab.conventions import ACTIVE, FROZEN
from qpslab.gspringer import weyl_fiber_enum
from qpslab.liegroup import conjugate, context, random_point, weyl_orders
from qpslab.prng import SplitMix64

from oracles import same_class

GROUPS = ("sl2", "sl3", "gl2")
SEED = 20260809

_cache: dict = {}


def campaign(suite: str, group: str, samples: int, corrupt=None, backend="exact"):
    key = (suite, group, samples, corrupt, backend)
    if key not in _cache:
        _cache[key] = run_suite(CampaignConfig(
            suite=suite, group=group, samples=samples, seed=SEED,
            corrupt=corrupt, backend=backend))
    return _cache[key]


def assert_all(report, check_prefix=None, points=None):
    bad = [
        r for r in report.checks
        if not r["passed"]
        and (check_prefix is None or r["check_id"].startswith(check_prefix))
        and (points is None or r["point_index"] < points)
    ]
    assert not bad, f"{len(bad)} failing checks, first: {bad[0]}"


def announce(num, text):
    print(f"criterion {num:2d}: {text}: PASS")


def test_criterion_01_cartan_dirac_validity():
    # 100 seeded points per group: the conjugation fiber is Lagrangian of
    # dimension dim G, decided by exact arithmetic
    for group in GROUPS:
        rep = campaign("cartan-dirac", group, 100)
        assert_all(rep, "cartan-dirac/lagrangian")
        assert_all(rep)  # leaf-dimension cross-checks ride along
    announce(1, "conjugation structure Lagrangian at 100 points x 3 groups")


def test_criterion_02_dorfman_closure():
    # full basis of g x g at 50 points per group, exact, under the frozen
    # conventions; the surviving sign combination is recorded in
    # qpslab.conventions and checked by scripts/calibrate_conventions.py
    for group in GROUPS:
        rep = campaign("dorfman-closure", group, 50)
        assert_all(rep)
    announce(2, "bracket closure on all basis pairs at 50 points x 3 groups")


def test_criterion_03_double_axioms():
    # 100 double points per group: moment condition on a basis, exterior
    # derivative against the invariant 3-form, kernel nondegeneracy, and
    # invariance under 10 sampled elements g2 of the second factor (g1 does
    # not enter the form, so none is drawn) -- all exact
    for group in GROUPS:
        rep = campaign("double", group, 100)
        assert_all(rep)
    announce(3, "double axioms A1-A4 at 100 points x 3 groups")


def test_criterion_04_kernel_lemma():
    # 50 Borel points per group, basis split plus mixed samples: the
    # annihilation condition holds iff the torus component vanishes
    for group in GROUPS:
        rep = campaign("lemma-kernel", group, 50)
        assert_all(rep)
    announce(4, "Borel kernel criterion with zero counterexamples at 50 points")


def test_criterion_05_regular_action():
    # constant intersection dimension dim U (sl2: 1, sl3: 3, gl2: 1) at all
    # 100 sampled points
    expected = {"sl2": 1, "sl3": 3, "gl2": 1}
    for group in GROUPS:
        rep = campaign("regact", group, 100)
        assert_all(rep)
        assert len(context(group).unipotent) == expected[group]
    announce(5, "action regularity: intersection dimension constant at 100 points")


def test_criterion_06_quotient_moment_map():
    # 100 quotient points per group, the stream forcing the unipotent,
    # non-regular and identity strata: Lagrangian fiber of dim G, forward-
    # Dirac onto the conjugation structure, trivial moment kernel, induced
    # action membership -- all exact
    for group in GROUPS:
        rep = campaign("gs-theorem1", group, 100)
        assert_all(rep)
    announce(6, "quotient fiber realizes the moment map at 100 points x 3 groups")


def test_criterion_07_leaf_identification():
    # the tangent image of the fiber is q_* T(G x tU) with dim G - rank
    # (sl2: 2, sl3: 6, gl2: 2), and the torus coordinate is locally constant
    expected = {"sl2": 2, "sl3": 6, "gl2": 2}
    for group in GROUPS:
        rep = campaign("gs-theorem2", group, 100)
        assert_all(rep, "gs-theorem2/leaf-projection")
        assert_all(rep, "gs-theorem2/leaf-dimension")
        assert_all(rep, "gs-theorem2/lambda-constant")
        assert context(group).dim_g - context(group).rank == expected[group]
    announce(7, "leaves are the twisted unipotent bundles at 100 points x 3 groups")


def test_criterion_08_bivector_reconstruction():
    # 50 quotient points per group: the reconstructed sharp map is skew,
    # satisfies the bivector moment condition on a covector basis, and
    # regenerates the fiber through the graph formula
    for group in GROUPS:
        rep = campaign("bivector", group, 50)
        assert_all(rep)
    announce(8, "bivector reconstruction exact at 50 points x 3 groups")


def test_criterion_09_steinberg_geometry():
    # invariants commute at 100 points (exact); unipotent samples land in
    # the identity fiber; the mu-fiber over 100 regular semisimple elements
    # has exactly |W| pairwise-inequivalent points, each mapping to the
    # element exactly (the float backend's weyl-fiber record); eval
    # fiber-enum's enumeration from the spectrum finds them over 20 elements
    for group in GROUPS:
        assert_all(campaign("diagram-gs", group, 100))
        assert_all(campaign("diagram-gs", group, 100, backend="float"))
    for group in ("sl2", "sl3"):
        ctx = context(group)
        wsize = len(weyl_orders(ctx))
        rng = SplitMix64(SEED + 9)
        for _ in range(20):
            t = random_point(ctx, "T-regular", rng)
            h = random_point(ctx, "G", rng)
            rs = conjugate(h, t)
            pts = weyl_fiber_enum(ctx, rs)
            assert len(pts) == wsize
            assert all(conjugate(g, b) == rs for g, b in pts)
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert not same_class(ctx, pts[i], pts[j])
    announce(9, "Steinberg geometry and Weyl fibers (|W| points, residual 0)")


def test_criterion_10_leaf_two_form():
    # 25 quotient points per group: the leaf form is skew, satisfies the
    # restricted moment identity, and d(omega_leaf) = -mu^* eta on random
    # leaf triples -- exact; rides on the same seeded stream as criterion 7
    for group in GROUPS:
        rep = campaign("gs-theorem2", group, 100)
        for prefix in ("gs-theorem2/leaf-form-graphical",
                       "gs-theorem2/leaf-form-skew",
                       "gs-theorem2/leaf-form-moment",
                       "gs-theorem2/leaf-form-d-identity"):
            assert_all(rep, prefix, points=25)
    announce(10, "leaf 2-form skew/moment/d-identity at 25 points x 3 groups")


def test_criterion_11_negative_controls():
    # corrupting one frozen convention at a time must surface failures in
    # the matching suites, guarding against vacuous passes
    matrix = {
        "sigma-half": ("dorfman-closure", "double", "gs-theorem1"),
        "sigma-ad-flip": ("double", "gs-theorem1", "lemma-kernel"),
        "omega-sign": ("double", "gs-theorem1"),
        "dorfman-eta": ("dorfman-closure",),
    }
    for corrupt, suites in matrix.items():
        for suite in suites:
            rep = campaign(suite, "sl2", 2, corrupt=corrupt)
            assert rep.summary["failed"] > 0, (corrupt, suite)
    # the moment condition itself must fail, not merely some other record
    for corrupt in ("sigma-half", "sigma-ad-flip", "omega-sign"):
        rep = campaign("double", "sl2", 2, corrupt=corrupt)
        a1 = [r for r in rep.checks
              if r["check_id"] == "double/A1-moment-condition"]
        assert a1 and not any(r["passed"] for r in a1), corrupt
    # cartan-dirac's closure sample sees sigma and the twist, never omega
    for corrupt, fails in (("sigma-half", True), ("sigma-ad-flip", True),
                           ("dorfman-eta", True), ("omega-sign", False)):
        rep = campaign("cartan-dirac", "sl2", 2, corrupt=corrupt)
        cs = [r for r in rep.checks
              if r["check_id"] == "cartan-dirac/closure-sample"]
        assert cs and all(r["passed"] != fails for r in cs), corrupt
    assert ACTIVE.get() is FROZEN
    announce(11, "corrupted conventions make suites 2, 3, 4 and 6 report failures")
