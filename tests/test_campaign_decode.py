"""Campaign points reach their checks as drawn.

A point's generator draws its matrices and its salt, and the runner hands
its check the matrices as group elements, with the salted stream, as
``(ctx, pt, rng)``: the config stops at the runner, which picks the check.
The point is written to JSON once, for its records.  The AST test reads
``campaigns.py`` and fails on a ``_check_*`` function that builds its own
point, or on a registered check that takes anything but ``(ctx, pt,
rng)``.  The route test runs each point's check again on ``read_element``
of its records' JSON, the route by which points once reached their checks,
and asks for the same records.
"""

import ast
from pathlib import Path

import pytest

from qpslab import campaigns
from qpslab.campaigns import CampaignConfig, run_suite
from qpslab.conventions import FROZEN, using
from qpslab.liegroup import context, read_element
from qpslab.linalg import FLOAT
from qpslab.prng import SplitMix64

DECODERS = {"context", "read_element", "SplitMix64", "mat_from_json"}


def called_names(fn: ast.FunctionDef) -> set[str]:
    """The names of the functions called in ``fn``, bare or as attributes."""
    out = set()
    for n in ast.walk(fn):
        if isinstance(n, ast.Call):
            f = n.func
            out.add(f.id if isinstance(f, ast.Name) else getattr(f, "attr", ""))
    return out


def test_no_check_decodes_its_own_point():
    tree = ast.parse(Path(campaigns.__file__).read_text())
    checks = {n.name: n for n in tree.body
              if isinstance(n, ast.FunctionDef) and n.name.startswith("_check_")}
    for name, fn in checks.items():
        assert not called_names(fn) & DECODERS, name
    suite_checks = [check.__name__ for _, check in campaigns.SUITES.values()]
    suite_checks += [check.__name__ for check in campaigns.FLOAT_CHECKS.values()]
    assert len(suite_checks) == 11 and set(suite_checks) <= set(checks)
    for name in suite_checks:
        assert [a.arg for a in checks[name].args.args] == ["ctx", "pt", "rng"]


def test_suite_names_are_the_registry_in_order():
    # the CLI's choices and the benchmark's campaign list read this order
    assert campaigns.SUITE_NAMES == tuple(campaigns.SUITES) == (
        "pairing", "cartan-dirac", "dorfman-closure", "double", "lemma-kernel",
        "regact", "gs-theorem1", "gs-theorem2", "bivector", "diagram-gs")


ROUTES = [CampaignConfig(suite=s, group=g, samples=3, seed=17)
          for s in campaigns.SUITE_NAMES for g in ("sl2", "gl2")]
ROUTES.append(CampaignConfig(suite="diagram-gs", group="sl3", backend=FLOAT,
                             samples=3, seed=17))


@pytest.mark.parametrize("cfg", ROUTES,
                         ids=[f"{c.suite}-{c.group}-{c.backend}" for c in ROUTES])
def test_drawn_points_check_as_their_json_does(cfg):
    # each point's check, run again on its records' JSON read back with the
    # membership check and on the same salt, gives the same records; every
    # matrix read back is the one drawn
    gen, check = campaigns.SUITES[cfg.suite]
    if cfg.backend == FLOAT:
        check = campaigns.FLOAT_CHECKS[cfg.suite]
    ctx = context(cfg.group)
    report = run_suite(cfg)
    for index, (mats, salt) in enumerate(gen(cfg)):
        drawn = [r for r in report.checks if r["point_index"] == index]
        point = drawn[0]["point"]
        assert all(r["point"] == point for r in drawn)
        pt = {k: read_element(ctx, v) for k, v in point.items()}
        assert pt == mats
        with using(FROZEN):
            decoded = check(ctx, pt, SplitMix64(salt))
        assert [{k: v for k, v in r.items() if k not in ("point", "point_index")}
                for r in drawn] == decoded
