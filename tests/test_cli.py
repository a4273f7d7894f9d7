"""Campaign determinism, exit codes, report format, and the eval commands."""

import json
import os
import re
from types import SimpleNamespace

import pytest

from qpslab.campaigns import CampaignConfig, UsageError, eval_command, run_suite
from qpslab.cli import main
from qpslab.conventions import CONVENTIONS_HASH
from qpslab.liegroup import context, read_element
from qpslab.linalg import Mat


def strip_timestamp(text: str) -> str:
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', text)


def test_report_deterministic_apart_from_timestamp():
    cfg = lambda: CampaignConfig(suite="cartan-dirac", group="sl2",
                                 samples=4, seed=42)
    r1 = run_suite(cfg())
    r2 = run_suite(cfg())
    assert strip_timestamp(r1.to_json()) == strip_timestamp(r2.to_json())
    assert r1.summary["failed"] == r1.summary["total"] - r1.summary["passed"]


def test_jobs_do_not_change_the_report():
    # the workers receive each point's drawn matrices pickled, in each shape
    # of generator: one matrix a point, salts drawn after all points (the gs
    # suites), two matrices a point
    for suite in ("lemma-kernel", "gs-theorem2", "double"):
        base = run_suite(CampaignConfig(suite=suite, group="sl2", samples=6, seed=5))
        par = run_suite(CampaignConfig(suite=suite, group="sl2", samples=6, seed=5,
                                       jobs=2))
        a, b = json.loads(base.to_json()), json.loads(par.to_json())
        a["generated_at"] = b["generated_at"] = ""
        a["config"]["jobs"] = b["config"]["jobs"] = 1
        assert a == b, suite


def test_report_schema_fields():
    rep = run_suite(CampaignConfig(suite="regact", group="sl2", samples=2, seed=1))
    data = json.loads(rep.to_json())
    assert data["schema"] == "qpslab/1"
    assert data["conventions_hash"] == CONVENTIONS_HASH
    assert set(data["summary"]) == {"total", "passed", "failed"}
    for rec in data["checks"]:
        assert {"check_id", "passed", "point", "point_index"} <= set(rec)


def test_cli_exit_codes(tmp_path, capsys):
    rpt = tmp_path / "r.json"
    assert main(["verify", "cartan-dirac", "--group", "sl2", "--samples", "2",
                 "--seed", "3", "--report", str(rpt)]) == 0
    assert rpt.exists()
    # corrupted conventions must fail (negative control)
    assert main(["verify", "dorfman-closure", "--group", "sl2", "--samples", "1",
                 "--corrupt", "sigma-half", "--report", str(rpt)]) == 1
    # a structurally corrupted sigma breaks the kernel criterion, with witnesses
    assert main(["verify", "lemma-kernel", "--group", "sl2", "--samples", "2",
                 "--corrupt", "sigma-ad-flip", "--report", str(rpt)]) == 1
    data = json.loads(rpt.read_text())
    assert any("witness" in rec for rec in data["checks"])
    # usage errors
    assert main(["verify", "gs-theorem1", "--backend", "float"]) == 2
    assert main(["verify", "cartan-dirac", "--samples", "0"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 1])
def test_cli_verify_rejects_a_seed_outside_64_bits(tmp_path, capsys, seed):
    # SplitMix64 keeps a seed's low 64 bits, so -1 would verify the points of
    # 2^64 - 1 under a different report config
    assert main(["verify", "pairing", "--samples", "1", "--seed", str(seed)]) == 2
    assert "seed must be in [0, 2^64)" in capsys.readouterr().err
    rpt = tmp_path / "r.json"
    assert main(["verify", "pairing", "--samples", "1", "--seed", str(2 ** 64 - 1),
                 "--report", str(rpt)]) == 0


def test_cli_verify_rejects_an_unwritable_report_before_the_run(tmp_path, capsys,
                                                               monkeypatch):
    import qpslab.cli as cli

    runs = []
    real = cli.run_suite
    monkeypatch.setattr(cli, "run_suite", lambda cfg: runs.append(cfg) or real(cfg))
    rpt = tmp_path / "no-such-dir" / "r.json"
    assert main(["verify", "regact", "--samples", "1", "--report", str(rpt)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write report:")
    assert runs == [] and not rpt.exists()


def test_verify_forks_no_more_workers_than_points(monkeypatch):
    # run_suite imports the pool from concurrent.futures only when it forks
    import concurrent.futures

    seen = []

    class InlinePool:
        """Records the pool size and runs each call in this process."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            result = fn(*args)
            return SimpleNamespace(result=lambda: result)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    cfg = dict(suite="regact", group="sl2", seed=1, jobs=64)
    assert run_suite(CampaignConfig(samples=3, **cfg)).all_passed
    assert seen == [3]
    # one point needs no pool at all
    assert run_suite(CampaignConfig(samples=1, **cfg)).all_passed
    assert seen == [3]
    # nor more workers than the machine has cores; the report keeps jobs
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    seen.clear()
    report = run_suite(CampaignConfig(samples=3, **cfg))
    assert report.all_passed and report.config["jobs"] == 64
    assert seen == [2]


def test_cli_group_defaults_to_sl2(tmp_path, capsys):
    rpt = tmp_path / "r.json"
    for flags, group in (([], "sl2"), (["--group", "gl2"], "gl2")):
        assert main(["verify", "regact", "--samples", "1", "--report", str(rpt),
                     *flags]) == 0
        assert json.loads(rpt.read_text())["config"]["group"] == group
    capsys.readouterr()


@pytest.mark.parametrize("group", ["sl3", "gl3"])
def test_cli_float_diagram_gs_passes_at_the_defaults(tmp_path, capsys, group):
    # seed 1 and 20 samples: the float-decided records failed kappa-commutes
    # at point 17 on sl3 and point 16 on gl3 (mu and lambda differing in the
    # eighth digit); both records are decided exactly now
    rpt = tmp_path / "r.json"
    assert main(["verify", "diagram-gs", "--backend", "float", "--group", group,
                 "--report", str(rpt)]) == 0
    data = json.loads(rpt.read_text())
    assert data["summary"] == {"total": 40, "passed": 40, "failed": 0}
    capsys.readouterr()


IDENTITY2 = {
    "group": "sl2", "rows": 2, "cols": 2,
    "entries": [["1", "0"], ["0", "0"], ["0", "0"], ["1", "0"]],
}


def test_eval_kappa():
    out = eval_command("kappa", IDENTITY2)
    assert out == {"group": "sl2", "kappa": ["2"]}


def test_eval_steinberg():
    unip = {"rows": 2, "cols": 2,
            "entries": [["1", "0"], ["1", "0"], ["0", "0"], ["1", "0"]]}
    ident = {"rows": 2, "cols": 2,
             "entries": [["1", "0"], ["0", "0"], ["0", "0"], ["1", "0"]]}
    out = eval_command("steinberg", {"group": "sl2", "g": unip, "t": ident})
    assert out == {"member": True}


def test_eval_steinberg_loads_t_with_the_backend_of_g(tmp_path, capsys):
    # an exact g with integer t entries: t is read exactly too
    unip = {"rows": 2, "cols": 2,
            "entries": [["1", "0"], ["1", "0"], ["0", "0"], ["1", "0"]]}
    ident = {"rows": 2, "cols": 2, "entries": [1, 0, 0, 1]}
    path = tmp_path / "steinberg.json"
    path.write_text(json.dumps({"group": "sl2", "g": unip, "t": ident}))
    assert main(["eval", "steinberg", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"member": True}


def test_cli_eval_kappa_and_steinberg_need_exact_entries(tmp_path, capsys):
    floats = {"rows": 2, "cols": 2, "entries": [2.0, 0, 0, 0.5]}
    ident = {"rows": 2, "cols": 2, "entries": [1, 0, 0, 1]}
    inputs = {
        "kappa": [dict(floats, group="sl2")],
        "steinberg": [{"group": "sl2", "g": floats, "t": ident},
                      {"group": "sl2", "g": ident, "t": floats}],
    }
    path = tmp_path / "in.json"
    for kind, payloads in inputs.items():
        for payload in payloads:
            path.write_text(json.dumps(payload))
            assert main(["eval", kind, str(path)]) == 2
            assert "exact backend needs fraction strings" in capsys.readouterr().err


ONE2 = {"rows": 2, "cols": 2, "entries": [1, 0, 0, 1]}
ONE3 = {"rows": 3, "cols": 3, "entries": [1, 0, 0, 0, 1, 0, 0, 0, 1]}


@pytest.mark.parametrize("kind, payload", [
    ("steinberg", {"group": "sl2", "g": ONE3, "t": ONE3}),
    ("steinberg", {"group": "sl2", "g": ONE3, "t": ONE2}),
    ("steinberg", {"group": "sl2", "g": ONE2, "t": ONE3}),
    ("leaf-form", {"group": "sl2", "g": ONE2, "b": ONE3}),
], ids=["steinberg-g-and-t", "steinberg-g", "steinberg-t", "leaf-form-b"])
def test_cli_eval_rejects_a_matrix_of_the_wrong_size(tmp_path, capsys, kind, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    assert main(["eval", kind, str(path)]) == 2
    assert "matrix size does not match group sl2" in capsys.readouterr().err


@pytest.mark.parametrize("rows, cols", [(3, 0), (0, 0), (2, 3), (1, 4)])
def test_a_mis_sized_header_is_refused_before_any_matrix_is_built(
        tmp_path, capsys, monkeypatch, rows, cols):
    # the header's size is compared with n first, so a header that claims
    # many empty rows builds none of them
    ctx = context("sl2")
    built = []
    init = Mat.__init__

    def counting(self, data):
        built.append(len(data))
        init(self, data)

    monkeypatch.setattr(Mat, "__init__", counting)
    payload = {"group": "sl2", "rows": rows, "cols": cols,
               "entries": [1] * (rows * cols)}
    with pytest.raises(ValueError, match="matrix size does not match group sl2"):
        read_element(ctx, payload)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    assert main(["eval", "kappa", str(path)]) == 2
    assert "matrix size does not match group sl2" in capsys.readouterr().err
    assert built == []


SINGULAR2 = {"rows": 2, "cols": 2, "entries": [1, 1, 0, 0]}
DET2 = {"rows": 2, "cols": 2, "entries": [2, 0, 0, 1]}
LOWER2 = {"rows": 2, "cols": 2, "entries": [1, 0, 1, 1]}


@pytest.mark.parametrize("kind, payload, message", [
    ("kappa", dict(SINGULAR2, group="sl2"), "must be invertible"),
    ("kappa", dict(DET2, group="sl2"), "determinant 1"),
    ("steinberg", {"group": "sl2", "g": SINGULAR2, "t": ONE2}, "must be invertible"),
    ("steinberg", {"group": "sl2", "g": ONE2, "t": DET2}, "determinant 1"),
    ("leaf-form", {"group": "sl2", "g": ONE2, "b": SINGULAR2}, "must be invertible"),
    ("leaf-form", {"group": "sl2", "g": DET2, "b": ONE2}, "determinant 1"),
    ("leaf-form", {"group": "sl2", "g": ONE2, "b": LOWER2}, "upper triangular"),
    # each factor's size and determinant are checked before b's place in B
    ("leaf-form", {"group": "sl2", "g": ONE2, "b": dict(LOWER2, entries=[1, 0, 1, 0])},
     "must be invertible"),
], ids=["kappa-singular", "kappa-det-2", "steinberg-singular-g", "steinberg-det-2-t",
        "leaf-form-singular-b", "leaf-form-det-2-g", "leaf-form-lower-b",
        "leaf-form-singular-lower-b"])
def test_cli_eval_refuses_a_matrix_outside_the_group(tmp_path, capsys, kind, payload,
                                                      message):
    # membership, and a leaf-form point's b in B, is checked where the JSON
    # is read: exit 2, one line
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    assert main(["eval", kind, str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert message in out.err


@pytest.mark.parametrize("kind, payload, field", [
    ("steinberg", {"group": "sl2", "g": ONE2}, "t"),
    ("steinberg", {"group": "sl2", "t": ONE2}, "g"),
    ("leaf-form", {"group": "sl2", "g": ONE2}, "b"),
    ("leaf-form", {"group": "sl2", "b": ONE2}, "g"),
], ids=["steinberg-t", "steinberg-g", "leaf-form-b", "leaf-form-g"])
def test_cli_eval_names_a_missing_field(tmp_path, capsys, kind, payload, field):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    assert main(["eval", kind, str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: missing field {field!r}\n"


ONE2_DIV0 ={"rows": 2, "cols": 2, "entries": [["1/0", "0"], 0, 0, 1]}


@pytest.mark.parametrize("kind, payload", [
    ("kappa", dict(ONE2_DIV0, group="sl2")),
    ("kappa", dict(ONE2, group="sl2", entries=[[True, "0"], 0, 0, 1])),
    ("kappa", dict(ONE2, group="gl2", entries=[True, 0, 0, 1])),
    ("kappa", dict(ONE2, group="sl2", rows=2.0)),
    ("kappa", dict(ONE2, group="sl2", entries=5)),
    ("kappa", dict(ONE2, group=["sl2"])),
    ("kappa", dict(ONE2, group="gl2", entries=[["1e30000000", "0"], 0, 0, 1])),
    ("steinberg", {"group": "sl2", "g": ONE2_DIV0, "t": ONE2}),
    ("leaf-form", {"group": "sl2", "g": ONE2_DIV0, "b": ONE2}),
    ("fiber-enum", dict(ONE2_DIV0, group="sl2")),
    ("fiber-enum", dict(ONE2, group="gl2", entries=[[True, 0], 0, 0, 2])),
    ("fiber-enum", dict(ONE2, group="gl2", entries=[float("nan"), 0, 0, 2])),
    ("fiber-enum", dict(ONE2, group="gl2", entries=[[0, float("inf")], 0, 0, 2])),
    ("fiber-enum", dict(ONE2, group="gl2", entries=[0.5, 0, 0, 2])),
    ("fiber-enum", dict(ONE2, group="gl2", entries=[1, 1, 1, 0])),
    ("fiber-enum", dict(ONE2, group="sl2", entries=[0, -1, 1, 0])),
], ids=["kappa-zero-denominator", "kappa-boolean-part", "kappa-bare-boolean",
        "kappa-float-rows", "kappa-entries-not-a-list", "kappa-group-not-a-string",
        "kappa-huge-exponent",
        "steinberg-zero-denominator", "leaf-form-zero-denominator",
        "fiber-enum-zero-denominator", "fiber-enum-boolean-part",
        "fiber-enum-nan", "fiber-enum-infinite-part", "fiber-enum-plain-float",
        "fiber-enum-gl2-spectrum-not-rational", "fiber-enum-sl2-spectrum-not-rational"])
@pytest.mark.filterwarnings("error")
def test_cli_eval_rejects_malformed_json_with_one_line(tmp_path, capsys, kind, payload):
    # exit 2 with a one-line message: no traceback, no warning printed before
    # it, and no boolean read as 1
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    assert main(["eval", kind, str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def fiber_points_over(payload: dict) -> list:
    """The points ``eval fiber-enum`` prints for ``payload``, read back; each
    maps to the input exactly."""
    from qpslab.gspringer import point_from_json
    from qpslab.liegroup import conjugate, group_of_json, read_element

    out = eval_command("fiber-enum", payload)
    assert set(out) == {"count", "points"}
    ctx = group_of_json(payload)
    points = [point_from_json(p) for p in out["points"]]
    assert out["count"] == len(points)
    assert all(c is ctx for c, _, _ in points)
    points = [(g, b) for _, g, b in points]
    assert all(conjugate(g, b) == read_element(ctx, payload) for g, b in points)
    return points


def test_eval_fiber_enum():
    diag = {"group": "sl2", "rows": 2, "cols": 2,
            "entries": [["2", "0"], ["0", "0"], ["0", "0"], ["1/2", "0"]]}
    assert len(fiber_points_over(diag)) == 2


def test_eval_fiber_enum_sl4():
    from qpslab.liegroup import context, random_point
    from qpslab.matio import mat_to_json
    from qpslab.prng import SplitMix64

    ctx = context("sl4")
    rng = SplitMix64(82)
    t = random_point(ctx, "T-regular", rng)
    g = random_point(ctx, "G", rng)
    points = fiber_points_over(dict(mat_to_json(g @ t @ g.inverse()), group="sl4"))
    assert len(points) == 24


def test_eval_leaf_form():
    from qpslab.gspringer import point_to_json, sample_gspoint
    from qpslab.prng import SplitMix64
    from qpslab.liegroup import context

    pt = sample_gspoint(context("sl2"), SplitMix64(9))
    out = eval_command("leaf-form", point_to_json(context("sl2"), *pt))
    assert out["checks"]["passed"]
    assert out["matrix"]["rows"] == 2


def test_cli_eval_leaf_form_needs_exact_entries(tmp_path, capsys):
    # integers are exact; a float entry is an input error, not a traceback
    def point(b_entries):
        return {"group": "sl2",
                "g": {"rows": 2, "cols": 2, "entries": [1, 2, 0, 1]},
                "b": {"rows": 2, "cols": 2, "entries": b_entries}}

    ints, floats = tmp_path / "ints.json", tmp_path / "floats.json"
    ints.write_text(json.dumps(point([1, 2, 0, 1])))
    floats.write_text(json.dumps(point([2, 1, 0, 0.5])))
    assert main(["eval", "leaf-form", str(ints)]) == 0
    capsys.readouterr()
    assert main(["eval", "leaf-form", str(floats)]) == 2
    assert "exact backend" in capsys.readouterr().err


def test_eval_unknown_kind():
    with pytest.raises(UsageError):
        eval_command("nope", {})


# argparse's choices keep the first four from the CLI; the bench and library
# callers build a CampaignConfig themselves and reach each guard
@pytest.mark.parametrize("field, value, message", [
    ("suite", "nope", "unknown suite 'nope'"),
    ("group", "sl9", "unknown group 'sl9'"),
    ("backend", "gpu", "backend must be 'exact' or 'float'"),
    ("corrupt", "nope", "unknown corruption 'nope'"),
    ("jobs", 0, "jobs must be >= 1"),
], ids=["suite", "group", "backend", "corruption", "jobs"])
def test_each_config_guard_refuses_its_value(field, value, message):
    cfg = CampaignConfig(suite="pairing", samples=1)
    cfg.validate()
    setattr(cfg, field, value)
    with pytest.raises(UsageError, match=message):
        cfg.validate()


def test_cli_eval_file_errors(tmp_path, capsys):
    assert main(["eval", "kappa", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["eval", "kappa", str(bad)]) == 2
    # non-regular input to fiber-enum is an input error
    unip = tmp_path / "unip.json"
    unip.write_text(json.dumps({
        "group": "sl2", "rows": 2, "cols": 2,
        "entries": [["1", "0"], ["1", "0"], ["0", "0"], ["1", "0"]],
    }))
    assert main(["eval", "fiber-enum", str(unip)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}", b'{"rows": ' + b"7" * 5000 + b"}", b"[" * 200000,
], ids=["not-utf8", "integer-past-the-digit-limit", "nesting-past-the-recursion-limit"])
def test_cli_eval_refuses_an_unreadable_input_with_one_line(tmp_path, capsys, content):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    assert main(["eval", "kappa", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: cannot read input: ") and out.err.count("\n") == 1


def test_matio_round_trip_and_plain_numbers_refused():
    from qpslab.matio import mat_from_json, mat_to_json

    obj = {"rows": 2, "cols": 2, "entries": [0.5, [1, -2], 0, ["4", "0"]]}
    with pytest.raises(ValueError, match="exact backend"):
        mat_from_json(obj)
    exact = mat_from_json({"rows": 1, "cols": 1, "entries": [["3/4", "0"]]})
    round_trip = mat_from_json(mat_to_json(exact))
    assert round_trip == exact
    with pytest.raises(ValueError):
        mat_from_json({"rows": 2, "cols": 2, "entries": []})


DIAG2 = {"group": "sl2", "rows": 2, "cols": 2,
         "entries": [["2", "0"], ["0", "0"], ["0", "0"], ["1/2", "0"]]}


def assert_eval_refuses_tolerance(tmp_path, capsys, tol: str) -> None:
    """fiber-enum decides its points exactly, so eval has no --tol: any value,
    in the old range or not, is a usage error."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(DIAG2))
    with pytest.raises(SystemExit) as exc:
        main(["eval", "fiber-enum", str(path), "--tol", tol])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_cli_eval_takes_no_tolerance(tmp_path, capsys):
    assert_eval_refuses_tolerance(tmp_path, capsys, "1e-9")


@pytest.mark.parametrize("tol", ["1e-2", "0.5", "0", "-1e-9"])
def test_cli_fiber_enum_rejects_tolerance_out_of_range(tmp_path, capsys, tol):
    assert_eval_refuses_tolerance(tmp_path, capsys, tol)


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_cli_fiber_enum_rejects_non_finite_tolerance(tmp_path, capsys, tol):
    assert_eval_refuses_tolerance(tmp_path, capsys, tol)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "1e-2", "0.5", "0",
                                 "-1e-9", "1e-9"])
def test_cli_verify_rejects_tolerance_out_of_range(capsys, tol):
    # no record reads a tolerance, so verify has no --tol: any value, in the
    # old range or not, is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "diagram-gs", "--backend", "float", "--samples", "1",
              f"--tol={tol}"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("tol", [1e-12, 1e-3, 9e-3])
def test_cli_verify_records_tolerance(tmp_path, capsys, tol):
    # a value --tol used to take as given is now a usage error, and the config
    # still records the one tolerance every recorded digest hashes
    rpt = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "diagram-gs", "--samples", "1", "--tol", repr(tol),
              "--report", str(rpt)])
    assert exc.value.code == 2
    assert not rpt.exists()
    assert main(["verify", "diagram-gs", "--samples", "1", "--report", str(rpt)]) == 0
    assert '"tolerance": 1e-09' in rpt.read_text()
    capsys.readouterr()
