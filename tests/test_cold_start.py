"""What a fresh interpreter loads: campaigns, on either backend, and ``eval
fiber-enum`` load neither numpy, nor the process pool, nor the dual-number
engine :mod:`qpslab.diffcalc`, which only the tests' oracles and the
calibration script use; no suite, run once each, loads any of them.

Each test runs the CLI in a new interpreter, since the test process itself
has long since imported both.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

from qpslab.campaigns import SUITE_NAMES
from qpslab.cli import main

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("numpy", "concurrent.futures.process", "qpslab.diffcalc")

# run each argv through main() and print its exit code, its stdout and which
# of the heavy modules are loaded afterwards, as one JSON line
DRIVER = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
from qpslab.cli import main
runs = []
for argv in {argvs!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({{"runs": runs, "loaded": [m for m in {heavy!r} if m in sys.modules]}}))
"""


def strip_timestamp(text: str) -> str:
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', text)


def fresh_run(argvs: list[list[str]]) -> dict:
    code = DRIVER.format(src=str(ROOT / "src"), argvs=argvs, heavy=HEAVY)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def in_process(argv: list[str], capsys) -> list:
    capsys.readouterr()
    code = main(argv)
    return [code, capsys.readouterr().out]


def test_an_exact_run_loads_no_numpy_and_no_pool(capsys):
    argv = ["verify", "regact", "--samples", "1"]
    got = fresh_run([argv])
    assert got["loaded"] == []
    (code, out), = got["runs"]
    want_code, want_out = in_process(argv, capsys)
    assert code == want_code == 0
    assert strip_timestamp(out) == strip_timestamp(want_out)


def test_a_float_campaign_loads_no_numpy(capsys):
    # the float backend's diagram-gs records are decided exactly
    argv = ["verify", "diagram-gs", "--backend", "float", "--samples", "2"]
    got = fresh_run([argv])
    assert got["loaded"] == []
    (code, out), = got["runs"]
    want_code, want_out = in_process(argv, capsys)
    assert code == want_code == 0
    assert strip_timestamp(out) == strip_timestamp(want_out)


def test_fiber_enum_loads_nothing_heavy(tmp_path, capsys):
    diag = tmp_path / "diag.json"
    diag.write_text(json.dumps({
        "group": "sl2", "rows": 2, "cols": 2,
        "entries": [["2", "0"], ["0", "0"], ["0", "0"], ["1/2", "0"]]}))
    argv = ["eval", "fiber-enum", str(diag)]
    got = fresh_run([argv])
    assert got["loaded"] == []
    (code, out), = got["runs"]
    want_code, want_out = in_process(argv, capsys)
    assert code == want_code == 0
    assert out == want_out
    assert '"count": 2' in out


def test_no_suite_loads_the_oracle_engine():
    got = fresh_run([["verify", suite, "--group", "sl2", "--samples", "1"]
                     for suite in SUITE_NAMES])
    assert got["loaded"] == []
    assert [code for code, _ in got["runs"]] == [0] * len(SUITE_NAMES)
