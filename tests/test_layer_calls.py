"""Every callable the benchmark's layer tracer patches still exists.

``bench/layertrace.py`` names the callables it wraps in ``LAYER_CALLS``; a
renamed or deleted one would otherwise surface only inside a traced bench
run.  This test fails on it by name.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layertrace  # noqa: E402

CALLS = [(metric, owner, attr)
         for metric, (owner, attrs) in layertrace.LAYER_CALLS.items()
         for attr in attrs]


@pytest.mark.parametrize("metric,owner,attr", CALLS,
                         ids=[f"{m}:{a}" for m, _, a in CALLS])
def test_layer_call_resolves(metric, owner, attr):
    # the tracer reads the attribute from the owner's own namespace
    assert attr in vars(owner), f"{metric}: {owner.__name__}.{attr} is gone"
    assert callable(vars(owner)[attr])
