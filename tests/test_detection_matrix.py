"""Which records each convention corruption makes fail, suite by suite.

Every suite runs under every ``--corrupt`` switch on sl2 and sl3, seed 11,
4 points, and the failing records with their counts must be exactly the
committed table.  So a check that stops seeing a corruption fails here, and
so does one that starts to: the empty cells are pinned as empty.  pairing,
regact and diagram-gs detect no switch, and dorfman-eta is seen only by
cartan-dirac and dorfman-closure.  With no switch every suite passes; the
golden digests hold that.
"""

from collections import Counter

import pytest

from qpslab.campaigns import SUITE_NAMES, CampaignConfig, run_suite
from qpslab.conventions import CORRUPTIONS

SWITCHES = ("sigma-half", "sigma-ad-flip", "omega-sign", "dorfman-eta")

# the failing records of each suite, by switch in SWITCHES order, as
# {record: points failed}; the record ids drop the suite's prefix
MATRIX = {
    "pairing": ({}, {}, {}, {}),
    "cartan-dirac": ({"closure-sample": 4},
                     {"closure-sample": 4, "lagrangian": 4},
                     {},
                     {"closure-sample": 4}),
    "dorfman-closure": ({"basis-pairs": 4}, {"basis-pairs": 4}, {},
                        {"basis-pairs": 4}),
    "double": ({"A1-moment-condition": 4},
               {"A1-moment-condition": 4},
               {"A1-moment-condition": 4, "A2-exterior-derivative": 4},
               {}),
    "lemma-kernel": ({}, {"iff": 4}, {}, {}),
    "regact": ({}, {}, {}, {}),
    "gs-theorem1": ({"f-dirac": 3, "induced-action": 4},
                    {"f-dirac": 4, "induced-action": 4},
                    {"f-dirac": 3, "induced-action": 4},
                    {}),
    "gs-theorem2": ({"leaf-form-moment": 4}, {"leaf-form-moment": 4},
                    {"leaf-form-moment": 4}, {}),
    # solvable fails, so the three records behind it are not emitted
    "bivector": ({"solvable": 4}, {"solvable": 4}, {"solvable": 4}, {}),
    "diagram-gs": ({}, {}, {}, {}),
}

# rank 2 adds one cell.  A leaf of sl2 has dimension 2, so the leaf
# d-identity, an identity of 3-forms, holds whatever the sign; on sl3
# omega-sign breaks it at 3 of the 4 points
SL3_EXTRA = {("gs-theorem2", "omega-sign"): {"leaf-form-d-identity": 3}}


def failing(suite: str, group: str, switch: str) -> dict:
    report = run_suite(CampaignConfig(suite=suite, group=group, samples=4,
                                      seed=11, corrupt=switch))
    prefix = f"{suite}/"
    counts = Counter(r["check_id"] for r in report.checks if not r["passed"])
    assert all(k.startswith(prefix) for k in counts)
    return {k[len(prefix):]: v for k, v in counts.items()}


def test_the_table_covers_every_suite_and_switch():
    assert tuple(MATRIX) == SUITE_NAMES
    assert sorted(SWITCHES) == sorted(CORRUPTIONS)


@pytest.mark.parametrize("suite", SUITE_NAMES)
@pytest.mark.parametrize("group", ["sl2", "sl3"])
def test_each_switch_fails_exactly_the_tabled_records(group, suite):
    for switch, want in zip(SWITCHES, MATRIX[suite], strict=True):
        if group == "sl3":
            want = {**want, **SL3_EXTRA.get((suite, switch), {})}
        assert failing(suite, group, switch) == want, switch
