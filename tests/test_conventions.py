"""The one active ``Conventions`` value, its corruptions and ``using``."""

from dataclasses import FrozenInstanceError, fields

import pytest

from qpslab.conventions import ACTIVE, CORRUPTIONS, FROZEN, Conventions, using


def test_using_nests_and_restores_when_the_body_raises():
    assert ACTIVE.get() is FROZEN
    outer, inner = CORRUPTIONS["sigma-half"], CORRUPTIONS["omega-sign"]
    with using(outer):
        with pytest.raises(RuntimeError):
            with using(inner) as active:
                assert active is inner and ACTIVE.get() is inner
                raise RuntimeError("body fails")
        assert ACTIVE.get() is outer
    assert ACTIVE.get() is FROZEN


def test_each_corruption_breaks_one_frozen_field():
    for name, conv in CORRUPTIONS.items():
        changed = [f.name for f in fields(Conventions)
                   if getattr(conv, f.name) != getattr(FROZEN, f.name)]
        assert len(changed) == 1, name
    with pytest.raises(FrozenInstanceError):
        FROZEN.twist = 0
