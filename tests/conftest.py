"""No test leaves state on a shared group context.

:func:`qpslab.liegroup.context` hands every caller the same
:class:`~qpslab.liegroup.GroupContext` of a group, so what one test sets on
it every later test in the process reads.  ``monkeypatch.setattr(ctx,
"adjoint", ...)`` is such a leak even though it is undone: the undo writes
the bound method it read back as an instance attribute, and that attribute
hides any later patch of ``GroupContext.adjoint`` at class level.  A test
that needs another method patches the class, or builds its own context.

After each test, no shared context may hold an instance attribute named
like a callable of :class:`~qpslab.liegroup.GroupContext`.  A leaked one is
removed before the test is failed, so the leak fails only the test that
made it.
"""

import pytest

from qpslab import liegroup
from qpslab.liegroup import GroupContext

# the names an instance attribute must not shadow
METHODS = {name for name in dir(GroupContext)
           if callable(getattr(GroupContext, name))}


@pytest.fixture(autouse=True)
def no_state_left_on_shared_contexts():
    yield
    leaked = {}
    for name, ctx in liegroup._CONTEXTS.items():
        attrs = sorted(METHODS & vars(ctx).keys())
        for attr in attrs:
            delattr(ctx, attr)
        if attrs:
            leaked[name] = attrs
    assert not leaked, f"instance attributes left on shared contexts: {leaked}"
