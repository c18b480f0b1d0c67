"""A deterministic work budget, counted where the work happens.

Code that does work calls ``charge(n)`` before it starts, n units for the
size it knows; memoized code charges on its miss path only.  A unit is about
a quarter of a microsecond of CPython.  With no budget set, the default,
``charge`` returns at once; under ``limit(units)`` a charge past the units
raises ``WorkBudgetExceeded``.  The count, unlike a clock, gives one input one
verdict on every machine, as Lean 4's ``maxHeartbeats`` does.
"""
import contextlib
import contextvars
from types import SimpleNamespace


class WorkBudgetExceeded(Exception):
    """Neither a TypeError nor a ValueError, so no fallback redoes the work."""


_budget = contextvars.ContextVar("hopfpath_work_budget", default=None)


def charge(n: int):
    budget = _budget.get()
    if budget is not None:
        budget.left -= n
        if budget.left < 0:
            raise WorkBudgetExceeded(f"the work passed its budget by {-budget.left} units")


@contextlib.contextmanager
def limit(units: int):
    """Run the body under a budget of ``units``, in place of any outer one;
    yields the budget, whose ``left`` counts down."""
    token = _budget.set(SimpleNamespace(left=units))
    try:
        yield _budget.get()
    finally:
        _budget.reset(token)
