import pytest

from hopfpath import work
from hopfpath.model_rde import ModelError


class TestWorkBudget:
    def test_no_budget_by_default(self):
        work.charge(10**30)  # nothing is counted

    def test_limit_counts_and_refuses(self):
        with work.limit(10) as budget:
            work.charge(4)
            work.charge(6)
            assert budget.left == 0
            with pytest.raises(work.WorkBudgetExceeded):
                work.charge(1)
        work.charge(10**30)  # the limit ends with its body

    def test_inner_limit_replaces_the_outer_one(self):
        with work.limit(5) as outer:
            with work.limit(100) as inner:
                work.charge(50)
            assert (outer.left, inner.left) == (5, 50)
            with pytest.raises(work.WorkBudgetExceeded):
                work.charge(6)

    def test_no_fallback_catches_the_refusal(self):
        # series._power_series redoes TypeErrors on its float path, and rde prints
        # the samples of a ModelError
        for base in (TypeError, ValueError, ModelError):
            assert not issubclass(work.WorkBudgetExceeded, base)
