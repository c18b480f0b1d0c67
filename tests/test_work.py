import sys

import pytest

from hopfpath import cli, work
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
        # the CLI words TypeErrors and ValueErrors as they come, and rde prints
        # the samples of a ModelError
        for base in (TypeError, ValueError, ModelError):
            assert not issubclass(work.WorkBudgetExceeded, base)


class TestLongTruncations:
    EXP = ["exp", "--algebra", "concat", "--dim", "1", "1", "--truncation"]

    @pytest.mark.parametrize("command, x, truncation", [
        ("exp", "1", "6000"), ("exp", "1", "999999"), ("log", "ε + 1", "999999"),
    ], ids=["exp-6000", "exp-999999", "log-999999"])
    def test_the_budget_refuses_them(self, command, x, truncation, capsys):
        # each power is charged by its keys' grade and by its bits and its
        # weight's as the chain reaches it, not after the last weight
        argv = [command, "--algebra", "concat", "--dim", "1", x, "--truncation", truncation]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: --truncation {truncation} is too large "
                                            f"at x {x}, --dim 1: the {command} work")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python prints ints of any length")
    def test_a_coefficient_past_the_digit_limit_names_the_truncation(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # 1/400! has 869 digits
        try:
            assert cli.main(self.EXP + ["400"]) == 2
        finally:
            sys.set_int_max_str_digits(limit)
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: --truncation 400 is too large at x 1, --dim 1: a coefficient passes "
            "Python's limit on the digits of an int printed as text\n")
