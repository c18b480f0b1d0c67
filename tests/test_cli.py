import argparse
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hopfpath.cli import main


@pytest.fixture
def path_csv(tmp_path):
    p = tmp_path / "path.csv"
    p.write_text("t,x1,x2\n0,0,0\n1/2,1,1/3\n1,1/4,1\n")
    return str(p)


@pytest.fixture
def line_csv(tmp_path):
    p = tmp_path / "line.csv"
    p.write_text("t,x1\n0,0\n1,1\n")
    return str(p)


GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def refused(capsys, *argv) -> str:
    """Run a command the work budget must refuse: exit 2 with no stdout, in
    under 2 s of CPU; returns its stderr."""
    start = time.process_time()
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "", err
    assert time.process_time() - start < 2
    return err


def budget_error(first: str, command: str) -> str:
    """The error line of a command the work budget refuses."""
    from hopfpath.cli import _WORK_BUDGET

    return f"error: {first}: the {command} work passes its budget of {_WORK_BUDGET} units\n"


class TestAlgebraCommands:
    def test_ck_coproduct_text(self, capsys):
        code, out, _ = run(capsys, "coproduct", "--algebra", "ck", "[]_1")
        assert code == 0
        assert out.strip() == "[]_1 (x) 1 + 1 (x) []_1"

    def test_gl_pair(self, capsys):
        code, out, _ = run(capsys, "pair", "--algebra", "gl", "[]_1", "[]_1")
        assert code == 0 and out.strip() == "1"

    def test_product_poly(self, capsys):
        code, out, _ = run(
            capsys, "product", "--algebra", "poly", "--dim", "2", "(1,0)", "(0,1)"
        )
        assert code == 0 and out.strip() == "(1,1)"

    def test_antipode_engines_agree(self, capsys):
        _, rec, _ = run(capsys, "antipode", "--algebra", "ck", "[[]_1]_1")
        _, closed, _ = run(
            capsys, "antipode", "--algebra", "ck", "[[]_1]_1", "--engine", "closed"
        )
        assert rec == closed

    def test_check_axioms_ok(self, capsys):
        code, out, _ = run(
            capsys, "check-axioms", "--algebra", "shuffle", "--max-grade", "4",
            "--samples", "30",
        )
        assert code == 0 and out.strip() == "OK"

    def test_exp_log_roundtrip(self, capsys):
        _, out, _ = run(
            capsys, "exp", "--algebra", "concat", "--truncation", "3", "1"
        )
        _, back, _ = run(
            capsys, "log", "--algebra", "concat", "--truncation", "3", out.strip()
        )
        assert back.strip() == "1"

    def test_bch(self, capsys):
        code, out, _ = run(
            capsys, "bch", "--algebra", "concat", "--truncation", "2", "1", "2"
        )
        assert code == 0
        assert out.strip() == "1 + 2 + 1/2*12 + -1/2*21"

    def test_norm(self, capsys):
        # exp(e_1) at level 2; its log is exactly e_1
        code, out, _ = run(
            capsys, "norm", "--algebra", "concat", "--truncation", "2", "ε + 1 + 1/2*11"
        )
        assert code == 0 and out.strip() == "1"

    def test_cuts_listing(self, capsys):
        code, out, _ = run(capsys, "cuts", "[[]_1]_1")
        assert code == 0
        assert out.splitlines() == [
            "1 | [[]_1]_1 | 1",
            "[]_1 | []_1 | 1",
            "[[]_1]_1 | 1 | 1",
        ]

    def test_convert_phi(self, capsys):
        code, out, _ = run(capsys, "convert", "--via", "phi", "[]_1 []_2")
        assert code == 0 and out.strip() == "12 + 21"

    def test_convert_phihat(self, capsys):
        code, out, _ = run(capsys, "convert", "--via", "phihat", "12")
        assert code == 0 and out.strip() == "[[]_1]_2"

    def test_json_format_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "product", "--algebra", "ck", "--format", "json", "[]_1", "[]_2"
        )
        assert code == 0
        data = json.loads(out)
        assert data == {"[]_1 []_2": "1"}

    def test_json_coproduct_keys(self, capsys):
        code, out, _ = run(
            capsys, "coproduct", "--algebra", "ck", "--format", "json", "[]_1"
        )
        data = json.loads(out)
        assert data == {"1⊗[]_1": "1", "[]_1⊗1": "1"}


class TestErrors:
    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "coproduct", "--algebra", "ck", "[[]_1")
        assert code == 2 and "parse error" in err

    def test_label_out_of_range(self, capsys):
        code, _, err = run(capsys, "coproduct", "--algebra", "ck", "--dim", "2", "[]_3")
        assert code == 2 and "out of [1, 2]" in err

    def test_unknown_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_qgamma_rejects_combination(self, capsys):
        code, out, err = run(capsys, "qgamma", "--gamma", "0.4", "[]_1 + [[]_1]_1")
        assert code == 2 and out == "" and "single forest" in err

    def test_norm_rejects_ck(self, capsys):
        code, out, err = run(
            capsys, "norm", "--algebra", "ck", "--truncation", "3", "1 + 2*[]_1 + [[]_1]_1"
        )
        assert code == 2 and out == "" and "ck" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "signature", "/nonexistent/x.csv")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("argv, text", [
        (["qgamma", "[]_1", "--gamma", "1/0"], "1/0"),
        (["check-rough", "{path}", "--gamma", "1/0"], "1/0"),
        (["rde", "{path}", "--y0", "1/0"], "1/0"),
        (["rde", "{path}", "--step", "1/0"], "1/0"),
        (["rde", "{path}", "--T", "3/0"], "3/0"),
        (["rde", "{path}", "--f", "const:1/0"], "1/0"),
        (["rde", "{path}", "--f", "poly:1,2/0"], "2/0"),
        (["signature", "{path}", "--from", "1/0"], "1/0"),
        (["signature", "{knot_time}"], "1/0"),
        (["signature", "{knot_value}"], "2/0"),
    ])
    def test_zero_denominator_exit_2(self, capsys, tmp_path, path_csv, argv, text):
        knot_time, knot_value = tmp_path / "time.csv", tmp_path / "value.csv"
        knot_time.write_text("t,x1\n0,0\n1/0,1\n")
        knot_value.write_text("t,x1\n0,0\n1,2/0\n")
        argv = [a.format(path=path_csv, knot_time=knot_time, knot_value=knot_value)
                for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: zero denominator in '{text}'\n"

    @pytest.mark.parametrize("grid", ["0", "1", "-3"])
    @pytest.mark.parametrize("argv", [
        ["check-rough", "{path}"],
        ["convert-lift", "{path}", "--direction", "b2g"],
        ["check-model", "{path}"],
    ])
    def test_grid_below_two_exit_2(self, capsys, path_csv, argv, grid):
        code, out, err = run(capsys, *(a.format(path=path_csv) for a in argv), "--grid", grid)
        assert code == 2 and out == ""
        assert err == f"error: --grid must be at least 2, got {grid}\n"

    def test_check_rough_grid_two_keeps_library_error(self, capsys, path_csv):
        code, out, err = run(capsys, "check-rough", path_csv, "--grid", "2")
        assert code == 2 and out == "" and "grid needs at least 3 points" in err

    def test_negative_samples_exit_2(self, capsys):
        code, out, err = run(capsys, "check-axioms", "--algebra", "shuffle", "--samples", "-1")
        assert code == 2 and out == "" and "samples must be >= 0" in err
        code, out, _ = run(capsys, "check-axioms", "--algebra", "shuffle", "--max-grade", "2",
                           "--samples", "0")
        assert code == 0 and out == "OK\n"


class TestRoughCommands:
    def test_signature_deterministic(self, capsys, path_csv):
        code1, out1, _ = run(capsys, "signature", path_csv, "--level", "3")
        code2, out2, _ = run(capsys, "signature", path_csv, "--level", "3")
        assert code1 == code2 == 0 and out1 == out2

    def test_signature_window(self, capsys, path_csv):
        code, out, _ = run(
            capsys, "signature", path_csv, "--level", "1", "--from", "0", "--to", "1/2"
        )
        assert code == 0
        assert out.strip() == "ε + 1 + 1/3*2"

    def test_branched_lift(self, capsys, line_csv):
        code, out, _ = run(capsys, "branched-lift", line_csv, "--level", "2")
        assert code == 0
        assert "[]_1" in out and "1/2*[[]_1]_1" in out

    def test_check_rough_ok(self, capsys, path_csv):
        code, out, _ = run(
            capsys, "check-rough", path_csv, "--gamma", "2/5", "--grid", "5"
        )
        assert code == 0 and "chen: ok" in out

    def test_qgamma(self, capsys):
        code, out, _ = run(capsys, "qgamma", "--gamma", "0.4", "[[[]_1]_1]_1", "--dim", "1")
        assert code == 0
        assert abs(float(out) - 2 / (2**1.2 - 2)) < 1e-9

    def test_convert_lift_round(self, capsys, path_csv):
        code1, g2b, _ = run(
            capsys, "convert-lift", path_csv, "--direction", "g2b", "--level", "2"
        )
        code2, direct, _ = run(capsys, "branched-lift", path_csv, "--level", "2")
        assert code1 == code2 == 0
        assert g2b == direct

    def test_rde_csv_output(self, capsys, line_csv):
        code, out, _ = run(
            capsys,
            "rde",
            line_csv,
            "--f",
            "linear",
            "--y0",
            "1",
            "--gamma",
            "0.3",
            "--level",
            "4",
            "--step",
            "1/20",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,y"
        t_end, y_end = lines[-1].split(",")
        assert t_end == "1"
        assert abs(float(y_end) - 2.718281828) < 1e-6

    def test_rde_end_time_past_path_exit_2(self, capsys, line_csv):
        code, out, err = run(capsys, "rde", line_csv, "--step", "1/2", "--T", "2")
        assert code == 2 and out == "" and "past the last knot" in err

    @pytest.mark.parametrize("name, field, y0, step, end", [
        ("linear", "linear", "1", "1/20", None),
        ("poly", "poly:0,0,1", "1/2", "1/100", "1/10"),
        ("sin", "sin", "1/2", "1/20", None),
        ("const", "const:2", "0", "1/10", None),
    ])
    @pytest.mark.parametrize("path", ["line", "path2"])
    def test_rde_golden(self, capsys, line_csv, path_csv, path, name, field, y0, step, end):
        # pinned text; poly:0,0,1 leaves exact arithmetic at t = 3/50 on both paths
        argv = ["rde", line_csv if path == "line" else path_csv, "--f", field,
                "--y0", y0, "--step", step] + (["--T", end] if end else [])
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / "rde" / f"{path}-{name}.csv").read_text()
        if name in ("linear", "const"):
            assert err == ""

    def test_rde_names_the_switch_to_floats(self, capsys, line_csv):
        code, out, err = run(capsys, "rde", line_csv, "--f", "poly:0,0,1", "--y0", "1/2",
                             "--step", "1/100", "--T", "1/10")
        assert code == 0
        assert err.splitlines() == [
            "note: the state left exact arithmetic at t=0.06; it and later samples are floats"
        ]
        _, _, err = run(capsys, "rde", line_csv, "--f", "poly:0,0,1", "--y0", "0.5",
                        "--step", "1/100", "--T", "1/20")
        assert err == ""

    def test_rde_blow_up_prints_partial_samples(self, capsys, line_csv):
        code, out, err = run(capsys, "rde", line_csv, "--f", "poly:0,0,1", "--y0", "2",
                             "--level", "3", "--step", "1/10")
        assert code == 2
        lines = out.splitlines()
        assert lines[:2] == ["t,y", "0,2"]
        assert [row.split(",")[0] for row in lines[1:]] == [f"{k / 10:.12g}" for k in range(10)]
        assert err.splitlines()[-1] == "error: non-finite state at t=1.0"
        code, out, err = run(capsys, "rde", line_csv, "--f", "poly:0,0,1", "--y0", "1e200",
                             "--step", "1/4")
        assert code == 2
        assert out == "t,y\n0,1e+200\n"
        assert err == "error: the exact state at t=0.25 is outside the floating range\n"
        code, out, err = run(capsys, "rde", line_csv, "--f", "const:1", "--y0", "1e400")
        assert code == 2 and out == "t,y\n"
        assert err == "error: the exact state at t=0 is outside the floating range\n"

    def test_byte_identical_reruns(self, capsys, path_csv):
        for argv in (["check-rough", path_csv, "--gamma", "2/5", "--grid", "5"],
                     ["check-model", path_csv, "--grid", "5"]):
            outs = set()
            for _ in range(2):
                _, out, _ = run(capsys, *argv)
                outs.add(out)
            assert len(outs) == 1, argv


class TestCheckJson:
    def test_check_axioms_json(self, capsys):
        code, out, _ = run(
            capsys, "check-axioms", "--algebra", "gl", "--max-grade", "3",
            "--samples", "20", "--format", "json",
        )
        data = json.loads(out)
        assert code == 0 and data["passed"] is True
        assert data["title"] == "axiom check: gl, grade <= 3"
        assert [e["law"] for e in data["laws"]] == [
            "unit", "counit", "grading", "associativity", "coassociativity",
            "compatibility", "antipode", "random-combinations",
        ]
        assert "holder_ratio_sup" not in data

    def test_check_rough_json(self, capsys, path_csv):
        argv = ["check-rough", path_csv, "--gamma", "2/5", "--grid", "5"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        _, text, _ = run(capsys, *argv)
        data = json.loads(out)
        assert code == 0 and data["passed"] is True
        assert text.splitlines()[0] == data["title"]
        assert all(e["ok"] and e["witness"] is None for e in data["laws"])
        assert text.splitlines()[-1].endswith(f"{data['holder_ratio_sup']:.6g}")

    def test_check_model_json(self, capsys, path_csv):
        argv = ["check-model", path_csv, "--grid", "3", "--level", "2"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        _, text, _ = run(capsys, *argv)
        data = json.loads(out)
        assert code == 0 and data["passed"] is True
        assert text.splitlines()[0] == data["title"] == "model check"
        assert [e["law"] for e in data["laws"]] == [
            "unit-evaluation", "evaluation-translation", "cocycle", "coproduct-intertwining",
            "grade-lowering",
        ]
        assert "holder_ratio_sup" not in data


class TestSizeGuard:
    def test_huge_truncation_exits_at_once(self, capsys):
        err = refused(capsys, "exp", "--algebra", "concat", "--truncation", "100000000", "1")
        assert err == budget_error("--truncation 100000000 is too large at x 1, --dim 2", "exp")

    @pytest.mark.parametrize("algebra, dim, level", [
        ("concat", "1", "2000000"), ("shuffle", "2", "20"), ("ck", "2", "12"),
        ("gl", "1", "100000000"), ("poly", "3", "200"),
    ])
    def test_each_basis_kind_guarded(self, capsys, algebra, dim, level):
        # the work done, not the basis size, decides: a dense power series is
        # refused, while the sparse exp(x) = sum_k x^k/k! of one letter, dot or
        # variable runs
        x = "(1,0,0)" if algebra == "poly" else ("1" if algebra in ("concat", "shuffle") else "[]_1")
        argv = ["exp", "--algebra", algebra, "--dim", dim, "--truncation", level, x]
        if algebra in ("concat", "gl"):
            err = refused(capsys, *argv)
            assert err == budget_error(f"--truncation {level} is too large at x {x}, --dim {dim}",
                                       "exp")
            return
        # the k-th shuffle power of a letter is k! times its k-letter word
        power = {"shuffle": lambda k: "1" * k or "ε",
                 "ck": lambda k: " ".join(["[]_1"] * k) or "1",
                 "poly": lambda k: f"({k},0,0)"}[algebra]
        scale = (lambda k: 1) if algebra == "shuffle" else math.factorial
        terms = [power(k) if scale(k) == 1 else f"1/{scale(k)}*{power(k)}"
                 for k in range(int(level) + 1)]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, " + ".join(terms) + "\n", "")

    def test_norm_of_the_unit_at_a_huge_truncation(self, capsys):
        # log(ε) = 0 costs almost nothing, so the norm must not walk every grade
        # up to the truncation: the grades of log(g) are the only ones it reads
        import tracemalloc

        tracemalloc.start()
        try:
            code, out, err = run(capsys, "norm", "--algebra", "concat", "--truncation",
                                 "1000000", "ε")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (0, "0\n", "")
        assert peak < 4 * 2**20
        start = time.process_time()
        code, out, err = run(capsys, "norm", "--algebra", "concat", "--truncation",
                             "1000000000", "ε")
        assert (code, out, err) == (0, "0\n", "")
        assert time.process_time() - start < 2

    def test_signature_level_30_exits_at_once(self, capsys, path_csv):
        err = refused(capsys, "signature", path_csv, "--level", "30")
        assert err == budget_error("--level 30 is too large", "signature")

    def test_rde_step_count_exits_at_once(self, capsys, line_csv, path_csv):
        # 10^8 steps: without the guard this solve runs until memory runs out
        import time

        from hopfpath.cli import _STEP_CAP, _check_steps

        start = time.process_time()
        code, out, err = run(capsys, "rde", line_csv, "--step", "1/100000000")
        assert code == 2 and out == ""
        assert err == ("error: --step 1/100000000 is too small: the solve up to T=1 takes "
                       "more than 100000 steps\n")
        assert time.process_time() - start < 2
        code, _, err = run(capsys, "rde", path_csv, "--step", "1/1000", "--T", "101")
        assert code == 2 and "--step 1/1000" in err
        # exactly the cap passes; the goldens' steps run in test_rde_golden, the README's here
        _check_steps(Fraction(1, _STEP_CAP), Fraction(0), Fraction(1))
        with pytest.raises(ValueError, match="--step"):
            _check_steps(Fraction(1, _STEP_CAP), Fraction(0), Fraction(_STEP_CAP + 1, _STEP_CAP))
        code, out, _ = run(capsys, "rde", path_csv, "--f", "linear", "--y0", "1", "--gamma",
                           "0.3", "--level", "4", "--step", "1/100")
        assert code == 0 and len(out.splitlines()) == 102

    def test_check_axioms_sized_by_work(self, capsys):
        # 29,524 words: the work budget stops the check on the way
        err = refused(capsys, "check-axioms", "--algebra", "shuffle", "--dim", "3",
                      "--max-grade", "9")
        assert err == budget_error("--max-grade 9 is too large at --samples 500, --dim 3",
                                   "check-axioms")
        # the dimension is checked before anything is sized
        start = time.process_time()
        code, _, err = run(capsys, "check-axioms", "--dim", "0", "--max-grade", "1000000000")
        assert code == 2 and "alphabet size" in err
        assert time.process_time() - start < 2

    def test_check_axioms_sized_by_enumeration(self, capsys):
        # 2^100 subsets of one word, C(100, 50) placements of one pair: each
        # enumerator charges its whole count before it starts
        for algebra in ("concat", "shuffle"):
            err = refused(capsys, "check-axioms", "--algebra", algebra, "--dim", "1",
                          "--max-grade", "100")
            assert err == budget_error("--max-grade 100 is too large at --samples 500, --dim 1",
                                       "check-axioms")

    @pytest.mark.parametrize("algebra", ["concat", "shuffle"])
    def test_enumeration_work_counts_the_enumerators(self, algebra):
        # deshuffle_tuples charges per subset and shuffle_tuples per placement, the same
        # units for each at one word length, before it enumerates: a budget one unit
        # short refuses the call
        from hopfpath import hopf_core, work

        for n in range(10):
            w = tuple(1 + i % 2 for i in range(n))
            if algebra == "concat":
                count = 2**n

                def call():
                    return hopf_core.deshuffle_tuples(w)
            else:
                count = math.comb(n, n // 2)

                def call():
                    return hopf_core.shuffle_tuples(w[: n // 2], w[n // 2 :])
            with work.limit(10**9) as budget:
                assert sum(call().values()) == count
            used = 10**9 - budget.left
            assert used >= count and used % count == 0
            with work.limit(used - 1), pytest.raises(work.WorkBudgetExceeded):
                call()

    def test_check_axioms_sized_by_terms(self, capsys):
        # about 4 million coproduct terms and term pairs to multiply: unguarded, this
        # check ran for 23 s
        err = refused(capsys, "check-axioms", "--algebra", "concat", "--dim", "2",
                      "--max-grade", "9")
        assert err == budget_error("--max-grade 9 is too large at --samples 500, --dim 2",
                                   "check-axioms")
        # every golden invocation runs, and so do the README's gl check and concat at grade 7
        for name, (argv, _) in GOLDEN_CASES.items():
            if argv[0] == "check-axioms":
                code, out, _ = run(capsys, *argv)
                assert code == 0, name
        for argv in (["--algebra", "gl"], ["--algebra", "concat", "--dim", "2", "--max-grade", "7"]):
            code, out, _ = run(capsys, "check-axioms", *argv)
            assert code == 0 and out == "OK\n"

    @pytest.mark.parametrize("algebra", ["poly", "shuffle", "concat", "ck", "gl"])
    def test_coproduct_terms_bound_the_laws(self, algebra):
        # compatibility multiplies the |Delta b1| |Delta b2| term pairs of every basis
        # pair within the grade, and a cold check charges at least that many units
        import dataclasses

        from hopfpath import work
        from hopfpath.hopf_core import _bounded_pairs, check_axioms, get_instance

        for d in (1, 2):
            inst = dataclasses.replace(get_instance(algebra, d))  # with an empty memo
            by_grade = {k: inst.basis(k) for k in range(4)}
            row = inst.coproduct_row
            pairs = sum(len(row(b1)) * len(row(b2)) for b1, b2 in _bounded_pairs(by_grade, 3))
            with work.limit(10**12) as budget:
                assert check_axioms(dataclasses.replace(inst), 3, samples=0).passed
            assert 10**12 - budget.left >= pairs

    @pytest.mark.parametrize("argv", [
        ["branched-lift", "{path}", "--level", "12"],
        ["convert-lift", "{path}", "--direction", "g2b", "--level", "14"],
        ["check-rough", "{path}", "--level", "25"],
        ["check-rough", "{path}", "--flavor", "branched", "--level", "13"],
        ["check-axioms", "--algebra", "gl", "--max-grade", "13"],
        ["rde", "{path}", "--level", "12"],
        ["check-model", "{path}", "--level", "13"],
        ["check-axioms", "--algebra", "poly", "--dim", "1", "--max-grade", "100000000"],
    ])
    def test_level_and_max_grade_guarded(self, capsys, path_csv, argv):
        err = refused(capsys, *(a.format(path=path_csv) for a in argv))
        size, dim = argv[-1], argv[argv.index("--dim") + 1] if "--dim" in argv else "2"
        first = {
            "check-rough": f"--level {size} is too large at --grid 9",
            "check-model": f"--level {size} is too large at --grid 4",
            "check-axioms": f"--max-grade {size} is too large at --samples 500, --dim {dim}",
            "rde": f"--level {size} is too large at --step 1/100",
        }.get(argv[0], f"--level {size} is too large")
        assert err == budget_error(first, argv[0])

    def test_sizes_below_the_cap_run(self, capsys):
        # small sizes of dense inputs, and a sparse log at a truncation whose
        # basis has 2^26 - 1 words: log(1 + x) = sum_k (-1)^(k+1) x^k/k for x = 1
        code, out, _ = run(capsys, "exp", "--algebra", "ck", "--dim", "1", "--truncation", "2", "[]_1")
        assert code == 0 and out.strip() == "1 + []_1 + 1/2*[]_1 []_1"
        code, out, err = run(capsys, "log", "--algebra", "concat", "--dim", "2",
                             "--truncation", "25", "ε+1")
        terms = ["1"] + [f"{'-' if k % 2 == 0 else ''}1/{k}*{'1' * k}" for k in range(2, 26)]
        assert (code, out, err) == (0, " + ".join(terms) + "\n", "")


    @pytest.mark.parametrize("argv", [
        ["check-rough", "{path}", "--grid", "40"],
        ["check-rough", "{path}", "--flavor", "branched", "--grid", "1000000000"],
        ["check-rough", "{path}", "--flavor", "branched", "--gamma", "1/5"],
        ["convert-lift", "{path}", "--direction", "b2g", "--grid", "150"],
        ["check-model", "{path}", "--grid", "30"],
        ["check-model", "{path}", "--grid", "1000000000", "--level", "2"],
    ])
    def test_grid_guarded(self, capsys, path_csv, argv):
        # grid 40 makes about 3 million Chen-product pairs, 4 s of work unguarded; a
        # grid of 10^9 points is charged before it is built
        err = refused(capsys, *(a.format(path=path_csv) for a in argv))
        grid = argv[argv.index("--grid") + 1] if "--grid" in argv else "9"
        level = {"1/5": "5", "2": "2"}.get(argv[-1], "3")
        assert err == budget_error(f"--grid {grid} is too large at --level {level}", argv[0])

    def test_product_work_counts_the_pairs_a_product_visits(self):
        # a warm product charges the same units for each pair of terms it visits,
        # those whose grades sum to at most the bound
        from hopfpath import work
        from hopfpath.hopf_core import get_instance
        from hopfpath.linalg import LinComb

        def used(inst, x, level) -> int:
            inst.product(x, x, level)  # every row is in the memo after this
            with work.limit(10**9) as budget:
                inst.product(x, x, level)
            return 10**9 - budget.left

        for algebra in ("shuffle", "gl"):
            for d in (1, 2):
                inst = get_instance(algebra, d)
                per_pair = used(inst, inst.one(), 0)
                for level in range(5):
                    pool = inst.basis_up_to(level)
                    visited = sum(1 for g in pool for h in pool if g.grade + h.grade <= level)
                    assert used(inst, LinComb({b: 1 for b in pool}), level) == per_pair * visited

    @pytest.mark.parametrize("argv", [
        ["cuts", "--dim", "{dim}", "{corolla}"],
        ["coproduct", "--algebra", "ck", "--dim", "{dim}", "{corolla}"],
    ])
    def test_wide_forest_refused(self, capsys, argv):
        # a corolla of n leaves has 2^n admissible cuts; 16 leaves ran for 6 s
        def corolla(n: int) -> list:
            text = "[" + " ".join(f"[]_{i}" for i in range(1, n + 1)) + "]_1"
            return [a.format(dim=n, corolla=text) for a in argv]

        err = refused(capsys, *corolla(20))
        operand = "forest" if argv[0] == "cuts" else "x"
        assert err == budget_error(f"{operand} {corolla(20)[-1]} is too large at --dim 20", argv[0])
        code, out, _ = run(capsys, *corolla(6))
        assert code == 0 and out

    def test_samples_refused(self, capsys):
        # about 88 us a sample: 10^8 samples would take hours
        err = refused(capsys, "check-axioms", "--samples", "100000000")
        assert err == budget_error("--samples 100000000 is too large at --max-grade 4, --dim 2",
                                   "check-axioms")

    def test_branched_lift_level_8_refused(self, capsys):
        # 57,104 forests: 5-10 s of work
        err = refused(capsys, "branched-lift", str(GOLDEN_CLI / "path2.csv"), "--level", "8")
        assert err == budget_error("--level 8 is too large", "branched-lift")

    def test_grids_in_use_run(self, capsys, path_csv):
        # the README's invocations; the goldens' and the other tests' grids are smaller
        for argv in (["check-rough", path_csv, "--gamma", "2/5", "--grid", "9", "--flavor",
                      "branched"],
                     ["check-rough", path_csv, "--grid", "9"],
                     ["convert-lift", path_csv, "--direction", "b2g", "--level", "3"],
                     ["check-model", path_csv, "--grid", "5"]):
            code, _, _ = run(capsys, *argv)
            assert code == 0, argv


# the flags that several commands read, with a value for each that takes one
COMMON_FLAGS = {"--dim": "2", "--algebra": "shuffle", "--truncation": "3", "--gamma": "1/3",
                "--seed": "1", "--format": "text", "--float": None}
# which of them each command reads
READS = {
    **dict.fromkeys(("product", "coproduct", "antipode"), "--dim --algebra --float --format"),
    **dict.fromkeys(("exp", "log", "bch"), "--dim --algebra --float --format --truncation"),
    "norm": "--dim --algebra --truncation",
    "pair": "--dim --algebra --float",
    "check-axioms": "--dim --algebra --format --seed",
    "convert": "--dim --float --format",
    "cuts": "--dim --format",
    "qgamma": "--dim --gamma",
    **dict.fromkeys(("signature", "branched-lift", "convert-lift"), "--float --format"),
    **dict.fromkeys(("check-rough", "check-model"), "--format --gamma"),
    "rde": "--gamma",
}
UNREAD = [(command, flag) for command, flags in READS.items()
          for flag in COMMON_FLAGS if flag not in flags.split()]
# a run of each command with every flag it accepts given; "{path2}" and
# "{line}" as in GOLDEN_CASES
FULL_CASES = {
    "product": ["product", "--dim", "2", "--algebra", "ck", "--format", "json", "--float",
                "[]_1", "[]_2"],
    "coproduct": ["coproduct", "--dim", "2", "--algebra", "ck", "--format", "json", "--float",
                  "[[]_1]_2"],
    "antipode": ["antipode", "--dim", "2", "--algebra", "ck", "--engine", "closed",
                 "--format", "json", "--float", "[[]_1]_2"],
    "pair": ["pair", "--dim", "2", "--algebra", "gl", "--float", "[]_1", "1/3*[]_1"],
    "check-axioms": ["check-axioms", "--dim", "1", "--algebra", "gl", "--max-grade", "2",
                     "--samples", "3", "--seed", "1", "--format", "json"],
    "exp": ["exp", "--dim", "2", "--algebra", "concat", "--truncation", "2", "--format", "json",
            "--float", "1"],
    "log": ["log", "--dim", "2", "--algebra", "concat", "--truncation", "2", "--format", "json",
            "--float", "ε + 1"],
    "bch": ["bch", "--dim", "2", "--algebra", "concat", "--truncation", "2", "--format", "json",
            "--float", "1", "2"],
    "norm": ["norm", "--dim", "2", "--algebra", "concat", "--truncation", "2", "ε + 1 + 1/2*11"],
    "cuts": ["cuts", "--dim", "2", "--format", "json", "[[]_1]_2"],
    "convert": ["convert", "--dim", "2", "--via", "psi", "--format", "json", "--float",
                "[[]_1]_2"],
    "qgamma": ["qgamma", "--dim", "1", "--gamma", "2/5", "[[]_1]_1"],
    "signature": ["signature", "{path2}", "--level", "2", "--from", "0", "--to", "1/2",
                  "--format", "json", "--float"],
    "branched-lift": ["branched-lift", "{path2}", "--level", "2", "--from", "0", "--to", "1/2",
                      "--format", "json", "--float"],
    "convert-lift": ["convert-lift", "{line}", "--direction", "b2g", "--level", "2", "--grid",
                     "3", "--from", "0", "--to", "1", "--format", "json", "--float"],
    "check-rough": ["check-rough", "{path2}", "--flavor", "branched", "--level", "2", "--grid",
                    "3", "--gamma", "2/5", "--format", "json"],
    "check-model": ["check-model", "{path2}", "--level", "2", "--grid", "3", "--gamma", "2/5",
                    "--format", "json"],
    "rde": ["rde", "{line}", "--f", "linear", "--y0", "1", "--gamma", "1/3", "--level", "2",
            "--step", "1/2", "--T", "1"],
}


class TestFlags:
    """Each command accepts only the options its run reads."""

    def test_the_tables_cover_every_command(self):
        assert set(READS) == set(FULL_CASES) == {argv[0] for argv, _ in GOLDEN_CASES.values()} | {
            "norm", "qgamma", "rde"}
        assert len(UNREAD) == 71 and sum(len(f.split()) for f in READS.values()) == 55

    @pytest.mark.parametrize("command", sorted(FULL_CASES))
    def test_every_option_is_read(self, capsys, monkeypatch, command):
        # record the attributes each run reads on its parsed namespace, over the
        # golden cases of the command and its run with every flag given
        parse_args, parsers, reads = argparse.ArgumentParser.parse_args, [], set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                if parsers:  # parsing is done
                    reads.add(name)
                return super().__getattribute__(name)

        def recording(parser, args=None, namespace=None):
            parsers.clear()
            out = parse_args(parser, args, Recording())
            parsers.append(parser)
            return out

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        for argv, _ in GOLDEN_CASES.values():
            if argv[0] == command:
                main(_golden_argv(argv))
        assert main(_golden_argv(FULL_CASES[command])) == 0
        capsys.readouterr()
        sub = next(a for a in parsers[0]._actions if isinstance(a, argparse._SubParsersAction))
        accepted = {a.dest for a in sub.choices[command]._actions if a.dest != "help"}
        assert accepted - reads == set()

    @pytest.mark.parametrize("command, flag", UNREAD, ids=[f"{c}{f}" for c, f in UNREAD])
    def test_a_flag_the_command_does_not_read_exits_2(self, capsys, command, flag):
        extra = [flag] + ([COMMON_FLAGS[flag]] if COMMON_FLAGS[flag] else [])
        with pytest.raises(SystemExit) as exc:
            main(_golden_argv(FULL_CASES[command]) + extra)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert f"error: unrecognized arguments: {' '.join(extra)}\n" in err

    def test_convert_lift_g2b_takes_no_grid(self, capsys):
        for grid in ("5", "1"):
            code, out, err = run(capsys, "convert-lift", str(GOLDEN_CLI / "path2.csv"),
                                 "--direction", "g2b", "--grid", grid)
            assert (code, out) == (2, "")
            assert err == "error: convert-lift --direction g2b takes no --grid\n"


class TestJsonRoundTrip:
    def test_lincomb_json_keys_reparse(self, capsys):
        from fractions import Fraction

        from hopfpath.symbols import parse_expr

        code, out, _ = run(
            capsys, "product", "--algebra", "gl", "--format", "json", "[]_1", "[]_1"
        )
        assert code == 0
        data = json.loads(out)
        total = None
        for key, value in data.items():
            piece = parse_expr(key, "forest", 2).scale(Fraction(value))
            total = piece if total is None else total + piece
        _, direct, _ = run(capsys, "product", "--algebra", "gl", "[]_1", "[]_1")
        reparsed = parse_expr(direct.strip(), "forest", 2)
        assert total == reparsed


class TestProcessDeterminism:
    def test_byte_identity_across_hash_seeds(self, tmp_path):
        # words, trees and forests hash by identity, so their hashes differ
        # between the two processes as well as between the two seeds
        import os
        import subprocess
        import sys

        csv = tmp_path / "p.csv"
        csv.write_text("t,x1,x2\n0,0,0\n1/2,1,1/3\n1,1/4,1\n")
        commands = [
            ["signature", str(csv), "--level", "3", "--format", "json"],
            ["check-rough", str(csv), "--format", "json"],
            ["rde", str(csv), "--f", "sin", "--y0", "1/2", "--step", "1/10"],
            ["norm", "--algebra", "gl", "--truncation", "3", "1 + []_1 + 1/2*[]_1 []_2 + [[]_1]_2"],
            ["check-axioms", "--algebra", "gl", "--max-grade", "3", "--samples", "10",
             "--format", "json"],
            ["branched-lift", str(csv), "--level", "3"],
            ["check-model", str(csv), "--format", "json"],
            ["check-model", str(csv), "--grid", "3"],
        ]
        for argv in commands:
            outputs = set()
            for seed in ("1", "2"):
                env = dict(os.environ, PYTHONHASHSEED=seed)
                result = subprocess.run(
                    [sys.executable, "-m", "hopfpath.cli", *argv],
                    capture_output=True, text=True, env=env,
                )
                assert result.returncode == 0, (argv, result.stderr)
                outputs.add(result.stdout)
            assert len(outputs) == 1, argv


    def test_cold_units_across_hash_seeds(self, tmp_path):
        # the work a cold command charges is counted, not timed: the same units under
        # two hash seeds
        import os
        import subprocess
        import sys

        csv = tmp_path / "p.csv"
        csv.write_text("t,x1,x2\n0,0,0\n1/2,1,1/3\n1,1/4,1\n")
        script = (
            "import contextlib, sys\n"
            "from hopfpath import cli, work\n"
            "budgets, limit = [], work.limit\n"
            "@contextlib.contextmanager\n"
            "def recording(units):\n"
            "    with limit(units) as budget:\n"
            "        budgets.append(budget)\n"
            "        yield budget\n"
            "work.limit = recording\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(cli._WORK_BUDGET - budgets[0].left)\n"
        )
        commands = [
            ["check-axioms", "--algebra", "gl", "--max-grade", "3", "--samples", "20"],
            ["check-model", str(csv), "--grid", "4"],
            ["branched-lift", str(csv), "--level", "4"],
            ["cuts", "[[]_1 [[]_2]_1 []_2]_1"],
        ]
        for argv in commands:
            units = set()
            for seed in ("1", "2"):
                env = dict(os.environ, PYTHONHASHSEED=seed)
                result = subprocess.run([sys.executable, "-c", script, *argv],
                                        capture_output=True, text=True, env=env)
                assert result.returncode == 0, (argv, result.stderr)
                units.add(result.stdout.splitlines()[-1])
            assert len(units) == 1 and int(units.pop()) > 0, argv


class TestReadme:
    def test_cli_block_runs(self, tmp_path):
        # every hopfpath line of the README's CLI block, each in a fresh process, with a
        # 2-D path
        import shlex
        import subprocess
        import sys

        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        csv = tmp_path / "path.csv"
        csv.write_text("t,x1,x2\n0,0,0\n1/2,1,1/3\n1,1/4,1\n")
        lines = [line for line in block.splitlines() if line.startswith("hopfpath ")]
        assert len(lines) >= 17
        for line in lines:
            argv = [str(csv) if a == "path.csv" else a for a in shlex.split(line, comments=True)]
            result = subprocess.run([sys.executable, "-m", "hopfpath.cli", *argv[1:]],
                                    capture_output=True, text=True)
            assert result.returncode == 0, (line, result.stderr)


# Pinned stdout and exit code of typical invocations: name -> (argv, exit code).
# "{path2}" and "{line}" stand for the CSV files next to the goldens.
GOLDEN_CLI = GOLDEN / "cli"

_ELEMENTS = {
    "poly": ("(1,0) + 1/2*(0,1)", "(0,1) + (1,1)", "(0,0) + (1,0) + 1/2*(0,1)"),
    "shuffle": ("12 + 1/2*2", "1", "ε + 1 + 1/2*12"),
    "concat": ("12 + 1/2*2", "21", "ε + 2 + 1/3*11"),
    "ck": ("[[]_1]_2 + 1/3*[]_1", "[]_2", "1 + []_1 + 1/2*[]_1 []_2"),
    "gl": ("[[]_1]_2 + 1/3*[]_1", "[]_2", "1 + []_1 + 1/2*[[]_1]_2"),
}


def _golden_cases() -> dict:
    cases = {}
    for fmt in ("text", "json"):
        f = ["--format", fmt]
        for alg, (x, y, g) in _ELEMENTS.items():
            a = ["--algebra", alg, *f]
            cases[f"product-{alg}-{fmt}"] = (["product", *a, x, y], 0)
            cases[f"coproduct-{alg}-{fmt}"] = (["coproduct", *a, x], 0)
            cases[f"antipode-{alg}-{fmt}"] = (["antipode", *a, x], 0)
            cases[f"exp-{alg}-{fmt}"] = (["exp", *a, "--truncation", "3", x], 0)
            cases[f"log-{alg}-{fmt}"] = (["log", *a, "--truncation", "3", g], 0)
            cases[f"bch-{alg}-{fmt}"] = (["bch", *a, "--truncation", "3", x, y], 0)
            cases[f"check-axioms-{alg}-{fmt}"] = (
                ["check-axioms", *a, "--max-grade", "3", "--samples", "20"], 0)
        cases[f"antipode-closed-ck-{fmt}"] = (
            ["antipode", "--algebra", "ck", "--engine", "closed", *f, "[[]_1 []_2]_1"], 0)
        cases[f"cuts-{fmt}"] = (["cuts", *f, "[[]_1 []_2]_1"], 0)
        cases[f"convert-phi-{fmt}"] = (["convert", "--via", "phi", *f, "[[]_1]_2 []_1"], 0)
        cases[f"convert-phihat-{fmt}"] = (["convert", "--via", "phihat", *f, "12 + 1/2*1"], 0)
        cases[f"convert-psi-{fmt}"] = (["convert", "--via", "psi", *f, "[[]_1]_2 []_1"], 0)
        cases[f"signature-{fmt}"] = (["signature", "{path2}", "--level", "3", *f], 0)
        cases[f"signature-window-{fmt}"] = (
            ["signature", "{path2}", "--level", "2", "--from", "1/4", "--to", "3/4", *f], 0)
        cases[f"branched-lift-{fmt}"] = (["branched-lift", "{path2}", "--level", "2", *f], 0)
        cases[f"convert-lift-g2b-{fmt}"] = (
            ["convert-lift", "{path2}", "--direction", "g2b", "--level", "2", *f], 0)
        cases[f"convert-lift-b2g-{fmt}"] = (
            ["convert-lift", "{line}", "--direction", "b2g", "--level", "3", *f], 0)
        for flavor in ("geometric", "branched"):
            cases[f"check-rough-{flavor}-{fmt}"] = (
                ["check-rough", "{path2}", "--flavor", flavor, "--gamma", "2/5", "--grid", "4",
                 *f], 0)
        cases[f"check-model-{fmt}"] = (["check-model", "{path2}", "--grid", "4", *f], 0)
    cases["exp-gl-float"] = (["exp", "--algebra", "gl", "--float", "--truncation", "3",
                              "[]_1 + 1/3*[]_2"], 0)
    cases["coproduct-ck-float-json"] = (["coproduct", "--algebra", "ck", "--float",
                                         "--format", "json", "1/3*[[]_1]_2"], 0)
    cases["pair-gl"] = (["pair", "--algebra", "gl", "[[]_1]_2 + 1/3*[]_1", "2*[[]_1]_2"], 0)
    cases["product-parse-error"] = (["product", "--algebra", "shuffle", "[]_1", "1"], 2)
    return cases


GOLDEN_CASES = _golden_cases()


def _golden_argv(argv: list) -> list:
    files = {"path2": str(GOLDEN_CLI / "path2.csv"), "line": str(GOLDEN_CLI / "line.csv")}
    return [a.format(**files) if a.startswith("{") else a for a in argv]


class TestGoldenOutput:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_stdout_and_exit_code(self, capsys, name):
        argv, expected_code = GOLDEN_CASES[name]
        code, out, _ = run(capsys, *_golden_argv(argv))
        assert code == expected_code
        assert out == (GOLDEN_CLI / f"{name}.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    # python tests/test_cli.py rewrites tests/golden/cli/*.out from the current code
    import contextlib
    import io

    for name, (argv, _) in sorted(GOLDEN_CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            main(_golden_argv(argv))
        (GOLDEN_CLI / f"{name}.out").write_text(buf.getvalue(), encoding="utf-8")
