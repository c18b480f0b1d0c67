"""Pinned reports of the exact checkers on broken inputs.

``tests/golden/failing_reports.json`` holds ``to_json()`` of ``check_axioms``
on broken copies of the five algebras and of ``check_rough_axioms`` on lifts
with a perturbed level-2 or level-3 term, as the LinComb laws wrote them.  Its
``check_model`` section holds ``to_json()`` of ``check_model`` on branched
lifts with one window broken, or the text of the ModelError it raised, as the
LinComb model laws wrote them.  Every law, verdict, first witness and error
text must stay as pinned.  ``tests/golden/outside_table_reports.json`` holds
``to_json()`` of ``check_rough_axioms`` on lifts whose values hold a key
outside the segment table (a foreign letter, or a key past the level), as
the generic Chen products wrote them; it is not rewritten.

    python tests/test_failing_reports.py

rewrites the fixture from the current code.
"""
from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from hopfpath.hopf_core import check_axioms, get_instance
from hopfpath.linalg import LinComb, TensorComb
from hopfpath.model_rde import ModelError, check_model, model_from_lift
from hopfpath.roughpath import (
    PiecewiseLinearPath,
    RoughLift,
    RoughPathConfig,
    branched_lift_fn,
    check_rough_axioms,
    signature_lift,
)
from hopfpath.series import TruncatedElement
from hopfpath.symbols import Forest, Tree, Word

FIXTURE = Path(__file__).parent / "golden" / "failing_reports.json"
OUTSIDE_FIXTURE = Path(__file__).parent / "golden" / "outside_table_reports.json"
ALGEBRAS = ("poly", "shuffle", "concat", "ck", "gl")


def scaled_product(base, factor, grade: int):
    """The product of base with every pair of non-units of total grade >=
    grade scaled by factor."""

    def product(u, v):
        out = base.product_basis(u, v)
        return out.scale(factor) if u.grade and v.grade and u.grade + v.grade >= grade else out

    return product


def dropped_coproduct(base, grade: int):
    """The coproduct of base without, on this grade, its first term (in basis
    order) with both slots of positive grade."""

    def coproduct(b):
        out = base.coproduct_basis(b)
        if b.grade == grade:
            inner = [lr for lr, _ in out.sorted_terms() if lr[0].grade and lr[1].grade]
            if inner:
                out = TensorComb({lr: c for lr, c in out if lr != inner[0]}, _clean=True)
        return out

    return coproduct


def flipped_antipode(base, grade: int):
    """The closed-form antipode of base with its sign flipped on this grade."""

    def antipode(b):
        out = base.antipode_closed_basis(b)
        return -out if b.grade == grade else out

    return antipode


BREAKAGES = {}
for _g in (2, 3):
    BREAKAGES.update({
        f"doubled-product-{_g}": lambda base, g=_g: {"product_basis": scaled_product(base, 2, g)},
        f"halved-product-{_g}":
            lambda base, g=_g: {"product_basis": scaled_product(base, Fraction(1, 2), g)},
        f"dropped-coproduct-term-{_g}":
            lambda base, g=_g: {"coproduct_basis": dropped_coproduct(base, g)},
        f"flipped-closed-antipode-{_g}":
            lambda base, g=_g: {"antipode_closed_basis": flipped_antipode(base, g)},
    })


def axiom_report(algebra: str, breakage: str) -> dict:
    base = get_instance(algebra, 2)
    broken = dataclasses.replace(base, **BREAKAGES[breakage](base))
    return check_axioms(broken, 3, samples=30).to_json()


PATH = PiecewiseLinearPath.from_knots(
    [
        (0, (0, 0)),
        (Fraction(1, 4), (1, Fraction(1, 2))),
        (Fraction(1, 2), (Fraction(1, 3), 1)),
        (1, (Fraction(-1, 2), Fraction(3, 2))),
    ]
)
GRID = [Fraction(i, 4) for i in range(5)]
_LEAF = Tree(1, Forest.of())
SHIFTS = {  # (flavor, grade) -> the basis element added
    ("geometric", 2): Word((1, 2)),
    ("branched", 2): Forest.of(Tree(2, Forest.of(_LEAF))),
    ("geometric", 3): Word((2, 1, 1)),
    ("branched", 3): Forest.of(_LEAF, Tree(2, Forest.of(_LEAF))),
}


def perturbed_lift(flavor: str, level: int, late: bool) -> RoughLift:
    """The canonical lift of PATH plus one basis element of grade min(level,
    3) on every window s != t, or only on those with s >= 1/2."""
    lift = (signature_lift if flavor == "geometric" else branched_lift_fn)(PATH, level)
    shift = LinComb.term(SHIFTS[flavor, min(level, 3)])

    def evaluate(s, t):
        elt = lift.eval(s, t)
        if s == t or (late and s < Fraction(1, 2)):
            return elt
        return TruncatedElement(elt.value + shift, elt.level, elt.algebra)

    return RoughLift(flavor, 2, level, evaluate)


def rough_report(flavor: str, level: int, late: bool) -> dict:
    cfg = RoughPathConfig.make(Fraction(1, level + 1), flavor)
    return check_rough_axioms(perturbed_lift(flavor, level, late), cfg, GRID).to_json()


ROUGH_CASES = [(f, level, late) for f in ("geometric", "branched") for level in (2, 3, 4)
               for late in (False, True)]


def _rough_name(flavor: str, level: int, late: bool) -> str:
    return f"{flavor}-level{level}-{'late' if late else 'all'}"


MODEL_GRID = [Fraction(i, 3) for i in range(4)]
OTHER = PiecewiseLinearPath.from_knots(
    [(0, (0, 0)), (Fraction(1, 2), (-1, Fraction(1, 2))), (1, (Fraction(1, 3), -1))]
)
# broken windows (s, t) of MODEL_GRID, two of them with t = MODEL_GRID[0]
WINDOWS = [(Fraction(1, 3), Fraction(2, 3)), (Fraction(0), Fraction(1)),
           (Fraction(2, 3), Fraction(0)), (Fraction(1), Fraction(0))]


def broken_lift(kind: str, window, level: int) -> RoughLift:
    """The branched lift of PATH with its value on one window replaced: by
    OTHER's value there for kind "swap" (still group-like, so Chen breaks),
    by PATH's value plus a single node for "off-group", and not at all for
    "clean"."""
    lift, other = branched_lift_fn(PATH, level), branched_lift_fn(OTHER, level)

    def evaluate(s, t):
        if kind == "clean" or (s, t) != window:
            return lift.eval(s, t)
        if kind == "swap":
            return other.eval(s, t)
        elt = lift.eval(s, t)
        return TruncatedElement(elt.value + LinComb.term(Forest.of(_LEAF)), elt.level, elt.algebra)

    return RoughLift("branched", 2, level, evaluate)


def model_report(kind: str, window, level: int, max_grade) -> dict:
    """to_json() of check_model on the broken lift, or {"error": text} of the
    ModelError it raises."""
    model = model_from_lift(broken_lift(kind, window, level), Fraction(1, level + 1))
    try:
        return check_model(model, MODEL_GRID, max_grade).to_json()
    except ModelError as exc:
        return {"error": str(exc)}


MODEL_CASES = (
    [("swap", w, level, max_grade) for w in WINDOWS for level in (2, 3) for max_grade in (None, 2)]
    + [("off-group", w, level, None) for w in (WINDOWS[0], WINDOWS[3]) for level in (2, 3)]
    # max_grade past the level: which ModelError comes first
    + [("swap", WINDOWS[0], 2, 3), ("clean", None, 2, 3), ("clean", None, 3, 4),
       ("off-group", WINDOWS[0], 2, 3), ("off-group", (Fraction(0), Fraction(0)), 2, 3)]
)


def _model_name(kind: str, window, level: int, max_grade) -> str:
    where = "" if window is None else f"-({window[0]},{window[1]})"
    return f"{kind}{where}-level{level}-max{max_grade}"


def current_reports() -> dict:
    return {
        "check_axioms": {
            f"{algebra}-{breakage}": axiom_report(algebra, breakage)
            for algebra in ALGEBRAS for breakage in BREAKAGES
        },
        "check_rough_axioms": {_rough_name(*case): rough_report(*case) for case in ROUGH_CASES},
        "check_model": {_model_name(*case): model_report(*case) for case in MODEL_CASES},
    }


PINNED = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("breakage", sorted(BREAKAGES))
def test_axiom_report_pinned(algebra, breakage):
    report = axiom_report(algebra, breakage)
    assert not report["passed"]
    assert report == PINNED["check_axioms"][f"{algebra}-{breakage}"]


@pytest.mark.parametrize("case", ROUGH_CASES, ids=lambda c: _rough_name(*c))
def test_rough_report_pinned(case):
    report = rough_report(*case)
    assert not report["passed"]
    assert report == PINNED["check_rough_axioms"][_rough_name(*case)]


@pytest.mark.parametrize("case", MODEL_CASES, ids=lambda c: _model_name(*c))
def test_model_report_pinned(case):
    report = model_report(*case)
    assert "error" in report or not report["passed"]
    assert report == PINNED["check_model"][_model_name(*case)]


def test_model_errors_pinned():
    # a lift value off the group fails at its first use as a character, and
    # a grade past the lift level has no character value
    errors = {name: r["error"] for name, r in PINNED["check_model"].items() if "error" in r}
    assert errors["off-group-(1/3,2/3)-level2-maxNone"] == (
        "characters come from group-like elements")
    assert errors["clean-level2-max3"] == "character table has no entry for grade 3"
    assert errors["clean-level3-max4"] == "character table has no entry for grade 4"
    assert errors["off-group-(0,0)-level2-max3"] == "characters come from group-like elements"


_LEAF3 = Tree(3, Forest.of())
OUTSIDE = {  # (flavor, kind) -> a key outside the level-2 table with d = 2
    ("geometric", "foreign"): Word((3,)),
    ("geometric", "past"): Word((1, 2, 1)),
    ("branched", "foreign"): Forest.of(_LEAF3),
    ("branched", "past"): Forest.of(Tree(2, Forest.of(_LEAF)), _LEAF),
}
OUTSIDE_WINDOWS = {"all": None, "(1/4,3/4)": (Fraction(1, 4), Fraction(3, 4))}


def outside_lift(flavor: str, kind: str, window) -> RoughLift:
    """The level-2 canonical lift of PATH plus 1/3 of a key outside its
    segment table on every window s != t, or on one window only."""
    base = (signature_lift if flavor == "geometric" else branched_lift_fn)(PATH, 2)
    extra = LinComb.term(OUTSIDE[flavor, kind], Fraction(1, 3))

    def evaluate(s, t):
        elt = base.eval(s, t)
        if (s == t) if window is None else ((s, t) != window):
            return elt
        return TruncatedElement(elt.value + extra, elt.level, elt.algebra)

    return RoughLift(flavor, 2, 2, evaluate)


OUTSIDE_CASES = [(flavor, kind, w) for flavor in ("geometric", "branched")
                 for kind in ("foreign", "past") for w in OUTSIDE_WINDOWS]


@pytest.mark.parametrize("case", OUTSIDE_CASES, ids=lambda c: "-".join(c))
def test_outside_table_report_pinned(case):
    # the Chen law multiplies such values through scaled_product, and its
    # verdict and witness stay those of the generic products
    flavor, kind, window = case
    cfg = RoughPathConfig.make(Fraction(1, 3), flavor)
    report = check_rough_axioms(outside_lift(flavor, kind, OUTSIDE_WINDOWS[window]), cfg, GRID)
    pinned = json.loads(OUTSIDE_FIXTURE.read_text(encoding="utf-8"))
    assert not report.passed
    assert report.to_json() == pinned["-".join(case)]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(current_reports(), indent=1, ensure_ascii=False) + "\n",
                       encoding="utf-8")
