"""Pinned reports of the exact checkers on broken inputs.

``tests/golden/failing_reports.json`` holds ``to_json()`` of ``check_axioms``
on broken copies of the five algebras and of ``check_rough_axioms`` on lifts
with a perturbed level-2 or level-3 term, as the LinComb laws wrote them.  Every law,
verdict and first witness must stay as pinned.

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


def current_reports() -> dict:
    return {
        "check_axioms": {
            f"{algebra}-{breakage}": axiom_report(algebra, breakage)
            for algebra in ALGEBRAS for breakage in BREAKAGES
        },
        "check_rough_axioms": {_rough_name(*case): rough_report(*case) for case in ROUGH_CASES},
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


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(current_reports(), indent=1, ensure_ascii=False) + "\n",
                       encoding="utf-8")
