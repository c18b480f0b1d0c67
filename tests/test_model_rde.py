import dataclasses
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hopfpath.hopf_core import CheckReport
from hopfpath.hopf_ck import ck_coproduct, ck_instance, forest_product
from hopfpath.linalg import LinComb, TensorComb, _accumulate
from hopfpath.model_rde import (
    Character,
    DottedForest,
    ModelError,
    ScalarField,
    SectorError,
    VectorField,
    _EXACT_STATE_BITS,
    _coprime_fraction,
    _demote_if_huge,
    _exact_step,
    _float_past_cap,
    _gamma_table,
    _polynomial_plan,
    _step_function,
    _step_polynomial,
    abstract_integration,
    check_model,
    comodule_coproduct,
    comodule_action,
    constant_field,
    identity_field,
    in_dotted_sector,
    model_from_lift,
    picard_solve,
    polynomial_field,
    sine_field,
)
from hopfpath.roughpath import (
    PiecewiseLinearPath,
    RoughLift,
    branched_lift_fn,
    signature_lift,
    to_fraction,
)
from hopfpath.series import TruncatedElement
from hopfpath.symbols import EMPTY_FOREST, Forest, Tree, forests_up_to, trees

from reference_maps import _picard_step_coefficients, struct_action


def t(label, *children):
    return Tree(label, Forest.of(*children))


dot1 = t(1).as_forest()
dot2 = t(2).as_forest()

PATH = PiecewiseLinearPath.from_knots(
    [(0, (0, 0)), (Fraction(1, 2), (1, Fraction(1, 3))), (1, (Fraction(1, 4), 1))]
)
GRID = [Fraction(i, 4) for i in range(5)]
LIFT = branched_lift_fn(PATH, 3)
MODEL = model_from_lift(LIFT, Fraction(3, 10), GRID)
LINE = PiecewiseLinearPath.from_knots([(0, (0,)), (1, (1,))])


# ---------------------------------------------------------------------------
# checkers of the model space's sectors, grading and structure group


def homogeneity(b, gamma) -> Fraction:
    """Homogeneity: gamma * grade on forests, gamma*(|z|+1) - 1 on dotted."""
    gamma = to_fraction(gamma)
    if isinstance(b, Forest):
        return gamma * b.grade
    if isinstance(b, DottedForest):
        return gamma * (b.forest.grade + 1) - 1
    raise SectorError(f"no homogeneity for {type(b).__name__}")


def in_function_sector(x: LinComb) -> bool:
    """True if supported on the unit and single trees."""
    return all(isinstance(b, Forest) and b.tree_count() <= 1 for b in x.support())


def derivative_map(x: LinComb) -> LinComb:
    """Left inverse of integration: the unit dies, |z|_i goes to z*Xi_i."""
    if not in_function_sector(x):
        raise SectorError("the derivative map is defined on the function-like sector")

    def on_basis(b: Forest) -> LinComb:
        if b.is_empty():
            return LinComb.zero()
        tree = b.items[0][0]
        return LinComb.term(DottedForest(tree.children, tree.label))

    return x.map_basis(on_basis)


def multiplicativity_witness(g: Character, d: int, max_grade: int):
    """The first failure of g(1) = 1 and g(ab) = g(a) g(b) on forests of
    total grade <= max_grade, or None."""
    if g(EMPTY_FOREST) != 1:
        return "g(1) != 1"
    pool = forests_up_to(d, max_grade)
    for a in pool:
        for b in pool:
            if a.grade + b.grade > max_grade:
                continue
            if g(a.mul(b)) != g(a) * g(b):
                return f"g not multiplicative on ({a}, {b})"
    return None


def structure_map_witness(gamma_map, d: int, max_grade: int, gamma) -> str | None:
    """Check the four structure-group properties of an endomap of the model space.

    Returns a witness string on the first violation, else None.  The map is
    applied to basis combinations of the function-like and dotted sectors.
    """
    gamma = to_fraction(gamma)
    y_basis = [EMPTY_FOREST] + [
        t.as_forest() for k in range(1, max_grade + 1) for t in trees(d, k)
    ]
    dot_basis = [
        DottedForest(f, i)
        for f in forests_up_to(d, max_grade - 1)
        for i in range(1, d + 1)
    ]

    def lowered(b, image: LinComb) -> bool:
        delta = image - LinComb.term(b)
        return all(homogeneity(b2, gamma) < homogeneity(b, gamma) for b2 in delta.support())

    for b in y_basis + dot_basis:
        image = gamma_map(LinComb.term(b))
        if not lowered(b, image):
            return f"(i) fails: Gamma {b} - {b} does not lower homogeneity"
    for b in y_basis:
        if not in_function_sector(gamma_map(LinComb.term(b))):
            return f"(ii) fails: function-like sector not preserved at {b}"
    for b in dot_basis:
        if not in_dotted_sector(gamma_map(LinComb.term(b))):
            return f"(ii) fails: dotted sector not preserved at {b}"
    for b in dot_basis:
        x = LinComb.term(b)
        defect = abstract_integration(gamma_map(x)) - gamma_map(abstract_integration(x))
        if any(not bb.is_empty() for bb in defect.support()):
            return f"(iii) fails: integration commutator not a multiple of 1 at {b}"
    for a in y_basis:
        for b in dot_basis:
            if a.grade + b.forest.grade > max_grade - 1:
                continue
            prod = LinComb.term(DottedForest(a.mul(b.forest), b.letter))
            lhs = gamma_map(prod)
            ga = gamma_map(LinComb.term(a))
            gb = gamma_map(LinComb.term(b))
            rhs = LinComb.bilinear(
                ga, gb, lambda fa, db: ((DottedForest(fa.mul(db.forest), db.letter), 1),)
            )
            if lhs != rhs:
                return f"(iv) fails: Gamma not multiplicative on ({a}, {b})"
    return None


def compose_with_function(
    Y: LinComb, f: ScalarField, alpha, gamma, xi: int | None = None
) -> LinComb:
    """Truncated Taylor composition f(Y) on the function-like sector.

    The output keeps coefficients of homogeneity below alpha; with ``xi``
    given, the result is multiplied by the noise symbol (homogeneity below
    alpha + gamma - 1).  The coefficients are exact, so a field whose
    derivatives are floats (``sine_field``) raises TypeError.
    """
    alpha, gamma = to_fraction(alpha), to_fraction(gamma)
    if not in_function_sector(Y):
        raise SectorError("composition needs a function-like argument")
    order = int(alpha / gamma)
    if f.order is not None and f.order < order:
        raise ModelError(
            f"insufficient derivative order: need {order}, have {f.order}"
        )
    max_grade = max((k for k in range(order + 1) if gamma * k < alpha), default=0)
    y0 = Y.coeff(EMPTY_FOREST)
    pure = Y - LinComb.term(EMPTY_FOREST, y0) if y0 else Y
    # sum_n f^(n)(y0) / n! pure^n, each power's numerators weighted by its
    # coefficient over its denominator
    parts = [(((EMPTY_FOREST, f.derivative(0)(y0)),), 1)]
    power = LinComb.term(EMPTY_FOREST)
    factorial = 1
    for n in range(1, order + 1):
        power = forest_product(power, pure, max_grade)
        if power.is_zero():
            break
        factorial *= n
        parts.append((power.nums.items(), f.derivative(n)(y0) * Fraction(1, factorial * power.den)))
    out = LinComb.from_nums(_accumulate(parts)).truncate(max_grade)
    if xi is None:
        return out
    return LinComb._make({DottedForest(b, xi): n for b, n in out.nums.items()}, out.den)


class TestSymbols:
    def test_homogeneities(self):
        g = Fraction(3, 10)
        assert homogeneity(EMPTY_FOREST, g) == 0
        assert homogeneity(dot1, g) == g
        assert homogeneity(DottedForest(EMPTY_FOREST, 1), g) == g - 1
        assert homogeneity(DottedForest(dot1, 2), g) == 2 * g - 1

    def test_dotted_identity(self):
        assert DottedForest(dot1, 2) == DottedForest(dot1, 2)
        assert DottedForest(dot1, 2) != DottedForest(dot1, 1)
        assert str(DottedForest(EMPTY_FOREST, 1)) == "Xi_1"
        assert str(DottedForest(dot1, 2)) == "[]_1*Xi_2"


class TestIntegrationAndDerivative:
    def test_base(self):
        assert abstract_integration(LinComb.term(DottedForest(EMPTY_FOREST, 1))) == LinComb.term(
            dot1
        )

    def test_graft(self):
        x = LinComb.term(DottedForest(dot1, 2))
        assert abstract_integration(x) == LinComb.term(t(2, t(1)).as_forest())

    def test_homogeneity_shift_by_one(self):
        g = Fraction(3, 10)
        b = DottedForest(dot1, 2)
        out = abstract_integration(LinComb.term(b))
        assert homogeneity(next(iter(out.support())), g) == homogeneity(b, g) + 1

    def test_sector_enforced(self):
        with pytest.raises(SectorError):
            abstract_integration(LinComb.term(dot1))

    def test_derivative_base(self):
        assert derivative_map(LinComb.term(EMPTY_FOREST)).is_zero()
        assert derivative_map(LinComb.term(t(2, t(1)).as_forest())) == LinComb.term(
            DottedForest(dot1, 2)
        )

    def test_left_inverse_to_grade_4(self):
        for f in forests_up_to(2, 3):
            for i in (1, 2):
                x = LinComb.term(DottedForest(f, i))
                assert derivative_map(abstract_integration(x)) == x

    def test_derivative_commutes_with_translation(self):
        gm = MODEL.gamma_st_model(Fraction(1, 4), Fraction(3, 4))
        for k in range(1, 4):
            for tree in trees(2, k):
                x = LinComb.term(tree.as_forest())
                assert derivative_map(gm(x)) == gm(derivative_map(x))


class TestComodule:
    def test_noise_fixed(self):
        x = LinComb.term(DottedForest(EMPTY_FOREST, 1))
        assert comodule_coproduct(x) == TensorComb.term(
            EMPTY_FOREST, DottedForest(EMPTY_FOREST, 1)
        )

    def test_single_tree_with_noise(self):
        x = LinComb.term(DottedForest(dot1, 2))
        expected = TensorComb(
            {
                (EMPTY_FOREST, DottedForest(dot1, 2)): 1,
                (dot1, DottedForest(EMPTY_FOREST, 2)): 1,
            }
        )
        assert comodule_coproduct(x) == expected

    def test_restricts_to_coproduct_on_forests(self):
        for f in forests_up_to(2, 3):
            assert comodule_coproduct(LinComb.term(f)) == ck_coproduct(f)

    def test_comodule_axiom(self):
        # (Delta (x) id) after coaction equals (id (x) coaction) after coaction
        for f in forests_up_to(2, 2):
            for i in (1, 2):
                x = LinComb.term(DottedForest(f, i))
                first = comodule_coproduct(x)
                lhs = {}
                for (l, r), c in first:
                    for (l1, l2), c2 in ck_coproduct(l):
                        key = (l1, l2, r)
                        lhs[key] = lhs.get(key, 0) + c * c2
                rhs = {}
                for (l, r), c in first:
                    for (m, r2), c2 in comodule_coproduct(LinComb.term(r)):
                        key = (l, m, r2)
                        rhs[key] = rhs.get(key, 0) + c * c2
                assert {k: v for k, v in lhs.items() if v} == {
                    k: v for k, v in rhs.items() if v
                }

    def test_translation_fixes_noise(self):
        gm = MODEL.gamma_st_model(0, Fraction(1, 2))
        for i in (1, 2):
            x = LinComb.term(DottedForest(EMPTY_FOREST, i))
            assert gm(x) == x


class TestStructAction:
    def test_counit_character_is_identity(self):
        eps = Character({EMPTY_FOREST: Fraction(1)}, sys.maxsize)  # the counit, on every grade
        for f in forests_up_to(2, 3):
            assert struct_action(eps, LinComb.term(f)) == LinComb.term(f)

    def test_unit_fixed(self):
        g = MODEL.character(0, 1)
        assert struct_action(g, LinComb.term(EMPTY_FOREST)) == LinComb.term(EMPTY_FOREST)

    def test_single_node_formula(self):
        g = MODEL.character(0, 1)
        out = struct_action(g, LinComb.term(dot1))
        assert out == LinComb.term(dot1) + LinComb.term(EMPTY_FOREST, g(dot1))

    def test_left_action_antimorphism(self):
        g = MODEL.character(0, Fraction(1, 2))
        h = MODEL.character(Fraction(1, 4), Fraction(3, 4))
        conv = Character(
            {
                f: ck_coproduct(f).fold(
                    lambda l, r: LinComb.term(EMPTY_FOREST, h(l) * g(r))
                ).coeff(EMPTY_FOREST)
                for f in forests_up_to(2, 3)
            },
            3,
        )
        for f in forests_up_to(2, 3):
            x = LinComb.term(f)
            lhs = struct_action(g, struct_action(h, x))
            rhs = struct_action(conv, x)
            assert lhs == rhs

    def test_right_action_flavor(self):
        g = MODEL.character(0, 1)
        out = struct_action(g, LinComb.term(dot1), flavor="right")
        assert out == LinComb.term(dot1, g(EMPTY_FOREST)) + LinComb.term(
            EMPTY_FOREST, g(dot1)
        )

    def test_multiplicativity_witness(self):
        g = MODEL.character(0, 1)
        assert multiplicativity_witness(g, 2, 3) is None


class TestCharacterization:
    def test_model_translation_accepted(self):
        gm = MODEL.gamma_st_model(Fraction(1, 4), Fraction(3, 4))
        assert structure_map_witness(gm, 2, 3, Fraction(3, 10)) is None

    def test_product_violation_rejected(self):
        # identity plus a compensated bump: satisfies (i)-(iii), breaks only (iv)
        def corrupted(x: LinComb) -> LinComb:
            out = x
            for b, c in x:
                if isinstance(b, DottedForest) and b.forest == dot1:
                    out = out + LinComb.term(DottedForest(EMPTY_FOREST, b.letter), c)
                elif isinstance(b, Forest) and b.tree_count() == 1:
                    tree = b.items[0][0]
                    if tree.children == dot1:
                        out = out + LinComb.term(t(tree.label).as_forest(), c)
            return out

        witness = structure_map_witness(corrupted, 2, 3, Fraction(3, 10))
        assert witness is not None and "(iv)" in witness

    def test_integration_violation_rejected(self):
        gm = MODEL.gamma_st_model(Fraction(1, 4), Fraction(3, 4))

        def corrupted(x: LinComb) -> LinComb:
            out = gm(x)
            support = list(x.support())
            if support and isinstance(support[0], Forest) and support[0] == t(1, t(1)).as_forest():
                out = out + LinComb.term(dot1)
            return out

        witness = structure_map_witness(corrupted, 2, 2, Fraction(3, 10))
        assert witness is not None


class TestModel:
    def test_invariants_on_grid(self):
        report = check_model(MODEL, GRID[:4], 3)
        assert report.passed, report.summary()

    def test_summary_text(self):
        report = check_model(MODEL, GRID[:4], 3)
        assert report.summary() == (
            "model check\n"
            "  unit-evaluation: ok\n"
            "  evaluation-translation: ok\n"
            "  cocycle: ok\n"
            "  coproduct-intertwining: ok\n"
            "  grade-lowering: ok"
        )

    def test_gamma_tt_identity(self):
        gm = MODEL.gamma_st(Fraction(1, 4), Fraction(1, 4))
        for f in forests_up_to(2, 3):
            assert gm(LinComb.term(f)) == LinComb.term(f)

    def test_model_requires_branched(self):
        from hopfpath.roughpath import signature_lift

        with pytest.raises(ModelError):
            model_from_lift(signature_lift(PATH, 2), Fraction(3, 10))

    def test_axiom_failure_propagates(self):
        from hopfpath.roughpath import RoughLift

        base = branched_lift_fn(PATH, 2)

        def tampered(s, u):
            elt = base.eval(s, u)
            if (s, u) == (Fraction(0), Fraction(1, 2)):
                return type(elt).make(elt.value + LinComb.term(dot1), 2, base.algebra)
            return elt

        broken = RoughLift("branched", 2, 2, tampered)
        with pytest.raises(ModelError):
            model_from_lift(broken, Fraction(3, 10), GRID)


class TestCharacterCache:
    def test_one_character_per_pair(self):
        model = model_from_lift(LIFT, Fraction(3, 10))
        s, u = Fraction(1, 4), Fraction(3, 4)
        g = model.character(s, u)
        assert model.character(s, u) is g
        assert model.character(u, s) is not g
        gm = model.gamma_st(u, s)  # acts by the character at (s, u)
        assert gm(LinComb.term(dot1)) == struct_action(g, LinComb.term(dot1), "left")
        assert len(model._characters) == 2

    def test_cache_not_part_of_value(self):
        a = model_from_lift(LIFT, Fraction(3, 10))
        b = model_from_lift(LIFT, Fraction(3, 10))
        a.character(0, Fraction(1, 2))
        assert a == b and "_characters" not in repr(a)

    def test_non_grouplike_value_still_raises(self):
        from hopfpath.model_rde import Model
        from hopfpath.roughpath import RoughLift

        base = branched_lift_fn(PATH, 2)

        def tampered(s, u):
            elt = base.eval(s, u)
            if (s, u) == (Fraction(0), Fraction(1, 2)):
                return type(elt).make(elt.value + LinComb.term(dot1), 2, base.algebra)
            return elt

        model = Model(lift=RoughLift("branched", 2, 2, tampered), gamma=Fraction(3, 10), level=2)
        for _ in range(2):
            with pytest.raises(ModelError):
                model.character(0, Fraction(1, 2))
        with pytest.raises(ModelError):
            model.gamma_st(Fraction(1, 2), 0)
        with pytest.raises(ModelError):
            model.gamma_st_model(Fraction(1, 2), 0)
        assert model.character(0, Fraction(1, 4)) is model.character(0, Fraction(1, 4))


class TestGammaRows:
    @given(
        st.sampled_from(GRID), st.sampled_from(GRID),
        st.lists(
            st.tuples(st.sampled_from(forests_up_to(2, 3)),
                      st.fractions(min_value=-4, max_value=4, max_denominator=6)),
            max_size=5,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_struct_action_and_comodule_action(self, s, t, terms):
        model = model_from_lift(LIFT, Fraction(3, 10))
        g = model.character(t, s)
        for b in forests_up_to(2, 3):
            row = model.gamma_row(s, t, b)
            ref = struct_action(g, LinComb.term(b), "left")
            assert list(row.terms.items()) == list(ref.terms.items())
            assert row == comodule_action(g, LinComb.term(b))
        x = LinComb(dict(terms))
        assert model.gamma_st(s, t)(x) == struct_action(g, x, "left") == comodule_action(g, x)

    def test_rows_cached_per_pair(self):
        model = model_from_lift(LIFT, Fraction(3, 10))
        s, u = Fraction(1, 4), Fraction(3, 4)
        row = model.gamma_row(s, u, dot1)
        assert model.gamma_row(s, u, dot1) is row
        assert model.gamma_row(u, s, dot1) is not row
        assert set(model._gamma_rows) == {(s, u), (u, s)}
        fresh = model_from_lift(LIFT, Fraction(3, 10))
        assert model == fresh and "_gamma_rows" not in repr(model)

    def test_rows_reject_dotted_symbols(self):
        model = model_from_lift(LIFT, Fraction(3, 10))
        with pytest.raises(SectorError):
            model.gamma_st(0, Fraction(1, 2))(LinComb.term(DottedForest(dot1, 1)))


def reference_check_model(model, grid, max_grade=None) -> CheckReport:
    """The five model laws on LinComb, through Model.pi and Model.gamma_row:
    the reference check_model is tested against."""
    grid = [Fraction(u) for u in grid]
    max_grade = model.level if max_grade is None else max_grade
    basis = forests_up_to(model.lift.dim, max_grade)
    ck = ck_instance(model.lift.dim)
    report = CheckReport("model check")

    def evaluation_failures():
        for s in grid:
            if model.pi(s, LinComb.term(EMPTY_FOREST), grid[0]) != 1:
                yield f"Pi_s 1 != 1 at s={s}"

    def translation_failures():
        for s in grid:
            for u in grid:
                for t in grid:
                    for b in basis:
                        if model.pi(u, model.gamma_row(u, s, b), t) != model.pi(s, LinComb.term(b), t):
                            yield f"Pi_u Gamma_us != Pi_s at (s,u,t)=({s},{u},{t}), {b}"
                            return

    def cocycle_failures():
        for s in grid:
            for u in grid:
                for t in grid:
                    g_su = model.gamma_st(s, u)
                    for b in basis:
                        if g_su(model.gamma_row(u, t, b)) != model.gamma_row(s, t, b):
                            yield f"cocycle fails at ({s},{u},{t}) on {b}"
                            return

    def intertwining_failures():
        for s in grid:
            for t in grid:
                for b in basis:
                    lhs = ck.coproduct(model.gamma_row(s, t, b))
                    rhs = TensorComb.linear(ck_coproduct(b), lambda lr: TensorComb.of(
                        model.gamma_row(s, t, lr[0]), LinComb.term(lr[1])))
                    if lhs != rhs:
                        yield f"intertwining fails at ({s},{t}) on {b}"
                        return

    def grading_failures():
        for s in grid:
            for t in grid:
                for b in basis:
                    delta = model.gamma_row(s, t, b) - LinComb.term(b)
                    if any(b2.grade >= b.grade for b2 in delta.support() if b.grade > 0):
                        yield f"Gamma does not lower grade at ({s},{t}) on {b}"
                        return

    report.run("unit-evaluation", evaluation_failures())
    report.run("evaluation-translation", translation_failures())
    report.run("cocycle", cocycle_failures())
    report.run("coproduct-intertwining", intertwining_failures())
    report.run("grade-lowering", grading_failures())
    return report


MODEL_GRID = GRID[::2]
_small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def broken_lifts(draw):
    """The branched lift of PATH at level 2 or 3 with the value on one window
    s != t of MODEL_GRID swapped for that of a random second path (group-like, so
    Chen breaks), or moved off the group by a single node."""
    level = draw(st.sampled_from((2, 3)))
    other = branched_lift_fn(PiecewiseLinearPath.from_knots(
        [(0, (0, 0)), (Fraction(1, 2), (draw(_small), draw(_small))),
         (1, (draw(_small), draw(_small)))]), level)
    window = tuple(draw(st.permutations(MODEL_GRID))[:2])
    off_group = draw(st.integers(0, 4)) == 0
    base = branched_lift_fn(PATH, level)

    def evaluate(s, t):
        if (s, t) != window:
            return base.eval(s, t)
        if off_group:
            elt = base.eval(s, t)
            return TruncatedElement(elt.value + LinComb.term(dot2), level, elt.algebra)
        return other.eval(s, t)

    return RoughLift("branched", 2, level, evaluate)


def _outcome(check, lift, max_grade):
    try:
        return check(model_from_lift(lift, Fraction(3, 10)), MODEL_GRID, max_grade).to_json()
    except ModelError as exc:
        return {"error": str(exc)}


class TestIntegerModelCheck:
    @given(st.integers(0, len(GRID) - 1), st.integers(0, len(GRID) - 1))
    @settings(max_examples=25, deadline=None)
    def test_integer_rows_match_gamma_row_and_struct_action(self, i, j):
        X, row = _gamma_table(LIFT, GRID)
        model = model_from_lift(LIFT, Fraction(3, 10))
        s, t = GRID[i], GRID[j]
        g = model.character(t, s)
        for b in forests_up_to(2, 3):
            back = LinComb.from_nums(dict(row(i, j, b)), X[j][i].den)
            assert back == model.gamma_row(s, t, b) == struct_action(g, LinComb.term(b), "left")

    @given(broken_lifts(), st.sampled_from((None, 1, 2, 3, 4)))
    @settings(max_examples=25, deadline=None)
    def test_reports_match_the_lincomb_reference(self, lift, max_grade):
        assert _outcome(check_model, lift, max_grade) == _outcome(
            reference_check_model, lift, max_grade)

    def test_model_caches_not_read(self):
        model = model_from_lift(LIFT, Fraction(3, 10))
        assert check_model(model, GRID[:3]).passed
        assert model._characters == {} and model._gamma_rows == {}

    def test_float_lift_value_refused_by_name(self):
        base = branched_lift_fn(PATH, 2)

        def evaluate(s, t):
            elt = base.eval(s, t)
            if (s, t) == (Fraction(1, 4), Fraction(3, 4)):
                return TruncatedElement(elt.value.scale(1.0), 2, elt.algebra)
            return elt

        model = model_from_lift(RoughLift("branched", 2, 2, evaluate), Fraction(3, 10))
        # the value cannot even be built: a float is not a scalar
        with pytest.raises(TypeError, match="not an exact scalar: 1.0"):
            check_model(model, GRID)


class TestModelWitnesses:
    """Witnesses that no lift reaches: check_model refuses a value off the
    group, a group-like value has counit 1, so every Gamma row keeps its
    forest once, and the rows of any character intertwine the coproduct
    because it is coassociative."""

    def test_unit_evaluation(self):
        # a value of counit 2 is off the group, and the laws that read Gamma
        # refuse it, so only a check of no basis element reports it
        base = branched_lift_fn(PATH, 2)

        def evaluate(s, t):
            elt = base.eval(s, t)
            if (s, t) == (GRID[1], GRID[0]):
                return TruncatedElement(elt.value + LinComb.term(EMPTY_FOREST), 2, elt.algebra)
            return elt

        model = model_from_lift(RoughLift("branched", 2, 2, evaluate), Fraction(3, 10))
        report = check_model(model, GRID[:3], max_grade=-1)
        assert {e.law: e.witness for e in report.failures()} == {
            "unit-evaluation": "Pi_s 1 != 1 at s=1/4"}
        with pytest.raises(ModelError, match="characters come from group-like elements"):
            check_model(model, GRID[:3])

    def test_intertwining_and_grade_lowering(self, monkeypatch):
        # the check's Connes-Kreimer coproduct less its 1 (x) [[]_1]_1 term
        from hopfpath import model_rde

        base, tree = ck_instance(2), t(1, t(1)).as_forest()

        def coproduct(b):
            out = base.coproduct_basis(b)
            return out - TensorComb.term(EMPTY_FOREST, b) if b is tree else out

        broken = dataclasses.replace(base, coproduct_basis=coproduct)
        monkeypatch.setattr(model_rde, "ck_instance", lambda d: broken)
        report = check_model(MODEL, GRID[:3])
        failing = {e.law: e.witness for e in report.failures()}
        assert failing["coproduct-intertwining"] == "intertwining fails at (0,0) on [[]_1]_1"
        assert failing["grade-lowering"] == "Gamma does not lower grade at (0,0) on [[]_1]_1"


class TestCompose:
    def test_identity_returns_argument(self):
        Y = LinComb.term(EMPTY_FOREST, Fraction(5)) + LinComb.term(dot1, Fraction(2))
        out = compose_with_function(Y, identity_field(), Fraction(1), Fraction(1, 4))
        assert out == Y

    def test_constant(self):
        Y = LinComb.term(EMPTY_FOREST, Fraction(5)) + LinComb.term(dot1)
        out = compose_with_function(Y, constant_field(Fraction(7)), 1, Fraction(1, 4))
        assert out == LinComb.term(EMPTY_FOREST, Fraction(7))

    def test_square_binomial(self):
        y0 = Fraction(3)
        Y = LinComb.term(EMPTY_FOREST, y0) + LinComb.term(dot1)
        f = polynomial_field(0, 0, 1)
        out = compose_with_function(Y, f, Fraction(3), Fraction(1))
        expected = (
            LinComb.term(EMPTY_FOREST, y0 * y0)
            + LinComb.term(dot1, 2 * y0)
            + LinComb.term(Forest.of(t(1), t(1)))
        )
        assert out == expected

    def test_noise_suffix(self):
        Y = LinComb.term(EMPTY_FOREST, Fraction(1)) + LinComb.term(dot1)
        out = compose_with_function(Y, identity_field(), Fraction(2), Fraction(1), xi=2)
        assert out == LinComb.term(DottedForest(EMPTY_FOREST, 2)) + LinComb.term(
            DottedForest(dot1, 2)
        )

    def test_insufficient_derivatives(self):
        from hopfpath.model_rde import ScalarField

        f = ScalarField([lambda y: y * y, lambda y: 2 * y], name="f")
        Y = LinComb.term(EMPTY_FOREST, Fraction(1)) + LinComb.term(dot1)
        with pytest.raises(ModelError):
            compose_with_function(Y, f, Fraction(3), Fraction(1))

    def test_sector_enforced(self):
        with pytest.raises(SectorError):
            compose_with_function(
                LinComb.term(Forest.of(t(1), t(1))), identity_field(), 1, Fraction(1, 2)
            )


class TestPicard:
    def test_constant_field_exact(self):
        vf = VectorField.from_spec("const:1", 1)
        sol = picard_solve(LINE, vf, Fraction(2), Fraction(3, 10), 3, Fraction(1, 7))
        assert sol[-1] == (Fraction(1), Fraction(3))
        for tt, y in sol:
            assert y == 2 + tt

    def test_exponential_benchmark_coarse(self):
        vf = VectorField.from_spec("linear", 1)
        sol = picard_solve(LINE, vf, Fraction(1), Fraction(3, 10), 4, Fraction(1, 25))
        err = abs(float(sol[-1][1]) - math.e) / math.e
        assert err < 1e-6

    def test_error_halving_rate(self):
        vf = VectorField.from_spec("linear", 1)
        errs = []
        for h in (Fraction(1, 20), Fraction(1, 40)):
            sol = picard_solve(LINE, vf, Fraction(1), Fraction(3, 10), 4, h)
            errs.append(abs(float(sol[-1][1]) - math.e) / math.e)
        assert errs[0] / errs[1] >= 8

    def test_square_field_against_closed_form(self):
        # dy = y^2 dt, y0 = 1/2: y(t) = y0 / (1 - y0 t)
        vf = VectorField.from_spec("poly:0,0,1", 1)
        sol = picard_solve(LINE, vf, Fraction(1, 2), Fraction(3, 10), 4, Fraction(1, 50))
        want = 0.5 / (1 - 0.5)
        assert abs(float(sol[-1][1]) - want) / want < 1e-7

    def test_sine_field_runs_in_float(self):
        vf = VectorField.uniform(sine_field(), 1)
        sol = picard_solve(LINE, vf, 0.5, Fraction(3, 10), 3, Fraction(1, 20))
        # dy = sin(y) dt has solution 2*atan(exp(t) * tan(y0/2))
        want = 2 * math.atan(math.exp(1.0) * math.tan(0.25))
        assert abs(sol[-1][1] - want) < 1e-4

    def test_two_driver_components(self):
        path = PiecewiseLinearPath.from_knots([(0, (0, 0)), (1, (1, Fraction(1, 2)))])
        vf = VectorField.from_spec("const:1", 2)
        sol = picard_solve(path, vf, Fraction(0), Fraction(3, 10), 3, Fraction(1, 10))
        assert sol[-1][1] == Fraction(3, 2)

    def test_derivative_shortfall(self):
        from hopfpath.model_rde import ScalarField

        f = ScalarField([lambda y: y * y], name="f")
        with pytest.raises(ModelError):
            picard_solve(LINE, VectorField((f,)), Fraction(1), Fraction(3, 10), 4, Fraction(1, 10))

    def test_nonfinite_detected(self):
        vf = VectorField.from_spec("poly:0,0,1", 1)
        with pytest.raises(ModelError):
            picard_solve(LINE, vf, 1e200, Fraction(3, 10), 3, Fraction(1, 4))

    def test_step_greater_than_span(self):
        vf = VectorField.from_spec("const:1", 1)
        sol = picard_solve(LINE, vf, Fraction(0), Fraction(3, 10), 3, Fraction(5))
        assert sol == [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]

    def test_end_time_past_last_knot_rejected(self):
        vf = VectorField.from_spec("const:1", 1)
        with pytest.raises(ValueError, match="past the last knot"):
            picard_solve(LINE, vf, Fraction(0), Fraction(3, 10), 3, Fraction(1, 2), T=2)
        sol = picard_solve(LINE, vf, Fraction(0), Fraction(3, 10), 3, Fraction(1, 2), T=1)
        assert sol[-1] == (Fraction(1), Fraction(1))

    @pytest.mark.parametrize("T", [float("inf"), float("-inf"), float("nan")])
    def test_a_non_finite_end_time_is_refused_by_name(self, T):
        vf = VectorField.from_spec("const:1", 1)
        with pytest.raises(ValueError) as info:
            picard_solve(LINE, vf, Fraction(0), Fraction(3, 10), 3, Fraction(1, 2), T=T)
        assert type(info.value) is ValueError
        assert str(info.value) == f"cannot convert {T!r} to an exact time/value"

    def test_a_lift_the_solve_cannot_use_is_refused(self):
        vf = VectorField.from_spec("linear", 1)
        want = Fraction(44521, 16384)  # level 4, h = 1/2 on the unit line
        assert picard_solve(LINE, vf, Fraction(1), Fraction(1, 5), 4, Fraction(1, 2))[-1][1] == want
        plane = PiecewiseLinearPath.from_knots([(0, (0, 0)), (1, (1, 1))])
        for lift in (signature_lift(LINE, 4),  # the wrong flavor
                     branched_lift_fn(LINE, 2),  # below the solve's level
                     branched_lift_fn(plane, 4)):  # the wrong dimension
            with pytest.raises(ValueError, match="needs a branched lift of dim 1 and level >= 4"):
                picard_solve(LINE, vf, Fraction(1), Fraction(1, 5), 4, Fraction(1, 2), lift=lift)
        # a lift above the level serves the solve
        sol = picard_solve(LINE, vf, Fraction(1), Fraction(1, 5), 4, Fraction(1, 2),
                           lift=branched_lift_fn(LINE, 5))
        assert sol[-1][1] == want

    def test_blow_up_keeps_the_samples_so_far(self):
        vf = VectorField.from_spec("poly:0,0,1", 1)
        with pytest.raises(ModelError, match="non-finite state at t=1.0") as info:
            picard_solve(LINE, vf, Fraction(2), Fraction(3, 10), 3, Fraction(1, 10))
        samples = info.value.samples
        assert [tt for tt, _ in samples] == [Fraction(k, 10) for k in range(10)]
        assert samples == picard_solve(
            LINE, vf, Fraction(2), Fraction(3, 10), 3, Fraction(1, 10), T=Fraction(9, 10)
        )

    def test_errors_before_the_first_step_carry_no_samples(self):
        from hopfpath.model_rde import ScalarField

        f = ScalarField([lambda y: y * y], name="f")
        with pytest.raises(ModelError) as info:
            picard_solve(LINE, VectorField((f,)), Fraction(1), Fraction(3, 10), 4, Fraction(1, 10))
        assert list(info.value.samples) == []

    def test_spec_parsing(self):
        assert VectorField.from_spec("const:3", 2).components[0](10) == 3
        assert VectorField.from_spec("poly:1,2", 1).components[0](Fraction(1, 2)) == 2
        with pytest.raises(ValueError):
            VectorField.from_spec("cubic", 1)


@st.composite
def picard_cases(draw, states=None):
    """A field of every spec kind, d in 1..3, level in 1..5, and a state drawn
    from ``states`` (default: an exact or float one)."""
    value = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    kind = draw(st.sampled_from(("linear", "sin", "const", "poly")))
    if kind == "const":
        spec = f"const:{draw(value)}"
    elif kind == "poly":
        spec = "poly:" + ",".join(str(c) for c in draw(st.lists(value, min_size=1, max_size=4)))
    else:
        spec = kind
    d = draw(st.integers(min_value=1, max_value=3))
    level = draw(st.integers(min_value=1, max_value=5))
    if states is None:
        states = value | st.floats(min_value=-3, max_value=3, allow_subnormal=False)
    return VectorField.from_spec(spec, d), level, draw(states)


# states of more than 10^4 bits in numerator and denominator alike
huge_states = st.builds(
    lambda sign, k, j: Fraction(sign * (2**10100 + k), 3**6400 + 2 * j),
    st.sampled_from((-1, 1)), st.integers(0, 2**64), st.integers(0, 2**64),
)


@st.composite
def lift_windows(draw, d: int, level: int, value=None):
    """The branched lift at ``level`` of a random exact path in dimension d,
    with knot values drawn from ``value``, evaluated on a random exact window
    s < t inside it."""
    if value is None:
        value = st.fractions(min_value=-2, max_value=2, max_denominator=5)
    inner = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12),
                          max_size=3, unique=True))
    times = sorted({Fraction(0), Fraction(1), *inner})
    path = PiecewiseLinearPath.from_knots(
        [(u, tuple(draw(value) for _ in range(d))) for u in times]
    )
    s, t = sorted(draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=20),
                                min_size=2, max_size=2, unique=True)))
    return branched_lift_fn(path, level).eval(s, t)


def fraction_step(field, y, level, elt):
    """The Picard step as a chain of Fraction (or float) products and sums."""
    coeffs = _picard_step_coefficients(field, y, level)
    return sum(c * elt.coeff(f) for f, c in coeffs.items())


def reference_solve(path, field, y0, gamma, level, step, lift):
    """picard_solve with every step taken by ``fraction_step``."""
    s, y = path.times[0], y0
    samples = [(s, y)]
    while s < path.times[-1]:
        t = min(s + step, path.times[-1])
        y = _demote_if_huge(fraction_step(field, y, level, lift.eval(s, t)))
        samples.append((t, y))
        s = t
    return samples


def accum(acc: dict, key, value):
    """Add value to acc[key] in place, dropping the key when the sum is zero."""
    acc[key] = acc.get(key, 0) + value
    if not acc[key]:
        del acc[key]


def form(elt) -> tuple:
    """A lift value's integer numerators and denominator."""
    return elt.value.nums, elt.value.den


def picard_image(field, coeffs: dict, level: int) -> dict:
    """y 1 + sum_i I(f_i(Y) Xi_i), Y being coeffs cut at grade level - 1, on
    plain dicts of Fractions or floats: ``compose_with_function`` and
    ``abstract_integration`` with the arithmetic of their LinComb loops."""
    y = coeffs[EMPTY_FOREST]
    pure = {f: c for f, c in coeffs.items() if 0 < f.grade < level}
    image = {EMPTY_FOREST: y}
    for i, comp in enumerate(field.components, start=1):
        series, power = {}, {EMPTY_FOREST: 1}
        accum(series, EMPTY_FOREST, comp.derivative(0)(y))
        for n in range(1, level + 1):
            product = {}
            for f1, c1 in power.items():
                for f2, c2 in pure.items():
                    if f1.grade + f2.grade < level:
                        accum(product, f1.mul(f2), c1 * c2)
            power = product
            if not power:
                break
            weight = comp.derivative(n)(y) * Fraction(1, math.factorial(n))
            for f, c in power.items():
                accum(series, f, c * weight)
        for f, c in series.items():
            accum(image, f.graft(i).as_forest(), c)
    return image


def same_samples(got, want) -> bool:
    """Equal times, and states equal in type and value (floats to the bit)."""
    def key(sample):
        t, y = sample
        return t, type(y), y.hex() if isinstance(y, float) else y

    return [key(u) for u in got] == [key(u) for u in want]


class TestStepCoefficients:
    @given(picard_cases())
    # a float state whose tree coefficients are subnormal, where the relative
    # tolerance alone fails on the last bits those coefficients keep
    @example((VectorField.from_spec("poly:0,1,1", 2), 5, 6.401010878424147e-107))
    @settings(max_examples=80, deadline=None)
    def test_step_is_the_picard_fixed_point(self, case):
        # Y = y 1 + sum_i I(f_i(Y) Xi_i), with f_i(Y) taken to grade level - 1;
        # Y past that grade cannot reach it, so compose on the truncation
        field, level, y = case
        coeffs = _picard_step_coefficients(field, y, level)
        assert all(f == EMPTY_FOREST or f.tree_count() == 1 for f in coeffs)
        assert coeffs[EMPTY_FOREST] == y
        assert all(c != 0 for f, c in coeffs.items() if f != EMPTY_FOREST)
        if not isinstance(y, float) and all(f.coeffs is not None for f in field.components):
            # exact derivatives: the model-space maps themselves, on LinCombs
            Y = LinComb(coeffs)
            low = Y.truncate(level - 1)
            image = LinComb.term(EMPTY_FOREST, y)
            for i, f in enumerate(field.components, start=1):
                image = image + abstract_integration(compose_with_function(low, f, level, 1, xi=i))
            assert image == Y and picard_image(field, coeffs, level) == coeffs
        else:
            image = picard_image(field, coeffs, level)
            for b in set(image) | set(coeffs):
                assert math.isclose(
                    image.get(b, 0), coeffs.get(b, 0), rel_tol=1e-12, abs_tol=sys.float_info.min
                )

    def test_ladder_coefficients_of_the_linear_field(self):
        y = Fraction(5, 3)
        coeffs = _picard_step_coefficients(VectorField.from_spec("linear", 1), y, 4)
        ladders = [EMPTY_FOREST]
        for _ in range(4):
            ladders.append(ladders[-1].graft(1).as_forest())
        assert coeffs == {f: y for f in ladders}

    def test_multiplicity_factorials(self):
        # f = y^2: c([]) = y^2, c([[] []]) = f''(y) c([])^2 / 2! = y^4
        y = Fraction(2, 3)
        coeffs = _picard_step_coefficients(VectorField.from_spec("poly:0,0,1", 1), y, 3)
        assert coeffs[t(1).as_forest()] == y**2
        assert coeffs[t(1, t(1)).as_forest()] == 2 * y * y**2
        assert coeffs[t(1, t(1), t(1)).as_forest()] == y**4


def assert_reduced_equal(got, want):
    """got is the Fraction want, built with coprime terms and a positive denominator."""
    assert type(got) is Fraction and type(want) is Fraction and got == want
    assert math.gcd(got.numerator, got.denominator) == 1 and got.denominator > 0


class TestExactStep:
    """The steps against the Fraction chain: ``_step_function``, which takes
    every field, and ``_exact_step`` of ``_step_polynomial`` for the const,
    linear and poly fields at an exact state."""

    @staticmethod
    def check(field, y, level, elt):
        nums, den = form(elt)
        want = fraction_step(field, y, level, elt)
        # the same type and value: a Fraction for an exact state and field
        assert same_samples([(0, _step_function(field, level)(y, nums, den))], [(0, want)])
        plan = _polynomial_plan(field, level)
        assert (plan is None) == (field.components[0].name == "sin")
        if plan is not None and not isinstance(y, float):
            assert_reduced_equal(_exact_step(_step_polynomial(plan, nums), plan[0] * den, y), want)

    @given(picard_cases(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_the_fraction_sum(self, case, data):
        field, level, y = case
        self.check(field, y, level, data.draw(lift_windows(field.dim, level)))

    @given(picard_cases(st.integers(-5, 5) | huge_states), st.data())
    @settings(max_examples=40, deadline=None)
    def test_int_and_huge_states(self, case, data):
        field, level, y = case
        if isinstance(y, Fraction):
            assert min(y.numerator.bit_length(), y.denominator.bit_length()) >= 10**4
        level = min(level, 3)  # keeps the Fraction reference fast on 10^4-bit states
        self.check(field, y, level, data.draw(lift_windows(field.dim, level)))

    def test_float_state_and_float_derivative_keep_todays_samples(self):
        square = VectorField.from_spec("poly:0,0,1", 1)
        lift = branched_lift_fn(LINE, 4)
        # a float state from the start
        got = picard_solve(LINE, square, 0.5, Fraction(3, 10), 4, Fraction(1, 20))
        want = reference_solve(LINE, square, 0.5, Fraction(3, 10), 4, Fraction(1, 20), lift)
        assert same_samples(got, want) and isinstance(got[-1][1], float)
        # float derivatives at an exact state: sin, and a table field with one float entry
        table = ScalarField(
            [lambda y: y * y, lambda y: 2 * y, lambda y: 2.0, lambda y: 0], name="half-float"
        )
        for field in (VectorField.from_spec("sin", 1), VectorField((table,))):
            got = picard_solve(LINE, field, Fraction(1, 2), Fraction(3, 10), 4, Fraction(1, 20))
            want = reference_solve(LINE, field, Fraction(1, 2), Fraction(3, 10), 4,
                                   Fraction(1, 20), lift)
            assert same_samples(got, want) and isinstance(got[1][1], float)

    def test_exact_solves_match_the_fraction_chain(self):
        # 1 + y^2 from 0: c([.]) = f'(0) c(.) = 0, while its parent [[.] .] has f''(0) != 0
        cases = (("linear", 1), ("poly:1,-1/2,1/3", Fraction(1, 3)), ("const:2/3", 0),
                 ("poly:1,0,1", 0))
        for spec, y0 in cases:
            field = VectorField.from_spec(spec, 1)
            got = picard_solve(LINE, field, y0, Fraction(3, 10), 4, Fraction(1, 8))
            want = reference_solve(LINE, field, y0, Fraction(3, 10), 4, Fraction(1, 8),
                                   branched_lift_fn(LINE, 4))
            assert same_samples(got, want)

    def test_an_exact_field_with_no_polynomial_takes_the_fraction_chain(self):
        # f(y) = 1/(1+y) as a table of exact derivatives (-1)^n n! / (1+y)^(n+1)
        table = [lambda y, n=n: Fraction((-1) ** n * math.factorial(n)) / (1 + y) ** (n + 1)
                 for n in range(4)]
        field = VectorField((ScalarField(table, name="1/(1+y)"),))
        assert _polynomial_plan(field, 4) is None
        path = PiecewiseLinearPath.from_knots([(0, (0,)), (Fraction(1, 2), (Fraction(1, 3),)),
                                               (1, (Fraction(-1, 4),))])
        # three steps, the middle one across the knot; the state gains about
        # eightfold bits per step, and the last stays below the bit cap
        got = picard_solve(path, field, Fraction(1, 2), Fraction(1, 4), 4, Fraction(1, 3))
        want = reference_solve(path, field, Fraction(1, 2), Fraction(1, 4), 4, Fraction(1, 3),
                               branched_lift_fn(path, 4))
        assert len(got) == 4 and same_samples(got, want)
        assert all(type(y) is Fraction for _, y in got)

    def test_exact_to_float_switch(self):
        # y' = y^2 from 1/2: five exact states, then the first past the bit cap
        # becomes the float nearest to it, and the solve goes on in floats
        square = VectorField.from_spec("poly:0,0,1", 1)
        sol = picard_solve(LINE, square, Fraction(1, 2), Fraction(3, 10), 4, Fraction(1, 100))
        states = [y for _, y in sol[1:6]]
        assert all(type(y) is Fraction for y in states)
        assert [y.numerator.bit_length() + y.denominator.bit_length() for y in states] == [
            63, 369, 1897, 9541, 47761
        ]
        assert sol[6] == (Fraction(3, 50), 0.5154639175153405)
        assert type(sol[6][1]) is float
        assert all(type(y) is float for _, y in sol[6:])


@st.composite
def polynomial_cases(draw, states, max_level=5):
    """A const, linear or poly field with Fraction coefficients, d in 1..3,
    level in 1..max_level, a state drawn from ``states``, and a lift window
    of a random path or, with some draws, of a constant one (zero increments:
    the value is the unit)."""
    value = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    kind = draw(st.sampled_from(("const", "linear", "poly")))
    if kind == "const":
        field = constant_field(draw(value))
    elif kind == "linear":
        field = identity_field()
    else:
        field = polynomial_field(*draw(st.lists(value, min_size=1, max_size=4)))
    d = draw(st.integers(min_value=1, max_value=3))
    level = draw(st.integers(min_value=1, max_value=max_level))
    still = st.just(Fraction(draw(st.integers(-2, 2))))
    elt = draw(lift_windows(d, level, still) if draw(st.booleans()) else lift_windows(d, level))
    return VectorField.uniform(field, d), level, draw(states), elt


# states p / (2^a 5^b), as the square solve's states are, p of 10^4 bits; a
# small a leaves q's power of 2 a divisor of a_K for many fields and windows
decimal_states = st.builds(
    lambda sign, k, a, b: Fraction(sign * (3**6400 + 2 * k), 2**a * 5**b),
    st.sampled_from((-1, 1)), st.integers(0, 2**64),
    st.integers(0, 8) | st.integers(4000, 5000), st.integers(4000, 5000),
)


class TestPolynomialStep:
    """``_exact_step`` of ``_step_polynomial`` against the Fraction chain, and
    the gcd identity it reduces with."""

    @staticmethod
    def check(field, level, y, elt):
        nums, den = form(elt)
        plan = _polynomial_plan(field, level)
        got = _exact_step(_step_polynomial(plan, nums), plan[0] * den, y)
        assert_reduced_equal(got, fraction_step(field, y, level, elt))

    @given(polynomial_cases(st.integers(-5, 5) | st.fractions(-3, 3, max_denominator=50)))
    @settings(max_examples=80, deadline=None)
    def test_int_and_small_states(self, case):
        self.check(*case)

    @given(polynomial_cases(decimal_states | huge_states, max_level=3))
    @settings(max_examples=40, deadline=None)
    def test_huge_states_sharing_primes_with_the_top_coefficient(self, case):
        self.check(*case)

    def test_state_twos_against_the_top_coefficient(self):
        # y' = y^2 over (0, 1/2) at level 4 has a_5 = 48 = 2^4 * 3: states over
        # 2^i 5^4000 for i <= 4 have q's power of 2 dividing a_K, and i > 4 not
        field = VectorField.from_spec("poly:0,0,1", 1)
        elt = branched_lift_fn(LINE, 4).eval(0, Fraction(1, 2))
        for i in range(7):
            for p in (3**6400 + 2, -(3**6400) - 2, 3):
                self.check(field, 4, Fraction(p, 2**i * 5**4000), elt)

    def test_a_step_to_zero_from_a_fraction(self):
        # 1/2 - 1/2 over the unit line: M = 0, and the gcd is the whole denominator
        field = VectorField.from_spec("const:-1/2", 1)
        self.check(field, 2, Fraction(1, 2), branched_lift_fn(LINE, 2).eval(0, 1))

    def test_whole_solves_match_the_fraction_chain(self):
        # the square solve leaves exact arithmetic at t = 3/50; the cubic has
        # Fraction coefficients; the exact line solve stays exact throughout
        cubic = polynomial_field(Fraction(1, 2), Fraction(-1, 3), 0, Fraction(-2, 7))
        cases = ((VectorField.from_spec("poly:0,0,1", 1), Fraction(1, 2), Fraction(1, 100)),
                 (VectorField((cubic,)), Fraction(1, 3), Fraction(1, 20)),
                 (VectorField.from_spec("linear", 1), Fraction(1), Fraction(1, 400)))
        lift = branched_lift_fn(LINE, 4)
        for field, y0, h in cases:
            got = picard_solve(LINE, field, y0, Fraction(3, 10), 4, h)
            want = reference_solve(LINE, field, y0, Fraction(3, 10), 4, h, lift)
            assert same_samples(got, want)
        assert type(got[-1][1]) is Fraction
        square = picard_solve(LINE, cases[0][0], Fraction(1, 2), Fraction(3, 10), 4,
                              Fraction(1, 100))
        assert [type(y) for _, y in square[5:7]] == [Fraction, float]

    @given(st.integers(-2**300, 2**300),
           st.builds(lambda i, j, r: 2**i * 5**j * r, st.integers(0, 40), st.integers(0, 40),
                     st.integers(1, 2**64)),
           st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=8),
           st.builds(lambda i, j, r: 2**i * 5**j * r, st.integers(0, 12), st.integers(0, 12),
                     st.integers(-2**20, 2**20).filter(bool)),
           st.integers(1, 10**6), st.integers(1, 10**6))
    @example(1, 2, [-1], 2, 3, 5)  # M = 0: 1/2 is a root of 2y - 1
    @example(-3, 4 * 25, [7, 0, 5], 8, 6, 10)
    @settings(max_examples=200, deadline=None)
    def test_reduction_identity(self, p, q, low, top, C, den):
        # gcd(M, C den q^K) = gcd(M, C den gcd(a_K, q)^K) for coprime p, q and
        # a_K != 0; M = 0 only at a root p/q of A, and then q divides a_K
        q = q if p else 1
        g = math.gcd(p, q)
        while g > 1:
            p //= g
            g = math.gcd(p, q)
        a = low + [top]
        K = len(a) - 1
        M = sum(c * p**j * q ** (K - j) for j, c in enumerate(a))
        assert math.gcd(M, C * den * q**K) == math.gcd(M, C * den * math.gcd(top, q) ** K)

    def test_coprime_fraction(self):
        for n, d in ((0, 1), (3, 4), (-7, 12), (2**200 + 1, 3**150), (-(3**100), 2**90 * 5)):
            got, want = _coprime_fraction(n, d), Fraction(n, d)
            assert type(got) is Fraction and got == want
            assert (got.numerator, got.denominator) == (n, d)
            assert hash(got) == hash(want) and str(got) == str(want)
        if (3, 10) <= sys.version_info[:2] <= (3, 13):
            assert _coprime_fraction is not Fraction  # not the normalising fallback

    def test_fields_carry_their_exact_coefficients(self):
        assert constant_field(Fraction(2, 3)).coeffs == (Fraction(2, 3),)
        assert constant_field(0.5).coeffs is None
        assert identity_field().coeffs == (0, 1)
        assert polynomial_field(1, "1/2").coeffs == (1, Fraction(1, 2))
        assert polynomial_field(1, 0.5).coeffs is None
        assert sine_field().coeffs is None
        assert _polynomial_plan(VectorField((identity_field(), sine_field())), 3) is None
        # a custom exact field keeps the integer-pair step
        table = ScalarField([lambda y: y * y, lambda y: 2 * y, lambda y: 2, lambda y: 0])
        assert table.coeffs is None


def demoted(plan, y, nums, den):
    """The demoted polynomial step, ``_demote_if_huge(_exact_step(...))``, as
    ("exact", the Fraction), ("float", its hex) or ("error", the ModelError's
    text)."""
    try:
        z = _demote_if_huge(_exact_step(_step_polynomial(plan, nums), plan[0] * den, y))
    except ModelError as exc:
        return "error", str(exc)
    return ("float", z.hex()) if type(z) is float else ("exact", z)


def past_cap(plan, y, nums, den):
    """The solver's float for the step, as ("float", its hex), or None where
    the solver takes the exact step."""
    z = _float_past_cap(_step_polynomial(plan, nums), plan[0] * den, y)
    return None if z is None else ("float", z.hex())


# states of 10^3 to 4 10^4 bits: integers, |y| far below and far above 1,
# either sign
wide_states = st.builds(
    lambda sign, p, q, k: Fraction(sign * (p + 2 * k), q),
    st.sampled_from((-1, 1)), st.sampled_from((3**700, 3**6400, 3**12000)),
    st.sampled_from((1, 2**1100 * 5**300, 2**10100 + 1, 7**7000)), st.integers(0, 2**64),
)


class TestFloatPastCap:
    """``_float_past_cap``, the float the solver takes for a polynomial step
    whose exact result is certain to pass the bit cap, against the exact step
    and its demotion: the same float, bit for bit, wherever it gives one."""

    # y' = y (level 1) over (0, 1/2): A(y) = 3y/2, so the step is 3p / 2q
    LINEAR = _polynomial_plan(VectorField.from_spec("linear", 1), 1)
    HALF = form(branched_lift_fn(LINE, 1).eval(0, Fraction(1, 2)))

    @classmethod
    def linear(cls, y):
        """(shortcut, reference) for the step 3y/2."""
        return past_cap(cls.LINEAR, y, *cls.HALF), demoted(cls.LINEAR, y, *cls.HALF)

    @given(polynomial_cases(wide_states, max_level=3))
    @settings(max_examples=60, deadline=None)
    def test_the_float_is_the_demoted_exact_step(self, case):
        field, level, y, elt = case
        plan, (nums, den) = _polynomial_plan(field, level), form(elt)
        got = past_cap(plan, y, nums, den)
        assert got is None or got == demoted(plan, y, nums, den)

    def test_integer_states_take_the_exact_step(self):
        # q = 1: one shift from the smaller bit length keeps q whole
        square = _polynomial_plan(VectorField.from_spec("poly:0,0,1", 1), 4)
        window = form(branched_lift_fn(LINE, 4).eval(0, Fraction(1, 100)))
        for y in (Fraction(2), Fraction(3**20000), Fraction(-(3**20000))):
            assert past_cap(square, y, *window) is None
        assert demoted(square, Fraction(3**20000), *window) == (
            "error", "state overflows the floating range")

    def test_numerator_far_below_and_far_above_the_denominator(self):
        for y in (Fraction(2**40000 + 1, 2**40500 - 1), Fraction(2**40500 + 1, 2**40000 - 1),
                  Fraction(-(2**40000) - 1, 2**40500 - 1), Fraction(3**700, 2**70000 + 1)):
            got, want = self.linear(y)
            assert got is not None and got == want

    def test_states_near_a_root_take_the_exact_step(self):
        # y' = 1 - y (level 1) over (0, h) is y + (1 - y) h, zero at y = -h / (1 - h):
        # the truncated Horner sum holds 0, and a step to within 2^-70000 of 0
        # is -0.0 below the root and 0.0 above it
        plan = _polynomial_plan(VectorField.from_spec("poly:1,-1", 1), 1)
        for h, sign in ((Fraction(1, 2), -1), (Fraction(1, 2**1100), 1)):
            window = form(branched_lift_fn(LINE, 1).eval(0, h))
            y = -h / (1 - h) + sign * Fraction(1, 2**70000 + 1)
            assert past_cap(plan, y, *window) is None
            assert demoted(plan, y, *window) == ("float", "0x0.0p+0" if sign > 0 else "-0x0.0p+0")

    def test_results_next_to_a_rounding_tie_take_the_exact_step(self):
        # 3y/2 within 2^-33000 of 1 + 2^-53, halfway between 1 and the next
        # float, below it (the float is 1) or above it (1 + 2^-52): the
        # truncated state cannot tell.  q keeps low bits all ones, so below
        # the tie the truncated ratio lies past it.
        S, tie = 33000, Fraction(2**53 + 1, 2**53)
        for above in (False, True):
            for k in range(100):
                q = (2**256 - 2**200 + k) * 2**S + 2**S - 1
                p = math.ceil(2 * tie * q / 3) - 1 + above
                if math.gcd(p, q) == 1 and (above or 3 * (p >> S) > 2 * tie * (q >> S)):
                    break
            got, want = self.linear(Fraction(p, q))
            assert got is None and want == ("float", (1 + 2**-52 if above else 1.0).hex())

    def test_results_at_the_cap(self):
        # 3p / 2q with p = 2^m + k prime to 30 and q = 5^14000 has
        # bits(3p) + bits(2q) = m + 2 + bits(q) + 1 bits, and y is about 2^520
        q = 5**14000
        for over, taken in ((0, False), (1, False), (100, True)):
            m = _EXACT_STATE_BITS + over - q.bit_length() - 3
            p = next(2**m + k for k in range(1, 30) if math.gcd(2**m + k, 30) == 1)
            y = Fraction(p, q)
            nums, den = self.HALF
            exact = _exact_step(_step_polynomial(self.LINEAR, nums), self.LINEAR[0] * den, y)
            assert exact.numerator.bit_length() + exact.denominator.bit_length() == (
                _EXACT_STATE_BITS + over)
            got, want = self.linear(y)
            assert want[0] == ("float" if over else "exact")
            assert (got is not None) == taken and (got is None or got == want)

    def test_a_gcd_with_the_lift_denominator_keeps_the_result_exact(self):
        # y' = y (level 1) over (0, 2^-1000) is (2^1000 + 1) y / 2^1000, and a
        # numerator p that 2^1000 divides cancels the window's denominator:
        # M and D together pass the cap by about 1500 bits, the result not
        window = form(branched_lift_fn(LINE, 1).eval(0, Fraction(1, 2**1000)))
        q = 3**20000 + 2
        y = Fraction(2**1000 * (2 ** (_EXACT_STATE_BITS - 1500 - q.bit_length()) + 1), q)
        M, D = (2**1000 + 1) * y.numerator, 2**1000 * y.denominator
        assert M.bit_length() + D.bit_length() > _EXACT_STATE_BITS + 1000
        assert past_cap(self.LINEAR, y, *window) is None
        assert demoted(self.LINEAR, y, *window)[0] == "exact"

    def test_float_overflow_takes_the_exact_step(self):
        got, want = self.linear(Fraction(2**41100 + 1, 2**40000 + 1))
        assert got is None and want == ("error", "state overflows the floating range")

    def test_subnormal_results(self):
        for y in (Fraction(2**40000 + 1, 2**41070 + 1), Fraction(-(2**40000) - 3, 2**41072 + 1)):
            got, want = self.linear(y)
            assert got is not None and got == want
            assert 0 < abs(float.fromhex(got[1])) < sys.float_info.min


class TestPolynomialDerivatives:
    """``polynomial_field``'s derivatives at a float state take float
    weights float(c_k k!/(k-n)!), with the bits of the Fraction expression."""

    @given(st.lists(st.fractions(-5, 5, max_denominator=9) | st.integers(-5, 5)
                    | st.floats(-5, 5), min_size=1, max_size=6),
           st.floats(-1e30, 1e30))
    @settings(max_examples=200, deadline=None)
    def test_float_states_match_the_fraction_expression(self, coeffs, y):
        field = polynomial_field(*coeffs)
        cs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        for n in range(len(cs) + 2):
            want = 0
            for k in range(n, len(cs)):
                fall = 1
                for j in range(k, k - n, -1):
                    fall *= j
                want = want + cs[k] * fall * y ** (k - n)
            got = field.derivative(n)(y)
            assert type(got) is type(want)
            assert got.hex() == want.hex() if type(want) is float else got == want


@st.composite
def solve_cases(draw):
    """A const, sin, linear or quadratic field with small coefficients, d in
    1..2, level in 1..4, an exact or float start, a random exact path on
    [0, 1] with up to 3 inner knots, a step of 1/3 to 1/7, and a lift of one
    of two kinds: the branched lift, or a hand-made lift around its ``eval``
    (no scaled evaluator)."""
    small = st.fractions(min_value=-1, max_value=1, max_denominator=4)
    spec = draw(st.sampled_from(("const", "sin", "linear", "poly")))
    if spec == "const":
        spec = f"const:{draw(small)}"
    elif spec == "poly":
        spec = "poly:" + ",".join(str(draw(small)) for _ in range(3))
    d = draw(st.integers(min_value=1, max_value=2))
    level = draw(st.integers(min_value=1, max_value=4))
    y0 = draw(small | st.floats(min_value=-1, max_value=1, allow_subnormal=False))
    inner = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12),
                          max_size=3, unique=True))
    times = sorted({Fraction(0), Fraction(1), *inner})
    path = PiecewiseLinearPath.from_knots(
        [(u, tuple(draw(small) for _ in range(d))) for u in times]
    )
    step = Fraction(1, draw(st.integers(min_value=3, max_value=7)))
    base = branched_lift_fn(path, level)
    wrapped = draw(st.booleans())
    lift = RoughLift("branched", d, level, base.eval) if wrapped else base
    return path, VectorField.from_spec(spec, d), level, y0, step, lift


class TestScaledSolve:
    """Steps that read the lift as integer numerators over one denominator
    give the samples of steps that read its Fractions."""

    @given(solve_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_fraction_chain(self, case):
        path, field, level, y0, step, lift = case
        gamma = Fraction(1, level + 1)
        try:
            got = picard_solve(path, field, y0, gamma, level, step, lift=lift)
        except ModelError:  # a blow-up; the reference has no such stop
            assume(False)
        want = reference_solve(path, field, y0, gamma, level, step, lift)
        assert same_samples(got, want)

    def test_each_kind_of_step(self):
        # float and exact states; const and sin at exact and float y; both lifts
        path = PiecewiseLinearPath.from_knots(
            [(0, (0, 0)), (Fraction(1, 3), (Fraction(1, 2), Fraction(-1, 4))), (1, (1, 1))]
        )
        base = branched_lift_fn(path, 4)
        lifts = (base, RoughLift("branched", 2, 4, base.eval))
        for spec in ("const:2/3", "sin", "linear", "poly:1,-1/2,1/3"):
            field = VectorField.from_spec(spec, 2)
            for y0 in (Fraction(1, 3), 0.3):
                for lift in lifts:
                    got = picard_solve(path, field, y0, Fraction(3, 10), 4, Fraction(1, 5),
                                       lift=lift)
                    want = reference_solve(path, field, y0, Fraction(3, 10), 4,
                                           Fraction(1, 5), lift)
                    assert same_samples(got, want), (spec, y0)
                    exact = spec != "sin" and isinstance(y0, Fraction)
                    assert type(got[1][1]) is (Fraction if exact else float)

    def test_without_a_scaled_evaluator_the_lift_is_read_once_per_step(self):
        base = branched_lift_fn(LINE, 3)
        calls = []

        def evaluate(s, t):
            calls.append((s, t))
            return base.eval(s, t)

        lift = RoughLift("branched", 1, 3, evaluate)
        sol = picard_solve(LINE, VectorField.from_spec("linear", 1), Fraction(1), Fraction(3, 10),
                           3, Fraction(1, 4), lift=lift)
        assert calls == [(t0, t1) for (t0, _), (t1, _) in zip(sol, sol[1:])]


class TestInvariantRates:
    def test_halving_meets_module_rate(self):
        # halving h must reduce the error by at least 2^(min(N,4) - 0.5)
        vf = VectorField.from_spec("linear", 1)
        errs = []
        for h in (Fraction(1, 50), Fraction(1, 100)):
            sol = picard_solve(LINE, vf, Fraction(1), Fraction(3, 10), 4, h)
            errs.append(abs(float(sol[-1][1]) - math.e) / math.e)
        assert errs[0] / errs[1] >= 2 ** (4 - 0.5)
