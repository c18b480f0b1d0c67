import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfpath.hopf_core import (
    concat_deshuffle_instance,
    get_instance,
    poly_instance,
    shuffle_deconcat_instance,
)
from hopfpath.hopf_ck import ck_instance, gl_instance
from hopfpath.linalg import LinComb, TensorComb
from hopfpath.series import (
    NormConstants,
    TruncatedElement,
    TruncationError,
    bch,
    branched_norm_constants,
    dynkin,
    exp_trunc,
    geo_norm_constants,
    grade_norm,
    group_inverse,
    grouplike_defect,
    homog_norm,
    is_grouplike,
    is_primitive,
    log_trunc,
    primitive_basis,
    right_norm_bracketing,
    trunc_mul,
    trunc_one,
)
from hopfpath.symbols import Forest, Tree, Word, trees, words, words_up_to


W = lambda *ls: Word(ls)


def elem(lin, level, algebra):
    return TruncatedElement.make(lin, level, algebra)


def random_primitive(instance, level, rng, max_terms=2):
    terms = LinComb.zero()
    for k in range(1, level + 1):
        basis = primitive_basis(instance, k)
        for _ in range(min(max_terms, len(basis))):
            coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            terms = terms + rng.choice(basis).scale(coeff)
    return elem(terms, level, instance)


class TestTruncatedProduct:
    def test_concat_level2(self):
        inst = concat_deshuffle_instance(2)
        a = elem(LinComb.term(W()) + LinComb.term(W(1)), 2, inst)
        b = elem(LinComb.term(W()) + LinComb.term(W(2)), 2, inst)
        prod = trunc_mul(a, b)
        expected = (
            LinComb.term(W())
            + LinComb.term(W(1))
            + LinComb.term(W(2))
            + LinComb.term(W(1, 2))
        )
        assert prod.value == expected

    def test_level1_drops_grade2(self):
        inst = concat_deshuffle_instance(2)
        a = elem(LinComb.term(W(1)), 1, inst)
        b = elem(LinComb.term(W(2)), 1, inst)
        assert trunc_mul(a, b).value.is_zero()

    def test_unit_neutral(self):
        inst = gl_instance(2)
        a = elem(LinComb.term(Tree(1).as_forest(), Fraction(2, 3)), 3, inst)
        assert trunc_mul(a, trunc_one(3, inst)) == a

    def test_level_mismatch_rejected(self):
        inst = concat_deshuffle_instance(2)
        with pytest.raises(TruncationError):
            trunc_mul(elem(LinComb.term(W(1)), 1, inst), elem(LinComb.term(W(1)), 2, inst))

    def test_associative_random(self):
        rng = random.Random(0)
        inst = gl_instance(2)
        pool = [Tree(1).as_forest(), Tree(2).as_forest(), Tree(1, Tree(2).as_forest()).as_forest()]
        for _ in range(10):
            xs = [
                elem(
                    LinComb(
                        {rng.choice(pool): Fraction(rng.randint(-4, 4), rng.randint(1, 4))}
                    ),
                    4,
                    inst,
                )
                for _ in range(3)
            ]
            assert trunc_mul(trunc_mul(xs[0], xs[1]), xs[2]) == trunc_mul(
                xs[0], trunc_mul(xs[1], xs[2])
            )


@st.composite
def sparse_elements(draw, counit_free=False):
    """An algebra of the five, d in 1..3, level in 1..4, and two random sparse
    Fraction combinations of basis elements up to that level, with zero,
    negative and large-denominator coefficients."""
    name = draw(st.sampled_from(("poly", "shuffle", "concat", "ck", "gl")))
    d = draw(st.integers(min_value=1, max_value=3))
    level = draw(st.integers(min_value=1, max_value=4))
    inst = get_instance(name, d)
    pool = [b for b in inst.basis_up_to(level) if b.grade or not counit_free]
    coeffs = st.one_of(
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**15),
    )

    def element():
        keys = draw(st.lists(st.sampled_from(pool), max_size=6))
        return LinComb({b: draw(coeffs) for b in keys})

    return inst, level, element(), element()


class TestProductKernel:
    @given(sparse_elements())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_product(self, case):
        inst, level, x, y = case
        got = elem(x, level, inst).mul(elem(y, level, inst)).value
        want = inst.product(x, y, max_grade=level)
        assert list(got) == list(want)
        assert all(type(c) is Fraction for _, c in got)

    @given(sparse_elements(counit_free=True))
    @settings(max_examples=100, deadline=None)
    def test_log_exp_roundtrip(self, case):
        inst, level, x, _ = case
        x = elem(x, level, inst)
        assert log_trunc(exp_trunc(x)) == x

    def test_basis_first_seen_mid_product(self):
        inst = dataclasses.replace(concat_deshuffle_instance(2))
        x = LinComb.term(W(1), Fraction(1, 2)) + LinComb.term(W(2), Fraction(-2, 3))
        y = LinComb.term(W(), 3) + LinComb.term(W(2, 1), Fraction(5, 7))
        got = elem(x, 3, inst).mul(elem(y, 3, inst)).value
        assert got == inst.product(x, y, max_grade=3)
        assert W(1, 2, 1) in got.support()

    def test_replaced_product_gets_own_table(self):
        base = concat_deshuffle_instance(2)
        doubled = dataclasses.replace(
            base, product_basis=lambda u, v: LinComb.term(u.concat(v), 2)
        )
        x = LinComb.term(W(1)) + LinComb.term(W(2))
        assert elem(x, 2, base).mul(elem(x, 2, base)).value == base.product(x, x, max_grade=2)
        got = elem(x, 2, doubled).mul(elem(x, 2, doubled)).value
        assert got == doubled.product(x, x, max_grade=2)

    def test_fractional_structure_constant_multiplies_exactly(self):
        base = concat_deshuffle_instance(2)
        half = dataclasses.replace(
            base, product_basis=lambda u, v: LinComb.term(u.concat(v), Fraction(1, 2))
        )
        x = LinComb.term(W()) + LinComb.term(W(1), Fraction(2, 3))
        y = LinComb.term(W(2), 3) + LinComb.term(W(1, 2), Fraction(-1, 5))
        got = elem(x, 2, half).mul(elem(y, 2, half)).value
        want = half.product(x, y, max_grade=2)
        assert list(got) == list(want)
        assert all(type(c) is Fraction for _, c in got)
        assert got == LinComb({W(2): Fraction(3, 2), W(1, 2): Fraction(9, 10)})



def reference_exp(x):
    """exp as a chain of LinComb products, scalings and sums."""
    acc = power = trunc_one(x.level, x.algebra)
    factorial = 1
    for k in range(1, x.level + 1):
        power = power.mul(x)
        if power.value.is_zero():
            break
        factorial *= k
        acc = acc.add(power.scale(Fraction(1, factorial)))
    return acc


def reference_log(g):
    """log as a chain of LinComb products, scalings and sums."""
    u = g.sub(trunc_one(g.level, g.algebra))
    acc = TruncatedElement(LinComb.zero(), g.level, g.algebra)
    power = trunc_one(g.level, g.algebra)
    for k in range(1, g.level + 1):
        power = power.mul(u)
        if power.value.is_zero():
            break
        acc = acc.add(power.scale(Fraction((-1) ** (k - 1), k)))
    return acc


def same_element(got, want) -> bool:
    """Equal elements with their terms in one order and of one type each."""
    def terms(x):
        return [(b, type(c), c) for b, c in x.value]

    return got == want and terms(got) == terms(want)


class TestScaledSeries:
    """exp and log of exact elements chain their powers as integer numerators
    over one denominator."""

    @given(sparse_elements(counit_free=True))
    @settings(max_examples=100, deadline=None)
    def test_exp_and_log_match_the_lincomb_chain(self, case):
        inst, level, x, y = case
        x = elem(x, level, inst)
        got = exp_trunc(x)
        assert same_element(got, reference_exp(x))
        assert all(type(c) is Fraction for _, c in got.value)
        # log of a group-like, and of 1 + y, which need not be one
        for g in (got, trunc_one(level, inst).add(elem(y, level, inst))):
            assert same_element(log_trunc(g), reference_log(g))

    def test_terms_past_the_level_are_cut_as_products_cut_them(self):
        inst = concat_deshuffle_instance(2)
        x = TruncatedElement(LinComb({W(1): 1, W(1, 2, 1): Fraction(1, 3)}), 2, inst)
        assert same_element(exp_trunc(x), reference_exp(x))
        assert W(1, 2, 1) not in exp_trunc(x).value.terms



class TestExpLog:
    def test_exp_single_letter(self):
        inst = concat_deshuffle_instance(2)
        g = exp_trunc(elem(LinComb.term(W(1)), 2, inst))
        assert g.value == LinComb.term(W()) + LinComb.term(W(1)) + LinComb.term(
            W(1, 1), Fraction(1, 2)
        )

    def test_preconditions(self):
        inst = concat_deshuffle_instance(2)
        with pytest.raises(TruncationError):
            exp_trunc(trunc_one(2, inst))
        with pytest.raises(TruncationError):
            log_trunc(elem(LinComb.term(W(1)), 2, inst))

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_roundtrip_exact_words(self, level):
        rng = random.Random(level)
        inst = concat_deshuffle_instance(2)
        x = random_primitive(inst, min(level, 4), rng)
        x = TruncatedElement.make(x.value, level, inst)
        assert log_trunc(exp_trunc(x)) == x

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_roundtrip_exact_forests(self, level):
        # counit-free but not necessarily primitive: the round trip is level-exact
        rng = random.Random(10 + level)
        inst = gl_instance(2)
        pool = [
            Tree(1).as_forest(),
            Tree(2).as_forest(),
            Tree(1, Tree(2).as_forest()).as_forest(),
            Forest.of(Tree(1), Tree(2)),
        ]
        x = elem(
            LinComb(
                {rng.choice(pool): Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(2)}
            ),
            level,
            inst,
        )
        assert log_trunc(exp_trunc(x)) == x

    def test_roundtrip_ck_and_poly(self):
        rng = random.Random(3)
        from hopfpath.symbols import MultiIndex

        picks = {
            "ck": [Tree(1).as_forest(), Tree(2, Tree(1).as_forest()).as_forest()],
            "poly": [MultiIndex((1, 0)), MultiIndex((1, 2))],
        }
        for inst in (ck_instance(2), poly_instance(2)):
            for level in (3, 5):
                x = elem(
                    LinComb(
                        {
                            rng.choice(picks[inst.name]): Fraction(
                                rng.randint(-5, 5), rng.randint(1, 5)
                            )
                        }
                    ),
                    level,
                    inst,
                )
                assert log_trunc(exp_trunc(x)) == x

    def test_commuting_exponentials_add(self):
        inst = concat_deshuffle_instance(1)
        a, b = Fraction(2, 3), Fraction(-1, 4)
        x = elem(LinComb.term(W(1), a), 4, inst)
        y = elem(LinComb.term(W(1), b), 4, inst)
        z = elem(LinComb.term(W(1), a + b), 4, inst)
        assert trunc_mul(exp_trunc(x), exp_trunc(y)) == exp_trunc(z)


class TestBCH:
    def test_level2_formula(self):
        inst = concat_deshuffle_instance(2)
        x = elem(LinComb.term(W(1)), 2, inst)
        y = elem(LinComb.term(W(2)), 2, inst)
        out = bch(x, y)
        bracket = LinComb.term(W(1, 2)) - LinComb.term(W(2, 1))
        expected = LinComb.term(W(1)) + LinComb.term(W(2)) + bracket.scale(Fraction(1, 2))
        assert out.value == expected

    def test_zero_neutral(self):
        inst = concat_deshuffle_instance(2)
        x = elem(LinComb.term(W(1), Fraction(3, 7)), 3, inst)
        zero = elem(LinComb.zero(), 3, inst)
        assert bch(x, zero) == x

    def test_primitive_at_level3(self):
        inst = concat_deshuffle_instance(2)
        x = elem(LinComb.term(W(1)), 3, inst)
        y = elem(LinComb.term(W(2)), 3, inst)
        ok, defect = is_primitive(bch(x, y))
        assert ok, defect


class TestPrimGrouplike:
    def test_letters_primitive(self):
        inst = concat_deshuffle_instance(2)
        x = elem(LinComb.term(W(1)) + LinComb.term(W(2)), 2, inst)
        assert is_primitive(x)[0]

    def test_exp_of_bracket_grouplike(self):
        inst = concat_deshuffle_instance(2)
        bracket = LinComb.term(W(1, 2)) - LinComb.term(W(2, 1))
        g = exp_trunc(elem(bracket, 3, inst))
        assert is_grouplike(g)[0]

    def test_defect_witness(self):
        inst = shuffle_deconcat_instance(2)
        g = elem(LinComb.term(W()) + LinComb.term(W(1, 2)), 2, inst)
        ok, defect = is_grouplike(g)
        assert not ok
        assert defect == TensorComb.term(W(1), W(2))

    def test_defect_equals_truncated_full_square(self):
        # only pairs within the level are formed, in the order of the full g (x) g
        rng = random.Random(3)
        for inst in (concat_deshuffle_instance(2), gl_instance(2), shuffle_deconcat_instance(2)):
            for level in (2, 3):
                g = exp_trunc(random_primitive(inst, level, rng))
                bent = g.add(elem(LinComb.term(next(iter(inst.basis(level)))), level, inst))
                for h in (g, bent):
                    full = inst.coproduct(h.value) - TensorComb.of(h.value, h.value).truncate_total(
                        level
                    )
                    assert list(grouplike_defect(h).terms.items()) == list(full.terms.items())

    def test_exp_prim_iff_grouplike(self):
        rng = random.Random(8)
        for inst in (concat_deshuffle_instance(2), gl_instance(2), poly_instance(2)):
            for _ in range(10):
                x = random_primitive(inst, 3, rng, max_terms=1)
                assert is_primitive(x)[0]
                assert is_grouplike(exp_trunc(x))[0]

    def test_grouplikes_form_group(self):
        rng = random.Random(21)
        inst = concat_deshuffle_instance(2)
        for _ in range(10):
            g = exp_trunc(random_primitive(inst, 3, rng))
            h = exp_trunc(random_primitive(inst, 3, rng))
            prod = trunc_mul(g, h)
            assert is_grouplike(prod)[0]
            inv = group_inverse(g)
            assert is_grouplike(inv)[0]
            assert trunc_mul(g, inv) == trunc_one(3, inst)
            assert is_primitive(log_trunc(prod))[0]

    def test_primitive_basis_dimensions(self):
        inst = concat_deshuffle_instance(2)
        # free Lie algebra dimensions over two letters: 2, 1, 2, 3
        assert [len(primitive_basis(inst, k)) for k in range(1, 5)] == [2, 1, 2, 3]
        glin = gl_instance(2)
        for k in range(1, 4):
            assert len(primitive_basis(glin, k)) == len(trees(2, k))

    def test_primitives_closed_under_bracket(self):
        rng = random.Random(5)
        inst = concat_deshuffle_instance(2)
        for _ in range(15):
            x = random_primitive(inst, 3, rng)
            y = random_primitive(inst, 3, rng)
            bracket = inst.product(x.value, y.value) - inst.product(y.value, x.value)
            ok, _ = is_primitive(elem(bracket.truncate(3), 3, inst))
            assert ok


class TestPrimitiveBasisMemo:
    def test_mutating_the_result_leaves_the_memo_intact(self):
        inst = dataclasses.replace(concat_deshuffle_instance(2))
        first = primitive_basis(inst, 3)
        want = list(first)
        first.clear()
        again = primitive_basis(inst, 3)
        assert again == want and again is not first
        assert primitive_basis(inst, 3) is not again

    def test_replaced_copy_does_not_read_the_memo(self):
        base = concat_deshuffle_instance(2)
        assert len(primitive_basis(base, 2)) == 1  # the bracket [1, 2]
        # deconcatenation has no primitives above grade one
        copy = dataclasses.replace(
            base, coproduct_basis=shuffle_deconcat_instance(2).coproduct_basis
        )
        assert primitive_basis(copy, 2) == []
        assert len(primitive_basis(base, 2)) == 1

    def test_copy_with_another_basis_does_not_read_the_memo(self):
        base = concat_deshuffle_instance(2)
        assert len(primitive_basis(base, 2)) == 1
        # the first two words of grade two, 11 and 12, span no primitive
        copy = dataclasses.replace(base, basis=lambda k: words(2, k)[:2])
        assert primitive_basis(copy, 2) == []

    def test_same_bases_in_the_same_order_as_before(self):
        # a few bases written out from the dense Gauss-Jordan elimination
        inst = concat_deshuffle_instance(2)
        assert [str(x) for x in primitive_basis(inst, 3)] == [
            "112 + -2*121 + 211",
            "122 + -2*212 + 221",
        ]


class TestDynkin:
    def test_base_cases(self):
        assert dynkin(LinComb.term(W(1))) == LinComb.term(W(1))
        assert right_norm_bracketing(LinComb.term(W(1, 2))) == LinComb.term(
            W(1, 2)
        ) - LinComb.term(W(2, 1))

    def test_convolution_agrees_to_grade_4(self):
        for w in words_up_to(2, 4):
            if w.grade == 0:
                continue
            x = LinComb.term(w)
            assert dynkin(x) == dynkin(x, via_convolution=True)

    def test_grading_action_on_primitive(self):
        bracket = LinComb.term(W(1, 2)) - LinComb.term(W(2, 1))
        assert dynkin(bracket, via_convolution=True) == bracket.scale(2)

    def test_counit_rejected(self):
        with pytest.raises(ValueError):
            dynkin(LinComb.term(W()))


class TestNorms:
    def test_exp_scalar_letter(self):
        inst = concat_deshuffle_instance(1)
        for a in (Fraction(3, 4), Fraction(-2, 5)):
            g = exp_trunc(elem(LinComb.term(W(1), a), 2, inst))
            assert math.isclose(homog_norm(g), abs(float(a)), rel_tol=1e-12)

    def test_unit_norm_zero(self):
        inst = concat_deshuffle_instance(2)
        assert homog_norm(trunc_one(3, inst)) == 0.0

    def test_two_letters_level1(self):
        inst = concat_deshuffle_instance(2)
        g = exp_trunc(elem(LinComb.term(W(1)) + LinComb.term(W(2)), 1, inst))
        assert math.isclose(homog_norm(g), math.sqrt(2), rel_tol=1e-12)

    def test_grade_norm(self):
        x = LinComb.term(W(1), 3) + LinComb.term(W(2), 4) + LinComb.term(W(1, 2), 7)
        assert grade_norm(x, 1) == 5.0
        assert grade_norm(x, 2) == 7.0

    def test_branched_norm_is_tree_sum(self):
        inst = gl_instance(2)
        x = LinComb.term(Tree(1).as_forest(), Fraction(1, 4)) + LinComb.term(
            Tree(2, Tree(1).as_forest()).as_forest(), Fraction(9)
        )
        g = exp_trunc(elem(x, 2, inst))
        assert math.isclose(homog_norm(g), 0.25 + 3.0, rel_tol=1e-12)

    @given(sparse_elements(counit_free=True))
    @settings(max_examples=60, deadline=None)
    def test_one_sort_sums_as_grade_norm(self, case):
        # each grade's slice of log(g) in basis order, as grade_norm sums it
        inst, level, x, _ = case
        assume(inst.name not in ("ck", "gl"))
        g = exp_trunc(elem(x, level, inst))
        log_g, want = log_trunc(g).value, 0.0
        for m in range(1, level + 1):
            want += grade_norm(log_g, m) ** (1.0 / m)
        assert homog_norm(g).hex() == want.hex()

    def test_grade_norm_independent_of_term_order(self):
        # tiny squares vanish when added after 1, not when added before it
        tiny = Fraction(1, 2**27)
        terms = [(W(1), Fraction(1)), *((W(i), tiny) for i in range(2, 9))]
        forward, backward = LinComb(dict(terms)), LinComb(dict(reversed(terms)))
        assert grade_norm(forward, 1) == grade_norm(backward, 1)

    def test_norm_rejects_ck(self):
        inst = ck_instance(2)
        with pytest.raises(TruncationError):
            homog_norm(elem(LinComb.term(Forest()) + LinComb.term(Tree(1).as_forest()), 2, inst))

    def test_norm_rejects_nonunital(self):
        inst = concat_deshuffle_instance(2)
        with pytest.raises(TruncationError):
            homog_norm(elem(LinComb.term(W(1)), 2, inst))


class TestNormEquivalence:
    @staticmethod
    def _check(instance, constants: NormConstants, g, level):
        norm = homog_norm(g)
        sup = 0.0
        for b, c in g.value:
            if b.grade == 0:
                continue
            value = abs(float(c))
            assert value <= constants.upper[b.grade] * norm**b.grade * (1 + 1e-9) + 1e-30
            sup = max(sup, value ** (1.0 / b.grade))
        assert norm <= constants.recovery * sup * (1 + 1e-9) + 1e-30

    def test_geometric_small_battery(self):
        rng = random.Random(13)
        inst = concat_deshuffle_instance(2)
        constants = geo_norm_constants(2, 3)
        for _ in range(50):
            g = exp_trunc(random_primitive(inst, 3, rng))
            self._check(inst, constants, g, 3)

    def test_branched_small_battery(self):
        rng = random.Random(14)
        inst = gl_instance(2)
        constants = branched_norm_constants(2, 3)
        for _ in range(30):
            g = exp_trunc(random_primitive(inst, 3, rng, max_terms=1))
            self._check(inst, constants, g, 3)
