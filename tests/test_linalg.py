import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfpath.hopf_core import get_instance
from hopfpath.linalg import (
    Combination,
    KindMismatchError,
    LinComb,
    TensorComb,
    format_lincomb,
    lincomb_to_json,
    nullspace,
    numerators,
    pair,
    pair_tensor,
)
from hopfpath.symbols import MultiIndex, Tree, Word


W = lambda *ls: Word(ls)
dot = Tree(1).as_forest()
dot2 = Tree(2).as_forest()


class TestArithmetic:
    def test_additive_inverse_prunes_zero(self):
        x = LinComb.term(dot) + LinComb.term(dot, -1)
        assert x.is_zero()
        assert x == LinComb.zero()

    def test_scale(self):
        assert LinComb.term(W(1), Fraction(1, 2)).scale(2) == LinComb.term(W(1))

    def test_disjoint_sum(self):
        x = LinComb.term(W(1)) + LinComb.term(W(2))
        assert x.coeff(W(1)) == 1 and x.coeff(W(2)) == 1 and len(x) == 2

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            LinComb.term(W(1)) + LinComb.term(dot)
        with pytest.raises(KindMismatchError):
            LinComb({W(1): 1, dot: 1})

    def test_no_stored_zeros(self):
        x = LinComb({W(1): Fraction(0), W(2): 1})
        assert W(1) not in x.terms

    def test_exact_distributive(self):
        rng = random.Random(2)
        for _ in range(50):
            a = Fraction(rng.randint(-20, 20), rng.randint(1, 11))
            b = Fraction(rng.randint(-20, 20), rng.randint(1, 11))
            x = LinComb.term(W(1), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            assert x.scale(a + b) == x.scale(a) + x.scale(b)

    @pytest.mark.parametrize("make", [
        lambda c: LinComb({W(1): Fraction(1, 2), W(2): c}),
        lambda c: LinComb.term(W(1), c),
        lambda c: TensorComb.term(W(1), dot, c),
        lambda c: LinComb.term(W(1)).scale(c),
        lambda c: c * TensorComb.term(W(1), dot),
        lambda c: LinComb.from_nums({W(1): Fraction(1, 2), W(2): c}),
    ], ids=["LinComb", "LinComb.term", "TensorComb.term", "scale", "rmul", "from_nums"])
    def test_a_float_is_refused_by_name(self, make):
        # exact scalars are the only scalars: a float is neither rounded nor kept
        with pytest.raises(TypeError, match=re.escape("0.1")):
            make(0.1)
        assert make("1/10") == make(Fraction(1, 10))


class TestPairing:
    def test_orthonormal_words(self):
        assert pair(LinComb.term(W(1, 2)), LinComb.term(W(1, 2))) == 1

    def test_orthogonal_across_grades(self):
        lad = Tree(1, dot).as_forest()
        assert pair(LinComb.term(dot), LinComb.term(lad)) == 0

    def test_dual_basis_polynomials(self):
        n = MultiIndex((2, 0))
        assert pair(LinComb.term(n), LinComb.term(n)) == 1
        assert pair(LinComb.term(n), LinComb.term(MultiIndex((1, 1)))) == 0

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            pair(LinComb.term(W(1)), LinComb.term(dot))

    def test_bilinearity_random_exact(self):
        rng = random.Random(0)
        pool = [W(), W(1), W(2), W(1, 2), W(2, 1), W(1, 1)]

        def rand():
            return LinComb(
                {
                    rng.choice(pool): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(3)
                }
            )

        for _ in range(100):
            x, y, z = rand(), rand(), rand()
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert pair(x + y.scale(a), z) == pair(x, z) + a * pair(y, z)
            assert pair(z, x + y.scale(a)) == pair(z, x) + a * pair(z, y)

    def test_positive_definite(self):
        rng = random.Random(1)
        pool = [W(1), W(2), W(1, 2), W(2, 2)]
        for _ in range(50):
            x = LinComb(
                {b: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for b in pool}
            )
            assert pair(x, x) >= 0
            assert (pair(x, x) == 0) == x.is_zero()


class TestTensor:
    def test_outer_and_pairing(self):
        e1, e2 = LinComb.term(W(1)), LinComb.term(W(2))
        t12 = TensorComb.of(e1, e2)
        assert pair_tensor(t12, t12) == 1
        assert pair_tensor(t12, TensorComb.of(e2, e1)) == 0

    def test_bilinear_example(self):
        e1, e2 = LinComb.term(W(1)), LinComb.term(W(2))
        lhs = TensorComb.of(e1 + e2, e1)
        assert pair_tensor(lhs, TensorComb.of(e2, e1)) == 1

    def test_map_slots(self):
        x = TensorComb.term(W(1), W(2))
        flipped = x.flip()
        assert flipped == TensorComb.term(W(2), W(1))

    def test_fold(self):
        x = TensorComb.term(W(1), W(2)) + TensorComb.term(W(2), W(1))
        total = x.fold(lambda l, r: LinComb.term(Word(l.letters + r.letters)))
        assert total == LinComb.term(W(1, 2)) + LinComb.term(W(2, 1))


def _lin(c1, c2):
    return LinComb({W(1): c1, W(2): c2})


def _tensor(c1, c2):
    return TensorComb({(W(1), W(2)): c1, (W(2), W(1)): c2})


@pytest.mark.parametrize("make, cls, text", [
    (_lin, LinComb, "1 + 1/2*2"),
    (_tensor, TensorComb, "1 (x) 2 + 1/2*2 (x) 1"),
])
class TestSharedSemantics:
    """The algebra LinComb and TensorComb have in common behaves alike in both."""

    def test_sum_and_difference_drop_zeros(self, make, cls, text):
        x, y = make(1, Fraction(1, 2)), make(-1, Fraction(1, 2))
        total = x + y
        assert type(total) is cls and len(total) == 1 and total == make(0, 1)
        assert (x - x).is_zero() and type(x - x) is cls and (x - x).terms == {}
        assert x - y == make(2, 0)

    def test_scale_by_zero_is_zero_of_the_class(self, make, cls, text):
        x = make(3, Fraction(-2, 7))
        assert type(x.scale(0)) is cls and x.scale(0) == cls.zero()
        assert 0 * x == cls.zero() and x * 0 == cls.zero()
        assert x.scale(2) == make(6, Fraction(-4, 7)) == 2 * x == x * 2

    def test_negation(self, make, cls, text):
        x = make(3, Fraction(-2, 7))
        assert -x == make(-3, Fraction(2, 7)) and type(-x) is cls
        assert (x + -x).is_zero() and -cls.zero() == cls.zero()

    def test_equality_and_hash(self, make, cls, text):
        x, y = make(1, 2), make(Fraction(2, 2), Fraction(4, 2))
        assert x == y and hash(x) == hash(y)
        assert x != make(1, 3) and x != dict(x.terms)
        assert LinComb.zero() != TensorComb.zero()
        assert make(1, 0) != (TensorComb if cls is LinComb else LinComb).zero()

    def test_immutable(self, make, cls, text):
        x = make(1, 2)
        with pytest.raises(AttributeError):
            x.terms = {}
        with pytest.raises(AttributeError):
            x.other = 1

    def test_iteration_length_and_repr(self, make, cls, text):
        x = make(1, Fraction(1, 2))
        assert len(x) == 2 and dict(iter(x)) == x.terms
        assert repr(x).startswith(f"{cls.__name__}(")
        assert repr(x) == f"{cls.__name__}({x.terms!r})"
        assert str(x) == text and str(cls.zero()) == "0"


class TestTensorPairingKinds:
    def test_left_slot_mismatch(self):
        with pytest.raises(KindMismatchError):
            pair_tensor(TensorComb.term(W(1), W(2)), TensorComb.term(dot, W(2)))

    def test_right_slot_mismatch(self):
        with pytest.raises(KindMismatchError):
            pair_tensor(TensorComb.term(W(1), W(2)), TensorComb.term(W(1), dot))

    def test_zero_pairs_with_anything(self):
        assert pair_tensor(TensorComb.zero(), TensorComb.term(dot, W(2))) == 0


class TestTensorSumKinds:
    """Sums check kinds slot by slot, as pair_tensor does."""

    @pytest.mark.parametrize("op", [TensorComb.__add__, TensorComb.__sub__])
    def test_left_slot_mismatch(self, op):
        with pytest.raises(KindMismatchError):
            op(TensorComb.term(W(1), W(1)), TensorComb.term(dot, dot))
        with pytest.raises(KindMismatchError):
            op(TensorComb.term(W(1), dot), TensorComb.term(dot, dot))

    @pytest.mark.parametrize("op", [TensorComb.__add__, TensorComb.__sub__])
    def test_right_slot_mismatch(self, op):
        with pytest.raises(KindMismatchError):
            op(TensorComb.term(W(1), W(1)), TensorComb.term(W(1), dot))

    def test_construction_checks_each_slot(self):
        with pytest.raises(KindMismatchError):
            TensorComb({(W(1), W(1)): 1, (dot, dot): 1})
        with pytest.raises(KindMismatchError):
            TensorComb({(dot, W(1)): 1, (dot, dot): 1})
        assert len(TensorComb({(dot, W(1)): 1, (dot2, W(2)): 1})) == 2

    def test_slots_of_different_kinds(self):
        x = TensorComb.term(dot, W(1)) + TensorComb.term(dot2, W(2)) - TensorComb.term(dot, W(2))
        assert str(x) == "[]_1 (x) 1 + -1*[]_1 (x) 2 + []_2 (x) 2"

    def test_zero_adds_to_anything(self):
        x = TensorComb.term(dot, W(1))
        assert TensorComb.zero() + x == x == x - TensorComb.zero()


class TestSerialization:
    def test_lincomb_json(self):
        x = LinComb({dot: Fraction(3, 2), dot2: Fraction(-1)})
        assert lincomb_to_json(x) == {"[]_1": "3/2", "[]_2": "-1"}

    def test_tensor_json_separator(self):
        x = TensorComb.term(W(1), W(2), Fraction(1, 3))
        data = lincomb_to_json(x)
        assert data == {"1⊗2": "1/3"}
        json.dumps(data)

    def test_text_format(self):
        x = LinComb({dot: Fraction(3, 2), dot2: Fraction(-1)})
        assert format_lincomb(x) == "3/2*[]_1 + -1*[]_2"


class TestNullspace:
    def test_simple_kernel(self):
        rows = [[Fraction(1), Fraction(1), Fraction(0)]]
        basis = nullspace(rows)
        assert len(basis) == 2
        for v in basis:
            assert sum(r * c for r, c in zip(rows[0], v)) == 0

    def test_full_rank(self):
        rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert nullspace(rows) == []

    def test_random_kernel_vectors_annihilate(self):
        rng = random.Random(5)
        rows = [
            [Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(3)
        ]
        for v in nullspace(rows):
            for row in rows:
                assert sum(r * c for r, c in zip(row, v)) == 0


class TestForestPairing:
    def test_positive_definite_on_forests(self):
        import random as _random
        from fractions import Fraction as _F

        rng = _random.Random(7)
        pool = [
            Tree(1).as_forest(),
            Tree(2).as_forest(),
            Tree(1, Tree(2).as_forest()).as_forest(),
        ]
        for _ in range(30):
            x = LinComb({b: _F(rng.randint(-9, 9), rng.randint(1, 9)) for b in pool})
            assert pair(x, x) >= 0
            assert (pair(x, x) == 0) == x.is_zero()


# ---------------------------------------------------------------------------
# the integer accumulation loop against a plain Fraction reference


def _ref_add(acc: dict, key, value):
    new = acc.get(key, 0) + value
    if new:
        acc[key] = new
    else:
        acc.pop(key, None)


def ref_linear(x, fn) -> dict:
    acc: dict = {}
    for b, c in x:
        for k, c2 in fn(b):
            _ref_add(acc, k, c * c2)
    return acc


def ref_bilinear(x, y, fn, max_grade=None) -> dict:
    acc: dict = {}
    for b1, c1 in x:
        for b2, c2 in y:
            if max_grade is None or b1.grade + b2.grade <= max_grade:
                c = c1 * c2
                for k, c3 in fn(b1, b2):
                    _ref_add(acc, k, c * c3)
    return acc


def exactly(terms: dict) -> list:
    """Keys in order with each value's type and value."""
    return [(k, type(c), c) for k, c in terms.items()]


@st.composite
def operands(draw):
    """An algebra of the five, d in 1..3, a grade bound, and two combinations of
    basis elements up to it, zero or empty among them."""
    name = draw(st.sampled_from(("poly", "shuffle", "concat", "ck", "gl")))
    d = draw(st.integers(min_value=1, max_value=3))
    level = draw(st.integers(min_value=0, max_value=3))
    inst = get_instance(name, d)
    pool = list(inst.basis_up_to(level))
    exact = st.fractions(min_value=-5, max_value=5, max_denominator=12)

    def element():
        keys = draw(st.lists(st.sampled_from(pool), max_size=5, unique=True))
        return LinComb({b: draw(exact) for b in keys})

    return inst, level, element(), element()


class TestAccumulator:
    @given(operands())
    @settings(max_examples=300, deadline=None)
    def test_product_and_coproduct(self, case):
        inst, level, x, y = case
        got = LinComb.bilinear(x, y, inst.product_basis, level)
        assert exactly(got.terms) == exactly(ref_bilinear(x, y, inst.product_basis, level))
        assert exactly(inst.product(x, y).terms) == exactly(
            ref_bilinear(x, y, inst.product_basis)
        )
        assert exactly(inst.coproduct(x).terms) == exactly(ref_linear(x, inst.coproduct_basis))

    @given(operands())
    @settings(max_examples=200, deadline=None)
    def test_scaled_product(self, case):
        # the capped loop and the uncapped one, on integer rows and on a map
        # with Fraction constants: the reference's values in its term order, in
        # canonical form
        inst, level, x, y = case
        assert LinComb(x.terms) == x and math.gcd(x.den, *x.nums.values()) == 1
        halves = lambda a, b: [(k, c * Fraction(1, 2)) for k, c in inst.product_basis(a, b)]
        for fn in (inst.product_basis, inst.product_row, halves):
            for bound in (level, None):
                got = LinComb.bilinear(x, y, fn, bound)
                assert exactly(got.terms) == exactly(ref_bilinear(x, y, fn, bound))
                assert got.den > 0 and math.gcd(got.den, *got.nums.values()) == 1

    @given(operands())
    @settings(max_examples=200, deadline=None)
    def test_scaled_linear(self, case):
        inst, _, x, _ = case
        halves = lambda b: [(k, c * Fraction(1, 2)) for k, c in inst.coproduct_row(b)]
        for fn in (inst.coproduct_row, halves):
            got = TensorComb.linear(x, fn)
            assert exactly(got.terms) == exactly(ref_linear(x, fn))
            assert got.den > 0 and math.gcd(got.den, *got.nums.values()) == 1

    @given(operands())
    @settings(max_examples=200, deadline=None)
    def test_tensor_maps(self, case):
        inst, level, x, y = case
        t = inst.coproduct(x)
        one_third = lambda b: LinComb.term(b, Fraction(b.grade + 1, 3))  # non-integer constants
        assert exactly(TensorComb.of(x, y, level).terms) == exactly(
            ref_bilinear(x, y, lambda l, r: (((l, r), 1),), level)
        )
        assert exactly(t.fold(lambda l, r: inst.product_basis(l, r)).terms) == exactly(
            ref_linear(t, lambda lr: inst.product_basis(*lr))
        )
        assert exactly(t.map_left(one_third).terms) == exactly(
            ref_linear(t, lambda lr: (((l, lr[1]), c) for l, c in one_third(lr[0])))
        )
        assert exactly(t.map_right(inst.antipode_basis).terms) == exactly(
            ref_linear(t, lambda lr: (((lr[0], r), c) for r, c in inst.antipode_basis(lr[1])))
        )
        assert exactly(x.map_basis(one_third).terms) == exactly(ref_linear(x, one_third))
        # non-integral constants give the reference's Fractions, whatever the operands
        tenths = lambda b: LinComb({b: Fraction(b.grade + 1, 10), inst.unit: Fraction(1, 3)})
        assert exactly(x.map_basis(tenths).terms) == exactly(ref_linear(x, tenths))
        assert exactly(LinComb.bilinear(x, y, lambda a, b: tenths(a), level).terms) == exactly(
            ref_bilinear(x, y, lambda a, b: tenths(a), level)
        )

    def test_empty_and_zero_operands(self):
        inst = get_instance("shuffle", 2)
        x = LinComb.term(W(1), Fraction(1, 2)) + LinComb.term(W(2), 3)
        zero = LinComb.zero()
        assert inst.product(x, zero).is_zero() and inst.product(zero, x).is_zero()
        assert inst.coproduct(zero).is_zero() and TensorComb.of(x, zero).is_zero()
        assert TensorComb.linear(zero, inst.coproduct_basis) == TensorComb.zero()
        # a zero coefficient is dropped as the operand is built, so it leaves no key behind
        raw = [(W(1), Fraction(0)), (W(2), Fraction(2, 3))]
        got = LinComb.bilinear(LinComb(dict(raw)), x, inst.product_basis)
        assert exactly(got.terms) == exactly(ref_bilinear(raw, x, inst.product_basis))

    def test_cancellation_drops_and_reinserts_keys(self):
        # the running sum of k hits zero and k comes back at the end
        fn = lambda b: [("k", b), ("m", 1)]
        x = [(1, Fraction(1, 2)), (-1, Fraction(1, 2)), (2, Fraction(1, 3))]
        got = Combination.linear(Combination(dict(x)), fn)
        assert list(got.nums) == ["m", "k"] and exactly(got.terms) == exactly(ref_linear(x, fn))

    @pytest.mark.parametrize("order", ["descending", "interleaved"])
    @pytest.mark.parametrize("mode", ["exact"])
    def test_max_grade_on_unsorted_right_operand(self, order, mode):
        # the bounded loop stops after the last y term that fits, never reorders y
        inst = get_instance("concat", 2)
        ys = {
            "descending": [W(1, 2, 1), W(2, 2, 2), W(1, 1), W(2, 1), W(2), W(1), W()],
            "interleaved": [W(2, 1), W(), W(1, 2, 2), W(1), W(1, 1), W(2, 1, 1), W(2)],
        }[order]
        xs = [W(), W(1, 2), W(2), W(1, 1, 1)]
        scalar = {"exact": lambda i: Fraction(i - 3, i + 2)}[mode]
        x = [(b, scalar(i)) for i, b in enumerate(xs)]
        y = [(b, scalar(i + 5)) for i, b in enumerate(ys)]
        tenths = lambda a, b: [(a.concat(b), Fraction(a.grade + 1, 10)), (b, Fraction(1, 3))]
        for fn in (inst.product_basis, tenths):
            for level in (-1, 0, 1, 2, 3, 4, 6):
                got = LinComb.bilinear(LinComb(dict(x)), LinComb(dict(y)), fn, level)
                assert exactly(got.terms) == exactly(ref_bilinear(x, y, fn, level))

    def test_numerators(self):
        assert numerators([Fraction(1, 2), Fraction(-2, 3), 4]) == ([3, -4, 24], 6)
        assert numerators([]) == ([], 1)


    @given(st.lists(st.tuples(
        st.integers(-4, 4), st.integers(1, 9),
        st.dictionaries(st.sampled_from([W(), W(1), W(2), W(1, 2), W(2, 1)]),
                        st.tuples(st.integers(-5, 5), st.integers(1, 12)), max_size=4),
    ), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_scaled_sum(self, terms):
        # against the LinComb sum of the scaled terms: value, term order and canonical form
        terms = [(Fraction(p, q), LinComb({k: Fraction(*c) for k, c in x.items() if c[0]}))
                 for p, q, x in terms]
        want = LinComb.zero()
        for w, x in terms:
            want = want + x.scale(w)
        got = LinComb.weighted_sum(terms)
        assert list(got) == list(want)
        assert got == LinComb(want.terms)


# ---------------------------------------------------------------------------
# the sparse fraction-free nullspace against dense Gauss-Jordan elimination


def gauss_jordan_nullspace(rows):
    """The dense Fraction Gauss-Jordan nullspace that linalg.nullspace replaced."""
    if not rows:
        return []
    ncols = len(rows[0])
    mat = [list(map(Fraction, row)) for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        basis.append(v)
    return basis


@st.composite
def sparse_matrices(draw):
    ncols = draw(st.integers(min_value=1, max_value=9))
    nonzero = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 8))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), nonzero)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=8))
    if rows and draw(st.booleans()):
        # a combination of two rows makes the matrix rank-deficient
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        k = draw(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))
        rows.append([p + k * q for p, q in zip(a, b)])
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * ncols)
    return rows


class TestSparseNullspace:
    @given(sparse_matrices())
    @settings(max_examples=250, deadline=None)
    def test_matches_gauss_jordan(self, rows):
        want = gauss_jordan_nullspace(rows)
        got = nullspace(rows)
        assert got == want
        assert all(type(c) is Fraction for v in got for c in v)
        # sparse dict rows give the same basis
        sparse = [{j: c for j, c in enumerate(row) if c} for row in rows]
        if rows:
            assert nullspace(sparse, len(rows[0])) == want

    def test_empty_and_zero(self):
        assert nullspace([]) == gauss_jordan_nullspace([]) == []
        zero = [[Fraction(0)] * 3, [Fraction(0)] * 3]
        assert nullspace(zero) == gauss_jordan_nullspace(zero)
        assert len(nullspace(zero)) == 3

    def test_int_and_text_entries(self):
        rows = [[1, 2, "1/2"], [0, "3", 1]]
        assert nullspace(rows) == gauss_jordan_nullspace(rows)


# ---------------------------------------------------------------------------
# the combination type against a dict of Fractions, one per term


WORD_KEYS = [Word(()), W(1), W(2), W(1, 2), W(2, 1), W(1, 1, 2), W(2, 2, 2, 1)]
PAIR_KEYS = [(a, b) for a in WORD_KEYS[:4] for b in WORD_KEYS[:4]]
# small, cancelling and large-denominator coefficients
COEFFS = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**15),
)


@st.composite
def combination_cases(draw):
    """Word or pair keys, three coefficient dicts, the second cancelling some
    of the first's terms, a scalar (zero included) and a grade bound."""
    tensor = draw(st.booleans())
    keys = st.sampled_from(PAIR_KEYS if tensor else WORD_KEYS)
    a = draw(st.dictionaries(keys, COEFFS, max_size=6))
    b = draw(st.dictionaries(keys, COEFFS, max_size=6))
    for k in draw(st.lists(st.sampled_from(sorted(a, key=str)), unique=True)) if a else ():
        b[k] = -a[k]
    c = draw(st.dictionaries(keys, COEFFS, max_size=6))
    return tensor, a, b, c, draw(COEFFS | st.just(Fraction(0))), draw(st.integers(0, 5))


def assert_canonical_form(x):
    """No zero numerator, a positive denominator, content 1."""
    assert type(x.den) is int and x.den > 0
    assert all(type(n) is int and n for n in x.nums.values())
    assert math.gcd(x.den, *x.nums.values()) == 1


def assert_same(got, want):
    """got, a LinComb or TensorComb, reads as the reference want does:
    terms, their order, coefficients, sorted terms, text, JSON and repr."""
    assert_canonical_form(got)
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is Fraction for c in got.terms.values())
    assert list(got) == list(want.terms.items()) and len(got) == len(want.terms)
    for k in (PAIR_KEYS if want.tensor else WORD_KEYS):
        assert (got.coeff(*k) if want.tensor else got.coeff(k)) == want.coeff(k)
    assert got.sorted_terms() == want.sorted_terms()
    for float_mode in (False, True):
        assert format_lincomb(got, float_mode) == want.text(float_mode)
        assert list(lincomb_to_json(got, float_mode).items()) == list(
            want.to_json(float_mode).items())
    assert str(got) == want.text()
    assert repr(got) == f"{type(got).__name__}({want.terms!r})"


class TestCombinationForm:
    """Integer numerators over one denominator read as one Fraction per term."""

    @given(combination_cases())
    @settings(max_examples=300, deadline=None)
    def test_against_the_fraction_dicts(self, case):
        from reference_maps import FractionComb

        tensor, *dicts, s, bound = case
        comb = TensorComb if tensor else LinComb
        (a, b, c), (ra, rb, rc) = ([comb(d) for d in dicts],
                                   [FractionComb(d, tensor) for d in dicts])
        truncate = (lambda x, m: x.truncate_total(m)) if tensor else (lambda x, m: x.truncate(m))
        pairs = [(a, ra), (a + b, ra + rb), (a - b, ra - rb), (-a, -ra),
                 (a.scale(s), ra.scale(s)), (s * (a + b - c), (ra + rb - rc).scale(s)),
                 (truncate(a, bound), ra.truncate(bound)),
                 (truncate(a + b, bound) - c, (ra + rb).truncate(bound) - rc)]
        for got, want in pairs:
            assert_same(got, want)
        # equality is structural, with equal hashes for equal values
        for (x, rx), (y, ry) in itertools.product(pairs, repeat=2):
            assert (x == y) == (rx == ry)
            if x == y:
                assert hash(x) == hash(y)
        assert a + b - b == a and hash(a + b - b) == hash(a)
        assert comb(dict(reversed(list(a.terms.items())))) == a
        assert (a.scale(s) == comb.zero()) == (s == 0 or a.is_zero())

    @given(combination_cases())
    @settings(max_examples=50, deadline=None)
    def test_a_float_raises(self, case):
        tensor, a, *_ = case
        comb = TensorComb if tensor else LinComb
        key = PAIR_KEYS[1] if tensor else W(1)
        for make in (lambda: comb({**a, key: 0.5}), lambda: comb(a).scale(0.5),
                     lambda: comb.from_nums({key: 0.5}), lambda: comb(a) + comb({key: 1.0})):
            with pytest.raises(TypeError, match="not an exact scalar"):
                make()
