import dataclasses
import functools
import itertools
import json
import math
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfpath.hopf_core import (
    HopfInstance,
    _row,
    check_axioms,
    concat_deshuffle_instance,
    convolution,
    deconcat,
    deshuffle,
    get_instance,
    identity_map,
    poly_instance,
    random_combination,
    rows_of,
    shuffle,
    shuffle_deconcat_instance,
    shuffle_permutations,
    shuffle_tuples,
    unit_counit_map,
)
from hopfpath.linalg import LinComb, TensorComb, pair, pair_tensor
from hopfpath.symbols import MultiIndex, Word, words, words_up_to
from reference_maps import MAPS as REFERENCE_MAPS, shuffle_placements


W = lambda *ls: Word(ls)


def shuffle_oracle(u: Word, v: Word) -> LinComb:
    """Brute force over one-line shuffle permutations, applying sigma^{-1}."""
    letters = u.letters + v.letters
    n, i = len(letters), len(u.letters)
    if n == 0:
        return LinComb.term(W())
    acc = {}
    for sigma in itertools.permutations(range(1, n + 1)):
        if list(sigma[:i]) != sorted(sigma[:i]):
            continue
        if list(sigma[i:]) != sorted(sigma[i:]):
            continue
        inverse = [0] * n
        for pos, val in enumerate(sigma):
            inverse[val - 1] = pos
        word = Word(tuple(letters[inverse[j]] for j in range(n)))
        acc[word] = acc.get(word, 0) + 1
    return LinComb(acc)


class TestShuffle:
    def test_single_letters(self):
        assert shuffle(W(1), W(2)) == LinComb.term(W(1, 2)) + LinComb.term(W(2, 1))

    def test_unit(self):
        assert shuffle(W(), W(2, 1)) == LinComb.term(W(2, 1))

    def test_repeated_letters(self):
        assert shuffle(W(1, 1), W(1)) == LinComb.term(W(1, 1, 1), 3)

    def test_sh_2_4_printed_set(self):
        assert shuffle_permutations(2, 4) == [
            (1, 2, 3, 4),
            (1, 3, 2, 4),
            (1, 4, 2, 3),
            (2, 3, 1, 4),
            (2, 4, 1, 3),
            (3, 4, 1, 2),
        ]

    @pytest.mark.parametrize(
        "u,v",
        [
            (W(1), W(2, 3)),
            (W(1, 2), W(2, 1)),
            (W(1, 1), W(2, 2)),
            (W(3, 1, 2), W(2)),
            (W(1, 2), W(3, 1, 2)),
        ],
    )
    def test_against_permutation_oracle(self, u, v):
        assert shuffle(u, v) == shuffle_oracle(u, v)

    def test_symmetric(self):
        assert shuffle(W(1, 2), W(3)) == shuffle(W(3), W(1, 2))

    def test_placement_order_on_every_short_pair(self):
        # every pair of words of total length <= 8 over three letters, so over one
        # and two as well, repeated letters included: the recursion's items are the
        # placement enumeration's, in its order
        for n in range(9):
            for w in itertools.product((1, 2, 3), repeat=n):
                for i in range(n + 1):
                    u, v = w[:i], w[i:]
                    assert list(shuffle_tuples(u, v).items()) == list(
                        shuffle_placements(u, v).items()), (u, v)

    def test_long_word_does_not_recurse_per_letter(self):
        # the recursion runs along the shorter word, whichever side it is on
        long = (1,) * 1500
        for u, v in ((long, (2,)), ((2,), long)):
            got = shuffle_tuples(u, v)
            assert len(got) == 1501 and set(got.values()) == {1}
            assert list(got) == list(shuffle_placements(u, v))

    def test_a_call_keeps_no_memo(self):
        # the 1,501 words of 1,501 letters are the caller's, gone with the result
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            shuffle_tuples((1,) * 1500, (2,))
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert left < 1 << 20, left

    def test_returned_dict_is_the_callers(self):
        u, v = (1, 2), (2, 1)
        want = list(shuffle_tuples(u, v).items())
        got = shuffle_tuples(u, v)
        got[(9,)] = 1
        got[(1, 2, 2, 1)] += 5
        del got[(2, 1, 1, 2)]
        assert list(shuffle_tuples(u, v).items()) == want


class TestDeshuffle:
    def test_single_letter(self):
        assert deshuffle(W(1)) == TensorComb.term(W(), W(1)) + TensorComb.term(W(1), W())

    def test_sixteen_term_expansion(self):
        # distinct letters a,b,c,d = 1,2,3,4
        cop = deshuffle(W(1, 2, 3, 4))
        assert len(cop) == 16
        assert all(c == 1 for _, c in cop)
        expected_middle = {
            (W(1), W(2, 3, 4)),
            (W(2), W(1, 3, 4)),
            (W(3), W(1, 2, 4)),
            (W(4), W(1, 2, 3)),
            (W(1, 2), W(3, 4)),
            (W(1, 3), W(2, 4)),
            (W(1, 4), W(2, 3)),
            (W(2, 3), W(1, 4)),
            (W(2, 4), W(1, 3)),
            (W(3, 4), W(1, 2)),
            (W(1, 2, 3), W(4)),
            (W(1, 2, 4), W(3)),
            (W(1, 3, 4), W(2)),
            (W(2, 3, 4), W(1)),
            (W(), W(1, 2, 3, 4)),
            (W(1, 2, 3, 4), W()),
        }
        assert set(cop.terms) == expected_middle

    def test_abba_grouped_coefficients(self):
        # identify b=c and a=d: word a b b a with a=1, b=2
        cop = deshuffle(W(1, 2, 2, 1))
        expected = TensorComb(
            {
                (W(), W(1, 2, 2, 1)): 1,
                (W(1, 2, 2, 1), W()): 1,
                (W(1), W(2, 2, 1)): 1,
                (W(2), W(1, 2, 1)): 2,
                (W(1), W(1, 2, 2)): 1,
                (W(1, 2), W(2, 1)): 2,
                (W(1, 1), W(2, 2)): 1,
                (W(2, 2), W(1, 1)): 1,
                (W(2, 1), W(1, 2)): 2,
                (W(1, 2, 2), W(1)): 1,
                (W(1, 2, 1), W(2)): 2,
                (W(2, 2, 1), W(1)): 1,
            }
        )
        assert cop == expected

    def test_deconcat_examples(self):
        assert deconcat(W(1, 2)) == TensorComb(
            {(W(), W(1, 2)): 1, (W(1), W(2)): 1, (W(1, 2), W()): 1}
        )
        assert deconcat(W()) == TensorComb.term(W(), W())


class TestPoly:
    def test_product(self):
        inst = poly_instance(2)
        assert inst.product_basis(MultiIndex((1, 0)), MultiIndex((0, 1))) == LinComb.term(
            MultiIndex((1, 1))
        )
        assert inst.product_basis(MultiIndex((2, 1)), MultiIndex((1, 1))) == LinComb.term(
            MultiIndex((3, 2))
        )

    def test_unit(self):
        inst = poly_instance(2)
        n = MultiIndex((2, 1))
        assert inst.product(inst.one(), LinComb.term(n)) == LinComb.term(n)

    def test_binomial_coproduct_1d(self):
        inst = poly_instance(1)
        x2 = MultiIndex((2,))
        cop = inst.coproduct_basis(x2)
        assert cop == TensorComb(
            {
                (MultiIndex((0,)), x2): 1,
                (MultiIndex((1,)), MultiIndex((1,))): 2,
                (x2, MultiIndex((0,))): 1,
            }
        )

    def test_coproduct_unit(self):
        inst = poly_instance(2)
        u = MultiIndex((0, 0))
        assert inst.coproduct_basis(u) == TensorComb.term(u, u)

    def test_coproduct_11_four_unit_terms(self):
        inst = poly_instance(2)
        cop = inst.coproduct_basis(MultiIndex((1, 1)))
        assert len(cop) == 4 and all(c == 1 for _, c in cop)

    def test_antipode_sign(self):
        inst = poly_instance(2)
        n = MultiIndex((2, 1))
        assert inst.antipode_closed(LinComb.term(n)) == LinComb.term(n, -1)
        assert inst.antipode(LinComb.term(n)) == LinComb.term(n, -1)


class TestAntipode:
    def test_word_closed_form(self):
        inst = shuffle_deconcat_instance(3)
        assert inst.antipode_closed(LinComb.term(W(1, 2, 3))) == LinComb.term(W(3, 2, 1), -1)
        assert inst.antipode_closed(LinComb.term(W())) == LinComb.term(W())

    def test_recursions_agree_with_closed(self):
        for inst in (shuffle_deconcat_instance(2), concat_deshuffle_instance(2)):
            for w in words_up_to(2, 4):
                x = LinComb.term(w)
                assert inst.antipode(x, "right") == inst.antipode_closed(x)
                assert inst.antipode(x, "left") == inst.antipode_closed(x)

    def test_primitive_sign(self):
        inst = shuffle_deconcat_instance(2)
        assert inst.antipode(LinComb.term(W(1))) == LinComb.term(W(1), -1)

    def test_unit_scaling(self):
        inst = shuffle_deconcat_instance(2)
        assert inst.antipode(LinComb.term(W(), Fraction(5, 3))) == LinComb.term(
            W(), Fraction(5, 3)
        )

    def test_antimorphism_random_pairs(self):
        rng = random.Random(3)
        inst = concat_deshuffle_instance(2)
        pool = words_up_to(2, 2)
        for _ in range(25):
            x = random_combination(rng, pool)
            y = random_combination(rng, pool)
            lhs = inst.antipode(inst.product(x, y))
            rhs = inst.product(inst.antipode(y), inst.antipode(x))
            assert lhs == rhs
        for w in words_up_to(2, 4):
            lhs = inst.coproduct(inst.antipode(LinComb.term(w)))
            # Delta S = (S (x) S) tau Delta, tau the flip of the two factors
            rhs = TensorComb.linear(inst.coproduct_basis(w), lambda lr: TensorComb.of(
                inst.antipode(LinComb.term(lr[1])), inst.antipode(LinComb.term(lr[0]))))
            assert lhs == rhs


class TestConvolution:
    def test_id_conv_antipode_is_unit(self):
        inst = concat_deshuffle_instance(2)
        conv = convolution(identity_map, lambda b: inst.antipode_basis(b), inst)
        for w in words_up_to(2, 4):
            assert conv(LinComb.term(w)) == inst.one().scale(inst.counit(w))

    def test_unit_is_neutral(self):
        inst = shuffle_deconcat_instance(2)
        ue = unit_counit_map(inst)
        table = {w: LinComb.term(w.reverse(), 3) for w in words_up_to(2, 3)}
        left = convolution(ue, table, inst)
        right = convolution(table, ue, inst)
        for w in words_up_to(2, 3):
            assert left(LinComb.term(w)) == table[w]
            assert right(LinComb.term(w)) == table[w]

    def test_associative_on_random_triples(self):
        rng = random.Random(7)
        inst = shuffle_deconcat_instance(2)
        pool = words_up_to(2, 3)

        def rand_table():
            return {w: random_combination(rng, pool).truncate(3) for w in pool}

        for _ in range(5):
            S, T, V = rand_table(), rand_table(), rand_table()
            st = convolution(S, T, inst)
            tv = convolution(T, V, inst)
            left = convolution(lambda b: st(LinComb.term(b)), V, inst)
            right = convolution(S, lambda b: tv(LinComb.term(b)), inst)
            for w in words_up_to(2, 3):
                assert left(LinComb.term(w)) == right(LinComb.term(w))

    def test_grade_bound_error(self):
        from hopfpath.hopf_core import GradeBoundExceeded

        inst = shuffle_deconcat_instance(2)
        table = {w: LinComb.term(w) for w in words_up_to(2, 1)}
        conv = convolution(table, table, inst)
        with pytest.raises(GradeBoundExceeded):
            conv(LinComb.term(W(1, 2)))

    def test_input_grade_past_the_bound(self):
        from hopfpath.hopf_core import GradeBoundExceeded

        inst = shuffle_deconcat_instance(2)
        conv = convolution(identity_map, identity_map, inst, grade_bound=1)
        assert conv(LinComb.term(W(2))) == LinComb.term(W(2), 2)
        with pytest.raises(GradeBoundExceeded, match="^input grade 2 exceeds bound 1$"):
            conv(LinComb.term(W(1)) + LinComb.term(W(1, 2)))


class TestReducedCoproduct:
    def test_primitive_letter(self):
        inst = shuffle_deconcat_instance(2)
        assert inst.reduced_coproduct(LinComb.term(W(1))).is_zero()

    def test_two_letter_word(self):
        inst = shuffle_deconcat_instance(2)
        assert inst.reduced_coproduct(LinComb.term(W(1, 2))) == TensorComb.term(W(1), W(2))

    def test_unit(self):
        inst = shuffle_deconcat_instance(2)
        assert inst.reduced_coproduct(inst.one()) == TensorComb.term(W(), W(), -1)

    def test_middle_grades_only(self):
        inst = concat_deshuffle_instance(2)
        for w in words_up_to(2, 4):
            if w.grade == 0:
                continue
            for (l, r), _ in inst.reduced_coproduct(LinComb.term(w)):
                assert 0 < l.grade < w.grade and 0 < r.grade < w.grade


class TestDuality:
    def test_shuffle_deshuffle_exhaustive_to_grade_4(self):
        d = 2
        for k in range(5):
            for w in words(d, k):
                cop = deshuffle(w)
                for i in range(k + 1):
                    for u in words(d, i):
                        for v in words(d, k - i):
                            lhs = pair(shuffle(u, v), LinComb.term(w))
                            rhs = pair_tensor(
                                TensorComb.term(u, v), cop
                            )
                            assert lhs == rhs

    def test_concat_deconcat_random_to_grade_6(self):
        rng = random.Random(11)
        for _ in range(300):
            k = rng.randint(0, 6)
            i = rng.randint(0, k)
            u = Word(tuple(rng.randint(1, 2) for _ in range(i)))
            v = Word(tuple(rng.randint(1, 2) for _ in range(k - i)))
            w = Word(tuple(rng.randint(1, 2) for _ in range(k)))
            lhs = pair(LinComb.term(u.concat(v)), LinComb.term(w))
            rhs = pair_tensor(TensorComb.term(u, v), deconcat(w))
            assert lhs == rhs

    def test_poly_pairing_against_composition(self):
        # <D1 o D2, P> = <D1 (x) D2, Delta P> realized through the pairing
        inst = poly_instance(2)
        for n in inst.basis_up_to(3):
            for m in inst.basis_up_to(3):
                lhs_basis = n + m  # D^n o D^m lands on D^{n+m} with a binomial factor
                from hopfpath.symbols import multiindex_binomial

                coeff = multiindex_binomial(lhs_basis, n)
                for p in inst.basis(n.grade + m.grade):
                    lhs = coeff * pair(LinComb.term(lhs_basis), LinComb.term(p))
                    rhs = pair_tensor(TensorComb.term(n, m), inst.coproduct_basis(p))
                    assert lhs == rhs


class TestCheckAxioms:
    @pytest.mark.parametrize(
        "make,d", [(poly_instance, 3), (shuffle_deconcat_instance, 2), (concat_deshuffle_instance, 2)]
    )
    def test_instances_pass(self, make, d):
        report = check_axioms(make(d), 3, samples=60, seed=0)
        assert report.passed, report.summary()

    def test_poly_d3_grade6(self):
        report = check_axioms(poly_instance(3), 6, samples=10, seed=0)
        assert report.passed

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="samples must be >= 0"):
            check_axioms(poly_instance(2), 2, samples=-5)
        assert check_axioms(poly_instance(2), 2, samples=0).passed

    @pytest.mark.parametrize("name,d,units", [
        ("poly", 3, 222_302), ("shuffle", 3, 671_217), ("concat", 3, 477_295),
        ("ck", 2, 431_866), ("gl", 2, 981_046),
    ])
    def test_cold_units_pinned(self, name, d, units):
        # the work units a cold check at grade 4 charges, in a fresh process: a
        # faster loop or memo that charged otherwise would move commands across
        # the CLI's work budget
        script = (
            "import sys\n"
            "from hopfpath import hopf_core, work\n"
            "instance = hopf_core.get_instance(sys.argv[1], int(sys.argv[2]))\n"
            "with work.limit(10**9) as budget:\n"
            "    report = hopf_core.check_axioms(instance, 4)\n"
            "assert report.passed\n"
            "print(10**9 - budget.left)\n"
        )
        result = subprocess.run([sys.executable, "-c", script, name, str(d)],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) == units

    def test_corrupted_coproduct_detected(self):
        base = shuffle_deconcat_instance(2)
        bad_word = W(1, 2)

        def corrupted(w: Word) -> TensorComb:
            cop = base.coproduct_basis(w)
            if w == bad_word:
                cop = cop - TensorComb.term(W(1), W(2))
            return cop

        broken = HopfInstance(
            name="broken",
            dim=2,
            unit=base.unit,
            product_basis=base.product_basis,
            coproduct_basis=corrupted,
            basis=base.basis,
        )
        report = check_axioms(broken, 3, samples=0, seed=0)
        assert not report.passed
        laws = {e.law for e in report.failures()}
        assert "coassociativity" in laws or "counit" in laws
        assert any(e.witness for e in report.failures())


def doubled_product(base: HopfInstance):
    """The product of base with every pair of non-units doubled."""

    def product(u, v):
        out = base.product_basis(u, v)
        return out.scale(2) if u.grade and v.grade else out

    return product


def perturbed_map(basis_map, changes: dict):
    """basis_map with the value at each key of changes passed through its function."""

    def perturbed(*key):
        out = basis_map(*key)
        key = key if len(key) > 1 else key[0]
        return changes[key](out) if key in changes else out

    return perturbed


_E = W()
# each perturbation of shuffle_deconcat_instance(2) reaches one witness as the
# first of its law: name -> (fields replaced, max_grade, law, witness)
WITNESSES = {
    "unit": ({"product_basis": {(_E, W(1)): lambda out: out.scale(2)}}, 2,
             "unit", "unit law fails on 1"),
    "counit": ({"coproduct_basis": {W(1): lambda out: out - TensorComb.term(W(1), _E)}}, 2,
               "counit", "counit property fails on 1"),
    # a unit of positive grade, whose counit is 0
    "counit-of-the-unit": ({"unit": W(1)}, 2, "counit", "counit(1) != 1"),
    "product-grading": ({"product_basis": {(W(1), W(2)): lambda out: out + LinComb.term(W(1))}},
                        2, "grading", "product not graded on (1, 2)"),
    "coproduct-grading": (
        {"coproduct_basis": {W(1, 2): lambda out: out + TensorComb.term(W(1), W(2, 1))}}, 3,
        "grading", "coproduct not graded on 12"),
    "associativity": (
        {"product_basis": {(W(1, 1), W(2)): lambda out: out + LinComb.term(W(2, 2, 2))}}, 3,
        "associativity", "associativity fails on (1, 1, 2)"),
    "coproduct-of-the-unit": ({"coproduct_basis": {_E: lambda out: out.scale(2)}}, 2,
                              "compatibility", "Delta(1) != 1 (x) 1"),
    # 1 1 = 0 keeps Delta(1 1) = Delta(1) Delta(1), both 0
    "counit-multiplicativity": ({"product_basis": {(_E, _E): lambda out: out.scale(0)}}, 2,
                                "compatibility", "counit is not multiplicative on (ε, ε)"),
    # 11 2 gains 222 and 211 1 twice that: the left recursion reads 11 2, the
    # right one does not, and both antipode laws still hold on 112
    "left-right-recursions": (
        {"product_basis": {(W(1, 1), W(2)): lambda out: out + LinComb.term(W(2, 2, 2)),
                           (W(2, 1, 1), _E): lambda out: out + LinComb.term(W(2, 2, 2), 2)}},
        3, "antipode", "left/right antipode recursions disagree on 112"),
    # a product doubled at grade 3 only, past the bounded laws' grade 2
    "random-associativity": (
        {"product_basis": {(u, v): lambda out: out.scale(2) for u in words(2, 2)
                           for v in words(2, 1)}}, 2,
        "random-combinations", "random associativity failure (sample 3)"),
    "random-antipode": ({"unit": W(1)}, 2, "random-combinations",
                        "random antipode failure (sample 2)"),
}


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_each_axiom_witness_is_reached(name):
    changes, max_grade, law, witness = WITNESSES[name]
    base = shuffle_deconcat_instance(2)
    fields = {f: value if f == "unit" else perturbed_map(getattr(base, f), value)
              for f, value in changes.items()}
    report = check_axioms(dataclasses.replace(base, **fields), max_grade, samples=9)
    assert {e.law: e.witness for e in report.failures()}[law] == witness


class TestReplacedInstance:
    def test_antipode_memo_not_shared_with_replaced_copy(self):
        # the copy must not see the original's memoized antipodes
        base = concat_deshuffle_instance(2)
        x = LinComb.term(W(1, 2))
        assert base.antipode(x) == LinComb.term(W(2, 1))
        copy = dataclasses.replace(base, product_basis=doubled_product(base))
        assert copy.antipode(x) == LinComb.term(W(1, 2)) + LinComb.term(W(2, 1), 2)
        assert base.antipode(x) == LinComb.term(W(2, 1))


class TestReportText:
    """The exact summary() text, pinned so the report layer cannot drift."""

    def test_passing_summary(self):
        report = check_axioms(concat_deshuffle_instance(2), 3, samples=30)
        assert report.summary() == (
            "axiom check: concat_deshuffle, grade <= 3\n"
            "  unit: ok\n"
            "  counit: ok\n"
            "  grading: ok\n"
            "  associativity: ok\n"
            "  coassociativity: ok\n"
            "  compatibility: ok\n"
            "  antipode: ok\n"
            "  random-combinations: ok"
        )

    def test_failing_summary(self):
        base = concat_deshuffle_instance(2)
        broken = dataclasses.replace(base, product_basis=doubled_product(base))
        report = check_axioms(broken, 3, samples=30)
        assert report.summary() == (
            "axiom check: concat_deshuffle, grade <= 3\n"
            "  unit: ok\n"
            "  counit: ok\n"
            "  grading: ok\n"
            "  associativity: ok\n"
            "  coassociativity: ok\n"
            "  compatibility: FAIL  witness: Delta is not an algebra morphism on (1, 1)\n"
            "  antipode: FAIL  witness: closed-form antipode disagrees on 11\n"
            "  random-combinations: FAIL  witness: random compatibility failure (sample 1)"
        )
        assert report.to_json() == {
            "title": "axiom check: concat_deshuffle, grade <= 3",
            "passed": False,
            "laws": [
                {"law": "unit", "ok": True, "witness": None},
                {"law": "counit", "ok": True, "witness": None},
                {"law": "grading", "ok": True, "witness": None},
                {"law": "associativity", "ok": True, "witness": None},
                {"law": "coassociativity", "ok": True, "witness": None},
                {"law": "compatibility", "ok": False,
                 "witness": "Delta is not an algebra morphism on (1, 1)"},
                {"law": "antipode", "ok": False,
                 "witness": "closed-form antipode disagrees on 11"},
                {"law": "random-combinations", "ok": False,
                 "witness": "random compatibility failure (sample 1)"},
            ],
        }


ALGEBRAS = ("poly", "shuffle", "concat", "ck", "gl")


@st.composite
def basis_tuples(draw, arity: int):
    """An instance of one of the five algebras with 1 <= d <= 3, and arity
    basis elements of grade <= 3."""
    instance = get_instance(draw(st.sampled_from(ALGEBRAS)), draw(st.integers(1, 3)))
    pool = instance.basis_up_to(3)
    return instance, tuple(draw(st.sampled_from(pool)) for _ in range(arity))


def assert_row_of(row: tuple, comb):
    """row lists the terms of comb in the same order, integral values as ints."""
    assert [k for k, _ in row] == [k for k, _ in comb]
    for (_, c), (_, want) in zip(row, comb):
        assert c == want
        assert type(c) is (int if want.denominator == 1 else Fraction)


class TestRows:
    """The memoized integer rows against the structure maps they are read from."""

    @given(basis_tuples(2))
    @settings(max_examples=150, deadline=None)
    def test_product_row(self, case):
        instance, (a, b) = case
        assert_row_of(instance.product_row(a, b), instance.product_basis(a, b))
        assert instance.product_row(a, b) is instance.product_row(a, b)

    @given(basis_tuples(1))
    @settings(max_examples=150, deadline=None)
    def test_coproduct_row(self, case):
        instance, (b,) = case
        assert_row_of(instance.coproduct_row(b), instance.coproduct_basis(b))
        assert instance.coproduct_row(b) is instance.coproduct_row(b)

    def test_non_integral_constant_kept_as_fraction(self):
        base = poly_instance(1)
        halved = dataclasses.replace(
            base, product_basis=lambda n, m: base.product_basis(n, m).scale(Fraction(1, 2))
        )
        x = MultiIndex((1,))
        assert halved.product_row(x, x) == ((MultiIndex((2,)), Fraction(1, 2)),)

    def test_replaced_copy_reads_its_own_rows(self):
        base = concat_deshuffle_instance(2)
        u, v = W(1), W(2)
        assert base.product_row(u, v) == ((W(1, 2), 1),)
        copy = dataclasses.replace(base, product_basis=doubled_product(base))
        assert copy.product_row(u, v) == ((W(1, 2), 2),)
        assert base.product_row(u, v) == ((W(1, 2), 1),)


@st.composite
def row_cases(draw):
    """An algebra, d in 1..3, and basis elements a, b whose grades sum to at
    most 5, or 6 for ck and gl at d <= 2."""
    name, d = draw(st.sampled_from(ALGEBRAS)), draw(st.integers(1, 3))
    instance = get_instance(name, d)
    top = 6 if name in ("ck", "gl") and d <= 2 else 5
    g = draw(st.integers(0, top))
    a = draw(st.sampled_from(instance.basis(g)))
    b = draw(st.sampled_from(instance.basis(draw(st.integers(0, top - g)))))
    return name, instance, a, b


class TestRowSources:
    """Each algebra's integer rows against the LinComb maps of
    ``reference_maps``: the same terms in the same order, every constant an
    int, and the public maps their views."""

    @given(row_cases())
    @settings(max_examples=300, deadline=None)
    def test_product_rows(self, case):
        name, instance, a, b = case
        reference = REFERENCE_MAPS[name][0](a, b)
        row = instance.product_basis.row(a, b)
        assert row == _row(reference)
        assert all(type(c) is int for _, c in row)
        assert list(instance.product_basis(a, b)) == list(reference)

    @given(row_cases())
    @settings(max_examples=300, deadline=None)
    def test_coproduct_rows(self, case):
        name, instance, a, _ = case
        reference = REFERENCE_MAPS[name][1](a)
        row = instance.coproduct_basis.row(a)
        assert row == _row(reference)
        assert all(type(c) is int for _, c in row)
        assert list(instance.coproduct_basis(a)) == list(reference)

    @pytest.mark.parametrize("name", ALGEBRAS)
    def test_instances_read_rows_without_the_view(self, name):
        # a copy with an empty memo fills its rows from the row sources, and
        # the views' caches see none of it
        instance = dataclasses.replace(get_instance(name, 2), _memo={})
        views = (instance.product_basis, instance.coproduct_basis)
        before = [view.cache_info() for view in views]
        basis = instance.basis_up_to(3)
        for a in basis:
            assert instance.coproduct_row(a) == instance.coproduct_basis.row(a)
            for b in basis:
                assert instance.product_row(a, b) == instance.product_basis.row(a, b)
        assert [view.cache_info() for view in views] == before


class TestProbe:
    """What the benchmark's checks-cold probe does: a copy of concat(2) with a
    replaced map must fail, so its rows come from the map it was given."""

    def test_doubled_product_fails(self):
        base = concat_deshuffle_instance(2)
        broken = dataclasses.replace(base, product_basis=doubled_product(base), _memo={})
        assert not check_axioms(broken, 3, samples=30).passed

    def test_perturbed_coproduct_fails(self):
        base = concat_deshuffle_instance(2)

        def perturbed(w):
            # one copy of first letter (x) the rest dropped on grade 2
            out = base.coproduct_basis(w)
            if w.grade != 2:
                return out
            return out - TensorComb.term(Word(w.letters[:1]), Word(w.letters[1:]))

        broken = dataclasses.replace(base, coproduct_basis=perturbed, _memo={})
        report = check_axioms(broken, 3, samples=30)
        assert not report.passed
        assert all(e.witness for e in report.failures())

    def test_a_map_without_rows_goes_through_row(self):
        base = concat_deshuffle_instance(2)
        calls = Counter()
        copy = dataclasses.replace(base, product_basis=counted(doubled_product(base), calls))
        assert not hasattr(copy.product_basis, "row")
        assert copy.product_row(W(1), W(2)) == ((W(1, 2), 2),)
        assert type(copy.product_row(W(1), W(2))[0][1]) is int
        assert calls == Counter({(W(1), W(2)): 1})
        assert rows_of(copy.product_basis)(W(2), W(1)) == ((W(2, 1), 2),)
        assert rows_of(base.product_basis) is base.product_basis.row


def counted(fn, calls: Counter):
    def wrapped(*args):
        calls[args] += 1
        return fn(*args)

    return wrapped


@pytest.mark.parametrize("name", ["concat", "ck"])
def test_check_axioms_calls_each_map_once_per_argument(name):
    base = get_instance(name, 2)
    products, coproducts = Counter(), Counter()
    copy = dataclasses.replace(
        base,
        product_basis=counted(base.product_basis, products),
        coproduct_basis=counted(base.coproduct_basis, coproducts),
    )
    report = check_axioms(copy, 3)
    assert report.passed, report.summary()
    assert products and max(products.values()) == 1
    assert coproducts and max(coproducts.values()) == 1


def assert_canonical(x: LinComb):
    """Content 1, a positive denominator and no zero numerator."""
    assert type(x.den) is int and x.den > 0
    assert all(type(n) is int and n for n in x.nums.values())
    assert math.gcd(x.den, *x.nums.values()) == 1


@st.composite
def scaled_operands(draw):
    """An instance of one of the five algebras with 1 <= d <= 3, and two
    exact combinations of basis elements of grade <= 4, empty ones included."""
    instance = get_instance(draw(st.sampled_from(ALGEBRAS)), draw(st.integers(1, 3)))
    pool = instance.basis_up_to(draw(st.integers(0, 4)))
    exact = st.fractions(min_value=-5, max_value=5, max_denominator=12)

    def element():
        keys = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
        return LinComb({b: draw(exact) for b in keys})

    return instance, element(), element()


def linear_reference(x: LinComb, fn) -> dict:
    """The linear extension of fn on x, one Fraction per term, summed term
    by term in the order the terms come."""
    acc: dict = {}
    for b, c in x:
        for k, c2 in fn(b):
            acc[k] = acc.get(k, 0) + c * c2
            if not acc[k]:
                del acc[k]
    return acc


def coproduct_reference(instance: HopfInstance, x: LinComb) -> dict:
    """Delta x from the instance's coproduct rows, by ``linear_reference``."""
    return linear_reference(x, instance.coproduct_row)


def tensor_product_reference(instance: HopfInstance, a: TensorComb, b: TensorComb) -> dict:
    """(x1 (x) x2)(y1 (x) y2) = x1y1 (x) x2y2 by LinComb products, term pair by term pair."""
    out = TensorComb.zero()
    for (l1, r1), c1 in a:
        for (l2, r2), c2 in b:
            left = instance.product(LinComb.term(l1), LinComb.term(l2))
            right = instance.product(LinComb.term(r1), LinComb.term(r2))
            out = out + TensorComb.of(left, right).scale(c1 * c2)
    return out.terms


class TestScaledLaws:
    """The helpers of the exact laws against their Fraction references."""

    @given(scaled_operands())
    @settings(max_examples=150, deadline=None)
    def test_linear_scaled_and_coproduct(self, case):
        instance, x, _ = case
        cop = instance.coproduct(x)
        assert cop.terms == coproduct_reference(instance, x)
        antipode = LinComb.linear(x, lambda b: instance.antipode_row(b, "right"))
        closed = LinComb.linear(x, instance.antipode_closed_basis)
        assert antipode == instance.antipode(x) == closed
        thirds = lambda b: LinComb.term(b, Fraction(b.grade + 1, 3))  # non-integral constants
        assert LinComb.linear(x, thirds).terms == linear_reference(x, thirds)
        for y in (cop, antipode, closed, LinComb.linear(x, thirds)):
            assert_canonical(y)

    @given(scaled_operands())
    @settings(max_examples=100, deadline=None)
    def test_multiply_tensors(self, case):
        instance, x, y = case
        a, b = instance.coproduct(x), instance.coproduct(y)
        got = instance.multiply_tensors(a, b)
        assert got.terms == tensor_product_reference(instance, a, b)
        assert_canonical(got)

    @given(basis_tuples(1))
    @settings(max_examples=100, deadline=None)
    def test_antipode_rows(self, case):
        instance, (b,) = case
        for side in ("left", "right"):
            assert_row_of(instance.antipode_row(b, side), instance.antipode_basis(b, side))
            assert instance.antipode_row(b, side) is instance.antipode_row(b, side)

    def test_random_draws_unchanged(self):
        # the Fraction sums the seeded draws made before they were integer forms
        def reference(rng, pool, max_terms=3):
            terms = {}
            for _ in range(rng.randint(1, max_terms)):
                b = rng.choice(pool)
                terms[b] = terms.get(b, Fraction(0)) + Fraction(rng.randint(-9, 9),
                                                                rng.randint(1, 9))
            return LinComb(terms)

        pool = words_up_to(2, 2)
        for seed in range(20):
            want_rng, rng = random.Random(seed), random.Random(seed)
            for _ in range(30):
                want = reference(want_rng, pool)
                x = random_combination(rng, pool)
                assert_canonical(x)
                assert x == want and list(x) == list(want)
            assert rng.random() == want_rng.random()

    @pytest.mark.parametrize("size", [1, 13, 100])
    def test_draw_stream_pinned(self, size):
        # random_combination draws through rng._randbelow, the primitive randint and
        # choice end in: its values, term orders and the generator's state after
        # each draw are those of the calls below, on every CPython the CI runs
        def reference(rng, pool, max_terms):
            nums, den = {}, 1
            for _ in range(rng.randint(1, max_terms)):
                b = rng.choice(pool)
                n, q = rng.randint(-9, 9), rng.randint(1, 9)
                lcm = math.lcm(den, q)
                nums = {k: v * (lcm // den) for k, v in nums.items()}
                den = lcm
                nums[b] = nums.get(b, 0) + n * (lcm // q)
            return LinComb.from_nums({k: v for k, v in nums.items() if v}, den)

        pool = words_up_to(3, 4)[:size]
        assert len(pool) == size
        for seed in range(21):
            want_rng, rng = random.Random(seed), random.Random(seed)
            for max_terms in (1, 3, 7) * 10:
                want = reference(want_rng, pool, max_terms)
                x = random_combination(rng, pool, max_terms)
                assert x == want and list(x.nums) == list(want.nums)
                assert rng.getstate() == want_rng.getstate()

    def test_draws_need_a_pool_and_a_term(self):
        # _randbelow(0) would never return: both are refused before any draw
        rng = random.Random(0)
        state = rng.getstate()
        for pool, max_terms in (((), 3), ((W(1),), 0)):
            with pytest.raises(ValueError, match="max_terms >= 1 and a nonempty pool"):
                random_combination(rng, pool, max_terms)
        assert rng.getstate() == state

    @pytest.mark.parametrize("name", ALGEBRAS)
    def test_float_constant_raises(self, name):
        # a map cannot make a float constant, and a float in a raw row is
        # refused where the row is summed: TypeError naming the float
        base = get_instance(name, 2)
        floaty = dataclasses.replace(
            base, product_basis=lambda a, b: base.product_basis(a, b).scale(1.0)
        )
        with pytest.raises(TypeError, match="not an exact scalar: 1.0"):
            check_axioms(floaty, 2, samples=0)
        closed = dataclasses.replace(base, antipode_closed_basis=lambda b: LinComb({b: 0.5}))
        with pytest.raises(TypeError, match="not an exact scalar: 0.5"):
            check_axioms(closed, 2, samples=0)
        one = LinComb.term(base.unit)
        with pytest.raises(TypeError, match="not an exact scalar: 1.5"):
            TensorComb.linear(one, lambda b: (((b, b), 1.5),))
        with pytest.raises(TypeError, match="not an exact scalar: 1.0"):
            floaty.product(one, one)


# ---------------------------------------------------------------------------
# the antipode recursion on rows against the LinComb recursion


def antipode_reference(instance: HopfInstance, b, side: str, memo: dict) -> LinComb:
    """The recursive antipode as LinCombs of Fractions, the arithmetic
    ``antipode_basis`` used before the recursion ran on rows: each product
    l S(r) (right) or S(l) r (left) is a LinComb product, folded over the
    LinComb reduced coproduct and subtracted from -b."""
    key = (b, side)
    if key not in memo:
        if b.grade == 0:
            out = LinComb.term(b)
        else:
            red = instance.reduced_coproduct(LinComb.term(b))
            if side == "right":
                rest = red.fold(lambda l, r: instance.product(
                    LinComb.term(l), antipode_reference(instance, r, side, memo)))
            else:
                rest = red.fold(lambda l, r: instance.product(
                    antipode_reference(instance, l, side, memo), LinComb.term(r)))
            out = -LinComb.term(b) - rest
        memo[key] = out
    return memo[key]


_REFERENCE_MEMOS: dict = {}  # instance -> its reference memo, kept across examples


def assert_matches_reference(instance: HopfInstance, b, side: str):
    """antipode_row and antipode_basis list the reference's terms in its
    order, values equal (an integral one as an int in the row)."""
    want = list(antipode_reference(instance, b, side, _REFERENCE_MEMOS.setdefault(instance, {})))
    row = instance.antipode_row(b, side)
    assert [k for k, _ in row] == [k for k, _ in want]
    for (_, c), (_, w) in zip(row, want):
        assert c == w and type(c) is (int if w.denominator == 1 else Fraction)
    got = list(instance.antipode_basis(b, side))
    assert [k for k, _ in got] == [k for k, _ in want]
    assert all(type(c) is type(w) and repr(c) == repr(w) for (_, c), (_, w) in zip(got, want))


BROKEN = ("doubled-product-2", "doubled-product-3", "halved-product-2", "halved-product-3",
          "dropped-coproduct-term-2", "dropped-coproduct-term-3")


@functools.lru_cache(maxsize=None)
def broken_instance(algebra: str, breakage: str) -> HopfInstance:
    """The broken d = 2 copy the pinned failing reports are written from."""
    from test_failing_reports import BREAKAGES

    base = get_instance(algebra, 2)
    return dataclasses.replace(base, **BREAKAGES[breakage](base))


@functools.lru_cache(maxsize=None)
def unit_slot_instance(algebra: str) -> HopfInstance:
    """The d = 2 algebra with 1 (x) f + f (x) 1 added to the coproduct of
    every basis element but the first of its grade, f being that first one:
    subtracting exactly one 1 (x) b and one b (x) 1 leaves both terms in the
    reduced coproduct."""
    base = get_instance(algebra, 2)

    def coproduct(b):
        out = base.coproduct_basis(b)
        first = base.basis(b.grade)[0]
        if b.grade and b is not first:
            out = out + TensorComb({(base.unit, first): 1, (first, base.unit): 1})
        return out

    return dataclasses.replace(base, coproduct_basis=coproduct)


@st.composite
def antipode_cases(draw):
    """One of the five algebras with 1 <= d <= 3, or a broken d = 2 copy of
    one, and a basis element of grade <= 4."""
    algebra = draw(st.sampled_from(ALGEBRAS))
    breakage = draw(st.sampled_from((None, "unit-slot-terms") + BROKEN))
    if breakage is None:
        instance = get_instance(algebra, draw(st.integers(1, 3)))
    elif breakage == "unit-slot-terms":
        instance = unit_slot_instance(algebra)
    else:
        instance = broken_instance(algebra, breakage)
    return instance, draw(st.sampled_from(instance.basis_up_to(4)))


class TestAntipodeRecursion:
    @given(antipode_cases())
    @settings(max_examples=300, deadline=None)
    def test_rows_match_the_lincomb_recursion(self, case):
        instance, b = case
        for side in ("left", "right"):
            assert_matches_reference(instance, b, side)

    def test_other_unit_slot_terms_stay_in_the_reduced_coproduct(self):
        instance = unit_slot_instance("concat")
        for side in ("left", "right"):
            assert_matches_reference(instance, W(1, 2), side)
            # the extra 1 (x) 11 + 11 (x) 1 takes S(11) + 11 = 2 * 11 (right) or
            # 11 + S(11) (left) off the unbroken S(12) = 21
            want = {W(2, 1): 1, W(1, 1): -2}
            assert dict(instance.antipode_row(W(1, 2), side)) == want

    def test_halved_products_stay_exact(self):
        instance = broken_instance("concat", "halved-product-2")
        b = W(1, 2, 1)
        assert_matches_reference(instance, b, "right")
        assert any(type(c) is Fraction for _, c in instance.antipode_row(b, "right"))

    @pytest.mark.parametrize("name", ALGEBRAS)
    def test_unknown_side_rejected_on_every_element(self, name):
        instance = dataclasses.replace(get_instance(name, 2))
        for b in instance.basis_up_to(2):
            with pytest.raises(ValueError, match="unknown antipode side 'middle'"):
                instance.antipode_basis(b, "middle")
            with pytest.raises(ValueError, match="unknown antipode side 'middle'"):
                instance.antipode_row(b, "middle")
        assert not [key for key in instance.memo("antipode_rows") if key[1] == "middle"]


def test_pair_memo_lives_for_one_call():
    # the checks-cold probe's shape: a passing check, then a broken copy in
    # the same process, which must fail as it does in a fresh process
    base = concat_deshuffle_instance(2)
    assert check_axioms(base, 3, samples=30).passed
    copy = dataclasses.replace(base, product_basis=doubled_product(base))
    got = check_axioms(copy, 3, samples=30).to_json()
    script = (
        "import dataclasses, json\n"
        "from hopfpath.hopf_core import check_axioms, concat_deshuffle_instance\n"
        "base = concat_deshuffle_instance(2)\n"
        "def doubled(u, v):\n"
        "    out = base.product_basis(u, v)\n"
        "    return out.scale(2) if u.grade and v.grade else out\n"
        "copy = dataclasses.replace(base, product_basis=doubled)\n"
        "print(json.dumps(check_axioms(copy, 3, samples=30).to_json()))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert got == json.loads(result.stdout)
    laws = {e["law"]: e["ok"] for e in got["laws"]}
    assert not (laws["associativity"] and laws["compatibility"])
