import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfpath import hopf_ck

from hopfpath.hopf_core import _row, check_axioms, deconcat_tuples
from hopfpath.hopf_ck import (
    TreeWord,
    ck_antipode,
    ck_coproduct,
    ck_instance,
    enumerate_cuts,
    forest_deconcat,
    gl_instance,
    gl_product,
    phi,
    phi_hat,
    phi_kernel_basis,
    psi,
    splits,
    symmetry_factor,
    treeword_shuffle,
)
from hopfpath.linalg import LinComb, TensorComb, pair, pair_tensor
from hopfpath.symbols import (
    EMPTY_FOREST,
    Forest,
    Tree,
    Word,
    forests,
    forests_up_to,
)
from reference_maps import admissible_cuts, shuffle_placements


def t(label, *children):
    return Tree(label, Forest.of(*children))


W = lambda *ls: Word(ls)
dot = t(1).as_forest()
lad2 = t(1, t(1)).as_forest()
lad3 = t(1, t(1, t(1))).as_forest()
cherry = t(1, t(1), t(1)).as_forest()


class TestCoproduct:
    def test_single_node(self):
        for i in (1, 2):
            f = t(i).as_forest()
            assert ck_coproduct(f) == TensorComb(
                {(f, EMPTY_FOREST): 1, (EMPTY_FOREST, f): 1}
            )

    def test_decorated_two_ladder(self):
        f = t(2, t(3)).as_forest()
        assert ck_coproduct(f) == TensorComb(
            {
                (f, EMPTY_FOREST): 1,
                (t(3).as_forest(), t(2).as_forest()): 1,
                (EMPTY_FOREST, f): 1,
            }
        )

    def test_undecorated_cherry_over_cherries(self):
        # root above two 2-ladders; coefficients (1,1,2,2,1,2,1)
        cc = t(1, t(1, t(1)), t(1, t(1))).as_forest()
        two_ladders = Forest.of(t(1, t(1)), t(1, t(1)))
        dot_lad = Forest.of(t(1), t(1, t(1)))
        dots2 = Forest.of(t(1), t(1))
        tall_cherry = t(1, t(1), t(1, t(1))).as_forest()  # root with children dot, ladder
        expected = TensorComb(
            {
                (cc, EMPTY_FOREST): 1,
                (two_ladders, dot): 1,
                (dot_lad, lad2): 2,
                (lad2, lad3): 2,
                (dots2, cherry): 1,
                (dot, tall_cherry): 2,
                (EMPTY_FOREST, cc): 1,
            }
        )
        assert ck_coproduct(cc) == expected

    def test_identified_labels_coefficient_multiset(self):
        cc = t(1, t(2, t(2)), t(2, t(2))).as_forest()
        cop = ck_coproduct(cc)
        assert sorted(int(c) for _, c in cop) == [1, 1, 1, 1, 2, 2, 2]
        assert len(cop) == 7

    def test_multiplicative_over_juxtaposition(self):
        for a in forests_up_to(2, 2):
            for b in forests_up_to(2, 2):
                lhs = ck_coproduct(a.mul(b))
                rhs = TensorComb.zero()
                for (l1, r1), c1 in ck_coproduct(a):
                    for (l2, r2), c2 in ck_coproduct(b):
                        rhs = rhs + TensorComb.term(l1.mul(l2), r1.mul(r2), c1 * c2)
                assert lhs == rhs


class TestCuts:
    def test_empty_forest(self):
        cuts = enumerate_cuts(EMPTY_FOREST)
        assert len(cuts) == 1
        assert (cuts[0].crown, cuts[0].trunk, cuts[0].multiplicity) == (
            EMPTY_FOREST,
            EMPTY_FOREST,
            1,
        )

    def test_two_ladder(self):
        got = {(c.crown, c.trunk): c.multiplicity for c in enumerate_cuts(lad2)}
        assert got == {
            (lad2, EMPTY_FOREST): 1,
            (dot, dot): 1,
            (EMPTY_FOREST, lad2): 1,
        }

    def test_two_dots_multiplicity(self):
        dots2 = Forest.of(t(1), t(1))
        got = {(c.crown, c.trunk): c.multiplicity for c in enumerate_cuts(dots2)}
        assert got[(dot, dot)] == 2

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    def test_cut_sum_reproduces_coproduct(self, k):
        # the cuts and the coproduct against the brute-force count of cuts
        for d in (1, 2, 3):
            for f in forests(d, k):
                cuts = admissible_cuts(f)
                assert {(c.crown, c.trunk): c.multiplicity for c in enumerate_cuts(f)} == cuts
                assert ck_coproduct(f) == TensorComb(
                    {key: Fraction(m) for key, m in cuts.items()}
                )

    def test_crown_trunk_grades(self):
        for f in forests_up_to(2, 4):
            for c in enumerate_cuts(f):
                assert c.crown.grade + c.trunk.grade == f.grade
                assert c.multiplicity >= 1


class TestAntipode:
    def test_primitive_node(self):
        assert ck_antipode(dot) == LinComb.term(dot, -1)

    def test_two_ladder(self):
        expected = LinComb({lad2: Fraction(-1), Forest.of(t(1), t(1)): Fraction(1)})
        assert ck_antipode(lad2) == expected
        assert ck_antipode(lad2, engine="splits") == expected

    def test_engines_agree_to_grade_4(self):
        for f in forests_up_to(2, 4):
            assert ck_antipode(f) == ck_antipode(f, engine="splits")

    def test_split_self_coefficient_minus_one(self):
        from hopfpath.symbols import trees

        for k in range(1, 5):
            for tree in trees(2, k):
                assert dict(splits(tree.as_forest()))[tree.as_forest()] == -1

    def test_splits_multiplicative(self):
        for a in forests_up_to(2, 2):
            for b in forests_up_to(2, 2):
                lhs = dict(splits(a.mul(b)))
                rhs = {}
                for s1, e1 in splits(a):
                    for s2, e2 in splits(b):
                        key = s1.mul(s2)
                        rhs[key] = rhs.get(key, 0) + e1 * e2
                rhs = {k: v for k, v in rhs.items() if v}
                assert lhs == rhs

    def test_antipode_law(self):
        inst = ck_instance(2)
        for f in forests_up_to(2, 3):
            cop = ck_coproduct(f)
            lhs = cop.fold(
                lambda l, r: ck_antipode(l).map_basis(lambda z: LinComb.term(z.mul(r)))
            )
            target = inst.one().scale(inst.counit(f))
            assert lhs == target


def gl_oracle(a: Forest, b: Forest, d: int = 2) -> LinComb:
    """Independent route: scan all forests of the right grade for cuts (a, b)."""
    terms = {}
    for z in forests(d, a.grade + b.grade):
        for cut in enumerate_cuts(z):
            if cut.crown == a and cut.trunk == b:
                terms[z] = terms.get(z, 0) + cut.multiplicity
    return LinComb(terms)


class TestGrossmanLarson:
    def test_two_decorated_dots(self):
        a, b = t(1).as_forest(), t(2).as_forest()
        expected = LinComb(
            {Forest.of(t(1), t(2)): Fraction(1), t(2, t(1)).as_forest(): Fraction(1)}
        )
        assert gl_product(a, b) == expected

    def test_undecorated_dots(self):
        expected = LinComb({Forest.of(t(1), t(1)): Fraction(2), lad2: Fraction(1)})
        assert gl_product(dot, dot) == expected

    def test_unit(self):
        for f in forests_up_to(2, 3):
            assert gl_product(EMPTY_FOREST, f) == LinComb.term(f)
            assert gl_product(f, EMPTY_FOREST) == LinComb.term(f)

    def test_against_cut_oracle_to_grade_4(self):
        for a in forests_up_to(2, 2):
            for b in forests_up_to(2, 2):
                assert gl_product(a, b) == gl_oracle(a, b)

    def test_against_cut_oracle_grade_5_samples(self):
        rng = random.Random(4)
        pool2 = forests(2, 2)
        pool3 = forests(2, 3)
        for _ in range(8):
            a, b = rng.choice(pool2), rng.choice(pool3)
            assert gl_product(a, b) == gl_oracle(a, b)
            assert gl_product(b, a) == gl_oracle(b, a)

    def test_term_order_independent_of_hash_seed(self):
        import os
        import subprocess
        import sys

        script = (
            "from hopfpath.hopf_ck import gl_product\n"
            "from hopfpath.symbols import Forest, Tree, forests_up_to\n"
            "print(list(gl_product(Forest.of(Tree(1)), Forest.of(Tree(1), Tree(2)))))\n"
            "pool = forests_up_to(2, 2)\n"
            "for a in pool:\n"
            "    for b in pool:\n"
            "        print([str(z) for z, _ in gl_product(a, b)])\n"
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            result = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        terms = [z for z, _ in gl_product(dot, Forest.of(t(1), t(2)))]
        assert terms == sorted(terms)

    def test_dual_to_coproduct(self):
        for a in forests_up_to(2, 2):
            for b in forests_up_to(2, 2):
                prod = gl_product(a, b)
                for z in forests(2, a.grade + b.grade):
                    lhs = pair(prod, LinComb.term(z))
                    rhs = pair_tensor(TensorComb.term(a, b), ck_coproduct(z))
                    assert lhs == rhs


def gl_readback(a: Forest, b: Forest, d: int) -> LinComb:
    """The read-back oracle: the coefficient of a (x) b in Delta z, over every z."""
    terms = {}
    for z in forests(d, a.grade + b.grade):
        c = ck_coproduct(z).coeff(a, b)
        if c:
            terms[z] = c
    return LinComb(terms)


GL_TOP_GRADE = {1: 6, 2: 5, 3: 4}


@st.composite
def gl_pair(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    total = draw(st.integers(min_value=0, max_value=GL_TOP_GRADE[d]))
    ga = draw(st.integers(min_value=0, max_value=total))
    a = draw(st.sampled_from(forests(d, ga)))
    b = draw(st.sampled_from(forests(d, total - ga)))
    return d, a, b


class TestCountedGrafting:
    @given(gl_pair())
    @settings(max_examples=300, deadline=None)
    def test_matches_readback_term_for_term(self, case):
        d, a, b = case
        assert list(gl_product(a, b)) == list(gl_readback(a, b, d))

    def test_every_grade_two_pair_against_readback(self):
        for d in (1, 2, 3):
            for a in forests_up_to(d, 2):
                for b in forests_up_to(d, 2):
                    assert list(gl_product(a, b)) == list(gl_readback(a, b, d))

    def test_symmetry_factors(self):
        cherry = t(1, t(1), t(1))
        assert symmetry_factor(EMPTY_FOREST) == 1
        assert symmetry_factor(dot) == 1
        assert symmetry_factor(Forest.of(t(1), t(1))) == 2
        assert symmetry_factor(Forest.of(t(1), t(2))) == 1
        assert symmetry_factor(cherry.as_forest()) == 2
        assert symmetry_factor(t(2, cherry, cherry).as_forest()) == 8
        assert symmetry_factor(Forest.of(cherry, cherry, cherry)) == 6 * 2**3

    def test_non_integer_coefficient_raises(self, monkeypatch):
        real = hopf_ck.symmetry_factor
        monkeypatch.setattr(hopf_ck, "symmetry_factor", lambda f: 2 if f is dot else real(f))
        with pytest.raises(ValueError, match="non-integer"):
            gl_product.__wrapped__(dot, dot)

    def test_keeps_cache_info(self):
        gl_product(dot, dot)
        assert gl_product.cache_info().currsize >= 1

    def test_untouched_subtrees_are_reused(self):
        # the placements of each part of a (1 or the dot) into each subtree
        # of a ladder of 3 are built once: 2 * 3 misses on cleared caches (the
        # memoized graft counts would otherwise answer before any placement)
        ladder = t(1, t(2, t(1))).as_forest()
        hopf_ck._graft_counts.cache_clear()
        hopf_ck._place_tree.cache_clear()
        counts = hopf_ck._graft_counts(dot, ladder)
        info = hopf_ck._place_tree.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 6, 6)
        assert counts == {
            Forest.of(t(1), t(1, t(2, t(1)))): 1,
            Forest.of(t(1, t(1), t(2, t(1)))): 1,
            Forest.of(t(1, t(2, t(1), t(1)))): 1,
            Forest.of(t(1, t(2, t(1, t(1))))): 1,
        }
        # a second product whose b is a subtree of the ladder adds no miss
        assert hopf_ck._graft_counts(dot, t(2, t(1)).as_forest()) == {
            Forest.of(t(1), t(2, t(1))): 1,
            Forest.of(t(2, t(1), t(1))): 1,
            Forest.of(t(2, t(1, t(1)))): 1,
        }
        assert hopf_ck._place_tree.cache_info().misses == 6

    def test_every_one_letter_pair_against_readback(self):
        for a in forests_up_to(1, 6):
            for b in forests_up_to(1, 6 - a.grade):
                assert list(gl_product(a, b)) == list(gl_readback(a, b, 1))

    def test_repeated_trees_against_readback(self):
        # the binomial split weights and the (s, m - 1) rest of b only act
        # where a tree occurs more than once
        def repeats(f):
            return any(m > 1 for _, m in f.items)

        for a in forests_up_to(2, 5):
            for b in forests_up_to(2, 5 - a.grade):
                if repeats(a) or repeats(b):
                    assert list(gl_product(a, b)) == list(gl_readback(a, b, 2))


@st.composite
def forest_pairs_to_six(draw):
    """d <= 2 and forests a, b whose grades sum to at most 6."""
    d = draw(st.integers(min_value=1, max_value=2))
    g = draw(st.integers(min_value=0, max_value=6))
    a = draw(st.sampled_from(forests(d, g)))
    b = draw(st.sampled_from(forests(d, draw(st.integers(min_value=0, max_value=6 - g)))))
    return d, a, b


class TestRowOracles:
    """The ck and gl rows against the oracles of their own: the brute-force
    count of admissible cuts, and the read-back of each coefficient from the
    cut coproduct."""

    @given(forest_pairs_to_six())
    @settings(max_examples=150, deadline=None)
    def test_ck_rows_are_the_cuts(self, case):
        _, f, _ = case
        by_keys = lambda lrc: (lrc[0].sort_key(), lrc[1].sort_key())
        cuts = sorted(((l, r, c) for (l, r), c in admissible_cuts(f).items()), key=by_keys)
        rows = sorted(((l, r, c) for (l, r), c in ck_coproduct.row(f)), key=by_keys)
        assert rows == cuts
        assert [(cut.crown, cut.trunk, cut.multiplicity) for cut in enumerate_cuts(f)] == cuts

    @given(forest_pairs_to_six())
    @settings(max_examples=100, deadline=None)
    def test_gl_rows_are_the_readback(self, case):
        d, a, b = case
        row = gl_product.row(a, b)
        assert row == _row(gl_readback(a, b, d))
        assert all(type(c) is int for _, c in row)


class TestForestDeconcat:
    def test_two_dots(self):
        dots2 = Forest.of(t(1), t(1))
        assert forest_deconcat(dots2) == TensorComb(
            {
                (EMPTY_FOREST, dots2): 1,
                (dot, dot): 1,
                (dots2, EMPTY_FOREST): 1,
            }
        )

    def test_trees_primitive(self):
        from hopfpath.symbols import trees

        for k in range(1, 4):
            for tree in trees(2, k):
                f = tree.as_forest()
                assert forest_deconcat(f) == TensorComb(
                    {(EMPTY_FOREST, f): 1, (f, EMPTY_FOREST): 1}
                )

    def test_unit(self):
        assert forest_deconcat(EMPTY_FOREST) == TensorComb.term(EMPTY_FOREST, EMPTY_FOREST)

    def test_cocommutative(self):
        for f in forests_up_to(2, 4):
            cop = forest_deconcat(f)
            assert cop == TensorComb({(r, l): c for (l, r), c in cop})

    def test_dual_to_juxtaposition(self):
        for z in forests_up_to(2, 4):
            cop = forest_deconcat(z)
            for a in forests_up_to(2, z.grade):
                for b in forests(2, z.grade - a.grade):
                    lhs = pair_tensor(cop, TensorComb.term(a, b))
                    rhs = pair(LinComb.term(z), LinComb.term(a.mul(b)))
                    assert lhs == rhs


def gl_antipode_by_forest(d: int, f: Forest) -> LinComb:
    """The dual of the cut antipode one forest at a time: <S* f, z> = <f, S z>
    read off the split antipode of every forest z of f's grade."""
    terms = {}
    for z in forests(d, f.grade):
        c = ck_antipode(z, engine="splits").coeff(f)
        if c:
            terms[z] = c
    return LinComb(terms)


class TestAntipodeDuality:
    @pytest.mark.parametrize("d,max_grade", [(1, 6), (2, 4), (3, 3)])
    def test_column_table_matches_per_forest_oracle(self, d, max_grade):
        gl = gl_instance(d)
        for f in forests_up_to(d, max_grade):
            got, want = gl.antipode_closed_basis(f), gl_antipode_by_forest(d, f)
            assert got == want
            assert repr(got) == repr(want)  # same terms in the same order

    def test_forest_outside_the_alphabet(self):
        assert gl_instance(1).antipode_closed_basis(t(2).as_forest()).is_zero()

    def test_gl_antipode_dual_to_ck(self):
        gl = gl_instance(2)
        for eta in forests_up_to(2, 3):
            s_eta = gl.antipode_closed_basis(eta)
            for z in forests(2, eta.grade):
                assert pair(s_eta, LinComb.term(z)) == pair(
                    LinComb.term(eta), ck_antipode(z)
                )

    def test_gl_closed_matches_recursion(self):
        gl = gl_instance(2)
        for eta in forests_up_to(2, 3):
            assert gl.antipode_closed_basis(eta) == gl.antipode(LinComb.term(eta))


class TestAxioms:
    def test_ck_passes(self):
        report = check_axioms(ck_instance(2), 3, samples=40, seed=0)
        assert report.passed, report.summary()

    def test_gl_passes(self):
        report = check_axioms(gl_instance(2), 3, samples=40, seed=0)
        assert report.passed, report.summary()


class TestPhi:
    def test_graft_appends_letter(self):
        assert phi(t(1, t(2)).as_forest()) == LinComb.term(W(2, 1))

    def test_two_dots_shuffle(self):
        assert phi(Forest.of(t(1), t(2))) == LinComb.term(W(1, 2)) + LinComb.term(W(2, 1))

    def test_phi_phi_hat_identity(self):
        rng = random.Random(9)
        for _ in range(40):
            w = Word(tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 5))))
            assert phi(phi_hat(w)) == LinComb.term(w)

    def test_phi_hat_ladder(self):
        assert phi_hat(W(1, 2)) == t(2, t(1)).as_forest()

    def test_coalgebra_morphism(self):
        from hopfpath.hopf_core import shuffle_deconcat_instance

        words_inst = shuffle_deconcat_instance(2)
        for f in forests_up_to(2, 3):
            lhs = words_inst.coproduct(phi(f))
            rhs = TensorComb.linear(ck_coproduct(f), lambda lr: TensorComb.of(phi(lr[0]), phi(lr[1])))
            assert lhs == rhs

    def test_commutes_with_antipodes(self):
        from hopfpath.hopf_core import shuffle_deconcat_instance

        words_inst = shuffle_deconcat_instance(2)
        for f in forests_up_to(2, 4):
            assert ck_antipode(f).map_basis(phi) == words_inst.antipode_closed(phi(f))

    def test_kernel_basis_annihilated(self):
        kernel = phi_kernel_basis(2, 3)
        assert kernel, "kernel must be nontrivial"
        for x in kernel:
            assert x.map_basis(phi).is_zero()

    def test_kernel_dimensions(self):
        by_grade = {}
        for x in phi_kernel_basis(2, 3):
            k = next(iter(x.support())).grade
            by_grade[k] = by_grade.get(k, 0) + 1
        # forests minus the rank of phi (phi is onto the word space)
        assert by_grade == {2: 7 - 4, 3: 26 - 8}


class TestPsi:
    def test_single_node(self):
        for i in (1, 2):
            assert psi(t(i).as_forest()) == LinComb.term(TreeWord((t(i),)))

    def test_ladder(self):
        # psi(|dot|_2) = (dot)·(|1|_2 as letter)? expand the defining recursion once
        f = t(2, t(1)).as_forest()
        expected = LinComb(
            {
                TreeWord((t(1), t(2))): 1,
                TreeWord((t(2, t(1)),)): 1,
            }
        )
        assert psi(f) == expected

    def test_coalgebra_morphism_to_grade_4(self):
        for f in forests_up_to(2, 4):
            lhs = TensorComb.zero()
            for tw, c in psi(f):
                cop = TensorComb(
                    {(TreeWord(l), TreeWord(r)): 1 for l, r in deconcat_tuples(tw.letters)}
                )
                lhs = lhs + cop.scale(c)
            rhs = TensorComb.linear(ck_coproduct(f), lambda lr: TensorComb.of(psi(lr[0]), psi(lr[1])))
            assert lhs == rhs

    def test_multiplicative(self):
        for a in forests_up_to(2, 2):
            for b in forests_up_to(2, 2):
                lhs = psi(a.mul(b))
                rhs = LinComb.zero()
                for u, c1 in psi(a):
                    for v, c2 in psi(b):
                        rhs = rhs + treeword_shuffle(u, v).scale(c1 * c2)
                assert lhs == rhs

    def test_treeword_shuffle_in_placement_order(self):
        # tree words of total length <= 5 over four trees, repeated letters
        # included: the terms of the placement enumeration, in its order
        letters = (t(1), t(2), t(1, t(1)), t(2, t(1)))
        for n in range(6):
            for w in itertools.product(letters, repeat=n):
                for i in range(n + 1):
                    u, v = w[:i], w[i:]
                    want = [(TreeWord(x), Fraction(m))
                            for x, m in shuffle_placements(u, v).items()]
                    got = treeword_shuffle(TreeWord(u), TreeWord(v))
                    assert list(got.terms.items()) == want

    def test_injective_on_low_grades(self):
        seen = {}
        for f in forests_up_to(2, 3):
            img = psi(f)
            assert img not in seen.values()
            seen[f] = img


def relabel_tree(tree: Tree, mapping) -> Tree:
    return Tree(
        mapping[tree.label],
        Forest.of(*(relabel_tree(c, mapping) for c in tree.children.trees())),
    )


def relabel_forest(f: Forest, mapping) -> Forest:
    return Forest.of(*(relabel_tree(tree, mapping) for tree in f.trees()))


class TestRelabelingFunctoriality:
    def test_coproduct_commutes_with_label_maps(self):
        # decoration changes are Hopf functorial; exercised on the d=3 cherry
        mapping = {1: 1, 2: 2, 3: 2}
        cherry3 = t(1, t(2, t(3)), t(3, t(2))).as_forest()
        lhs = {}
        for (l, r), c in ck_coproduct(cherry3):
            key = (relabel_forest(l, mapping), relabel_forest(r, mapping))
            lhs[key] = lhs.get(key, 0) + c
        rhs = dict(ck_coproduct(relabel_forest(cherry3, mapping)).terms)
        assert {k: v for k, v in lhs.items() if v} == rhs

    def test_random_forests_commute(self):
        rng = random.Random(12)
        mapping = {1: 2, 2: 1}
        for f in forests_up_to(2, 4):
            if rng.random() < 0.5:
                continue
            lhs = {}
            for (l, r), c in ck_coproduct(f):
                key = (relabel_forest(l, mapping), relabel_forest(r, mapping))
                lhs[key] = lhs.get(key, 0) + c
            rhs = dict(ck_coproduct(relabel_forest(f, mapping)).terms)
            assert {k: v for k, v in lhs.items() if v} == rhs


class TestDeepGradeProperties:
    def test_coassociativity_random_deep_forests(self):
        from hypothesis import given, settings
        from test_symbols import random_forest

        @given(random_forest(d=2, max_grade=8))
        @settings(max_examples=40, deadline=None)
        def check(f):
            cop = ck_coproduct(f)
            lhs = {}
            for (l, r), c in cop:
                for (l1, l2), c2 in ck_coproduct(l):
                    key = (l1, l2, r)
                    lhs[key] = lhs.get(key, 0) + c * c2
            rhs = {}
            for (l, r), c in cop:
                for (r1, r2), c2 in ck_coproduct(r):
                    key = (l, r1, r2)
                    rhs[key] = rhs.get(key, 0) + c * c2
            assert {k: v for k, v in lhs.items() if v} == {
                k: v for k, v in rhs.items() if v
            }

        check()

    def test_antipode_law_random_deep_trees(self):
        from hypothesis import given, settings
        from test_symbols import random_tree

        @given(random_tree(d=2, max_grade=6))
        @settings(max_examples=25, deadline=None)
        def check(tree):
            f = tree.as_forest()
            lhs = ck_coproduct(f).fold(
                lambda l, r: ck_antipode(l).map_basis(
                    lambda z, r=r: LinComb.term(z.mul(r))
                )
            )
            assert lhs.is_zero()  # counit vanishes on positive grades

        check()
