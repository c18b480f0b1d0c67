import dataclasses
import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfpath import roughpath
from hopfpath.hopf_core import concat_deshuffle_instance
from hopfpath.hopf_ck import gl_instance, phi_hat, phi_kernel_basis
from hopfpath.linalg import LinComb
from hopfpath.model_rde import VectorField, check_model, model_from_lift, picard_solve
from hopfpath.roughpath import (
    KernelConditionError,
    PathError,
    PiecewiseLinearPath,
    RoughLift,
    RoughPathConfig,
    branched_lift_fn,
    branched_to_geo,
    check_rough_axioms,
    geo_to_branched,
    kernel_condition_witness,
    q_gamma,
    signature_lift,
    to_fraction,
)
from hopfpath.series import TruncatedElement, homog_norm, is_grouplike, trunc_one
from hopfpath.symbols import EMPTY_FOREST, Forest, Tree, Word, forests, words_up_to

from reference_maps import _forest_segment, _word_segment


W = lambda *ls: Word(ls)


def t(label, *children):
    return Tree(label, Forest.of(*children))


PATH_2D = PiecewiseLinearPath.from_knots(
    [
        (0, (0, 0)),
        (Fraction(1, 4), (1, Fraction(1, 2))),
        (Fraction(1, 2), (Fraction(1, 3), 1)),
        (1, (Fraction(-1, 2), Fraction(3, 2))),
    ]
)
GRID = [Fraction(i, 4) for i in range(5)]


class TestPath:
    def test_needs_two_knots(self):
        with pytest.raises(PathError):
            PiecewiseLinearPath.from_knots([(0, (0,))])

    def test_increasing_times(self):
        with pytest.raises(PathError):
            PiecewiseLinearPath.from_knots([(0, (0,)), (0, (1,))])

    def test_clamping_convention(self):
        assert PATH_2D.position(-5) == PATH_2D.values[0]
        assert PATH_2D.position(7) == PATH_2D.values[-1]

    def test_interpolation_exact(self):
        assert PATH_2D.position(Fraction(1, 8)) == (Fraction(1, 2), Fraction(1, 4))

    def test_csv_round(self):
        csv_text = "t,x1,x2\n0,0,0\n0.5,1,0.25\n1,-1,2\n"
        p = PiecewiseLinearPath.from_csv(io.StringIO(csv_text))
        assert p.dim == 2
        assert p.position(Fraction(1, 2)) == (Fraction(1), Fraction(1, 4))

    def test_csv_header_required(self):
        with pytest.raises(PathError):
            PiecewiseLinearPath.from_csv(io.StringIO("a,b\n1,2\n"))


def holder_norm_estimate(lift: RoughLift, grid, gamma) -> float:
    """sup over grid pairs of ||X_st|| / |t-s|^gamma (empirical, float)."""
    grid = [to_fraction(u) for u in grid]
    gamma = float(to_fraction(gamma))
    best = 0.0
    for i, s in enumerate(grid):
        for t in grid[i + 1 :]:
            dt = abs(float(t - s))
            if dt == 0:
                continue
            best = max(best, homog_norm(lift.eval(s, t)) / dt**gamma)
    return best


def quadrature_level2(path, s, t, i, j, pieces=4) -> float:
    """Midpoint quadrature of int (x_i(r) - x_i(s)) dx_j(r); exact per linear piece."""
    s, t = path.clamp(s), path.clamp(t)
    stops = [s, *(u for u in path.times if s < u < t), t]
    total = 0.0
    xi_s = float(path.position(s)[i - 1])
    for a, b in zip(stops, stops[1:]):
        a, b = float(a), float(b)
        h = (b - a) / pieces
        slope = (
            float(path.position(b)[j - 1]) - float(path.position(a)[j - 1])
        ) / (b - a)
        for k in range(pieces):
            mid = a + (k + 0.5) * h
            total += (float(path.position(mid)[i - 1]) - xi_s) * slope * h
    return total


class TestSignature:
    def test_point_increment(self):
        elt = signature_lift(PATH_2D, 2).eval(0, 1)
        inc = tuple(b - a for a, b in zip(PATH_2D.values[0], PATH_2D.values[-1]))
        assert elt.coeff(W(1)) == inc[0]
        assert elt.coeff(W(2)) == inc[1]

    def test_linear_segment_closed_form(self):
        p = PiecewiseLinearPath.from_knots([(0, (2, -1)), (1, (3, 1))])
        elt = signature_lift(p, 2).eval(0, 1)
        v = (Fraction(1), Fraction(2))
        assert elt.coeff(EMPTY_FOREST if False else W()) == 1
        for i in (1, 2):
            assert elt.coeff(W(i)) == v[i - 1]
            for j in (1, 2):
                assert elt.coeff(W(i, j)) == v[i - 1] * v[j - 1] / 2

    def test_level2_against_quadrature(self):
        for (s, tt) in [(0, 1), (Fraction(1, 8), Fraction(3, 4))]:
            elt = signature_lift(PATH_2D, 2).eval(s, tt)
            for i in (1, 2):
                for j in (1, 2):
                    approx = quadrature_level2(PATH_2D, s, tt, i, j)
                    assert math.isclose(float(elt.coeff(W(i, j))), approx, abs_tol=1e-8)

    def test_degenerate_interval(self):
        lift = signature_lift(PATH_2D, 3)
        assert lift.eval(Fraction(1, 3), Fraction(1, 3)) == trunc_one(3, lift.algebra)

    def test_character_on_random_pairs(self):
        rng = random.Random(2)
        lift = signature_lift(PATH_2D, 4)
        from hopfpath.hopf_core import shuffle_deconcat_instance

        sh = shuffle_deconcat_instance(2)
        for _ in range(10):
            s = Fraction(rng.randint(0, 8), 8)
            u = Fraction(rng.randint(0, 8), 8)
            elt = lift.eval(s, u)
            prod = sh.product_basis(W(1), W(2))
            lhs = sum((c * elt.coeff(w) for w, c in prod), Fraction(0))
            assert lhs == elt.coeff(W(1)) * elt.coeff(W(2))

    def test_grouplike_all_levels(self):
        for level in range(1, 6):
            elt = signature_lift(PATH_2D, level).eval(0, 1)
            assert is_grouplike(elt)[0]


class TestBranchedLift:
    def test_1d_linear_closed_forms(self):
        p = PiecewiseLinearPath.from_knots([(0, (0,)), (2, (2,))])
        lift = branched_lift_fn(p, 3)
        for tt in (Fraction(1, 3), 1, Fraction(3, 2)):
            elt = lift.eval(0, tt)
            assert elt.coeff(t(1).as_forest()) == tt
            assert elt.coeff(t(1, t(1)).as_forest()) == tt * tt / 2
            assert elt.coeff(Forest.of(t(1), t(1))) == tt * tt

    def test_ladder_matches_signature(self):
        br = branched_lift_fn(PATH_2D, 3)
        sig = signature_lift(PATH_2D, 3)
        for s in GRID:
            for u in GRID:
                for w in words_up_to(2, 3):
                    assert br.coeff(s, u, phi_hat(w)) == sig.coeff(s, u, w)

    def test_degenerate_interval(self):
        lift = branched_lift_fn(PATH_2D, 3)
        assert lift.eval(Fraction(3, 4), Fraction(3, 4)) == trunc_one(3, lift.algebra)

    def test_multiplicative_on_forests(self):
        lift = branched_lift_fn(PATH_2D, 4)
        elt = lift.eval(0, Fraction(3, 4))
        a, b = t(1).as_forest(), t(2, t(1)).as_forest()
        assert elt.coeff(a.mul(b)) == elt.coeff(a) * elt.coeff(b)


class TestAxiomChecks:
    def test_signature_passes(self):
        cfg = RoughPathConfig.make(Fraction(2, 5), "geometric")
        report = check_rough_axioms(signature_lift(PATH_2D, 2), cfg, GRID)
        assert report.passed, report.summary()

    def test_branched_passes(self):
        cfg = RoughPathConfig.make(Fraction(2, 5), "branched")
        report = check_rough_axioms(branched_lift_fn(PATH_2D, 2), cfg, GRID)
        assert report.passed, report.summary()

    def test_single_node_ratio_formula(self):
        cfg = RoughPathConfig.make(Fraction(2, 5), "branched")
        lift = branched_lift_fn(PATH_2D, 2)
        report = check_rough_axioms(lift, cfg, GRID)
        expected = 0.0
        for i, s in enumerate(GRID):
            for u in GRID[i + 1 :]:
                dx = abs(float(PATH_2D.position(u)[0] - PATH_2D.position(s)[0]))
                expected = max(expected, dx / float(u - s) ** 0.4)
        assert math.isclose(report.holder_ratios["[]_1"], expected, rel_tol=1e-12)

    def test_corrupted_lift_reports_chen_witness(self):
        base = signature_lift(PATH_2D, 2)

        def tampered(s, u):
            elt = base.eval(s, u)
            if (s, u) == (Fraction(0), Fraction(1, 2)):
                # shift one coefficient; breaks Chen but keeps counit
                return TruncatedElement(elt.value + LinComb.term(W(1, 2)), 2, base.algebra)
            return elt

        broken = RoughLift("geometric", 2, 2, tampered)
        cfg = RoughPathConfig.make(Fraction(2, 5), "geometric")
        report = check_rough_axioms(broken, cfg, GRID)
        assert not report.passed
        failing = {e.law: e.witness for e in report.entries if not e.ok}
        assert "chen" in failing
        assert "(s,u,t)" in failing["chen"]

    def test_lift_off_the_unit_on_the_diagonal_reports_identity_witness(self):
        base = signature_lift(PATH_2D, 2)

        def tampered(s, u):
            elt = base.eval(s, u)
            if s == u == Fraction(1, 2):
                return TruncatedElement(elt.value + LinComb.term(W(1, 2)), 2, base.algebra)
            return elt

        cfg = RoughPathConfig.make(Fraction(2, 5), "geometric")
        report = check_rough_axioms(RoughLift("geometric", 2, 2, tampered), cfg, GRID)
        failing = {e.law: e.witness for e in report.failures()}
        assert failing["identity"] == "X_tt != 1 at t=1/2"

    def test_passing_summary_text(self):
        cfg = RoughPathConfig.make(Fraction(2, 5), "geometric")
        report = check_rough_axioms(signature_lift(PATH_2D, 2), cfg, GRID)
        assert report.summary() == (
            "rough-path check: geometric, gamma=0.4, level=2\n"
            "  identity: ok\n"
            "  group-like: ok\n"
            "  character: ok\n"
            "  chen: ok\n"
            "  inverse: ok\n"
            "  holder-finite: ok\n"
            "  empirical Hölder ratio sup (finite required): 1.7411"
        )

    def test_failing_summary_text(self):
        lift = signature_lift(PATH_2D, 2)
        shift = LinComb.term(W(1, 2))

        def perturbed(s, t):
            elt = lift.eval(s, t)
            if s == t:
                return elt
            return TruncatedElement(elt.value + shift, elt.level, elt.algebra)

        cfg = RoughPathConfig.make(Fraction(2, 5), "geometric")
        report = check_rough_axioms(RoughLift("geometric", 2, 2, perturbed), cfg, GRID)
        assert report.summary() == (
            "rough-path check: geometric, gamma=0.4, level=2\n"
            "  identity: ok\n"
            "  group-like: FAIL  witness: not group-like at (s,t)=(0,1/4); defect term 1 (x) 2\n"
            "  character: FAIL  witness: character fails at (0,1/4) on (1, 2)\n"
            "  chen: FAIL  witness: Chen fails on (s,u,t)=(0,1/4,0)\n"
            "  inverse: FAIL  witness: inverse law fails on (s,t)=(0,1/4)\n"
            "  holder-finite: ok\n"
            "  empirical Hölder ratio sup (finite required): 3.78929"
        )
        data = report.to_json()
        assert data["title"] == "rough-path check: geometric, gamma=0.4, level=2"
        assert data["passed"] is False
        assert [(e["law"], e["ok"]) for e in data["laws"]] == [
            ("identity", True), ("group-like", False), ("character", False),
            ("chen", False), ("inverse", False), ("holder-finite", True),
        ]
        assert data["laws"][3]["witness"] == "Chen fails on (s,u,t)=(0,1/4,0)"
        assert data["laws"][0]["witness"] is None
        assert f"{data['holder_ratio_sup']:.6g}" == "3.78929"

    def test_grid_size_validated(self):
        cfg = RoughPathConfig.make(Fraction(2, 5), "geometric")
        with pytest.raises(ValueError):
            check_rough_axioms(signature_lift(PATH_2D, 2), cfg, [0, 1])

    def test_holder_norm_estimate_finite(self):
        est = holder_norm_estimate(signature_lift(PATH_2D, 2), GRID, Fraction(2, 5))
        assert math.isfinite(est) and est > 0


class TestQGamma:
    def test_base_clause(self):
        for f in [EMPTY_FOREST, t(1).as_forest(), t(1, t(2)).as_forest(), Forest.of(t(1), t(2))]:
            assert q_gamma(f, Fraction(2, 5)) == 1.0

    def test_ladder3_value(self):
        lad3 = t(1, t(1, t(1))).as_forest()
        assert math.isclose(
            q_gamma(lad3, Fraction(2, 5)), 2.0 / (2.0**1.2 - 2.0), rel_tol=1e-9
        )

    def test_multiplicative_random_grade4(self):
        rng = random.Random(6)
        pool2 = forests(2, 2)
        for _ in range(20):
            a, b = rng.choice(pool2), rng.choice(pool2)
            assert math.isclose(
                q_gamma(a.mul(b), Fraction(2, 5)),
                q_gamma(a, Fraction(2, 5)) * q_gamma(b, Fraction(2, 5)),
                rel_tol=1e-9,
            )

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            q_gamma(EMPTY_FOREST, 2)


class TestConversion:
    def test_geo_to_branched_ladder_entries(self):
        sig = signature_lift(PATH_2D, 3)
        conv = geo_to_branched(sig)
        assert conv.coeff(0, 1, t(1, t(2)).as_forest()) == sig.coeff(0, 1, W(2, 1))

    def test_round_trip_on_words(self):
        sig = signature_lift(PATH_2D, 3)
        back = branched_to_geo(geo_to_branched(sig), GRID)
        for w in words_up_to(2, 3):
            assert back.coeff(0, 1, w) == sig.coeff(0, 1, w)

    def test_canonical_branched_satisfies_kernel_condition(self):
        br = branched_lift_fn(PATH_2D, 3)
        assert kernel_condition_witness(br, GRID) is None

    def test_branched_to_geo_matches_signature(self):
        br = branched_lift_fn(PATH_2D, 3)
        geo = branched_to_geo(br, GRID)
        sig = signature_lift(PATH_2D, 3)
        for s in (0, Fraction(1, 4)):
            assert geo.eval(s, 1) == sig.eval(s, 1)

    def test_kernel_violation_detected(self):
        base = branched_lift_fn(PATH_2D, 2)

        def tampered(s, u):
            elt = base.eval(s, u)
            if s != u:
                bump = LinComb.term(t(2, t(1)).as_forest(), 1)
                return type(elt).make(elt.value + bump, 2, base.algebra)
            return elt

        broken = RoughLift("branched", 2, 2, tampered)
        with pytest.raises(KernelConditionError) as err:
            branched_to_geo(broken, GRID)
        assert err.value.value != 0

    @pytest.mark.parametrize("scale", [Fraction(2, 3)])
    def test_witness_is_the_first_violation_in_grid_order(self, scale):
        # the bump is found by the integer scan and paired for the witness
        base = branched_lift_fn(PATH_2D, 2)
        bump = LinComb.term(t(1, t(2)).as_forest()) + LinComb.term(Forest.of(t(1), t(2)), 3)

        def tampered(s, u):
            elt = base.eval(s, u)
            if s < u and s > 0:
                return type(elt).make(elt.value + bump.scale((u - s) * scale), 2, base.algebra)
            return elt

        broken = RoughLift("branched", 2, 2, tampered)
        kernel = phi_kernel_basis(2, 2)
        want = next(
            (x, s, u, v)
            for s in GRID
            for u in GRID
            for x in kernel
            if (v := broken.value(s, u, x)) != 0
        )
        assert want[1:3] == (GRID[1], GRID[2])
        assert kernel_condition_witness(broken, GRID) == want


class TestDegenerateSegments:
    def test_zero_increment_segment_contributes_identity(self):
        p = PiecewiseLinearPath.from_knots(
            [(0, (0, 0)), (Fraction(1, 2), (1, 1)), (1, (1, 1))]
        )
        lift = signature_lift(p, 3)
        assert lift.eval(Fraction(1, 2), 1) == trunc_one(3, lift.algebra)
        cfg = RoughPathConfig.make(Fraction(2, 5), "geometric")
        report = check_rough_axioms(lift, cfg, [0, Fraction(1, 2), Fraction(3, 4), 1])
        assert report.passed


def tree_factorial(tree: Tree) -> int:
    """Product over nodes of the subtree sizes."""
    out = tree.grade
    for child in tree.children.trees():
        out *= tree_factorial(child)
    return out


class TestTreeFactorialOracle:
    def test_unit_speed_line_matches_tree_factorials(self):
        # for x_t = t the tree integral is t^|z| / product of tree factorials
        from hopfpath.symbols import forests_up_to

        p = PiecewiseLinearPath.from_knots([(0, (0,)), (1, (1,))])
        lift = branched_lift_fn(p, 5)
        for tt in (Fraction(1, 3), Fraction(7, 8)):
            elt = lift.eval(0, tt)
            for f in forests_up_to(1, 5):
                denom = 1
                for tree in f.trees():
                    denom *= tree_factorial(tree)
                assert elt.coeff(f) == tt**f.grade / Fraction(denom)

    def test_reverse_orientation_is_group_inverse(self):
        lift = branched_lift_fn(PATH_2D, 3)
        for s, u in [(0, 1), (Fraction(1, 8), Fraction(7, 8))]:
            prod = lift.eval(s, u).mul(lift.eval(u, s))
            assert prod == trunc_one(3, lift.algebra)


class TestLabelCounts:
    """The lift table reads a forest's label counts through ``multiplicative``,
    per tree; they match a node-by-node walk."""

    @staticmethod
    def walk(forest: Forest) -> list[int]:
        out = []
        for tree in forest.trees():
            out.append(tree.label)
            out.extend(TestLabelCounts.walk(tree.children))
        return out

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_counts_match_the_walk(self, d):
        # a table's keys run by grade, so the level-6 table holds every lower level's
        # keys, counts and count indices as prefixes
        table = roughpath._LiftTable(gl_instance(d), 6)
        counts: dict = {}
        count_of = []
        for f in table.keys:
            n = [0] * d
            for i in self.walk(f):
                n[i - 1] += 1
            count_of.append(counts.setdefault(tuple(n), len(counts)))
        assert table.counts == tuple(counts)
        assert table.count_of == tuple(count_of)


class TestSegmentMemo:
    KNOTS = [(0, (0, 0)), (Fraction(1, 2), (1, Fraction(1, 3))), (1, (Fraction(1, 4), 1))]

    @pytest.fixture
    def segment_calls(self, monkeypatch):
        """Record the increments the lifts ask the segment closed forms for."""
        calls = []
        real = roughpath._LiftTable.closed_form

        def counting(table, increment):
            calls.append(increment)
            return real(table, increment)

        monkeypatch.setattr(roughpath._LiftTable, "closed_form", counting)
        return calls

    def test_equal_steps_on_a_line_compute_one_segment(self, segment_calls):
        lift = branched_lift_fn(PiecewiseLinearPath.from_knots([(0, (0,)), (1, (1,))]), 4)
        for k in range(100):
            lift.eval(Fraction(k, 100), Fraction(k + 1, 100))
        assert segment_calls == [(Fraction(1, 100),)]

    def test_an_equal_step_solve_computes_one_segment_and_one_value(self, segment_calls):
        line = PiecewiseLinearPath.from_knots([(0, (0,)), (1, (1,))])
        lift = branched_lift_fn(line, 4)
        sol = picard_solve(line, VectorField.from_spec("linear", 1), Fraction(1),
                           Fraction(1, 5), 4, Fraction(1, 100), lift=lift)
        assert len(sol) == 101
        assert segment_calls == [(Fraction(1, 100),)]
        windows = list(lift.steps(0, Fraction(1, 100), 1))
        assert [t for t, _ in windows] == [t for t, _ in sol[1:]]
        assert all(value is windows[0][1] for _, value in windows)

    @pytest.mark.parametrize("make, segment", [
        (branched_lift_fn, _forest_segment),
        (signature_lift, _word_segment),
    ])
    def test_memo_matches_unmemoized_segments(self, segment_calls, make, segment):
        path = PiecewiseLinearPath.from_knots(self.KNOTS)
        lift = make(path, 3)

        def fresh(a, b):
            increment = tuple(x1 - x0 for x0, x1 in zip(path.position(a), path.position(b)))
            return TruncatedElement.make(segment(increment, 3, 2), 3, lift.algebra)

        grid = [Fraction(k, 8) for k in range(9)]
        for a, b in zip(grid, grid[1:]):
            assert lift.eval(a, b) == fresh(a, b)
            assert lift.eval(b, a) == fresh(b, a)
        # one increment per direction on each of the two linear pieces
        assert len(segment_calls) == len(set(segment_calls)) == 4
        across = (Fraction(1, 3), Fraction(5, 6))
        half = Fraction(1, 2)
        assert lift.eval(*across) == fresh(across[0], half).mul(fresh(half, across[1]))
        assert len(segment_calls) == len(set(segment_calls)) == 6


    @pytest.mark.parametrize("make, segment", [
        (branched_lift_fn, _forest_segment),
        (signature_lift, _word_segment),
    ])
    def test_one_piece_windows_share_one_element(self, make, segment):
        path = PiecewiseLinearPath.from_knots(self.KNOTS)
        lift = make(path, 3)
        increment = tuple(x / 2 for x in path.values[1])
        back = tuple(-x for x in increment)
        quarter, half = Fraction(1, 4), Fraction(1, 2)
        # equal increments in the same piece, forward and back, each window
        # the closed form's values in its term order
        for s, t, v in ((0, quarter, increment), (quarter, half, increment),
                        (half, quarter, back), (quarter, 0, back)):
            got = lift.eval(s, t)
            assert list(got.value) == list(segment(v, 3, 2))
            assert got == TruncatedElement.make(segment(v, 3, 2), 3, lift.algebra)

    @pytest.mark.parametrize("make", [branched_lift_fn, signature_lift])
    def test_factory_eval_is_cached_per_window(self, make):
        lift = make(PiecewiseLinearPath.from_knots(self.KNOTS), 3)
        for s, t in ((0, Fraction(1, 4)), (Fraction(1, 4), Fraction(3, 4)), (1, 1)):
            first = lift.eval(s, t)
            assert lift.eval(s, t) is first
            assert first.value == lift._evaluate(Fraction(s), Fraction(t)).value

    def test_a_lift_needs_an_evaluator(self):
        with pytest.raises(TypeError, match="evaluate"):
            RoughLift("geometric", 2, 2)


class TestScaledChecks:
    """The exact rough-path laws take exact lift values only."""

    def test_float_lift_value_raises(self):
        lift = signature_lift(PATH_2D, 2)

        def floaty(s, t):
            elt = lift.eval(s, t)
            if (s, t) == (Fraction(1, 4), Fraction(1, 2)):
                return TruncatedElement(elt.value.scale(1.0), elt.level, elt.algebra)
            return elt

        cfg = RoughPathConfig.make(Fraction(2, 5), "geometric")
        # the value cannot even be built: a float is not a scalar
        with pytest.raises(TypeError, match="not an exact scalar: 1.0"):
            check_rough_axioms(RoughLift("geometric", 2, 2, floaty), cfg, GRID)

    def test_zero_value_is_not_group_like(self):
        # no defect term: the witness names the counit
        lift = signature_lift(PATH_2D, 2)

        def vanishing(s, t):
            elt = lift.eval(s, t)
            return elt if s == t else TruncatedElement(LinComb.zero(), elt.level, elt.algebra)

        cfg = RoughPathConfig.make(Fraction(2, 5), "geometric")
        report = check_rough_axioms(RoughLift("geometric", 2, 2, vanishing), cfg, GRID)
        failing = {e.law: e.witness for e in report.failures()}
        assert failing["group-like"] == "not group-like at (s,t)=(0,1/4); counit 0"
        assert failing["chen"] == "Chen fails on (s,u,t)=(0,1/4,0)"

    @pytest.mark.parametrize("make", [signature_lift, branched_lift_fn])
    def test_scaled_evaluator_gives_the_report_eval_gives(self, make):
        # a factory lift, read through its own evaluator, and a hand-made lift
        # around another one's eval give one report
        lift = make(PATH_2D, 3)
        cfg = RoughPathConfig.make(Fraction(2, 5), lift.flavor)
        report = check_rough_axioms(lift, cfg, GRID)
        via_eval = RoughLift(lift.flavor, 2, 3, make(PATH_2D, 3).eval)
        assert report.to_json() == check_rough_axioms(via_eval, cfg, GRID).to_json()

    def test_value_outside_the_lift_algebra_raises(self):
        lift = signature_lift(PATH_2D, 3)
        cfg = RoughPathConfig.make(Fraction(2, 5), "geometric")
        with pytest.raises(ValueError, match=r"at \(s,t\)=\(0,0\) is not in the lift's algebra"):
            check_rough_axioms(RoughLift("geometric", 2, 2, lift.eval), cfg, GRID)

    def test_every_grid_reader_raises_for_a_value_outside_the_lift_algebra(self):
        # eval holds the guard, so the model check and the kernel scan
        # raise what check_rough_axioms raises
        lift = branched_lift_fn(PATH_2D, 3)
        wrong = RoughLift("branched", 2, 2, lift.eval)
        cfg = RoughPathConfig.make(Fraction(2, 5), "branched")
        message = r"^the lift value at \(s,t\)=\(0,0\) is not in the lift's algebra at level 2$"
        with pytest.raises(ValueError, match=message):
            check_rough_axioms(wrong, cfg, GRID)
        with pytest.raises(ValueError, match=message):
            check_model(model_from_lift(wrong, cfg.gamma), GRID)
        with pytest.raises(ValueError, match=message):
            kernel_condition_witness(wrong, GRID)


# zero, small, negative and large-denominator increments and knot values
SCALARS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**15),
)
FLAVORS = {
    "geometric": (concat_deshuffle_instance, _word_segment),
    "branched": (gl_instance, _forest_segment),
}


@st.composite
def flavor_dim_level(draw, flavors=tuple(sorted(FLAVORS)), max_level=4):
    return (
        draw(st.sampled_from(flavors)),
        draw(st.integers(min_value=1, max_value=3)),
        draw(st.integers(min_value=1, max_value=max_level)),
    )


@st.composite
def paths_and_windows(draw):
    """A lift's flavor, d and level, knots with equal and distinct values, and a
    window (s, t) at knots, between them or outside the path."""
    flavor, d, level = draw(flavor_dim_level())
    times = draw(
        st.lists(st.fractions(min_value=0, max_value=4, max_denominator=8),
                 min_size=2, max_size=5, unique=True)
    )
    times.sort()
    values = [tuple(draw(SCALARS) for _ in range(d)) for _ in times]
    point = st.one_of(st.sampled_from(times),
                      st.fractions(min_value=-1, max_value=5, max_denominator=16))
    return flavor, d, level, times, values, draw(point), draw(point)


def interpolate(times, values, u):
    u = min(max(u, times[0]), times[-1])
    for t0, t1, x0, x1 in zip(times, times[1:], values, values[1:]):
        if t0 <= u <= t1:
            return tuple(a + (u - t0) / (t1 - t0) * (b - a) for a, b in zip(x0, x1))


def window_increments(times, values, s, t):
    """The increments over the knots between s and t, in the window's order,
    with positions interpolated here; none when the clamped window is empty."""
    s, t = (min(max(u, times[0]), times[-1]) for u in (s, t))
    if s == t:
        return []
    lo, hi = sorted((s, t))
    stops = [s, *sorted((u for u in times if lo < u < hi), reverse=s > t), t]
    points = [interpolate(times, values, u) for u in stops]
    return [tuple(q - p for p, q in zip(x0, x1)) for x0, x1 in zip(points, points[1:])]


def chain_reference(times, values, flavor, level, s, t):
    """The Chen product of the per-term Fraction closed forms over the knots
    between s and t, with positions interpolated here."""
    make_algebra, segment = FLAVORS[flavor]
    d = len(values[0])
    algebra = make_algebra(d)
    acc = trunc_one(level, algebra)
    for increment in window_increments(times, values, s, t):
        acc = acc.mul(TruncatedElement.make(segment(increment, level, d), level, algebra))
    return acc


class TestScaledLifts:
    @given(flavor_dim_level(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_tabled_segment_matches_reference(self, case, data):
        flavor, d, level = case
        make_algebra, segment = FLAVORS[flavor]
        increment = tuple(data.draw(SCALARS) for _ in range(d))
        table = roughpath._lift_table(make_algebra(d), level)
        got = table.comb(table.closed_form(increment))
        want = segment(increment, level, d)
        assert list(got) == list(want)
        assert all(type(c) is Fraction for _, c in got)

    def test_table_lives_in_the_algebra_memo(self):
        algebra = gl_instance(2)
        table = roughpath._lift_table(algebra, 3)
        assert algebra.memo("lift_table")[3] is table
        assert roughpath._lift_table(algebra, 3) is table

    def test_one_table_per_level_serves_closed_forms_and_products(self, fresh_algebras):
        cfg = RoughPathConfig.make(Fraction(1, 4), "branched")
        for level in (2, 3, 3, 4):
            for make in (signature_lift, branched_lift_fn):
                lift = make(PATH_2D, level)
                lift.eval(Fraction(1, 8), Fraction(7, 8))  # closed forms and a Chen product
        check_rough_axioms(branched_lift_fn(PATH_2D, 3), cfg, [0, Fraction(1, 2), 1])
        # the fixture's copies, which only these lifts have used
        for algebra in (roughpath.concat_deshuffle_instance(2), roughpath.gl_instance(2)):
            assert sorted(algebra._memo["lift_table"]) == [2, 3, 4]
            assert "segment_table" not in algebra._memo and "chen_plan" not in algebra._memo

    @given(paths_and_windows())
    @settings(max_examples=150, deadline=None)
    def test_chain_matches_chen_product_of_reference_segments(self, case):
        flavor, d, level, times, values, s, t = case
        path = PiecewiseLinearPath.from_knots(zip(times, values))
        lift = (signature_lift if flavor == "geometric" else branched_lift_fn)(path, level)
        keys = roughpath._lift_table(lift.algebra, level).keys
        for a, b in ((s, t), (t, s)):
            got = lift.eval(a, b)
            want = chain_reference(times, values, flavor, level, a, b)
            assert got == want
            # terms come in basis order, the order of the segment table
            assert list(got.value.terms) == [k for k in keys if k in got.value.terms]
            assert all(type(c) is Fraction for _, c in got.value)
        for u in (*times, s, t):
            x = path.position(u)
            assert x == interpolate(times, values, u)
            assert all(type(c) is Fraction for c in x)


class TestEvalScaled:
    """``eval`` gives its value as integer numerators over one denominator,
    in the canonical form of its Fractions."""

    @staticmethod
    def check(lift, s, t):
        got = lift.eval(s, t).value
        want = LinComb(got.terms)
        assert got == want  # one canonical form, terms and denominator
        assert list(got.nums.items()) == list(want.nums.items())

    @given(paths_and_windows())
    @settings(max_examples=100, deadline=None)
    def test_equals_eval(self, case):
        flavor, d, level, times, values, s, t = case
        path = PiecewiseLinearPath.from_knots(zip(times, values))
        lift = (signature_lift if flavor == "geometric" else branched_lift_fn)(path, level)
        for a, b in ((s, t), (t, s), (s, s)):
            self.check(lift, a, b)

    @pytest.mark.parametrize("make", [signature_lift, branched_lift_fn])
    def test_windows(self, make):
        lift = make(PATH_2D, 3)
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        windows = [
            (Fraction(1, 8), Fraction(7, 8)),  # across two knots
            (Fraction(7, 8), Fraction(1, 8)),  # reversed
            (quarter, quarter),  # s == t
            (quarter, half), (half, 1), (0, 1), (1, quarter),  # ending on knots
            (Fraction(1, 8), quarter), (half, Fraction(3, 4)),  # inside one piece to a knot
            (-2, Fraction(3, 8)), (Fraction(5, 8), 3), (3, -2),  # clamped
            (-2, -1), (2, 5),  # empty once clamped
        ]
        for s, t in windows:
            self.check(lift, s, t)
        assert lift.eval(-2, -1).value == lift.algebra.one()

    def test_a_lift_without_a_scaled_evaluator_reads_eval(self):
        base = branched_lift_fn(PATH_2D, 2)
        lift = RoughLift("branched", 2, 2, base.eval)
        for s, t in ((0, 1), (Fraction(3, 4), Fraction(1, 8)), (Fraction(1, 3), Fraction(1, 3))):
            assert lift.eval(s, t).value == base.eval(s, t).value


@st.composite
def axis_paths(draw, flavors=tuple(sorted(FLAVORS)), max_level=4):
    """A lift's flavor, d and level, a path whose pieces are zero, move one
    coordinate or move all of them, and a window (s, t)."""
    flavor, d, level = draw(flavor_dim_level(flavors, max_level))
    times = draw(
        st.lists(st.fractions(min_value=0, max_value=4, max_denominator=8),
                 min_size=2, max_size=6, unique=True)
    )
    times.sort()
    values = [tuple(draw(SCALARS) for _ in range(d))]
    for _ in times[1:]:
        kind = draw(st.sampled_from(["zero", "axis", "generic"]))
        rise = [Fraction(0)] * d
        if kind == "axis":
            rise[draw(st.integers(min_value=0, max_value=d - 1))] = draw(SCALARS)
        elif kind == "generic":
            rise = [draw(SCALARS) for _ in range(d)]
        values.append(tuple(x + r for x, r in zip(values[-1], rise)))
    point = st.one_of(st.sampled_from(times),
                      st.fractions(min_value=-1, max_value=5, max_denominator=16))
    return flavor, d, level, times, values, draw(point), draw(point)


@st.composite
def walks(draw):
    """A lift's flavor, d and level, a path with zero, axis-aligned and
    generic pieces, and a walk (start, step, end) with start and end at
    knots, inside pieces or outside the path, so the last step may be short;
    the step either lands on a knot past the start after 1 to 4 steps, or is
    any step up to 6, which may outlast a piece or the whole path."""
    flavor, d, level, times, values, s, t = draw(axis_paths())
    assume(s != t)
    start, end = min(s, t), max(s, t)
    later = [u for u in times if u > start]
    if later and draw(st.booleans()):
        step = (draw(st.sampled_from(later)) - start) / draw(st.integers(min_value=1, max_value=4))
    else:
        step = draw(st.fractions(min_value=Fraction(1, 16), max_value=6, max_denominator=16))
    return flavor, d, level, times, values, start, step, end


class TestSteps:
    """A factory lift's walker yields what the window-by-window loop yields."""

    @given(walks())
    @settings(max_examples=150, deadline=None)
    def test_walker_matches_the_window_loop(self, case):
        flavor, d, level, times, values, start, step, end = case
        path = PiecewiseLinearPath.from_knots(zip(times, values))
        lift = (signature_lift if flavor == "geometric" else branched_lift_fn)(path, level)
        plain = RoughLift(flavor, d, level, lift._evaluate)
        got, want = list(lift.steps(start, step, end)), list(plain.steps(start, step, end))
        assert [t for t, _ in got] == [t for t, _ in want]
        assert all(type(t) is Fraction for t, _ in got)
        assert [value for _, value in got] == [value for _, value in want]
        ends, u = [], start
        while u < end:
            u = min(u + step, end)
            ends.append(u)
        assert [t for t, _ in want] == ends
        assert want[0][1] == lift.eval(start, ends[0]).value

    def test_windows_at_knots_across_knots_and_past_the_path(self):
        lift = branched_lift_fn(PATH_2D, 3)
        plain = RoughLift("branched", 2, 3, lift._evaluate)
        for start, step, end in ((0, Fraction(1, 4), 1), (0, Fraction(3, 8), Fraction(7, 8)),
                                 (-1, Fraction(1, 2), 2), (0, 5, 1), (-3, 1, -1)):
            assert list(lift.steps(start, step, end)) == list(plain.steps(start, step, end))
        assert list(lift.steps(1, Fraction(1, 4), 1)) == []
        one = lift.algebra.one()
        assert list(lift.steps(2, 1, 3)) == [(Fraction(3), one)]

    @pytest.mark.parametrize("step", [0, Fraction(-1, 4)])
    def test_step_must_be_positive(self, step):
        lift = branched_lift_fn(PATH_2D, 2)
        for lifted in (lift, RoughLift("branched", 2, 2, lift.eval)):
            with pytest.raises(ValueError, match="step must be positive"):
                lifted.steps(0, step, 1)


def product_fold_reference(times, values, flavor, level, s, t) -> LinComb:
    """A fold of the algebra's ``product`` over the reference closed forms of
    the window's pieces."""
    make_algebra, segment = FLAVORS[flavor]
    d = len(values[0])
    algebra = make_algebra(d)
    acc = algebra.one()
    for increment in window_increments(times, values, s, t):
        acc = algebra.product(acc, segment(increment, level, d), level)
    return acc


def cut_remainders(table, x, y) -> list:
    """The remainders of ``cut_product``'s forest divisions on x and y, the
    forests taken from its plan: each tree's numerator over D = x.den y.den
    summed over its cuts, then each forest's as the product of the forest
    less its last tree and of that tree, divided by D."""
    crowns, trunks, starts, ends, layers, _ = table._cut_plan()
    X, Y, D = dict(zip(x.pos, x.nums)), dict(zip(y.pos, y.nums)), x.den * y.den
    values = [D] + [sum(X.get(a, 0) * Y.get(b, 0) for a, b in zip(crowns[i:j], trunks[i:j]))
                    for i, j in zip(starts, ends)]
    remainders = []
    for rests, lasts in layers:
        layer = [divmod(values[r] * values[l], D) for r, l in zip(rests, lasts)]
        values += [q for q, _ in layer]
        remainders += [r for _, r in layer]
    return remainders


class TestCutChain:
    """Branched Chen chains multiply by admissible cuts
    (``_LiftTable.cut_product``) and give what a fold of the table's
    ``product`` gives: the same positions, numerators and denominator."""

    @staticmethod
    def check(path, level, s, t):
        lift = branched_lift_fn(path, level)
        table = roughpath._lift_table(lift.algebra, level)
        for a, b in ((s, t), (t, s)):
            forms = [table.closed_form(v)
                     for v in window_increments(path.times, path.values, a, b)]
            if not forms:
                continue
            by_cuts = by_rows = forms[0]
            for y in forms[1:]:
                assert not any(cut_remainders(table, by_cuts, y))
                by_cuts, by_rows = table.cut_product(by_cuts, y), table.product(by_rows, y)
                assert by_cuts == by_rows
            got, want = lift.eval(a, b).value, table.comb(by_rows)
            assert list(got.nums.items()) == list(want.nums.items()) and got.den == want.den

    @given(axis_paths(flavors=("branched",), max_level=5))
    @settings(max_examples=100, deadline=None)
    def test_matches_a_fold_of_the_table_product(self, case):
        _, _, level, times, values, s, t = case
        self.check(PiecewiseLinearPath.from_knots(zip(times, values)), level, s, t)

    def test_level_6_in_two_dimensions(self):
        self.check(PATH_2D, 6, Fraction(1, 8), Fraction(7, 8))


@pytest.fixture
def fresh_algebras(monkeypatch):
    """The lifts' algebras as copies with empty memos, so that each test
    starts with no lift table; calling the fixture's value makes new copies
    for the lifts made after it."""
    made: dict = {}

    def copies(make):
        return lambda d: made.setdefault((make, d), dataclasses.replace(make(d)))

    monkeypatch.setattr(roughpath, "concat_deshuffle_instance", copies(concat_deshuffle_instance))
    monkeypatch.setattr(roughpath, "gl_instance", copies(gl_instance))
    return made.clear


# each piece moves one coordinate: 1, 2, 3, then 1 again
AXIS_PATH = PiecewiseLinearPath.from_knots(
    [(0, (0, 0, 0)), (Fraction(1, 4), (2, 0, 0)), (Fraction(1, 2), (2, Fraction(-1, 3), 0)),
     (Fraction(3, 4), (2, Fraction(-1, 3), Fraction(5, 2))),
     (1, (Fraction(1, 2), Fraction(-1, 3), Fraction(5, 2)))]
)


class TestChenPlan:
    """Multi-piece values multiply on the lift table's positions
    (``roughpath._LiftTable``)."""

    @given(axis_paths())
    @settings(max_examples=150, deadline=None)
    def test_matches_a_fold_of_scaled_product(self, case):
        flavor, d, level, times, values, s, t = case
        path = PiecewiseLinearPath.from_knots(zip(times, values))
        lift = (signature_lift if flavor == "geometric" else branched_lift_fn)(path, level)
        for a, b in ((s, t), (t, s)):
            want = product_fold_reference(times, values, flavor, level, a, b)
            assert lift.eval(a, b).value == want

    @pytest.mark.parametrize("make", [signature_lift, branched_lift_fn])
    def test_term_order_does_not_depend_on_earlier_evaluations(self, make, fresh_algebras):
        window = (Fraction(1, 8), Fraction(7, 8))
        first = list(make(PATH_2D, 3).eval(*window).value.nums)  # on a cold plan
        fresh_algebras()
        # other paths and levels first: rows for other supports and grades
        make(AXIS_PATH, 3).eval(0, 1)
        make(PiecewiseLinearPath.from_knots([(0, (0, 0)), (1, (0, 1)), (2, (1, 1))]), 3).eval(0, 2)
        make(PATH_2D, 4).eval(*window)
        make(PATH_2D, 2).eval(*window)
        lift = make(PATH_2D, 3)
        again = list(lift.eval(*window).value.nums)
        keys = roughpath._lift_table(lift.algebra, 3).keys
        assert again == first == [k for k in keys if k in first]
        assert list(lift.eval(*window).value.terms) == first

    @pytest.mark.parametrize("flavor", ["geometric", "branched"])
    def test_rows_only_for_pairs_of_nonzero_terms(self, flavor, monkeypatch):
        make_algebra, segment = FLAVORS[flavor]
        base = make_algebra(3)
        computed = set()

        def recording(a, b):
            computed.add((a, b))
            return base.product_basis(a, b)

        algebra = dataclasses.replace(base, product_basis=recording)
        name = "concat_deshuffle_instance" if flavor == "geometric" else "gl_instance"
        monkeypatch.setattr(roughpath, name, lambda d: algebra)
        level = 3
        make = signature_lift if flavor == "geometric" else branched_lift_fn
        lift = make(AXIS_PATH, level)
        times, values = AXIS_PATH.times, AXIS_PATH.values
        windows = [(0, 1), (1, 0), (Fraction(1, 8), Fraction(7, 8))]
        visited = set()  # the pairs of nonzero terms whose grades fit the level
        for s, u in windows:
            lift.eval(s, u)
            acc = LinComb.term(base.unit)
            for increment in window_increments(times, values, s, u):
                piece = segment(increment, level, 3)
                visited |= {(a, b) for a, _ in acc for b, _ in piece if a.grade + b.grade <= level}
                acc = base.product(acc, piece, level)
        if flavor == "branched":
            # the chain multiplies by admissible cuts and reads no product;
            # the Chen law of check_rough_axioms multiplies on the table's rows
            assert not computed
            self.check_rows_of_the_chen_law(lift, level, monkeypatch)
            return
        assert computed and computed <= visited
        # no piece after the one moving coordinate 2 moves it again, so an
        # eager row of the letter 2 would hold a pair whose right term vanishes
        two = Word((2,))
        assert (two, two) not in visited
        assert any(a is two for a, _ in computed)

    @staticmethod
    def check_rows_of_the_chen_law(lift, level, monkeypatch):
        """check_rough_axioms' Chen law fills table rows for pairs of nonzero
        terms of its operands whose grades fit the level, and for no other."""
        filled = set()
        row = roughpath._LiftTable._row

        def recording(table, p, fit):
            filled.update((table.keys[p], table.keys[q]) for q in fit)
            return row(table, p, fit)

        monkeypatch.setattr(roughpath._LiftTable, "_row", recording)
        grid = [0, Fraction(1, 8), Fraction(7, 8), 1]
        cfg = RoughPathConfig.make(Fraction(1, level + 1), "branched")
        assert check_rough_axioms(lift, cfg, grid).passed
        X = [[lift.eval(s, u).value.nums for u in grid] for s in grid]
        visited = {(a, b) for i in range(len(grid)) for j in range(len(grid))
                   for k in range(len(grid)) for a in X[i][j] for b in X[j][k]
                   if a.grade + b.grade <= level}
        assert filled and filled <= visited
        assert any(a is t(2).as_forest() for a, _ in filled)
