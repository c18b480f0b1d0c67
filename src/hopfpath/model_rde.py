"""Structure-group actions, models built from rough paths, and rough ODEs.

The model space for the rough ODE splits into a function-like sector spanned
by the unit and single trees and a dotted sector of forest-times-noise
symbols.  The Picard step takes the abstract fixed point on symbol
coefficients in closed form (the elementary-differential recursion over trees)
and advances the state by evaluating the branched lift, which realizes the
Heaviside-kernel convolution exactly on piecewise-linear drivers.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .hopf_core import CheckReport
from .hopf_ck import ck_coproduct, ck_instance, forest_product
from .linalg import LinComb, TensorComb, _accumulate, _coprime_fraction
from .roughpath import PiecewiseLinearPath, RoughLift, branched_lift_fn, to_fraction
from .series import TruncatedElement, is_grouplike
from .symbols import EMPTY_FOREST, Forest, Interned, forests_up_to, trees
from .work import charge


class ModelError(ValueError):
    # the samples a solve computed before it failed, set by picard_solve
    samples: Sequence = ()


class SectorError(ValueError):
    pass


# ---------------------------------------------------------------------------
# symbols of the rough ODE model space


class DottedForest(Interned):
    """A forest juxtaposed with a noise symbol: the derivative-sector basis."""

    __slots__ = ("forest", "letter", "grade")

    def __new__(cls, forest: Forest, letter: int):
        if letter < 1:
            raise ValueError("noise letter must be >= 1")
        ident = (forest, int(letter))
        return cls._table.get(ident) or cls._build(
            ident, forest=forest, letter=ident[1], grade=forest.grade + 1
        )

    def sort_key(self):
        return (self.grade, self.letter, self.forest.sort_key())

    def __repr__(self) -> str:
        return f"DottedForest({self.forest!r}, {self.letter})"

    def __str__(self) -> str:
        if self.forest.is_empty():
            return f"Xi_{self.letter}"
        return f"{self.forest}*Xi_{self.letter}"


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


def in_dotted_sector(x: LinComb) -> bool:
    return all(isinstance(b, DottedForest) for b in x.support())


def abstract_integration(x: LinComb) -> LinComb:
    """Symbol-level antiderivative: z*Xi_i goes to the grafted tree |z|_i."""
    if not in_dotted_sector(x):
        raise SectorError("abstract integration is defined on the dotted sector")
    return x.map_basis(
        lambda b: LinComb.term(b.forest.graft(b.letter).as_forest())
    )


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


def comodule_coproduct(x: LinComb) -> TensorComb:
    """Coaction of the forest coalgebra on the model space (mixed tensor)."""

    def part(b):
        if isinstance(b, Forest):
            return ck_coproduct(b)
        if isinstance(b, DottedForest):
            return (((l, DottedForest(r, b.letter)), m) for (l, r), m in ck_coproduct(b.forest))
        raise SectorError(f"not a model-space symbol: {b!r}")

    return TensorComb.linear(x, part)


# ---------------------------------------------------------------------------
# characters and structure actions


@dataclass(frozen=True)
class Character:
    """A multiplicative functional on forests, tabulated up to a grade bound."""

    values: dict
    grade_bound: int

    @classmethod
    def from_element(cls, g: TruncatedElement) -> "Character":
        ok, _ = is_grouplike(g)
        if not ok:
            raise ModelError("characters come from group-like elements")
        return cls(g.value.terms, g.level)

    @classmethod
    def counit(cls) -> "Character":
        # total on every grade: 1 on the unit, 0 elsewhere
        return cls({EMPTY_FOREST: Fraction(1)}, sys.maxsize)

    def __call__(self, x) -> Fraction:
        if isinstance(x, LinComb):
            return sum((c * self(b) for b, c in x), Fraction(0))
        if x.grade > self.grade_bound and x not in self.values:
            raise ModelError(f"character table has no entry for grade {x.grade}")
        return self.values.get(x, Fraction(0))

    def multiplicativity_witness(self, d: int, max_grade: int):
        if self(EMPTY_FOREST) != 1:
            return "g(1) != 1"
        pool = forests_up_to(d, max_grade)
        for a in pool:
            for b in pool:
                if a.grade + b.grade > max_grade:
                    continue
                if self(a.mul(b)) != self(a) * self(b):
                    return f"g not multiplicative on ({a}, {b})"
        return None


def struct_action(g: Character, x: LinComb, flavor: str = "left") -> LinComb:
    """(g (x) id) Delta (left) or (id (x) g) Delta (right) on forests."""

    def on_basis(b) -> LinComb:
        if not isinstance(b, Forest):
            raise SectorError("struct_action acts on forest combinations")
        if flavor == "left":
            return ck_coproduct(b).fold(lambda l, r: LinComb.term(r, g(l)))
        if flavor == "right":
            return ck_coproduct(b).fold(lambda l, r: LinComb.term(l, g(r)))
        raise ValueError(f"unknown flavor {flavor!r}")

    return x.map_basis(on_basis)


def comodule_action(g: Character, x: LinComb) -> LinComb:
    """(g (x) id) applied to the comodule coproduct; acts on the full model space."""
    return comodule_coproduct(x).fold(lambda l, r: LinComb.term(r, g(l)))


def structure_map_witness(
    gamma_map: Callable[[LinComb], LinComb], d: int, max_grade: int, gamma
) -> str | None:
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


# ---------------------------------------------------------------------------
# models from lifts


@dataclass
class Model:
    """The (evaluation, translation) pair realized by a branched rough path."""

    lift: RoughLift
    gamma: Fraction
    level: int
    # one Character per (s, t), so each lift value is checked group-like once
    _characters: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the images Gamma_st(b) per (s, t), each computed on first use
    _gamma_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def pi(self, s, x: LinComb, t) -> Fraction:
        """Evaluation map: the lift functional applied at (s, t)."""
        return self.lift.value(s, t, x)

    def character(self, s, t) -> Character:
        g = self._characters.get((s, t))
        if g is None:
            g = self._characters[(s, t)] = Character.from_element(self.lift.eval(s, t))
        return g

    def gamma_row(self, s, t, b: Forest) -> LinComb:
        """Gamma_st(b) = (g_ts (x) id) Delta b for one forest b, cached per (s, t)."""
        rows = self._gamma_rows.setdefault((s, t), {})
        image = rows.get(b)
        if image is None:
            if not isinstance(b, Forest):
                raise SectorError("struct_action acts on forest combinations")
            g = self.character(t, s)
            image = LinComb.linear(ck_coproduct(b), lambda lr: ((lr[1], g(lr[0])),))
            rows[b] = image
        return image

    def gamma_st(self, s, t) -> Callable[[LinComb], LinComb]:
        """The left structure action of g_ts, applied through the cached rows;
        ``struct_action`` is the reference it is tested against."""
        self.character(t, s)  # a lift value that is not group-like raises here
        return lambda x: x.map_basis(lambda b: self.gamma_row(s, t, b))

    def gamma_st_model(self, s, t) -> Callable[[LinComb], LinComb]:
        """Translation on the full model space, through the comodule coaction."""
        g = self.character(t, s)
        return lambda x: comodule_action(g, x)


def model_from_lift(lift: RoughLift, gamma, grid: Sequence | None = None) -> Model:
    """Wrap a branched lift as a model, optionally verifying axioms on a grid."""
    gamma = to_fraction(gamma)
    if lift.flavor != "branched":
        raise ModelError("models are built from branched lifts")
    if grid is not None:
        from .roughpath import RoughPathConfig, check_rough_axioms

        cfg = RoughPathConfig.make(gamma, "branched")
        report = check_rough_axioms(lift, cfg, grid)
        if not report.passed:
            bad = [e for e in report.entries if not e.ok]
            raise ModelError(f"lift fails rough-path axioms: {bad[0].witness}")
    return Model(lift=lift, gamma=gamma, level=lift.level)


def _gamma_table(lift: RoughLift, grid: list) -> tuple[list, Callable]:
    """The lift's values on the grid and the structure-group rows they give,
    in integers.

    X[i][j] is the value at (grid[i], grid[j]), read once by
    ``RoughLift.grid_values``, which raises ValueError naming (s, t) for a
    value outside the lift's algebra.  row(i, j, b) is
    Gamma_st(b) = (X_ts (x) id) Delta b for (s, t) = (grid[i], grid[j]), as
    unreduced integer numerators over X[j][i].den, built on first use and
    kept per grid index.  Building it checks X_ts group-like
    (``series.is_grouplike``) at its first use as a character, as
    ``Model.character`` does, and raises ModelError as that does for a value
    off the group or for a grade past the lift level with no value.
    """
    level, algebra = lift.level, lift.algebra
    cop = ck_instance(lift.dim).coproduct_row
    X = lift.grid_values(grid)
    grouplike = [[False] * len(grid) for _ in grid]
    rows = [[{} for _ in grid] for _ in grid]

    def character(i: int, j: int) -> dict:
        x = X[i][j]
        if not grouplike[i][j]:
            if not is_grouplike(TruncatedElement(x, level, algebra))[0]:
                raise ModelError("characters come from group-like elements")
            grouplike[i][j] = True
        return x.nums

    def row(i: int, j: int, b: Forest) -> dict:
        image = rows[i][j].get(b)
        if image is None:
            g = character(j, i)
            charge(8 * len(cop(b)))
            for (l, _), _ in cop(b):
                if l not in g and l.grade > level:
                    raise ModelError(f"character table has no entry for grade {l.grade}")
            image = rows[i][j][b] = _accumulate(
                (((r, c),), g[l]) for (l, r), c in cop(b) if l in g)
        return image

    return X, row


def check_model(model: Model, grid: Sequence, max_grade: int | None = None) -> CheckReport:
    """Exact verification of the model identities on all grid tuples.

    The laws work in integers (``_gamma_table``): each lift value is read
    once per grid pair as numerators over one denominator, and each Gamma
    row is an int dict over the denominator of its character, keyed by grid
    index; the Model's LinComb caches are not read.  Unit evaluation reads
    the unit's numerator, translation is one integer dot product
    cross-multiplied with X_st, the cocycle composes rows in integers and
    compares canonical forms, intertwining compares two tensor
    dicts over one denominator, and grade lowering reads a row's keys and its
    own coefficient.  A lift value is checked group-like at its first use as
    a character, so a value off the group raises ModelError; a lift value
    outside the lift's algebra raises ValueError naming (s, t).
    """
    grid = [to_fraction(u) for u in grid]
    max_grade = model.level if max_grade is None else max_grade
    basis = forests_up_to(model.lift.dim, max_grade)
    cop = ck_instance(model.lift.dim).coproduct_row
    X, row = _gamma_table(model.lift, grid)
    points = list(enumerate(grid))
    report = CheckReport("model check")

    def evaluation_failures():
        for i, s in points:
            if X[i][0].nums.get(EMPTY_FOREST) != X[i][0].den:
                yield f"Pi_s 1 != 1 at s={s}"

    report.run("unit-evaluation", evaluation_failures())

    def translation_failures():
        # Pi_u Gamma_us = Pi_s, tested coefficient-wise on the basis:
        # <Gamma_us b, X_ut> den_st = X_st(b) den_su den_ut
        for i, s in points:
            for k, u in points:
                for j, t in points:
                    charge(8 * len(basis))
                    ut, st, den_st = X[k][j].nums, X[i][j].nums, X[i][j].den
                    scale = X[i][k].den * X[k][j].den
                    for b in basis:
                        lhs = sum(c * ut.get(f, 0) for f, c in row(k, i, b).items())
                        if lhs * den_st != st.get(b, 0) * scale:
                            yield f"Pi_u Gamma_us != Pi_s at (s,u,t)=({s},{u},{t}), {b}"
                            return

    report.run("evaluation-translation", translation_failures())

    def cocycle_failures():
        # Gamma_su Gamma_ut b over den_us den_tu against Gamma_st b over den_ts
        for i, s in points:
            for k, u in points:
                for j, t in points:
                    charge(24 * len(basis))
                    scale, den = X[k][i].den * X[j][k].den, X[j][i].den
                    for b in basis:
                        lhs = _accumulate((row(i, k, f).items(), c)
                                          for f, c in row(k, j, b).items())
                        if LinComb.from_nums(lhs, scale) != LinComb.from_nums(row(i, j, b), den):
                            yield f"cocycle fails at ({s},{u},{t}) on {b}"
                            return

    report.run("cocycle", cocycle_failures())

    def intertwining_failures():
        # Delta Gamma = (Gamma (x) id) Delta, both sides over den_ts
        for i, s in points:
            for j, t in points:
                charge(24 * len(basis))
                for b in basis:
                    lhs = _accumulate((cop(f), c) for f, c in row(i, j, b).items())
                    rhs = _accumulate(((((f, r), c2) for f, c2 in row(i, j, l).items()), c)
                                      for (l, r), c in cop(b))
                    if lhs != rhs:
                        yield f"intertwining fails at ({s},{t}) on {b}"
                        return

    report.run("coproduct-intertwining", intertwining_failures())

    def grading_failures():
        for i, s in points:
            for j, t in points:
                charge(4 * len(basis))
                den = X[j][i].den
                for b in basis:
                    image = row(i, j, b)
                    if b.grade and (image.get(b) != den
                                    or any(f.grade >= b.grade for f in image if f is not b)):
                        yield f"Gamma does not lower grade at ({s},{t}) on {b}"
                        return

    report.run("grade-lowering", grading_failures())
    return report


# ---------------------------------------------------------------------------
# vector fields


class ScalarField:
    """A scalar function of the solution with derivatives up to some order.

    ``derivatives`` is either a finite table [f, f', f'', ...] or a maker
    function n -> n-th derivative for closed-form fields.  ``coeffs``, when
    given, are exact polynomial coefficients (ints or Fractions) c_0, c_1, ...
    of f(y) = sum_k c_k y^k, which the derivatives must agree with; an exact
    Picard step then reads them instead of the derivatives
    (``_polynomial_plan``).  None for any other field.
    """

    def __init__(self, derivatives, order: int | None = None, name: str = "f",
                 coeffs: Sequence | None = None):
        if callable(derivatives):
            self._maker = derivatives
        else:
            stack = list(derivatives)
            self._maker = lambda n: stack[n]
            order = len(stack) - 1 if order is None else order
        self.order = order  # the highest derivative order, None for unlimited
        self.name = name
        self.coeffs = None if coeffs is None else tuple(coeffs)

    def derivative(self, n: int) -> Callable:
        if self.order is not None and n > self.order:
            raise ModelError(
                f"vector field {self.name!r} offers derivatives up to order "
                f"{self.order}, needed {n}"
            )
        return self._maker(n)

    def __call__(self, y):
        return self._maker(0)(y)


def constant_field(c) -> ScalarField:
    c = c if isinstance(c, (int, Fraction)) else float(c)

    def deriv(n):
        return (lambda y: c) if n == 0 else (lambda y: 0)

    return ScalarField(deriv, name=f"const:{c}", coeffs=None if type(c) is float else (c,))


def identity_field() -> ScalarField:
    def deriv(n):
        if n == 0:
            return lambda y: y
        if n == 1:
            return lambda y: 1
        return lambda y: 0

    return ScalarField(deriv, name="linear", coeffs=(0, 1))


def polynomial_field(*coeffs) -> ScalarField:
    cs = [Fraction(c) if isinstance(c, (int, str)) else c for c in coeffs]

    def deriv(n):
        # c_k k!/(k-n)! for k >= n, and for a float state their floats: a
        # Fraction times a float is the Fraction's float times it
        exact = [cs[k] * math.perm(k, n) for k in range(n, len(cs))]
        floats = [float(w) if isinstance(w, Fraction) else w for w in exact]

        def ev(y):
            total = 0
            for e, w in enumerate(floats if type(y) is float else exact):
                total = total + w * y**e
            return total

        return ev

    exact = all(isinstance(c, Fraction) for c in cs)
    return ScalarField(deriv, name="poly:" + ",".join(str(c) for c in coeffs),
                       coeffs=cs if exact else None)


def sine_field() -> ScalarField:
    cycle = [math.sin, math.cos, lambda y: -math.sin(y), lambda y: -math.cos(y)]

    def deriv(n):
        return lambda y: cycle[n % 4](float(y))

    return ScalarField(deriv, name="sin")


@dataclass(frozen=True)
class VectorField:
    components: tuple[ScalarField, ...]

    @classmethod
    def uniform(cls, f: ScalarField, d: int) -> "VectorField":
        return cls(tuple([f] * d))

    @classmethod
    def from_spec(cls, spec: str, d: int) -> "VectorField":
        if spec.startswith("const"):
            value = spec.split(":", 1)[1] if ":" in spec else "1"
            return cls.uniform(constant_field(to_fraction(value)), d)
        if spec == "linear":
            return cls.uniform(identity_field(), d)
        if spec.startswith("poly:"):
            coeffs = [to_fraction(c) for c in spec.split(":", 1)[1].split(",")]
            return cls.uniform(polynomial_field(*coeffs), d)
        if spec == "sin":
            return cls.uniform(sine_field(), d)
        raise ValueError(f"unknown vector-field spec {spec!r}")

    @property
    def dim(self) -> int:
        return len(self.components)


# ---------------------------------------------------------------------------
# composition with a function (truncated Taylor series in the sector)


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


# ---------------------------------------------------------------------------
# Picard solver


def picard_solve(
    path: PiecewiseLinearPath,
    field: VectorField,
    y0,
    gamma,
    level: int,
    step,
    T=None,
    lift: RoughLift | None = None,
) -> list[tuple[Fraction, object]]:
    """Step-local Picard solve of dy = sum_i f_i(y) dx^i.

    Each step takes the fixed point of the abstract Picard map at the step
    base in closed form (``_picard_step_coefficients``: one pass over trees up
    to ``level``) and advances the state by evaluating those coefficients
    against the exact branched lift over the step, which realizes the kernel
    convolution without quadrature.  The steps read the lift values as
    integer numerators over one denominator from ``RoughLift.steps``: a
    factory lift walks the knots once, with one value per linear piece and
    step length, and any other lift is read window by window through
    ``RoughLift.eval``.  A lift that is not branched, of another
    dimension than the path or below ``level`` raises ValueError.
    An exact state meets a field with exact polynomial components
    (``ScalarField.coeffs``: the const, linear and poly fields) through a plan
    made once per solve (``_polynomial_plan``): each step is one integer
    polynomial in the state, evaluated by Horner and reduced by one gcd with
    a small operand (``_exact_step``), the Fraction of the sum of
    Fraction products.  Every other step, exact or float, has the value and
    bits of that sum, with floats as they come; it runs from one plan per
    solve (``_step_function``), which takes each component's derivatives
    once.  An exact state that outgrows ``_EXACT_STATE_BITS`` continues as a
    float (``_demote_if_huge``); a polynomial step whose exact result is
    certain to outgrow it gives that float without the exact result
    (``_float_past_cap``).  A ModelError raised during the steps carries the
    samples computed so far in ``samples``.
    """
    gamma = to_fraction(gamma)
    if not 0 < gamma < 1:
        raise ValueError("gamma must be in (0, 1)")
    if level < 1:
        raise ValueError("level must be >= 1")
    step = to_fraction(step)
    if step <= 0:
        raise ValueError("step must be positive")
    if field.dim != path.dim:
        raise ValueError(f"vector field has {field.dim} components, path dim {path.dim}")
    for comp in field.components:
        if comp.order is not None and comp.order < level - 1:
            raise ModelError(
                f"insufficient derivative order: need {level - 1}, have {comp.order}"
            )
    if lift is None:
        lift = branched_lift_fn(path, level)
    elif lift.flavor != "branched" or lift.dim != path.dim or lift.level < level:
        raise ValueError(
            f"the solve needs a branched lift of dim {path.dim} and level >= {level}, "
            f"got a {lift.flavor} lift of dim {lift.dim} and level {lift.level}"
        )
    start = path.times[0]
    end = path.times[-1] if T is None else to_fraction(T)
    if end <= start:
        raise ValueError("T must exceed the path start time")
    if end > path.times[-1]:
        raise ValueError(f"T={end} is past the last knot of the path, t={path.times[-1]}")

    plan = _polynomial_plan(field, level)
    if plan is not None:
        # a state of at most this many bits skips _float_past_cap (see there)
        small = _EXACT_STATE_BITS // (4 * max(plan[2], 1))
    picard_step = _step_function(field, level)
    step_trees = len(_step_plan(field.dim, level))
    samples: list[tuple[Fraction, object]] = [(start, y0)]
    y = y0
    try:
        if isinstance(y, float) and not math.isfinite(y):
            raise ModelError(f"non-finite state at t={float(start)}")
        for t, value in lift.steps(start, step, end):
            try:
                if plan is not None and isinstance(y, (int, Fraction)):
                    bits = y.numerator.bit_length() + y.denominator.bit_length()
                    charge(len(plan[1]) + bits // 32)  # a term per plan row, Horner on the bits
                    a, scale = _step_polynomial(plan, value.nums), plan[0] * value.den
                    y_next = None
                    if bits > small:
                        y_next = _float_past_cap(a, scale, y)
                    if y_next is None:
                        y_next = _exact_step(a, scale, y)
                else:
                    charge(3 * step_trees)
                    y_next = picard_step(y, value.nums, value.den)
            except OverflowError:
                raise ModelError(f"non-finite state at t={float(t)}") from None
            if isinstance(y_next, float) and not math.isfinite(y_next):
                raise ModelError(f"non-finite state at t={float(t)}")
            y_next = _demote_if_huge(y_next)
            samples.append((t, y_next))
            y = y_next
    except ModelError as exc:
        exc.samples = samples
        raise
    return samples


_EXACT_STATE_BITS = 1 << 16


def _demote_if_huge(y):
    """Fall back to floats once exact states outgrow a fixed bit budget:
    a Fraction of more than ``_EXACT_STATE_BITS`` bits in numerator and
    denominator together becomes its float, correctly rounded.

    Affine dynamics keep denominators growing linearly and stay exact; truly
    nonlinear ones would compound them exponentially, so the state degrades to
    the approximate scalar mode instead.  ``_float_past_cap`` gives the same
    float for a polynomial step without its exact result.
    """
    if isinstance(y, Fraction):
        size = y.numerator.bit_length() + y.denominator.bit_length()
        if size > _EXACT_STATE_BITS:
            try:
                return float(y)
            except OverflowError:
                raise ModelError("state overflows the floating range") from None
    return y


@functools.lru_cache(maxsize=None)
def _step_plan(d: int, level: int) -> tuple:
    """The trees of grades 1..level in grade order, so children precede
    parents, as rows (tree, its forest, label - 1, number of children,
    ((child, m, m!), ...)): what each Picard step reads of a tree."""
    return tuple(
        (tree, tree.as_forest(), tree.label - 1, tree.children.tree_count(),
         tuple((child, m, math.factorial(m)) for child, m in tree.children.items))
        for g in range(1, level + 1)
        for tree in trees(d, g)
    )


def _picard_step_coefficients(field: VectorField, y, level: int) -> dict:
    """Fixed point of Y = y 1 + sum_i I(f_i(Y) Xi_i), in one pass over trees.

    Its coefficients are the elementary differentials of branched rough paths
    (Gubinelli, "Ramification of rough paths", JDE 2010; Hairer and Kelly,
    "Geometric versus non-geometric rough paths", 2015), with k = m_1+...+m_r:

        c(|t_1^m_1 ... t_r^m_r|_i) = f_i^(k)(y) * prod_j c(t_j)^m_j / m_j!

    Trees come in grade order (``_step_plan``), so children precede parents.
    Returns EMPTY_FOREST -> y plus every single-tree forest with non-zero
    coefficient.  The solve's steps run ``_step_function`` and
    ``_polynomial_plan``; this is the reference they are tested against.
    """
    derivs = [[comp.derivative(n)(y) for n in range(level)] for comp in field.components]
    on_tree: dict = {}
    coeffs: dict = {EMPTY_FOREST: y}
    for tree, forest, i, k, children in _step_plan(field.dim, level):
        c = derivs[i][k]
        for child, m, fact in children:
            if not c:
                break
            c_child = on_tree.get(child, 0)
            c = c * c_child if m == 1 else c * c_child**m / fact
        if c:
            on_tree[tree] = c
            coeffs[forest] = c
    return coeffs


def _step_function(field: VectorField, level: int) -> Callable:
    """The step sum_tau c(tau) X_st(tau) as a function of (y, nums, den),
    made once per solve, with X_st given as integer numerators over den and
    summed in the order and with the operations of the Fraction/float chain:
    a float c meets n / den, which rounds as the float of the Fraction n / den
    does, and an exact c meets that Fraction, so an exact state and field
    give that chain's Fraction.

    Each component's derivative callables are taken once, and the recursion
    of ``_picard_step_coefficients`` walks ``_step_plan`` with each child
    read by its index there, with the same operations in the same order.
    The step sums the same terms in the same order with ``sum``, so it has
    the value and the bits of the sum over ``_picard_step_coefficients``.
    """
    derivatives = [[comp.derivative(n) for n in range(level)] for comp in field.components]
    plan = _step_plan(field.dim, level)
    at = {row[0]: j for j, row in enumerate(plan)}
    rows = tuple((forest, i, k, tuple((at[child], m, fact) for child, m, fact in children))
                 for _, forest, i, k, children in plan)

    def step(y, nums: dict, den: int):
        derivs = [[f(y) for f in row] for row in derivatives]
        on_tree = []  # per row, its tree's coefficient, 0 where it vanishes
        terms = [(EMPTY_FOREST, y)]
        for forest, i, k, children in rows:
            c = derivs[i][k]
            for j, m, fact in children:
                if not c:
                    break
                c = c * on_tree[j] if m == 1 else c * on_tree[j]**m / fact
            on_tree.append(c or 0)
            if c:
                terms.append((forest, c))
        return sum(
            c * (nums.get(f, 0) / den) if type(c) is float else c * Fraction(nums.get(f, 0), den)
            for f, c in terms
        )

    return step


def _polynomial_plan(field: VectorField, level: int) -> tuple | None:
    """The step coefficients c(tau) of a field with exact polynomial
    components, as integer polynomials in the state over one common
    denominator.

    The recursion of ``_picard_step_coefficients`` runs once on integer
    coefficient lists over unreduced denominators, the derivatives read off
    ``ScalarField.coeffs``.  Returns (C, rows, top): rows of
    (forest, ((j, n_j), ...)) with c(forest)(y) = sum_j n_j y^j / C,
    EMPTY_FOREST -> y among them, and top the highest degree; None when a
    component has no ``coeffs``.
    """
    derivs = []
    for comp in field.components:
        if comp.coeffs is None:
            return None
        den = math.lcm(*(c.denominator for c in comp.coeffs))
        poly = [c.numerator * (den // c.denominator) for c in comp.coeffs]
        while poly and not poly[-1]:
            poly.pop()
        row = []
        for _ in range(level):
            row.append((poly, den))
            poly = [j * c for j, c in enumerate(poly)][1:]
        derivs.append(row)

    def mul(a: list, b: list) -> list:  # trimmed, so the product is too
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, z in enumerate(b):
                out[i + j] += x * z
        return out

    on_tree: dict = {}
    polys: dict = {EMPTY_FOREST: ([0, 1], 1)}
    for tree, forest, i, k, children in _step_plan(field.dim, level):
        c, d = derivs[i][k]
        for child, m, fact in children:
            c_child, d_child = on_tree.get(child, ([], 1))
            for _ in range(m):
                c = mul(c, c_child)
            d *= d_child**m * fact
        if c:
            on_tree[tree] = polys[forest] = c, d
    C = math.lcm(*(d for _, d in polys.values()))
    rows = tuple(
        (forest, tuple((j, n * (C // d)) for j, n in enumerate(c) if n))
        for forest, (c, d) in polys.items()
    )
    return C, rows, max(len(c) for c, _ in polys.values()) - 1


def _step_polynomial(plan: tuple, nums: dict) -> list:
    """The integer coefficients a_j = sum_tau nums[tau] n_j(tau) of the step
    polynomial A, with c(tau) from ``_polynomial_plan`` and X_st given as
    integer numerators ``nums``, trimmed to the true degree."""
    C, rows, top = plan
    a = [0] * (top + 1)
    for forest, terms in rows:
        n = nums.get(forest)
        if n:
            for j, c in terms:
                a[j] += n * c
    while len(a) > 1 and not a[-1]:
        a.pop()
    return a


def _exact_step(a: list, scale: int, y) -> Fraction:
    """A(y) / scale for an exact y = p/q, as M / (scale q^K) with
    M = sum_j a_j p^j q^(K-j) by homogeneous Horner.

    For a polynomial field this is the step sum_tau c(tau) X_st(tau) at y:
    with X_st given as integer numerators over den and c(tau) from
    ``_polynomial_plan``, the step is A(y) / (C den), with the small integer
    coefficients a_j of ``_step_polynomial`` trimmed to the true degree K.

    M = a_K p^K mod q and gcd(p, q) = 1 give gcd(M, q^K) at any prime of q
    as that of gcd(a_K, q)^K (M = 0 makes q divide a_K), so the gcd that
    reduces the fraction has one small operand, and the Fraction is built
    from coprime ints with no second gcd."""
    p, q = y.numerator, y.denominator
    K = len(a) - 1
    M, qk = a[K], 1
    for j in range(K - 1, -1, -1):
        qk *= q
        M = M * p + a[j] * qk
    g = math.gcd(M, scale * math.gcd(a[K], q) ** K)
    return _coprime_fraction(M // g, scale * qk // g)


# the bits of the smaller of p and q that _float_past_cap keeps
_KEPT_BITS = 256


def _float_past_cap(a: list, scale: int, y) -> float | None:
    """``_demote_if_huge(_exact_step(a, scale, y))`` when that is certain to
    be a float, without the exact step; None when it is not certain.

    p and q lose their low s bits, one shift for both that keeps
    ``_KEPT_BITS`` of the smaller, so p / 2^s and q / 2^s lie in [p', p' + 1]
    and [q', q' + 1] with q' > 0, and M / 2^(sK) lies in the interval that
    homogeneous Horner gives on these.  When it holds no 0, it bounds the
    reduced size of the exact result from below, by bits(M) + bits(D) -
    2 bits(G) with D = scale q^K and G = scale gcd(a_K, q)^K, the largest
    gcd ``_exact_step`` can divide out.  When that bound passes
    ``_EXACT_STATE_BITS``, the exact result would become its correctly
    rounded float; rounding is monotone, so when both ends of the interval
    of M / D round to one float, that float is the one.

    The first bound is below 2 K b + bits(scale) + bits(sum_j |a_j|) for a
    state of b bits in p and q together, so ``picard_solve`` calls this only
    for b > ``_EXACT_STATE_BITS`` / (4 top), top the plan's highest degree:
    a smaller state cannot pass unless scale and a alone carry half the
    budget, and a skipped call leaves the exact step, whose demotion is the
    same float.
    """
    K = len(a) - 1
    p, q = y.numerator, y.denominator
    p_bits, q_bits = p.bit_length(), q.bit_length()
    s = (p_bits if p_bits < q_bits else q_bits) - _KEPT_BITS
    # |M| < sum_j |a_j| 2^(K max(p_bits, q_bits)) and D < scale 2^(K q_bits),
    # and max(p_bits, q_bits) + q_bits <= p_bits + 2 q_bits
    if s <= 0 or K == 0 or (K * (p_bits + 2 * q_bits) + scale.bit_length()
                            + sum(map(abs, a)).bit_length() <= _EXACT_STATE_BITS):
        return None
    p_lo, q_lo = p >> s, q >> s
    lo = hi = a[K]
    q_lo_k = q_hi_k = 1
    for j in range(K - 1, -1, -1):
        q_lo_k *= q_lo
        q_hi_k *= q_lo + 1
        ends = (lo * p_lo, lo * (p_lo + 1), hi * p_lo, hi * (p_lo + 1))
        qs = (q_lo_k, q_hi_k) if a[j] >= 0 else (q_hi_k, q_lo_k)
        lo, hi = min(ends) + a[j] * qs[0], max(ends) + a[j] * qs[1]
    if lo <= 0 <= hi:
        return None
    d_lo, d_hi = scale * q_lo_k, scale * q_hi_k
    least = -hi if hi < 0 else lo
    bits = least.bit_length() + d_lo.bit_length() + 2 * s * K
    if bits - 2 * (scale * math.gcd(a[K], q) ** K).bit_length() <= _EXACT_STATE_BITS:
        return None
    try:
        low, high = (lo / d_hi, hi / d_lo) if lo > 0 else (lo / d_lo, hi / d_hi)
    except OverflowError:
        return None
    return low if low == high else None

