"""Truncated graded-algebra calculus on top of a Hopf instance.

Products discard all terms above the truncation level, i.e. everything lives
in the quotient by the ideal of high grades.  exp and log are mutually inverse
at every level in exact rational arithmetic; group-likes and primitives are
recognized with an explicit defect witness.  Elements are LinCombs, integer
numerators over one denominator, and products and power series run on that
form.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .hopf_core import HopfInstance, concat_deshuffle_instance
from .linalg import LinComb, TensorComb, _accumulate, nullspace
from .symbols import Forest, Word, forests, trees
from .work import charge


class TruncationError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class TruncatedElement:
    """A LinComb together with a truncation level and its ambient algebra.

    ``mul`` is ``HopfInstance.product`` cut at the level: pairs whose grades
    sum past it are never formed, and the operands multiply as integer
    numerators over their denominators.
    """

    value: LinComb
    level: int
    algebra: HopfInstance

    @classmethod
    def make(cls, value: LinComb, level: int, algebra: HopfInstance) -> "TruncatedElement":
        if level < 0:
            raise TruncationError("truncation level must be >= 0")
        return cls(value.truncate(level), level, algebra)

    def _check_compatible(self, other: "TruncatedElement"):
        if self.level != other.level or self.algebra is not other.algebra:
            raise TruncationError("level or algebra mismatch")

    def mul(self, other: "TruncatedElement") -> "TruncatedElement":
        self._check_compatible(other)
        prod = self.algebra.product(self.value, other.value, max_grade=self.level)
        return TruncatedElement(prod, self.level, self.algebra)

    def sub(self, other: "TruncatedElement") -> "TruncatedElement":
        self._check_compatible(other)
        return TruncatedElement(self.value - other.value, self.level, self.algebra)

    def coeff(self, basis) -> Fraction:
        return self.value.coeff(basis)

    def counit(self) -> Fraction:
        return self.value.coeff(self.algebra.unit)

    def antipode(self) -> "TruncatedElement":
        return TruncatedElement(
            self.algebra.antipode(self.value).truncate(self.level), self.level, self.algebra
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedElement)
            and self.level == other.level
            and self.algebra is other.algebra
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.value, self.level, id(self.algebra)))

    def __str__(self) -> str:
        return str(self.value)


def trunc_one(level: int, algebra: HopfInstance) -> TruncatedElement:
    return TruncatedElement(algebra.one(), level, algebra)


def trunc_mul(a: TruncatedElement, b: TruncatedElement) -> TruncatedElement:
    return a.mul(b)


def _power_series(x: TruncatedElement, weights: Iterator[Fraction]) -> TruncatedElement:
    """sum_k w_k x^k over the weights w_0, w_1, ... for k = 0..level, x^0
    the unit, up to the first power that vanishes.

    The powers chain, each product cut at the level, and
    ``LinComb.weighted_sum`` adds them once, in integers over the lcm of the
    weights' and the powers' denominators.  Each weight is read as the chain
    reaches its power, and each power x^k is charged k units a term, as its
    keys have grade k or more, and by its bits and its weight's, which that
    sum multiplies.
    """
    level, algebra = x.level, x.algebra
    power = algebra.one()
    powers = []
    for k, w in zip(range(level + 1), weights):
        if k:
            power = algebra.product(power, x.value, level)
            if not power.nums:
                break
        bits = w.numerator.bit_length() + w.denominator.bit_length() + power.den.bit_length()
        charge(len(power.nums) * (k + bits // 8) + sum(map(int.bit_length, power.nums.values())) // 8)
        powers.append((w, power))
    return TruncatedElement(LinComb.weighted_sum(powers), level, algebra)


def exp_trunc(x: TruncatedElement) -> TruncatedElement:
    """exp of an augmentation-ideal element, truncated at x's level."""
    if x.counit() != 0:
        raise TruncationError("exp needs a counit-free argument")
    # 1/k! from 1/(k-1)!, one division per power
    weights = itertools.accumulate(itertools.count(1), lambda w, k: w / k, initial=Fraction(1))
    return _power_series(x, weights)


def log_trunc(g: TruncatedElement) -> TruncatedElement:
    """log of a unit-normalized element, truncated at g's level."""
    if g.counit() != 1:
        raise TruncationError("log needs counit 1")
    u = g.sub(trunc_one(g.level, g.algebra))
    weights = (Fraction((-1) ** (k - 1), k) if k else Fraction(0) for k in itertools.count())
    return _power_series(u, weights)


def bch(x: TruncatedElement, y: TruncatedElement) -> TruncatedElement:
    """Baker-Campbell-Hausdorff combination log(exp(x) exp(y))."""
    if x.counit() != 0 or y.counit() != 0:
        raise TruncationError("bch needs counit-free arguments")
    return log_trunc(exp_trunc(x).mul(exp_trunc(y)))


def group_inverse(g: TruncatedElement) -> TruncatedElement:
    """Inverse of a group-like element, via the antipode."""
    return g.antipode()


# ---------------------------------------------------------------------------
# primitive / group-like recognition


def primitive_defect(x: TruncatedElement) -> TensorComb:
    return x.algebra.reduced_coproduct(x.value)


def is_primitive(x: TruncatedElement) -> tuple[bool, TensorComb]:
    defect = primitive_defect(x)
    return defect.is_zero(), defect


def grouplike_defect(g: TruncatedElement) -> TensorComb:
    """Delta g - g (x) g, the square cut at g's level: the one group-like
    test, whose first term is the witness of a failure.  Equal sides, the
    common case, are compared before any difference is taken."""
    cop = g.algebra.coproduct(g.value)
    square = TensorComb.of(g.value, g.value, max_grade=g.level)
    return TensorComb.zero() if cop == square else cop - square


def is_grouplike(g: TruncatedElement) -> tuple[bool, TensorComb]:
    """Whether g is group-like at its level (counit 1, zero defect), and the
    defect."""
    defect = grouplike_defect(g)
    return g.counit() == 1 and defect.is_zero(), defect


def primitive_basis(instance: HopfInstance, k: int) -> list[LinComb]:
    """Exact basis of the primitives of grade k, by a nullspace computation."""
    basis = instance.basis(k)
    if k == 0 or not basis:
        return []
    if k == 1:
        # the reduced coproduct vanishes on grade one, so the slice is primitive
        return [LinComb.term(b) for b in basis]
    # one sparse row per tensor in the reduced coproducts, one column per basis element
    rows: dict = {}
    for j, b in enumerate(basis):
        for key, c in instance.reduced_coproduct(LinComb.term(b)):
            rows.setdefault(key, {})[j] = c
    if not rows:
        return [LinComb.term(b) for b in basis]
    return [
        LinComb({basis[j]: c for j, c in enumerate(vec) if c})
        for vec in nullspace(list(rows.values()), len(basis))
    ]


# ---------------------------------------------------------------------------
# Dynkin maps on words


@functools.lru_cache(maxsize=None)
def _rnb_word(w: Word) -> LinComb:
    if w.grade == 0:
        return LinComb.zero()
    if w.grade == 1:
        return LinComb.term(w)
    head, rest = Word(w.letters[:1]), _rnb_word(Word(w.letters[1:]))
    # head u - u head per term of the rest, the two words added in that order
    parts = ((((head.concat(u), n), (u.concat(head), -n)), 1) for u, n in rest.nums.items())
    return LinComb.from_nums(_accumulate(parts), rest.den)


def right_norm_bracketing(x: LinComb) -> LinComb:
    """Iterated right bracketing of words in the concatenation algebra."""
    return x.map_basis(_rnb_word)


def dynkin(x: LinComb, via_convolution: bool = False, dim: int | None = None) -> LinComb:
    """Dynkin projector on words; both routes agree on the whole word span.

    Direct mode is the right-norm bracketing; convolution mode computes
    m (D (x) S) Delta with D the grading derivation and S the antipode of the
    concatenation/deshuffle Hopf algebra.
    """
    if any(b.grade == 0 for b in x.support()):
        raise ValueError("dynkin needs a counit-free argument")
    if not via_convolution:
        return right_norm_bracketing(x)
    if dim is None:
        dim = max((max(b.letters) for b in x.support() if b.letters), default=1)
    inst = concat_deshuffle_instance(dim)

    def derivation(b: Word) -> LinComb:
        return LinComb.term(b, b.grade)

    return inst.coproduct(x).fold(
        lambda l, r: inst.product(derivation(l), inst.antipode_basis(r))
    )


# ---------------------------------------------------------------------------
# homogeneous group norms


def grade_norm(x: LinComb, m: int) -> float:
    """Euclidean norm of the grade-m slice, summed in basis order."""
    return math.sqrt(sum(float(c) ** 2 for b, c in x.sorted_terms() if b.grade == m))


def homog_norm(g: TruncatedElement) -> float:
    """Homogeneous group norm of a unit-normalized element.

    Word flavor: sum over m of the grade-m slice norm of log(g) to the power
    1/m.  Forest (Grossman-Larson) flavor: sum over the support of log(g) of
    |coefficient|^(1/grade).  Sums run in basis order, so the float result does
    not depend on the term order of g.  Connes-Kreimer forests have no norm
    here: neither formula applies to them.
    """
    if g.algebra.name == "ck":
        raise TruncationError("homogeneous norm is not defined on the ck algebra")
    if g.counit() != 1:
        raise TruncationError("homogeneous norm needs counit 1")
    x = log_trunc(g)
    if g.algebra.name == "gl":
        return sum(abs(float(c)) ** (1.0 / b.grade) for b, c in x.value.sorted_terms())
    # one sort, each grade's squares summed in basis order as grade_norm sums
    # them; keyed by the grades present, since an absent grade adds exactly 0.0
    squares: dict[int, list[float]] = {}
    for b, c in x.value.sorted_terms():
        squares.setdefault(b.grade, []).append(float(c) ** 2)
    total = 0.0
    for m in sorted(squares):
        total += math.sqrt(sum(squares[m])) ** (1.0 / m)
    return total


@dataclass(frozen=True)
class NormConstants:
    """Constants for the two-sided homogeneous norm comparison.

    upper[k] bounds |<b, g>| by upper[k] * ||g||^k on grade-k basis elements;
    recovery bounds ||g|| by recovery * sup_b |<b, g>|^(1/|b|).
    """

    upper: dict[int, float]
    recovery: float


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def geo_norm_constants(d: int, n: int) -> NormConstants:
    """Constants from counting tuples of nonempty words with given total length."""

    def count_tuples(m: int, k: int) -> int:
        return math.comb(k - 1, m - 1) * d**k

    upper = {}
    for k in range(1, n + 1):
        upper[k] = sum(count_tuples(m, k) / math.factorial(m) for m in range(1, k + 1))
    recovery = 0.0
    for k in range(1, n + 1):
        for m in range(1, k + 1):
            recovery += (count_tuples(m, k) / m) ** (1.0 / k)
    return NormConstants(upper=upper, recovery=recovery)


def branched_norm_constants(d: int, n: int) -> NormConstants:
    """Constants from exact enumeration of tree/forest tuples and their products.

    The grade-k product norms are computed with exact Grossman-Larson products
    and only then rounded to float.
    """
    from .hopf_ck import gl_instance

    product = gl_instance(d).product
    tree_pool = {k: trees(d, k) for k in range(1, n + 1)}
    forest_pool = {k: tuple(f for f in forests(d, k)) for k in range(1, n + 1)}

    def tuple_stats(pool: dict, m: int, k: int) -> tuple[int, float]:
        """Number of m-tuples with total grade k and the max product norm."""
        count = 0
        best = 0.0
        for comp in _compositions(k, m):
            for combo in itertools.product(*(pool[c] for c in comp)):
                count += 1
                prod = LinComb.term(
                    combo[0] if isinstance(combo[0], Forest) else combo[0].as_forest()
                )
                for item in combo[1:]:
                    nxt = item if isinstance(item, Forest) else item.as_forest()
                    prod = product(prod, LinComb.term(nxt))
                best = max(best, grade_norm(prod, k))
        return count, best

    upper = {}
    for k in range(1, n + 1):
        total = 0.0
        for m in range(1, k + 1):
            cnt, norm = tuple_stats(tree_pool, m, k)
            total += cnt * norm / math.factorial(m)
        upper[k] = total
    recovery = 0.0
    for k in range(1, n + 1):
        inner = 0.0
        for m in range(1, k + 1):
            cnt, norm = tuple_stats(forest_pool, m, k)
            inner += cnt * norm / m
        recovery += len(tree_pool[k]) * inner ** (1.0 / k)
    return NormConstants(upper=upper, recovery=recovery)
