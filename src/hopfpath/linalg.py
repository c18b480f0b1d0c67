"""Free vector spaces over basis elements with exact rational scalars.

A ``Combination`` is an immutable sparse combination of keys with exact
coefficients, stored as integer numerators over one positive denominator
(``nums`` and ``den``) with their common content divided out, so each value
has one form and equality is structural.  ``terms``, iteration, ``coeff``
and the text and JSON forms read it as ``fractions.Fraction``s, the one
scalar mode: a float given to a combination raises TypeError.  LinComb
holds basis elements and TensorComb pairs of them; all basis elements of
one LinComb must be of one kind, and so must each slot of a tensor (the
left slot may hold forests and the right words, say).  ``linear`` and
``bilinear`` extend a map on keys over combinations in integers, and one
accumulation loop (``_accumulate``), one formatter and one JSON form serve
every class.
"""
from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import Callable, Iterator

from .work import charge

# n / d from coprime ints with d > 0, without the normalising gcd where Python allows
if hasattr(Fraction, "_from_coprime_ints"):  # 3.12+
    _coprime_fraction = Fraction._from_coprime_ints
elif sys.version_info < (3, 12):
    _coprime_fraction = functools.partial(Fraction, _normalize=False)
else:
    _coprime_fraction = Fraction


class KindMismatchError(TypeError):
    pass


def as_scalar(x):
    """The one scalar mode is exact: a Fraction, or an int or a string read
    as one.  A float, or anything else, raises TypeError naming it."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def _check_kinds(*basis):
    """Raise KindMismatchError unless the basis elements are all of one kind."""
    kinds = {type(b) for b in basis}
    if len(kinds) > 1:
        names = sorted(k.__name__ for k in kinds)
        raise KindMismatchError(f"cannot mix basis kinds {', '.join(names)}")


def _fraction(n: int, den: int) -> Fraction:
    """n / den as a Fraction, for den > 0."""
    g = math.gcd(n, den)
    return _coprime_fraction(n // g, den // g)


class Combination:
    """An immutable sparse combination: nums[k] / den is the coefficient of
    the key k, with no zero numerator, den > 0 and gcd(den, *nums) = 1.

    The base class holds keys of no basis kind, such as the basis triples of
    a coassociativity law; equality is per class.  A subclass says how its
    terms sort (``_order``), how its keys print (``_label``) and which keys
    may share a combination (``_check_keys``, run on every key a public
    constructor is given and on one key of each operand of a sum or
    difference).
    """

    __slots__ = ("nums", "den")

    def __init__(self, terms: dict | None = None):
        """The combination of terms, key -> exact scalar: zeros are dropped
        and the keys checked."""
        if terms is None:
            terms = {}
        terms = {k: c for k, c in zip(terms, map(as_scalar, terms.values())) if c}
        self._check_keys(*terms)
        nums, den = numerators(list(terms.values()))
        _set_nums(self, dict(zip(terms, nums)))
        _set_den(self, den)

    @classmethod
    def _make(cls, nums: dict, den: int):
        """The combination of a form that is already canonical."""
        self = object.__new__(cls)
        _set_nums(self, nums)
        _set_den(self, den)
        return self

    @classmethod
    def from_nums(cls, nums: dict, den: int = 1):
        """The combination nums[k] / den, for nonzero int or Fraction values,
        with the content divided out; the dict becomes the combination's own.
        Any other value raises TypeError naming it."""
        try:  # int values, as the accumulation loop leaves them
            g = math.gcd(den, *nums.values())
        except TypeError:  # Fraction values: over the lcm of their denominators
            values, q = numerators([as_scalar(v) for v in nums.values()])
            nums, den = dict(zip(nums, values)), den * q
            g = math.gcd(den, *values)
        if g != 1:
            nums = {k: n // g for k, n in nums.items()}
            den //= g
        return cls._make(nums, den)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    @staticmethod
    def _check_keys(*keys):
        """Any keys may share a combination of the base class."""

    @classmethod
    def _term(cls, key, coeff):
        """The key with an exact coefficient; an int takes no Fraction."""
        if type(coeff) is int:
            return cls._make({key: coeff} if coeff else {}, 1)
        c = as_scalar(coeff)
        return cls._make({key: c.numerator} if c else {}, c.denominator)

    @classmethod
    def zero(cls):
        return cls._make({}, 1)

    def is_zero(self) -> bool:
        return not self.nums

    @property
    def terms(self) -> dict:
        """key -> Fraction coefficient, in term order: a new dict each read."""
        den = self.den
        if den == 1:
            return {k: _coprime_fraction(n, 1) for k, n in self.nums.items()}
        return {k: _fraction(n, den) for k, n in self.nums.items()}

    def sorted_terms(self) -> list[tuple[object, Fraction]]:
        charge(24 * len(self.nums))  # the sort, and the printing most callers do
        return sorted(self.terms.items(), key=self._order)

    def _plus(self, other, sign: int):
        if self.nums and other.nums:
            self._check_keys(next(iter(self.nums)), next(iter(other.nums)))
        den = math.lcm(self.den, other.den)
        parts = ((self.nums.items(), den // self.den),
                 (other.nums.items(), sign * (den // other.den)))
        return type(self).from_nums(_accumulate(parts), den)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self._make({k: -n for k, n in self.nums.items()}, self.den)

    def scale(self, s):
        s = as_scalar(s)
        if s == 0:
            return self.zero()
        p = s.numerator
        return self.from_nums({k: p * n for k, n in self.nums.items()}, self.den * s.denominator)

    __mul__ = scale
    __rmul__ = scale

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.den, frozenset(self.nums.items())))

    def __iter__(self) -> Iterator[tuple[object, Fraction]]:
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.nums)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.terms!r})"

    def __str__(self) -> str:
        return format_lincomb(self)

    @classmethod
    def linear(cls, x: "Combination", fn: Callable):
        """The linear extension of fn: key -> (key, coeff) pairs on x, as a
        cls: the integer sums of ``_accumulate`` over x.den, with the content
        divided out once."""
        charge(16 * len(x.nums))
        return cls.from_nums(_accumulate(zip(map(fn, x.nums), x.nums.values())), x.den)

    @classmethod
    def bilinear(cls, x: "Combination", y: "Combination", fn: Callable,
                 max_grade: int | None = None):
        """The bilinear extension of fn: (key, key) -> (key, coeff) pairs on
        x and y, as a cls: the plain double loop over the pairs kept (see
        ``_pairs``), term order included, with the integer sums over
        x.den * y.den and the content divided out once."""
        if max_grade is None:  # the operands' items, with no key or grade list built
            parts = _all_pairs(x.nums.items(), y.nums.items(), fn)
        else:
            parts = _pairs(list(x.nums), list(y.nums), fn, max_grade)(x.nums.values(),
                                                                     y.nums.values())
        return cls.from_nums(_accumulate(parts), x.den * y.den)

    @classmethod
    def weighted_sum(cls, terms):
        """sum_i w_i x_i over (w_i, x_i) in terms, for exact weights w_i and
        combinations x_i, as a cls: one accumulation in integers over the lcm
        of the w_i and x_i denominators, keys added in the order the sum of
        the w_i x_i adds them."""
        terms = [(w, x) for w, x in terms if w]
        lcm = math.lcm(*(w.denominator * x.den for w, x in terms))
        parts = ((x.nums.items(), w.numerator * (lcm // (w.denominator * x.den))) for w, x in terms)
        return cls.from_nums(_accumulate(parts), lcm)


_set_nums = Combination.nums.__set__
_set_den = Combination.den.__set__


class LinComb(Combination):
    """A finite linear combination of basis elements with rational coefficients."""

    __slots__ = ()
    _check_keys = staticmethod(_check_kinds)

    @staticmethod
    def _order(bc: tuple):
        return bc[0].sort_key()

    @staticmethod
    def _label(b, sep: str) -> str:
        return str(b)

    @classmethod
    def term(cls, basis, coeff=1) -> "LinComb":
        return cls._term(basis, coeff)

    def coeff(self, basis) -> Fraction:
        n = self.nums.get(basis)
        return _fraction(n, self.den) if n else Fraction(0)

    def support(self):
        return self.nums.keys()

    def max_grade(self) -> int:
        return max((b.grade for b in self.nums), default=0)

    def truncate(self, max_grade: int) -> "LinComb":
        kept = {b: n for b, n in self.nums.items() if b.grade <= max_grade}
        return self if len(kept) == len(self.nums) else LinComb.from_nums(kept, self.den)

    def map_basis(self, fn: Callable[[object], "LinComb"]) -> "LinComb":
        """Linear extension of a basis map fn: basis -> LinComb."""
        return LinComb.linear(self, fn)


def numerators(coeffs: list) -> tuple[list[int], int]:
    """Integer numerators of int or Fraction coefficients over the lcm of
    their denominators, and that lcm."""
    dens = [c.denominator for c in coeffs]
    den = math.lcm(*dens)
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // q) for c, q in zip(coeffs, dens)], den


def _accumulate(parts) -> dict:
    """The one accumulation loop: sums u * c over (terms, u) in parts and
    (key, c) in terms into one dict, adding a key where it first appears and
    dropping it when its sum is zero, and returns the sums.

    Operands arrive as integer numerators over a denominator the caller
    keeps, so integral structure constants keep the sums in ints; a
    non-integral constant (a character value, say) multiplies in as a
    Fraction.
    """
    acc: dict = {}
    get, pop = acc.get, acc.pop
    for terms, u in parts:
        for k, c in terms:
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            new = get(k, 0) + u * c
            if new:
                acc[k] = new
            else:
                pop(k, None)
    return acc


def _all_pairs(xs, ys, fn: Callable):
    """parts for _accumulate with no grade bound: (fn(b1, b2), u * v) over
    (b1, u) in xs and (b2, v) in ys, the plain double loop, charged as
    ``_pairs`` charges, 6 units per y term before each x term's pairs."""
    units = 6 * len(ys)
    for b1, u in xs:
        charge(units)
        for b2, v in ys:
            yield fn(b1, b2), u * v


def _pairs(xkeys: list, ykeys: list, fn: Callable, max_grade: int) -> Callable:
    """parts(xc, yc) for _accumulate: (fn(b1, b2), u * v) over the pairs of
    keys with coefficients u in xc and v in yc, skipping pairs whose grades
    sum past max_grade.  Each y grade is read once, and the loop over y stops
    after the last term that can still fit, so y sorted by grade visits only
    the pairs kept.  Terms are visited in the operands' order whatever their
    grades, so the result is that of the plain double loop."""
    xgrades, ygrades = [b.grade for b in xkeys], [b.grade for b in ykeys]
    # stop[r]: one past the last y term of grade <= r, for r up to the top y
    # grade that fits, so a long truncation costs nothing past y's grades
    top = min(max_grade, max(ygrades, default=0))
    stop = [0] * (top + 1)
    for j, g in enumerate(ygrades):
        if g <= top:
            stop[g] = j + 1
    for r in range(1, top + 1):
        stop[r] = max(stop[r], stop[r - 1])

    def parts(xc, yc):
        ys = list(zip(ykeys, ygrades, yc))
        for b1, d, u in zip(xkeys, xgrades, xc):
            room = max_grade - d
            if room >= 0:
                end = stop[room] if room < top else stop[top]
                charge(6 * end)
                for b2, g, v in ys[:end]:
                    if g <= room:
                        yield fn(b1, b2), u * v

    return parts


def outer(l, r):
    """The bilinear map (l, r) -> l (x) r on basis elements, for ``bilinear``."""
    return (((l, r), 1),)


def _check_slots(*tensors: tuple):
    """Raise KindMismatchError unless the (left, right) keys are of one kind
    in each slot."""
    _check_kinds(*(l for l, _ in tensors))
    _check_kinds(*(r for _, r in tensors))


class TensorComb(Combination):
    """A finite combination of two-fold tensors basis (x) basis, keyed by pairs."""

    __slots__ = ()
    _check_keys = staticmethod(_check_slots)

    @staticmethod
    def _order(lrc: tuple):
        return lrc[0][0].sort_key(), lrc[0][1].sort_key()

    @staticmethod
    def _label(lr: tuple, sep: str) -> str:
        """The text of a tensor: its two factors joined by sep."""
        return f"{lr[0]}{sep}{lr[1]}"

    @classmethod
    def term(cls, left, right, coeff=1) -> "TensorComb":
        return cls._term((left, right), coeff)

    @classmethod
    def of(cls, a: LinComb, b: LinComb, max_grade: int | None = None) -> "TensorComb":
        """The outer product a (x) b; pairs beyond max_grade total are skipped."""
        return cls.bilinear(a, b, outer, max_grade)

    def coeff(self, left, right) -> Fraction:
        n = self.nums.get((left, right))
        return _fraction(n, self.den) if n else Fraction(0)

    def fold(self, fn: Callable[[object, object], LinComb]) -> LinComb:
        """Apply a bilinear-on-basis map m: (l, r) -> LinComb and sum."""
        return LinComb.linear(self, lambda lr: fn(*lr))


def pair(a: LinComb, b: LinComb) -> Fraction:
    """Orthonormal duality pairing <a, b> = sum_x a_x b_x.

    For the multi-index kind the left slot is read in the normalized dual
    basis, so <D^n, X^m> = delta_{n,m} with the same code path.
    """
    if a.nums and b.nums:
        _check_kinds(next(iter(a.nums)), next(iter(b.nums)))
    return _dot(a, b)


def pair_tensor(a: TensorComb, b: TensorComb) -> Fraction:
    """Induced pairing <x1 (x) x2, y1 (x) y2> = <x1,y1><x2,y2>, bilinearly."""
    if a.nums and b.nums:
        _check_slots(next(iter(a.nums)), next(iter(b.nums)))
    return _dot(a, b)


def _dot(a: Combination, b: Combination) -> Fraction:
    """sum_k a_k b_k: the integer dot product of the numerators, looking the
    smaller side's keys up in the larger, over a.den * b.den."""
    small, large = (a.nums, b.nums) if len(a.nums) <= len(b.nums) else (b.nums, a.nums)
    get = large.get
    total = sum(n * get(k, 0) for k, n in small.items())
    return Fraction(total, a.den * b.den)


# ---------------------------------------------------------------------------
# formatting / JSON


def format_scalar(c: Fraction, float_mode: bool = False) -> str:
    if float_mode:
        return f"{float(c):.12g}"
    return str(c)


def format_lincomb(x: Combination, float_mode: bool = False, descending: bool = False) -> str:
    """Text of a LinComb or TensorComb: terms in basis order, or reversed when
    descending, as c*key with c omitted when 1, tensor factors joined by (x)."""
    items = x.sorted_terms()
    if descending:
        items.reverse()
    parts = []
    for key, c in items:
        body = x._label(key, " (x) ")
        parts.append(body if c == 1 else f"{format_scalar(c, float_mode)}*{body}")
    return " + ".join(parts) or "0"


def lincomb_to_json(x: Combination, float_mode: bool = False) -> dict[str, str]:
    """JSON form of a LinComb or TensorComb: key text -> scalar text in basis
    order, tensor factors joined by ⊗."""
    return {x._label(k, "⊗"): format_scalar(c, float_mode) for k, c in x.sorted_terms()}


# ---------------------------------------------------------------------------
# small exact linear algebra


def nullspace(rows: list, ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right nullspace of a matrix over the rationals.

    ``rows`` holds equal-length rows, or sparse rows as dicts column -> entry
    when ``ncols`` is given; no rows give no vectors.  The result is the
    basis read off the reduced row echelon form: one vector per free column,
    with 1 there, 0 at the other free columns and minus the reduced entries
    at the pivots, in free-column order.  That form is unique, so the basis
    does not depend on the order of elimination.  Elimination is
    fraction-free and sparse: each row is scaled to integers and kept as a
    dict, row operations are integer combinations, and every row they make
    is divided by its content.
    """
    if not rows:
        return []
    if ncols is None:
        ncols = len(rows[0])
    pivots: dict[int, dict[int, int]] = {}  # leading column -> integer row
    for row in rows:
        entries = list(row.items() if isinstance(row, dict) else enumerate(row))
        charge(len(entries))
        nums, _ = numerators([as_scalar(c) for _, c in entries])
        r = _primitive({j: n for (j, _), n in zip(entries, nums) if n})
        while r:
            lead = min(r)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = r
                break
            r = _combine(r, p, lead)
    # back substitution: clear every pivot column from the rows that lead left of it
    order = sorted(pivots)
    for i, lead in enumerate(order):
        for other in order[:i]:
            if lead in pivots[other]:
                pivots[other] = _combine(pivots[other], pivots[lead], lead)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        charge(ncols)
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for lead, row in pivots.items():
            if free in row:
                v[lead] = Fraction(-row[free], row[lead])
        basis.append(v)
    return basis


def _combine(r: dict, p: dict, col: int) -> dict:
    """p[col] r - r[col] p over their gcd, which is zero at col, divided by its content."""
    charge(len(r) + len(p))
    g = math.gcd(p[col], r[col])
    a, b = p[col] // g, r[col] // g
    out = {j: a * c for j, c in r.items()}
    for j, c in p.items():
        new = out.get(j, 0) - b * c
        if new:
            out[j] = new
        else:
            del out[j]
    return _primitive(out)


def _primitive(r: dict) -> dict:
    """r divided by its content, the gcd of its entries."""
    g = math.gcd(*r.values())
    return r if g <= 1 else {j: c // g for j, c in r.items()}
