"""Free vector spaces over basis elements with exact rational scalars.

LinComb and TensorComb are sparse maps from basis elements (resp. pairs) to
``fractions.Fraction``, the one scalar mode: a float given to a combination
raises TypeError.  Their shared algebra lives in ``Combination``, and
one pairing loop, one formatter and one JSON form serve both.  Zero
coefficients are never stored, so equality is structural.  All basis
elements of one combination must be of one kind, and so must each slot of
a tensor: the left slot may hold forests and the right words, say.
``Scaled`` is the exact form products chain in: integer numerators over one
denominator, turned into Fractions only where a caller reads them.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .work import charge

_ONE = Fraction(1)  # the default coefficient, built once


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


class Combination:
    """The algebra LinComb and TensorComb share: an immutable sparse map from
    keys to nonzero scalars, with sums, differences, scaling and equality.

    A subclass says how its terms sort (``_order``), how its keys print
    (``_label``) and which keys may share a combination (``_check_keys``,
    run on every key at construction and on one key of each operand of a
    sum or difference).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None, _clean: bool = False):
        if terms is None:
            terms = {}
        if not _clean:
            terms = {k: as_scalar(c) for k, c in terms.items() if c != 0}
            self._check_keys(*terms)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls({}, _clean=True)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[object, Fraction]]:
        charge(24 * len(self.terms))  # the sort, and the printing most callers do
        return sorted(self.terms.items(), key=self._order)

    def _plus(self, other, sign: int):
        if self.terms and other.terms:
            self._check_keys(next(iter(self.terms)), next(iter(other.terms)))
        acc = dict(self.terms)
        for k, c in other.terms.items():
            accum(acc, k, c if sign > 0 else -c)
        return type(self)(acc, _clean=True)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()}, _clean=True)

    def scale(self, s):
        s = as_scalar(s)
        if s == 0:
            return self.zero()
        return type(self)({k: s * c for k, c in self.terms.items()}, _clean=True)

    __mul__ = scale
    __rmul__ = scale

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __iter__(self) -> Iterator[tuple[object, Fraction]]:
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.terms!r})"

    def __str__(self) -> str:
        return format_lincomb(self)


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
    def term(cls, basis, coeff=_ONE) -> "LinComb":
        c = as_scalar(coeff)
        return cls({basis: c} if c else {}, _clean=True)

    def coeff(self, basis) -> Fraction:
        return self.terms.get(basis, Fraction(0))

    def support(self):
        return self.terms.keys()

    def max_grade(self) -> int:
        return max((b.grade for b in self.terms), default=0)

    def truncate(self, max_grade: int) -> "LinComb":
        return LinComb({b: c for b, c in self.terms.items() if b.grade <= max_grade}, _clean=True)

    def map_basis(self, fn: Callable[[object], "LinComb"]) -> "LinComb":
        """Linear extension of a basis map fn: basis -> LinComb."""
        return LinComb(linear(self, fn), _clean=True)


def accum(acc: dict, key, value):
    """Add value to acc[key] in place, dropping the key when the sum is zero."""
    new = acc.get(key, 0) + value
    if new:
        acc[key] = new
    else:
        acc.pop(key, None)


def numerators(coeffs: list) -> tuple[list[int], int]:
    """Integer numerators of int or Fraction coefficients over the lcm of
    their denominators, and that lcm."""
    dens = [c.denominator for c in coeffs]
    den = math.lcm(*dens)
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // q) for c, q in zip(coeffs, dens)], den


def _accumulate(parts) -> dict:
    """The one accumulation loop behind every linear extension.

    Sums u * c over (terms, u) in parts and (key, c) in terms, adding and
    dropping keys as ``accum`` does, and returns the sums.  Operands arrive
    scaled, as integer numerators over a denominator the caller keeps, so
    integral structure constants keep the sums in ints; a non-integral
    constant (a character value, say) multiplies in as a Fraction.
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


def _divide(acc: dict, den: int) -> dict:
    """The sums of _accumulate over den, one Fraction per integer sum."""
    if den == 1:
        return {k: Fraction(v) if type(v) is int else v for k, v in acc.items()}
    return {k: Fraction(v, den) if type(v) is int else v / den for k, v in acc.items()}


def _extend(parts: Callable, *operands: list) -> dict:
    """Run _accumulate on parts(*numerators) over the product of the operands'
    denominators."""
    scaled = [numerators(coeffs) for coeffs in operands]
    den = math.prod(den for _, den in scaled)
    return _divide(_accumulate(parts(*(nums for nums, _ in scaled))), den)


class Scaled(NamedTuple):
    """An exact combination as integer numerators over one positive
    denominator: the coefficient of key k is nums[k] / den.

    Built by ``of``, the gcd of the numerators and the denominator (the
    content) is 1, so each form is unique.  A chain of ``bilinear_scaled``
    products stays in ints and divides out the content once per product;
    ``lincomb`` makes the Fractions a caller sees.
    """

    nums: dict
    den: int

    @classmethod
    def of(cls, values: dict, den: int = 1) -> "Scaled":
        """The combination values[k] / den, for int or Fraction values, with
        its content divided out; any other value raises TypeError naming it."""
        try:  # int values, as the accumulation loop leaves them
            g = math.gcd(den, *values.values())
        except TypeError:  # Fraction values: over the lcm of their denominators
            nums, q = numerators([as_scalar(v) for v in values.values()])
            values, den = dict(zip(values, nums)), den * q
            g = math.gcd(den, *nums)
        if g == 1:
            return cls(dict(values), den)
        return cls({k: n // g for k, n in values.items()}, den // g)

    @classmethod
    def term(cls, key) -> "Scaled":
        """The basis element key with coefficient 1."""
        return cls({key: 1}, 1)

    def lincomb(self) -> "LinComb":
        return LinComb(_divide(self.nums, self.den), _clean=True)


def linear(x, fn: Callable) -> dict:
    """Linear extension of fn: basis -> (basis, coeff) pairs.

    x iterates as (basis, coeff) pairs; the result is the accumulated
    coefficient dict.
    """
    x = list(x)
    keys = [b for b, _ in x]
    charge(64 * len(keys))
    return _extend(lambda nums: zip(map(fn, keys), nums), [c for _, c in x])


def _all_pairs(xs, ys, fn: Callable):
    """parts for _accumulate with no grade bound: (fn(b1, b2), u * v) over
    (b1, u) in xs and (b2, v) in ys, the plain double loop, charged as
    ``_pairs`` charges, 6 units per y term before each x term's pairs."""
    units = 6 * len(ys)
    for b1, u in xs:
        charge(units)
        for b2, v in ys:
            yield fn(b1, b2), u * v


def _pairs(xkeys: list, ykeys: list, fn: Callable, max_grade: int | None) -> Callable:
    """parts(xc, yc) for _accumulate: (fn(b1, b2), u * v) over the pairs of
    keys with coefficients u in xc and v in yc, skipping pairs whose grades
    sum past max_grade.  Each y grade is read once, and the loop over y stops
    after the last term that can still fit, so y sorted by grade visits only
    the pairs kept.  Terms are visited in the operands' order whatever their
    grades, so the result is that of the plain double loop."""
    if max_grade is None:  # every pair fits; tensor keys have no grade
        return lambda xc, yc: _all_pairs(zip(xkeys, xc), list(zip(ykeys, yc)), fn)
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


def bilinear(x, y, fn: Callable, max_grade: int | None = None) -> dict:
    """Bilinear extension of fn: (basis, basis) -> (basis, coeff) pairs.

    x and y iterate as (basis, coeff) pairs; the result is the accumulated
    coefficient dict of the plain double loop over the pairs kept (see
    ``_pairs``), term order included.
    """
    x, y = list(x), list(y)
    parts = _pairs([b for b, _ in x], [b for b, _ in y], fn, max_grade)
    return _extend(parts, [c for _, c in x], [c for _, c in y])


def linear_scaled(x: Scaled, fn: Callable) -> Scaled:
    """``linear`` on a scaled operand, as a scaled result: the same loop,
    with the integer sums kept over x.den and the content divided out once."""
    charge(16 * len(x.nums))
    return Scaled.of(_accumulate(zip(map(fn, x.nums), x.nums.values())), x.den)


def bilinear_scaled(x: Scaled, y: Scaled, fn: Callable, max_grade: int | None = None) -> Scaled:
    """``bilinear`` on scaled operands, as a scaled result: the same loop,
    with the integer sums kept over x.den * y.den and the content divided
    out, not turned into Fractions."""
    if max_grade is None:  # the operands' items, with no key or grade list built
        parts = _all_pairs(x.nums.items(), y.nums.items(), fn)
    else:
        parts = _pairs(list(x.nums), list(y.nums), fn, max_grade)(x.nums.values(), y.nums.values())
    return Scaled.of(_accumulate(parts), x.den * y.den)


def scaled_sum(terms) -> Scaled:
    """sum_i w_i x_i over (w_i, x_i) in terms, for exact weights w_i and
    scaled x_i, as a scaled form: the one accumulation loop, with the
    integer sums kept over the lcm of the w_i and x_i denominators, keys
    added in the order a LinComb sum of the w_i x_i would add them."""
    terms = [(w, x) for w, x in terms if w]
    lcm = math.lcm(*(w.denominator * x.den for w, x in terms))
    parts = ((x.nums.items(), w.numerator * (lcm // (w.denominator * x.den))) for w, x in terms)
    return Scaled.of(_accumulate(parts), lcm)


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
    def term(cls, left, right, coeff=_ONE) -> "TensorComb":
        c = as_scalar(coeff)
        return cls({(left, right): c} if c else {}, _clean=True)

    @classmethod
    def of(cls, a: LinComb, b: LinComb, max_grade: int | None = None) -> "TensorComb":
        """The outer product a (x) b; pairs beyond max_grade total are skipped."""
        return cls(bilinear(a, b, outer, max_grade), _clean=True)

    def coeff(self, left, right) -> Fraction:
        return self.terms.get((left, right), Fraction(0))

    def flip(self) -> "TensorComb":
        return TensorComb({(r, l): c for (l, r), c in self.terms.items()}, _clean=True)

    def truncate_total(self, max_grade: int) -> "TensorComb":
        return TensorComb(
            {lr: c for lr, c in self.terms.items() if lr[0].grade + lr[1].grade <= max_grade},
            _clean=True,
        )

    def map_left(self, fn: Callable[[object], LinComb]) -> "TensorComb":
        return TensorComb(
            linear(self, lambda lr: (((l, lr[1]), c) for l, c in fn(lr[0]))), _clean=True
        )

    def map_right(self, fn: Callable[[object], LinComb]) -> "TensorComb":
        return TensorComb(
            linear(self, lambda lr: (((lr[0], r), c) for r, c in fn(lr[1]))), _clean=True
        )

    def fold(self, fn: Callable[[object, object], LinComb]) -> LinComb:
        """Apply a bilinear-on-basis map m: (l, r) -> LinComb and sum."""
        return LinComb(linear(self, lambda lr: fn(*lr)), _clean=True)


def pair(a: LinComb, b: LinComb) -> Fraction:
    """Orthonormal duality pairing <a, b> = sum_x a_x b_x.

    For the multi-index kind the left slot is read in the normalized dual
    basis, so <D^n, X^m> = delta_{n,m} with the same code path.
    """
    if a.terms and b.terms:
        _check_kinds(next(iter(a.terms)), next(iter(b.terms)))
    return _dot(a.terms, b.terms)


def pair_tensor(a: TensorComb, b: TensorComb) -> Fraction:
    """Induced pairing <x1 (x) x2, y1 (x) y2> = <x1,y1><x2,y2>, bilinearly."""
    if a.terms and b.terms:
        _check_slots(next(iter(a.terms)), next(iter(b.terms)))
    return _dot(a.terms, b.terms)


def _dot(a: dict, b: dict) -> Fraction:
    """sum_k a[k] b[k], looking the smaller dict's keys up in the larger."""
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    total = Fraction(0)
    for k, c in small.items():
        c2 = large.get(k)
        if c2 is not None:
            total += c * c2
    return total


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
