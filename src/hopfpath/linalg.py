"""Free vector spaces over basis elements with exact rational scalars.

LinComb and TensorComb are sparse maps from basis elements (resp. pairs) to
``fractions.Fraction``.  Zero coefficients are never stored, so equality is
structural.  All basis elements of one combination must be of one kind; mixed
tensor slots are allowed only where a module explicitly builds them.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator

Scalar = Fraction

FLOAT_TOLERANCE = 1e-9


class KindMismatchError(TypeError):
    pass


def as_scalar(x):
    """Exact scalars are Fractions; floats pass through as the approximate mode."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return x
    raise TypeError(f"not a scalar: {x!r}")


def _check_kinds(a, b):
    if type(a) is not type(b):
        raise KindMismatchError(
            f"cannot mix basis kinds {type(a).__name__} and {type(b).__name__}"
        )


class LinComb:
    """A finite linear combination of basis elements with rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None, _clean: bool = False):
        if terms is None:
            terms = {}
        if not _clean:
            terms = {b: as_scalar(c) for b, c in terms.items() if c != 0}
            kinds = {type(b) for b in terms}
            if len(kinds) > 1:
                raise KindMismatchError(f"mixed basis kinds {sorted(k.__name__ for k in kinds)}")
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("LinComb is immutable")

    @classmethod
    def zero(cls) -> "LinComb":
        return cls({}, _clean=True)

    @classmethod
    def term(cls, basis, coeff=1) -> "LinComb":
        c = as_scalar(coeff)
        return cls({basis: c} if c else {}, _clean=True)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, basis) -> Fraction:
        return self.terms.get(basis, Fraction(0))

    def support(self):
        return self.terms.keys()

    def sorted_terms(self) -> list[tuple[object, Fraction]]:
        return sorted(self.terms.items(), key=lambda bc: bc[0].sort_key())

    def max_grade(self) -> int:
        return max((b.grade for b in self.terms), default=0)

    def truncate(self, max_grade: int) -> "LinComb":
        return LinComb({b: c for b, c in self.terms.items() if b.grade <= max_grade}, _clean=True)

    def grade_part(self, k: int) -> "LinComb":
        return LinComb({b: c for b, c in self.terms.items() if b.grade == k}, _clean=True)

    def map_basis(self, fn: Callable[[object], "LinComb"]) -> "LinComb":
        """Linear extension of a basis map fn: basis -> LinComb."""
        acc: dict = {}
        for b, c in self.terms.items():
            for b2, c2 in fn(b).terms.items():
                accum(acc, b2, c * c2)
        return LinComb(acc, _clean=True)

    def __add__(self, other: "LinComb") -> "LinComb":
        self._check_compatible(other)
        acc = dict(self.terms)
        for b, c in other.terms.items():
            accum(acc, b, c)
        return LinComb(acc, _clean=True)

    def __sub__(self, other: "LinComb") -> "LinComb":
        self._check_compatible(other)
        acc = dict(self.terms)
        for b, c in other.terms.items():
            accum(acc, b, -c)
        return LinComb(acc, _clean=True)

    def __neg__(self) -> "LinComb":
        return LinComb({b: -c for b, c in self.terms.items()}, _clean=True)

    def scale(self, s) -> "LinComb":
        s = as_scalar(s)
        if s == 0:
            return LinComb.zero()
        return LinComb({b: s * c for b, c in self.terms.items()}, _clean=True)

    __mul__ = scale
    __rmul__ = scale

    def _check_compatible(self, other: "LinComb"):
        if self.terms and other.terms:
            _check_kinds(next(iter(self.terms)), next(iter(other.terms)))

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __iter__(self) -> Iterator[tuple[object, Fraction]]:
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"LinComb({self.terms!r})"

    def __str__(self) -> str:
        return format_lincomb(self)


def accum(acc: dict, key, value):
    """Add value to acc[key] in place, dropping the key when the sum is zero."""
    new = acc.get(key, 0) + value
    if new:
        acc[key] = new
    else:
        acc.pop(key, None)


def bilinear(x, y, fn: Callable, max_grade: int | None = None) -> dict:
    """Bilinear extension of fn: (basis, basis) -> (basis, coeff) pairs.

    x and y iterate as (basis, coeff) pairs; the result is the accumulated
    coefficient dict.  Pairs whose grades sum past max_grade are skipped.
    """
    acc: dict = {}
    for b1, c1 in x:
        for b2, c2 in y:
            if max_grade is None or b1.grade + b2.grade <= max_grade:
                c = c1 * c2
                for b, c3 in fn(b1, b2):
                    accum(acc, b, c * c3)
    return acc


class TensorComb:
    """A finite combination of two-fold tensors basis (x) basis."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None, _clean: bool = False):
        if terms is None:
            terms = {}
        if not _clean:
            terms = {bb: as_scalar(c) for bb, c in terms.items() if c != 0}
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("TensorComb is immutable")

    @classmethod
    def zero(cls) -> "TensorComb":
        return cls({}, _clean=True)

    @classmethod
    def term(cls, left, right, coeff=1) -> "TensorComb":
        c = as_scalar(coeff)
        return cls({(left, right): c} if c else {}, _clean=True)

    @classmethod
    def of(cls, a: LinComb, b: LinComb, max_grade: int | None = None) -> "TensorComb":
        """The outer product a (x) b; pairs beyond max_grade total are skipped."""
        acc: dict = {}
        for b1, c1 in a.terms.items():
            room = None if max_grade is None else max_grade - b1.grade
            for b2, c2 in b.terms.items():
                if room is None or b2.grade <= room:
                    accum(acc, (b1, b2), c1 * c2)
        return cls(acc, _clean=True)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, left, right) -> Fraction:
        return self.terms.get((left, right), Fraction(0))

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        return sorted(
            self.terms.items(),
            key=lambda bc: (bc[0][0].sort_key(), bc[0][1].sort_key()),
        )

    def flip(self) -> "TensorComb":
        return TensorComb({(r, l): c for (l, r), c in self.terms.items()}, _clean=True)

    def truncate_total(self, max_grade: int) -> "TensorComb":
        return TensorComb(
            {lr: c for lr, c in self.terms.items() if lr[0].grade + lr[1].grade <= max_grade},
            _clean=True,
        )

    def map_left(self, fn: Callable[[object], LinComb]) -> "TensorComb":
        acc: dict = {}
        for (l, r), c in self.terms.items():
            for l2, c2 in fn(l).terms.items():
                accum(acc, (l2, r), c * c2)
        return TensorComb(acc, _clean=True)

    def map_right(self, fn: Callable[[object], LinComb]) -> "TensorComb":
        acc: dict = {}
        for (l, r), c in self.terms.items():
            for r2, c2 in fn(r).terms.items():
                accum(acc, (l, r2), c * c2)
        return TensorComb(acc, _clean=True)

    def fold(self, fn: Callable[[object, object], LinComb]) -> LinComb:
        """Apply a bilinear-on-basis map m: (l, r) -> LinComb and sum."""
        acc: dict = {}
        for (l, r), c in self.terms.items():
            for b, c2 in fn(l, r).terms.items():
                accum(acc, b, c * c2)
        return LinComb(acc, _clean=True)

    def __add__(self, other: "TensorComb") -> "TensorComb":
        acc = dict(self.terms)
        for bb, c in other.terms.items():
            accum(acc, bb, c)
        return TensorComb(acc, _clean=True)

    def __sub__(self, other: "TensorComb") -> "TensorComb":
        acc = dict(self.terms)
        for bb, c in other.terms.items():
            accum(acc, bb, -c)
        return TensorComb(acc, _clean=True)

    def __neg__(self) -> "TensorComb":
        return TensorComb({bb: -c for bb, c in self.terms.items()}, _clean=True)

    def scale(self, s) -> "TensorComb":
        s = as_scalar(s)
        if s == 0:
            return TensorComb.zero()
        return TensorComb({bb: s * c for bb, c in self.terms.items()}, _clean=True)

    __mul__ = scale
    __rmul__ = scale

    def __eq__(self, other) -> bool:
        return isinstance(other, TensorComb) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"TensorComb({self.terms!r})"

    def __str__(self) -> str:
        return format_tensorcomb(self)


def pair(a: LinComb, b: LinComb) -> Fraction:
    """Orthonormal duality pairing <a, b> = sum_x a_x b_x.

    For the multi-index kind the left slot is read in the normalized dual
    basis, so <D^n, X^m> = delta_{n,m} with the same code path.
    """
    if a.terms and b.terms:
        _check_kinds(next(iter(a.terms)), next(iter(b.terms)))
    small, large = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    total = Fraction(0)
    for k, c in small.items():
        c2 = large.get(k)
        if c2 is not None:
            total += c * c2
    return total


def pair_tensor(a: TensorComb, b: TensorComb) -> Fraction:
    """Induced pairing <x1 (x) x2, y1 (x) y2> = <x1,y1><x2,y2>, bilinearly."""
    for (l1, r1) in a.terms:
        for (l2, r2) in b.terms:
            _check_kinds(l1, l2)
            _check_kinds(r1, r2)
            break
        break
    small, large = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
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


def format_lincomb(x: LinComb, float_mode: bool = False, descending: bool = False) -> str:
    if x.is_zero():
        return "0"
    items = x.sorted_terms()
    if descending:
        items = items[::-1]
    parts = []
    for b, c in items:
        if c == 1:
            parts.append(str(b))
        else:
            parts.append(f"{format_scalar(c, float_mode)}*{b}")
    return " + ".join(parts)


def format_tensorcomb(x: TensorComb, float_mode: bool = False, descending: bool = False) -> str:
    if x.is_zero():
        return "0"
    items = x.sorted_terms()
    if descending:
        items = items[::-1]
    parts = []
    for (l, r), c in items:
        body = f"{l} (x) {r}"
        if c == 1:
            parts.append(body)
        else:
            parts.append(f"{format_scalar(c, float_mode)}*{body}")
    return " + ".join(parts)


def lincomb_to_json(x: LinComb, float_mode: bool = False) -> dict[str, str]:
    return {str(b): format_scalar(c, float_mode) for b, c in x.sorted_terms()}


def tensorcomb_to_json(x: TensorComb, float_mode: bool = False) -> dict[str, str]:
    return {f"{l}⊗{r}": format_scalar(c, float_mode) for (l, r), c in x.sorted_terms()}


# ---------------------------------------------------------------------------
# small exact linear algebra


def nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right nullspace of a matrix over the rationals.

    ``rows`` is a list of equal-length rows; the result is a list of vectors v
    with M v = 0, via fraction-exact Gauss-Jordan elimination.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    mat = [list(map(Fraction, row)) for row in rows]
    pivots: list[int] = []
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
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        basis.append(v)
    return basis
