"""Generic connected-graded Hopf algebra machinery and three concrete instances.

An instance bundles a product and coproduct on a canonical basis together with
the counit, unit, grading and basis enumeration.  The built-in structure maps
yield integer rows from their combinatorics, and the maps an instance holds
are ``LinComb``/``TensorComb`` views of them (``structure_map``); the
instance's ``product`` and ``coproduct`` extend the rows over combinations in
integers.  Antipodes come either from a closed form or from the generic
recursion on the reduced coproduct, which is total on connected graded
instances.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from .linalg import Combination, LinComb, TensorComb, _accumulate
from .symbols import (
    EMPTY_WORD,
    MultiIndex,
    Word,
    check_dimension,
    multi_indices,
    multiindex_binomial,
    words,
)
from .work import charge


class GradeBoundExceeded(ValueError):
    pass


# ---------------------------------------------------------------------------
# word combinatorics on raw tuples


def shuffle_permutations(i: int, n: int) -> list[tuple[int, ...]]:
    """The (i, n-i) shuffles of S_n in one-line notation, lexicographically.

    sigma is in the set iff sigma(1) < ... < sigma(i) and
    sigma(i+1) < ... < sigma(n).
    """
    out = []
    for left_vals in itertools.combinations(range(1, n + 1), i):
        right_vals = tuple(v for v in range(1, n + 1) if v not in left_vals)
        out.append(left_vals + right_vals)
    return sorted(out)


def shuffle_tuples(u: tuple, v: tuple) -> dict[tuple, int]:
    """Multiset of interleavings of u and v preserving both orders, keyed in
    the order of the placements of u's letters, taken lexicographically.

    Charged C(n, |u|) (8 + n // 3) units, n = |u| + |v|, on every call; the
    items come from ``_shuffle_items`` on a memo that lives for this call
    only, so nothing is kept between calls.
    """
    n = len(u) + len(v)
    charge(math.comb(n, len(u)) * (8 + n // 3))
    if not u or not v:
        return {u + v: 1}
    return dict(_shuffle_items(u, v, 0, 0, {}))


def _shuffle_items(u: tuple, v: tuple, i: int, j: int, memo: dict) -> tuple:
    """The (word, multiplicity) items of the shuffle of u[i:] and v[j:], both
    nonempty, by a prefix recursion memoized in memo by (i, j).

    sh(a u', b v') = a sh(u', b v') + b sh(a u', v'), unrolled along the
    shorter word, so the recursion is only as deep as that word is long:
    for v = b v' no longer than u, sh(u, v) is the sum over q = |u|, ..., 0
    of u[:q] b sh(u[q:], v'), and otherwise, for u = a u', the sum over
    k = 0, ..., |v| of v[:k] a sh(u', v[k:]).  Either sum meets the words in
    the order of the placements of u's letters; a word met again keeps its
    first place and adds to its multiplicity.  Every pair it recurses on is
    a pair of suffixes of u and v, so (i, j) names it.
    """
    found = memo.get((i, j))
    if found is not None:
        return found
    out: dict = {}
    get = out.get
    if len(v) - j <= len(u) - i:
        b = v[j]
        splits = ((u[i:q] + (b,), q, j + 1) for q in range(len(u), i - 1, -1))
    else:
        a = u[i]
        splits = ((v[j:k] + (a,), i + 1, k) for k in range(j, len(v) + 1))
    for head, l, r in splits:
        if l < len(u) and r < len(v):
            for w, m in _shuffle_items(u, v, l, r, memo):
                w = head + w
                out[w] = get(w, 0) + m
        else:  # one word is used up: one interleaving
            w = head + u[l:] + v[r:]
            out[w] = get(w, 0) + 1
    found = memo[i, j] = tuple(out.items())
    return found


def deshuffle_tuples(w: tuple) -> dict[tuple[tuple, tuple], int]:
    """All (subsequence, complement) splits of w, with multiplicities."""
    out: dict[tuple[tuple, tuple], int] = {}
    n = len(w)
    charge(2**n * (12 + n // 2))
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            chosen = frozenset(subset)
            left = tuple(w[i] for i in range(n) if i in chosen)
            right = tuple(w[i] for i in range(n) if i not in chosen)
            out[left, right] = out.get((left, right), 0) + 1
    return out


def deconcat_tuples(w: tuple) -> list[tuple[tuple, tuple]]:
    return [(w[:i], w[i:]) for i in range(len(w) + 1)]


# ---------------------------------------------------------------------------
# instance definition


@dataclass(frozen=True, eq=False)
class HopfInstance:
    """A connected graded Hopf algebra given by structure maps on the basis."""

    name: str
    dim: int
    unit: object
    product_basis: Callable[[object, object], LinComb]
    coproduct_basis: Callable[[object], TensorComb]
    basis: Callable[[int], tuple]
    antipode_closed_basis: Callable[[object], LinComb] | None = None
    _memo: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        # every instance starts with an empty memo: dataclasses.replace passes
        # the original's, whose entries must not leak into a copy with other maps
        object.__setattr__(self, "_memo", {})

    def counit(self, b) -> Fraction:
        return Fraction(1) if b.grade == 0 else Fraction(0)

    def one(self) -> LinComb:
        return LinComb.term(self.unit)

    def memo(self, name: str) -> dict:
        """A cache for data derived from the structure maps."""
        return self._memo.setdefault(name, {})

    def _reader(self, name: str, source: Callable, units: int) -> Callable:
        """A reader of the memo ``name``, looked up once: read(*key) is
        source(*key), computed and charged ``units`` on its first read."""
        memo = self.memo(name)

        def read(*key):
            row = memo.get(key)
            if row is None:
                charge(units)
                row = memo[key] = source(*key)
            return row

        return read

    @functools.cached_property
    def product_row(self) -> Callable[[object, object], tuple]:
        """product_row(a, b): the terms of ``product_basis(a, b)`` as (basis, c)
        pairs, with an integral c as an int, read from the map's rows
        (``rows_of``); the rows or the map are called once per pair of
        arguments."""
        return self._reader("product_rows", rows_of(self.product_basis), 32)

    @functools.cached_property
    def coproduct_row(self) -> Callable[[object], tuple]:
        """coproduct_row(b): the terms of ``coproduct_basis(b)`` as
        ((left, right), c) pairs, with an integral c as an int, read from the
        map's rows (``rows_of``); the rows or the map are called once per
        argument."""
        return self._reader("coproduct_rows", rows_of(self.coproduct_basis), 24)

    def product(self, x: LinComb, y: LinComb, max_grade: int | None = None) -> LinComb:
        """Bilinear product; pairs beyond max_grade are skipped (grading)."""
        return LinComb.bilinear(x, y, self.product_row, max_grade)

    def coproduct(self, x: LinComb) -> TensorComb:
        return TensorComb.linear(x, self.coproduct_row)

    def reduced_coproduct(self, x: LinComb) -> TensorComb:
        return self.coproduct(x) - TensorComb.of(self.one(), x) - TensorComb.of(x, self.one())

    def multiply_tensors(self, a: TensorComb, b: TensorComb) -> TensorComb:
        """Slot-wise product on tensors, (x1 (x) x2)(y1 (x) y2) = x1y1 (x) x2y2."""
        row = self.product_row

        def pair_product(x: tuple, y: tuple):
            right = row(x[1], y[1])
            for p, u in row(x[0], y[0]):
                for q, v in right:
                    yield (p, q), u * v

        return TensorComb.bilinear(a, b, pair_product)

    # -- antipodes ---------------------------------------------------------

    def antipode_basis(self, b, side: str = "right") -> LinComb:
        """The recursive antipode of b as a LinComb: the view of
        ``antipode_row(b, side)``."""
        return LinComb.from_nums(dict(self.antipode_row(b, side)))

    @functools.cached_property
    def antipode_row(self) -> Callable[[object, str], tuple]:
        """antipode_row(b, side): the recursive antipode of b as (basis, c)
        pairs, with an integral c as an int, memoized per basis element and
        side; a side other than "left" or "right" raises ValueError and is
        never memoized.

        The reduced-coproduct recursion runs on integer rows: S 1 = 1 and
        S h = -h - sum c h' S(h'') over the terms c h' (x) h'' of
        Delta h - 1 (x) h - h (x) 1 for side "right", and -h - sum c S(h') h''
        for side "left", with products read from ``product_row``.  Each side
        recurses on its own rows, so the two recursions stay independent of
        each other and of ``antipode_closed_basis``.  A non-integral structure
        constant makes coefficients Fractions.
        """
        product_row, coproduct_row, unit = self.product_row, self.coproduct_row, self.unit

        def product(l, r, side: str):
            """l S(r) (right) or S(l) r (left), summed before it is scaled."""
            charge(20 * len(antipode(r if side == "right" else l, side)))
            if side == "right":
                parts = ((product_row(l, q), v) for q, v in antipode(r, side))
            else:
                parts = ((product_row(p, r), u) for p, u in antipode(l, side))
            return _accumulate(parts).items()

        def recursion(b, side: str) -> tuple:
            """The row of b from the rows of the smaller basis elements,
            summed by the one accumulation loop of ``linalg``."""
            if side not in ("left", "right"):
                raise ValueError(f"unknown antipode side {side!r}")
            if b.grade == 0:
                return ((b, 1),)
            # the coproduct less exactly one 1 (x) b and one b (x) 1
            units = (((unit, b), 1), ((b, unit), 1))
            reduced = _accumulate(((coproduct_row(b), 1), (units, -1)))
            rest = _accumulate((product(l, r, side), c) for (l, r), c in reduced.items())
            out = _accumulate(((((b, 1),), -1), (rest.items(), -1)))  # -b - rest
            return _row(out.items())

        antipode = self._reader("antipode_rows", recursion, 0)
        return antipode

    def antipode(self, x: LinComb, side: str = "right") -> LinComb:
        return LinComb.linear(x, lambda b: self.antipode_row(b, side))

    def antipode_closed(self, x: LinComb) -> LinComb:
        if self.antipode_closed_basis is None:
            raise ValueError(f"no closed-form antipode for instance {self.name!r}")
        return x.map_basis(self.antipode_closed_basis)

    def basis_up_to(self, n: int) -> tuple:
        out: list = []
        for k in range(n + 1):
            out.extend(self.basis(k))
        return tuple(out)


def _row(x) -> tuple:
    """The (key, c) pairs of a combination, with each integral Fraction c as an int."""
    return tuple(
        (k, c.numerator if type(c) is Fraction and c.denominator == 1 else c) for k, c in x
    )


def convolution(
    S, T, instance: HopfInstance, grade_bound: int | None = None
) -> Callable[[LinComb], LinComb]:
    """Convolution S * T = m (S (x) T) Delta on linear endomaps.

    S and T are either callables basis -> LinComb or finite tables (dicts);
    for tables, a missing key raises GradeBoundExceeded.
    """

    def as_map(M):
        if isinstance(M, dict):
            def lookup(b):
                try:
                    return M[b]
                except KeyError:
                    raise GradeBoundExceeded(f"endomap table has no entry for {b}")
            return lookup
        return M

    Sm, Tm = as_map(S), as_map(T)

    def conv(x: LinComb) -> LinComb:
        if grade_bound is not None and x.max_grade() > grade_bound:
            raise GradeBoundExceeded(
                f"input grade {x.max_grade()} exceeds bound {grade_bound}"
            )
        return instance.coproduct(x).fold(lambda l, r: instance.product(Sm(l), Tm(r)))

    return conv


def identity_map(b) -> LinComb:
    return LinComb.term(b)


def unit_counit_map(instance: HopfInstance) -> Callable[[object], LinComb]:
    def ue(b):
        return instance.one().scale(instance.counit(b))

    return ue


def structure_map(comb: type, row: Callable) -> Callable:
    """The public form of a structure map given by its integer rows.

    Called on basis elements, the map returns ``row(*args)`` as a ``comb``
    (LinComb or TensorComb) in the row's term order, memoized; it carries
    ``row`` as its ``row`` attribute, which ``rows_of`` reads, so instances
    and lift tables take the rows without building a combination.
    """
    @functools.lru_cache(maxsize=None)
    @functools.wraps(row)
    def view(*args):
        return comb.from_nums(dict(row(*args)))

    view.row = row
    return view


def rows_of(basis_map: Callable) -> Callable:
    """The rows of a structure map: its ``row`` when it is a ``structure_map``,
    else its values as ``_row`` reads them (a replaced map, say)."""
    row = getattr(basis_map, "row", None)
    if row is None:
        return lambda *args: _row(basis_map(*args))
    return row


# ---------------------------------------------------------------------------
# concrete instances


def _sum_row(n: MultiIndex, m: MultiIndex) -> tuple:
    return ((n + m, 1),)


def _binomial_row(n: MultiIndex) -> tuple:
    """The binomial coproduct: sum over m <= n of binom(n, m) X^m (x) X^(n-m)."""
    ranges = [range(e + 1) for e in n.entries]
    return tuple(
        ((m, n - m), multiindex_binomial(n, m))
        for m in map(MultiIndex, itertools.product(*ranges))
    )


poly_product = structure_map(LinComb, _sum_row)
poly_coproduct = structure_map(TensorComb, _binomial_row)


@functools.lru_cache(maxsize=None)
def poly_instance(d: int) -> HopfInstance:
    """Polynomials X^n with pointwise product and binomial coproduct."""
    check_dimension(d)

    def antipode(n: MultiIndex) -> LinComb:
        return LinComb.term(n, Fraction(-1) ** n.grade)

    return HopfInstance(
        name="poly",
        dim=d,
        unit=MultiIndex((0,) * d),
        product_basis=poly_product,
        coproduct_basis=poly_coproduct,
        basis=lambda k: multi_indices(d, k),
        antipode_closed_basis=antipode,
    )


def _word_antipode(w: Word) -> LinComb:
    return LinComb.term(w.reverse(), Fraction(-1) ** w.grade)


def _concat_row(u: Word, v: Word) -> tuple:
    return ((u.concat(v), 1),)


def _deshuffle_row(w: Word) -> tuple:
    return tuple(((Word(l), Word(r)), m) for (l, r), m in deshuffle_tuples(w.letters).items())


def _shuffle_row(u: Word, v: Word) -> tuple:
    return tuple((Word(w), m) for w, m in shuffle_tuples(u.letters, v.letters).items())


def _deconcat_row(w: Word) -> tuple:
    return tuple(((Word(l), Word(r)), 1) for l, r in deconcat_tuples(w.letters))


concat = structure_map(LinComb, _concat_row)
deshuffle = structure_map(TensorComb, _deshuffle_row)
shuffle = structure_map(LinComb, _shuffle_row)
deconcat = structure_map(TensorComb, _deconcat_row)


@functools.lru_cache(maxsize=None)
def concat_deshuffle_instance(d: int) -> HopfInstance:
    """Words with concatenation product and deshuffle coproduct."""
    check_dimension(d)
    return HopfInstance(
        name="concat_deshuffle",
        dim=d,
        unit=EMPTY_WORD,
        product_basis=concat,
        coproduct_basis=deshuffle,
        basis=lambda k: words(d, k),
        antipode_closed_basis=_word_antipode,
    )


@functools.lru_cache(maxsize=None)
def shuffle_deconcat_instance(d: int) -> HopfInstance:
    """Words with shuffle product and deconcatenation coproduct."""
    check_dimension(d)
    return HopfInstance(
        name="shuffle_deconcat",
        dim=d,
        unit=EMPTY_WORD,
        product_basis=shuffle,
        coproduct_basis=deconcat,
        basis=lambda k: words(d, k),
        antipode_closed_basis=_word_antipode,
    )


def get_instance(name: str, d: int) -> HopfInstance:
    """Look up an instance by CLI name: poly, shuffle, concat, ck, gl."""
    if name == "poly":
        return poly_instance(d)
    if name == "shuffle":
        return shuffle_deconcat_instance(d)
    if name == "concat":
        return concat_deshuffle_instance(d)
    if name in ("ck", "gl"):
        from . import hopf_ck

        return hopf_ck.ck_instance(d) if name == "ck" else hopf_ck.gl_instance(d)
    raise ValueError(f"unknown algebra {name!r}")


# ---------------------------------------------------------------------------
# axiom checking


@dataclass
class CheckEntry:
    law: str
    ok: bool
    witness: str = ""


@dataclass
class CheckReport:
    """Per-law outcome of one exact check run.

    ``holder_ratios`` is filled by rough-path checks only; when it is
    non-empty, the summary ends with its supremum.
    """

    title: str
    entries: list[CheckEntry] = field(default_factory=list)
    holder_ratios: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.ok]

    def run(self, law: str, failures: Iterator[str]):
        """Record law as failed with the first witness the iterator yields, if any."""
        witness = next(failures, None)
        self.entries.append(CheckEntry(law, witness is None, witness or ""))

    def summary(self) -> str:
        lines = [self.title]
        for e in self.entries:
            status = "ok" if e.ok else "FAIL"
            line = f"  {e.law}: {status}"
            if not e.ok:
                line += f"  witness: {e.witness}"
            lines.append(line)
        if self.holder_ratios:
            worst = max(self.holder_ratios.values())
            lines.append(f"  empirical Hölder ratio sup (finite required): {worst:.6g}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """The report as JSON-ready data: title, verdict, per-law ok and witness
        (null when ok) and, when Hölder ratios were taken, their supremum (null
        when not finite)."""
        out = {
            "title": self.title,
            "passed": self.passed,
            "laws": [
                {"law": e.law, "ok": e.ok, "witness": None if e.ok else e.witness}
                for e in self.entries
            ],
        }
        if self.holder_ratios:
            worst = max(self.holder_ratios.values())
            out["holder_ratio_sup"] = worst if math.isfinite(worst) else None
        return out


def _triple_left(instance: HopfInstance, x: LinComb) -> Combination:
    """(Delta (x) id) Delta x, keyed by basis triples."""
    cop = instance.coproduct_row
    return Combination.linear(
        instance.coproduct(x),
        lambda lr: (((l1, l2, lr[1]), c) for (l1, l2), c in cop(lr[0])),
    )


def _triple_right(instance: HopfInstance, x: LinComb) -> Combination:
    """(id (x) Delta) Delta x, keyed by basis triples."""
    cop = instance.coproduct_row
    return Combination.linear(
        instance.coproduct(x),
        lambda lr: (((lr[0], r1, r2), c) for (r1, r2), c in cop(lr[1])),
    )


def _antipode_convolution(instance: HopfInstance, cop: TensorComb, side: str) -> LinComb:
    """m (S (x) id) on a tensor when side is "left", m (id (x) S) when it is
    "right", with S the recursive right antipode."""
    row, antipode = instance.product_row, instance.antipode_row
    if side == "left":
        return LinComb.linear(cop, lambda lr: (
            (k, u * v) for p, u in antipode(lr[0], "right") for k, v in row(p, lr[1])))
    return LinComb.linear(cop, lambda lr: (
        (k, u * v) for q, v in antipode(lr[1], "right") for k, u in row(lr[0], q)))


def random_combination(rng: random.Random, basis_pool: tuple, max_terms: int = 3) -> LinComb:
    """A sum of 1 to max_terms terms n/q * b, with b drawn from the pool, n
    from -9..9 and q from 1..9, summed in integers over the lcm of the q.

    The draws are those of ``rng.randint(1, max_terms)``, then per term
    ``rng.choice(basis_pool)``, ``rng.randint(-9, 9)`` and
    ``rng.randint(1, 9)``, each made by one call of ``rng._randbelow``, the
    primitive those methods end in; a test pins the stream against them.
    """
    if max_terms < 1 or not basis_pool:
        raise ValueError("random_combination needs max_terms >= 1 and a nonempty pool")
    charge(40)
    below, size = rng._randbelow, len(basis_pool)
    nums: dict = {}
    den = 1
    for _ in range(1 + below(max_terms)):
        b = basis_pool[below(size)]
        n, q = below(19) - 9, below(9) + 1
        lcm = math.lcm(den, q)
        if lcm != den:
            nums = {k: v * (lcm // den) for k, v in nums.items()}
            den = lcm
        nums[b] = nums.get(b, 0) + n * (lcm // q)
    return LinComb.from_nums({k: v for k, v in nums.items() if v}, den)


def check_axioms(
    instance: HopfInstance, max_grade: int, samples: int = 500, seed: int = 0
) -> CheckReport:
    """Exact verification of the Hopf axioms up to a grade bound.

    Deterministic part: every law on all basis tuples whose total grade stays
    within ``max_grade`` (products and coproducts are graded, so the laws are
    grade-local).  Randomized part: ``samples`` seeded random combinations
    of basis elements of grade <= max(1, max_grade // 2), three per sample
    from ``random_combination``, multiplied with no grade cap: the triple
    products reach grade 3 max(1, max_grade // 2), 6 at ``max_grade`` 4,
    past ``max_grade`` for every bound but 3.  Every product of the check is
    uncapped, so ``bilinear`` runs its plain double loop over the operands'
    terms.
    Both sides of each law are combinations of one class, integer
    numerators over one denominator with the content divided out, so they
    are equal exactly when their canonical forms are.  Each basis pair is
    multiplied once per check: the unit, associativity and compatibility
    laws read its product from a memo that lives for this call only, so a
    later check of another instance multiplies afresh.  The antipode law
    reads ``antipode_row``, whose recursions run on integer rows; the left
    and the right recursion and the closed form stay three independent
    oracles.
    """
    if max_grade < 1:
        raise ValueError("max_grade must be >= 1")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    report = CheckReport(f"axiom check: {instance.name}, grade <= {max_grade}")
    rng = random.Random(seed)
    term, unit = LinComb.term, instance.unit
    one, zero = term(unit), LinComb.zero()
    rows, coproduct = instance.product_row, instance.coproduct

    def product(x: LinComb, y: LinComb) -> LinComb:
        return LinComb.bilinear(x, y, rows)

    by_grade = {k: instance.basis(k) for k in range(max_grade + 1)}
    all_basis = [b for k in range(max_grade + 1) for b in by_grade[k]]
    coproducts: dict = {}
    pairs: dict = {}  # this check's basis pair products, gone when it returns

    def pair(b1, b2) -> LinComb:
        out = pairs.get((b1, b2))
        if out is None:
            out = pairs[b1, b2] = product(term(b1), term(b2))
        return out

    def basis_coproduct(b) -> TensorComb:
        out = coproducts.get(b)
        if out is None:
            out = coproducts[b] = coproduct(term(b))
        return out

    # unit and counit
    def unit_failures():
        for b in all_basis:
            x = term(b)
            if pair(unit, b) != x or pair(b, unit) != x:
                yield f"unit law fails on {b}"

    report.run("unit", unit_failures())

    def counit_failures():
        # the counit is 1 on grade 0 and 0 above
        for b in all_basis:
            x = term(b)
            cop = basis_coproduct(b)
            left = LinComb.linear(cop, lambda lr: () if lr[0].grade else ((lr[1], 1),))
            right = LinComb.linear(cop, lambda lr: () if lr[1].grade else ((lr[0], 1),))
            if left != x or right != x:
                yield f"counit property fails on {b}"
        if instance.counit(unit) != 1:
            yield "counit(1) != 1"

    report.run("counit", counit_failures())

    # grading
    def grading_failures():
        for b1 in all_basis:
            for b2 in (b for g in range(max_grade + 1 - b1.grade) for b in by_grade[g]):
                prod = rows(b1, b2)
                if any(b.grade != b1.grade + b2.grade for b, _ in prod):
                    yield f"product not graded on ({b1}, {b2})"
        for b in all_basis:
            for (l, r), _ in instance.coproduct_row(b):
                if l.grade + r.grade != b.grade:
                    yield f"coproduct not graded on {b}"

    report.run("grading", grading_failures())

    # associativity on basis triples within the bound
    def assoc_failures():
        # (b1 b2) b3 and b1 (b2 b3), each a pair product times one basis element
        for b1, b2, b3 in _bounded_triples(by_grade, max_grade):
            left = LinComb.linear(pair(b1, b2), lambda k: rows(k, b3))
            if left != LinComb.linear(pair(b2, b3), lambda k: rows(b1, k)):
                yield f"associativity fails on ({b1}, {b2}, {b3})"

    report.run("associativity", assoc_failures())

    # coassociativity per basis element
    def coassoc_failures():
        for b in all_basis:
            if _triple_left(instance, term(b)) != _triple_right(instance, term(b)):
                yield f"coassociativity fails on {b}"

    report.run("coassociativity", coassoc_failures())

    # compatibility 1-3
    def compat_failures():
        if coproduct(one) != TensorComb.term(unit, unit):
            yield "Delta(1) != 1 (x) 1"
        for b1, b2 in _bounded_pairs(by_grade, max_grade):
            lhs = coproduct(pair(b1, b2))
            rhs = instance.multiply_tensors(basis_coproduct(b1), basis_coproduct(b2))
            if lhs != rhs:
                yield f"Delta is not an algebra morphism on ({b1}, {b2})"
            counit = 0 if b1.grade or b2.grade else 1
            if dict(rows(b1, b2)).get(unit, 0) != counit:
                yield f"counit is not multiplicative on ({b1}, {b2})"

    report.run("compatibility", compat_failures())

    # antipode law, both recursions, closed form
    def antipode_failures():
        for b in all_basis:
            x = term(b)
            target = zero if b.grade else one
            cop = basis_coproduct(b)
            left = _antipode_convolution(instance, cop, "left")
            right = _antipode_convolution(instance, cop, "right")
            if left != target or right != target:
                yield f"antipode law fails on {b}"
            if dict(instance.antipode_row(b, "left")) != dict(instance.antipode_row(b, "right")):
                yield f"left/right antipode recursions disagree on {b}"
            if instance.antipode_closed_basis is not None:
                closed = LinComb.linear(x, instance.antipode_closed_basis)
                if closed != LinComb.linear(x, lambda b: instance.antipode_row(b, "right")):
                    yield f"closed-form antipode disagrees on {b}"

    report.run("antipode", antipode_failures())

    # randomized combinations
    def random_failures():
        pool = tuple(b for b in all_basis if b.grade <= max(1, max_grade // 2))
        for i in range(samples):
            x, y, z = (random_combination(rng, pool) for _ in range(3))
            which = i % 3
            if which == 0:
                if product(product(x, y), z) != product(x, product(y, z)):
                    yield f"random associativity failure (sample {i})"
            elif which == 1:
                lhs = coproduct(product(x, y))
                if lhs != instance.multiply_tensors(coproduct(x), coproduct(y)):
                    yield f"random compatibility failure (sample {i})"
            else:
                left = _antipode_convolution(instance, coproduct(x), "left")
                if left != term(unit, x.coeff(unit)):
                    yield f"random antipode failure (sample {i})"

    report.run("random-combinations", random_failures())
    return report


def _bounded_pairs(by_grade: dict, max_grade: int):
    for g1 in range(max_grade + 1):
        for g2 in range(max_grade + 1 - g1):
            for b1 in by_grade[g1]:
                for b2 in by_grade[g2]:
                    yield b1, b2


def _bounded_triples(by_grade: dict, max_grade: int):
    for g1 in range(max_grade + 1):
        for g2 in range(max_grade + 1 - g1):
            for g3 in range(max_grade + 1 - g1 - g2):
                for b1 in by_grade[g1]:
                    for b2 in by_grade[g2]:
                        for b3 in by_grade[g3]:
                            yield b1, b2, b3
