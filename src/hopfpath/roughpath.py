"""Canonical lifts of piecewise-linear paths and rough-path axiom checking.

On a linear segment both lifts have closed forms with rational coefficients,
so the two-parameter evaluators are exact: identities (character, Chen,
inverse) are checked with no tolerance, while Hölder ratios and homogeneous
norms are reported as floats.
"""
from __future__ import annotations

import bisect
import csv
import functools
import io
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .hopf_core import (
    CheckEntry,
    CheckReport,
    HopfInstance,
    concat_deshuffle_instance,
    rows_of,
    shuffle_deconcat_instance,
)
from .hopf_ck import (
    ck_instance,
    ck_reduced_coproduct,
    gl_instance,
    phi,
    phi_hat,
    phi_kernel_basis,
)
from .linalg import LinComb, numerators, pair
from .series import TruncatedElement, is_grouplike
from .symbols import (
    Forest,
    Tree,
    Word,
    forests_up_to,
    multiplicative,
    words_up_to,
)
from .work import charge


def to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"cannot convert {x!r} to an exact time/value")
    if isinstance(x, (int, float, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError:  # a string such as "1/0"
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot convert {x!r} to an exact time/value")


class PathError(ValueError):
    pass


@dataclass(frozen=True)
class PiecewiseLinearPath:
    """Knots (t_i, x_i) with strictly increasing times; clamped outside."""

    times: tuple[Fraction, ...]
    values: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_knots(cls, knots: Iterable[tuple]) -> "PiecewiseLinearPath":
        knots = list(knots)
        if len(knots) < 2:
            raise PathError("a path needs at least 2 knots")
        times = tuple(to_fraction(t) for t, _ in knots)
        values = tuple(tuple(to_fraction(v) for v in x) for _, x in knots)
        dims = {len(v) for v in values}
        if len(dims) != 1 or 0 in dims:
            raise PathError("all knots must share one positive dimension")
        for a, b in zip(times, times[1:]):
            if not a < b:
                raise PathError(f"knot times must be strictly increasing, got {a} then {b}")
        return cls(times, values)

    @classmethod
    def from_csv(cls, source) -> "PiecewiseLinearPath":
        """Read knots from CSV with header t,x1,...,xd."""
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        reader = csv.reader(io.StringIO(text))
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
        if not rows:
            raise PathError("empty CSV")
        header = [c.strip() for c in rows[0]]
        if header[0] != "t" or len(header) < 2:
            raise PathError("CSV header must be t,x1,...,xd")
        knots = []
        for row in rows[1:]:
            cells = [c.strip() for c in row]
            knots.append((cells[0], cells[1:]))
        return cls.from_knots(knots)

    @property
    def dim(self) -> int:
        return len(self.values[0])

    def clamp(self, t) -> Fraction:
        t = to_fraction(t)
        if t <= self.times[0]:
            return self.times[0]
        if t >= self.times[-1]:
            return self.times[-1]
        return t

    def position(self, t) -> tuple[Fraction, ...]:
        t = self.clamp(t)
        idx = bisect.bisect_right(self.times, t) - 1
        if t == self.times[idx]:
            return self.values[idx]
        t0, t1 = self.times[idx], self.times[idx + 1]
        lam = (t - t0) / (t1 - t0)
        return tuple(
            a + lam * (b - a) for a, b in zip(self.values[idx], self.values[idx + 1])
        )

@dataclass(frozen=True)
class RoughPathConfig:
    gamma: Fraction
    flavor: str

    @classmethod
    def make(cls, gamma, flavor: str = "geometric") -> "RoughPathConfig":
        gamma = to_fraction(gamma)
        if not 0 < gamma < 1:
            raise ValueError("gamma must be in (0, 1)")
        if flavor not in ("geometric", "branched"):
            raise ValueError(f"unknown flavor {flavor!r}")
        return cls(gamma, flavor)

    @property
    def level(self) -> int:
        return int(1 / self.gamma)


class RoughLift:
    """A two-parameter family of truncated group-likes with exact evaluation.

    ``evaluate(s, t)`` gives the value at (s, t) as a TruncatedElement, which
    ``eval`` checks and caches and ``grid_values`` reads on a grid for the
    exact checks.  A lift that can serve a run of equal steps faster than
    window by window passes ``walk``, which ``steps`` then calls; it must
    yield what the window-by-window loop yields.
    """

    def __init__(self, flavor: str, dim: int, level: int, evaluate: Callable,
                 walk: Callable | None = None):
        self.flavor = flavor
        self.dim = dim
        self.level = level
        self._evaluate = evaluate
        self._walk = walk
        self._cache: dict = {}

    @property
    def algebra(self) -> HopfInstance:
        if self.flavor == "geometric":
            return concat_deshuffle_instance(self.dim)
        return gl_instance(self.dim)

    def eval(self, s, t) -> TruncatedElement:
        """The value at (s, t), cached per (s, t); a value outside the lift's
        algebra at its level raises ValueError naming (s, t)."""
        key = (to_fraction(s), to_fraction(t))
        elt = self._cache.get(key)
        if elt is None:
            elt = self._evaluate(*key)
            if elt.level != self.level or elt.algebra is not self.algebra:
                raise ValueError(f"the lift value at (s,t)=({key[0]},{key[1]}) is not in the "
                                 f"lift's algebra at level {self.level}")
            self._cache[key] = elt
        return elt

    def grid_values(self, grid: Sequence[Fraction]) -> list[list[LinComb]]:
        """X[i][j], the value at (grid[i], grid[j]) from ``eval``, read once
        per pair."""
        return [[self.eval(s, t).value for t in grid] for s in grid]

    def steps(self, start, step, end) -> Iterator[tuple[Fraction, LinComb]]:
        """The windows of equal steps from start to end, lazily: (t, value)
        for t = min(start + k step, end), k = 1, 2, ..., with value the
        window's value from the previous t (start for the first) to t.
        Without a walker the windows are read one at a time and in order
        through ``eval``.
        """
        start, step, end = to_fraction(start), to_fraction(step), to_fraction(end)
        if step <= 0:
            raise ValueError("step must be positive")
        if self._walk is not None:
            return self._walk(start, step, end)
        return self._windows(start, step, end)

    def _windows(self, s: Fraction, step: Fraction, end: Fraction):
        while s < end:
            t = min(s + step, end)
            yield t, self.eval(s, t).value
            s = t

    def coeff(self, s, t, basis) -> Fraction:
        return self.eval(s, t).coeff(basis)

    def value(self, s, t, x: LinComb) -> Fraction:
        """Evaluate the lift as a functional on a linear combination."""
        return pair(x, self.eval(s, t).value)


# ---------------------------------------------------------------------------
# closed forms on one linear segment
#
# On a segment with increment v the signature is v^{(x) k} / k! at level k,
# and the branched lift gives a forest f the coefficient prod_i v_i^{n_i} / f!,
# with n_i the number of nodes labelled i and f! the forest factorial: the
# product of Butcher's tree factorials gamma(t) = |t| gamma(children of t)
# over the trees of f (Hairer, Lubich & Wanner, Geometric Numerical
# Integration, ch. III).  A word is the case f! = k!.  The lifts read these
# from a table (``_LiftTable``) in integer form; the per-term Fraction
# recursions ``_word_segment`` and ``_forest_segment`` in
# tests/reference_maps.py are the references the tests compare it with.


@multiplicative(1, operator.mul)
def _forest_factorial(tree: Tree) -> int:
    return tree.grade * _forest_factorial(tree.children)


@multiplicative((), operator.add)
def _node_labels(tree: Tree) -> tuple[int, ...]:
    return _node_labels(tree.children) + (tree.label,)


class _Positions(NamedTuple):
    """An exact combination on a lift table's positions: the integer
    numerators ``nums`` at the ascending positions ``pos``, over ``den``.
    Built by ``_reduced``, with no zero numerator and the content divided
    out, each combination has one form."""

    pos: tuple[int, ...]
    nums: list[int]
    den: int


def _reduced(pos: tuple, nums: list, den: int) -> _Positions:
    """The form nums / den on pos with the content divided out."""
    g = math.gcd(den, *nums)
    if g == 1:
        return _Positions(pos, nums, den)
    return _Positions(pos, [n // g for n in nums], den // g)


class _LiftTable:
    """The lifts' truncated algebra at one level, on integer positions.

    ``keys`` lists the basis up to the level in basis order, which runs by
    grade; the index of an element there is its position, and ``ends[r]`` is
    one past the last position of grade <= r.

    ``closed_form`` reads a segment's closed form off ``count_of`` and
    ``weights``: per position, the index j of the element's label counts n
    in ``counts`` and w = lcm / f! (or lcm / k!), ``lcm`` being the lcm of
    the f! over the table.  With the increment written as v_i = a_i / Q, the
    coefficient at a position is prod_i a_i^{n_i} Q^{level - k} w /
    (Q^level lcm), k = |n|.

    ``product`` multiplies truncated at the level.  For a left position p and
    the terms of a right operand y that fit p's grade, p's row says where the
    products of their basis elements land: (ks, outs) for the unit structure
    constants, k indexing y's terms, and (k, out, c) triples for the others.
    The row is computed when a product first meets p with those fitting
    positions, from the rows of ``product_basis`` (``rows_of``) on the pairs
    it lists only, and kept under them; so no row holds a pair with a zero
    term or past the level, and right operands with the same fitting
    positions, such as the closed forms of a path's generic pieces, share
    rows.  A product accumulates in one dense list and comes out in table
    order.  Structure constants must be integers.

    ``cut_product`` multiplies two characters of the Connes-Kreimer algebra,
    such as branched lift values, with X(t1 t2) = X(t1) X(t2) (Gubinelli,
    "Ramification of rough paths", JDE 2010): a tree t gets the admissible-cut
    sum over ``ck_instance(d).coproduct_row(t)``, of the crown's value in x
    times the trunk's in y, and a forest of two or more trees the product of
    the values of the forest less its last tree and of that tree.  It reads
    no structure constant of the product, gives what ``product`` gives on
    characters, term for term, and is wrong on anything else.
    """

    def __init__(self, algebra: HopfInstance, level: int):
        self.dim = algebra.dim
        self.level = level
        self.keys = algebra.basis_up_to(level)
        charge(16 * len(self.keys))
        self.index = {b: i for i, b in enumerate(self.keys)}
        grades = [b.grade for b in self.keys]
        self.ends = [bisect.bisect_right(grades, r) for r in range(level + 1)]
        facts = [math.factorial(b.grade) if isinstance(b, Word) else _forest_factorial(b)
                 for b in self.keys]
        self.lcm = math.lcm(*facts)
        counts: dict = {}  # label counts -> their index
        count_of = []
        for b in self.keys:
            labels = b.letters if isinstance(b, Word) else _node_labels(b)
            n = tuple(map(labels.count, range(1, algebra.dim + 1)))
            count_of.append(counts.setdefault(n, len(counts)))
        self.counts, self.count_of = tuple(counts), tuple(count_of)
        self.weights = tuple(self.lcm // fact for fact in facts)
        self.product_row = rows_of(algebra.product_basis)
        self.rows: dict = {}  # the fitting positions of a right operand -> {p: row}
        self._cuts: tuple | None = None  # cut_product's plan, built on first use
        self._all = tuple(range(len(self.keys)))

    def closed_form(self, increment: tuple[Fraction, ...]) -> _Positions:
        """The closed form on a segment with this increment, with one power
        product per label-count vector."""
        charge(len(self.keys))
        nums, q = numerators(increment)
        level = self.level
        q_powers = [q**e for e in range(level + 1)]
        powers = [[a**e for e in range(level + 1)] for a in nums]
        monomials = []
        for n in self.counts:
            m = q_powers[level - sum(n)]
            for p, e in zip(powers, n):
                m *= p[e]
            monomials.append(m)
        out = map(operator.mul, map(monomials.__getitem__, self.count_of), self.weights)
        return self._form(list(out), q_powers[level] * self.lcm)

    def product(self, x: _Positions, y: _Positions) -> _Positions:
        """The product x y truncated at the level."""
        ends, level, rowsets = self.ends, self.level, self.rows
        xpos, xnums, ypos, ynums = x.pos, x.nums, y.pos, y.nums
        charge(len(self.keys))
        acc = [0] * len(self.keys)
        start = 0
        for g, end in enumerate(ends):  # x's terms of grade g, and y's that fit them
            stop = bisect.bisect_left(xpos, end, start)
            if stop == start:
                continue
            fit = ypos[: bisect.bisect_left(ypos, ends[level - g])]
            charge(2 * (stop - start) * len(fit))
            rows = rowsets.get(fit)
            if rows is None:
                rows = rowsets[fit] = {}
            for p, u in zip(xpos[start:stop], xnums[start:stop]):
                row = rows.get(p)
                if row is None:
                    row = rows[p] = self._row(p, fit)
                ks, outs, others = row
                for k, o in zip(ks, outs):
                    acc[o] += u * ynums[k]
                for k, o, c in others:
                    acc[o] += u * ynums[k] * c
            start = stop
        return self._form(acc, x.den * y.den)

    def _row(self, p: int, fit: tuple) -> tuple:
        keys, index, product = self.keys, self.index, self.product_row
        left = keys[p]
        charge(4 * len(fit))
        ks, outs, others = [], [], []
        for k, q in enumerate(fit):
            for b, c in product(left, keys[q]):
                if c == 1:
                    ks.append(k)
                    outs.append(index[b])
                elif type(c) is int:
                    others.append((k, index[b], c))
                else:
                    raise TypeError(f"a lift table needs integral structure constants, "
                                    f"got {c} on {b}")
        return tuple(ks), tuple(outs), tuple(others)

    def cut_product(self, x: _Positions, y: _Positions) -> _Positions:
        """The product x y of two characters truncated at the level, over
        D = x.den y.den: a tree's numerator is the sum of X[crown] Y[trunk]
        over its cuts, a cut of coefficient c counted c times, the unit's
        numerators being x.den and y.den; a forest's is that of the forest
        less its last tree times that tree's, divided by D, which is exact
        because the product is a character over D."""
        crowns, trunks, starts, ends, layers, order = self._cuts or self._cut_plan()
        charge(len(crowns) + len(order))
        X, Y = self._dense(x), self._dense(y)
        sums = list(itertools.accumulate(
            map(operator.mul, map(X.__getitem__, crowns), map(Y.__getitem__, trunks)), initial=0))
        D = x.den * y.den
        values = [D]  # the unit, the trees, then the forests by number of trees
        values += map(operator.sub, map(sums.__getitem__, ends), map(sums.__getitem__, starts))
        for rests, lasts in layers:
            values += list(map(operator.floordiv, map(operator.mul, map(values.__getitem__, rests),
                                                      map(values.__getitem__, lasts)),
                               itertools.repeat(D)))
        return self._form(list(map(values.__getitem__, order)), D)

    def _cut_plan(self) -> tuple:
        """``cut_product``'s plan on an order of its own, in which the unit
        comes first, then the trees in table order, then the forests of two
        trees, of three, and so on: the cuts of every tree in turn as the
        table positions of their crowns and trunks, with each tree's cuts
        from ``starts[i]`` to ``ends[i]``; per number of trees past one, the
        indices in that order of each forest less its last tree and of that
        tree; and per table position, its index in that order."""
        cop, index, keys = ck_instance(self.dim).coproduct_row, self.index, self.keys
        by_count = [[] for _ in range(self.level + 1)]
        for p, f in enumerate(keys):
            by_count[f.tree_count()].append(p)
        at = {p: i for i, p in enumerate(p for ps in by_count for p in ps)}
        crowns, trunks, starts, ends = [], [], [], []
        for p in by_count[1]:
            starts.append(len(crowns))
            charge(20 * len(cop(keys[p])))
            for (l, r), c in cop(keys[p]):
                crowns += [index[l]] * c
                trunks += [index[r]] * c
            ends.append(len(crowns))
        layers = []
        for ps in by_count[2:]:
            rests, lasts = [], []
            for p in ps:
                last, m = keys[p].items[-1]
                rests.append(at[index[Forest(keys[p].items[:-1] + ((last, m - 1),))]])
                lasts.append(at[index[last.as_forest()]])
            layers.append((tuple(rests), tuple(lasts)))
        self._cuts = (tuple(crowns), tuple(trunks), tuple(starts), tuple(ends), tuple(layers),
                      tuple(map(at.__getitem__, range(len(keys)))))
        return self._cuts

    def _form(self, out: list, den: int) -> _Positions:
        """The form of the numerators out, one per position, over den."""
        if all(out):
            return _reduced(self._all, out, den)
        return _reduced(tuple(itertools.compress(self._all, out)), list(filter(None, out)), den)

    def _dense(self, x: _Positions) -> list:
        """x's numerators, one per position."""
        if len(x.pos) == len(self._all):
            return x.nums
        out = [0] * len(self._all)
        for p, u in zip(x.pos, x.nums):
            out[p] = u
        return out

    def comb(self, x: _Positions) -> LinComb:
        """x as a LinComb, keyed by basis elements in table order."""
        charge(len(x.pos))
        return LinComb._make(dict(zip(map(self.keys.__getitem__, x.pos), x.nums)), x.den)

    def positions(self, x: LinComb) -> _Positions | None:
        """x on the table's positions, as it is; None when x holds a key
        outside the table (past the level, or not in the basis)."""
        index = self.index
        try:
            terms = sorted((index[b], n) for b, n in x.nums.items())
        except KeyError:
            return None
        return _Positions(tuple(p for p, _ in terms), [n for _, n in terms], x.den)


def _lift_table(algebra: HopfInstance, level: int) -> _LiftTable:
    """The table of one level, built once per algebra."""
    memo = algebra.memo("lift_table")
    table = memo.get(level)
    if table is None:
        table = memo[level] = _LiftTable(algebra, level)
    return table


def _lift_factory(path: PiecewiseLinearPath, level: int, flavor: str) -> RoughLift:
    if level < 1:
        raise ValueError("lift level must be >= 1")
    d = path.dim
    algebra = concat_deshuffle_instance(d) if flavor == "geometric" else gl_instance(d)
    table = _lift_table(algebra, level)
    one = algebra.one()
    times, values = path.times, path.values
    # per linear piece: the increment over all of it, and its slope
    rises = [tuple(x1 - x0 for x0, x1 in zip(v0, v1)) for v0, v1 in zip(values, values[1:])]
    slopes = [tuple(x / (t1 - t0) for x in rise) for rise, t0, t1 in zip(rises, times, times[1:])]

    def increments(s: Fraction, t: Fraction) -> list[tuple[Fraction, ...]]:
        """X over each linear piece of the clamped window from s to t, in the
        window's order; none when the window is empty."""
        s, t = path.clamp(s), path.clamp(t)
        if s == t:
            return []
        lo, hi = (s, t) if s < t else (t, s)
        first = bisect.bisect_right(times, lo) - 1  # the piece lo lies in
        last = bisect.bisect_left(times, hi, first) - 1  # and the one hi lies in
        if first == last:
            h = t - s
            return [tuple(h * v for v in slopes[first])]
        head, tail = times[first + 1] - lo, hi - times[last]
        out = [tuple(head * v for v in slopes[first]), *rises[first + 1 : last],
               tuple(tail * v for v in slopes[last])]
        return out if s < t else [tuple(-x for x in rise) for rise in reversed(out)]

    # memoized per lift by increment: equal steps on one piece share the positions
    closed_form = functools.lru_cache(maxsize=None)(table.closed_form)

    # every operand of a chain is a closed form or a product of them, so a
    # character: the branched flavor multiplies by admissible cuts
    product = table.product if flavor == "geometric" else table.cut_product

    def chain(pieces: list[tuple[Fraction, ...]]) -> LinComb:
        """The Chen product of the pieces' closed forms, on the table's
        positions, with one LinComb built at the end."""
        charge(20 * len(pieces))
        acc = closed_form(pieces[0])
        for increment in pieces[1:]:
            acc = product(acc, closed_form(increment))
        return table.comb(acc)

    def evaluate(s: Fraction, t: Fraction) -> TruncatedElement:
        pieces = increments(s, t)
        return TruncatedElement(chain(pieces) if pieces else one, level, algebra)

    def walk(start: Fraction, step: Fraction, end: Fraction):
        """``RoughLift.steps`` with the knots walked once: the times as ints
        over one common denominator, a piece cursor that only moves forward,
        and one value per (piece, window length) for the windows inside one
        piece; a window across knots is the Chen chain of ``increments``."""
        den = math.lcm(start.denominator, step.denominator, end.denominator,
                       *(u.denominator for u in times))
        ticks = [u.numerator * (den // u.denominator) for u in times]
        first, last = ticks[0], ticks[-1]
        s, h, e = (u.numerator * (den // u.denominator) for u in (start, step, end))
        piece = 0
        inside: dict = {}  # (piece, window length) -> the window's value
        while s < e:
            t = min(s + h, e)
            lo, hi = max(s, first), min(t, last)  # the window clamped to the path
            if lo >= hi:
                value = one
            else:
                while ticks[piece + 1] <= lo:
                    piece += 1
                if hi <= ticks[piece + 1]:
                    value = inside.get((piece, hi - lo))
                    if value is None:
                        u = Fraction(hi - lo, den)
                        value = inside[piece, hi - lo] = chain(
                            [tuple(u * v for v in slopes[piece])])
                else:
                    value = chain(increments(Fraction(lo, den), Fraction(hi, den)))
            yield Fraction(t, den), value
            s = t

    return RoughLift(flavor, d, level, evaluate, walk=walk)


def signature_lift(path: PiecewiseLinearPath, level: int) -> RoughLift:
    """Canonical geometric lift by iterated integrals (exact per segment)."""
    return _lift_factory(path, level, "geometric")


def branched_lift_fn(path: PiecewiseLinearPath, level: int) -> RoughLift:
    """Canonical branched lift: tree integrals computed exactly segment-wise."""
    return _lift_factory(path, level, "branched")


# ---------------------------------------------------------------------------
# axiom checking


def check_rough_axioms(
    lift: RoughLift, config: RoughPathConfig, grid: Sequence
) -> CheckReport:
    """Exact character/Chen/inverse verification plus empirical Hölder ratios.

    Every exact law works on the lift's values, read once per (s, t) by
    ``RoughLift.grid_values``, which raises ValueError naming (s, t) for a
    value outside the lift's algebra: the identity, Chen and inverse laws
    compare canonical forms of both sides, the group-like law is
    ``series.is_grouplike``, whose witness is the first term of its defect,
    and the character law compares integer numerators.  The Chen products
    run on the product rows of the lifts' table (``_LiftTable.product``), not
    on the admissible cuts a branched lift's chain takes, so the law
    cross-checks that chain; a value holding a key outside the table is
    multiplied by the algebra's ``product``.  The Hölder ratios read the
    same numerators, one float per coefficient.
    """
    grid = [to_fraction(u) for u in grid]
    if len(grid) < 3:
        raise ValueError("grid needs at least 3 points")
    level = lift.level
    report = CheckReport(
        f"rough-path check: {lift.flavor}, gamma={float(config.gamma)}, level={level}"
    )
    algebra = lift.algebra
    basis = [b for b in algebra.basis_up_to(level) if b.grade >= 1]
    one = algebra.one()

    X = lift.grid_values(grid)
    points = list(enumerate(grid))

    def identity_failures():
        for i, t in points:
            if X[i][i] != one:
                yield f"X_tt != 1 at t={t}"

    report.run("identity", identity_failures())

    def grouplike_failures():
        for i, s in points:
            for j, t in points:
                ok, defect = is_grouplike(TruncatedElement(X[i][j], level, algebra))
                if not ok:
                    if defect.is_zero():  # only X_st = 0 has no defect term, and counit 0
                        yield f"not group-like at (s,t)=({s},{t}); counit 0"
                    else:
                        left, right = next(iter(defect.nums))
                        yield f"not group-like at (s,t)=({s},{t}); defect term {left} (x) {right}"

    report.run("group-like", grouplike_failures())

    # the basis pairs within the level, with the shuffle row of each pair for
    # the geometric flavor: nums[b1 b2] den = nums[b1] nums[b2] on branched
    # forests, den sum_w c_w nums[w] = nums[b1] nums[b2] on words
    pairs = [(b1, b2) for b1 in basis for b2 in basis if b1.grade + b2.grade <= level]
    if lift.flavor == "geometric":
        shuffle = shuffle_deconcat_instance(lift.dim)
        pairs = [(b1, b2, shuffle.product_row(b1, b2)) for b1, b2 in pairs]
    else:
        pairs = [(b1, b2, ((b1.mul(b2), 1),)) for b1, b2 in pairs]

    def character_failures():
        for i, s in points:
            for j, t in points:
                charge(2 * len(pairs))
                nums, den = X[i][j].nums, X[i][j].den
                for b1, b2, row in pairs:
                    lhs = den * sum(c * nums.get(w, 0) for w, c in row)
                    if lhs != nums.get(b1, 0) * nums.get(b2, 0):
                        yield f"character fails at ({s},{t}) on ({b1}, {b2})"

    report.run("character", character_failures())

    # a value holding a key outside the table has no positions: its
    # products go through the algebra's product
    table = _lift_table(algebra, level)
    P = [[table.positions(x) for x in row] for row in X]

    def chen_holds(i: int, j: int, k: int) -> bool:
        if P[i][j] is None or P[j][k] is None:
            return algebra.product(X[i][j], X[j][k], level) == X[i][k]
        return table.product(P[i][j], P[j][k]) == P[i][k]

    def chen_failures():
        for i, s in points:
            for j, u in points:
                for k, t in points:
                    if not chen_holds(i, j, k):
                        yield f"Chen fails on (s,u,t)=({s},{u},{t})"

    report.run("chen", chen_failures())

    # the antipode is graded, so terms past the level map past it
    antipode = algebra.antipode_row

    def inverse_failures():
        for i, s in points:
            for j, t in points:
                inverse = LinComb.linear(
                    X[i][j], lambda b: antipode(b, "right") if b.grade <= level else ())
                if X[j][i] != inverse:
                    yield f"inverse law fails on (s,t)=({s},{t})"

    report.run("inverse", inverse_failures())

    # empirical Hölder ratios (floats; a lower bound of the true sup)
    gamma = float(config.gamma)
    ratios = {b: 0.0 for b in basis}
    for i, s in points:
        for j, t in points[i + 1 :]:
            dt = abs(float(t - s))
            if dt == 0:
                continue
            charge(2 * len(basis))
            nums, den = X[i][j].nums, X[i][j].den
            for b in basis:
                c = abs(nums.get(b, 0) / den)  # rounds as float(Fraction) does
                ratios[b] = max(ratios[b], c / dt ** (gamma * b.grade))
    report.holder_ratios = {str(b): r for b, r in ratios.items()}
    report.entries.append(
        CheckEntry(
            "holder-finite",
            all(math.isfinite(r) for r in report.holder_ratios.values()),
        )
    )
    return report


# ---------------------------------------------------------------------------
# q_gamma


class QGammaSingularity(ValueError):
    pass


@functools.lru_cache(maxsize=None)
def _q_gamma_map(gamma: Fraction):
    """The forest map q_gamma for one gamma, multiplicative over trees."""

    @multiplicative(1.0, operator.mul)
    def q(tree: Tree) -> float:
        if tree.grade * gamma <= 1:
            return 1.0
        denom = 2.0 ** (float(gamma) * tree.grade) - 2.0
        if denom == 0:
            raise QGammaSingularity(f"2^(gamma*|z|) = 2 at grade {tree.grade}")
        total = 0.0
        for (l, r), c in ck_reduced_coproduct(tree.as_forest()):
            total += float(c) * q(l) * q(r)
        return total / denom

    return q


def q_gamma(f: Forest, gamma) -> float:
    """Gubinelli growth weights: 1 at low grade, reduced-coproduct recursion above."""
    gamma = to_fraction(gamma)
    if not 0 < gamma < 1:
        raise ValueError("gamma must be in (0, 1)")
    return _q_gamma_map(gamma)(f)


# ---------------------------------------------------------------------------
# geometric <-> branched conversion


class KernelConditionError(ValueError):
    def __init__(self, witness_element: LinComb, s, t, value):
        self.witness_element = witness_element
        self.s, self.t, self.value = s, t, value
        super().__init__(
            f"kernel condition violated at (s,t)=({s},{t}): "
            f"lift({witness_element}) = {value} != 0"
        )


def geo_to_branched(lift: RoughLift) -> RoughLift:
    """Pull the word functional back along phi to a branched lift."""
    if lift.flavor != "geometric":
        raise ValueError("geo_to_branched needs a geometric lift")
    d, level = lift.dim, lift.level
    algebra = gl_instance(d)
    pool = forests_up_to(d, level)

    def evaluate(s: Fraction, t: Fraction) -> TruncatedElement:
        value = {}
        for f in pool:
            c = lift.value(s, t, phi(f))
            if c:
                value[f] = c
        return TruncatedElement.make(LinComb(value), level, algebra)

    return RoughLift("branched", d, level, evaluate)


def kernel_condition_witness(lift: RoughLift, grid: Sequence):
    """First violation of vanishing on ker(phi), or None."""
    grid = [to_fraction(u) for u in grid]
    kernel = phi_kernel_basis(lift.dim, lift.level)
    # whether <x, X_st> is zero does not depend on the scale of x or X_st, so
    # the scan tests integer dot products and builds the Fraction of the
    # witness only
    for s in grid:
        for t in grid:
            charge(2 * sum(map(len, kernel)))
            value = lift.eval(s, t).value.nums
            for x in kernel:
                if sum(c * value.get(f, 0) for f, c in x.nums.items()):
                    return (x, s, t, lift.value(s, t, x))
    return None


def branched_to_geo(lift: RoughLift, grid: Sequence | None = None) -> RoughLift:
    """Restrict a branched lift along the ladder embedding to a geometric one.

    If a grid is given, the integration-by-parts kernel condition is verified
    there first; a violation raises KernelConditionError with a witness.
    """
    if lift.flavor != "branched":
        raise ValueError("branched_to_geo needs a branched lift")
    if grid is not None:
        witness = kernel_condition_witness(lift, grid)
        if witness is not None:
            raise KernelConditionError(*witness)
    d, level = lift.dim, lift.level
    algebra = concat_deshuffle_instance(d)
    pool = words_up_to(d, level)

    def evaluate(s: Fraction, t: Fraction) -> TruncatedElement:
        value = {}
        for w in pool:
            c = lift.coeff(s, t, phi_hat(w))
            if c:
                value[w] = c
        return TruncatedElement.make(LinComb(value), level, algebra)

    return RoughLift("geometric", d, level, evaluate)
