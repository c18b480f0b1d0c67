"""The structure maps of the five built-in algebras as LinComb/TensorComb
recursions, kept as test references for the integer rows the library reads.

Each map builds its combination term by term, in the order the library's
rows promise: ``_row`` of a reference value must equal the row, term for
term.  ``admissible_cuts`` counts the cuts of a forest by brute force, an
oracle independent of the coproduct's recursion.  ``FractionComb`` is the
reference for the combination type itself: one Fraction per term in a dict.

The references of the lifts and the model follow, one Fraction per term:
the segment closed forms ``_word_segment`` and ``_forest_segment`` (against
``roughpath._LiftTable``), the structure action ``struct_action`` (against
``Model.gamma_row`` and ``check_model``'s integer rows) and the Picard
step coefficients ``_picard_step_coefficients`` (against
``model_rde._step_function`` and ``_polynomial_plan``).
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from hopfpath.hopf_ck import _graft_counts, _sub_forests, symmetry_factor
from hopfpath.hopf_core import deconcat_tuples, deshuffle_tuples
from hopfpath.linalg import LinComb, TensorComb, format_scalar
from hopfpath.model_rde import Character, SectorError, VectorField, _step_plan
from hopfpath.symbols import (
    EMPTY_FOREST,
    EMPTY_WORD,
    Forest,
    MultiIndex,
    Tree,
    Word,
    forests,
    multiindex_binomial,
    multiplicative,
)


def accum(acc: dict, key, value):
    """Add value to acc[key] in place, dropping the key when the sum is zero."""
    acc[key] = acc.get(key, 0) + value
    if not acc[key]:
        del acc[key]


def poly_product(n: MultiIndex, m: MultiIndex) -> LinComb:
    return LinComb.term(n + m)


def poly_coproduct(n: MultiIndex) -> TensorComb:
    terms = {}
    ranges = [range(e + 1) for e in n.entries]
    for m_entries in itertools.product(*ranges):
        m = MultiIndex(m_entries)
        terms[(m, n - m)] = Fraction(multiindex_binomial(n, m))
    return TensorComb(terms)


def concat(u: Word, v: Word) -> LinComb:
    return LinComb.term(u.concat(v))


def deshuffle(w: Word) -> TensorComb:
    return TensorComb(
        {(Word(l), Word(r)): Fraction(m) for (l, r), m in deshuffle_tuples(w.letters).items()}
    )


def shuffle_placements(u: tuple, v: tuple) -> dict[tuple, int]:
    """The interleavings of u and v with multiplicities, one per placement of
    u's letters, the placements taken in ``itertools.combinations`` order."""
    out: dict[tuple, int] = {}
    n = len(u) + len(v)
    for positions in itertools.combinations(range(n), len(u)):
        word: list = [None] * n
        for letter, p in zip(u, positions):
            word[p] = letter
        rest = iter(v)
        for p in range(n):
            if word[p] is None:
                word[p] = next(rest)
        accum(out, tuple(word), 1)
    return out


def shuffle(u: Word, v: Word) -> LinComb:
    return LinComb(
        {Word(w): Fraction(m) for w, m in shuffle_placements(u.letters, v.letters).items()}
    )


def deconcat(w: Word) -> TensorComb:
    return TensorComb({(Word(l), Word(r)): Fraction(1) for l, r in deconcat_tuples(w.letters)})


def ck_product(a: Forest, b: Forest) -> LinComb:
    return LinComb.term(a.mul(b))


def _pair_product(a: TensorComb, b: TensorComb) -> TensorComb:
    """Slot-wise juxtaposition of two tensors of forests."""
    acc: dict = {}
    for (l1, r1), c1 in a:
        for (l2, r2), c2 in b:
            accum(acc, (l1.mul(l2), r1.mul(r2)), c1 * c2)
    return TensorComb(acc)


@multiplicative(TensorComb.term(EMPTY_FOREST, EMPTY_FOREST), _pair_product)
def ck_coproduct(tree: Tree) -> TensorComb:
    """Admissible-cut coproduct, by the defining recursion."""
    lifted = TensorComb.linear(
        ck_coproduct(tree.children), lambda lr: (((lr[0], lr[1].graft(tree.label).as_forest()), 1),)
    )
    return lifted + TensorComb.term(tree.as_forest(), EMPTY_FOREST)


def admissible_cuts(f: Forest) -> dict[tuple[Forest, Forest], int]:
    """The (crown, trunk) pairs of f's admissible cuts with their counts, by
    brute force: f's vertices are made distinct, each set of them, at most one
    on every root-to-leaf path, is cut off above (a root's cut is the one
    above it), and equal (crown, trunk) pairs are counted."""
    labels, parents = [], []

    def expand(tree: Tree, parent):
        labels.append(tree.label)
        parents.append(parent)
        me = len(labels) - 1
        for child, mult in tree.children.items:
            for _ in range(mult):
                expand(child, me)

    for tree, mult in f.items:
        for _ in range(mult):
            expand(tree, None)

    def above(v: int):
        while parents[v] is not None:
            v = parents[v]
            yield v

    def subtree(v: int, cut) -> Tree:
        kids = (subtree(c, cut) for c, p in enumerate(parents) if p == v and c not in cut)
        return Tree(labels[v], Forest.of(*kids))

    counts: dict = {}
    vertices = range(len(labels))
    for k in range(len(labels) + 1):
        for cut in itertools.combinations(vertices, k):
            if any(a in cut for v in cut for a in above(v)):
                continue
            crown = Forest.of(*(subtree(v, cut) for v in cut))
            trunk = Forest.of(*(subtree(r, cut) for r in vertices
                                if parents[r] is None and r not in cut))
            counts[crown, trunk] = counts.get((crown, trunk), 0) + 1
    return counts


@functools.lru_cache(maxsize=None)
def gl_product(a: Forest, b: Forest) -> LinComb:
    """Counted grafting, n(z) = M(z) sigma(z) / (sigma(a) sigma(b)), in
    canonical order."""
    scale = symmetry_factor(a) * symmetry_factor(b)
    counts = _graft_counts(a, b)
    terms = {}
    for z in sorted(counts, key=Forest.sort_key):
        n, rest = divmod(counts[z] * symmetry_factor(z), scale)
        if rest:
            raise ValueError(f"non-integer Grossman-Larson coefficient of {z} in {a} * {b}")
        terms[z] = Fraction(n)
    return LinComb(terms)


def forest_deconcat(f: Forest) -> TensorComb:
    return TensorComb({(l, r): Fraction(1) for l, r, _ in _sub_forests(f)})


# the reference (product, coproduct) of each algebra, by CLI name
MAPS = {
    "poly": (poly_product, poly_coproduct),
    "concat": (concat, deshuffle),
    "shuffle": (shuffle, deconcat),
    "ck": (ck_product, ck_coproduct),
    "gl": (gl_product, forest_deconcat),
}


class FractionComb:
    """A combination as a dict of nonzero Fractions, one per key, with the
    sums, scaling, truncation, term order, text and JSON of LinComb (keys
    that are basis elements) or TensorComb (pairs of them, ``tensor``)."""

    def __init__(self, terms: dict, tensor: bool = False):
        self.terms = {k: Fraction(c) for k, c in terms.items() if c}
        self.tensor = tensor

    def _new(self, terms: dict) -> "FractionComb":
        return FractionComb(terms, self.tensor)

    def __add__(self, other: "FractionComb") -> "FractionComb":
        acc = dict(self.terms)
        for k, c in other.terms.items():
            accum(acc, k, c)
        return self._new(acc)

    def __neg__(self) -> "FractionComb":
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "FractionComb") -> "FractionComb":
        return self + -other

    def scale(self, s) -> "FractionComb":
        s = Fraction(s)
        return self._new({k: s * c for k, c in self.terms.items()} if s else {})

    def __eq__(self, other) -> bool:
        return self.terms == other.terms

    def coeff(self, key) -> Fraction:
        return self.terms.get(key, Fraction(0))

    def truncate(self, max_grade: int) -> "FractionComb":
        grade = (lambda k: k[0].grade + k[1].grade) if self.tensor else (lambda k: k.grade)
        return self._new({k: c for k, c in self.terms.items() if grade(k) <= max_grade})

    def sorted_terms(self) -> list:
        if self.tensor:
            return sorted(self.terms.items(), key=lambda kc: (kc[0][0].sort_key(),
                                                              kc[0][1].sort_key()))
        return sorted(self.terms.items(), key=lambda kc: kc[0].sort_key())

    def label(self, key, sep: str) -> str:
        return f"{key[0]}{sep}{key[1]}" if self.tensor else str(key)

    def text(self, float_mode: bool = False) -> str:
        parts = [self.label(k, " (x) ") if c == 1
                 else f"{format_scalar(c, float_mode)}*{self.label(k, ' (x) ')}"
                 for k, c in self.sorted_terms()]
        return " + ".join(parts) or "0"

    def to_json(self, float_mode: bool = False) -> dict:
        return {self.label(k, "⊗"): format_scalar(c, float_mode) for k, c in self.sorted_terms()}


# ---------------------------------------------------------------------------
# lifts and the model
#
# On a segment with increment v the signature is v^{(x) k} / k! at level k,
# and the branched lift gives a forest f the coefficient prod_i v_i^{n_i} / f!
# (see the closed-form comment in ``roughpath``).


def _word_segment(increment: tuple[Fraction, ...], level: int, d: int) -> LinComb:
    """The signature of a line, one Fraction per term."""
    terms = {EMPTY_WORD: Fraction(1)}
    frontier = {(): Fraction(1)}
    for k in range(1, level + 1):
        nxt: dict = {}
        for letters, c in frontier.items():
            for i in range(1, d + 1):
                v = increment[i - 1]
                if v == 0:
                    continue
                nxt[letters + (i,)] = c * v
        frontier = nxt
        fact = Fraction(1, math.factorial(k))
        for letters, c in frontier.items():
            terms[Word(letters)] = c * fact
    return LinComb(terms)


def _forest_segment(increment: tuple[Fraction, ...], level: int, d: int) -> LinComb:
    """The branched lift of a line, one Fraction per term, by the recursion
    a(|z|_i) = a(z) v_i / (|z| + 1), multiplicative on forests."""

    @multiplicative(Fraction(1), operator.mul)
    def coefficient(tree: Tree) -> Fraction:
        v = increment[tree.label - 1]
        if v == 0:
            return Fraction(0)
        return coefficient(tree.children) * v / tree.grade

    terms = {}
    for k in range(level + 1):
        for f in forests(d, k):
            c = coefficient(f)
            if c:
                terms[f] = c
    return LinComb(terms)


def struct_action(g: Character, x: LinComb, flavor: str = "left") -> LinComb:
    """(g (x) id) Delta (left) or (id (x) g) Delta (right) on forests, with
    the cut coproduct of the defining recursion."""

    def on_basis(b) -> LinComb:
        if not isinstance(b, Forest):
            raise SectorError("struct_action acts on forest combinations")
        if flavor == "left":
            return ck_coproduct(b).fold(lambda l, r: LinComb.term(r, g(l)))
        if flavor == "right":
            return ck_coproduct(b).fold(lambda l, r: LinComb.term(l, g(r)))
        raise ValueError(f"unknown flavor {flavor!r}")

    return x.map_basis(on_basis)


def _picard_step_coefficients(field: VectorField, y, level: int) -> dict:
    """Fixed point of Y = y 1 + sum_i I(f_i(Y) Xi_i), in one pass over trees:
    c(|t_1^m_1 ... t_r^m_r|_i) = f_i^(k)(y) * prod_j c(t_j)^m_j / m_j!, with
    k = m_1+...+m_r, the elementary differentials.

    Trees come in grade order (``_step_plan``), so children precede parents.
    Returns EMPTY_FOREST -> y plus every single-tree forest with non-zero
    coefficient, as Fractions or floats.
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
