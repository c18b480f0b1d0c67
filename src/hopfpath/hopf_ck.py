"""Connes-Kreimer Hopf algebra on decorated forests and its Grossman-Larson dual.

The coproduct comes from the structural recursion; the admissible-cut and
split representations are independent code paths used to cross-check it and
the antipode.  The dual product counts graftings: the coefficient of z in the
Grossman-Larson product a * b is the coefficient n(z) of a (x) b in Delta z,
and n(z) = M(z) sigma(z) / (sigma(a) sigma(b)), where M(z) counts the ways to
attach the trees of a to the vertices or the root level of b that give z and
sigma is the symmetry factor (Panaite, "Relating the Connes-Kreimer and
Grossman-Larson Hopf algebras built on rooted trees", Lett. Math. Phys. 2000;
Hoffman, "Combinatorics of rooted trees and Hopf algebras", Trans. AMS 2003).
Both algebras' structure maps yield integer rows, and the public maps
(``ck_product``, ``ck_coproduct``, ``gl_product``, ``forest_deconcat``) are
their ``structure_map`` views.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .hopf_core import HopfInstance, shuffle, shuffle_tuples, structure_map
from .linalg import LinComb, TensorComb, accum, bilinear
from .symbols import (
    EMPTY_FOREST,
    EMPTY_WORD,
    Forest,
    Interned,
    Tree,
    Word,
    check_dimension,
    forests,
    multiplicative,
)
from .work import charge


# ---------------------------------------------------------------------------
# coproduct and cuts


def _juxtapose(a: Forest, b: Forest) -> tuple:
    return ((a.mul(b), 1),)


def _pair_product(a, b) -> dict:
    """Slot-wise juxtaposition of two families of forest pairs, as a dict."""
    charge(48 * len(a) * len(b))
    acc: dict = {}
    for (l1, r1), c1 in a:
        for (l2, r2), c2 in b:
            accum(acc, (l1.mul(l2), r1.mul(r2)), c1 * c2)
    return acc


def forest_product(x: LinComb, y: LinComb, max_grade: int | None = None) -> LinComb:
    """Commutative product of forest combinations; pairs past max_grade are skipped."""
    return LinComb(bilinear(x, y, _juxtapose, max_grade), _clean=True)


@multiplicative(
    (((EMPTY_FOREST, EMPTY_FOREST), 1),),
    lambda a, b: tuple(_pair_product(a, b).items()),
)
def _ck_coproduct_row(tree: Tree) -> tuple:
    """The admissible-cut coproduct by its defining recursion, as integer
    rows: Delta B+(f) = (id (x) B+) Delta f + B+(f) (x) 1, and a forest's
    rows the slot-wise juxtaposition of its first tree's and the rest's."""
    label = tree.label
    lifted = tuple(
        ((l, r.graft(label).as_forest()), c) for (l, r), c in _ck_coproduct_row(tree.children)
    )
    return lifted + (((tree.as_forest(), EMPTY_FOREST), 1),)


ck_product = structure_map(LinComb, _juxtapose)
ck_coproduct = structure_map(TensorComb, _ck_coproduct_row)


def ck_reduced_coproduct(f: Forest) -> TensorComb:
    cop = ck_coproduct(f)
    cop = cop - TensorComb.term(EMPTY_FOREST, f)
    cop = cop - TensorComb.term(f, EMPTY_FOREST)
    return cop


@dataclass(frozen=True)
class Cut:
    crown: Forest
    trunk: Forest
    multiplicity: int


@multiplicative(
    (((EMPTY_FOREST, EMPTY_FOREST), 1),),
    lambda a, b: tuple(_pair_product(a, b).items()),
)
def _cuts_dict(tree: Tree) -> tuple[tuple[tuple[Forest, Forest], int], ...]:
    """The cut family and multiplicities, by their own recursion (not Delta)."""
    grafted = tuple(
        ((c, t.graft(tree.label).as_forest()), m) for (c, t), m in _cuts_dict(tree.children)
    )
    return grafted + (((tree.as_forest(), EMPTY_FOREST), 1),)


def enumerate_cuts(f: Forest) -> list[Cut]:
    """All admissible cuts (crown, trunk) of f with planar multiplicities."""
    charge(8 * f.grade * len(_cuts_dict(f)))
    out = [Cut(c, t, m) for (c, t), m in _cuts_dict(f)]
    out.sort(key=lambda cut: (cut.crown.sort_key(), cut.trunk.sort_key()))
    return out


# ---------------------------------------------------------------------------
# antipode: recursion engine and split-representation engine


@multiplicative(LinComb.term(EMPTY_FOREST), forest_product)
def _ck_antipode_rec(tree: Tree) -> LinComb:
    # S |z|_i = -m (S (x) |.|_i) Delta z
    return -ck_coproduct(tree.children).fold(
        lambda l, r: forest_product(
            _ck_antipode_rec(l), LinComb.term(r.graft(tree.label).as_forest())
        )
    )


@multiplicative(((EMPTY_FOREST, 1),), lambda a, b: tuple(bilinear(a, b, _juxtapose).items()))
def splits(tree: Tree) -> tuple[tuple[Forest, int], ...]:
    """The split family with integer coefficients, by its own recursion."""
    f = tree.as_forest()
    acc: dict = {}
    for (c, t), m in _cuts_dict(f):
        if t != f:
            below = splits(t)
            charge(24 * len(below))
            for s, e in below:
                # partial sums may cancel; a key keeps its first position
                key = c.mul(s)
                acc[key] = acc.get(key, 0) - e * m
    return tuple(acc.items())


def ck_antipode(f: Forest, engine: str = "recursion") -> LinComb:
    """Antipode of the cut coproduct; both engines agree."""
    if engine == "recursion":
        return _ck_antipode_rec(f)
    if engine == "splits":
        return LinComb({s: Fraction(e) for s, e in splits(f)})
    raise ValueError(f"unknown antipode engine {engine!r}")


# ---------------------------------------------------------------------------
# Grossman-Larson product by counted grafting


@functools.lru_cache(maxsize=None)
def symmetry_factor(f: Forest) -> int:
    """sigma(f) = prod_t m_t! sigma(t)^m_t over the trees t of f, with sigma(|f|_i) = sigma(f)."""
    out = 1
    for tree, mult in f.items:
        out *= math.factorial(mult) * symmetry_factor(tree.children) ** mult
    return out


@functools.lru_cache(maxsize=None)
def _sub_forests(f: Forest) -> tuple[tuple[Forest, Forest, int], ...]:
    """Every split f = left + right into sub-multisets, each once, with the
    number prod_t binom(m_t, k_t) of ways to pick left's copies of f's trees."""
    charge(24 * math.prod(m + 1 for _, m in f.items))
    out = []
    for ks in itertools.product(*(range(m + 1) for _, m in f.items)):
        left = Forest(tuple((t, k) for (t, _), k in zip(f.items, ks) if k))
        right = Forest(tuple((t, m - k) for (t, m), k in zip(f.items, ks) if m - k))
        out.append((left, right, math.prod(map(math.comb, (m for _, m in f.items), ks))))
    return tuple(out)


def _join(tree: Tree, f: Forest) -> Forest:
    """The canonical forest tree f, by one insertion into f's sorted items."""
    items = f.items
    i = bisect.bisect_left(items, tree._key, key=lambda tm: tm[0]._key)
    if i < len(items) and items[i][0] is tree:
        items = (*items[:i], (tree, items[i][1] + 1), *items[i + 1 :])
    else:
        items = (*items[:i], (tree, 1), *items[i:])
    return Forest._table.get((items,)) or Forest(items)


@functools.lru_cache(maxsize=None)
def _graft_counts(a: Forest, b: Forest) -> dict:
    """M(z) for every z, by the placement recursion: the ways to send each
    tree of a (copies counted as distinct) into a tree of b or to b's root
    level that give z.  Memoized on (a, b): callers must not change the dict.

    With b empty, a stays at the root level.  Otherwise, with s the first tree
    of b and b = s rest, each split a = a1 + a2, weighted by the
    prod_t binom(m_t, k_t) ways to pick a1's copies, sends a1 into s
    (``_place_tree``) and a2 into the rest, and z joins each tree of the one
    to each forest of the other.  The placements into one tree are memoized,
    so products share them."""
    if not a.items:
        return {b: 1}
    if not b.items:
        return {a: 1}
    (s, m), rest = b.items[0], b.items[1:]
    if m > 1:
        rest = ((s, m - 1),) + rest
    rest = Forest._table.get((rest,)) or Forest(rest)
    counts: dict = {}
    for a1, a2, w in _sub_forests(a):
        below, placed = _graft_counts(a2, rest), _place_tree(a1, s)
        charge(40 * len(placed) * len(below))
        for t, m1 in placed:
            for z, m2 in below.items():
                z = _join(t, z)
                counts[z] = counts.get(z, 0) + w * m1 * m2
    return counts


@functools.lru_cache(maxsize=None)
def _place_tree(a: Forest, tree: Tree) -> tuple[tuple[Tree, int], ...]:
    """The trees, with counts, from placing the trees of a into tree: a goes
    into tree's children, and what stays at their root level hangs from
    tree's root."""
    return tuple((Tree(tree.label, z), m) for z, m in _graft_counts(a, tree.children).items())


def _gl_row(a: Forest, b: Forest) -> tuple:
    """a * b = sum over forests z of n(z) z, n(z) the coefficient of a (x) b in
    Delta z, as integer rows in canonical order.

    Counted grafting gives n(z) = M(z) sigma(z) / (sigma(a) sigma(b)), with
    sigma the symmetry factor and M(z) the count of ``_graft_counts``'s
    placement recursion: each tree of a (copies counted as distinct) goes
    into b's first tree or on to the rest of b, and what reaches the end stays
    at the root level.  This is the Connes-Kreimer/Grossman-Larson duality of
    Panaite (Lett. Math. Phys. 2000) and Hoffman (Trans. AMS 2003).
    """
    scale = symmetry_factor(a) * symmetry_factor(b)
    counts = _graft_counts(a, b)
    out = []
    for z in sorted(counts, key=Forest.sort_key):
        n, rest = divmod(counts[z] * symmetry_factor(z), scale)
        if rest:
            raise ValueError(f"non-integer Grossman-Larson coefficient of {z} in {a} * {b}")
        out.append((z, n))
    return tuple(out)


def _sub_forest_row(f: Forest) -> tuple:
    """The splits of a forest into ordered pairs of sub-multisets, each pair once."""
    return tuple(((l, r), 1) for l, r, _ in _sub_forests(f))


gl_product = structure_map(LinComb, _gl_row)
forest_deconcat = structure_map(TensorComb, _sub_forest_row)


def gl_product_lin(x: LinComb, y: LinComb) -> LinComb:
    return LinComb(bilinear(x, y, gl_product), _clean=True)


def _gl_antipode_factory(d: int):
    @functools.lru_cache(maxsize=None)
    def columns(g: int) -> dict:
        # dual of the cut antipode, <S* f, z> = <f, S z>: the splits of every
        # forest z of grade g, transposed in one pass
        cols: dict = {f: {} for f in forests(d, g)}
        for z in forests(d, g):
            for s, e in splits(z):
                if e:
                    cols[s][z] = Fraction(e)
        return {f: LinComb(terms, _clean=True) for f, terms in cols.items()}

    def gl_antipode(f: Forest) -> LinComb:
        return columns(f.grade).get(f, LinComb.zero())

    return gl_antipode


@functools.lru_cache(maxsize=None)
def ck_instance(d: int) -> HopfInstance:
    """Forests with commutative juxtaposition and the cut coproduct."""
    check_dimension(d)
    return HopfInstance(
        name="ck",
        dim=d,
        unit=EMPTY_FOREST,
        product_basis=ck_product,
        coproduct_basis=ck_coproduct,
        basis=lambda k: forests(d, k),
        antipode_closed_basis=lambda f: ck_antipode(f, engine="splits"),
    )


@functools.lru_cache(maxsize=None)
def gl_instance(d: int) -> HopfInstance:
    """Forests with the Grossman-Larson product and sub-multiset coproduct."""
    check_dimension(d)
    return HopfInstance(
        name="gl",
        dim=d,
        unit=EMPTY_FOREST,
        product_basis=gl_product,
        coproduct_basis=forest_deconcat,
        basis=lambda k: forests(d, k),
        antipode_closed_basis=_gl_antipode_factory(d),
    )


# ---------------------------------------------------------------------------
# words over the tree alphabet (codomain of psi)


class TreeWord(Interned):
    """A word whose letters are decorated trees."""

    __slots__ = ("letters", "grade")

    def __new__(cls, letters: Iterable[Tree] = ()):
        ident = (tuple(letters),)
        return cls._table.get(ident) or cls._build(
            ident, letters=ident[0], grade=sum(t.grade for t in ident[0])
        )

    def sort_key(self):
        return (self.grade, len(self.letters), tuple(t.sort_key() for t in self.letters))

    def concat(self, other: "TreeWord") -> "TreeWord":
        return TreeWord(self.letters + other.letters)

    def __repr__(self) -> str:
        return f"TreeWord{self.letters!r}"

    def __str__(self) -> str:
        if not self.letters:
            return "ε"
        return "·".join(str(t) for t in self.letters)


EMPTY_TREEWORD = TreeWord()


def treeword_shuffle(u: TreeWord, v: TreeWord) -> LinComb:
    return LinComb(
        {TreeWord(w): Fraction(m) for w, m in shuffle_tuples(u.letters, v.letters).items()}
    )


# ---------------------------------------------------------------------------
# morphisms between words and forests


@multiplicative(
    LinComb.term(EMPTY_WORD), lambda a, b: LinComb(bilinear(a, b, shuffle), _clean=True)
)
def phi(tree: Tree) -> LinComb:
    """Forest-to-word Hopf homomorphism: graft becomes append, product shuffle."""
    return phi(tree.children).map_basis(lambda w: LinComb.term(w.concat(Word((tree.label,)))))


def phi_lin(x: LinComb) -> LinComb:
    return x.map_basis(phi)


def phi_hat(w: Word) -> Forest:
    """Ladder embedding of words into forests, inverse to phi on its image."""
    f = EMPTY_FOREST
    for letter in w.letters:
        f = f.graft(letter).as_forest()
    return f


def phi_hat_lin(x: LinComb) -> LinComb:
    return x.map_basis(lambda w: LinComb.term(phi_hat(w)))


@multiplicative(
    LinComb.term(EMPTY_TREEWORD),
    lambda a, b: LinComb(bilinear(a, b, treeword_shuffle), _clean=True),
)
def psi(tree: Tree) -> LinComb:
    """Hopf monomorphism into shuffle words over the tree alphabet."""

    def term(l: Forest, r: Forest) -> LinComb:
        letter = TreeWord((r.graft(tree.label),))
        return psi(l).map_basis(lambda u: LinComb.term(u.concat(letter)))

    return ck_coproduct(tree.children).fold(term)


def psi_lin(x: LinComb) -> LinComb:
    return x.map_basis(psi)


def phi_kernel_basis(d: int, max_grade: int) -> list[LinComb]:
    """Exact basis of ker(phi) on forests of each grade <= max_grade."""
    from .linalg import nullspace
    from .symbols import words as word_basis

    out: list[LinComb] = []
    for k in range(1, max_grade + 1):
        fs = forests(d, k)
        ws = word_basis(d, k)
        w_index = {w: i for i, w in enumerate(ws)}
        # rows indexed by words, columns by forests
        rows = [[Fraction(0)] * len(fs) for _ in ws]
        for j, f in enumerate(fs):
            for w, c in phi(f):
                rows[w_index[w]][j] = c
        for vec in nullspace(rows):
            out.append(LinComb({fs[j]: c for j, c in enumerate(vec) if c}))
    return out
