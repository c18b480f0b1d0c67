"""Canonical basis elements: multi-indices, words, and decorated rooted forests.

Every basis element is immutable, hashable, totally ordered via ``sort_key`` and
prints to a canonical string that ``parse_expr`` reads back.  Forests are kept
in a canonical form (trees sorted by grade, then label, then children).

Every basis kind is hash-consed through ``Interned``: multi-indices, words,
trees and forests here, dotted forests (``model_rde``) and tree words
(``hopf_ck``).  Construction normalizes, then returns the one existing object
of that value, so equality is identity and they hash by identity too
(``object.__hash__``).  Hash values therefore differ from process to process;
nothing may depend on the iteration order of a set of them.  Unpickling
re-interns.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .work import charge

MAX_DIMENSION = 64


class ParseError(ValueError):
    """Syntax error while reading the text grammar; carries a byte offset."""

    def __init__(self, message: str, text: str, pos: int):
        self.offset = len(text[:pos].encode("utf-8"))
        super().__init__(f"{message} (byte offset {self.offset})")


def check_dimension(d: int) -> int:
    if not 1 <= d <= MAX_DIMENSION:
        raise ValueError(f"alphabet size must be in [1, {MAX_DIMENSION}], got {d}")
    return d


class Interned:
    """Base of every basis kind: one object per value, compared by identity.

    A kind's ``__new__`` normalizes its arguments to the identity key
    ``ident``, a tuple with ``cls(*ident)`` the same object, and returns
    ``cls._table.get(ident) or cls._build(ident, **fields)``.  Each subclass
    has its own table, for the life of the process like the module-level
    ``lru_cache``s.  Equality and hash are object identity; pickle and
    ``copy`` rebuild through the constructor and so get the interned object.
    """

    __slots__ = ("_ident",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._table = {}

    @classmethod
    def _build(cls, ident: tuple, **fields):
        self = object.__new__(cls)
        object.__setattr__(self, "_ident", ident)
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        cls._table[ident] = self
        return self

    def __reduce__(self):
        return type(self), self._ident

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")


class MultiIndex(Interned):
    """A tuple (n_1, ..., n_d) of non-negative integers; the monomial X^n."""

    __slots__ = ("entries", "grade")

    def __new__(cls, entries: Iterable[int]):
        # an interned tuple of entries needs no normalizing
        self = cls._table.get((entries,)) if type(entries) is tuple else None
        if self is None:
            entries = tuple(int(e) for e in entries)
            if not entries or any(e < 0 for e in entries):
                raise ValueError(f"multi-index entries must be non-negative, got {entries}")
            self = cls._table.get((entries,)) or cls._build(
                (entries,), entries=entries, grade=sum(entries)
            )
        return self

    @property
    def dim(self) -> int:
        return len(self.entries)

    def sort_key(self):
        return (self.grade, self.entries)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        if len(self.entries) != len(other.entries):
            raise ValueError("multi-index dimension mismatch")
        return MultiIndex(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        if any(b > a for a, b in zip(self.entries, other.entries)):
            raise ValueError("multi-index subtraction needs other <= self")
        return MultiIndex(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __le__(self, other: "MultiIndex") -> bool:
        return all(a <= b for a, b in zip(self.entries, other.entries))

    def __lt__(self, other: "MultiIndex") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"MultiIndex{self.entries}"

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.entries) + ")"


def multiindex_binomial(n: MultiIndex, m: MultiIndex) -> int:
    """binom(n, m) coordinate-wise; requires m <= n."""
    out = 1
    for a, b in zip(n.entries, m.entries):
        out *= _binomial(a, b)
    return out


@functools.lru_cache(maxsize=None)
def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def _binomial(a: int, b: int) -> int:
    if b < 0 or b > a:
        return 0
    return _factorial(a) // (_factorial(b) * _factorial(a - b))


class Word(Interned):
    """A word e_{i1...in} over the alphabet {1, ..., d}; the empty word is the unit."""

    __slots__ = ("letters", "grade")

    def __new__(cls, letters: Iterable[int] = ()):
        # an interned tuple of letters needs no normalizing
        self = cls._table.get((letters,)) if type(letters) is tuple else None
        if self is None:
            letters = tuple(int(i) for i in letters)
            if any(i < 1 for i in letters):
                raise ValueError(f"letters must be >= 1, got {letters}")
            self = cls._table.get((letters,)) or cls._build(
                (letters,), letters=letters, grade=len(letters)
            )
        return self

    def sort_key(self):
        return (len(self.letters), self.letters)

    def concat(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def reverse(self) -> "Word":
        return Word(self.letters[::-1])

    def __lt__(self, other: "Word") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"Word{self.letters}"

    def __str__(self) -> str:
        if not self.letters:
            return "ε"
        if all(i <= 9 for i in self.letters):
            return "".join(str(i) for i in self.letters)
        return "e" + ".".join(str(i) for i in self.letters)


EMPTY_WORD = Word()


class Tree(Interned):
    """A rooted tree with integer label at the root and a forest of children."""

    __slots__ = ("label", "children", "grade", "_key", "_forest")

    def __new__(cls, label: int, children: "Forest | None" = None):
        if label < 1:
            raise ValueError(f"tree label must be >= 1, got {label}")
        label = int(label)
        children = EMPTY_FOREST if children is None else children
        ident = (label, children)
        self = cls._table.get(ident)
        if self is None:
            key = (children.grade + 1, label, children.sort_key())
            self = cls._build(
                ident, label=label, children=children, grade=key[0], _key=key, _forest=None
            )
        return self

    def sort_key(self):
        return self._key

    def as_forest(self) -> "Forest":
        forest = self._forest
        if forest is None:
            forest = Forest(((self, 1),))
            object.__setattr__(self, "_forest", forest)
        return forest

    def __lt__(self, other: "Tree") -> bool:
        return self._key < other._key

    def __repr__(self) -> str:
        return f"Tree({self.label}, {self.children!r})"

    def __str__(self) -> str:
        inner = "" if self.children.is_empty() else str(self.children)
        return f"[{inner}]_{self.label}"


class Forest(Interned):
    """A multiset of trees, stored as sorted (tree, multiplicity) pairs.

    The empty forest is the algebra unit.  Construction always normalizes, so
    ``Forest.of(t2, t1) is Forest.of(t1, t2)``.
    """

    __slots__ = ("items", "grade", "_key")

    def __new__(cls, items: Sequence[tuple[Tree, int]] = ()):
        merged: dict[Tree, int] = {}
        for tree, mult in items:
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult:
                merged[tree] = merged.get(tree, 0) + mult
        norm = tuple(sorted(merged.items(), key=lambda tm: tm[0]._key))
        return cls._table.get((norm,)) or cls._build(
            (norm,), items=norm, grade=sum(t.grade * m for t, m in norm),
            _key=tuple((t._key, m) for t, m in norm),
        )

    @classmethod
    def of(cls, *trees: Tree) -> "Forest":
        return cls(tuple((t, 1) for t in trees))

    def is_empty(self) -> bool:
        return not self.items

    def trees(self) -> Iterator[Tree]:
        """Trees expanded by multiplicity, in canonical order."""
        for tree, mult in self.items:
            for _ in range(mult):
                yield tree

    def tree_count(self) -> int:
        return sum(m for _, m in self.items)

    def mul(self, other: "Forest") -> "Forest":
        """Commutative juxtaposition of forests; the empty forest is the unit."""
        if not other.items:
            return self
        if not self.items:
            return other
        return Forest(self.items + other.items)

    def graft(self, label: int) -> Tree:
        """The tree with a new root carrying ``label`` above this forest."""
        return Tree(label, self)

    def sort_key(self):
        return self._key

    def __lt__(self, other: "Forest") -> bool:
        return (self.grade, self.sort_key()) < (other.grade, other.sort_key())

    def __repr__(self) -> str:
        return f"Forest({self.items!r})"

    def __str__(self) -> str:
        if not self.items:
            return "1"
        return " ".join(str(t) for t in self.trees())


EMPTY_FOREST = Forest()


def multiplicative(one, mul):
    """Decorator extending a map on trees multiplicatively over forests.

    The decorated ``on_tree`` becomes a memoized forest map F with F(1) = one,
    F(t) = on_tree(t) and F(t rest) = mul(on_tree(t), F(rest)) for t the first
    tree in canonical order; ``on_tree`` is memoized as well.
    """

    def extend(on_tree):
        on_tree = functools.lru_cache(maxsize=None)(on_tree)

        @functools.lru_cache(maxsize=None)
        @functools.wraps(on_tree)
        def on_forest(f: Forest):
            if not f.items:
                return one
            (tree, mult), rest = f.items[0], f.items[1:]
            if mult > 1:
                rest = ((tree, mult - 1),) + rest
            elif not rest:
                return on_tree(tree)
            # rest is already canonical: look it up before normalizing it again
            return mul(on_tree(tree), on_forest(type(f)._table.get((rest,)) or Forest(rest)))

        return on_forest

    return extend


# ---------------------------------------------------------------------------
# enumeration


def multi_indices(d: int, k: int) -> tuple[MultiIndex, ...]:
    """All d-dimensional multi-indices of grade k, canonically ordered."""
    check_dimension(d)
    charge(32 * math.comb(k + d - 1, d - 1))

    def comps(total: int, slots: int):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in comps(total - first, slots - 1):
                yield (first,) + rest

    return tuple(sorted((MultiIndex(c) for c in comps(k, d)), key=MultiIndex.sort_key))


def words(d: int, k: int) -> tuple[Word, ...]:
    """All words of length k over {1, ..., d}, canonically ordered."""
    check_dimension(d)
    charge((k + 1) * d**k)
    # the letters come as a tuple of ints in 1..d, so a new word needs no normalizing
    table, build = Word._table, Word._build
    return tuple(table.get((p,)) or build((p,), letters=p, grade=k)
                 for p in itertools.product(range(1, d + 1), repeat=k))


@functools.lru_cache(maxsize=None)
def forests(d: int, k: int) -> tuple[Forest, ...]:
    """All decorated forests of grade k, canonically ordered."""
    check_dimension(d)
    if k == 0:
        return (EMPTY_FOREST,)
    pool = []
    for g in range(1, k + 1):
        pool.extend(trees(d, g))
    pool.sort(key=Tree.sort_key)

    out: list[Forest] = []

    def build(remaining: int, start: int, acc: list[Tree]):
        if remaining == 0:
            charge(80)
            out.append(Forest.of(*acc))
            return
        for idx in range(start, len(pool)):
            t = pool[idx]
            if t.grade > remaining:  # the pool is sorted by grade first
                break
            acc.append(t)
            build(remaining - t.grade, idx, acc)
            acc.pop()

    build(k, 0, [])
    return tuple(sorted(out, key=Forest.sort_key))


@functools.lru_cache(maxsize=None)
def trees(d: int, k: int) -> tuple[Tree, ...]:
    """All decorated trees of grade k, canonically ordered."""
    check_dimension(d)
    if k == 0:
        return ()
    out = [Tree(i, f) for f in forests(d, k - 1) for i in range(1, d + 1)]
    return tuple(sorted(out, key=Tree.sort_key))


def forests_up_to(d: int, n: int) -> tuple[Forest, ...]:
    out: list[Forest] = []
    for k in range(n + 1):
        out.extend(forests(d, k))
    return tuple(out)


def words_up_to(d: int, n: int) -> tuple[Word, ...]:
    out: list[Word] = []
    for k in range(n + 1):
        out.extend(words(d, k))
    return tuple(out)


def multi_indices_up_to(d: int, n: int) -> tuple[MultiIndex, ...]:
    out: list[MultiIndex] = []
    for k in range(n + 1):
        out.extend(multi_indices(d, k))
    return tuple(out)


# ---------------------------------------------------------------------------
# parsing


class _Scanner:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.pos = 0
        self.dim = dim

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def expect(self, token: str):
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def integer(self) -> int:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if not self.peek().isdigit():
            self.pos = start
            raise self.error("expected an integer")
        while self.peek().isdigit():
            self.pos += 1
        return int(self.text[start : self.pos])

    def label(self) -> int:
        start = self.pos
        value = self.integer()
        if not 1 <= value <= self.dim:
            self.pos = start
            raise self.error(f"label {value} out of [1, {self.dim}]")
        return value


def _parse_tree(sc: _Scanner) -> Tree:
    sc.expect("[")
    sc.skip_ws()
    if sc.peek() == "]":
        children = EMPTY_FOREST
    else:
        children = _parse_forest(sc)
        sc.skip_ws()
    sc.expect("]_")
    return Tree(sc.label(), children)


def _parse_forest(sc: _Scanner) -> Forest:
    sc.skip_ws()
    if sc.peek() == "1":
        sc.pos += 1
        return EMPTY_FOREST
    if sc.peek() != "[":
        raise sc.error("expected a forest ('1' or '[')")
    acc = [_parse_tree(sc)]
    while True:
        save = sc.pos
        sc.skip_ws()
        if sc.peek() == "[":
            acc.append(_parse_tree(sc))
        else:
            sc.pos = save
            break
    return Forest.of(*acc)


def _parse_word(sc: _Scanner) -> Word:
    sc.skip_ws()
    ch = sc.peek()
    if ch == "ε":
        sc.pos += 1
        return EMPTY_WORD
    if ch == "e":
        sc.pos += 1
        letters = [sc.label()]
        while sc.peek() == ".":
            sc.pos += 1
            letters.append(sc.label())
        return Word(letters)
    if ch.isdigit():
        if sc.dim > 9:
            raise sc.error("digit-string words need d <= 9; use e1.2 notation")
        letters = []
        while sc.peek().isdigit():
            letters.append(int(sc.peek()))
            sc.pos += 1
        for i in letters:
            if not 1 <= i <= sc.dim:
                raise sc.error(f"label {i} out of [1, {sc.dim}]")
        return Word(letters)
    raise sc.error("expected a word ('ε', digits, or e-notation)")


def _parse_multiindex(sc: _Scanner) -> MultiIndex:
    sc.skip_ws()
    sc.expect("(")
    entries = [sc.integer()]
    while True:
        sc.skip_ws()
        if sc.peek() == ",":
            sc.pos += 1
            sc.skip_ws()
            entries.append(sc.integer())
        else:
            break
    sc.expect(")")
    if len(entries) != sc.dim:
        raise sc.error(f"multi-index has {len(entries)} entries, expected {sc.dim}")
    if any(e < 0 for e in entries):
        raise sc.error("multi-index entries must be non-negative")
    return MultiIndex(entries)


_ATOM_PARSERS = {
    "word": _parse_word,
    "forest": _parse_forest,
    "multiindex": _parse_multiindex,
}


def _parse_rational(sc: _Scanner) -> Fraction:
    num = sc.integer()
    if sc.peek() == "/":
        sc.pos += 1
        den = sc.integer()
        if den == 0:
            raise sc.error("zero denominator")
        return Fraction(num, den)
    return Fraction(num)


def _looks_like_rational(sc: _Scanner, kind: str) -> bool:
    # A leading integer is a coefficient iff it is followed by '*'; for words a
    # bare digit string is the word itself.
    save = sc.pos
    try:
        _parse_rational(sc)
    except ParseError:
        sc.pos = save
        return False
    sc.skip_ws()
    is_coeff = sc.peek() == "*"
    sc.pos = save
    return is_coeff


def parse_expr(text: str, kind: str, dim: int):
    """Parse a linear combination (or bare atom) into a LinComb.

    ``kind`` selects the atom grammar: word, forest, multiindex.  A bare
    top-level "1" for kind="forest" is the empty forest.
    """
    from .linalg import LinComb

    check_dimension(dim)
    if kind not in _ATOM_PARSERS:
        raise ValueError(f"unknown parse kind {kind!r}")
    atom = _ATOM_PARSERS[kind]
    sc = _Scanner(text, dim)
    terms: dict = {}

    def read_term(sign: Fraction):
        sc.skip_ws()
        coeff = Fraction(1)
        if sc.peek() == "-" or _looks_like_rational(sc, kind):
            coeff = _parse_rational(sc)
            sc.skip_ws()
            sc.expect("*")
            sc.skip_ws()
        b = atom(sc)
        terms[b] = terms.get(b, Fraction(0)) + sign * coeff

    read_term(Fraction(1))
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if ch == "+":
            sc.pos += 1
            read_term(Fraction(1))
        elif ch == "-":
            sc.pos += 1
            read_term(Fraction(-1))
        elif ch == "":
            break
        else:
            raise sc.error("expected '+', '-' or end of input")
    return LinComb(terms)
