import copy
import functools
import itertools
import json
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

from hopfpath.hopf_ck import TreeWord
from hopfpath.linalg import LinComb
from hopfpath.model_rde import DottedForest
from hopfpath.symbols import (
    EMPTY_FOREST,
    EMPTY_WORD,
    Forest,
    MultiIndex,
    ParseError,
    Tree,
    Word,
    forests,
    multi_indices,
    multiplicative,
    parse_expr,
    trees,
    words,
)


def t(label, *children):
    return Tree(label, Forest.of(*children))


class TestGrading:
    def test_unit_grade_zero(self):
        assert EMPTY_FOREST.grade == 0
        assert EMPTY_WORD.grade == 0
        assert MultiIndex((0, 0)).grade == 0

    def test_graft_adds_one(self):
        f = Forest.of(t(1), t(2))
        assert f.graft(3).grade == 3

    def test_word_grade_is_length(self):
        assert Word((2, 1, 3)).grade == 3

    def test_multiplicative_under_juxtaposition(self):
        a, b = Forest.of(t(1, t(2))), Forest.of(t(1))
        assert a.mul(b).grade == a.grade + b.grade


class TestCanonicalForm:
    def test_commutative_encoding(self):
        assert Forest.of(t(2), t(1)) == Forest.of(t(1), t(2))
        assert str(Forest.of(t(2), t(1))) == "[]_1 []_2"

    def test_grade_first_order(self):
        f = Forest.of(t(2, t(1)), t(1))
        assert str(f) == "[]_1 [[]_1]_2"

    def test_idempotent(self):
        f = Forest.of(t(2), t(1), t(1))
        assert Forest.of(*f.trees()) == f

    def test_multiplicities_merge(self):
        f = Forest.of(t(1)).mul(Forest.of(t(1)))
        assert f.items == ((t(1), 2),)
        assert f.tree_count() == 2

    def test_product_commutes_for_permuted_lists(self):
        parts = [t(1), t(2, t(1)), t(1, t(1), t(2))]
        a = Forest.of(*parts)
        b = Forest.of(*reversed(parts))
        assert a == b and hash(a) == hash(b)


class TestMultiplicative:
    def test_first_tree_times_rest_in_canonical_order(self):
        calls = []

        # string concatenation is not commutative, so the factor order shows
        @multiplicative("", lambda a, b: a + b)
        def labels(tree: Tree) -> str:
            calls.append(tree)
            return f"<{labels(tree.children)}{tree.label}>"

        f = Forest.of(t(2, t(1)), t(1), t(2), t(1))
        assert labels(EMPTY_FOREST) == ""
        assert labels(f) == "<1><1><2><<1>2>"
        assert labels(f) == "".join(labels(tree.as_forest()) for tree in f.trees())
        # each distinct tree is evaluated once
        assert sorted(calls) == sorted({t(1), t(2), t(2, t(1))})


    def test_interned_suffix_is_looked_up_not_rebuilt(self, monkeypatch):
        import hopfpath.symbols as symbols

        @multiplicative((), lambda a, b: a + b)
        def leaves(tree: Tree) -> tuple:
            return (tree.label,)

        a, b, c = t(1), t(2), t(1, t(2))
        f = Forest.of(a, b, c)
        # interned: the suffixes of f after its first tree and after two trees
        suffix, last = Forest.of(b, c), c.as_forest()
        assert f.items[1:] == suffix.items
        built = []
        real = symbols.Forest
        monkeypatch.setattr(
            symbols, "Forest", lambda items=(): built.append(items) or real(items)
        )
        assert leaves(f) == (1, 2, 1)
        assert built == []
        hits = leaves.cache_info().hits
        assert leaves(suffix) == (2, 1)  # the recursion cached the interned suffix
        assert leaves.cache_info().hits == hits + 1
        assert Forest._table.get((f.items[1:],)) is suffix
        assert Forest._table.get((f.items[2:],)) is last


class TestParsing:
    def test_tree_example(self):
        x = parse_expr("[[]_2 []_3]_1", "forest", 3)
        assert x == LinComb.term(t(1, t(2), t(3)).as_forest())

    def test_unit_forest(self):
        assert parse_expr("1", "forest", 2) == LinComb.term(EMPTY_FOREST)

    def test_lincomb_example(self):
        x = parse_expr("3/2*[]_1 + -1*[]_2", "forest", 2)
        assert x.coeff(t(1).as_forest()) == Fraction(3, 2)
        assert x.coeff(t(2).as_forest()) == Fraction(-1)

    def test_word_forms(self):
        assert parse_expr("213", "word", 3) == LinComb.term(Word((2, 1, 3)))
        assert parse_expr("e2.1.3", "word", 3) == LinComb.term(Word((2, 1, 3)))
        assert parse_expr("ε", "word", 3) == LinComb.term(EMPTY_WORD)

    def test_multiindex(self):
        assert parse_expr("(2,0,1)", "multiindex", 3) == LinComb.term(MultiIndex((2, 0, 1)))

    def test_label_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse_expr("[]_7", "forest", 3)
        assert "out of [1, 3]" in str(err.value)

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expr("[[]_1", "forest", 2)
        assert err.value.offset == 5

    def test_difference_of_terms(self):
        x = parse_expr("[]_1 - 3/2*[]_2 - [[]_1]_2", "forest", 2)
        assert x == LinComb({t(1).as_forest(): 1, t(2).as_forest(): Fraction(-3, 2),
                             t(2, t(1)).as_forest(): -1})

    @pytest.mark.parametrize("text, kind, offset", [
        ("12 21", "word", 3), ("(1,0) (0,1)", "multiindex", 6), ("[]_1 ]", "forest", 5),
    ])
    def test_junk_after_a_term(self, text, kind, offset):
        with pytest.raises(ParseError) as err:
            parse_expr(text, kind, 2)
        assert str(err.value) == f"expected '+', '-' or end of input (byte offset {offset})"


class TestEnumeration:
    def test_word_counts(self):
        assert len(words(3, 4)) == 81

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_words_are_the_interned_words_in_product_order(self, d):
        for k in range(5):
            got = words(d, k)
            letters = list(itertools.product(range(1, d + 1), repeat=k))
            assert [w.letters for w in got] == letters
            assert all(w.grade == k for w in got)
            assert all(w is Word(p) for w, p in zip(got, letters))
            assert words(d, k) == got

    def test_multiindex_counts(self):
        assert len(multi_indices(3, 4)) == 15

    @pytest.mark.parametrize("k,count", [(1, 2), (2, 7), (3, 26), (4, 107)])
    def test_forest_counts_two_labels(self, k, count):
        assert len(forests(2, k)) == count

    @pytest.mark.parametrize("k,count", [(1, 1), (2, 2), (3, 4), (4, 9)])
    def test_forest_counts_undecorated(self, k, count):
        assert len(forests(1, k)) == count

    def test_tree_count_follows_forests(self):
        assert len(trees(2, 4)) == 2 * len(forests(2, 3))


# hypothesis strategies for random canonical elements


@st.composite
def random_tree(draw, d=3, max_grade=8):
    budget = draw(st.integers(min_value=1, max_value=max_grade))

    def build(size):
        label = draw(st.integers(min_value=1, max_value=d))
        if size == 1:
            return Tree(label)
        parts = []
        remaining = size - 1
        while remaining > 0:
            child_size = draw(st.integers(min_value=1, max_value=remaining))
            parts.append(build(child_size))
            remaining -= child_size
        return Tree(label, Forest.of(*parts))

    return build(budget)


@st.composite
def random_forest(draw, d=3, max_grade=8):
    n = draw(st.integers(min_value=0, max_value=3))
    parts = [draw(random_tree(d=d, max_grade=max(1, max_grade // max(n, 1)))) for _ in range(n)]
    return Forest.of(*parts)


class TestRoundTrip:
    @given(random_forest())
    @settings(max_examples=150, deadline=None)
    def test_forest_print_parse(self, f):
        assert parse_expr(str(f), "forest", 3) == LinComb.term(f)

    @given(st.lists(st.integers(min_value=1, max_value=3), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_word_print_parse(self, letters):
        w = Word(letters)
        assert parse_expr(str(w), "word", 3) == LinComb.term(w)

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_multiindex_print_parse(self, entries):
        n = MultiIndex(entries)
        assert parse_expr(str(n), "multiindex", 3) == LinComb.term(n)

    @given(random_forest(), random_forest())
    @settings(max_examples=80, deadline=None)
    def test_commutativity_via_encoding(self, f, g):
        assert str(f.mul(g)) == str(g.mul(f))


class TestInterning:
    """Trees and forests are hash-consed: equal values are the same object."""

    def test_of_in_any_order(self):
        a, b, c = t(1), t(2, t(1)), t(1, t(1), t(2))
        assert Forest.of(a, b, c) is Forest.of(c, a, b) is Forest.of(b, c, a)

    def test_split_multiplicities(self):
        a, b = t(1), t(2, t(1))
        assert Forest(((a, 1), (b, 1), (a, 2))) is Forest(((b, 1), (a, 3)))
        assert Forest(((a, 0), (b, 1))) is Forest.of(b)
        assert Forest(((a, 2),)) is Forest.of(a).mul(Forest.of(a))

    def test_parse_of_printed_text(self):
        for k in range(5):
            for f in forests(2, k):
                (parsed, _), = parse_expr(str(f), "forest", 2)
                assert parsed is f

    @given(random_forest())
    @settings(max_examples=100, deadline=None)
    def test_parse_of_random_forest(self, f):
        (parsed, _), = parse_expr(str(f), "forest", 3)
        assert parsed is f

    def test_graft(self):
        for f in forests(2, 3):
            assert f.graft(2) is Tree(2, f) is t(2, *f.trees())
        assert EMPTY_FOREST.graft(1) is Tree(1) is Tree(1, EMPTY_FOREST)

    def test_as_forest_stable(self):
        for tree in trees(2, 4):
            f = tree.as_forest()
            assert tree.as_forest() is f is Forest.of(tree) is Forest(((tree, 1),))

    def test_copies_keep_identity(self):
        f = Forest.of(t(1), t(2, t(1)))
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.deepcopy(f) is f and copy.copy(f.items[0][0]) is f.items[0][0]


class TestWordInterning:
    """Words are hash-consed: equal letters give the same object."""

    def test_tuple_list_and_generator(self):
        w = Word((1, 2, 1))
        assert Word([1, 2, 1]) is w and Word(i for i in (1, 2, 1)) is w
        assert Word(()) is Word([]) is Word() is EMPTY_WORD

    @pytest.mark.parametrize("letters", [(0,), [1, 0], (i for i in (2, -1))])
    def test_letters_below_one_raise(self, letters):
        with pytest.raises(ValueError, match="letters must be >= 1"):
            Word(letters)

    def test_concat_and_reverse(self):
        assert Word((1, 2)).concat(Word((2,))) is Word((1, 2, 2))
        assert Word((1, 2, 2)).reverse() is Word((2, 2, 1))

    def test_parse_of_printed_text(self):
        for k in range(4):
            for w in words(3, k):
                (parsed, _), = parse_expr(str(w), "word", 3)
                assert parsed is w
        w = Word((10, 1))
        (parsed, _), = parse_expr(str(w), "word", 10)
        assert parsed is w

    def test_copies_keep_identity(self):
        w = Word((2, 1))
        assert pickle.loads(pickle.dumps(w)) is w
        assert copy.deepcopy(w) is w and copy.copy(w) is w


class TestIdentityHash:
    """Every basis kind is interned and hashes by identity."""

    ELEMENTS = {
        "multiindex": lambda: MultiIndex((2, 0, 1)),
        "word": lambda: Word((2, 1, 2)),
        "tree": lambda: t(2, t(1), t(1, t(2))),
        "forest": lambda: Forest.of(t(1), t(1), t(2, t(1))),
        "dotted": lambda: DottedForest(Forest.of(t(1), t(2, t(1))), 2),
        "treeword": lambda: TreeWord((t(2, t(1)), t(1), t(2, t(1)))),
    }

    @pytest.mark.parametrize("kind", sorted(ELEMENTS))
    def test_dict_lookup_after_pickle_round_trip(self, kind):
        x = self.ELEMENTS[kind]()
        table = {x: kind, EMPTY_WORD if kind == "word" else EMPTY_FOREST: "unit"}
        assert table[pickle.loads(pickle.dumps(x))] == kind
        assert pickle.loads(pickle.dumps(table)) == table
        assert pickle.loads(pickle.dumps(table))[x] == kind

    @pytest.mark.parametrize("kind", sorted(ELEMENTS))
    def test_hash_is_identity(self, kind):
        x = self.ELEMENTS[kind]()
        assert type(x).__hash__ is object.__hash__ and hash(x) == object.__hash__(x)
        assert "_hash" not in type(x).__slots__

    @pytest.mark.parametrize("kind", sorted(ELEMENTS))
    def test_copies_are_the_interned_object(self, kind):
        x = self.ELEMENTS[kind]()
        assert self.ELEMENTS[kind]() is x
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x

    def test_word_grade_is_set_at_interning(self):
        assert "grade" in Word.__slots__
        assert [w.grade for w in (EMPTY_WORD, Word((3,)), Word((1, 2, 1)))] == [0, 1, 3]

    def test_grade_is_set_at_interning_for_every_kind(self):
        assert all("grade" in kind.__slots__ for kind in (MultiIndex, DottedForest, TreeWord))
        kinds = ("multiindex", "dotted", "treeword")
        assert [self.ELEMENTS[k]().grade for k in kinds] == [3, 4, 5]


def test_forest_enumeration_golden():
    # written by the code before interning; text and order must not move
    golden = json.loads((Path(__file__).parent / "golden" / "forests_d2.json").read_text())
    assert {int(k): v for k, v in golden.items()} == {
        k: [str(f) for f in forests(2, k)] for k in range(6)
    }


def grade_partitions(k: int, largest: int):
    """The partitions of k into parts <= largest, as {part: multiplicity}."""
    if k == 0:
        yield {}
        return
    for g in range(min(k, largest), 0, -1):
        for m in range(1, k // g + 1):
            for rest in grade_partitions(k - g * m, g - 1):
                yield {g: m, **rest}


@functools.lru_cache(maxsize=None)
def brute_forests(d: int, k: int) -> tuple:
    """Every forest of grade k, by brute force: for each partition of k into
    tree grades, every choice of a multiset of m trees of grade g for each
    part g taken m times, each tree a label over a forest of grade g - 1."""
    if k == 0:
        return (EMPTY_FOREST,)
    out = []
    for parts in grade_partitions(k, k):
        choices = [
            itertools.combinations_with_replacement(
                [Tree(i, f) for f in brute_forests(d, g - 1) for i in range(1, d + 1)], m
            )
            for g, m in parts.items()
        ]
        for picks in itertools.product(*choices):
            out.append(Forest.of(*itertools.chain.from_iterable(picks)))
    return tuple(out)


@pytest.mark.parametrize("d, top", [(2, 6), (3, 4)])
def test_forests_match_brute_force_enumeration(d, top):
    for k in range(top + 1):
        want = brute_forests(d, k)
        assert len(set(want)) == len(want)
        assert all(f.grade == k for f in want)
        assert forests(d, k) == tuple(sorted(want, key=Forest.sort_key))


class TestWideAlphabet:
    def test_word_enotation_round_trip(self):
        w = Word((11, 2, 64))
        assert str(w) == "e11.2.64"
        assert parse_expr(str(w), "word", 64) == LinComb.term(w)

    def test_digit_string_rejected_for_wide_alphabets(self):
        import pytest as _pytest

        with _pytest.raises(ParseError):
            parse_expr("12", "word", 12)

    def test_dimension_bounds(self):
        import pytest as _pytest

        from hopfpath.symbols import check_dimension

        assert check_dimension(64) == 64
        with _pytest.raises(ValueError):
            check_dimension(65)
        with _pytest.raises(ValueError):
            check_dimension(0)
