"""Free group word arithmetic, against brute-force oracles where it matters."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mihailova.words import (
    AlphabetError,
    ParseError,
    Word,
    abelianize,
    are_conjugate,
    ball_size,
    commutator,
    conjugate,
    cyclic_reduce,
    iter_reduced_tuples,
    root,
    x_alphabet,
)


def W(*letters, rank=2):
    return Word(rank, letters)


letters_st = st.lists(
    st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=24
)


def test_reduce_examples():
    assert Word(3, (1, 2, -2, 3)) == Word(3, (1, 3))
    assert Word(2, (1, -1)) == Word(2)
    assert Word(2, ()) == Word(2)


def test_constructor_rejects_bad_letters():
    with pytest.raises(AlphabetError):
        Word(2, (0,))
    with pytest.raises(AlphabetError):
        Word(2, (3,))
    with pytest.raises(AlphabetError):
        Word(0, ())


@given(letters_st)
def test_reduce_idempotent_and_shorter(lts):
    w = Word(2, tuple(lts))
    assert Word(2, w.letters) == w
    assert len(w) <= len(lts)
    # no adjacent inverse pair survives
    assert all(w.letters[i] != -w.letters[i + 1] for i in range(len(w) - 1))


@given(letters_st, letters_st)
def test_group_axioms(aa, bb):
    a, b = Word(2, tuple(aa)), Word(2, tuple(bb))
    assert (a * a.inverse()).is_empty
    assert (a.inverse() * a).is_empty
    assert a.inverse().inverse() == a
    assert (a * b).inverse() == b.inverse() * a.inverse()
    # products and inverses skip validation; they must match a validated build
    for built, raw in (
        (a * b, tuple(aa) + tuple(bb)),
        (a.inverse(), tuple(-x for x in reversed(aa))),
    ):
        fresh = Word(2, raw)
        assert built == fresh and hash(built) == hash(fresh)


@settings(max_examples=50)
@given(letters_st, letters_st, letters_st)
def test_associativity(aa, bb, cc):
    a, b, c = (Word(2, tuple(x)) for x in (aa, bb, cc))
    assert (a * b) * c == a * (b * c)


def test_multiply_invert_conjugate_commutator_examples():
    assert W(1, 2) * W(-2, 1) == W(1, 1)
    assert W(1, -2).inverse() == W(2, -1)
    assert conjugate(W(1), W(2)) == W(-2, 1, 2)
    assert commutator(W(1), W(2)) == W(-1, -2, 1, 2)


def test_rank_mismatch():
    with pytest.raises(AlphabetError):
        Word(2, (1,)) * Word(3, (1,))


def test_pow():
    w = W(1, 2)
    assert w**3 == W(1, 2, 1, 2, 1, 2)
    assert w**-2 == w.inverse() * w.inverse()
    assert (w**0).is_empty


def test_cyclic_reduce_examples():
    core, conj = cyclic_reduce(W(2, 1, -2))
    assert core == W(1)
    assert conj == W(2)
    core, conj = cyclic_reduce(W(1, 2))
    assert core == W(1, 2)
    assert conj.is_empty
    core, conj = cyclic_reduce(W())
    assert core.is_empty and conj.is_empty


@given(letters_st)
def test_cyclic_reduce_reconstructs(lts):
    w = Word(2, tuple(lts))
    core, conj = cyclic_reduce(w)
    assert conj * core * conj.inverse() == w
    if core:
        assert core.letters[0] != -core.letters[-1]


def brute_force_conjugate(a, b, max_len):
    for z in iter_reduced_tuples(2, max_len):
        zw = Word(2, z)
        if conjugate(a, zw) == b:
            return True
    return False


def test_are_conjugate_examples():
    assert are_conjugate(W(1, 2), W(2, 1))
    assert not are_conjugate(W(1), W(2))
    # commutator vs its inverse: freeze the brute-force answer
    c = commutator(W(1), W(2))
    expected = brute_force_conjugate(c, c.inverse(), 4)
    assert expected is False
    assert are_conjugate(c, c.inverse()) is False


def test_are_conjugate_vs_brute_force_ball():
    # all pairs of length <= 4 in rank 2, oracle = conjugator enumeration <= 4
    ball = [Word(2, t) for t in iter_reduced_tuples(2, 4)]
    assert len(ball) == ball_size(2, 4)
    conjugators = [Word(2, t) for t in iter_reduced_tuples(2, 4)]
    conj_classes = {}
    for a in ball:
        conj_classes[a.letters] = frozenset(
            conjugate(a, z).letters for z in conjugators
        )
    for a in ball:
        for b in ball:
            assert are_conjugate(a, b) == (b.letters in conj_classes[a.letters])


def test_root_examples():
    r = root(W(1, 2) ** 3)
    assert (r.root, r.exponent) == (W(1, 2), 3)
    r = root(W(1))
    assert (r.root, r.exponent) == (W(1), 1)
    # inverse power: literal word with positive exponent
    r = root(W(1, 2) ** -3)
    assert (r.root, r.exponent) == (W(-2, -1), 3)
    # conjugated power
    w = W(2) * W(1) ** 3 * W(-2)
    r = root(w)
    assert (r.root, r.exponent) == (W(2, 1, -2), 3)
    with pytest.raises(ValueError):
        root(W())


def max_power_table(max_len):
    """word -> largest k such that word = s^k for some s (forward enumeration)."""
    table = {}
    for t in iter_reduced_tuples(2, max_len):
        if not t:
            continue
        s = Word(2, t)
        acc = s
        k = 1
        while len(acc) <= max_len:
            prev = table.get(acc.letters, 0)
            if k > prev:
                table[acc.letters] = k
            acc = acc * s
            k += 1
    return table


def test_root_vs_brute_force_ball():
    table = max_power_table(6)
    for t in iter_reduced_tuples(2, 6):
        if not t:
            continue
        w = Word(2, t)
        r = root(w)
        assert r.root**r.exponent == w
        assert r.exponent == table[t]
        # the root itself is not a proper power
        assert root(r.root).exponent == 1


def test_abelianize_examples():
    assert abelianize(commutator(W(1), W(2))) == (0, 0)
    assert abelianize(W(1, 1, -2, -2, -2)) == (2, -3)
    assert abelianize(Word(3, (3, 3, -1))) == (-1, 0, 2)


@given(letters_st, letters_st)
def test_abelianize_additive(aa, bb):
    a, b = Word(2, tuple(aa)), Word(2, tuple(bb))
    pa, pb = abelianize(a), abelianize(b)
    assert abelianize(a * b) == tuple(x + y for x, y in zip(pa, pb))


def test_conjugate_preserves_abelianization_and_conjugacy():
    rng = random.Random(7)
    for _ in range(200):
        lts = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(9))]
        zts = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(9))]
        a, z = Word(2, tuple(lts)), Word(2, tuple(zts))
        b = conjugate(a, z)
        assert abelianize(b) == abelianize(a)
        assert are_conjugate(a, b)


def test_word_text_round_trip():
    alpha = x_alphabet(3)
    w = Word(3, (1, 2, -1, -2, 3))
    text = alpha.format(w)
    assert text == "x1 x2 x1^-1 x2^-1 x3"
    assert alpha.parse(text) == w
    assert alpha.format(Word(3)) == "1"
    assert alpha.parse("1") == Word(3)


def test_word_text_errors():
    alpha = x_alphabet(2)
    with pytest.raises(ParseError):
        alpha.parse("x0")
    with pytest.raises(ParseError):
        alpha.parse("x3")
    with pytest.raises(ParseError):
        alpha.parse("")
    with pytest.raises(ParseError):
        alpha.parse("x1 y2")


def test_enumeration_order_and_count():
    words = list(iter_reduced_tuples(2, 2))
    assert words[:6] == [(), (1,), (-1,), (2,), (-2,)] + [(1, 1)]
    assert len(words) == ball_size(2, 2) == 17
    assert len(list(iter_reduced_tuples(2, 3))) == ball_size(2, 3) == 53
    # length-lex: lengths never decrease
    lens = [len(t) for t in words]
    assert lens == sorted(lens)
    # all reduced, all distinct
    assert len(set(words)) == len(words)
    for t in words:
        assert all(t[i] != -t[i + 1] for i in range(len(t) - 1))
