"""Pair words, mixed d/t words, the pair homomorphism, and relator family."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mihailova.pairs import (
    MixedWord,
    PairWord,
    SyllableForm,
    capitalize,
    decapitalize,
    decompose,
    exchange_relator,
    format_mixed_word,
    format_pair_word,
    in_mihailova,
    in_pair_kernel,
    mihailova_generators,
    pair_image,
    parse_mixed_word,
    parse_pair_word,
    recompose,
    relator_family,
    relator_word,
    root_relator,
)
from mihailova.presentations import Outcome, Presentation
from mihailova.words import AlphabetError, ParseError, Word, ball_size, iter_reduced_tuples

TORUS = Presentation(2, (Word(2, (1, 2, -1, -2)),))
TREFOIL = Presentation(2, (Word(2, (1, 1, -2, -2, -2)),))
TWO_REL = Presentation(2, (Word(2, (1, 2, -1, -2)), Word(2, (2, 2, 2))))


def MW(*letters, n=2, m=1):
    return MixedWord(n, m, letters)


def random_mixed(rng, n, m, max_len=12):
    k = rng.randrange(max_len + 1)
    rank = n + m
    lts = [rng.choice([x for s in (1, -1) for x in range(s, s * (rank + 1), s)])
           for _ in range(k)]
    return MixedWord(n, m, tuple(lts))


def test_pair_word_basics():
    p = PairWord(Word(2, (1,)), Word(2, (2,)))
    q = p * p.inverse()
    assert q.is_identity
    assert PairWord.identity(2).rank == 2
    with pytest.raises(AlphabetError):
        PairWord(Word(2, (1,)), Word(3, (1,)))


def test_mixed_word_reduction_and_bounds():
    assert MW(1, 3, -3, -1).is_empty
    assert MW(1, 3, -3, 2).letters == (1, 2)
    with pytest.raises(AlphabetError):
        MW(4)  # rank is n+m = 3
    with pytest.raises(AlphabetError):
        MixedWord.t(2, 1, 2)
    assert MixedWord.d(2, 1, 2, -1).letters == (-2,)
    assert MixedWord.t(2, 1, 1).letters == (3,)


def test_mixed_word_group_ops():
    w = MW(1, 3, 2)
    assert (w * w.inverse()).is_empty
    assert (w ** 2).letters == (1, 3, 2, 1, 3, 2)
    assert (w ** -1).letters == (-2, -3, -1)
    with pytest.raises(AlphabetError):
        MW(1) * MixedWord(2, 2, (1,))


def test_capitalize_examples():
    assert capitalize(MW(1, -2)) == Word(2, (1, -2))
    assert capitalize(MW()) == Word(2)
    assert capitalize(MW(2, 2)) == Word(2, (2, 2))
    with pytest.raises(AlphabetError):
        capitalize(MW(1, 3))


def test_capitalize_is_length_preserving_bijection_on_ball():
    seen = set()
    for lts in iter_reduced_tuples(2, 3):
        u = MixedWord(2, 1, lts)
        w = capitalize(u)
        assert len(w) == len(u)
        assert decapitalize(w, 1) == u
        assert w.letters not in seen
        seen.add(w.letters)
    assert len(seen) == ball_size(2, 3)


def test_relator_word_examples():
    assert relator_word(TORUS, 1) == MW(1, 2, -1, -2)
    P = Presentation(1, (Word(1, (1, 1)),))
    assert relator_word(P, 1) == MixedWord(1, 1, (1, 1))
    for Q in (TORUS, TREFOIL, TWO_REL):
        for i in range(1, Q.num_relators + 1):
            assert capitalize(relator_word(Q, i)) == Q.relator(i)
    with pytest.raises(IndexError):
        relator_word(TORUS, 2)


def test_mihailova_generators():
    gens = mihailova_generators(TORUS)
    assert gens == [
        PairWord(Word(2, (1,)), Word(2, (1,))),
        PairWord(Word(2, (2,)), Word(2, (2,))),
        PairWord(Word(2), Word(2, (1, 2, -1, -2))),
    ]
    free = Presentation(3, ())
    assert all(g.left == g.right for g in mihailova_generators(free))
    assert len(mihailova_generators(TWO_REL)) == 4


def test_pair_image_examples():
    assert pair_image(TORUS, MW(1)) == PairWord(Word(2, (1,)), Word(2, (1,)))
    # t1 d2 with R1 = x1 x1
    P = Presentation(2, (Word(2, (1, 1)),))
    got = pair_image(P, MW(3, 2))
    assert got == PairWord(Word(2, (2,)), Word(2, (1, 1, 2)))
    # commutator of t1 with its own conjugated relator word dies
    w = exchange_relator(TORUS, 1, 1, MixedWord.d(2, 1, 1))
    assert pair_image(TORUS, w).is_identity
    with pytest.raises(AlphabetError):
        pair_image(TORUS, MixedWord(2, 2, (1,)))


def test_pair_image_is_homomorphism():
    rng = random.Random(71)
    for P in (TORUS, TWO_REL):
        n, m = P.rank, P.num_relators
        for _ in range(300):
            a = random_mixed(rng, n, m)
            b = random_mixed(rng, n, m)
            assert pair_image(P, a * b) == pair_image(P, a) * pair_image(P, b)
            assert pair_image(P, a.inverse()) == pair_image(P, a).inverse()


def test_pair_image_diagonal_on_d_only():
    rng = random.Random(72)
    for _ in range(100):
        lts = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(9)))
        u = MixedWord(2, 1, lts)
        p = pair_image(TORUS, u)
        assert p.left == p.right == capitalize(u)


def test_decompose_examples():
    s = decompose(MW(1, 4, -1, n=2, m=2))
    assert s.d_syllables == (Word(2, (1,)), Word(2, (-1,)))
    assert s.t_letters == ((2, 1),)
    s = decompose(MW(3, 3))
    assert s.d_syllables == (Word(2), Word(2), Word(2))
    assert s.t_letters == ((1, 1), (1, 1))
    s = decompose(MW(1, -2, 1))
    assert s.t_count == 0
    assert s.d_syllables == (Word(2, (1, -2, 1)),)


def test_decompose_recompose_round_trip():
    rng = random.Random(73)
    for _ in range(300):
        w = random_mixed(rng, 2, 2)
        assert recompose(decompose(w)) == w
        # syllables skip validation; they must match a validated build
        raw = [[]]
        for x in w.letters:
            if abs(x) <= 2:
                raw[-1].append(x)
            else:
                raw.append([])
        for u, lts in zip(decompose(w).d_syllables, raw, strict=True):
            fresh = Word(2, tuple(lts))
            assert u == fresh and hash(u) == hash(fresh)
    # and the other direction, on a form whose recomposition stays reduced
    s = SyllableForm(
        2, 1,
        (Word(2, (1,)), Word(2), Word(2, (-2,))),
        ((1, 1), (1, 1)),
    )
    assert decompose(recompose(s)) == s


def test_syllable_form_validation():
    with pytest.raises(ValueError):
        SyllableForm(2, 1, (Word(2),), ((1, 1),))
    with pytest.raises(AlphabetError):
        SyllableForm(2, 1, (Word(2), Word(2)), ((2, 1),))
    with pytest.raises(AlphabetError):
        SyllableForm(2, 1, (Word(3), Word(2)), ((1, 1),))


def test_exchange_relator_frozen_examples():
    # i=j=1, d empty: [t1, t1^-1 r1] = t1^-1 r1^-1 t1 r1
    w = exchange_relator(TORUS, 1, 1, MixedWord.identity(2, 1))
    assert w.letters == (-3, 2, 1, -2, -1, 3, 1, 2, -1, -2)
    # n=1, R=x1: reduces to t1^-1 d1^-1 t1 d1, nonempty
    P = Presentation(1, (Word(1, (1,)),))
    w = exchange_relator(P, 1, 1, MixedWord.identity(1, 1))
    assert w.letters == (-2, -1, 2, 1)
    with pytest.raises(IndexError):
        exchange_relator(TORUS, 1, 2, MixedWord.identity(2, 1))
    with pytest.raises(AlphabetError):
        exchange_relator(TORUS, 1, 1, MixedWord.t(2, 1, 1))


def test_exchange_relators_lie_in_kernel():
    rng = random.Random(74)
    for P in (TORUS, TREFOIL, TWO_REL):
        n, m = P.rank, P.num_relators
        for _ in range(60):
            i = rng.randrange(1, m + 1)
            j = rng.randrange(1, m + 1)
            lts = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(5)))
            d = MixedWord(n, m, lts)
            assert in_pair_kernel(P, exchange_relator(P, i, j, d))


def test_root_relator_examples():
    w = root_relator(TORUS, 1)
    assert w.letters == (-3, 2, 1, -2, -1, 3, 1, 2, -1, -2)
    P = Presentation(1, (Word(1, (1, 1)),))
    assert root_relator(P, 1).letters == (-2, -1, 2, 1)
    for Q in (TORUS, TREFOIL, TWO_REL):
        for i in range(1, Q.num_relators + 1):
            assert in_pair_kernel(Q, root_relator(Q, i))
    with pytest.raises(ValueError):
        root_relator(Presentation(2, (Word(2),)), 1)


def test_relator_family_counts_and_order():
    fam = relator_family(TORUS, 2)
    assert len(fam) == 18  # 1*17 + 1
    assert fam[0] == exchange_relator(TORUS, 1, 1, MixedWord.identity(2, 1))
    assert fam[1] == exchange_relator(TORUS, 1, 1, MixedWord.d(2, 1, 1))
    assert fam[-1] == root_relator(TORUS, 1)
    assert len(relator_family(TORUS, 0)) == 2  # m^2 + m
    assert len(relator_family(TWO_REL, 1)) == 4 * 5 + 2
    # deterministic: same call, same list
    assert relator_family(TORUS, 2) == fam


def test_relator_family_in_kernel():
    for P in (TORUS, TREFOIL):
        assert all(in_pair_kernel(P, w) for w in relator_family(P, 3))
    assert all(in_pair_kernel(TWO_REL, w) for w in relator_family(TWO_REL, 2))


@st.composite
def family_cases(draw):
    """(presentation, max_d_len) with n 1..4, m 1..3 and a ball of at most
    187 conjugators; relators are nonempty and often not cyclically
    reduced (u c u^-1 with the core c of length 1 or more)."""
    n = draw(st.integers(1, 4))
    max_d_len = draw(st.integers(0, 3 if n <= 3 else 2))
    letter = st.integers(-n, n).filter(bool)
    relators = []
    for _ in range(draw(st.integers(1, 3))):
        u = Word(n, tuple(draw(st.lists(letter, max_size=2))))
        core = Word(n, tuple(draw(st.lists(letter, min_size=1, max_size=4))))
        r = u * core * u.inverse()
        if r.is_empty:
            r = Word(n, (draw(letter),))
        relators.append(r)
    return Presentation(n, tuple(relators)), max_d_len


@settings(max_examples=60, deadline=None)
@given(family_cases())
@example((Presentation(1, (Word(1, (1,)),)), 3))  # length-1 relator
@example((Presentation(1, (Word(1, (1, 1)),)), 3))
@example((Presentation(2, (Word(2, (2, 1, 1, -2)),)), 3))  # r_1 cancels into d
@example((Presentation(2, (Word(2, (1,)), Word(2, (-2, 1, 2)))), 2))
@example((TWO_REL, 0))
def test_relator_family_matches_per_member_construction(case):
    P, max_d_len = case
    n, m = P.rank, P.num_relators
    ds = [MixedWord(n, m, lts) for lts in iter_reduced_tuples(n, max_d_len)]
    expected = [
        exchange_relator(P, i, j, d)
        for i in range(1, m + 1) for j in range(1, m + 1) for d in ds
    ] + [root_relator(P, i) for i in range(1, m + 1)]
    family = relator_family(P, max_d_len)
    assert family == expected


def test_relator_family_skips_validated_construction(monkeypatch):
    validated = 0
    post_init = MixedWord.__post_init__

    def counting(self):
        nonlocal validated
        validated += 1
        post_init(self)

    monkeypatch.setattr(MixedWord, "__post_init__", counting)
    for P, max_d_len in ((TWO_REL, 2), (TREFOIL, 3)):
        validated = 0
        family = relator_family(P, max_d_len)
        assert len(family) > 10 * P.num_relators
        assert validated <= P.num_relators


def test_in_pair_kernel_examples():
    assert not in_pair_kernel(TORUS, MW(1))
    for P in (TORUS, TREFOIL, TWO_REL):
        r1 = relator_word(P, 1)
        t1 = MixedWord.t(P.rank, P.num_relators, 1)
        w = t1.inverse() * r1.inverse() * t1 * r1
        assert in_pair_kernel(P, w)


def test_in_mihailova_examples():
    w = Word(2, (1, -2, -2, 1))
    assert in_mihailova(TORUS, PairWord(w, w)).outcome is Outcome.EQUAL
    v = in_mihailova(TORUS, PairWord(Word(2), TORUS.relator(1)))
    assert v.outcome is Outcome.EQUAL
    v = in_mihailova(TORUS, PairWord(Word(2, (1,)), Word(2, (2,))))
    assert v.outcome is Outcome.NOT_EQUAL
    with pytest.raises(AlphabetError):
        in_mihailova(TORUS, PairWord(Word(3, (1,)), Word(3, (1,))))


def test_mixed_word_text_round_trip():
    w = MW(-3, 2, 1, -2)
    text = format_mixed_word(w)
    assert text == "t1^-1 d2 d1 d2^-1"
    assert parse_mixed_word(text, 2, 1) == w
    assert format_mixed_word(MixedWord.identity(2, 1)) == "1"
    assert parse_mixed_word("1", 2, 1).is_empty
    with pytest.raises(ParseError):
        parse_mixed_word("d3", 2, 1)
    with pytest.raises(ParseError):
        parse_mixed_word("x1", 2, 1)


def test_pair_word_text_round_trip():
    p = PairWord(Word(2, (2,)), Word(2, (1, 2, -1)))
    text = format_pair_word(p)
    assert text == "(x2 , x1 x2 x1^-1)"
    assert parse_pair_word(text, 2) == p
    assert format_pair_word(PairWord.identity(2)) == "(1 , 1)"
    assert parse_pair_word("(1 , 1)", 2).is_identity
    with pytest.raises(ParseError):
        parse_pair_word("x1 , x2", 2)
    with pytest.raises(ParseError):
        parse_pair_word("(x1 x2)", 2)
    with pytest.raises(ParseError):
        parse_pair_word("(x1 , x2 , x1)", 2)
