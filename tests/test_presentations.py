"""Presentations: conciseness, refinement, and the certified bounded search."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mihailova.presentations
from mihailova.presentations import (
    ClosureBudget,
    InconsistencyError,
    Outcome,
    Presentation,
    certificate_product,
    check_strengthened_conciseness,
    concise_refinement,
    equal_in_group,
    format_presentation,
    from_raw,
    in_integer_span,
    is_concise,
    normal_closure_contains,
    parse_presentation,
)
from mihailova.words import ParseError, Word, abelianize, conjugate

TORUS = Presentation(2, (Word(2, (1, 2, -1, -2)),))
TREFOIL = Presentation(2, (Word(2, (1, 1, -2, -2, -2)),))
Z4Z4 = Presentation(2, (Word(2, (1, 1, 1, 1)), Word(2, (2, 2, 2, 2))))
RANK3 = Presentation(
    3, (Word(3, (1, 2, -1, -2)), Word(3, (1, 3, -1, -3)), Word(3, (2, 3, -2, -3)))
)


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(0, ())
    with pytest.raises(ValueError):
        Presentation(2, (Word(3, (1,)),))
    with pytest.raises(IndexError):
        TORUS.relator(2)
    assert TORUS.relator(1) == Word(2, (1, 2, -1, -2))
    assert TORUS.num_relators == 1


def test_is_concise_examples():
    assert is_concise(TORUS)
    r = TORUS.relator(1)
    assert not is_concise(Presentation(2, (r, conjugate(r, Word(2, (2,))))))
    assert not is_concise(Presentation(2, (r, Word(2))))
    # inverse-conjugate duplicate also counts
    assert not is_concise(Presentation(2, (r, conjugate(r.inverse(), Word(2, (1,))))))


def test_concise_refinement_examples():
    r = TORUS.relator(1)
    noisy = from_raw(2, [(1, -1), (1, 2, -1, -2), (2, 1, 2, -1, -2, -2)])
    refined = concise_refinement(noisy)
    assert refined.relators == (r,)
    assert is_concise(refined)
    assert concise_refinement(refined) == refined
    # first occurrence wins
    other = Presentation(2, (conjugate(r, Word(2, (2,))), r))
    assert concise_refinement(other).relators == (conjugate(r, Word(2, (2,))),)


def test_refinement_preserves_relator_lattice():
    rng = random.Random(11)
    for _ in range(50):
        rels = []
        for _ in range(rng.randrange(1, 5)):
            lts = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(7))]
            rels.append(tuple(lts))
        P = from_raw(2, rels)
        Q = concise_refinement(P)
        vecs_p = [abelianize(r) for r in P.relators]
        vecs_q = [abelianize(r) for r in Q.relators]
        for v in vecs_p:
            assert in_integer_span(vecs_q, v)
        for v in vecs_q:
            assert in_integer_span(vecs_p, v)


def test_strengthened_conciseness_examples():
    # no nontrivial free group element is conjugate to its inverse, so these
    # are all quiet; the brute-force checks of the conjugacy facts live in
    # test_words.  The surface still exists for defensive reporting.
    assert check_strengthened_conciseness(TORUS) == []
    assert check_strengthened_conciseness(
        Presentation(2, (Word(2, (1, 2, -1)),))
    ) == []
    assert check_strengthened_conciseness(
        Presentation(2, (Word(2, (1, -2, -1, 2)),))
    ) == []


def test_in_integer_span_hand_cases():
    assert in_integer_span([(1, 0), (0, 1)], (3, -5))
    assert in_integer_span([(2, 0), (0, 2)], (4, -6))
    assert not in_integer_span([(2, 0), (0, 2)], (1, 1))
    assert not in_integer_span([(2, -3)], (1, 1))
    assert in_integer_span([(2, -3)], (-4, 6))
    assert in_integer_span([], (0, 0))
    assert not in_integer_span([], (0, 1))
    assert in_integer_span([(6, 0), (4, 0)], (2, 0))  # gcd via combinations
    assert not in_integer_span([(6, 0), (4, 0)], (1, 0))
    assert not in_integer_span([(1, 2, 3)], (2, 4, 5))


def test_in_integer_span_random_positive_combos():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randrange(1, 5)
        rows = [
            tuple(rng.randrange(-4, 5) for _ in range(n))
            for _ in range(rng.randrange(1, 4))
        ]
        coeffs = [rng.randrange(-5, 6) for _ in rows]
        target = tuple(
            sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(n)
        )
        assert in_integer_span(rows, target)


def test_normal_closure_examples():
    r = TORUS.relator(1)
    v = normal_closure_contains(TORUS, r)
    assert v.outcome is Outcome.EQUAL
    assert len(v.certificate) == 1
    assert certificate_product(TORUS, v.certificate) == r

    v = normal_closure_contains(TORUS, Word(2, (1,)))
    assert v.outcome is Outcome.NOT_EQUAL
    assert v.obstruction == (1, 0)

    w = conjugate(r, Word(2, (2,))) * r.inverse()
    v = normal_closure_contains(TORUS, w)
    assert v.outcome is Outcome.EQUAL
    assert certificate_product(TORUS, v.certificate) == w


def test_wrong_certificate_product_raises_even_under_O(monkeypatch):
    # the self-check is an explicit raise, so `python -O` keeps it
    r = TORUS.relator(1)
    monkeypatch.setattr(
        mihailova.presentations, "certificate_product",
        lambda P, factors: Word(P.rank, (1,)),
    )
    with pytest.raises(InconsistencyError):
        normal_closure_contains(TORUS, r)


def test_normal_closure_unknown_on_tiny_budget():
    r = TORUS.relator(1)
    w = conjugate(r, Word(2, (2, 1, 2))) * conjugate(r, Word(2, (1, 1, 2)))
    v = normal_closure_contains(
        TORUS, w, ClosureBudget(max_steps=1, max_conjugator_len=1)
    )
    assert v.outcome is Outcome.UNKNOWN


def test_equal_in_group_examples():
    v = equal_in_group(TORUS, Word(2, (1, 2)), Word(2, (2, 1)))
    assert v.outcome is Outcome.EQUAL
    v = equal_in_group(TORUS, Word(2, (1,)), Word(2, (2,)))
    assert v.outcome is Outcome.NOT_EQUAL
    # oracle substitution
    from mihailova.presentations import Verdict

    calls = []

    def oracle(a, b):
        calls.append((a, b))
        return Verdict(Outcome.EQUAL, certificate=())

    v = equal_in_group(TORUS, Word(2, (1,)), Word(2, (2,)), oracle=oracle)
    assert v.outcome is Outcome.EQUAL and len(calls) == 1


def test_sound_both_directions_across_budgets():
    # EQUAL and NOT_EQUAL must never both occur for one input
    rng = random.Random(5)
    budgets = [
        ClosureBudget(max_steps=s, max_conjugator_len=c)
        for s in (5, 200, 3000)
        for c in (1, 2, 4)
    ]
    rel_vecs = [abelianize(r) for r in TORUS.relators]
    for _ in range(40):
        lts = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(10))]
        w = Word(2, tuple(lts))
        outcomes = {normal_closure_contains(TORUS, w, b).outcome for b in budgets}
        assert not ({Outcome.EQUAL, Outcome.NOT_EQUAL} <= outcomes)
        if Outcome.EQUAL in outcomes:
            assert in_integer_span(rel_vecs, abelianize(w))


def test_torus_agrees_with_abelianization_oracle_on_ball():
    # F2 / <<[x1,x2]>> = Z^2 exactly, so the abelianization oracle is total.
    from mihailova.words import iter_reduced_tuples

    ball = [Word(2, t) for t in iter_reduced_tuples(2, 4)]
    budget = ClosureBudget(max_steps=30_000, max_conjugator_len=4)
    cache: dict[tuple, Outcome] = {}
    for w1 in ball:
        for w2 in ball:
            diff = w1 * w2.inverse()
            expected_equal = abelianize(diff) == (0, 0)
            got = cache.get(diff.letters)
            if got is None:
                got = normal_closure_contains(TORUS, diff, budget).outcome
                cache[diff.letters] = got
            if expected_equal:
                assert got is Outcome.EQUAL
            else:
                assert got is Outcome.NOT_EQUAL


def test_trefoil_membership():
    r = TREFOIL.relator(1)
    v = normal_closure_contains(TREFOIL, conjugate(r, Word(2, (1, 2))))
    assert v.outcome is Outcome.EQUAL
    v = normal_closure_contains(TREFOIL, Word(2, (1, 1, -2, -2)))
    assert v.outcome is Outcome.NOT_EQUAL
    assert v.obstruction == (2, -2)
    # zero-obstruction non-relator word: bounded search stays honest
    v = normal_closure_contains(
        TREFOIL, Word(2, (1, 2, -1, -2)), ClosureBudget(max_steps=300)
    )
    assert v.outcome is Outcome.UNKNOWN


def test_certificates_respect_conjugator_budget():
    r = TORUS.relator(1)
    w = conjugate(r, Word(2, (2, 2))) * r.inverse()
    budget = ClosureBudget(max_steps=5000, max_conjugator_len=3)
    v = normal_closure_contains(TORUS, w, budget)
    assert v.outcome is Outcome.EQUAL
    for f in v.certificate:
        assert len(f.conjugator) <= budget.max_conjugator_len
        assert 1 <= f.relator_index <= TORUS.num_relators
        assert f.sign in (1, -1)


def test_closure_search_builds_children_only_from_matching_relators(monkeypatch):
    # the bound is a tenth of what multiplying each popped word by every
    # z R^+-1 z^-1 with |z| <= 4 builds here: 5,622 per pop, 224,880 in all
    calls = 0
    concat = mihailova.presentations.concat_reduced

    def counting(a, b):
        nonlocal calls
        calls += 1
        return concat(a, b)

    monkeypatch.setattr(mihailova.presentations, "concat_reduced", counting)
    w = Word(3, (1,) * 4 + (2,) * 4 + (-1,) * 4 + (-2,) * 4)
    v = normal_closure_contains(RANK3, w, ClosureBudget(max_steps=38))
    assert v.outcome is Outcome.UNKNOWN
    assert calls < 22_488


def test_closure_search_with_relators_not_cyclically_reduced():
    # the relator x2 [x1, x2] x2^-1 is reduced but not cyclically reduced,
    # so every rotation's p carries the outer x2
    P = Presentation(2, (Word(2, (2, 1, 2, -1, -2, -2)),))
    r = TORUS.relator(1)
    for w in (r, conjugate(r.inverse(), Word(2, (1, 1))), r * conjugate(r, Word(2, (2, 2)))):
        v = normal_closure_contains(P, w, ClosureBudget(max_conjugator_len=3))
        assert v.outcome is Outcome.EQUAL
        assert certificate_product(P, v.certificate) == w
        assert all(len(f.conjugator) <= 3 for f in v.certificate)


@st.composite
def conjugated_relator_products(draw, max_terms):
    """(presentation, conjugator bound L, product of 1..max_terms terms
    z R^+-1 z^-1 with |z| <= L)."""
    P = draw(st.sampled_from((TORUS, TREFOIL, Z4Z4, RANK3)))
    bound = draw(st.integers(1, 4))
    letter = st.integers(-P.rank, P.rank).filter(bool)
    w = Word(P.rank)
    for _ in range(draw(st.integers(1, max_terms))):
        z = Word(P.rank, tuple(draw(st.lists(letter, max_size=bound))))
        r = P.relator(draw(st.integers(1, P.num_relators))) ** draw(st.sampled_from((1, -1)))
        w = w * z * r * z.inverse()
    return P, bound, w


@settings(max_examples=200, deadline=None)
@given(conjugated_relator_products(max_terms=3))
def test_closure_certificates_multiply_out_within_conjugator_bound(case):
    P, bound, w = case
    v = normal_closure_contains(P, w, ClosureBudget(max_conjugator_len=bound))
    assert v.outcome is not Outcome.NOT_EQUAL
    if v.is_equal:
        assert certificate_product(P, v.certificate) == w
        assert all(len(f.conjugator) <= bound for f in v.certificate)


@settings(max_examples=200, deadline=None)
@given(conjugated_relator_products(max_terms=1))
def test_single_conjugated_relator_is_found(case):
    P, bound, w = case
    v = normal_closure_contains(P, w, ClosureBudget(max_conjugator_len=bound))
    assert v.outcome is Outcome.EQUAL


def test_presentation_file_round_trip():
    text = "# the torus\nrank 2\nrelator x1 x2 x1^-1 x2^-1\n"
    P = parse_presentation(text)
    assert P == TORUS
    out = format_presentation(P)
    assert parse_presentation(out) == P
    assert out == "rank 2\nrelator x1 x2 x1^-1 x2^-1\n"


def test_presentation_parse_errors_name_lines():
    with pytest.raises(ParseError, match="line 2"):
        parse_presentation("rank 2\nrelator x0\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_presentation("relator x1\nrank 2\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_presentation("rank 2\nrelator x1\ngenerator x2\n")
    with pytest.raises(ParseError, match="missing rank"):
        parse_presentation("# empty\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_presentation("rank x\n")
