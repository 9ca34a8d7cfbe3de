"""Peiffer moves, word-level transforms, coherence, and the reduction engine."""

import random

import pytest

from mihailova.pairs import (
    MixedWord,
    exchange_relator,
    in_pair_kernel,
    relator_word,
    root_relator,
)
from mihailova.peiffer import (
    IdentitySequence,
    IdentityTerm,
    InapplicableMoveError,
    InconsistencyError,
    InsertionData,
    Move,
    ReductionBudget,
    ReductionCertificate,
    associated_identity,
    deletion_tracked,
    exchange_tracked,
    format_certificate,
    insertion_tracked,
    inverse_exchange_tracked,
    is_identity,
    parse_certificate,
    peiffer_delete,
    peiffer_exchange,
    peiffer_insert,
    peiffer_inverse_exchange,
    reduce_to_empty,
    step_in_relator_normal_closure,
    verify_certificate,
)
from mihailova.presentations import Outcome, Presentation
from mihailova.words import AlphabetError, ParseError, Word, conjugate

TORUS = Presentation(2, (Word(2, (1, 2, -1, -2)),))
TREFOIL = Presentation(2, (Word(2, (1, 1, -2, -2, -2)),))


def random_word(rng, rank, max_len=4):
    lts = [rng.choice([x for s in (1, -1) for x in range(s, s * (rank + 1), s)])
           for _ in range(rng.randrange(max_len + 1))]
    return Word(rank, tuple(lts))


def random_identity(rng, P, n_pairs=3, n_shuffles=4):
    """Valid by construction: insertions build it, exchanges stir it."""
    seq = IdentitySequence(P, ())
    for _ in range(n_pairs):
        p = rng.randrange(1, len(seq) + 2)
        i = rng.randrange(1, P.num_relators + 1)
        seq = peiffer_insert(
            seq, p, i, rng.choice((1, -1)), random_word(rng, P.rank),
            rng.randrange(-2, 3),
        )
    for _ in range(n_shuffles):
        if len(seq) >= 2:
            p = rng.randrange(1, len(seq))
            move = rng.choice((peiffer_exchange, peiffer_inverse_exchange))
            seq = move(seq, p)
    return seq


def random_kernel_word(rng, P, max_factors=3, max_d=2):
    n, m = P.rank, P.num_relators
    w = MixedWord.identity(n, m)
    for _ in range(rng.randrange(1, max_factors + 1)):
        i = rng.randrange(1, m + 1)
        j = rng.randrange(1, m + 1)
        d = MixedWord(n, m, random_word(rng, n, max_d).letters)
        f = exchange_relator(P, i, j, d) if rng.random() < 0.7 else root_relator(P, i)
        if rng.random() < 0.5:
            f = f.inverse()
        z = MixedWord(n, m, random_word(rng, n, 2).letters)
        w = w * (z * f * z.inverse())
    return w


def test_identity_term_value():
    t = IdentityTerm(Word(2, (2,)), 1, 1)
    assert t.value(TORUS) == Word(2, (2, 1, 2, -1, -2, -2))
    t = IdentityTerm(Word(2), 1, -1)
    assert t.value(TORUS) == Word(2, (2, 1, -2, -1))
    with pytest.raises(ValueError):
        IdentityTerm(Word(2), 1, 2)


def test_is_identity_examples():
    assert is_identity(IdentitySequence(TORUS, ()))
    pair = (IdentityTerm(Word(2), 1, 1), IdentityTerm(Word(2), 1, -1))
    assert is_identity(IdentitySequence(TORUS, pair))
    assert not is_identity(IdentitySequence(TORUS, pair[:1]))


def test_identity_sequence_validation():
    with pytest.raises(IndexError):
        IdentitySequence(TORUS, (IdentityTerm(Word(2), 2, 1),))
    with pytest.raises(AlphabetError):
        IdentitySequence(TORUS, (IdentityTerm(Word(3), 1, 1),))


def test_peiffer_exchange_formula():
    v = Word(2, (1, 2))
    seq = IdentitySequence(
        TORUS, (IdentityTerm(v, 1, 1), IdentityTerm(v, 1, -1))
    )
    out = peiffer_exchange(seq, 1)
    assert is_identity(out)
    assert out.terms[0] == seq.terms[1]
    # moved term keeps its value conjugated by the passed one
    b = seq.terms[1].value(TORUS)
    assert out.terms[1].value(TORUS) == b.inverse() * seq.terms[0].value(TORUS) * b
    with pytest.raises(InapplicableMoveError):
        peiffer_exchange(seq, 2)


def test_exchange_round_trips_and_preservation():
    rng = random.Random(101)
    for _ in range(200):
        P = rng.choice((TORUS, TREFOIL))
        seq = random_identity(rng, P)
        assert is_identity(seq)
        if len(seq) < 2:
            continue
        p = rng.randrange(1, len(seq))
        fwd = peiffer_exchange(seq, p)
        back = peiffer_inverse_exchange(fwd, p)
        assert is_identity(fwd) and len(fwd) == len(seq)
        assert back == seq
        assert peiffer_exchange(peiffer_inverse_exchange(seq, p), p) == seq


def test_peiffer_delete_examples():
    v = Word(2, (-2, 1))
    pair = (IdentityTerm(v, 1, 1), IdentityTerm(v, 1, -1))
    seq = IdentitySequence(TORUS, pair)
    assert peiffer_delete(seq, 1) == IdentitySequence(TORUS, ())
    bad = IdentitySequence(TORUS, (pair[0], pair[0]))
    with pytest.raises(InapplicableMoveError):
        peiffer_delete(bad, 1)
    outer = (IdentityTerm(Word(2, (1,)), 1, -1), IdentityTerm(Word(2, (1,)), 1, 1))
    four = IdentitySequence(TORUS, outer[:1] + pair + outer[1:])
    out = peiffer_delete(four, 2)
    assert out.terms == outer
    assert is_identity(four) and is_identity(out)


def test_peiffer_insert_examples():
    seq = IdentitySequence(TORUS, ())
    out = peiffer_insert(seq, 1, 1, 1, Word(2, (2,)), power=0)
    assert out.terms[0].conjugator == out.terms[1].conjugator
    assert is_identity(out)
    assert peiffer_delete(out, 1) == seq
    rng = random.Random(102)
    for _ in range(100):
        base = random_identity(rng, TREFOIL, n_pairs=2)
        p = rng.randrange(1, len(base) + 2)
        grown = peiffer_insert(
            base, p, 1, rng.choice((1, -1)), random_word(rng, 2), rng.randrange(-3, 4)
        )
        assert is_identity(grown)
        assert peiffer_delete(grown, p) == base


def test_moves_preserve_is_identity_many_trials():
    rng = random.Random(103)
    trials = 0
    for _ in range(250):
        P = rng.choice((TORUS, TREFOIL))
        seq = random_identity(rng, P, n_pairs=rng.randrange(1, 4))
        for move in (peiffer_exchange, peiffer_inverse_exchange):
            if len(seq) >= 2:
                p = rng.randrange(1, len(seq))
                assert is_identity(move(seq, p))
                trials += 1
        p = rng.randrange(1, len(seq) + 2)
        assert is_identity(
            peiffer_insert(seq, p, 1, 1, random_word(rng, 2), rng.randrange(-2, 3))
        )
        trials += 1
    assert trials >= 500


def test_associated_identity_examples():
    assert associated_identity(TORUS, MixedWord.identity(2, 1)).terms == ()
    for P in (TORUS, TREFOIL):
        r1 = relator_word(P, 1)
        t1 = MixedWord.t(2, 1, 1)
        w = t1.inverse() * r1.inverse() * t1 * r1
        seq = associated_identity(P, w)
        assert seq.terms == (
            IdentityTerm(Word(2), 1, -1),
            IdentityTerm(P.relator(1).inverse(), 1, 1),
        )
        assert is_identity(seq)
    with pytest.raises(ValueError):
        associated_identity(TORUS, MixedWord.d(2, 1, 1))


def apply_expected(P, seq, builder, forced):
    expected = builder(seq)
    for q in forced:
        expected = peiffer_delete(expected, q)
    return expected


def test_exchange_transform_degenerate_frozen():
    # the exchange relator at d = d1 collapses to the empty word under the
    # p=1 exchange; both t-pairs cancel, forcing deletions at 2 then 1
    w = exchange_relator(TORUS, 1, 1, MixedWord.d(2, 1, 1))
    res = exchange_tracked(TORUS, w, 1)
    assert res.word.is_empty
    assert res.forced_deletions == (2, 1)
    expected = apply_expected(
        TORUS, associated_identity(TORUS, w), lambda s: peiffer_exchange(s, 1), res.forced_deletions
    )
    assert expected == associated_identity(TORUS, res.word)
    assert expected.terms == ()


def test_exchange_transform_plain_position():
    w = exchange_relator(TORUS, 1, 1, MixedWord.d(2, 1, 1))
    res = exchange_tracked(TORUS, w, 2)
    assert res.forced_deletions == ()
    assert not res.word.is_empty
    assert in_pair_kernel(TORUS, res.word)
    expected = peiffer_exchange(associated_identity(TORUS, w), 2)
    assert expected == associated_identity(TORUS, res.word)
    with pytest.raises(InapplicableMoveError):
        exchange_tracked(TORUS, w, 4).word
    with pytest.raises(ValueError):
        exchange_tracked(TORUS, MixedWord.d(2, 1, 1), 1).word


def test_word_level_exchange_round_trip():
    rng = random.Random(104)
    tested = 0
    for _ in range(120):
        P = rng.choice((TORUS, TREFOIL))
        w = random_kernel_word(rng, P)
        s = associated_identity(P, w)
        if len(s) < 2:
            continue
        p = rng.randrange(1, len(s))
        fwd = exchange_tracked(P, w, p)
        if fwd.forced_deletions:
            continue
        back = inverse_exchange_tracked(P, fwd.word, p)
        if back.forced_deletions:
            continue
        assert back.word == w
        tested += 1
    assert tested >= 40


def test_deletion_transform_examples():
    for P in (TORUS, TREFOIL):
        r1 = relator_word(P, 1)
        t1 = MixedWord.t(2, 1, 1)
        w = t1.inverse() * r1.inverse() * t1 * r1
        res = deletion_tracked(P, w, 1)
        assert res.word.is_empty and res.forced_deletions == ()
    w = exchange_relator(TORUS, 1, 1, MixedWord.d(2, 1, 1))
    for p in (1, 2, 3):
        with pytest.raises(InapplicableMoveError):
            deletion_tracked(TORUS, w, p).word


def test_deletion_syllable_count_drops_by_two():
    rng = random.Random(105)
    found = 0
    for _ in range(200):
        P = rng.choice((TORUS, TREFOIL))
        w = random_kernel_word(rng, P)
        s = associated_identity(P, w)
        for p in range(1, len(s)):
            try:
                res = deletion_tracked(P, w, p)
            except InapplicableMoveError:
                continue
            before = sum(1 for x in w.letters if abs(x) > w.n)
            after = sum(1 for x in res.word.letters if abs(x) > w.n)
            assert after == before - 2 - 2 * len(res.forced_deletions)
            expected = apply_expected(
                P, s, lambda t: peiffer_delete(t, p), res.forced_deletions
            )
            assert expected == associated_identity(P, res.word)
            found += 1
    assert found >= 30


def test_deletion_inconsistency_on_non_concise_presentation():
    # two relators that are conjugate: the cancelling pair mixes indices
    r = Word(2, (1, 2, -1, -2))
    P = Presentation(2, (r, conjugate(r, Word(2, (2,)))))
    w = MixedWord(2, 2, (3, 2, -4, -2))
    assert in_pair_kernel(P, w)
    with pytest.raises(InconsistencyError):
        deletion_tracked(P, w, 1).word


def test_insertion_transform_examples():
    w = root_relator(TORUS, 1)
    # empty alpha, power 0: the whole fragment cancels.  The reducer pairs
    # the first inserted letter with the preceding slot, so the forced
    # deletion lands at position 1; deleting the inserted pair itself would
    # be equally valid but is not what a left-to-right stack finds.
    res = insertion_tracked(TORUS, w, InsertionData(2, 1, 1, 0, MixedWord.identity(2, 1)))
    assert res.word == w
    assert res.forced_deletions == (1,)
    with pytest.raises(InapplicableMoveError):
        insertion_tracked(TORUS, w, InsertionData(9, 1, 1, 1, MixedWord.identity(2, 1)))
    with pytest.raises(AlphabetError):
        InsertionData(1, 1, 1, 1, MixedWord.t(2, 1, 1))


def test_insert_then_delete_recovers_word():
    rng = random.Random(106)
    tested = 0
    for _ in range(150):
        P = rng.choice((TORUS, TREFOIL))
        w = random_kernel_word(rng, P, max_factors=2)
        s = associated_identity(P, w)
        p = rng.randrange(1, len(s) + 2)
        alpha = MixedWord(2, 1, random_word(rng, 2, 2).letters)
        data = InsertionData(p, 1, rng.choice((1, -1)), rng.choice((-2, -1, 1, 2)), alpha)
        res = insertion_tracked(P, w, data)
        assert in_pair_kernel(P, res.word)
        assert_matches_validated(res.word)
        v = _prefix(P, w, p - 1) * Word(2, alpha.letters)
        expected = apply_expected(
            P, s,
            lambda t: peiffer_insert(t, p, 1, data.sign, v, data.power),
            res.forced_deletions,
        )
        assert expected == associated_identity(P, res.word)
        if not res.forced_deletions:
            back = deletion_tracked(P, res.word, p)
            assert back.word == w
            tested += 1
    assert tested >= 50


def _prefix(P, w, count):
    from mihailova.peiffer import _prefix_conjugator

    return _prefix_conjugator(w, count)


def assert_matches_validated(w):
    """Transform outputs skip validation; they must match a validated build."""
    fresh = MixedWord(w.n, w.m, w.letters)
    assert w == fresh and hash(w) == hash(fresh)


def test_coherence_random_all_moves():
    rng = random.Random(107)
    checked = 0
    for _ in range(60):
        P = rng.choice((TORUS, TREFOIL))
        w = random_kernel_word(rng, P)
        s = associated_identity(P, w)
        for p in range(1, len(s)):
            res = exchange_tracked(P, w, p)
            assert apply_expected(
                P, s, lambda t: peiffer_exchange(t, p), res.forced_deletions
            ) == associated_identity(P, res.word)
            assert_matches_validated(res.word)
            res = inverse_exchange_tracked(P, w, p)
            assert apply_expected(
                P, s, lambda t: peiffer_inverse_exchange(t, p), res.forced_deletions
            ) == associated_identity(P, res.word)
            assert_matches_validated(res.word)
            checked += 2
    assert checked >= 200


def test_reduce_root_relator_immediately():
    cert = reduce_to_empty(TORUS, root_relator(TORUS, 1))
    assert cert is not None
    assert len(cert.moves) <= 2
    assert cert.words[-1].is_empty
    assert verify_certificate(TORUS, cert)


def test_reduce_exchange_relator_uses_degenerate_exchange():
    w = exchange_relator(TORUS, 1, 1, MixedWord.d(2, 1, 1))
    cert = reduce_to_empty(TORUS, w)
    assert cert is not None
    assert cert.words[0] == w and cert.words[-1].is_empty
    assert cert.identities[-1].terms == ()
    assert verify_certificate(TORUS, cert)


def test_reduce_products_of_relators():
    rng = random.Random(108)
    for P in (TORUS, TREFOIL):
        for _ in range(6):
            w = random_kernel_word(rng, P, max_factors=2, max_d=1)
            cert = reduce_to_empty(P, w)
            assert cert is not None, f"no certificate for {w!r}"
            assert verify_certificate(P, cert)
            assert cert.words[0] == w


def test_reduce_budget_and_preconditions():
    with pytest.raises(ValueError):
        reduce_to_empty(TORUS, MixedWord.d(2, 1, 1))
    cert = reduce_to_empty(TORUS, MixedWord.identity(2, 1))
    assert cert is not None and len(cert.moves) == 0
    assert verify_certificate(TORUS, cert)
    z = MixedWord.d(2, 1, 2)
    w = root_relator(TORUS, 1) * z * root_relator(TORUS, 1) * z.inverse()
    assert reduce_to_empty(TORUS, w, ReductionBudget(max_moves=1)) is None
    cert = reduce_to_empty(TORUS, w, ReductionBudget(max_moves=2))
    assert cert is not None and len(cert.moves) == 2


def test_certificate_round_trip_and_tampering():
    w = exchange_relator(TORUS, 1, 1, MixedWord.d(2, 1, 1)) * root_relator(TORUS, 1)
    cert = reduce_to_empty(TORUS, w)
    assert cert is not None and verify_certificate(TORUS, cert)
    text = format_certificate(cert)
    again = parse_certificate(TORUS, text)
    assert again == cert
    assert verify_certificate(TORUS, again)
    # drop the last step: no longer ends empty
    clipped = ReductionCertificate(cert.moves[:-1], cert.words[:-1], cert.identities[:-1])
    assert not verify_certificate(TORUS, clipped)
    # swap a trail word
    if len(cert.words) >= 3:
        words = list(cert.words)
        words[1] = cert.words[0]
        broken = ReductionCertificate(cert.moves, tuple(words), cert.identities)
        assert not verify_certificate(TORUS, broken)
    with pytest.raises(ParseError):
        parse_certificate(TORUS, "exchange x\n1\n")
    with pytest.raises(ParseError):
        parse_certificate(TORUS, "1\nexchange 1\n1\n")


def test_insert_certificates_replay():
    # force the engine through an insertion-bearing script by hand
    w = root_relator(TORUS, 1)
    data = InsertionData(1, 1, 1, 1, MixedWord.identity(2, 1))
    res = insertion_tracked(TORUS, w, data)
    assert not res.forced_deletions
    cert_text_moves = [Move("insert", 1, data)]
    seq = associated_identity(TORUS, w)
    from mihailova.peiffer import _replay_identity

    grown = _replay_identity(TORUS, seq, cert_text_moves[0], w)
    assert is_identity(grown)
    assert grown == associated_identity(TORUS, res.word)


def test_step_in_relator_normal_closure():
    w = root_relator(TORUS, 1)
    res = deletion_tracked(TORUS, w, 1)
    # the family has 2, 6 and 18 relators at these lengths
    for max_d_len in (0, 1, 2):
        verdict = step_in_relator_normal_closure(TORUS, w, res.word, max_d_len=max_d_len)
        assert verdict.outcome is Outcome.EQUAL
        # no-op step: trivially inside
        verdict = step_in_relator_normal_closure(TORUS, w, w, max_d_len=max_d_len)
        assert verdict.outcome is Outcome.EQUAL


def test_build_certificate_rejects_wrong_forced_deletions():
    from mihailova.peiffer import _build_certificate

    w = root_relator(TORUS, 1)
    assert _build_certificate(TORUS, w, [(Move("delete", 1), ())]).words[-1].is_empty
    with pytest.raises(InconsistencyError):
        _build_certificate(TORUS, w, [(Move("delete", 1), (1,))])


@pytest.mark.parametrize("max_moves", [2, 10_000])
def test_search_checks_and_splits_each_popped_state_once(monkeypatch, max_moves):
    import heapq
    from types import SimpleNamespace

    import mihailova.peiffer as peiffer

    calls = {"pop": 0, "kernel": 0, "decompose": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(peiffer, "in_pair_kernel", counting("kernel", peiffer.in_pair_kernel))
    monkeypatch.setattr(peiffer, "decompose", counting("decompose", peiffer.decompose))
    monkeypatch.setattr(peiffer, "heapq", SimpleNamespace(
        heappush=heapq.heappush, heappop=counting("pop", heapq.heappop)))
    # certificate building re-checks its own steps; count only the search
    at_build = []
    build = peiffer._build_certificate

    def recording_build(*args):
        at_build.append(dict(calls))
        return build(*args)

    monkeypatch.setattr(peiffer, "_build_certificate", recording_build)
    # a 60-letter torus word whose search pops three states
    w = random_kernel_word(random.Random(116), TORUS, max_factors=3)
    budget = ReductionBudget(max_moves=max_moves, max_insertions=1)
    cert = reduce_to_empty(TORUS, w, budget)
    assert (cert is None) == (max_moves == 2)
    search = at_build[0] if at_build else calls
    assert search["pop"] >= 2
    # one kernel check of the input, then one check and one split per pop
    assert search["kernel"] <= search["pop"] + 1
    assert search["decompose"] <= search["pop"]


def test_moves_other_than_insert_apply_by_position_even_with_data():
    w = random_kernel_word(random.Random(116), TORUS, max_factors=3)
    cert = reduce_to_empty(TORUS, w)
    stray = InsertionData(1, 1, 1, 1, MixedWord(2, 1))
    moves = tuple(Move(m.kind, m.position, stray, m.forced) for m in cert.moves)
    assert all(m.kind != "insert" for m in moves)
    assert verify_certificate(TORUS, ReductionCertificate(moves, cert.words, cert.identities))
