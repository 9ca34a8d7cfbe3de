"""Identities among relations and Peiffer transformations.

An identity among relations for a presentation is a sequence of terms
U · R_i^s · U^-1 whose product freely reduces to the empty word; the terms
are the ``IdentityTerm``s that membership certificates in ``presentations``
are made of.  Three moves rewrite identities into identities: exchanging
adjacent terms (in either direction), deleting an adjacent pair whose
product is trivial, and inserting such a pair.

Every kernel word of the pair homomorphism carries an associated identity
read off its syllable decomposition, and each identity move has a word
level counterpart acting on the mixed word through a small table of new
d-syllables.  Rewriting the syllables can make t-letters cancel when the
word is reduced; the ``*_tracked`` transforms report the Peiffer
deletions forced by that cancellation, so the identity bookkeeping stays
aligned with the freely reduced words.

``reduce_to_empty`` searches over these moves for a scripted route from a
kernel word to the empty word and returns a replayable certificate.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from .pairs import (
    MixedWord,
    capitalize,
    decompose,
    format_mixed_word,
    in_pair_kernel,
    parse_mixed_word,
    relator_family,
)
from .presentations import (
    ClosureBudget,
    IdentityTerm,
    InconsistencyError,
    Presentation,
    Verdict,
    certificate_product,
    normal_closure_contains,
)
from .words import AlphabetError, ParseError, Word, letter_order, root


class InapplicableMoveError(ValueError):
    """The requested move does not apply at this position."""


# ---------------------------------------------------------------------------
# Identities and the three moves
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class IdentitySequence:
    """Ordered terms over one presentation; not forced to multiply to 1,
    so that is_identity can be asked as a question."""

    presentation: Presentation
    terms: tuple = ()

    def __post_init__(self):
        for term in self.terms:
            if not isinstance(term, IdentityTerm):
                raise TypeError("terms must be IdentityTerms")
            if term.relator_index > self.presentation.num_relators:
                raise IndexError(
                    f"relator index {term.relator_index} out of range"
                )
            if term.conjugator.rank != self.presentation.rank:
                raise AlphabetError("conjugator rank does not match presentation")

    def __len__(self):
        return len(self.terms)

    def value_product(self) -> Word:
        return certificate_product(self.presentation, self.terms)


def is_identity(seq: IdentitySequence) -> bool:
    return seq.value_product().is_empty


def _check_adjacent(seq: IdentitySequence, p: int):
    if not 1 <= p <= len(seq) - 1:
        raise InapplicableMoveError(
            f"position {p} needs two adjacent terms in a sequence of length {len(seq)}"
        )


def peiffer_exchange(seq: IdentitySequence, p: int) -> IdentitySequence:
    """Replace terms (A, B) at p, p+1 by (B, B^-1 A B)."""
    _check_adjacent(seq, p)
    a, b = seq.terms[p - 1], seq.terms[p]
    rb = seq.presentation.relator(b.relator_index)
    if b.sign > 0:
        rb = rb.inverse()
    moved = IdentityTerm(
        b.conjugator * rb * b.conjugator.inverse() * a.conjugator,
        a.relator_index,
        a.sign,
    )
    terms = seq.terms[: p - 1] + (b, moved) + seq.terms[p + 1 :]
    return IdentitySequence(seq.presentation, terms)


def peiffer_inverse_exchange(seq: IdentitySequence, p: int) -> IdentitySequence:
    """Replace terms (A, B) at p, p+1 by (A B A^-1, A); undoes the exchange."""
    _check_adjacent(seq, p)
    a, b = seq.terms[p - 1], seq.terms[p]
    ra = seq.presentation.relator(a.relator_index)
    if a.sign < 0:
        ra = ra.inverse()
    moved = IdentityTerm(
        a.conjugator * ra * a.conjugator.inverse() * b.conjugator,
        b.relator_index,
        b.sign,
    )
    terms = seq.terms[: p - 1] + (moved, a) + seq.terms[p + 1 :]
    return IdentitySequence(seq.presentation, terms)


def peiffer_delete(seq: IdentitySequence, p: int) -> IdentitySequence:
    """Drop the pair at p, p+1; requires their value product to be trivial."""
    _check_adjacent(seq, p)
    a, b = seq.terms[p - 1], seq.terms[p]
    prod = a.value(seq.presentation) * b.value(seq.presentation)
    if not prod.is_empty:
        raise InapplicableMoveError(f"terms at {p}, {p + 1} do not cancel")
    return IdentitySequence(seq.presentation, seq.terms[: p - 1] + seq.terms[p + 1 :])


def peiffer_insert(
    seq: IdentitySequence,
    p: int,
    relator_index: int,
    sign: int,
    conjugator: Word,
    power: int = 0,
) -> IdentitySequence:
    """Insert (V R_i^s V^-1, V' R_i^-s V'^-1) before position p, where
    V' = V * root(R_i)^power.  The pair cancels because the root commutes
    with its relator."""
    if not 1 <= p <= len(seq) + 1:
        raise InapplicableMoveError(f"insert position {p} out of range")
    r = seq.presentation.relator(relator_index)
    if r.is_empty:
        raise InapplicableMoveError("cannot insert a trivial relator pair")
    rho = root(r).root
    first = IdentityTerm(conjugator, relator_index, sign)
    second = IdentityTerm(conjugator * rho**power, relator_index, -sign)
    terms = seq.terms[: p - 1] + (first, second) + seq.terms[p - 1 :]
    return IdentitySequence(seq.presentation, terms)


# ---------------------------------------------------------------------------
# The word <-> identity correspondence
# ---------------------------------------------------------------------------


def _require_kernel(P: Presentation, w: MixedWord):
    if not in_pair_kernel(P, w):
        raise ValueError("word is not in the kernel of the pair homomorphism")


# (P, w, d-syllables, t-slots) of the last word _kernel_parts checked
_last_split = (None, None, (), ())


def _kernel_parts(P: Presentation, w: MixedWord):
    """Check that w is a kernel word of P; return its d-syllables and
    t-slots as fresh lists, which the transforms splice in place.

    The split of the last word checked is kept, so the candidate moves
    tried at one search state share one kernel check and one
    decomposition.  Words and presentations are immutable and the kept
    split is matched by identity, so it never goes stale."""
    global _last_split
    last_P, last_w, syl, slots = _last_split
    if last_w is not w or last_P is not P:
        _require_kernel(P, w)
        s = decompose(w)
        syl, slots = s.d_syllables, s.t_letters
        _last_split = (P, w, syl, slots)
    return list(syl), list(slots)


def associated_identity(P: Presentation, w: MixedWord) -> IdentitySequence:
    """Terms (cap(u_1..u_k), i_k, e_k) read off the syllable decomposition.

    The d-prefix products land the conjugators, the t-letters land the
    relator indices and signs; the kernel condition makes the result an
    identity.
    """
    syl, slots = _kernel_parts(P, w)
    terms = []
    prefix = Word(P.rank)
    for k, (i, sign) in enumerate(slots):
        prefix = prefix * syl[k]
        terms.append(IdentityTerm(prefix, i, sign))
    return IdentitySequence(P, tuple(terms))


@dataclass(frozen=True, slots=True)
class InsertionData:
    """Parameters of a word-level insertion: splice the fragment
    alpha t_i^sign rho^power t_i^-sign rho^-power alpha^-1 (rho the root
    of the i-th d-relator) at the start of syllable ``syllable_index``."""

    syllable_index: int
    relator_index: int
    sign: int
    power: int
    alpha: MixedWord

    def __post_init__(self):
        if self.syllable_index < 1:
            raise InapplicableMoveError(
                f"syllable index {self.syllable_index} out of range"
            )
        if self.relator_index < 1:
            raise IndexError(f"relator index {self.relator_index} out of range")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {self.sign}")
        if not isinstance(self.alpha, MixedWord) or not self.alpha.is_d_only():
            raise AlphabetError("alpha must be a d-only MixedWord")


@dataclass(frozen=True, slots=True)
class TransformResult:
    """A freely reduced transformed word plus the Peiffer deletions its
    reduction forced, as successive 1-based positions in the expected
    post-move identity."""

    word: MixedWord
    forced_deletions: tuple


def _assemble_tracked(n, m, syllables, slots) -> TransformResult:
    """Reduce the interleaving u_1 t^{e_1} u_2 ... while tagging t-letters
    by their slot number; returns the word and its forced deletions.

    When two tagged t-letters cancel, everything between them has already
    cancelled, so the matching identity terms are adjacent (after earlier
    forced deletions) and share a conjugator: a valid Peiffer deletion.
    The syllables are reduced rank-n Words and the slots name relators of
    the presentation, so the stack-reduced letters need no second check.
    """
    stack = []  # (signed letter, slot tag or None)
    cancelled = []
    slot_number = 0

    def push_d(letters):
        for x in letters:
            if stack and stack[-1][0] == -x:
                stack.pop()
            else:
                stack.append((x, None))

    for k, (i, sign) in enumerate(slots):
        push_d(syllables[k].letters)
        slot_number += 1
        x = (n + i) * sign
        if stack and stack[-1][0] == -x:
            top = stack.pop()
            if top[1] is None:
                raise InconsistencyError("a t-letter cancelled against a d-letter")
            cancelled.append((top[1], slot_number))
        else:
            stack.append((x, slot_number))
    push_d(syllables[-1].letters)

    word = MixedWord._trusted(n, m, tuple([x for x, _ in stack]))
    live = list(range(1, slot_number + 1))
    forced = []
    for a, b in cancelled:
        ia = live.index(a)
        if live[ia + 1 : ia + 2] != [b]:
            raise InconsistencyError("cancelled t-letter pairs do not nest")
        forced.append(ia + 1)
        del live[ia : ia + 2]
    if live != [tag for _, tag in stack if tag is not None]:
        raise InconsistencyError("forced deletions do not match the reduced word")
    return TransformResult(word, tuple(forced))


def _check_slot_pair(t_count: int, p: int):
    if not 1 <= p <= t_count - 1:
        raise InapplicableMoveError(
            f"position {p} needs two adjacent t-letters in a word with {t_count}"
        )


# The private transforms below act on a kernel word w given its syllables
# and t-slots as fresh lists from _kernel_parts, which they splice in place.


def _exchange(P, w, syl, slots, p):
    _check_slot_pair(len(slots), p)
    i2, e2 = slots[p]
    r = P.relator(i2)
    u_p, u_p1, u_p2 = syl[p - 1], syl[p], syl[p + 1]
    syl[p - 1 : p + 2] = [u_p * u_p1, r ** (-e2) * u_p1.inverse(), u_p1 * r**e2 * u_p2]
    slots[p - 1], slots[p] = slots[p], slots[p - 1]
    return _assemble_tracked(w.n, w.m, syl, slots)


def _inverse_exchange(P, w, syl, slots, p):
    _check_slot_pair(len(slots), p)
    i1, e1 = slots[p - 1]
    r = P.relator(i1)
    u_p, u_p1, u_p2 = syl[p - 1], syl[p], syl[p + 1]
    syl[p - 1 : p + 2] = [u_p * r**e1 * u_p1, u_p1.inverse() * r ** (-e1), u_p1 * u_p2]
    slots[p - 1], slots[p] = slots[p], slots[p - 1]
    return _assemble_tracked(w.n, w.m, syl, slots)


def _deletion_blocker(P: Presentation, syl, slots, p: int):
    """None if the identity-level pair at p cancels, else a reason."""
    i1, e1 = slots[p - 1]
    i2, e2 = slots[p]
    u_mid = syl[p]
    prod = P.relator(i1) ** e1 * u_mid * P.relator(i2) ** e2 * u_mid.inverse()
    if not prod.is_empty:
        return f"terms at {p}, {p + 1} do not cancel"
    return None


def _delete(P, w, syl, slots, p):
    _check_slot_pair(len(slots), p)
    blocker = _deletion_blocker(P, syl, slots, p)
    if blocker is not None:
        raise InapplicableMoveError(blocker)
    i1, e1 = slots[p - 1]
    i2, e2 = slots[p]
    if i1 != i2 or e1 != -e2:
        raise InconsistencyError(
            f"cancelling t-pair carries ({i1},{e1}) and ({i2},{e2}); "
            "the presentation cannot be concise"
        )
    r = P.relator(i2)
    if r.is_empty:
        raise InconsistencyError(f"relator {i2} is trivial")
    u_mid = syl[p]
    if not u_mid.is_empty:
        rd = root(u_mid)
        rho = root(r).root
        if rd.root != rho and rd.root != rho.inverse():
            raise InconsistencyError(
                "middle syllable is not a power of the relator root"
            )
    syl[p - 1 : p + 2] = [syl[p - 1] * u_mid * syl[p + 1]]
    del slots[p - 1 : p + 1]
    return _assemble_tracked(w.n, w.m, syl, slots)


def _insert(P, w, syl, slots, data):
    p = data.syllable_index
    if p > len(syl):
        raise InapplicableMoveError(
            f"syllable index {p} out of range for {len(syl)} syllables"
        )
    if not 1 <= data.relator_index <= P.num_relators:
        raise IndexError(f"relator index {data.relator_index} out of range")
    r = P.relator(data.relator_index)
    if r.is_empty:
        raise InapplicableMoveError("cannot insert a trivial relator pair")
    if (data.alpha.n, data.alpha.m) != (w.n, w.m):
        raise AlphabetError("alpha over the wrong alphabet")
    rho = root(r).root
    a = capitalize(data.alpha)
    k = data.power
    syl[p - 1 : p] = [a, rho**k, rho**-k * a.inverse() * syl[p - 1]]
    slots[p - 1 : p - 1] = [
        (data.relator_index, data.sign),
        (data.relator_index, -data.sign),
    ]
    return _assemble_tracked(w.n, w.m, syl, slots)


def exchange_tracked(P: Presentation, w: MixedWord, p: int) -> TransformResult:
    """Word-level exchange at p: swap the t-letters and rewrite the three
    surrounding syllables so the associated identity changes exactly by
    peiffer_exchange (then any forced deletions)."""
    return _exchange(P, w, *_kernel_parts(P, w), p)


def inverse_exchange_tracked(P: Presentation, w: MixedWord, p: int) -> TransformResult:
    """Word-level counterpart of peiffer_inverse_exchange at p."""
    return _inverse_exchange(P, w, *_kernel_parts(P, w), p)


def deletion_tracked(P: Presentation, w: MixedWord, p: int) -> TransformResult:
    """Word-level deletion at p: drop both t-letters and merge the three
    syllables around them.

    The cancelling pair forces i_p = i_{p+1}, opposite signs, and a middle
    syllable lying in the cyclic subgroup generated by the relator root;
    violations mean the presentation is not concise and are surfaced."""
    return _delete(P, w, *_kernel_parts(P, w), p)


def insertion_tracked(
    P: Presentation, w: MixedWord, data: InsertionData
) -> TransformResult:
    """Word-level insertion: splice the t-pair fragment into syllable p.

    The associated identity changes by peiffer_insert at p with conjugator
    cap(u_1..u_{p-1}) * cap(alpha); a deletion at the new position recovers
    a word freely equal to w."""
    return _insert(P, w, *_kernel_parts(P, w), data)


# ---------------------------------------------------------------------------
# Reduction engine
# ---------------------------------------------------------------------------

_MOVE_KINDS = ("exchange", "inv-exchange", "delete", "insert")


@dataclass(frozen=True, slots=True)
class Move:
    """One script step; ``forced`` marks deletions that bookkeep a t-pair
    cancellation and leave the word unchanged (advisory, not serialized)."""

    kind: str
    position: int
    data: InsertionData | None = None
    forced: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.kind not in _MOVE_KINDS:
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.kind == "insert" and self.data is None:
            raise ValueError("insert moves need InsertionData")


@dataclass(frozen=True, slots=True)
class ReductionBudget:
    max_moves: int = 10_000
    max_insertions: int = 0
    max_frontier: int = 50_000
    max_word_len: int | None = None


@dataclass(frozen=True, slots=True)
class ReductionCertificate:
    """Aligned script, word trail, and identity trail, ending empty."""

    moves: tuple
    words: tuple
    identities: tuple

    def __post_init__(self):
        if len(self.words) != len(self.moves) + 1:
            raise ValueError("word trail must have one entry per move plus the start")
        if len(self.identities) != len(self.words):
            raise ValueError("identity trail must align with the word trail")


def _identity_priority(w: MixedWord):
    """(t-letter count, total reduced d-prefix length) in one pass."""
    stack = []
    l = 0
    total = 0
    for x in w.letters:
        if abs(x) <= w.n:
            if stack and stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
        else:
            l += 1
            total += len(stack)
    return l, total


def _prefix_conjugator(w: MixedWord, count: int) -> Word:
    """cap(u_1 ... u_count) for the syllable decomposition of w."""
    s = decompose(w)
    out = Word(w.n)
    for k in range(count):
        out = out * s.d_syllables[k]
    return out


def _apply_tracked(P: Presentation, w: MixedWord, move: Move) -> TransformResult:
    """Apply a move through its checked entry point; the one dispatch for
    the search, the certificate builder and the verifier."""
    if move.kind == "exchange":
        return exchange_tracked(P, w, move.position)
    if move.kind == "inv-exchange":
        return inverse_exchange_tracked(P, w, move.position)
    if move.kind == "delete":
        return deletion_tracked(P, w, move.position)
    return insertion_tracked(P, w, move.data)


def _replay_identity(
    P: Presentation, seq: IdentitySequence, move: Move, word_before: MixedWord
) -> IdentitySequence:
    if move.kind == "exchange":
        return peiffer_exchange(seq, move.position)
    if move.kind == "inv-exchange":
        return peiffer_inverse_exchange(seq, move.position)
    if move.kind == "delete":
        return peiffer_delete(seq, move.position)
    data = move.data
    v = _prefix_conjugator(word_before, data.syllable_index - 1) * capitalize(data.alpha)
    return peiffer_insert(
        seq, data.syllable_index, data.relator_index, data.sign, v, data.power
    )


def _candidate_moves(P: Presentation, syl, slots):
    """Deterministic deletion/exchange candidates at one word, given its
    syllables and t-slots."""
    l = len(slots)
    out = []
    for p in range(1, l):
        if _deletion_blocker(P, syl, slots, p) is None:
            out.append(Move("delete", p))
    for p in range(1, l):
        out.append(Move("exchange", p))
    for p in range(1, l):
        out.append(Move("inv-exchange", p))
    return out


def _insertion_moves(P: Presentation, w: MixedWord, l: int):
    """A small deterministic insertion catalog: single-letter or empty
    alpha, power +-1, every slot, relator, and sign (l t-letters in w)."""
    n, m = w.n, w.m
    alphas = [MixedWord(n, m)] + [MixedWord(n, m, (x,)) for x in letter_order(n)]
    out = []
    for p in range(1, l + 2):
        for i in range(1, m + 1):
            if P.relator(i).is_empty:
                continue
            for sign in (1, -1):
                for k in (1, -1):
                    for alpha in alphas:
                        out.append(
                            Move("insert", p, InsertionData(p, i, sign, k, alpha))
                        )
    return out


def _build_certificate(P, start, edges):
    moves = []
    words = [start]
    idents = [associated_identity(P, start)]
    cur = start
    for move, forced in edges:
        res = _apply_tracked(P, cur, move)
        if res.forced_deletions != forced:
            raise InconsistencyError(
                f"{move.kind} {move.position} forces deletions "
                f"{res.forced_deletions}, the search recorded {forced}"
            )
        moves.append(move)
        idents.append(_replay_identity(P, idents[-1], move, cur))
        words.append(res.word)
        for q in forced:
            moves.append(Move("delete", q, forced=True))
            idents.append(peiffer_delete(idents[-1], q))
            words.append(res.word)
        cur = res.word
    if not cur.is_empty or idents[-1].terms:
        raise InconsistencyError("certificate replay does not end empty")
    return ReductionCertificate(tuple(moves), tuple(words), tuple(idents))


def reduce_to_empty(
    P: Presentation, w: MixedWord, budget: ReductionBudget | None = None
):
    """Search for a Peiffer route from a kernel word to the empty word.

    Best-first on (t-letter count, total conjugator length); deletions are
    tried before exchanges, and insertions (rationed by max_insertions)
    are deferred behind everything cheaper.  Returns a
    ReductionCertificate, or None when the budget runs out.
    """
    if budget is None:
        budget = ReductionBudget()
    _kernel_parts(P, w)  # the first pop finds this split kept
    if w.is_empty:
        return _build_certificate(P, w, [])

    max_word_len = budget.max_word_len
    if max_word_len is None:
        max_word_len = max(24, 2 * len(w) + 8)

    counter = itertools.count()
    l0, c0 = _identity_priority(w)
    start_key = (w.letters, 0)
    # heap entries: (l, conj_total, seq, kind, word, insertions_used)
    frontier = [(l0, c0, next(counter), "state", w, 0)]
    # keyed by (letters, insertions used); each entry is written once, so
    # parent pointers always form a tree back to the start
    parents = {start_key: None}
    best_insertions = {w.letters: 0}
    pops = 0

    def record_child(word, ins_used, parent_key, move, forced):
        seen = best_insertions.get(word.letters)
        if seen is not None and seen <= ins_used:
            return None
        best_insertions[word.letters] = ins_used
        key = (word.letters, ins_used)
        parents[key] = (parent_key, move, forced)
        return key

    def edges_to(key):
        out = []
        while parents[key] is not None:
            parent_key, move, forced = parents[key]
            out.append((move, forced))
            key = parent_key
        out.reverse()
        return out

    while frontier and pops < budget.max_moves:
        _, _, _, kind, word, ins_used = heapq.heappop(frontier)
        pops += 1
        key = (word.letters, ins_used)
        if best_insertions.get(word.letters, ins_used) < ins_used:
            continue  # superseded by a cheaper route

        # one kernel check and one split per state: the checked entry
        # points the candidates go through find this split kept
        syl, slots = _kernel_parts(P, word)
        if kind == "insertions":
            candidates = _insertion_moves(P, word, len(slots))
        else:
            candidates = _candidate_moves(P, syl, slots)
            if ins_used < budget.max_insertions:
                l, c = _identity_priority(word)
                heapq.heappush(
                    frontier, (l + 2, c, next(counter), "insertions", word, ins_used)
                )

        for move in candidates:
            res = _apply_tracked(P, word, move)
            child = res.word
            if len(child) > max_word_len:
                continue
            child_ins = ins_used + (1 if move.kind == "insert" else 0)
            child_key = record_child(child, child_ins, key, move, res.forced_deletions)
            if child_key is None:
                continue
            if child.is_empty:
                return _build_certificate(P, w, edges_to(child_key))
            if len(frontier) < budget.max_frontier:
                l, c = _identity_priority(child)
                heapq.heappush(
                    frontier, (l, c, next(counter), "state", child, child_ins)
                )
    return None


def verify_certificate(P: Presentation, cert: ReductionCertificate) -> bool:
    """Replay the script; check word and identity trails line up and end
    empty.  Forced deletions are recognized by an unchanged word."""
    try:
        words, moves, idents = cert.words, cert.moves, cert.identities
        if not words or not words[-1].is_empty or idents[-1].terms:
            return False
        # kernel membership of the trail: each move's checked entry point
        # checks the word it starts from, a forced deletion must repeat the
        # word before it, and the last word is empty
        if idents[0] != associated_identity(P, words[0]):
            return False
        pending = []
        for k, move in enumerate(moves, start=1):
            prev_w, prev_i = words[k - 1], idents[k - 1]
            if pending:
                if move.kind != "delete" or move.position != pending[0]:
                    return False
                if words[k] != prev_w:
                    return False
                if idents[k] != peiffer_delete(prev_i, move.position):
                    return False
                pending.pop(0)
                continue
            res = _apply_tracked(P, prev_w, move)
            if words[k] != res.word:
                return False
            if idents[k] != _replay_identity(P, prev_i, move, prev_w):
                return False
            pending = list(res.forced_deletions)
        return not pending
    except (ValueError, IndexError, InconsistencyError):
        return False


# ---------------------------------------------------------------------------
# Certificate text format: script lines, then the word trail
# ---------------------------------------------------------------------------


def format_certificate(cert: ReductionCertificate) -> str:
    lines = []
    for move in cert.moves:
        if move.kind == "insert":
            d = move.data
            lines.append(
                f"insert {d.syllable_index} {d.relator_index} {d.sign} "
                f"{d.power} {format_mixed_word(d.alpha)}"
            )
        else:
            lines.append(f"{move.kind} {move.position}")
    for word in cert.words:
        lines.append(format_mixed_word(word))
    return "\n".join(lines) + "\n"


def parse_certificate(P: Presentation, text: str) -> ReductionCertificate:
    """Parse a script plus word trail; the identity trail is rebuilt by
    replaying the moves."""
    n, m = P.rank, P.num_relators
    moves = []
    words = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head = line.split()[0]
        if head in _MOVE_KINDS:
            if words:
                raise ParseError(f"line {lineno}: script line after the word trail")
            parts = line.split(maxsplit=5)
            try:
                if head == "insert":
                    p, i, sign, k = (int(v) for v in parts[1:5])
                    alpha = parse_mixed_word(parts[5] if len(parts) > 5 else "1", n, m)
                    moves.append(Move("insert", p, InsertionData(p, i, sign, k, alpha)))
                else:
                    (p,) = (int(v) for v in parts[1:])
                    moves.append(Move(head, p))
            except (ValueError, IndexError) as exc:
                raise ParseError(f"line {lineno}: bad move: {exc}") from exc
        else:
            words.append(parse_mixed_word(line, n, m))
    if len(words) != len(moves) + 1:
        raise ParseError(
            f"word trail has {len(words)} entries for {len(moves)} moves"
        )
    idents = [associated_identity(P, words[0])]
    try:
        for k, move in enumerate(moves):
            idents.append(_replay_identity(P, idents[-1], move, words[k]))
    except (ValueError, IndexError, InconsistencyError) as exc:
        raise ParseError(f"certificate does not replay: {exc}") from exc
    return ReductionCertificate(tuple(moves), tuple(words), tuple(idents))


def step_in_relator_normal_closure(
    P: Presentation,
    w_before: MixedWord,
    w_after: MixedWord,
    max_d_len: int = 2,
    budget: ClosureBudget | None = None,
) -> Verdict:
    """Bounded check that a transform step stayed in the normal closure of
    the truncated relator family, certified in the mixed free group.

    The full family is infinite, so EQUAL is a proof and UNKNOWN says
    nothing; this is an optional cross-check, not part of the main path.
    """
    family = relator_family(P, max_d_len)
    Q = Presentation(w_before.rank, tuple(f.as_word() for f in family))
    target = (w_before.inverse() * w_after).as_word()
    return normal_closure_contains(Q, target, budget)
