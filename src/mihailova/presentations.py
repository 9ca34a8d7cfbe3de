"""Finite presentations and a certified bounded word problem.

``normal_closure_contains`` is a semidecision procedure: a positive answer
carries a factorization of the queried word into conjugated relators
U * R_i^sign * U^-1, given as ``IdentityTerm``s, a negative answer carries
an exact abelianized obstruction, and everything else is Unknown.  Both
kinds of evidence are independently checkable.  The same terms, read as a
sequence multiplying to 1, are the identities among relations that the
Peiffer moves rewrite.

The search rewrites the word toward the empty word by Dehn's step: a subword
that matches a prefix of a cyclic permutation of a relator or its inverse is
replaced by the inverse of the rest of that permutation.  Each rewrite
splits off one conjugated relator, on the left or on the right of the
rewritten word, whichever needs the shorter conjugator; rewrites whose
conjugator exceeds the budget are not made.  Only the relators that match
the word are tried, so each state has at most one child per position and
cyclic permutation, and the visited set is bounded by the step budget.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from .words import (
    ParseError,
    Word,
    abelianize,
    are_conjugate,
    concat_reduced,
    cyclic_reduce,
    x_alphabet,
)


@dataclass(frozen=True, slots=True)
class Presentation:
    """Group presentation with rank-many generators and a relator list.

    Relators are reduced at construction but may be trivial or redundant;
    ``concise_refinement`` produces the cleaned-up equivalent presentation.
    Relator indices are 1-based throughout.
    """

    rank: int
    relators: tuple[Word, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be positive, got {self.rank}")
        rels = tuple(self.relators)
        for r in rels:
            if not isinstance(r, Word):
                raise TypeError("relators must be Words")
            if r.rank != self.rank:
                raise ValueError(
                    f"relator rank {r.rank} does not match presentation rank {self.rank}"
                )
        object.__setattr__(self, "relators", rels)

    @property
    def num_relators(self) -> int:
        return len(self.relators)

    def relator(self, i: int) -> Word:
        """The i-th relator, 1-based."""
        if not 1 <= i <= len(self.relators):
            raise IndexError(f"relator index {i} out of range")
        return self.relators[i - 1]

    def word(self, *letters: int) -> Word:
        return Word(self.rank, letters)


def from_raw(rank: int, raw_relators: Iterable[Iterable[int]]) -> Presentation:
    """Build a presentation from raw letter sequences (reduced on entry)."""
    return Presentation(rank, tuple(Word(rank, tuple(r)) for r in raw_relators))


def is_concise(P: Presentation) -> bool:
    """True iff all relators are nontrivial and pairwise non-conjugate,
    also counting conjugacy against inverses."""
    rels = P.relators
    if any(r.is_empty for r in rels):
        return False
    for i in range(len(rels)):
        for j in range(i + 1, len(rels)):
            if are_conjugate(rels[i], rels[j]) or are_conjugate(
                rels[i], rels[j].inverse()
            ):
                return False
    return True


def concise_refinement(P: Presentation) -> Presentation:
    """Drop trivial relators and conjugacy-or-inverse duplicates.

    Keeps the first occurrence of each class, preserves order, presents the
    same group, and is idempotent.
    """
    kept: list[Word] = []
    for r in P.relators:
        if r.is_empty:
            continue
        if any(
            are_conjugate(r, k) or are_conjugate(r, k.inverse()) for k in kept
        ):
            continue
        kept.append(r)
    return Presentation(P.rank, tuple(kept))


def check_strengthened_conciseness(P: Presentation) -> list[str]:
    """Warnings for relators conjugate to their own inverse.

    The deletion-forcing argument behind the syllable machinery needs this
    property on top of conciseness; it is reported, never assumed.
    """
    warnings = []
    for i, r in enumerate(P.relators, start=1):
        if not r.is_empty and are_conjugate(r, r.inverse()):
            warnings.append(f"relator {i} is conjugate to its own inverse")
    return warnings


# ---------------------------------------------------------------------------
# Exact integer lattice membership (for the negative direction).
# ---------------------------------------------------------------------------


def in_integer_span(vectors: list[tuple[int, ...]], target: tuple[int, ...]) -> bool:
    """Is target in the Z-span of the given integer vectors?  Exact."""
    n = len(target)
    work = [list(v) for v in vectors if any(v)]
    pivots: list[tuple[int, list[int]]] = []
    for col in range(n):
        nz = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not nz:
            work = rest
            continue
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[col]))
            r0 = nz[0]
            reduced = [r0]
            for r in nz[1:]:
                q = r[col] // r0[col]
                if q:
                    for k in range(n):
                        r[k] -= q * r0[k]
                if r[col] != 0:
                    reduced.append(r)
                elif any(r):
                    rest.append(r)
            nz = reduced
        pivot = nz[0]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        pivots.append((col, pivot))
        work = rest
    t = list(target)
    for col, row in pivots:
        if t[col] % row[col]:
            return False
        q = t[col] // row[col]
        if q:
            for k in range(n):
                t[k] -= q * row[k]
    return not any(t)


# ---------------------------------------------------------------------------
# Verdicts and the bounded search.
# ---------------------------------------------------------------------------


class Outcome(Enum):
    EQUAL = "equal-in-H"
    NOT_EQUAL = "not-equal-in-H"
    UNKNOWN = "unknown"


class InconsistencyError(RuntimeError):
    """A structural assumption or a certificate self-check failed; usually
    the presentation is not concise, so the deletion forcing argument does
    not hold."""


@dataclass(frozen=True, slots=True)
class IdentityTerm:
    """One conjugated relator U * R_i^sign * U^-1: a factor of a membership
    certificate, or a term of an identity among relations."""

    conjugator: Word
    relator_index: int
    sign: int

    def __post_init__(self):
        if not isinstance(self.conjugator, Word):
            raise TypeError("conjugator must be a Word")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {self.sign}")
        if self.relator_index < 1:
            raise IndexError(f"relator index {self.relator_index} out of range")

    def value(self, P: Presentation) -> Word:
        r = P.relator(self.relator_index)
        if self.sign < 0:
            r = r.inverse()
        return self.conjugator * r * self.conjugator.inverse()


@dataclass(frozen=True, slots=True)
class Verdict:
    outcome: Outcome
    certificate: tuple[IdentityTerm, ...] | None = None
    obstruction: tuple[int, ...] | None = None

    @property
    def is_equal(self) -> bool:
        return self.outcome is Outcome.EQUAL

    @property
    def is_not_equal(self) -> bool:
        return self.outcome is Outcome.NOT_EQUAL

    @property
    def is_unknown(self) -> bool:
        return self.outcome is Outcome.UNKNOWN


def certificate_product(P: Presentation, factors: Iterable[IdentityTerm]) -> Word:
    out = Word(P.rank)
    for f in factors:
        out = out * f.value(P)
    return out


@dataclass(frozen=True, slots=True)
class ClosureBudget:
    """Bounds for the normal-closure search.

    max_steps bounds the words the search pops, max_conjugator_len the
    conjugators in its certificate, and max_word_len the words it keeps;
    max_word_len None means automatic: twice the query length plus slack.
    """

    max_steps: int = 10_000
    max_conjugator_len: int = 4
    max_word_len: int | None = None


def _inverse(letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([-x for x in reversed(letters)])


def _reduced_len(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Length of the reduced product of two reduced letter tuples."""
    k = 0
    n = min(len(a), len(b))
    while k < n and a[-1 - k] == -b[k]:
        k += 1
    return len(a) + len(b) - 2 * k


def _cyclic_relators(
    P: Presentation,
) -> dict[int, list[tuple[tuple[int, ...], int, int, tuple[int, ...]]]]:
    """The distinct cyclic permutations c = p^-1 R_i^sign p of every relator
    and its inverse, indexed by first letter: letter -> [(c, i, sign, p^-1)].

    p is the shorter of the two rotations that give c.  A tuple c reached
    twice keeps its first (i, sign, p), in the order relator index, sign +1
    first, rotation offset.
    """
    index: dict[int, list[tuple[tuple[int, ...], int, int, tuple[int, ...]]]] = {}
    seen = set()
    for i, r in enumerate(P.relators, start=1):
        # R^sign = u core^sign u^-1 and c = q^-1 core^sign q, so p = u q; both
        # q = core^sign[:k] and q = core^sign[k:]^-1 rotate by k, and the
        # shorter one keeps the certificate's conjugators short
        core, u = cyclic_reduce(r)
        u_inv = u.inverse().letters
        for sign, lts in ((1, core.letters), (-1, core.inverse().letters)):
            for k in range(len(lts)):
                c = lts[k:] + lts[:k]
                if c not in seen:
                    seen.add(c)
                    q_inv = _inverse(lts[:k]) if 2 * k <= len(lts) else lts[k:]
                    index.setdefault(c[0], []).append((c, i, sign, q_inv + u_inv))
    return index


def normal_closure_contains(
    P: Presentation, w: Word, budget: ClosureBudget | None = None
) -> Verdict:
    """Does w lie in the normal closure of the relators?

    EQUAL comes with a factor certificate whose product is freely equal to w.
    NOT_EQUAL means abelianize(w) lies outside the integer span of the
    relator abelianizations (exact).  Everything else is UNKNOWN.

    The search rewrites subwords (Dehn's step; Lyndon-Schupp, Combinatorial
    Group Theory, Ch. V).  Let c = s t run over the distinct cyclic
    permutations p^-1 R_i^sign p of the relators and their inverses.  Where
    a popped word v = a s b matches the longest prefix s of c that it can,
    the child is a t^-1 b, freely reduced; a shorter matching prefix, or a
    match that extends further left, gives the same child and the same
    factor.  The rewrite splits off one factor z R_i^sign z^-1, either as
    v = factor * child with z = a p^-1, or as v = child * factor with
    z = b^-1 t p^-1 or z = b^-1 s^-1 p^-1.  The shortest z of the three is
    taken, in that order on a tie, and a rewrite whose shortest z is longer
    than ``max_conjugator_len`` is not made.  The certificate is the left
    factors in step order, then the right factors in reverse step order.

    States are reduced words no longer than ``max_word_len``.  The frontier
    pops the shortest word first, breaking ties first in first out, and
    ``max_steps`` bounds the pops, so the verdict and certificate are
    deterministic for a fixed budget.  A pop adds at most one child per
    position and cyclic permutation, so the visited set holds at most
    1 + max_steps * L * K words, L the longest popped word and K the largest
    number of cyclic permutations that begin with one letter.
    """
    if budget is None:
        budget = ClosureBudget()
    if w.rank != P.rank:
        raise ValueError("word rank does not match presentation rank")
    if w.is_empty:
        return Verdict(Outcome.EQUAL, certificate=())
    if not in_integer_span([abelianize(r) for r in P.relators], abelianize(w)):
        return Verdict(Outcome.NOT_EQUAL, obstruction=abelianize(w))

    max_word_len = budget.max_word_len
    if max_word_len is None:
        max_word_len = max(16, 2 * len(w) + 4)
    max_conj = budget.max_conjugator_len
    rewrites = _cyclic_relators(P)

    start = w.letters
    # child -> (parent, factor on the left?, z without its p^-1, p^-1, i, sign);
    # also the visited set
    parent: dict[tuple[int, ...], tuple | None] = {start: None}
    heap: list[tuple[int, int, tuple[int, ...]]] = [(len(start), 0, start)]
    counter = 1
    steps = 0

    def build_certificate(endpoint: tuple[int, ...]) -> tuple[IdentityTerm, ...]:
        left: list[IdentityTerm] = []
        right: list[IdentityTerm] = []
        v = endpoint
        while parent[v] is not None:
            v, on_left, z, p_inv, i, sign = parent[v]
            conj = Word._trusted(P.rank, z) * Word._trusted(P.rank, p_inv)
            (left if on_left else right).append(IdentityTerm(conj, i, sign))
        factors = tuple(reversed(left)) + tuple(right)
        if certificate_product(P, factors) != w:
            raise InconsistencyError("certificate does not multiply out to the query")
        return factors

    while heap and steps < budget.max_steps:
        _, _, v = heapq.heappop(heap)
        steps += 1
        n = len(v)
        for j in range(n):
            for c, i, sign, p_inv in rewrites.get(v[j], ()):
                if j and v[j - 1] == c[-1]:
                    continue  # the match extends to the left: found at j - 1
                m = 1
                while m < len(c) and j + m < n and v[j + m] == c[m]:
                    m += 1
                # v = a s b with |a| = j, s = c[:m], t = c[m:]; no z below
                # is shorter than this, so skip before slicing
                if min(j, n - j - m) - len(p_inv) > max_conj:
                    continue
                a, b_inv = v[:j], _inverse(v[j + m:])
                # b^-1 t is reduced because the match is longest, and
                # b^-1 s^-1 = (v[j:])^-1
                zs = (a, b_inv + c[m:], _inverse(v[j:]))
                z_lens = [_reduced_len(z, p_inv) for z in zs]
                best = z_lens.index(min(z_lens))
                if z_lens[best] > max_conj:
                    continue
                on_left, z = best == 0, zs[best]
                child = concat_reduced(a, _inverse(c[m:]) + v[j + m:])
                if len(child) > max_word_len or child in parent:
                    continue
                parent[child] = (v, on_left, z, p_inv, i, sign)
                if not child:
                    return Verdict(Outcome.EQUAL, certificate=build_certificate(child))
                heapq.heappush(heap, (len(child), counter, child))
                counter += 1
    return Verdict(Outcome.UNKNOWN)


def equal_in_group(
    P: Presentation,
    w1: Word,
    w2: Word,
    budget: ClosureBudget | None = None,
    oracle: Callable[[Word, Word], Verdict] | None = None,
) -> Verdict:
    """Are w1 and w2 equal in the presented group?

    Delegates to ``normal_closure_contains`` on w1 * w2^-1.  An exact
    external oracle (for groups where one is known) may be substituted.
    """
    if oracle is not None:
        return oracle(w1, w2)
    return normal_closure_contains(P, w1 * w2.inverse(), budget)


# ---------------------------------------------------------------------------
# File format: `rank <n>` then `relator <word>` lines; `#` comments.
# ---------------------------------------------------------------------------


def parse_presentation(text: str) -> Presentation:
    rank: int | None = None
    relators: list[Word] = []
    alpha = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(None, 1)
        keyword = fields[0]
        rest = fields[1] if len(fields) > 1 else ""
        if keyword == "rank":
            if rank is not None:
                raise ParseError(f"line {ln}: duplicate rank directive")
            try:
                rank = int(rest)
            except ValueError:
                raise ParseError(f"line {ln}: bad rank '{rest}'") from None
            if rank < 1:
                raise ParseError(f"line {ln}: rank must be positive")
            alpha = x_alphabet(rank)
        elif keyword == "relator":
            if alpha is None:
                raise ParseError(f"line {ln}: relator before rank directive")
            try:
                relators.append(alpha.parse(rest))
            except ParseError as e:
                raise ParseError(f"line {ln}: {e}") from None
        else:
            raise ParseError(f"line {ln}: unknown directive '{keyword}'")
    if rank is None:
        raise ParseError("missing rank directive")
    return Presentation(rank, tuple(relators))


def format_presentation(P: Presentation) -> str:
    alpha = x_alphabet(P.rank)
    lines = [f"rank {P.rank}"]
    lines.extend(f"relator {alpha.format(r)}" for r in P.relators)
    return "\n".join(lines) + "\n"
