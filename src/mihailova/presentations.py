"""Finite presentations and a certified bounded word problem.

``normal_closure_contains`` is a semidecision procedure: a positive answer
carries a factorization of the queried word into conjugated relators
U * R_i^sign * U^-1, given as ``IdentityTerm``s, a negative answer carries
an exact abelianized obstruction, and everything else is Unknown.  Both
kinds of evidence are independently checkable.  The same terms, read as a
sequence multiplying to 1, are the identities among relations that the
Peiffer moves rewrite.
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
    iter_reduced_tuples,
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

    max_word_len None means automatic: twice the query length plus slack.
    """

    max_steps: int = 10_000
    max_conjugator_len: int = 4
    max_word_len: int | None = None


# deterministic safety cap on the frontier; not part of the public budget
_FRONTIER_CAP = 200_000


def _conjugated_relator_moves(
    P: Presentation, max_conjugator_len: int
) -> list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
    """All (relator index, sign, conjugator, factor letters), in the pinned
    expansion order: relator index, then sign (+1 first), then conjugator in
    length-lex order."""
    moves = []
    conjugators = list(iter_reduced_tuples(P.rank, max_conjugator_len))
    for i, r in enumerate(P.relators, start=1):
        if r.is_empty:
            continue
        for sign in (1, -1):
            rel = r.letters if sign > 0 else r.inverse().letters
            for z in conjugators:
                zinv = tuple(-x for x in reversed(z))
                f = concat_reduced(concat_reduced(z, rel), zinv)
                moves.append((i, sign, z, f))
    return moves


def normal_closure_contains(
    P: Presentation, w: Word, budget: ClosureBudget | None = None
) -> Verdict:
    """Does w lie in the normal closure of the relators?

    EQUAL comes with a factor certificate whose product is freely equal to w.
    NOT_EQUAL means abelianize(w) lies outside the integer span of the
    relator abelianizations (exact).  Everything else is UNKNOWN.

    The search right-multiplies by conjugated relators with bounded
    conjugator length, canonicalizes states by their reduced word, and pops
    the frontier shortest-word-first with FIFO tie-breaking, so the verdict
    and certificate are deterministic for a fixed budget.
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
    moves = _conjugated_relator_moves(P, budget.max_conjugator_len)

    start = w.letters
    heap: list[tuple[int, int, tuple[int, ...]]] = [(len(start), 0, start)]
    parent: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, int, tuple[int, ...]]]] = {}
    seen = {start}
    counter = 1
    steps = 0

    def build_certificate(endpoint: tuple[int, ...]) -> tuple[IdentityTerm, ...]:
        tags = []
        v = endpoint
        while v != start:
            v, tag = parent[v]
            tags.append(tag)
        # w * f_1 * ... * f_k = 1, so w = f_k^-1 * ... * f_1^-1
        factors = tuple(
            IdentityTerm(Word(P.rank, z), i, -sign) for i, sign, z in tags
        )
        if certificate_product(P, factors) != w:
            raise InconsistencyError("certificate does not multiply out to the query")
        return factors

    while heap and steps < budget.max_steps:
        _, _, v = heapq.heappop(heap)
        steps += 1
        for i, sign, z, f in moves:
            child = concat_reduced(v, f)
            if len(child) > max_word_len or child in seen:
                continue
            seen.add(child)
            parent[child] = (v, (i, sign, z))
            if not child:
                return Verdict(Outcome.EQUAL, certificate=build_certificate(child))
            heapq.heappush(heap, (len(child), counter, child))
            counter += 1
        if len(heap) > _FRONTIER_CAP:
            heap = heapq.nsmallest(_FRONTIER_CAP, heap)
            heapq.heapify(heap)
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
