"""Pairs of words, the mixed d/t alphabet, and the kernel relator family.

Given a presentation H = <x_1..x_n | R_1..R_m>, the pairs (w1, w2) with
w1 =_H w2 form a subgroup of F_n x F_n generated by the diagonal pairs
(x_i, x_i) together with (1, R_j).  The free group of rank n+m on letters
d_1..d_n, t_1..t_m maps onto that subgroup by d_i -> (x_i, x_i) and
t_j -> (1, R_j); this module holds both sides of that arrow plus the
commutator relators whose images are trivial.

Mixed words store d_k at index k and t_j at index n+j.  Since d-letters
occupy the same indices 1..n as the x-letters of F_n, relabelling between
the two is the identity on letter tuples; capitalize and decapitalize just
swap the wrapper type.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentations import ClosureBudget, Presentation, Verdict, equal_in_group
from .words import (
    AlphabetError,
    ParseError,
    Word,
    commutator,
    concat_reduced,
    dt_alphabet,
    iter_reduced_tuples,
    reduce_letters,
    root,
    x_alphabet,
)


@dataclass(frozen=True, slots=True)
class PairWord:
    """Element of F_n x F_n with componentwise multiplication."""

    left: Word
    right: Word

    def __post_init__(self):
        if not isinstance(self.left, Word) or not isinstance(self.right, Word):
            raise TypeError("components must be Words")
        if self.left.rank != self.right.rank:
            raise AlphabetError(
                f"component ranks differ: {self.left.rank} vs {self.right.rank}"
            )

    @classmethod
    def identity(cls, rank: int) -> "PairWord":
        return cls(Word(rank), Word(rank))

    @property
    def rank(self) -> int:
        return self.left.rank

    @property
    def is_identity(self) -> bool:
        return self.left.is_empty and self.right.is_empty

    def __mul__(self, other: "PairWord") -> "PairWord":
        if not isinstance(other, PairWord):
            return NotImplemented
        return PairWord(self.left * other.left, self.right * other.right)

    def inverse(self) -> "PairWord":
        return PairWord(self.left.inverse(), self.right.inverse())

    def __repr__(self):
        return f"PairWord({self.left!r}, {self.right!r})"


@dataclass(frozen=True, slots=True)
class MixedWord:
    """Reduced word over d_1..d_n, t_1..t_m, stored as signed indices.

    Indices 1..n are d-letters, n+1..n+m are t-letters.
    """

    n: int
    m: int
    letters: tuple = ()

    def __post_init__(self):
        if self.n < 1 or self.m < 0:
            raise AlphabetError(f"bad alphabet shape ({self.n}, {self.m})")
        rank = self.n + self.m
        raw = []
        for x in self.letters:
            x = int(x)
            if not 1 <= abs(x) <= rank:
                raise AlphabetError(f"letter {x} outside rank {rank}")
            raw.append(x)
        object.__setattr__(self, "letters", reduce_letters(raw))

    @classmethod
    def _trusted(cls, n: int, m: int, letters: tuple) -> "MixedWord":
        """A MixedWord from a letter tuple that is already freely reduced
        and inside the alphabet of a valid shape; nothing is checked."""
        w = object.__new__(cls)
        object.__setattr__(w, "n", n)
        object.__setattr__(w, "m", m)
        object.__setattr__(w, "letters", letters)
        return w

    @classmethod
    def identity(cls, n: int, m: int) -> "MixedWord":
        return cls(n, m)

    @classmethod
    def d(cls, n: int, m: int, k: int, sign: int = 1) -> "MixedWord":
        if not 1 <= k <= n:
            raise AlphabetError(f"no d-letter {k} in rank {n}")
        return cls(n, m, (k if sign > 0 else -k,))

    @classmethod
    def t(cls, n: int, m: int, j: int, sign: int = 1) -> "MixedWord":
        if not 1 <= j <= m:
            raise AlphabetError(f"no t-letter {j} with {m} relators")
        x = n + j
        return cls(n, m, (x if sign > 0 else -x,))

    @property
    def rank(self) -> int:
        return self.n + self.m

    def as_word(self) -> Word:
        """The same letters as a plain Word of rank n+m."""
        return Word(self.n + self.m, self.letters)

    def is_d_only(self) -> bool:
        return all(abs(x) <= self.n for x in self.letters)

    def _check_shape(self, other: "MixedWord"):
        if (self.n, self.m) != (other.n, other.m):
            raise AlphabetError(
                f"alphabet mismatch: ({self.n},{self.m}) vs ({other.n},{other.m})"
            )

    def __mul__(self, other: "MixedWord") -> "MixedWord":
        if not isinstance(other, MixedWord):
            return NotImplemented
        self._check_shape(other)
        return MixedWord(self.n, self.m, self.letters + other.letters)

    def inverse(self) -> "MixedWord":
        return MixedWord(self.n, self.m, tuple(-x for x in reversed(self.letters)))

    def __pow__(self, k: int) -> "MixedWord":
        base = self if k >= 0 else self.inverse()
        out = MixedWord(self.n, self.m)
        for _ in range(abs(k)):
            out = out * base
        return out

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def __repr__(self):
        return f"MixedWord({self.n}, {self.m}, {format_mixed_word(self)!r})"


def capitalize(u: MixedWord) -> Word:
    """Relabel a d-only mixed word as a rank-n Word, d_k -> x_k."""
    if not u.is_d_only():
        raise AlphabetError("cannot capitalize a word containing t-letters")
    return Word(u.n, u.letters)


def decapitalize(w: Word, m: int) -> MixedWord:
    """Embed a rank-n Word as a d-only mixed word, x_k -> d_k."""
    return MixedWord(w.rank, m, w.letters)


@dataclass(frozen=True, slots=True)
class SyllableForm:
    """w = u_1 t^{e_1} u_2 ... u_l t^{e_l} u_{l+1} with d-only syllables.

    d_syllables holds the l+1 syllables as rank-n Words (capitalized in
    place, since the letter indices coincide); t_letters holds l pairs
    (relator index, sign).
    """

    n: int
    m: int
    d_syllables: tuple
    t_letters: tuple

    def __post_init__(self):
        if len(self.d_syllables) != len(self.t_letters) + 1:
            raise ValueError("need exactly one more syllable than t-letters")
        for u in self.d_syllables:
            if not isinstance(u, Word) or u.rank != self.n:
                raise AlphabetError("syllables must be Words of rank n")
        for i, sign in self.t_letters:
            if not 1 <= i <= self.m or sign not in (1, -1):
                raise AlphabetError(f"bad t-letter ({i}, {sign})")

    @property
    def t_count(self) -> int:
        return len(self.t_letters)


def decompose(w: MixedWord) -> SyllableForm:
    """Split at every t-letter; consecutive t-letters give empty syllables.

    Syllables are subwords of a reduced word, so they are reduced already.
    """
    syllables = []
    t_letters = []
    current = []
    for x in w.letters:
        if abs(x) <= w.n:
            current.append(x)
        else:
            syllables.append(Word._trusted(w.n, tuple(current)))
            current = []
            t_letters.append((abs(x) - w.n, 1 if x > 0 else -1))
    syllables.append(Word._trusted(w.n, tuple(current)))
    return SyllableForm(w.n, w.m, tuple(syllables), tuple(t_letters))


def recompose(s: SyllableForm) -> MixedWord:
    letters = []
    for k, (i, sign) in enumerate(s.t_letters):
        letters.extend(s.d_syllables[k].letters)
        letters.append((s.n + i) * sign)
    letters.extend(s.d_syllables[-1].letters)
    return MixedWord(s.n, s.m, tuple(letters))


def mihailova_generators(P: Presentation) -> list:
    """(x_1,x_1), ..., (x_n,x_n), (1,R_1), ..., (1,R_m)."""
    n = P.rank
    gens = [PairWord(Word.generator(n, k), Word.generator(n, k)) for k in range(1, n + 1)]
    gens.extend(PairWord(Word(n), r) for r in P.relators)
    return gens


def relator_word(P: Presentation, i: int) -> MixedWord:
    """R_i rewritten over the d-letters."""
    return decapitalize(P.relator(i), P.num_relators)


def pair_image(P: Presentation, w: MixedWord) -> PairWord:
    """Apply d_i -> (x_i, x_i), t_j -> (1, R_j) letter by letter."""
    if (w.n, w.m) != (P.rank, P.num_relators):
        raise AlphabetError(
            f"word over ({w.n},{w.m}) does not match presentation "
            f"({P.rank},{P.num_relators})"
        )
    n = P.rank
    left = []
    right = []
    for x in w.letters:
        if abs(x) <= n:
            left.append(x)
            right.append(x)
        elif x > 0:
            right.extend(P.relator(x - n).letters)
        else:
            right.extend(-y for y in reversed(P.relator(-x - n).letters))
    return PairWord(
        Word._trusted(n, reduce_letters(left)), Word._trusted(n, reduce_letters(right))
    )


def in_pair_kernel(P: Presentation, w: MixedWord) -> bool:
    """Exact: kernel membership is free-group triviality of both images."""
    return pair_image(P, w).is_identity


def exchange_relator(P: Presentation, i: int, j: int, d: MixedWord) -> MixedWord:
    """[t_j, d^-1 t_i^-1 r_i d], the two-index relator family member at d."""
    if not 1 <= i <= P.num_relators:
        raise IndexError(f"relator index {i} out of range")
    if not 1 <= j <= P.num_relators:
        raise IndexError(f"relator index {j} out of range")
    if not d.is_d_only():
        raise AlphabetError("conjugating word must be d-only")
    n, m = P.rank, P.num_relators
    if (d.n, d.m) != (n, m):
        raise AlphabetError("conjugating word over the wrong alphabet")
    t_i = MixedWord.t(n, m, i)
    t_j = MixedWord.t(n, m, j)
    r_i = relator_word(P, i)
    inner = d.inverse() * t_i.inverse() * r_i * d
    w = commutator(t_j.as_word(), inner.as_word())
    return MixedWord(n, m, w.letters)


def root_relator(P: Presentation, i: int) -> MixedWord:
    """[t_i, root(r_i)]; rejects trivial relators, which have no root."""
    r = P.relator(i)
    if r.is_empty:
        raise ValueError(f"relator {i} is trivial and has no root")
    n, m = P.rank, P.num_relators
    rho = decapitalize(root(r).root, m)
    t_i = MixedWord.t(n, m, i)
    w = commutator(t_i.as_word(), rho.as_word())
    return MixedWord(n, m, w.letters)


def relator_family(P: Presentation, max_d_len: int) -> list:
    """All exchange relators with |d| <= max_d_len, then the root relators.

    Ordered by (i, j, d) with d in length-lex order; duplicates arising
    after reduction are kept, the family is indexed by its parameters.

    Members are built on letter tuples, with the same letters as
    ``exchange_relator`` and ``root_relator``.  The inner word
    b = d^-1 t_i^-1 r_i d is formed once per (i, d) and shared by every j;
    t_i^-1 cannot cancel against d-letters, so one reduced concatenation
    with d reduces it.  [t_j, b] = t_j^-1 b^-1 t_j b is reduced at its
    three junctions, where t_j cancels when i == j and r_i d is trivial or
    d is empty.  The root relator t_i^-1 rho^-1 t_i rho needs no reduction.
    """
    if max_d_len < 0:
        raise ValueError("max_d_len must be >= 0")
    n, m = P.rank, P.num_relators
    for i in range(1, m + 1):
        if P.relator(i).is_empty:
            raise ValueError(f"relator {i} is trivial and has no root")
    d_values = list(iter_reduced_tuples(n, max_d_len))
    family = []
    for i in range(1, m + 1):
        head = (-(n + i),) + P.relator(i).letters
        inners = []
        for d in d_values:
            b = concat_reduced(_inverse_letters(d) + head, d)
            inners.append((b, _inverse_letters(b)))
        for j in range(1, m + 1):
            t_j = (n + j,)
            t_j_inv = (-(n + j),)
            for b, b_inv in inners:
                w = concat_reduced(
                    concat_reduced(concat_reduced(t_j_inv, b_inv), t_j), b
                )
                family.append(MixedWord._trusted(n, m, w))
    for i in range(1, m + 1):
        rho = root(P.relator(i)).root.letters
        t_i = n + i
        family.append(
            MixedWord._trusted(n, m, (-t_i,) + _inverse_letters(rho) + (t_i,) + rho)
        )
    return family


def _inverse_letters(letters: tuple) -> tuple:
    return tuple([-x for x in reversed(letters)])


def in_mihailova(P: Presentation, p: PairWord, budget: ClosureBudget | None = None) -> Verdict:
    """Does the pair lie in the subgroup, i.e. are the components equal in H?"""
    if p.rank != P.rank:
        raise AlphabetError(f"pair rank {p.rank} does not match presentation rank {P.rank}")
    return equal_in_group(P, p.left, p.right, budget)


def format_mixed_word(w: MixedWord) -> str:
    return dt_alphabet(w.n, w.m).format(Word._trusted(w.n + w.m, w.letters))


def parse_mixed_word(text: str, n: int, m: int) -> MixedWord:
    w = dt_alphabet(n, m).parse(text)
    return MixedWord(n, m, w.letters)


def format_pair_word(p: PairWord) -> str:
    alpha = x_alphabet(p.rank)
    return f"({alpha.format(p.left)} , {alpha.format(p.right)})"


def parse_pair_word(text: str, rank: int) -> PairWord:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ParseError(f"pair must be parenthesized: {text!r}")
    body = s[1:-1]
    parts = body.split(",")
    if len(parts) != 2:
        raise ParseError(f"pair needs exactly one comma: {text!r}")
    alpha = x_alphabet(rank)
    return PairWord(alpha.parse(parts[0]), alpha.parse(parts[1]))
