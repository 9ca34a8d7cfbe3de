"""Exact arithmetic in finitely generated free groups.

A word is stored freely reduced over a 1-based alphabet: the letter ``k``
(k > 0) is the k-th generator and ``-k`` its inverse.  Every public
constructor validates and normalizes, so two words are equal in the free
group iff they compare equal as values; products and inverses, whose
letters are reduced by construction, skip that work.  All types here are
immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator


class AlphabetError(ValueError):
    """A letter fell outside the ambient alphabet, or ranks disagree."""


class ParseError(ValueError):
    """Malformed textual input."""


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence (signed integers)."""
    out: list[int] = []
    push = out.append
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            push(x)
    return tuple(out)


def concat_reduced(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Reduced concatenation of two already reduced letter tuples."""
    i = len(a)
    j = 0
    nb = len(b)
    while i > 0 and j < nb and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


@dataclass(frozen=True, slots=True)
class Word:
    """A freely reduced word in the free group of the given rank."""

    rank: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise AlphabetError(f"rank must be positive, got {self.rank}")
        lts = tuple(map(int, self.letters))
        for x in lts:
            if x == 0 or abs(x) > self.rank:
                raise AlphabetError(
                    f"letter {x} outside alphabet of rank {self.rank}"
                )
        object.__setattr__(self, "letters", reduce_letters(lts))

    @classmethod
    def _trusted(cls, rank: int, letters: tuple[int, ...]) -> "Word":
        """A Word from a letter tuple that is already freely reduced and
        inside the alphabet of a valid rank; nothing is checked."""
        w = object.__new__(cls)
        object.__setattr__(w, "rank", rank)
        object.__setattr__(w, "letters", letters)
        return w

    @classmethod
    def identity(cls, rank: int) -> "Word":
        return cls(rank, ())

    @classmethod
    def generator(cls, rank: int, index: int, sign: int = 1) -> "Word":
        return cls(rank, (index * sign,))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def _check_rank(self, other: "Word") -> None:
        if self.rank != other.rank:
            raise AlphabetError(
                f"rank mismatch: {self.rank} vs {other.rank}"
            )

    def __mul__(self, other: "Word") -> "Word":
        self._check_rank(other)
        return Word._trusted(self.rank, concat_reduced(self.letters, other.letters))

    def inverse(self) -> "Word":
        return Word._trusted(self.rank, tuple([-x for x in reversed(self.letters)]))

    def __pow__(self, k: int) -> "Word":
        base = self if k >= 0 else self.inverse()
        out = Word._trusted(self.rank, ())
        for _ in range(abs(k)):
            out = out * base
        return out

    def __repr__(self) -> str:
        body = " ".join(
            f"x{abs(x)}" + ("" if x > 0 else "^-1") for x in self.letters
        )
        return f"Word({self.rank}: {body or '1'})"


def conjugate(a: Word, by: Word) -> Word:
    """by^-1 * a * by."""
    return by.inverse() * a * by


def commutator(a: Word, b: Word) -> Word:
    """[a, b] = a^-1 b^-1 a b."""
    return a.inverse() * b.inverse() * a * b


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w = conjugator * core * conjugator^-1 with core cyclically reduced.

    Returns (core, conjugator).  The core of a nonempty reduced word is
    nonempty, and no cancellation happens when the triple is multiplied back.
    """
    lts = list(w.letters)
    conj: list[int] = []
    while len(lts) >= 2 and lts[0] == -lts[-1]:
        conj.append(lts[0])
        lts = lts[1:-1]
    return Word(w.rank, tuple(lts)), Word(w.rank, tuple(conj))


def _min_rotation(lts: tuple[int, ...]) -> tuple[int, ...]:
    if not lts:
        return lts
    return min(lts[i:] + lts[:i] for i in range(len(lts)))


def are_conjugate(a: Word, b: Word) -> bool:
    """Exact conjugacy test: compare cyclic cores up to rotation."""
    a._check_rank(b)
    core_a, _ = cyclic_reduce(a)
    core_b, _ = cyclic_reduce(b)
    if len(core_a) != len(core_b):
        return False
    return _min_rotation(core_a.letters) == _min_rotation(core_b.letters)


@dataclass(frozen=True, slots=True)
class RootDecomposition:
    root: Word
    exponent: int


def root(w: Word) -> RootDecomposition:
    """Unique maximal-exponent decomposition w = s^k with s not a proper power.

    Cyclically reduce w = c z c^-1, find the smallest period p dividing |z|
    for which z is a literal p-periodic concatenation, and return
    (c z[:p] c^-1, |z| / p).  Undefined on the trivial word.
    """
    if w.is_empty:
        raise ValueError("root of the trivial word is undefined")
    core, conj = cyclic_reduce(w)
    z = core.letters
    n = len(z)
    for p in range(1, n + 1):
        if n % p:
            continue
        if all(z[i] == z[i % p] for i in range(p, n)):
            s = Word(w.rank, conj.letters + z[:p] + conj.inverse().letters)
            return RootDecomposition(s, n // p)
    raise AssertionError("unreachable: every word is 1-periodic over itself")


def abelianize(w: Word) -> tuple[int, ...]:
    """Exponent-sum vector of w, one entry per generator."""
    counts = [0] * w.rank
    for x in w.letters:
        counts[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(counts)


# ---------------------------------------------------------------------------
# Text format.  Tokens are `x3` / `x3^-1` separated by single spaces; the
# empty word is written `1`.  Letter names depend on the context (x words,
# d/t mixed words, q a b words), so formatting is driven by an Alphabet.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alphabet:
    """Maps 1-based generator indices to printable names and back."""

    letter_names: tuple[str, ...]

    @property
    def rank(self) -> int:
        return len(self.letter_names)

    def format(self, w: Word) -> str:
        if w.rank != self.rank:
            raise AlphabetError(
                f"word of rank {w.rank} formatted with rank-{self.rank} alphabet"
            )
        if w.is_empty:
            return "1"
        tokens = self._tokens
        return " ".join([tokens[x] for x in w.letters])

    @cached_property
    def _tokens(self) -> dict[int, str]:
        """Letter -> its text token, e.g. 2 -> 'x2' and -2 -> 'x2^-1'."""
        tokens = {}
        for k, name in enumerate(self.letter_names, start=1):
            tokens[k] = name
            tokens[-k] = name + "^-1"
        return tokens

    def parse(self, text: str) -> Word:
        toks = text.split()
        if not toks:
            raise ParseError("empty word text; the empty word is written '1'")
        if toks == ["1"]:
            return Word(self.rank)
        index = {name: i + 1 for i, name in enumerate(self.letter_names)}
        letters = []
        for tok in toks:
            sign = 1
            base = tok
            if tok.endswith("^-1"):
                sign = -1
                base = tok[:-3]
            if base not in index:
                raise ParseError(f"unknown letter token '{tok}'")
            letters.append(index[base] * sign)
        return Word(self.rank, tuple(letters))


# Alphabets are frozen, so one instance per shape is shared by every caller.
@lru_cache(maxsize=64)
def x_alphabet(rank: int) -> Alphabet:
    return Alphabet(tuple(f"x{k}" for k in range(1, rank + 1)))


@lru_cache(maxsize=64)
def dt_alphabet(n: int, m: int) -> Alphabet:
    names = tuple(f"d{k}" for k in range(1, n + 1)) + tuple(
        f"t{j}" for j in range(1, m + 1)
    )
    return Alphabet(names)


def qab_alphabet() -> Alphabet:
    return Alphabet(("q", "a", "b"))


# ---------------------------------------------------------------------------
# Deterministic enumeration.  Letter order x1 < x1^-1 < x2 < x2^-1 < ... ;
# words enumerate in length-lex order with respect to it.
# ---------------------------------------------------------------------------


def letter_order(rank: int) -> tuple[int, ...]:
    out = []
    for k in range(1, rank + 1):
        out.append(k)
        out.append(-k)
    return tuple(out)


def iter_reduced_tuples(rank: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """All reduced letter tuples of length <= max_len, in length-lex order."""
    order = letter_order(rank)
    level: list[tuple[int, ...]] = [()]
    yield ()
    for _ in range(max_len):
        nxt: list[tuple[int, ...]] = []
        for w in level:
            last = w[-1] if w else 0
            for x in order:
                if x == -last:
                    continue
                nw = w + (x,)
                nxt.append(nw)
                yield nw
        level = nxt


def iter_reduced_words(rank: int, max_len: int) -> Iterator[Word]:
    for lts in iter_reduced_tuples(rank, max_len):
        yield Word(rank, lts)


def ball_size(rank: int, max_len: int) -> int:
    """Number of reduced words of length <= max_len in the given rank."""
    total = 1
    count = 2 * rank
    for _ in range(max_len):
        total += count
        count *= 2 * rank - 1
    return total
