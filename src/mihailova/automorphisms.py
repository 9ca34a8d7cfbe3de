"""Endomorphisms of the rank-3 free group on q, a, b.

The maps that fix a and b and send q to u q v, for words u and v in a and
b, form a subgroup of the automorphism group isomorphic to a direct product
of two rank-2 free groups.  Pushing pair-group generators through a
finite-index Schreier embedding of a rank-n free group into the rank-2 one
turns any relator family into an explicit list of such automorphisms; that
list is what orbit_undecidable_subgroup returns.

Alphabet convention: q is letter 1, a is letter 2, b is letter 3.  The u
and v parameters live in the rank-2 group on a, b and are shifted up by one
index when spliced into rank-3 words.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pairs import mihailova_generators
from .presentations import Presentation
from .words import (
    AlphabetError,
    ParseError,
    Word,
    qab_alphabet,
)

def substitute(w: Word, images: tuple[Word, ...]) -> Word:
    """Replace letter k of w by images[k-1], inverting for negative letters."""
    if len(images) != w.rank:
        raise AlphabetError(
            f"need {w.rank} images for a rank-{w.rank} word, got {len(images)}"
        )
    rank = images[0].rank if images else 1
    out: list[int] = []
    for x in w.letters:
        img = images[abs(x) - 1]
        if x > 0:
            out.extend(img.letters)
        else:
            out.extend(-y for y in reversed(img.letters))
    return Word(rank, tuple(out))


def _lift_ab(w: Word) -> Word:
    # rank-2 word in a, b viewed inside the rank-3 alphabet q, a, b
    if w.rank != 2:
        raise AlphabetError(f"expected a rank-2 word in a, b, got rank {w.rank}")
    return Word(3, tuple(x + 1 if x > 0 else x - 1 for x in w.letters))


@dataclass(frozen=True, slots=True)
class Endomorphism3:
    """An endomorphism of the rank-3 free group, stored by generator images."""

    image_q: Word
    image_a: Word
    image_b: Word

    def __post_init__(self) -> None:
        for img in (self.image_q, self.image_a, self.image_b):
            if img.rank != 3:
                raise AlphabetError(
                    f"generator image must have rank 3, got rank {img.rank}"
                )

    @classmethod
    def identity(cls) -> "Endomorphism3":
        return cls(Word(3, (1,)), Word(3, (2,)), Word(3, (3,)))

    @property
    def images(self) -> tuple[Word, Word, Word]:
        return (self.image_q, self.image_a, self.image_b)

    def apply(self, w: Word) -> Word:
        return substitute(w, self.images)

    def fixes_ab(self) -> bool:
        return self.image_a == Word(3, (2,)) and self.image_b == Word(3, (3,))


def compose(first: Endomorphism3, second: Endomorphism3) -> Endomorphism3:
    """Endomorphism acting as `first` followed by `second`.

    compose(e1, e2).apply(w) == e2.apply(e1.apply(w)).  Writing composition
    left to right keeps products of sandwich maps readable: the u parts
    concatenate in the order written.
    """
    return Endomorphism3(
        second.apply(first.image_q),
        second.apply(first.image_a),
        second.apply(first.image_b),
    )


def sandwich_automorphism(u: Word, v: Word) -> Endomorphism3:
    """The automorphism q -> u q v, a -> a, b -> b (u, v rank-2 words in a, b)."""
    lu, lv = _lift_ab(u), _lift_ab(v)
    return Endomorphism3(
        lu * Word(3, (1,)) * lv, Word(3, (2,)), Word(3, (3,))
    )


def pair_automorphism(u: Word, v: Word) -> Endomorphism3:
    """The embedding (u, v) -> (q -> u^-1 q v) of the pair group into Aut(F3).

    Injective but order-reversing in both slots:

        compose(pair_automorphism(u1, v1), pair_automorphism(u2, v2))
            == pair_automorphism(u2 * u1, v2 * v1)

    so inverses are taken slotwise.
    """
    return sandwich_automorphism(u.inverse(), v)


def f2xf2_generators() -> tuple[Endomorphism3, ...]:
    """Four sandwich maps generating the pair subgroup of Aut(F3).

    The first two move q on the left, the last two on the right; the left
    pair commutes with the right pair under compose.
    """
    a, b = Word(2, (1,)), Word(2, (2,))
    one = Word(2)
    return (
        sandwich_automorphism(a.inverse(), one),
        sandwich_automorphism(b.inverse(), one),
        sandwich_automorphism(one, a),
        sandwich_automorphism(one, b),
    )


@dataclass(frozen=True, slots=True)
class EmbeddingTable:
    """Images of rank-n generators inside the rank-2 free group."""

    n: int
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.n:
            raise AlphabetError(
                f"expected {self.n} images, got {len(self.images)}"
            )
        for img in self.images:
            if img.rank != 2:
                raise AlphabetError("embedding images must be rank-2 words")

    def apply(self, w: Word) -> Word:
        if w.rank != self.n:
            raise AlphabetError(
                f"embedding of rank {self.n} applied to rank-{w.rank} word"
            )
        return substitute(w, self.images)


def fn_into_f2(n: int) -> EmbeddingTable:
    """Schreier basis of the index-(n-1) subgroup ker(F2 -> Z/(n-1), a -> 1).

    x_k -> a^(k-1) b a^-(k-1) for k < n and x_n -> a^(n-1).  The kernel is
    free of rank n, so the table is an embedding of the rank-n free group
    with image of finite index; for n = 2 it is just the basis swap b, a.
    """
    if n < 2:
        raise ValueError(f"embedding needs rank >= 2, got {n}")
    a, b = Word(2, (1,)), Word(2, (2,))
    images = tuple(a ** (k - 1) * b * a ** -(k - 1) for k in range(1, n)) + (
        a ** (n - 1),
    )
    return EmbeddingTable(n, images)


def orbit_undecidable_subgroup(P: Presentation) -> tuple[Endomorphism3, ...]:
    """Automorphism images of the pair subgroup generators attached to P.

    Each generating pair (w1, w2) maps to pair_automorphism of its images
    under fn_into_f2(P.rank); the result is a list of n + m automorphisms
    of the rank-3 group, all fixing a and b.  Membership of a pair of
    rank-2 words in the group these generate decides membership in the
    underlying pair subgroup, which is as hard as the word problem of P.
    """
    emb = fn_into_f2(P.rank)
    return tuple(
        pair_automorphism(emb.apply(g.left), emb.apply(g.right))
        for g in mihailova_generators(P)
    )


def format_endomorphism(e: Endomorphism3) -> str:
    alpha = qab_alphabet()
    names = ("q", "a", "b")
    return "".join(
        f"{name} -> {alpha.format(img)}\n" for name, img in zip(names, e.images)
    )


def parse_endomorphism(text: str) -> Endomorphism3:
    alpha = qab_alphabet()
    images: dict[str, Word] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, body = line.partition("->")
        name = head.strip()
        if not sep or name not in ("q", "a", "b"):
            raise ParseError(f"line {lineno}: expected 'q|a|b -> <word>'")
        if name in images:
            raise ParseError(f"line {lineno}: duplicate image for '{name}'")
        try:
            images[name] = alpha.parse(body.strip())
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    missing = [name for name in ("q", "a", "b") if name not in images]
    if missing:
        raise ParseError(f"missing image line for '{missing[0]}'")
    return Endomorphism3(images["q"], images["a"], images["b"])
