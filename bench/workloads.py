"""Seeded query generators for the three benchmark workloads.

A workload is an endless sequence of cycles.  Cycle ``k`` of a workload is
a pure function of ``(workload, seed, k)``: the presentation files it needs
and its queries, each one CLI invocation with the facts the checker needs to
judge the answer.  Every cycle has the same mix of query classes, so a run
made of whole cycles has the same composition whatever its seed.  Nothing
here imports ``mihailova``: the inputs do not change when the package does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from checker import (
    abelian_invariant,
    conjugate,
    cyclic_core,
    dt_names,
    format_word,
    inverse,
    reduce,
    root,
    x_names,
)


@dataclass(frozen=True)
class Query:
    qclass: str
    label: str  # class and input shape, for per-class summaries
    command: str
    presentation: str  # file name inside the work directory
    args: tuple[str, ...]
    expect: dict  # what the checker needs to judge the answer

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.args]


@dataclass(frozen=True)
class Cycle:
    files: dict[str, str]
    queries: list[Query]


def presentation_text(rank: int, relators) -> str:
    names = x_names(rank)
    return f"rank {rank}\n" + "".join(
        f"relator {format_word(r, names)}\n" for r in relators
    )


def random_word(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    letters = [k * s for k in range(1, rank + 1) for s in (1, -1)]
    out: list[int] = []
    while len(out) < length:
        x = rng.choice(letters)
        if not out or out[-1] != -x:
            out.append(x)
    return tuple(out)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

GROUPS = {
    "torus": (2, ((1, 2, -1, -2),)),
    "trefoil": (2, ((1, 1, -2, -2, -2),)),
    "z4z4": (2, ((1, 1, 1, 1), (2, 2, 2, 2))),
    "rank3": (3, ((1, 2, -1, -2), (1, 3, -1, -3), (2, 3, -2, -3))),
}

# Step budget passed with --budget-steps, per query class.  On the cap
# class 38 steps take the closure search's frontier past its cap once.
MEMBERSHIP_BUDGETS = {"short": 300, "long": 300, "abelian": 300, "cap": 38}

# One cycle: (class, group, count).  Sorted by latency the classes fall as
# abelian (30%) < short on rank 2 (52%) < long but found (~2%) < short on
# rank 3 (12%) < long unknown (~2%) < cap (2%).  So the median falls inside
# the rank-2 short block, on its torus and trefoil part, and p90 in the
# middle of the rank-3 short block, away from the edges between latency
# modes.  Short queries all use the first relator, which keeps each block
# narrow: the search finds the factor within the first relator's moves.
MEMBERSHIP_MIX = (
    ("abelian", "torus", 8), ("abelian", "trefoil", 8),
    ("abelian", "z4z4", 7), ("abelian", "rank3", 7),
    ("short", "torus", 18), ("short", "trefoil", 18), ("short", "z4z4", 16),
    ("short", "rank3", 12),
    ("long", "torus", 1), ("long", "trefoil", 1), ("long", "z4z4", 2),
    ("cap", "rank3", 2),
)


def _conjugated_relator_pair(rng, rank, r, zlen):
    """(w1, w2) with w1 w2^-1 = z r z^-1 and |z| = zlen, where z ends in no
    letter that cancels into r, so zlen is the certificate's conjugator
    length."""
    z = random_word(rng, rank, zlen)
    while z and (z[-1] == -r[0] or z[-1] == r[-1]):
        z = random_word(rng, rank, zlen)
    cut = rng.randint(0, zlen)
    u, c = z[:cut], z[cut:]
    v = random_word(rng, rank, rng.randint(1, 4))
    return reduce(u + v), reduce(u + c + inverse(r) + inverse(c) + v)


def _membership_pair(rng, qclass, group):
    rank, relators = GROUPS[group]
    if qclass == "short":
        r = inverse(relators[0])
        return _conjugated_relator_pair(rng, rank, r, rng.randint(1, 4)), True
    if qclass == "long":
        r = rng.choice(relators)
        r = r if rng.random() < 0.5 else inverse(r)
        return _conjugated_relator_pair(rng, rank, r, rng.randint(5, 6)), True
    if qclass == "abelian":
        while True:
            w1 = random_word(rng, rank, rng.randint(2, 6))
            w2 = random_word(rng, rank, rng.randint(2, 6))
            if abelian_invariant(group, w1) != abelian_invariant(group, w2):
                return (w1, w2), False
    # cap: a^4 b^4 against b^4 a^4 for two generators a, b of either sign,
    # a commutator of powers the closure search does not settle in 38 steps
    a, b = (x * rng.choice((1, -1)) for x in rng.sample(range(1, rank + 1), 2))
    return ((a,) * 4 + (b,) * 4, (b,) * 4 + (a,) * 4), True


class Membership:
    name = "membership"
    trace_cycles = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.files = {f"{g}.txt": presentation_text(*GROUPS[g]) for g in GROUPS}

    def cycle(self, k: int) -> Cycle:
        rng = random.Random(f"membership:{self.seed}:{k}")
        slots = [(c, g) for c, g, count in MEMBERSHIP_MIX for _ in range(count)]
        rng.shuffle(slots)
        queries = []
        for qclass, group in slots:
            rank, relators = GROUPS[group]
            (w1, w2), equal = _membership_pair(rng, qclass, group)
            names = x_names(rank)
            pair = f"({format_word(w1, names)} , {format_word(w2, names)})"
            budget = MEMBERSHIP_BUDGETS[qclass]
            expect = dict(group=group, rank=rank, relators=relators,
                          w1=w1, w2=w2, equal=equal)
            queries.append(Query(
                qclass, f"{qclass}/{group}", "membership", f"{group}.txt",
                (pair, "--verify", "--budget-steps", str(budget)), expect,
            ))
        return Cycle(self.files, queries)


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

REDUCE_GROUPS = ("torus", "trefoil", "rank3")
REDUCE_PER_GROUP = 10
REDUCE_ARGS = ("--verify", "--budget-steps", "10000", "--budget-insertions", "2")


def relator_family_words(n, relators, max_d_len):
    """Exchange relators [t_j, d^-1 t_i^-1 r_i d] for |d| <= max_d_len and
    root relators [t_i, root(r_i)], as mixed words (d_k = k, t_j = n + j)."""
    def commutator(a, b):
        return reduce(inverse(a) + inverse(b) + a + b)

    m = len(relators)
    ds = [d for length in range(max_d_len + 1) for d in _all_words(n, length)]
    family = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            for d in ds:
                inner = reduce(inverse(d) + (-(n + i),) + relators[i - 1] + d)
                family.append(commutator((n + j,), inner))
    for i in range(1, m + 1):
        family.append(commutator((n + i,), root(relators[i - 1])))
    return family


def _all_words(rank, length):
    words = [()]
    for _ in range(length):
        words = [w + (x,) for w in words for s in (1, -1)
                 for x in [s * k for k in range(1, rank + 1)] if not w or w[-1] != -x]
    return words


class Reduce:
    name = "reduce"
    trace_cycles = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.files = {f"{g}.txt": presentation_text(*GROUPS[g]) for g in REDUCE_GROUPS}
        self.families = {
            g: relator_family_words(*GROUPS[g], max_d_len=1) for g in REDUCE_GROUPS
        }

    def cycle(self, k: int) -> Cycle:
        rng = random.Random(f"reduce:{self.seed}:{k}")
        slots = [g for g in REDUCE_GROUPS for _ in range(REDUCE_PER_GROUP)]
        rng.shuffle(slots)
        queries = []
        for group in slots:
            n, relators = GROUPS[group]
            m = len(relators)
            word: tuple[int, ...] = ()
            for _ in range(rng.choice((4, 5))):
                f = rng.choice(self.families[group])
                g = random_word(rng, n + m, 3)
                word = reduce(word + inverse(g) + f + g)
            expect = dict(rank=n, relators=relators, word=word)
            queries.append(Query(
                "kernel-word", f"kernel-word/{group}", "reduce-identity", f"{group}.txt",
                (format_word(word, dt_names(n, m)), *REDUCE_ARGS), expect,
            ))
        return Cycle(self.files, queries)


# ---------------------------------------------------------------------------
# onboard
# ---------------------------------------------------------------------------

# (rank, relator classes) of the ten presentations in one cycle.  The
# relators command is a third of the queries and prints m^2 |ball(n,3)| + m
# lines; sorted by that count the two rank-3 three-relator presentations
# (1686 lines) hold the 60%..80% block of relators queries, so p90 of the
# whole mix lands inside them rather than between two shapes.
ONBOARD_SHAPES = ((2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1),
                  (3, 3), (3, 3), (5, 2), (4, 3))
RELATORS_ARGS = ("--max-d-len", "3", "--verify")


def _base_relators(rng, n, m):
    """m cyclically reduced relators, pairwise non-conjugate (also up to
    inverses) and none conjugate to its own inverse."""
    rels = []
    while len(rels) < m:
        r = cyclic_core(random_word(rng, n, rng.randint(4, 7)))
        if len(r) < 4 or conjugate(r, inverse(r)):
            continue
        if any(conjugate(r, s) or conjugate(r, inverse(s)) for s in rels):
            continue
        rels.append(r)
    return rels


def _noisy_relators(rng, n, base):
    """Base relators plus planted conjugates, inverses, rotations and
    trivial relators, shuffled; lines are (class or None, letters)."""
    lines = [(c, r) for c, r in enumerate(base)]
    for c, r in enumerate(base):
        for _ in range(rng.randint(0, 2)):
            kind = rng.choice(("conjugate", "inverse", "rotation"))
            if kind == "conjugate":
                z = random_word(rng, n, rng.randint(1, 2))
                lines.append((c, z + r + inverse(z)))
            elif kind == "inverse":
                k = rng.randrange(len(r))
                lines.append((c, inverse(r[k:] + r[:k])))
            else:
                k = rng.randrange(1, len(r))
                lines.append((c, r[k:] + r[:k]))
    for _ in range(rng.randint(1, 2)):
        u = random_word(rng, n, rng.randint(1, 3))
        lines.append((None, u + inverse(u)))
    rng.shuffle(lines)
    return lines


def _raw_text(rank, lines):
    names = x_names(rank)
    return f"rank {rank}\n" + "".join(
        f"relator {' '.join(format_word((x,), names) for x in w)}\n" for _, w in lines
    )


class Onboard:
    name = "onboard"
    trace_cycles = 2

    def __init__(self, seed: int):
        self.seed = seed

    def cycle(self, k: int) -> Cycle:
        rng = random.Random(f"onboard:{self.seed}:{k}")
        shapes = list(ONBOARD_SHAPES)
        rng.shuffle(shapes)
        files, queries = {}, []
        for p, (n, m) in enumerate(shapes):
            lines = _noisy_relators(rng, n, _base_relators(rng, n, m))
            kept, seen = [], set()
            for c, w in lines:
                if c is not None and c not in seen:
                    seen.add(c)
                    kept.append(reduce(w))
            noisy, clean = f"c{k}-p{p}-noisy.txt", f"c{k}-p{p}-clean.txt"
            files[noisy] = _raw_text(n, lines)
            files[clean] = presentation_text(n, kept)
            expect = dict(rank=n, relators=tuple(kept))
            shape = f"n{n}m{m}"
            queries.append(Query("check", f"check/{shape}", "check", noisy, (), expect))
            queries.append(Query("relators", f"relators/{shape}", "relators", clean,
                                 RELATORS_ARGS, expect))
            queries.append(Query("embed-aut", f"embed-aut/{shape}", "embed-aut", clean,
                                 (), expect))
        return Cycle(files, queries)


WORKLOADS = {w.name: w for w in (Membership, Reduce, Onboard)}
