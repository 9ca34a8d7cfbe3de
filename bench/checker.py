"""Independent answer checker for the benchmark.

Nothing here imports ``mihailova``.  Free reduction, exponent sums, the pair
image, the Z4*Z4 normal form and the Schreier embedding are written out again
so that a defect in the package cannot hide inside its own check.  Words are
tuples of signed 1-based letters, as in the package's text format.

``check(query, exit_code, output)`` returns ``(decided, error)``: whether the
answer is a verdict rather than ``unknown``, and a one-line reason when the
answer is wrong, or ``None`` when it is right.
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# Free groups
# ---------------------------------------------------------------------------


def reduce(letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(w) -> tuple[int, ...]:
    return tuple(-x for x in reversed(w))


def exponent_sums(w, rank: int) -> tuple[int, ...]:
    sums = [0] * rank
    for x in w:
        sums[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(sums)


def cyclic_core(w) -> tuple[int, ...]:
    w = reduce(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


def _rotation_class(w) -> tuple[int, ...]:
    core = cyclic_core(w)
    return min((core[i:] + core[:i] for i in range(len(core))), default=())


def conjugate(u, v) -> bool:
    return _rotation_class(u) == _rotation_class(v)


def root(w) -> tuple[int, ...]:
    """The s with w = s^k, k maximal, for a nontrivial reduced w."""
    core = cyclic_core(w)
    w = reduce(w)
    lead = w[: (len(w) - len(core)) // 2]
    n = len(core)
    p = next(p for p in range(1, n + 1) if n % p == 0 and core == core[:p] * (n // p))
    return reduce(lead + core[:p] + inverse(lead))


def ball_size(rank: int, radius: int) -> int:
    return 1 + sum(2 * rank * (2 * rank - 1) ** (k - 1) for k in range(1, radius + 1))


def z4z4_normal_form(w) -> tuple[tuple[int, int], ...]:
    """Normal form in <x1, x2 | x1^4, x2^4>: alternating (generator,
    exponent mod 4) syllables with nonzero exponents."""
    out: list[tuple[int, int]] = []
    for x in w:
        g, e = abs(x), (1 if x > 0 else -1)
        if out and out[-1][0] == g:
            e = (out[-1][1] + e) % 4
            out.pop()
            if e:
                out.append((g, e))
        else:
            out.append((g, e % 4))
    return tuple(out)


# ---------------------------------------------------------------------------
# Text format: tokens `name` or `name^-1`; the empty word is `1`
# ---------------------------------------------------------------------------


def x_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{k}" for k in range(1, n + 1))


def dt_names(n: int, m: int) -> tuple[str, ...]:
    return tuple(f"d{k}" for k in range(1, n + 1)) + tuple(
        f"t{j}" for j in range(1, m + 1)
    )


QAB_NAMES = ("q", "a", "b")


def format_word(w, names) -> str:
    if not w:
        return "1"
    return " ".join(names[abs(x) - 1] + ("" if x > 0 else "^-1") for x in w)


def parse_word(text: str, names) -> tuple[int, ...]:
    toks = text.split()
    if toks == ["1"]:
        return ()
    index = {name: k for k, name in enumerate(names, start=1)}
    out = []
    for tok in toks:
        base, inv = (tok[:-3], True) if tok.endswith("^-1") else (tok, False)
        if base not in index:
            raise ValueError(f"unknown token {tok!r}")
        out.append(-index[base] if inv else index[base])
    return tuple(out)


# ---------------------------------------------------------------------------
# The pair homomorphism and the rank-2 embedding
# ---------------------------------------------------------------------------


def pair_image(w, n: int, relators) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """d_k -> (x_k, x_k), t_j -> (1, R_j), reduced in both slots."""
    left, right = [], []
    for x in w:
        if abs(x) <= n:
            left.append(x)
            right.append(x)
        else:
            r = relators[abs(x) - n - 1]
            right.extend(r if x > 0 else inverse(r))
    return reduce(left), reduce(right)


def schreier_image(w, n: int) -> tuple[int, ...]:
    """x_k -> a^(k-1) b a^-(k-1) for k < n, x_n -> a^(n-1), with a = 1, b = 2."""
    images = [(1,) * (k - 1) + (2,) + (-1,) * (k - 1) for k in range(1, n)]
    images.append((1,) * (n - 1))
    out: list[int] = []
    for x in w:
        img = images[abs(x) - 1]
        out.extend(img if x > 0 else inverse(img))
    return reduce(out)


def _lift(w) -> tuple[int, ...]:
    return tuple(x + 1 if x > 0 else x - 1 for x in w)


def embedding_q_images(n: int, relators) -> list[tuple[int, ...]]:
    """Image of q under the automorphism of each pair generator (w1, w2):
    q -> emb(w1)^-1 q emb(w2)."""
    gens = [((k,), (k,)) for k in range(1, n + 1)]
    gens += [((), r) for r in relators]
    return [
        reduce(_lift(inverse(schreier_image(a, n))) + (1,) + _lift(schreier_image(b, n)))
        for a, b in gens
    ]


# ---------------------------------------------------------------------------
# Ground truth in the four membership groups
# ---------------------------------------------------------------------------

# Homomorphisms to abelian groups that every relator of the group kills:
# (weights per generator, modulus; 0 means the integers).
ABELIAN_INVARIANTS = {
    "torus": (((1, 0), 0), ((0, 1), 0)),
    "trefoil": (((3, 2), 0),),
    "z4z4": (((1, 0), 4), ((0, 1), 4)),
    "rank3": (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)),
}


def abelian_invariant(group: str, w) -> tuple[int, ...]:
    rank = len(ABELIAN_INVARIANTS[group][0][0])
    sums = exponent_sums(w, rank)
    out = []
    for weights, modulus in ABELIAN_INVARIANTS[group]:
        v = sum(a * b for a, b in zip(weights, sums))
        out.append(v % modulus if modulus else v)
    return tuple(out)


def equal_in_group(group: str, w1, w2, constructed_equal: bool) -> bool:
    """Exact where the group allows it; for the trefoil an equal invariant
    falls back to how the pair was built."""
    if abelian_invariant(group, w1) != abelian_invariant(group, w2):
        return False
    if group == "z4z4":
        return z4z4_normal_form(w1) == z4z4_normal_form(w2)
    if group in ("torus", "rank3"):
        return True
    return constructed_equal


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------


def _body(output: str) -> list[str]:
    return [ln for ln in output.splitlines() if not ln.startswith("#")]


def check_membership(e: dict, output: str):
    n, rels = e["rank"], e["relators"]
    w1, w2 = e["w1"], e["w2"]
    names = x_names(n)
    lines = output.splitlines()
    verdict = lines[0] if lines else ""
    target = reduce(w1 + inverse(w2))
    truth = equal_in_group(e["group"], w1, w2, e["equal"])
    if truth != e["equal"]:
        return True, "generator and checker disagree on the truth"
    if verdict == "unknown":
        return False, None
    if verdict == "equal-in-H":
        if not truth:
            return True, "equal-in-H for a pair that differs in H"
        product: tuple[int, ...] = ()
        for ln in lines[1:]:
            if ln.startswith("#"):
                continue
            head, i, sign, conj = (ln.split(None, 3) + [""] * 4)[:4]
            if head != "factor" or sign not in ("1", "-1"):
                return True, f"bad certificate line {ln!r}"
            z = parse_word(conj, names)
            r = rels[int(i) - 1]
            product = reduce(product + z + (r if sign == "1" else inverse(r)) + inverse(z))
        if product != target:
            return True, "certificate does not multiply out to w1 w2^-1"
        if "# certificate verified" not in lines:
            return True, "missing certificate verification line"
        return True, None
    if verdict == "not-equal-in-H":
        if truth:
            return True, "not-equal-in-H for a pair that is equal in H"
        want = "obstruction " + " ".join(str(c) for c in exponent_sums(target, n))
        if want not in lines[1:2]:
            return True, "obstruction is not the exponent-sum vector of w1 w2^-1"
        return True, None
    return True, f"unrecognised verdict {verdict!r}"


_MOVES = ("exchange", "inv-exchange", "delete", "insert")


def check_reduce(e: dict, output: str):
    n, m, rels = e["rank"], len(e["relators"]), e["relators"]
    lines = _body(output)
    if lines[:1] == ["unknown"]:
        return False, None
    script = [ln for ln in lines if ln.split()[0] in _MOVES]
    trail = lines[len(script):]
    if len(trail) != len(script) + 1:
        return True, "word trail does not have one word per move plus the start"
    if "# certificate verified" not in output.splitlines():
        return True, "missing certificate verification line"
    words = [parse_word(ln, dt_names(n, m)) for ln in trail]
    if words[0] != reduce(e["word"]):
        return True, "trail does not start at the input word"
    for w in words:
        if pair_image(w, n, rels) != ((), ()):
            return True, "trail leaves the kernel of the pair homomorphism"
    if words[-1]:
        return True, "trail does not end at 1"
    return True, None


def check_check(e: dict, output: str):
    lines = output.splitlines()
    if lines[:1] != ["# concise: no; warnings: none"]:
        return True, f"unexpected header {lines[:1]!r}"
    want = [f"rank {e['rank']}"] + [
        f"relator {format_word(r, x_names(e['rank']))}" for r in e["relators"]
    ]
    if _body(output) != want:
        return True, "refinement does not keep exactly the planted classes"
    return True, None


def check_relators(e: dict, output: str):
    n, rels = e["rank"], e["relators"]
    m = len(rels)
    words = _body(output)
    count = m * m * ball_size(n, 3) + m
    if len(words) != count:
        return True, f"{len(words)} relators, expected {count}"
    if output.splitlines()[-1:] != [f"# {count} relators, all in ker(pi)"]:
        return True, "missing verification summary"
    names = dt_names(n, m)
    for ln in words:
        if pair_image(parse_word(ln, names), n, rels) != ((), ()):
            return True, f"relator {ln!r} is not in the kernel"
    return True, None


def check_embed(e: dict, output: str):
    n, rels = e["rank"], e["relators"]
    lines = [ln for ln in output.splitlines() if ln]
    images = embedding_q_images(n, rels)
    if len(lines) != 3 * len(images):
        return True, f"{len(lines) // 3} automorphisms, expected {len(images)}"
    for k, img in enumerate(images):
        q, a, b = lines[3 * k : 3 * k + 3]
        if a != "a -> a" or b != "b -> b":
            return True, f"automorphism {k + 1} does not fix a and b"
        if q != "q -> " + format_word(img, QAB_NAMES):
            return True, f"automorphism {k + 1} sends q to the wrong word"
    return True, None


CHECKS = {
    "membership": check_membership,
    "reduce-identity": check_reduce,
    "check": check_check,
    "relators": check_relators,
    "embed-aut": check_embed,
}


def check(command: str, expect: dict, exit_code: int, output: str):
    """(decided, error) for one CLI answer.  An answer the checks cannot
    even parse is an error, never a crash of the benchmark."""
    if exit_code != 0:
        return True, f"exit code {exit_code}"
    if "Traceback" in output:
        return True, "traceback in output"
    try:
        return CHECKS[command](expect, output)
    except Exception as exc:  # noqa: BLE001 - any malformed answer is a failed query
        return True, f"unparseable answer: {exc!r}"
