"""Command-line front end.

Commands read a presentation file (rank/relator lines, # comments) and write
plain text: one serialized object per line or block, with commentary only on
# lines so every output feeds back into the matching parser.  Exit codes:
0 for success or an explicit unknown, 1 for a failed --verify, 2 for bad
input, including non-concise presentations and out-of-range options.
"""

from __future__ import annotations

import sys

import click

from .automorphisms import format_endomorphism, orbit_undecidable_subgroup
from .pairs import (
    format_mixed_word,
    format_pair_word,
    in_mihailova,
    in_pair_kernel,
    pair_image,
    parse_mixed_word,
    parse_pair_word,
    relator_family,
)
from .peiffer import (
    ReductionBudget,
    format_certificate,
    reduce_to_empty,
    verify_certificate,
)
from .presentations import (
    ClosureBudget,
    Presentation,
    certificate_product,
    check_strengthened_conciseness,
    concise_refinement,
    format_presentation,
    is_concise,
    parse_presentation,
)
from .words import ParseError, x_alphabet


_ECHO_LINES = 256


def _load(handle) -> Presentation:
    try:
        return parse_presentation(handle.read())
    except ParseError as exc:
        raise click.UsageError(str(exc)) from exc


@click.group()
def main() -> None:
    """Pair subgroups of products of free groups, and their relator calculus."""


@main.command()
@click.argument("presentation", type=click.File("r"))
def check(presentation) -> None:
    """Validate a presentation and print its concise refinement."""
    P = _load(presentation)
    concise = "yes" if is_concise(P) else "no"
    warnings = check_strengthened_conciseness(P)
    label = "none" if not warnings else str(len(warnings))
    click.echo(f"# concise: {concise}; warnings: {label}")
    for w in warnings:
        click.echo(f"# warning: {w}")
    click.echo(format_presentation(concise_refinement(P)), nl=False)


@main.command()
@click.argument("presentation", type=click.File("r"))
@click.option("--max-d-len", default=2, show_default=True,
              type=click.IntRange(min=0),
              help="Conjugator length bound for the relator family.")
@click.option("--verify", is_flag=True,
              help="Check every relator against the pair projection.")
def relators(presentation, max_d_len, verify) -> None:
    """Enumerate the subgroup's relator family, one word per line."""
    P = _load(presentation)
    try:
        family = relator_family(P, max_d_len)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    # a few hundred lines per write: one write per line is slow, and one
    # write of the whole family holds all its text at once
    for start in range(0, len(family), _ECHO_LINES):
        chunk = family[start:start + _ECHO_LINES]
        click.echo("\n".join([format_mixed_word(w) for w in chunk]))
    if verify:
        for k, w in enumerate(family, start=1):
            if not in_pair_kernel(P, w):
                click.echo(f"# verification failed for relator {k}")
                sys.exit(1)
        click.echo(f"# {len(family)} relators, all in ker(pi)")


@main.command()
@click.argument("presentation", type=click.File("r"))
@click.argument("pair")
@click.option("--budget-steps", default=10_000, show_default=True,
              type=click.IntRange(min=0),
              help="Words the closure search may pop before it answers unknown.")
@click.option("--verify", is_flag=True,
              help="Re-multiply any certificate and compare exactly.")
def membership(presentation, pair, budget_steps, verify) -> None:
    """Decide whether a pair of words lies in the pair subgroup."""
    P = _load(presentation)
    try:
        target = parse_pair_word(pair, P.rank)
    except ParseError as exc:
        raise click.UsageError(str(exc)) from exc
    verdict = in_mihailova(P, target, ClosureBudget(max_steps=budget_steps))
    click.echo(verdict.outcome.value)
    alpha = x_alphabet(P.rank)
    if verdict.is_equal:
        for f in verdict.certificate:
            click.echo(
                f"factor {f.relator_index} {f.sign} {alpha.format(f.conjugator)}"
            )
        if verify:
            got = certificate_product(P, verdict.certificate)
            if got != target.left * target.right.inverse():
                click.echo("# certificate verification failed")
                sys.exit(1)
            click.echo("# certificate verified")
    elif verdict.is_not_equal:
        click.echo("obstruction " + " ".join(str(c) for c in verdict.obstruction))


@main.command()
@click.argument("presentation", type=click.File("r"))
@click.argument("word")
def pi(presentation, word) -> None:
    """Project a word in the d, t letters to its pair of components."""
    P = _load(presentation)
    try:
        w = parse_mixed_word(word, P.rank, P.num_relators)
    except ParseError as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(format_pair_word(pair_image(P, w)))


@main.command("reduce-identity")
@click.argument("presentation", type=click.File("r"))
@click.argument("word")
@click.option("--budget-steps", default=10_000, show_default=True,
              type=click.IntRange(min=0),
              help="Move bound for the reduction search.")
@click.option("--budget-insertions", default=0, show_default=True,
              type=click.IntRange(min=0),
              help="How many insertion moves the search may spend.")
@click.option("--verify", is_flag=True,
              help="Replay the certificate before printing it.")
def reduce_identity(presentation, word, budget_steps, budget_insertions,
                    verify) -> None:
    """Search for a move sequence taking a kernel word to the empty word."""
    P = _load(presentation)
    try:
        w = parse_mixed_word(word, P.rank, P.num_relators)
    except ParseError as exc:
        raise click.UsageError(str(exc)) from exc
    # the search's invariants hold on concise presentations only; a failure
    # on one is a fault in the program, not bad input, and is not caught
    if not is_concise(P):
        raise click.UsageError(
            "a relator is trivial or conjugate to another relator or its"
            " inverse, so the presentation cannot be concise; `check` prints"
            " its concise refinement"
        )
    budget = ReductionBudget(
        max_moves=budget_steps, max_insertions=budget_insertions
    )
    try:
        cert = reduce_to_empty(P, w, budget)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    if cert is None:
        click.echo("unknown")
        click.echo(
            f"# budget exhausted: moves={budget_steps}"
            f" insertions={budget_insertions}"
        )
        return
    if verify:
        if not verify_certificate(P, cert):
            click.echo("# certificate verification failed")
            sys.exit(1)
        click.echo("# certificate verified")
    click.echo(format_certificate(cert), nl=False)


@main.command("embed-aut")
@click.argument("presentation", type=click.File("r"))
def embed_aut(presentation) -> None:
    """Print the automorphisms realizing the pair subgroup generators."""
    P = _load(presentation)
    try:
        auts = orbit_undecidable_subgroup(P)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    blocks = [format_endomorphism(e) for e in auts]
    click.echo("\n".join(blocks), nl=False)


if __name__ == "__main__":
    main()
