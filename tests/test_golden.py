"""`reduce-identity --verify` output pinned byte for byte.

Each file under ``golden/`` is the exact output of one run, recorded from an
earlier version of the search.  A change in the order the search tries its
moves, in the certificates it builds or in their text form shows up here as
a diff, even when the new certificate would still verify.

The search reaches every kernel word of these presentations tried so far by
exchanges and deletions alone, so no search run yields an insertion; the
insertion certificate is scripted instead and goes through the same
certificate builder, verifier and text form.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from mihailova.cli import main
from mihailova.pairs import MixedWord, exchange_relator
from mihailova.peiffer import (
    InsertionData,
    Move,
    _apply_tracked,
    _build_certificate,
    format_certificate,
    parse_certificate,
    verify_certificate,
)
from mihailova.presentations import parse_presentation

GOLDEN = Path(__file__).parent / "golden"

PRESENTATIONS = {
    "torus": "rank 2\nrelator x1 x2 x1^-1 x2^-1\n",
    "trefoil": "rank 2\nrelator x1 x1 x2^-1 x2^-1 x2^-1\n",
    "rank3": (
        "rank 3\nrelator x1 x2 x1^-1 x2^-1\n"
        "relator x1 x3 x1^-1 x3^-1\nrelator x2 x3 x2^-1 x3^-1\n"
    ),
}

# (golden file stem, presentation, kernel word, extra options)
CASES = (
    ("torus-exchange-relator", "torus",
     "t1^-1 d2 d1 d2^-1 d1^-1 t1 d1 d2 d1^-1 d2^-1", ()),
    ("torus-forced-deletions", "torus",
     "d2 d1^-1 d2^-1 t1^-1 d2 d1 d2^-1 d1^-1 t1 d1 t1 d1 d2^-1 t1^-1 d2 d1"
     " d2^-1 d1^-1 t1 d1 d2 d1^-1 d1^-1 d2^-1 d1^-1 t1^-1 d2 d1 d2^-1 d1^-1"
     " t1 d1 d2 d1^-1 d2^-1 d1 d2 t1^-1 t1^-1 d1 d2^-1 d1^-1 t1 d1 d2 d1^-1"
     " d2^-1 t1^-1 d2 t1",
     ("--budget-steps", "10000", "--budget-insertions", "2")),
    ("trefoil-forced-deletions", "trefoil",
     "d1 d2^-1 t1^-1 t1^-1 d2 d2 d2 d1^-1 d1^-1 t1 d1 d1 d2^-1 d2^-1 d2^-1"
     " t1 d2 d1^-1 d2 d2 t1^-1 t1^-1 d2 d2 d2 d1^-1 d1^-1 t1 d1 d1 d2^-1"
     " d2^-1 d2^-1 t1 d2^-1 d2^-1 d1 d1 d1 t1^-1 d2 d2 d2 d1^-1 d1^-1 t1 d1"
     " d1 d2^-1 d2^-1 d2^-1 d1^-1 d1^-1 d1^-1 d2 t1 d1 t1^-1 d2 d2 d2 d1^-1"
     " d1^-1 t1 d1 d1 d2^-1 d2^-1 d2^-1 d1^-1 t1^-1 d2^-1",
     ("--budget-steps", "10000", "--budget-insertions", "2")),
    ("rank3-forced-deletions", "rank3",
     "d2^-1 d3^-1 t2^-1 t3^-1 d1^-1 d2 d1 d2^-1 d1^-1 t1 d1 t3 d1^-1 t1^-1"
     " d1 d2 d1^-1 d2^-1 d1 t2 d3 d2 d1 d3^-1 t3^-1 t1^-1 d3 d3 d2 d3^-1"
     " d2^-1 t3 d3^-1 t1 d3 t3^-1 d2 d3 d2^-1 d3^-1 d3^-1 t3 d3 d1^-1 d1^-1"
     " d3 d2 t1^-1 d2 d1 d2^-1 d1^-1 t1 d1 d2 d1^-1 d2^-1 d2^-1 d3^-1 d1"
     " d3^-1 t1^-1 d3^-1 t3^-1 d3 d2 d3^-1 d2^-1 t3 d2 d3 d2^-1 t1 d3",
     ("--budget-steps", "10000", "--budget-insertions", "2")),
)


@pytest.mark.parametrize("stem, presentation, word, options", CASES,
                         ids=[case[0] for case in CASES])
def test_reduce_identity_output_is_pinned(tmp_path, stem, presentation, word, options):
    path = tmp_path / f"{presentation}.txt"
    path.write_text(PRESENTATIONS[presentation])
    res = CliRunner().invoke(
        main, ["reduce-identity", str(path), word, "--verify", *options]
    )
    assert res.exit_code == 0
    assert res.output == (GOLDEN / f"{stem}.txt").read_text()


def test_insertion_certificate_text_is_pinned():
    P = parse_presentation(PRESENTATIONS["torus"])
    w = exchange_relator(P, 1, 1, MixedWord.d(2, 1, 1))
    script = (
        Move("insert", 2, InsertionData(2, 1, -1, 1, MixedWord.d(2, 1, 2))),
        Move("delete", 2),
        Move("exchange", 1),  # empties the word through two forced deletions
    )
    edges, cur = [], w
    for move in script:
        res = _apply_tracked(P, cur, move)
        edges.append((move, res.forced_deletions))
        cur = res.word
    cert = _build_certificate(P, w, edges)
    assert verify_certificate(P, cert)
    text = format_certificate(cert)
    assert text == (GOLDEN / "torus-insertion.txt").read_text()
    assert parse_certificate(P, text) == cert
