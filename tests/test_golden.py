"""Command-line output pinned byte for byte.

Each file under ``golden/`` is the exact output of one run of a command on
the torus, trefoil or rank-3 presentation, recorded from an earlier version
of the package: `check`, `relators --verify`, `membership --verify` with an
equal, a not-equal and an unknown answer, `pi`, `embed-aut` and
`reduce-identity --verify`.  Two more `relators --verify` runs use a relator
that is not cyclically reduced and a one-generator relator, where the
relator family's letters cancel across its factors.  A change in the order a search tries its moves,
in the certificates it builds or in their text form shows up here as a
diff, even when the new certificate would still verify.

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
    # not cyclically reduced, so r_1 cancels into the conjugator d
    "conjugated": "rank 2\nrelator x2 x1 x1 x2^-1\n",
    # one letter, so t_1 meets t_1^-1 at i == j with empty d
    "square": "rank 1\nrelator x1 x1\n",
}

TORUS_TWISTED = "(x1 x1 x2 x2 , x2 x2 x1 x1)"

# (golden file stem, presentation, command and its arguments after the
# presentation file)
CASES = (
    ("torus-exchange-relator", "torus",
     ("reduce-identity",
      "t1^-1 d2 d1 d2^-1 d1^-1 t1 d1 d2 d1^-1 d2^-1", "--verify")),
    ("torus-forced-deletions", "torus",
     ("reduce-identity",
      "d2 d1^-1 d2^-1 t1^-1 d2 d1 d2^-1 d1^-1 t1 d1 t1 d1 d2^-1 t1^-1 d2 d1"
      " d2^-1 d1^-1 t1 d1 d2 d1^-1 d1^-1 d2^-1 d1^-1 t1^-1 d2 d1 d2^-1 d1^-1"
      " t1 d1 d2 d1^-1 d2^-1 d1 d2 t1^-1 t1^-1 d1 d2^-1 d1^-1 t1 d1 d2 d1^-1"
      " d2^-1 t1^-1 d2 t1",
      "--verify", "--budget-steps", "10000", "--budget-insertions", "2")),
    ("trefoil-forced-deletions", "trefoil",
     ("reduce-identity",
      "d1 d2^-1 t1^-1 t1^-1 d2 d2 d2 d1^-1 d1^-1 t1 d1 d1 d2^-1 d2^-1 d2^-1"
      " t1 d2 d1^-1 d2 d2 t1^-1 t1^-1 d2 d2 d2 d1^-1 d1^-1 t1 d1 d1 d2^-1"
      " d2^-1 d2^-1 t1 d2^-1 d2^-1 d1 d1 d1 t1^-1 d2 d2 d2 d1^-1 d1^-1 t1 d1"
      " d1 d2^-1 d2^-1 d2^-1 d1^-1 d1^-1 d1^-1 d2 t1 d1 t1^-1 d2 d2 d2 d1^-1"
      " d1^-1 t1 d1 d1 d2^-1 d2^-1 d2^-1 d1^-1 t1^-1 d2^-1",
      "--verify", "--budget-steps", "10000", "--budget-insertions", "2")),
    ("rank3-forced-deletions", "rank3",
     ("reduce-identity",
      "d2^-1 d3^-1 t2^-1 t3^-1 d1^-1 d2 d1 d2^-1 d1^-1 t1 d1 t3 d1^-1 t1^-1"
      " d1 d2 d1^-1 d2^-1 d1 t2 d3 d2 d1 d3^-1 t3^-1 t1^-1 d3 d3 d2 d3^-1"
      " d2^-1 t3 d3^-1 t1 d3 t3^-1 d2 d3 d2^-1 d3^-1 d3^-1 t3 d3 d1^-1 d1^-1"
      " d3 d2 t1^-1 d2 d1 d2^-1 d1^-1 t1 d1 d2 d1^-1 d2^-1 d2^-1 d3^-1 d1"
      " d3^-1 t1^-1 d3^-1 t3^-1 d3 d2 d3^-1 d2^-1 t3 d2 d3 d2^-1 t1 d3",
      "--verify", "--budget-steps", "10000", "--budget-insertions", "2")),
    ("torus-membership-equal", "torus",
     ("membership", "(x1 x2 , x2 x1)", "--verify")),
    ("torus-membership-equal-four-factors", "torus",
     ("membership", TORUS_TWISTED, "--verify", "--budget-steps", "5")),
    ("torus-membership-unknown", "torus",
     ("membership", TORUS_TWISTED, "--verify", "--budget-steps", "1")),
    ("torus-membership-not-equal", "torus",
     ("membership", "(x1 , x2)", "--verify")),
    ("trefoil-membership-equal", "trefoil",
     ("membership", "(x1 x1 x2 , x2 x1 x1)", "--verify")),
    ("trefoil-membership-unknown", "trefoil",
     ("membership", "(x1 x1 x2 , x2 x1 x1)", "--verify", "--budget-steps", "0")),
    ("trefoil-membership-not-equal", "trefoil",
     ("membership", "(x1 , x2)", "--verify")),
    ("rank3-membership-equal", "rank3",
     ("membership", "(x1 x3 , x3 x1)", "--verify")),
    ("rank3-membership-unknown", "rank3",
     ("membership", TORUS_TWISTED, "--verify", "--budget-steps", "1")),
    ("rank3-membership-not-equal", "rank3",
     ("membership", "(x1 , x2)", "--verify")),
    ("torus-pi", "torus", ("pi", "d1 t1 d2^-1 t1^-1")),
    ("trefoil-pi", "trefoil", ("pi", "d1 t1 d2^-1 t1^-1")),
    ("rank3-pi", "rank3", ("pi", "d1 t2 d3^-1 t3^-1")),
    ("conjugated-relators", "conjugated",
     ("relators", "--max-d-len", "3", "--verify")),
    ("square-relators", "square",
     ("relators", "--max-d-len", "3", "--verify")),
) + tuple(
    (f"{name}-{stem}", name, argv)
    for name in ("torus", "trefoil", "rank3")
    for stem, argv in (
        ("check", ("check",)),
        ("relators", ("relators", "--max-d-len", "2", "--verify")),
        ("embed-aut", ("embed-aut",)),
    )
)


@pytest.mark.parametrize("stem, presentation, argv", CASES,
                         ids=[case[0] for case in CASES])
def test_reduce_identity_output_is_pinned(tmp_path, stem, presentation, argv):
    path = tmp_path / f"{presentation}.txt"
    path.write_text(PRESENTATIONS[presentation])
    command, *args = argv
    res = CliRunner().invoke(main, [command, str(path), *args])
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
