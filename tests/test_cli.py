"""End-to-end runs of the command-line front end."""

import pytest
from click.testing import CliRunner

import mihailova.cli
from mihailova.cli import main
from mihailova.pairs import parse_mixed_word
from mihailova.peiffer import InconsistencyError, parse_certificate
from mihailova.automorphisms import parse_endomorphism
from mihailova.presentations import Presentation, parse_presentation
from mihailova.words import Word

TORUS_TEXT = "rank 2\nrelator x1 x2 x1^-1 x2^-1\n"
TREFOIL_TEXT = "rank 2\nrelator x1 x1 x2^-1 x2^-1 x2^-1\n"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, tmp_path, text, *args):
    path = tmp_path / "input.txt"
    path.write_text(text)
    return runner.invoke(main, [args[0], str(path), *args[1:]])


def test_check_torus(runner, tmp_path):
    res = invoke(runner, tmp_path, TORUS_TEXT, "check")
    assert res.exit_code == 0
    assert "# concise: yes; warnings: none" in res.output
    assert parse_presentation(res.output) == Presentation(2, (Word(2, (1, 2, -1, -2)),))


def test_check_drops_inverse_duplicate(runner, tmp_path):
    text = "rank 2\nrelator x1 x2 x1^-1 x2^-1\nrelator x2 x1 x2^-1 x1^-1\n"
    res = invoke(runner, tmp_path, text, "check")
    assert res.exit_code == 0
    assert "# concise: no" in res.output
    assert len(parse_presentation(res.output).relators) == 1


def test_check_parse_error_names_line(runner, tmp_path):
    res = invoke(runner, tmp_path, "rank 2\nrelator x0\n", "check")
    assert res.exit_code == 2
    assert "line 2" in res.output


def test_relators_counts_and_verification(runner, tmp_path):
    res = invoke(runner, tmp_path, TORUS_TEXT, "relators", "--max-d-len", "2",
                 "--verify")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    words = [l for l in lines if not l.startswith("#")]
    assert len(words) == 18
    assert lines[-1] == "# 18 relators, all in ker(pi)"
    for l in words:
        parse_mixed_word(l, 2, 1)
    res = invoke(runner, tmp_path, TORUS_TEXT, "relators", "--max-d-len", "0")
    assert len(res.output.splitlines()) == 2


def test_relators_verify_failure_stops_at_the_rejected_relator(
        runner, tmp_path, monkeypatch):
    checked = []

    def rejects_fifth(P, w):
        checked.append(w)
        return len(checked) != 5

    monkeypatch.setattr(mihailova.cli, "in_pair_kernel", rejects_fifth)
    res = invoke(runner, tmp_path, TORUS_TEXT, "relators", "--max-d-len", "1",
                 "--verify")
    assert res.exit_code == 1
    lines = res.output.splitlines()
    assert lines[-1] == "# verification failed for relator 5"
    assert len(lines) == 6 + 1  # the whole family, then the failure line
    assert not any("all in ker(pi)" in l for l in lines)
    assert len(checked) == 5


def test_membership_equal_with_certificate(runner, tmp_path):
    res = invoke(runner, tmp_path, TORUS_TEXT, "membership",
                 "(1 , x1 x2 x1^-1 x2^-1)", "--verify")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "equal-in-H"
    assert any(l.startswith("factor ") for l in lines)
    assert lines[-1] == "# certificate verified"


def test_membership_not_equal(runner, tmp_path):
    res = invoke(runner, tmp_path, TORUS_TEXT, "membership", "(x1 , 1)")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "not-equal-in-H"
    assert lines[1].startswith("obstruction ")


def test_membership_unknown(runner, tmp_path):
    res = invoke(runner, tmp_path, TREFOIL_TEXT, "membership",
                 "(x1 x2 x1^-1 x2^-1 , 1)", "--budget-steps", "500")
    assert res.exit_code == 0
    assert res.output == "unknown\n"


def test_membership_bad_pair(runner, tmp_path):
    res = invoke(runner, tmp_path, TORUS_TEXT, "membership", "x1 , x2")
    assert res.exit_code == 2


def test_pi_output(runner, tmp_path):
    res = invoke(runner, tmp_path, TORUS_TEXT, "pi", "t1 d2")
    assert res.exit_code == 0
    assert res.output == "(x2 , x1 x2 x1^-1)\n"
    res = invoke(runner, tmp_path, TORUS_TEXT, "pi", "t9")
    assert res.exit_code == 2


def test_reduce_identity_certificate(runner, tmp_path):
    word = "t1^-1 d2 d1 d2^-1 d1^-1 t1 d1 d2 d1^-1 d2^-1"
    res = invoke(runner, tmp_path, TORUS_TEXT, "reduce-identity", word,
                 "--verify")
    assert res.exit_code == 0
    assert "# certificate verified" in res.output
    cert = parse_certificate(
        Presentation(2, (Word(2, (1, 2, -1, -2)),)), res.output
    )
    assert cert.words[0] == parse_mixed_word(word, 2, 1)
    assert cert.words[-1].is_empty
    assert res.output.rstrip().endswith("\n1") or res.output.splitlines()[-1] == "1"


def test_reduce_identity_unknown_and_errors(runner, tmp_path):
    word = ("t1^-1 d2 d1 d2^-1 d1^-1 t1 d1 d2 d1^-1"
            " t1^-1 d2 d1 d2^-1 d1^-1 t1 d1 d2 d1^-1 d2^-1 d2^-1")
    res = invoke(runner, tmp_path, TORUS_TEXT, "reduce-identity", word,
                 "--budget-steps", "1")
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == "unknown"
    assert res.output.splitlines()[1].startswith("# budget exhausted")
    res = invoke(runner, tmp_path, TORUS_TEXT, "reduce-identity", "d1")
    assert res.exit_code == 2


def test_embed_aut_blocks(runner, tmp_path):
    res = invoke(runner, tmp_path, TORUS_TEXT, "embed-aut")
    assert res.exit_code == 0
    blocks = res.output.split("\n\n")
    assert len(blocks) == 3
    auts = [parse_endomorphism(b) for b in blocks]
    assert auts[2].image_q == Word(3, (1, 3, 2, -3, -2))
    assert all(e.fixes_ab() for e in auts)


def test_outputs_are_byte_deterministic(runner, tmp_path):
    for args in (
        ("check",),
        ("relators", "--max-d-len", "1", "--verify"),
        ("membership", "(1 , x1 x2 x1^-1 x2^-1)"),
        ("embed-aut",),
    ):
        first = invoke(runner, tmp_path, TORUS_TEXT, *args)
        second = invoke(runner, tmp_path, TORUS_TEXT, *args)
        assert first.output == second.output
        assert first.exit_code == second.exit_code == 0


def assert_usage_error(res, message):
    """Exit 2 through click's usage path: a message, no traceback."""
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert message in res.output


def test_reduce_identity_non_concise_presentation_is_usage_error(runner, tmp_path):
    text = "rank 2\nrelator x1 x2 x1^-1 x2^-1\nrelator x1 x2 x1^-1 x2^-1\n"
    res = invoke(runner, tmp_path, text, "reduce-identity", "t1^-1 t2")
    assert_usage_error(res, "cannot be concise")


def test_reduce_identity_trivial_relator_is_usage_error(runner, tmp_path):
    res = invoke(runner, tmp_path, "rank 2\nrelator x1 x1^-1\n", "reduce-identity", "t1")
    assert_usage_error(res, "cannot be concise")


def test_reduce_identity_invariant_failure_is_not_usage_error(runner, tmp_path, monkeypatch):
    def broken(*args):
        raise InconsistencyError("forced deletions do not match the reduced word")

    monkeypatch.setattr(mihailova.cli, "reduce_to_empty", broken)
    res = invoke(runner, tmp_path, TORUS_TEXT, "reduce-identity", "t1^-1 t1")
    assert res.exit_code == 1
    assert isinstance(res.exception, InconsistencyError)


def test_relators_negative_max_d_len_is_usage_error(runner, tmp_path):
    res = invoke(runner, tmp_path, TORUS_TEXT, "relators", "--max-d-len", "-1")
    assert_usage_error(res, "--max-d-len")


def test_relators_trivial_relator_is_usage_error(runner, tmp_path):
    res = invoke(runner, tmp_path, TORUS_TEXT + "relator x1 x1^-1\n", "relators")
    assert_usage_error(res, "relator 2 is trivial")


def test_embed_aut_rank_one_is_usage_error(runner, tmp_path):
    res = invoke(runner, tmp_path, "rank 1\nrelator x1 x1\n", "embed-aut")
    assert_usage_error(res, "rank >= 2")


@pytest.mark.parametrize("args", [
    ("membership", "(x1 , x1)", "--budget-steps", "-1"),
    ("reduce-identity", "t1^-1 t1", "--budget-steps", "-1"),
    ("reduce-identity", "t1^-1 t1", "--budget-insertions", "-1"),
])
def test_negative_budgets_are_usage_errors(runner, tmp_path, args):
    res = invoke(runner, tmp_path, TORUS_TEXT, *args)
    assert_usage_error(res, args[-2])
