"""Command line interface: output shapes, batch mode, exit codes."""

import json
import os
import random
import subprocess
import sys
import time
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import surfgroup
from helpers import random_relator_heavy, replay
from surfgroup import cli, conjugacy
from surfgroup.cli import _COMMANDS, Request, _build_parser, main, run, run_file
from surfgroup.group_core import GroupContext, VerificationError, parse_word
from surfgroup.oracle import dehn_equal
from surfgroup.rewrite import normalize

DATA = Path(__file__).parent / "data"


def doc_of(code_out_err):
    code, out, err = code_out_err
    assert code == 0, err
    return json.loads(out)


def test_nf_text():
    code, out, err = run(Request("nf", 2, ("c1 c2 c3 c4",)))
    assert (code, err) == (0, "")
    assert out == "c4 c3 c2 c1\nlength 4"


def test_nf_trace_text():
    code, out, _ = run(Request("nf", 2, ("c1 c2 c3 c4",), {"trace": True}))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c4 c3 c2 c1"
    assert lines[1] == "length 4"
    assert lines[2] == "S4b(t=1)@0: c1 c2 c3 c4 -> c4 c3 c2 c1"


def test_nf_json_schema():
    doc = doc_of(run(Request("nf", 2, ("c1 c1^-1",), {"format": "json"})))
    assert doc == {
        "command": "nf",
        "genus": 2,
        "input": ["c1 c1^-1"],
        "result": "e",
        "length": 0,
    }


def test_trace_replays_by_splicing():
    doc = doc_of(run(Request("nf", 2, ("c1 c2 c3 c4 c4^-1 c1 c2 c3 c4",),
                             {"format": "json", "trace": True})))
    w = parse_word("c1 c2 c3 c4 c4^-1 c1 c2 c3 c4", 2)
    for step in doc["trace"]:
        a = step["start"]
        matched = parse_word(step["matched"], 2)
        replacement = parse_word(step["replacement"], 2)
        assert w[a:a + len(matched)] == matched
        w = w[:a] + replacement + w[a + len(matched):]
    assert w == parse_word(doc["result"], 2)


TRACED = "c1 c2 c3 c4 c4^-1 c1 c2 c3 c4"


def trace_accepted_reference(ctx, w, final, steps) -> bool:
    """Whether steps replay to final by splicing the whole word each time,
    with each step's two sides equal by dehn_equal."""
    try:
        end = replay(w, steps)
    except ValueError:
        return False
    return end == final and all(dehn_equal(ctx, s.matched, s.replacement) for s in steps)


def test_the_trace_check_agrees_with_the_reference():
    """The traces normalize records pass the check at several genera.
    With one step corrupted (its start moved, a replacement letter
    changed, its two sides swapped, or the step dropped), the check
    rejects exactly when the reference does."""
    rng = random.Random(2801)
    rejected = 0
    for genus in (2, 3, 8):
        ctx = GroupContext(genus)
        for _ in range(40):
            w = random_relator_heavy(ctx, rng.randrange(1, 200), rng)
            final, steps = normalize(ctx, w)
            cli._check_trace(ctx, w, final, steps)
            if not steps:
                continue
            k = rng.randrange(len(steps))
            s = steps[k]
            bad = rng.choice([
                [s._replace(start=max(0, s.start + rng.choice((-1, 1))))],
                [s._replace(replacement=s.replacement + (rng.choice(ctx.letters),))],
                [s._replace(matched=s.replacement, replacement=s.matched)],
                [],
            ])
            forged = steps[:k] + tuple(bad) + steps[k + 1:]
            expected = trace_accepted_reference(ctx, w, final, forged)
            try:
                cli._check_trace(ctx, w, final, forged)
            except VerificationError:
                assert not expected, (w, forged)
                rejected += 1
            else:
                assert expected, (w, forged)
    assert rejected > 50


@pytest.mark.parametrize("how", ["replacement", "start", "swapped", "dropped", "padded",
                                 "forged"])
def test_a_corrupted_trace_exits_3(monkeypatch, capsys, how):
    """nf --trace checks its steps before it prints them.  One corrupted
    step (a letter of its replacement changed, its start moved, its two
    sides swapped, the step dropped, the last replacement padded with a
    cancelling pair, or a letter of the last replacement changed along
    with the normal form, so that the trace replays to it) makes it exit
    3 with the input named, and print nothing on stdout."""
    real = cli.normalize

    def corrupted(ctx, w, *, trace):
        final, steps = real(ctx, w, trace=trace)
        assert len(steps) == 3
        k = 2 if how in ("padded", "forged") else 1
        s = steps[k]
        flipped = s._replace(replacement=s.replacement[:-1] + (-s.replacement[-1],))
        changed = {
            "replacement": [flipped],
            "start": [s._replace(start=s.start + 1)],
            "swapped": [s._replace(matched=s.replacement, replacement=s.matched)],
            "dropped": [],
            "padded": [s._replace(replacement=s.replacement + (1, -1))],
            "forged": [flipped],
        }[how]
        if how == "forged":
            # a wrong normal form whose trace replays to it
            final = flipped.replacement
        return final, steps[:k] + tuple(changed) + steps[k + 1:]

    monkeypatch.setattr(cli, "normalize", corrupted)
    assert main(["nf", "--trace", TRACED]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: verification failed for {TRACED!r}: ")


def test_nf_without_trace_checks_nothing(monkeypatch):
    """Without --trace nothing is recorded or checked, and the output is as before."""
    monkeypatch.setattr(cli, "_check_trace", lambda *args: pytest.fail("checked"))
    assert run(Request("nf", 2, (TRACED,))) == (0, "c4 c3 c2 c1 c3 c2 c1\nlength 7", "")


def test_len_and_tau_and_power():
    # c1 c2 c3 c4 transports to c4 c3 c2 c1, whose tail cancels the c1^-1
    assert run(Request("len", 2, ("c1 c2 c3 c4 c1^-1",)))[1] == "3"
    assert run(Request("tau", 2, ("c1",)))[1] == "1"
    code, out, _ = run(Request("power", 2, ("c1 c2",), {"k": 3}))
    assert code == 0
    assert out.splitlines()[0] == "c1 c2 c1 c2 c1 c2"


def test_ci_and_root_and_class_nf():
    assert run(Request("ci", 2, ("c1 c2",)))[1].splitlines()[0] == "c1 c2"
    code, out, _ = run(Request("root", 2, ("c1 c2 c1 c2 c1 c2",)))
    assert out == "c1 c2\nexponent 3"
    code, out, _ = run(Request("class-nf", 2, ("c1 c4",)))
    assert out == "c4 c1\nconjugator c4\nexceptional no"


def test_class_nf_exceptional_flag():
    doc = doc_of(run(Request("class-nf", 2, ("c3 c4 c1^-1",), {"format": "json"})))
    cert = doc["certificate"]
    assert doc["result"] == "c4 c3 c1^-1"
    assert cert["exceptional"] is True
    assert cert["class_nf"] == doc["result"]


def test_conj_and_conj_power_and_rp():
    code, out, _ = run(Request("conj", 2, ("c3 c4 c1^-1", "c4 c3 c1^-1")))
    lines = out.splitlines()
    assert lines[0] == "conjugate: yes"
    assert lines[1].startswith("conjugator ")
    assert run(Request("conj", 2, ("c1", "c2")))[1] == "conjugate: no"

    doc = doc_of(run(Request("conj-power", 2,
                             ("c1 c2 c1 c2", "c3 c1 c2 c1 c2 c1 c2 c3^-1"),
                             {"format": "json"})))
    assert doc["result"]["found"] is True
    assert (doc["result"]["m"], doc["result"]["n"]) == (3, 2)

    assert run(Request("rp", 2, ("c4 c3", "c2 c1")))[1] == "C1 e\nC2 e"


def test_translate_and_check():
    code, out, _ = run(Request("translate", 2, ("a1 a1",)))
    assert out == "c1 c3\nlength 2"
    doc = doc_of(run(Request("check", 2, ("a1",),
                             {"format": "json", "k_max": 3})))
    assert doc["result"] == {"holds": True, "t": 4}
    code, out, _ = run(Request("check", 2, ("c1",), {"presentation": "symmetric"}))
    assert out == "holds: yes\nt 2"


def test_oracle_commands():
    assert run(Request("oracle-equal", 2,
                       ("c1 c2 c3 c4 c1^-1 c2^-1 c3^-1 c4^-1", "e")))[1] == "equal: yes"
    assert run(Request("oracle-conj", 2, ("c1 c2", "c2 c1")))[1] == "conjugate: yes"
    code, out, _ = run(Request("oracle-ball", 2, (), {"radius": 2, "count_only": True}))
    assert out == "count 65"
    code, out, _ = run(Request("oracle-ball", 2, (), {"radius": 1}))
    lines = out.splitlines()
    assert lines[0] == "count 9"
    assert lines[1] == "e"
    assert len(lines) == 10


def test_exit_codes():
    assert run(Request("nf", 2, ("c9",)))[0] == 2  # parse error
    assert run(Request("class-nf", 2, ("e",)))[0] == 1  # trivial element
    assert run(Request("nf", 1, ("c1",)))[0] == 1  # genus out of range
    code, _, err = run(Request("nf", 1, ("c1",)))
    assert "genus must be between 2 and 64" in err


def test_run_refuses_the_wrong_number_of_words():
    """run checks the word count itself, as a batch line does: a missing
    or an extra word is an error line with exit code 2, not a TypeError
    or a word silently ignored."""
    for request, arity, given in ((Request("nf", 2, ("c1", "c2")), 1, 2),
                                  (Request("conj", 2, ("c1",)), 2, 1),
                                  (Request("oracle-ball", 2, ("c1",), {"radius": 1}), 0, 1)):
        assert run(request) == (
            2, "", f"error: expected {arity} tab-separated word(s), got {given}")


def test_oversized_power_exits_1_at_once(capsys):
    # k = 10^9 would be 2 * 10^9 letters; it is refused before allocation
    assert main(["power", "-k", "1000000000", "c1 c2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: x^1000000000 has 2000000000 letters")


def test_conj_power_past_the_power_limit_exits_0(capsys):
    """y^2499 would exceed MAX_POWER_LETTERS; conj-power builds no power."""
    x, y = " ".join(["c1 c2"] * 2499), " ".join(["c1 c2"] * 2500)
    assert main(["conj-power", x, y]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == ["found: yes", "m 2500", "n 2499"]


def test_oversized_check_exits_1_at_once(capsys):
    # t = 4 for the canonical order, so the power words x^4 .. x^400000
    # add up to 4 * 2 * 10^5 * (10^5 + 1) / 2 letters; it is refused
    # before any power
    assert main(["check", "--presentation", "canonical", "--kmax", "100000", "a1 a2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: checking up to k = 100000: the power words x^4 .. x^400000 add up "
        "to 40000400000 letters, more than the limit of 10000000\n")


def test_check_refuses_kmax_below_1(capsys):
    # as power -k 0 is refused, instead of quietly checking up to k = 2
    for k_max in ("0", "-5"):
        assert main(["check", "--kmax", k_max, "a1"]) == 1
        assert capsys.readouterr() == ("", f"error: k_max must be >= 1, got {k_max}\n")


def test_order_with_more_than_one_face_exits_1(tmp_path, capsys):
    # faces of 6, 1 and 1 letters: no gluing of the 8-gon, so the check
    # is refused instead of answering "holds: no"
    path = tmp_path / "faces.pres"
    path.write_text("genus 2\nC2 c2 c1 C3 c3 c4 C1 C4\n")
    assert main(["check", "--presentation", f"file:{path}", "c2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: the cyclic order has 3 faces, not 1, so it is not "
        "a one-vertex gluing of the 8-gon\n")
    assert main(["check", "--presentation", f"file:{DATA / 'golden_pres_g2.txt'}", "a1 a2"]) == 0


def test_batch_loads_its_presentation_file_once(tmp_path, monkeypatch):
    """A batch reads --presentation file:P once, not once per line, and
    answers each line as a single request does."""
    calls = []
    real = cli.load_descriptor
    monkeypatch.setattr(cli, "load_descriptor", lambda path: calls.append(path) or real(path))
    pres = f"file:{DATA / 'golden_pres_g2.txt'}"
    words = ["a1", "a2 a3", "A4 a1 a1", "e", "a9"]
    batch = tmp_path / "words.txt"
    batch.write_text("\n".join(words * 4) + "\n")
    for command in ("translate", "check"):
        calls.clear()
        code, out, _ = run_file(batch, command, {"genus": 2, "presentation": pres})
        assert len(calls) == 1
        assert code == 1
        single = []
        for line, word in enumerate(words * 4, start=1):
            c, o, e = run(Request(command, 2, (word,), {"presentation": pres}))
            single.append("; ".join(o.splitlines()) if c == 0 else f"line {line}: {e}")
        errors = sum(line.startswith("line ") for line in single)
        assert errors
        assert out.splitlines() == single + [f"processed 20 ok {20 - errors} errors {errors}"]


def test_batch_with_a_refused_presentation_file_fails_every_line(tmp_path):
    """The file is refused once, and every line that needs it fails with
    exit 1 and the file's path, as before it was read once per batch."""
    pres = tmp_path / "faces.pres"
    pres.write_text("genus 2\nC2 c2 c1 C3 c3 c4 C1 C4\n")
    batch = tmp_path / "words.txt"
    batch.write_text("a1\na2\ta3\nA4 a1\n")
    message = (f"error: {pres}: the cyclic order has 3 faces, not 1, so it is not "
               "a one-vertex gluing of the 8-gon")
    code, out, _ = run_file(batch, "translate", {"genus": 2, "presentation": f"file:{pres}"})
    assert code == 1
    assert out.splitlines() == [
        f"line 1: {message}",
        "line 2: error: expected 1 tab-separated word(s), got 2",
        f"line 3: {message}",
        "processed 3 ok 0 errors 3",
    ]
    missing = tmp_path / "missing.pres"
    batch.write_text("a1\na2\n")
    assert run_file(batch, "check", {"genus": 2, "presentation": f"file:{missing}"}) == (
        1, f"line 1: error: {missing}: No such file or directory\n"
           f"line 2: error: {missing}: No such file or directory\n"
           "processed 2 ok 0 errors 2", "")


def test_oracle_conj_is_refused_over_its_cap(monkeypatch, capsys):
    """n_u * n_v * (4g + 1) dehn_equal calls on n_u + n_v letters each:
    over ORACLE_CONJ_CAP, exit 1 before dehn_conjugate starts."""
    # c1 c2 against c2 c1 at genus 2: 2 * 2 * 9 = 36 calls on 4 letters
    monkeypatch.setattr(cli, "ORACLE_CONJ_CAP", 144)
    assert run(Request("oracle-conj", 2, ("c1 c2", "c2 c1"))) == (0, "conjugate: yes", "")
    # the lengths are taken after free reduction
    assert run(Request("oracle-conj", 2, ("c1 c3 c3^-1 c2", "c2 c1")))[1] == "conjugate: yes"
    monkeypatch.setattr(cli, "ORACLE_CONJ_CAP", 143)
    monkeypatch.setattr(cli, "dehn_conjugate", lambda *args: pytest.fail("ran"))
    assert run(Request("oracle-conj", 2, ("c1 c2", "c2 c1"))) == (
        1, "", "error: oracle conj could make 36 dehn_equal calls on 4 letters each, "
               "more than the cap of 143 letters")
    monkeypatch.undo()
    # 200 letters against 200 at genus 2: 360,000 calls on 400 letters each
    word = " ".join(["c1 c2"] * 100)
    assert main(["oracle", "conj", word, word]) == 1
    assert capsys.readouterr().err == (
        "error: oracle conj could make 360000 dehn_equal calls on 400 letters each, "
        "more than the cap of 10000000 letters\n")


def test_unknown_presentation_exits_1(capsys):
    # neither canonical, symmetric nor file:PATH
    assert main(["translate", "--presentation", "bogus", "c1"]) == 1
    assert capsys.readouterr() == ("", "error: unknown presentation 'bogus'\n")


def test_presentation_of_another_genus_exits_1(tmp_path, capsys):
    pres = f"file:{DATA / 'golden_pres_g2.txt'}"
    for argv in (["translate", "-g", "3", "--presentation", pres, "a1"],
                 ["translate", "-g", "3", "--format", "json", "--presentation", pres,
                  "a1 a3 a3"],
                 ["check", "-g", "3", "--presentation", pres, "a1 a2"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: presentation 'golden_pres_g2' has genus 2, not 3\n"
    batch = tmp_path / "words.txt"
    batch.write_text("a1\na2 a3\n")
    code, out, _ = run_file(batch, "translate", {"genus": 3, "presentation": pres})
    assert code == 1
    assert out.splitlines()[-1] == "processed 2 ok 0 errors 2"


def test_failed_verification_exits_3_and_names_the_input(monkeypatch, capsys):
    monkeypatch.setattr(conjugacy, "_verify_conjugation", lambda *args: False)
    message = "error: verification failed for 'c1 c2': class certificate failed verification"
    assert run(Request("class-nf", 2, ("c1 c2",))) == (3, "", message)
    assert main(["class-nf", "c1 c2"]) == 3
    assert capsys.readouterr().err == message + "\n"


def test_batch_goes_on_past_a_failed_verification(monkeypatch, tmp_path):
    real = conjugacy._verify_conjugation
    monkeypatch.setattr(conjugacy, "_verify_conjugation",
                        lambda ctx, z, x, target: x != (1, 2) and real(ctx, z, x, target))
    f = tmp_path / "words.txt"
    f.write_text("c1 c2\nc9\nc3 c4\n")
    code, out, _ = run_file(f, "class-nf", {"genus": 2})
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == ("line 1: error: verification failed for 'c1 c2': "
                        "class certificate failed verification")
    assert lines[1].startswith("line 2: error: bad token 'c9'")
    assert lines[2] == "c4 c3; conjugator c4; exceptional no"
    assert lines[3] == "processed 3 ok 1 errors 2"
    code, out, _ = run_file(f, "class-nf", {"genus": 2, "format": "json"})
    assert code == 3
    docs = json.loads(out)
    assert docs[0]["error"].startswith("verification failed for 'c1 c2'")
    assert docs[1]["error"].startswith("bad token 'c9'")
    assert docs[2]["result"] == "c4 c3"


def test_batch_ok(tmp_path):
    f = tmp_path / "words.txt"
    f.write_text("c1 c2 c3 c4\n\n# comment\nc1 c1^-1\nc2\n")
    code, out, err = run_file(f, "nf", {"genus": 2})
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c4 c3 c2 c1; length 4"
    assert lines[1] == "e; length 0"
    assert lines[2] == "c2; length 1"
    assert lines[3] == "processed 3 ok 3 errors 0"


def test_batch_with_errors(tmp_path):
    f = tmp_path / "words.txt"
    f.write_text("c1\nc9\nc2\n")
    code, out, _ = run_file(f, "nf", {"genus": 2})
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "c1; length 1"
    assert lines[1].startswith("line 2: error: bad token 'c9'")
    assert lines[2] == "c2; length 1"
    assert lines[3] == "processed 3 ok 2 errors 1"


def test_an_index_int_refuses_is_a_parse_error(tmp_path, capsys):
    """An index of more than 4300 digits, which int refuses: a single
    request exits 2, and a batch file reports the line and goes on."""
    token = "c" + "9" * 5000
    message = f"bad token {token!r} at position 1: index out of range for genus 2"
    assert main(["nf", token]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    f = tmp_path / "words.txt"
    f.write_text(f"{token}\nc1 c2\n")
    code, out, err = run_file(f, "nf", {"genus": 2})
    assert (code, err) == (1, "")
    assert out.splitlines() == [f"line 1: error: {message}", "c1 c2; length 2",
                                "processed 2 ok 1 errors 1"]


def test_batch_pairs_and_json(tmp_path):
    f = tmp_path / "pairs.txt"
    f.write_text("c1 c2\tc2 c1\nc1\tc2\n")
    code, out, _ = run_file(f, "conj", {"genus": 2, "format": "json"})
    assert code == 0
    docs = json.loads(out)
    assert [d["line"] for d in docs] == [1, 2]
    assert docs[0]["result"]["conjugate"] is True
    assert docs[1]["result"]["conjugate"] is False


def test_batch_arity_mismatch(tmp_path):
    f = tmp_path / "pairs.txt"
    f.write_text("c1 c2\n")
    code, out, _ = run_file(f, "conj", {"genus": 2})
    assert code == 1
    assert "expected 2 tab-separated word(s), got 1" in out


def test_batch_empty_file(tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("# nothing here\n\n")
    assert run_file(f, "nf", {"genus": 2}) == (0, "", "")


def test_batch_missing_file(tmp_path):
    code, out, err = run_file(tmp_path / "nope.txt", "nf", {"genus": 2})
    assert code == 1
    assert "error:" in err


def test_main_entry_point(capsys):
    assert main(["nf", "c1 c2 c3 c4"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "c4 c3 c2 c1"

    assert main(["oracle", "ball", "--radius", "0", "--count-only"]) == 0
    assert capsys.readouterr().out == "count 1\n"

    assert main(["nf", "c9"]) == 2
    assert "error:" in capsys.readouterr().err

    assert main(["nf"]) == 2  # missing word argument
    capsys.readouterr()

    # words come from the arguments or from --file, never both; the
    # subcommand's own parser says so, with its own usage line
    batch = str(DATA / "golden_words_g2.txt")
    for argv, prog in ((["nf", "c3 c4", "--file", batch], "surfgroup nf"),
                       (["oracle", "equal", "c1", "c2", "--file", batch], "surfgroup oracle equal")):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: {prog} [-h]")
        assert f"{prog}: error: words and --file cannot be combined" in captured.err

    assert main(["power", "-k", "2", "c1", "-g", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "c1 c1"

    assert main(["class-nf", "e"]) == 1
    capsys.readouterr()


def test_main_reuses_one_parser(tmp_path, capsys):
    """The parser is built once per process.  A parse error between two
    runs of one argv changes neither run's exit code, stdout or stderr."""
    f = tmp_path / "w.txt"
    f.write_text("c1 c2 c3 c4\nc9\n")
    for argv, error in (
        (["nf", "--trace", "-g", "3", "c1 c2 c3 c4 c5 c6 c1^-1"], ["nf", "-g", "x", "c1"]),
        (["power", "-k", "3", "c1 c2"], ["power", "c1"]),
        (["conj", "c1", "c2 c1 c2^-1"], ["conj", "c1"]),
        (["nf", "--format", "json", "--file", str(f)], ["nf", "--format", "xml", "c1"]),
    ):
        first = main(argv), capsys.readouterr()
        assert main(error) == 2
        assert capsys.readouterr().err
        assert (main(argv), capsys.readouterr()) == first
    assert _build_parser() is _build_parser()


def test_oversized_ball_exits_1_at_once(capsys):
    start = time.perf_counter()
    assert main(["oracle", "ball", "-g", "64", "--radius", "5", "--count-only"]) == 1
    assert time.perf_counter() - start < 0.1
    err = capsys.readouterr().err
    assert err.startswith("error: a ball of radius 5 has at least ")


def test_main_batch(tmp_path, capsys):
    f = tmp_path / "w.txt"
    f.write_text("c1\nc2\n")
    assert main(["len", "--file", str(f)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["1", "1", "processed 2 ok 2 errors 0"]


def test_main_batch_not_utf8(tmp_path, capsys):
    f = tmp_path / "latin1.txt"
    f.write_bytes(b"c1 c2\n\xe9\xff\n")
    assert main(["nf", "--file", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {f}: not valid UTF-8\n"


def test_main_missing_presentation_file(tmp_path, capsys):
    missing = tmp_path / "missing.pres"
    assert main(["translate", "--presentation", f"file:{missing}", "a1"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {missing}: No such file or directory\n"
    bad = tmp_path / "bad.pres"
    bad.write_bytes(b"genus 2\n\xff\n")
    assert main(["check", "--presentation", f"file:{bad}", "a1"]) == 1
    assert capsys.readouterr().err == f"error: {bad}: not valid UTF-8\n"


def test_an_empty_presentation_file_name_exits_1(capsys):
    """--presentation file: names no file, and the error says so."""
    assert main(["translate", "--presentation", "file:", "a1"]) == 1
    assert capsys.readouterr() == ("", "error: descriptor file name is empty\n")


@pytest.mark.parametrize("genus", ["\u00b2", "3\u00b2", "9" * 5000],
                         ids=["superscript", "digit-superscript", "5000-digits"])
def test_genus_line_that_int_refuses_exits_1(tmp_path, capsys, genus):
    """Digits that str.isdigit accepts and int refuses: a superscript, or
    more than 4300 of them.  main exits 1 and names the genus line."""
    pres = tmp_path / "P.pres"
    pres.write_text(f"genus {genus}\na1 A2 A1 a2\n", encoding="utf-8")
    assert main(["translate", "--presentation", f"file:{pres}", "a1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {pres}: first line must be 'genus <g>'\n"


@pytest.mark.parametrize("text, reason", [
    ("genus 2\nc1 C2 C1 c2 c3 C4 C3 q4\n", "bad token 'q4' at position 8: expected letter 'c'"),
    ("genus 2\nc1 C2 C1 c2 c3 C4 C3 c9\n",
     "bad token 'c9' at position 8: index out of range for genus 2"),
    ("genus 99\na1 A2 A1 a2 a3 A4 A3 a4\n", "genus 99 out of range"),
    ("genus 2\nc1 c1 C1 c2 c3 C4 C3 c4\n", "cyclic order must list each signed generator once"),
], ids=["foreign-letter", "index-out-of-range", "genus-99", "repeated-letter"])
def test_refused_order_line_names_the_file_and_exits_1(tmp_path, capsys, text, reason):
    pres = tmp_path / "P.pres"
    pres.write_text(text, encoding="utf-8")
    assert main(["translate", "--presentation", f"file:{pres}", "a1"]) == 1
    assert capsys.readouterr() == ("", f"error: {pres}: {reason}\n")


SRC = str(Path(surfgroup.__file__).parents[1])

# the three ways to start the command line without an installed script
_ENTRY_POINTS = (
    ["-c", "import sys; from surfgroup.cli import main; sys.exit(main())"],
    ["-m", "surfgroup"],
    ["-m", "surfgroup.cli"],
)


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv, code", [
    (["nf", "c1 c2 c3 c4"], 0),
    (["nf", "--file", str(DATA / "golden_mixed_g2.txt")], 1),
])
def test_main_into_a_closed_pipe(argv, code, unbuffered):
    """A reader that has gone (`surfgroup nf ... | head -n 1`) costs no
    traceback: stderr stays empty and the exit code is the request's
    own, whichever way the command line is started."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED=unbuffered)
    for entry in _ENTRY_POINTS:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, *entry, *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.stderr == b"", entry
        assert proc.returncode == code, entry


def _python_m(module, *argv):
    """(exit code, stdout, stderr) of `python -m module argv...`."""
    proc = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


@pytest.mark.parametrize("module", ["surfgroup", "surfgroup.cli"])
def test_python_m_runs_the_cli(module):
    assert _python_m(module, "nf", "c1 c2 c3 c4") == (0, "c4 c3 c2 c1\nlength 4\n", "")


def test_python_m_smoke_checks(tmp_path):
    """End-to-end checks through `python -m surfgroup`, which needs no
    install: a batch file, an index int refuses, the g = 64 relator of
    the canonical presentation, the --kmax letter cap and an order with
    three faces."""
    code, out, err = _python_m("surfgroup", "class-nf", "--file",
                               str(DATA / "golden_words_g2.txt"))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "processed 6 ok 6 errors 0"

    big = tmp_path / "big.txt"
    big.write_text("c" + "9" * 5000 + "\nc1 c2\n")
    code, out, err = _python_m("surfgroup", "nf", "--file", str(big))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0].startswith("line 1: error: bad token ")
    assert lines[-1] == "processed 2 ok 1 errors 1"

    # [a1, a2][a3, a4]...[a127, a128], the relator, translated and reduced
    relator = " ".join(f"a{i} a{i + 1} A{i} A{i + 1}" for i in range(1, 128, 2))
    code, out, err = _python_m("surfgroup", "translate", "-g", "64", relator)
    assert (code, err) == (0, "")
    translated = out.splitlines()[0]
    assert translated and translated != "e"
    code, out, err = _python_m("surfgroup", "nf", "-g", "64", translated)
    assert (code, out, err) == (0, "e\nlength 0\n", "")
    assert _python_m("surfgroup", "oracle", "equal", "-g", "64", translated, "e") == (
        0, "equal: yes\n", "")

    # the up-front letter cap admits --kmax 1290 for a1 a2 a3, not 1291
    check = ["check", "--presentation", "canonical", "a1 a2 a3", "--kmax"]
    assert _python_m("surfgroup", *check, "1290") == (0, "holds: yes\nt 4\n", "")
    code, out, err = _python_m("surfgroup", *check, "1291")
    assert (code, out) == (1, "")
    assert "more than the limit" in err

    faces = tmp_path / "faces.pres"
    faces.write_text("genus 2\nC2 c2 c1 C3 c3 c4 C1 C4\n")
    code, out, err = _python_m("surfgroup", "check", "--presentation", f"file:{faces}", "c2")
    assert (code, out) == (1, "")
    assert "the cyclic order has 3 faces, not 1" in err


def test_a_descriptor_named_in_e_reads_its_words_in_e(tmp_path, capsys):
    """A descriptor's order and the words handed to it are read with one
    rule for the letter: 'e' names generators unless it is a whole token.
    The canonical order named in e and in a translates e1 e2 and a1 a2
    to the same word."""
    for order, word in (("e1 E2 E1 e2 e3 E4 E3 e4", "e1 e2"),
                        ("a1 A2 A1 a2 a3 A4 A3 a4", "a1 a2")):
        path = tmp_path / f"{word[0]}.pres"
        path.write_text(f"genus 2\n{order}\n")
        assert main(["translate", "--presentation", f"file:{path}", word]) == 0
        assert capsys.readouterr() == ("c1 c2\nlength 2\n", "")


# --- fuzzing main: every argv and every batch file ends in an exit code

_VALID = ("c1", "c2", "C3", "c4^-1", "a1", "A2", "e")
_INVALID = ("c6", "*", "c0", "c1^2", "x", "^", "\u00e9")
_WORD = (st.lists(st.sampled_from(_VALID), max_size=8)
         | st.lists(st.sampled_from(_VALID + _INVALID), max_size=8)).map(" ".join)
_BAD = st.integers(-3, 0).map(str) | st.sampled_from(("", "x", "1e3"))


def _flag_values(path):
    pres = st.sampled_from(("canonical", "symmetric", "bogus", f"file:{path}",
                            f"file:{DATA / 'golden_pres_g2.txt'}", "file:"))
    return {
        "-g": st.sampled_from(("2", "3", "5")) | st.sampled_from(("0", "1", "65", "x")),
        "--format": st.sampled_from(("text", "json", "text", "json", "xml")),
        "--file": st.sampled_from((str(path), str(path.parent), str(path) + ".missing")),
        "--trace": None,
        "--count-only": None,
        "-k": st.integers(1, 50).map(str) | _BAD,
        "--kmax": st.integers(1, 5).map(str) | _BAD,
        "--radius": st.integers(0, 3).map(str) | _BAD,
        "--presentation": pres,
    }


_BATCH = st.binary(max_size=120) | st.lists(
    st.lists(_WORD, min_size=1, max_size=3).map("\t".join), max_size=6,
).map(lambda lines: "\n".join(lines).encode("utf-8"))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_main_never_raises(tmp_path, data):
    """Drawn argv and raw batch-file bytes: main returns 0, 1, 2 or 3.
    A drawn request handed to run with 0 to 3 words does too."""
    path = tmp_path / "batch.txt"
    path.write_bytes(data.draw(_BATCH))
    values = _flag_values(path)
    key = data.draw(st.sampled_from(sorted(_COMMANDS) + ["bogus"]))
    argv = ["oracle", key[len("oracle-"):]] if key.startswith("oracle-") else [key]
    own = ["-g", "--format", "--file"] + [
        names[0] for names, _ in getattr(_COMMANDS.get(key), "flags", ())]
    flags = [flag for flag in own if data.draw(st.booleans())]
    if data.draw(st.integers(0, 4)) == 4:
        flags.append(data.draw(st.sampled_from(list(values))))
    flags = data.draw(st.permutations(flags))
    for flag in flags:
        argv.append(flag)
        if values[flag] is not None:
            argv.append(data.draw(values[flag]))
    arity = getattr(_COMMANDS.get(key), "arity", 1)
    argv += data.draw(st.lists(_WORD, min_size=arity, max_size=arity) | st.lists(_WORD, max_size=3))
    assert main(argv) in (0, 1, 2, 3)
    # run, with no argument parser in front, checks its own requests
    words = tuple(data.draw(st.lists(_WORD, max_size=3)))
    request = Request(key, data.draw(st.sampled_from((2, 3, 1, 65))), words,
                      {"format": data.draw(st.sampled_from(("text", "json")))})
    code, out, err = run(request)
    assert code in (0, 1, 2, 3)
    assert (out == "") == err.startswith("error: ") == (code != 0)


def test_importing_the_cli_imports_no_json():
    """json is imported by the first JSON document the CLI writes, not
    with the CLI, and pathlib not at all: a descriptor file is opened by
    its name."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import surfgroup.cli, sys; print('json' in sys.modules, 'pathlib' in sys.modules)"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"False False\n", b"")


_json_text = st.text(st.one_of(st.characters(), st.sampled_from(
    ['"', "\\", "/", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "é", " ", "\ud800", "😀"])),
    max_size=12)
_json_ints = st.one_of(st.integers(), st.integers(min_value=2**64 - 2, max_value=2**80),
                       st.integers(min_value=-(2**80), max_value=-(2**64) + 2))
_json_docs = st.recursive(
    st.one_of(_json_text, _json_ints, st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_json_text, inner, max_size=4)),
    max_leaves=24)


@given(doc=_json_docs)
@settings(max_examples=300, deadline=None)
def test_the_json_writer_matches_json_dumps(doc):
    """Nested dicts and lists, empty ones included, of str (non-ASCII,
    quotes, backslashes, control characters, a lone surrogate), int
    (negative and past 2**64), bool and None."""
    assert cli._dumps(doc) == json.dumps(doc, indent=2)


def test_the_json_writer_hands_other_values_to_json_dumps():
    """A float, a tuple or a dict subclass at any depth is written by
    json.dumps, its lines indented to their place; a dict key that is not
    a str sends the whole document there; a value json cannot write
    raises its TypeError."""
    docs = [
        1.5,
        [float("nan"), -0.0, 1e300],
        {"a": [(1, [2, {}]), {"b": 2.5}], "c": ()},
        {"x": {"y": [1, (), {"z": (None, "é")}]}},
        {"a": {1: "one", None: True, 2.5: [], False: {}}},
        [{"k": [1]}, {3: 4}],
        {"o": OrderedDict(b=1, a=[2, 3])},
    ]
    for doc in docs:
        assert cli._dumps(doc) == json.dumps(doc, indent=2)
    for doc in ([object()], {"a": {"b": {1, 2}}}):
        with pytest.raises(TypeError):
            cli._dumps(doc)


_ONE_PER_COMMAND = {
    "len": (2, ("c1 c2 c1^-1",), {}),
    "nf": (2, ("c1 c2 c3 c4 c4^-1 c1 c2 c3 c4",), {"trace": True}),
    "power": (2, ("c1 c2 c3",), {"k": 3}),
    "tau": (2, ("c1 c2 c3 c4 c1^-1",), {}),
    "ci": (2, ("c2 c1 c2 c3 c2^-1",), {}),
    "root": (2, ("c1 c2 c1 c2",), {}),
    "class-nf": (3, ("c1 c2 c3 c4 c5 c6 c1^-1",), {}),
    "conj": (2, ("c1 c2", "c2 c1"), {}),
    "conj-power": (2, ("c1 c2 c1 c2", "c3 c1 c2 c1 c2 c1 c2 c3^-1"), {}),
    "rp": (2, ("c1 c2 c3", "c4 c1"), {}),
    "translate": (2, ("c1 c2 c3",), {"presentation": "symmetric"}),
    "check": (2, ("a1 a2",), {}),
    "oracle-equal": (2, ("c1 c2", "c2 c1"), {}),
    "oracle-conj": (2, ("c1 c2", "c2 c1"), {}),
    "oracle-ball": (2, (), {"radius": 1}),
}


def test_one_json_document_per_command_is_json_dumps():
    assert list(_ONE_PER_COMMAND) == list(_COMMANDS)
    for command, (genus, words, options) in _ONE_PER_COMMAND.items():
        request = Request(command, genus, words, {"format": "json", **options})
        code, doc, _ = cli._attempt(request)
        assert code == 0, (command, doc)
        assert run(request) == (0, json.dumps(doc, indent=2), "")


def test_a_json_batch_with_error_lines_is_json_dumps(tmp_path):
    batch = tmp_path / "batch.txt"
    batch.write_text("c1 c2 c3\n# comment\nc1 é1 c2\n\nc1\tc2\nc1 c1^-1\n", encoding="utf-8")
    code, out, err = run_file(batch, "class-nf", {"format": "json", "genus": 2})
    assert (code, err) == (1, "")
    docs = json.loads(out)
    assert [doc["line"] for doc in docs] == [1, 3, 5, 6]
    assert ["error" in doc for doc in docs] == [False, True, True, True]
    assert "\\u00e9" in out
    assert out == json.dumps(docs, indent=2)
