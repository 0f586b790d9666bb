"""Golden CLI transcript: the output of a fixed set of invocations.

Each case runs cli.main and records its argv, stdout, stderr and exit
code.  The committed transcript in data/cli_golden.txt must be
reproduced byte for byte, so any change to a normal form, a trace step,
a class representative, a conjugator or the output layout shows up
here.  Regenerate it (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import io
import shlex
import sys
from pathlib import Path

from surfgroup.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.txt"

# argv tokens of the form @name stand for the file data/name
CASES = [
    ["nf", "-g", "2", "--trace", "c1 c2 c3 c4 c4^-1 c1 c2 c3 c4"],
    ["nf", "-g", "2", "--trace", "--format", "json",
     "c4 c1^-1 c2^-1 c3^-1 c1^-1 c2^-1 c3^-1 c4^-1 c1 c2"],
    ["nf", "-g", "2", "--trace", "--file", "@golden_words_g2.txt"],
    ["nf", "-g", "2", "--trace", "--format", "json", "--file", "@golden_words_g2.txt"],
    ["nf", "-g", "3", "--trace", "--file", "@golden_words_g3.txt"],
    ["nf", "-g", "3", "--trace", "--format", "json", "--file", "@golden_words_g3.txt"],
    ["class-nf", "-g", "2", "--file", "@golden_words_g2.txt"],
    ["class-nf", "-g", "2", "--format", "json", "--file", "@golden_words_g2.txt"],
    ["class-nf", "-g", "3", "--file", "@golden_words_g3.txt"],
    ["class-nf", "-g", "3", "--format", "json", "--file", "@golden_words_g3.txt"],
    ["class-nf", "-g", "2", "c3 c4 c1^-1"],
    ["conj", "-g", "2", "--file", "@golden_pairs_g2.txt"],
    ["conj", "-g", "2", "--format", "json", "--file", "@golden_pairs_g2.txt"],
    ["conj", "-g", "3", "--file", "@golden_pairs_g3.txt"],
    ["conj", "-g", "3", "--format", "json", "--file", "@golden_pairs_g3.txt"],
    ["power", "-g", "2", "-k", "3", "--file", "@golden_words_g2.txt"],
    ["power", "-g", "2", "-k", "7", "--format", "json", "--file", "@golden_words_g2.txt"],
    ["power", "-g", "3", "-k", "5", "--file", "@golden_words_g3.txt"],
    ["power", "-g", "3", "-k", "2", "--format", "json", "--file", "@golden_words_g3.txt"],
    ["root", "-g", "2", "--file", "@golden_words_g2.txt"],
    ["root", "-g", "2", "--format", "json", "c1 c2 c1 c2 c1 c2"],
    ["root", "-g", "3", "--file", "@golden_words_g3.txt"],
    ["root", "-g", "3", "--format", "json", "--file", "@golden_words_g3.txt"],
]


def _run(argv):
    resolved = [str(DATA / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    return code, out.getvalue(), err.getvalue()


def transcript() -> str:
    parts = []
    for argv in CASES:
        code, out, err = _run(argv)
        parts.append(f"$ surfgroup {shlex.join(argv)}\n{out}")
        if err:
            parts.append(f"[stderr]\n{err}")
        parts.append(f"[exit {code}]\n")
    return "".join(parts)


def test_cli_output_matches_the_golden_transcript():
    assert transcript().encode("utf-8") == GOLDEN.read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_golden.py --write")
    GOLDEN.write_bytes(transcript().encode("utf-8"))
