"""Command-line front end.

One subcommand per engine operation, plus an `oracle` group for the
independent Dehn-algorithm checks.  Words use the grammar of
parse_word: whitespace- or '*'-separated tokens c1, c2^-1, C2, with e
for the empty word.  Output is plain text or a JSON document with the
stable fields {command, genus, input, result, length, trace?,
certificate?}.

Exit codes: 0 success, 1 domain error (trivial element where one is
forbidden, genus out of range, ...), 2 parse error (bad flags or bad
word syntax).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from .conjugacy import are_conjugate, class_nf, conj_power, reducing_pair, root
from .group_core import (
    MAX_GENUS,
    DomainError,
    GroupContext,
    WordParseError,
    format_word,
    parse_word,
)
from .oracle import dehn_conjugate, dehn_equal, enumerate_ball
from .powers import ci, nf_power, translation_number
from .presentations import (
    canonical_descriptor,
    check_coarse_formulae,
    load_descriptor,
    symmetric_descriptor,
    t_parameter,
    translate,
)
from .rewrite import nf, normalize

_ARITY = {
    "nf": 1,
    "len": 1,
    "power": 1,
    "tau": 1,
    "ci": 1,
    "root": 1,
    "class-nf": 1,
    "translate": 1,
    "check": 1,
    "conj": 2,
    "conj-power": 2,
    "rp": 2,
    "oracle-equal": 2,
    "oracle-conj": 2,
    "oracle-ball": 0,
}


@dataclass(frozen=True)
class Request:
    command: str
    genus: int = 2
    words: tuple = ()
    options: dict = field(default_factory=dict)


def _descriptor(name: str, genus: int):
    if name == "canonical":
        return canonical_descriptor(genus)
    if name == "symmetric":
        return symmetric_descriptor(genus)
    if name.startswith("file:"):
        return load_descriptor(name[5:])
    raise DomainError(f"unknown presentation {name!r}")


def _parse_auto(text: str, genus: int):
    """Parse with the generator base letter sniffed from the text."""
    base = next((ch for ch in text if ch.isalpha() and ch not in "eE"), "c")
    return parse_word(text, genus, base=base.lower())


def _execute(command: str, genus: int, words, options: dict) -> dict:
    """Run one request; returns the document fields beyond command/genus/input."""
    if not 2 <= genus <= MAX_GENUS:
        raise DomainError(f"genus must be between 2 and {MAX_GENUS}, got {genus}")
    ctx = GroupContext(genus)
    opt = options.get

    if command == "nf":
        final, trace = normalize(ctx, parse_word(words[0], genus), trace=opt("trace"))
        doc = {"result": format_word(final), "length": len(final)}
        if opt("trace"):
            doc["trace"] = [
                {
                    "rule": str(step.rule),
                    "start": step.start,
                    "matched": format_word(step.matched),
                    "replacement": format_word(step.replacement),
                }
                for step in trace.steps
            ]
        return doc
    if command == "len":
        n = len(nf(ctx, parse_word(words[0], genus)))
        return {"result": n, "length": n}
    if command == "power":
        out = nf_power(ctx, parse_word(words[0], genus), opt("k", 2))
        return {"result": format_word(out), "length": len(out)}
    if command == "tau":
        return {"result": translation_number(ctx, parse_word(words[0], genus)),
                "length": None}
    if command == "ci":
        core = ci(ctx, parse_word(words[0], genus))
        return {"result": format_word(core), "length": len(core)}
    if command == "root":
        res = root(ctx, parse_word(words[0], genus))
        return {"result": {"root": format_word(res.root), "exponent": res.exponent},
                "length": len(res.root)}
    if command == "class-nf":
        cert = class_nf(ctx, parse_word(words[0], genus))
        return {
            "result": format_word(cert.class_nf),
            "length": len(cert.class_nf),
            "certificate": {
                "class_nf": format_word(cert.class_nf),
                "conjugator": format_word(cert.conjugator),
                "exceptional": cert.exceptional,
            },
        }
    if command == "conj":
        z = are_conjugate(ctx, parse_word(words[0], genus), parse_word(words[1], genus))
        result = {"conjugate": z is not None}
        if z is not None:
            result["conjugator"] = format_word(z)
        return {"result": result, "length": None}
    if command == "conj-power":
        res = conj_power(ctx, parse_word(words[0], genus), parse_word(words[1], genus))
        result = {"found": res.found}
        if res.found:
            result.update(m=res.m, n=res.n, conjugator=format_word(res.conjugator))
        return {"result": result, "length": None}
    if command == "rp":
        c1, c2 = reducing_pair(ctx, parse_word(words[0], genus),
                               parse_word(words[1], genus))
        return {"result": [format_word(c1), format_word(c2)], "length": None}
    if command == "translate":
        pres = _descriptor(opt("presentation", "canonical"), genus)
        out = translate(pres, _parse_auto(words[0], pres.genus))
        return {"result": format_word(out), "length": len(out)}
    if command == "check":
        pres = _descriptor(opt("presentation", "canonical"), genus)
        holds = check_coarse_formulae(pres, _parse_auto(words[0], pres.genus),
                                      opt("k_max", 3))
        return {"result": {"holds": holds, "t": t_parameter(pres)}, "length": None}
    if command == "oracle-equal":
        return {"result": dehn_equal(ctx, parse_word(words[0], genus),
                                     parse_word(words[1], genus)),
                "length": None}
    if command == "oracle-conj":
        return {"result": dehn_conjugate(ctx, parse_word(words[0], genus),
                                         parse_word(words[1], genus)),
                "length": None}
    if command == "oracle-ball":
        ball = enumerate_ball(ctx, opt("radius", 2))
        result = {"count": len(ball)}
        if not opt("count_only"):
            result["words"] = [format_word(w) for w in ball]
        return {"result": result, "length": None}
    raise DomainError(f"unknown command {command!r}")


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _text_lines(command: str, doc: dict) -> list:
    """Multi-line rendering for single-request output."""
    result = doc["result"]
    if command in ("nf", "power", "ci", "translate"):
        lines = [result, f"length {doc['length']}"]
        for step in doc.get("trace", ()):
            lines.append(
                f"{step['rule']}@{step['start']}: "
                f"{step['matched']} -> {step['replacement']}"
            )
        return lines
    if command in ("len", "tau"):
        return [str(result)]
    if command == "root":
        return [result["root"], f"exponent {result['exponent']}"]
    if command == "class-nf":
        cert = doc["certificate"]
        return [result,
                f"conjugator {cert['conjugator']}",
                f"exceptional {_yesno(cert['exceptional'])}"]
    if command == "conj":
        lines = [f"conjugate: {_yesno(result['conjugate'])}"]
        if result["conjugate"]:
            lines.append(f"conjugator {result['conjugator']}")
        return lines
    if command == "conj-power":
        lines = [f"found: {_yesno(result['found'])}"]
        if result["found"]:
            lines += [f"m {result['m']}", f"n {result['n']}",
                      f"conjugator {result['conjugator']}"]
        return lines
    if command == "rp":
        return [f"C1 {result[0]}", f"C2 {result[1]}"]
    if command == "check":
        return [f"holds: {_yesno(result['holds'])}", f"t {result['t']}"]
    if command in ("oracle-equal", "oracle-conj"):
        label = "equal" if command == "oracle-equal" else "conjugate"
        return [f"{label}: {_yesno(result)}"]
    if command == "oracle-ball":
        lines = [f"count {result['count']}"]
        lines += result.get("words", ())
        return lines
    raise DomainError(f"unknown command {command!r}")


def _text_line(command: str, doc: dict) -> str:
    return "; ".join(_text_lines(command, doc))


def _document(request: Request, doc: dict) -> dict:
    return {
        "command": request.command,
        "genus": request.genus,
        "input": list(request.words),
        **doc,
    }


def run(request: Request):
    """Execute one request; returns (exit_code, stdout_text, stderr_text)."""
    try:
        doc = _execute(request.command, request.genus, request.words,
                       request.options)
    except WordParseError as exc:
        return 2, "", f"error: {exc}"
    except DomainError as exc:
        return 1, "", f"error: {exc}"
    if request.options.get("format") == "json":
        return 0, json.dumps(_document(request, doc), indent=2), ""
    return 0, "\n".join(_text_lines(request.command, doc)), ""


def run_file(path, command: str, options: dict):
    """Process a batch file, one request per line; never aborts mid-file.

    Lines are words (tab-separated pairs for two-word commands); blank
    lines and '#' comments are skipped.  Text mode emits one result
    line per input line plus a summary; JSON mode emits an array.
    """
    genus = options.get("genus", 2)
    arity = _ARITY[command]
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except OSError as exc:
        return 1, "", f"error: {exc}"
    except UnicodeDecodeError:
        return 1, "", f"error: {path}: not valid UTF-8"
    docs = []
    lines = []
    ok = errors = 0
    for lineno, line in enumerate(raw, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = [p.strip() for p in text.split("\t") if p.strip()]
        if len(parts) != arity:
            errors += 1
            msg = f"expected {arity} tab-separated word(s), got {len(parts)}"
            docs.append({"line": lineno, "error": msg})
            lines.append(f"line {lineno}: error: {msg}")
            continue
        try:
            doc = _execute(command, genus, parts, options)
        except (WordParseError, DomainError) as exc:
            errors += 1
            docs.append({"line": lineno, "error": str(exc)})
            lines.append(f"line {lineno}: error: {exc}")
            continue
        ok += 1
        request = Request(command, genus, tuple(parts), options)
        docs.append({"line": lineno, **_document(request, doc)})
        lines.append(_text_line(command, doc))
    code = 1 if errors else 0
    if options.get("format") == "json":
        return code, json.dumps(docs, indent=2), ""
    if ok or errors:
        lines.append(f"processed {ok + errors} ok {ok} errors {errors}")
    return code, "\n".join(lines), ""


def _add_common(parser, arity, batch=True):
    parser.add_argument("-g", "--genus", type=int, default=2,
                        help="genus of the surface (default 2)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    if arity:
        parser.add_argument("words", nargs="*", metavar="WORD",
                            help=f"{arity} word(s), e.g. \"c1 c2 c3^-1\"")
        if batch:
            parser.add_argument("--file", metavar="PATH",
                                help="batch file, one request per line")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="surfgroup",
        description="Exact computation in surface groups under the "
                    "symmetric presentation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("len", help="word length of the element"), 1)
    p = sub.add_parser("nf", help="normal form")
    _add_common(p, 1)
    p.add_argument("--trace", action="store_true",
                   help="emit the rewrite steps")
    p = sub.add_parser("power", help="normal form of x^k")
    _add_common(p, 1)
    p.add_argument("-k", type=int, required=True, help="exponent (k >= 1)")
    _add_common(sub.add_parser("tau", help="translation number"), 1)
    _add_common(sub.add_parser("ci", help="cyclically irreducible core"), 1)
    _add_common(sub.add_parser("root", help="primitive root and exponent"), 1)
    _add_common(sub.add_parser("class-nf",
                               help="conjugacy class normal form"), 1)
    _add_common(sub.add_parser("conj", help="conjugacy decision"), 2)
    _add_common(sub.add_parser("conj-power",
                               help="least m, n with x^m ~ y^n"), 2)
    _add_common(sub.add_parser("rp", help="reducing pair of a product"), 2)
    p = sub.add_parser("translate",
                       help="translate a word into the symmetric alphabet")
    _add_common(p, 1)
    p.add_argument("--presentation", default="canonical",
                   help="canonical | symmetric | file:PATH")
    p = sub.add_parser("check", help="verify the coarse power-length formulae")
    _add_common(p, 1)
    p.add_argument("--presentation", default="canonical",
                   help="canonical | symmetric | file:PATH")
    p.add_argument("--kmax", dest="k_max", type=int, default=3)

    oracle = sub.add_parser("oracle", help="independent Dehn-algorithm checks")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)
    _add_common(osub.add_parser("equal", help="word-problem oracle"), 2)
    _add_common(osub.add_parser("conj", help="conjugacy oracle"), 2)
    p = osub.add_parser("ball", help="enumerate normal forms up to a radius")
    _add_common(p, 0)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--count-only", dest="count_only", action="store_true")
    return parser


_OPTION_KEYS = ("format", "trace", "k", "k_max", "radius", "count_only",
                "presentation", "genus")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        command = args.command
        if command == "oracle":
            command = f"oracle-{args.oracle_command}"
        words = tuple(getattr(args, "words", ()) or ())
        batch = getattr(args, "file", None)
        if not batch and len(words) != _ARITY[command]:
            parser.error(f"{command} expects {_ARITY[command]} word argument(s)")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    options = {k: getattr(args, k) for k in _OPTION_KEYS if hasattr(args, k)}
    if batch:
        code, out, err = run_file(batch, command, options)
    else:
        code, out, err = run(Request(command, args.genus, words, options))
    if out:
        print(out)
    if err:
        print(err, file=sys.stderr)
    return code
