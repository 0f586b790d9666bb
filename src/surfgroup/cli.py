"""Command-line front end.

One subcommand per engine operation, plus an `oracle` group for the
independent Dehn-algorithm checks.  Every command is one entry of the
table _COMMANDS: its arity, help text, extra flags, executor and text
renderer.  The argument parser, single requests and batch files are all
driven by that table, so a new command is one new entry.  Words use the
grammar of parse_word: whitespace- or '*'-separated tokens c1, c2^-1,
C2, with e for the empty word.  They come from the arguments or from
--file, never both.  Output is plain text or a JSON document with the
stable fields {command, genus, input, result, length, trace?,
certificate?}, written by _dumps.  Every request, a single one or a
line of a batch file, goes through _attempt.

Exit codes: 0 success, 1 domain error (trivial element where one is
forbidden, genus out of range, power too long, ...), 2 parse error (bad
flags, bad word syntax or the wrong number of words), 3 failed internal
verification.  The steps of `nf --trace` are verified too before they
are printed: replayed by splicing, they must end at the normal form, and
each step's two sides must be equal by the Dehn oracle.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .conjugacy import are_conjugate, class_nf, conj_power, reducing_pair, root
from .group_core import (
    DomainError,
    GroupContext,
    VerificationError,
    WordParseError,
    format_word,
    free_reduce,
    parse_word,
)
from .oracle import dehn_conjugate, dehn_equal
from .powers import ci, nf_power, translation_number
from .presentations import (
    _check_genus,
    _parse_named,
    canonical_descriptor,
    check_coarse_formulae,
    load_descriptor,
    symmetric_descriptor,
    t_parameter,
    translate,
)
from .rewrite import enumerate_ball, nf, normalize


class Request(NamedTuple):
    command: str
    genus: int = 2
    words: tuple = ()
    # one object shared by every default, so it is read-only
    options: Mapping = MappingProxyType({})


#: the most letters `oracle conj` lets dehn_conjugate read: n_u * n_v *
#: (4g + 1) dehn_equal calls on words of n_u + n_v letters, for freely
#: reduced inputs of n_u and n_v letters; about 2 s at the cap (README)
ORACLE_CONJ_CAP = 10**7


def _load_file(path):
    """load_descriptor(path), or the DomainError that refuses the file."""
    try:
        return load_descriptor(path)
    except DomainError as exc:
        return exc


def _descriptor(name, ctx: GroupContext):
    """The named presentation; DomainError unless it has ctx's genus.

    A batch hands in a file:PATH name already loaded by _load_file, as
    the descriptor or as the refusal, which each line raises again.
    """
    if name == "canonical":
        return canonical_descriptor(ctx.genus)
    if name == "symmetric":
        return symmetric_descriptor(ctx.genus)
    if isinstance(name, str):
        if not name.startswith("file:"):
            raise DomainError(f"unknown presentation {name!r}")
        name = _load_file(name[5:])
    if isinstance(name, DomainError):
        raise DomainError(*name.args)
    _check_genus(ctx, name)
    return name


def _parse(ctx, words) -> tuple:
    return tuple(parse_word(text, ctx.genus) for text in words)


def _word_doc(w) -> dict:
    return {"result": format_word(w), "length": len(w)}


def _value_doc(result) -> dict:
    return {"result": result, "length": None}


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _check_trace(ctx, w, final, steps) -> None:
    """Raise VerificationError unless steps are a certificate of nf(w) = final.

    Replaying the steps by splicing each into the evolving word at its
    start must give final, and each step's matched and replacement words
    must be equal by dehn_equal, which shares only the relator table
    with the rewriting engine.  The evolving word is held as the list
    head and the unread rest w[pos:]; a step of normalize ends at the
    letter just appended, so it splices at the end of head, and the
    replay is linear in |w| and the lengths of the steps.
    """
    head = []
    pos = 0
    for k, step in enumerate(steps, start=1):
        end = step.start + len(step.matched)
        need = end - len(head)
        if need > 0:
            head += w[pos:pos + need]
            pos += need
        if step.start < 0 or tuple(head[step.start:end]) != step.matched:
            raise VerificationError(f"trace step {k} does not match the word at {step.start}")
        if not dehn_equal(ctx, step.matched, step.replacement):
            raise VerificationError(f"trace step {k} replaces a word by an unequal one")
        head[step.start:end] = step.replacement
    if tuple(head) + w[pos:] != final:
        raise VerificationError("the trace does not end at the normal form")


def _nf(ctx, words, opt):
    w = _parse(ctx, words)[0]
    final, steps = normalize(ctx, w, trace=opt("trace"))
    doc = _word_doc(final)
    if opt("trace"):
        _check_trace(ctx, w, final, steps)
        doc["trace"] = [
            {
                "rule": str(step.rule),
                "start": step.start,
                "matched": format_word(step.matched),
                "replacement": format_word(step.replacement),
            }
            for step in steps
        ]
    return doc


def _len(ctx, words, opt):
    n = len(nf(ctx, *_parse(ctx, words)))
    return {"result": n, "length": n}


def _root(ctx, words, opt):
    res = root(ctx, *_parse(ctx, words))
    return {"result": {"root": format_word(res.root), "exponent": res.exponent},
            "length": len(res.root)}


def _class_nf(ctx, words, opt):
    cert = class_nf(ctx, *_parse(ctx, words))
    return {
        "result": format_word(cert.class_nf),
        "length": len(cert.class_nf),
        "certificate": {
            "class_nf": format_word(cert.class_nf),
            "conjugator": format_word(cert.conjugator),
            "exceptional": cert.exceptional,
        },
    }


def _conj(ctx, words, opt):
    z = are_conjugate(ctx, *_parse(ctx, words))
    result = {"conjugate": z is not None}
    if z is not None:
        result["conjugator"] = format_word(z)
    return _value_doc(result)


def _conj_power(ctx, words, opt):
    res = conj_power(ctx, *_parse(ctx, words))
    result = {"found": res.found}
    if res.found:
        result.update(m=res.m, n=res.n, conjugator=format_word(res.conjugator))
    return _value_doc(result)


def _translate(ctx, words, opt):
    pres = _descriptor(opt("presentation", "canonical"), ctx)
    return _word_doc(translate(pres, _parse_named(words[0], ctx.genus)))


def _check(ctx, words, opt):
    pres = _descriptor(opt("presentation", "canonical"), ctx)
    holds = check_coarse_formulae(ctx, pres, _parse_named(words[0], ctx.genus),
                                  opt("k_max", 3))
    return _value_doc({"holds": holds, "t": t_parameter(pres)})


def _oracle_conj(ctx, words, opt):
    """dehn_conjugate, refused before any rotation is built when the
    letters its dehn_equal calls read could pass ORACLE_CONJ_CAP."""
    u, v = _parse(ctx, words)
    nu, nv = len(free_reduce(u)), len(free_reduce(v))
    calls = nu * nv * (ctx.alphabet_size + 1)
    if calls * (nu + nv) > ORACLE_CONJ_CAP:
        raise DomainError(
            f"oracle conj could make {calls} dehn_equal calls on {nu + nv} letters each, "
            f"more than the cap of {ORACLE_CONJ_CAP} letters")
    return _value_doc(dehn_conjugate(ctx, u, v))


def _oracle_ball(ctx, words, opt):
    ball = enumerate_ball(ctx, opt("radius", 2))
    result = {"count": len(ball)}
    if not opt("count_only"):
        result["words"] = [format_word(w) for w in ball]
    return _value_doc(result)


def _word_lines(doc):
    lines = [doc["result"], f"length {doc['length']}"]
    for step in doc.get("trace", ()):
        lines.append(
            f"{step['rule']}@{step['start']}: "
            f"{step['matched']} -> {step['replacement']}"
        )
    return lines


def _value_lines(doc):
    return [str(doc["result"])]


def _class_nf_lines(doc):
    cert = doc["certificate"]
    return [doc["result"],
            f"conjugator {cert['conjugator']}",
            f"exceptional {_yesno(cert['exceptional'])}"]


def _field_lines(doc):
    """A line per result field: 'name: yes|no' for a flag, each item of a
    list on its own line, 'name value' for anything else."""
    lines = []
    for name, value in doc["result"].items():
        if isinstance(value, bool):
            lines.append(f"{name}: {_yesno(value)}")
        elif isinstance(value, list):
            lines += value
        else:
            lines.append(f"{name} {value}")
    return lines


class _Command(NamedTuple):
    """One command.  execute(ctx, words, opt), with opt = options.get,
    returns the document fields beyond command, genus and input; render
    turns a document into the lines of single-request text output, which
    a batch line joins with '; '.  flags holds a _flag(...) per option
    beyond -g, --format, WORD and --file."""

    arity: int
    help: str
    execute: Callable
    render: Callable
    flags: tuple = ()


def _flag(*names, **kwargs):
    return names, kwargs


_PRESENTATION = _flag("--presentation", default="canonical",
                      help="canonical | symmetric | file:PATH")

# in parser order; the key oracle-<x> is the subcommand x of `oracle`
_COMMANDS = {
    "len": _Command(1, "word length of the element", _len, _value_lines),
    "nf": _Command(1, "normal form", _nf, _word_lines, (
        _flag("--trace", action="store_true", help="emit the rewrite steps"),)),
    "power": _Command(
        1, "normal form of x^k",
        lambda ctx, words, opt: _word_doc(nf_power(ctx, *_parse(ctx, words), opt("k", 2))),
        _word_lines, (_flag("-k", type=int, required=True, help="exponent (k >= 1)"),)),
    "tau": _Command(
        1, "translation number",
        lambda ctx, words, opt: _value_doc(translation_number(ctx, *_parse(ctx, words))),
        _value_lines),
    "ci": _Command(
        1, "cyclically irreducible core",
        lambda ctx, words, opt: _word_doc(ci(ctx, *_parse(ctx, words))), _word_lines),
    "root": _Command(
        1, "primitive root and exponent", _root,
        lambda doc: [doc["result"]["root"], f"exponent {doc['result']['exponent']}"]),
    "class-nf": _Command(1, "conjugacy class normal form", _class_nf, _class_nf_lines),
    "conj": _Command(2, "conjugacy decision", _conj, _field_lines),
    "conj-power": _Command(2, "least m, n with x^m ~ y^n", _conj_power, _field_lines),
    "rp": _Command(
        2, "reducing pair of a product",
        lambda ctx, words, opt: _value_doc(
            [format_word(c) for c in reducing_pair(ctx, *_parse(ctx, words))]),
        lambda doc: [f"C1 {doc['result'][0]}", f"C2 {doc['result'][1]}"]),
    "translate": _Command(1, "translate a word into the symmetric alphabet", _translate,
                          _word_lines, (_PRESENTATION,)),
    "check": _Command(1, "verify the coarse power-length formulae", _check, _field_lines, (
        _PRESENTATION, _flag("--kmax", dest="k_max", type=int, default=3))),
    "oracle-equal": _Command(
        2, "word-problem oracle",
        lambda ctx, words, opt: _value_doc(dehn_equal(ctx, *_parse(ctx, words))),
        lambda doc: [f"equal: {_yesno(doc['result'])}"]),
    "oracle-conj": _Command(
        2, "conjugacy oracle", _oracle_conj,
        lambda doc: [f"conjugate: {_yesno(doc['result'])}"]),
    "oracle-ball": _Command(0, "enumerate normal forms up to a radius", _oracle_ball,
                            _field_lines, (
        _flag("--radius", type=int, required=True),
        _flag("--count-only", dest="count_only", action="store_true"))),
}


def _attempt(request: Request, ctx=None):
    """(0, document, ctx), or (exit code, error message, ctx) if the
    request fails.  ctx is built on first need and handed back, so the
    lines of a batch file share one context."""
    spec = _COMMANDS.get(request.command)
    words = request.words
    try:
        if spec is None:
            raise DomainError(f"unknown command {request.command!r}")
        if len(words) != spec.arity:
            raise WordParseError(
                f"expected {spec.arity} tab-separated word(s), got {len(words)}")
        if ctx is None:
            ctx = GroupContext(request.genus)
        doc = spec.execute(ctx, words, request.options.get)
    except WordParseError as exc:
        return 2, str(exc), ctx
    except DomainError as exc:
        return 1, str(exc), ctx
    except VerificationError as exc:
        inputs = ", ".join(repr(w) for w in words)
        return 3, f"verification failed for {inputs}: {exc}", ctx
    return 0, {"command": request.command, "genus": request.genus,
               "input": list(words), **doc}, ctx


def _write_json(value, nl, out, quote) -> None:
    """Append to out the pieces of value as json.dumps(..., indent=2)
    writes it at the line break nl, for dict, list, str, int, bool and
    None; any other value is written by json.dumps itself, its line
    breaks moved in to nl.  A non-str dict key makes quote raise
    TypeError."""
    t = type(value)
    if t is str:
        out(quote(value))
    elif t is dict:
        if not value:
            out("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in value.items():
            out(sep)
            out(quote(key))
            out(": ")
            _write_json(item, inner, out, quote)
            sep = "," + inner
        out(nl + "}")
    elif t is list:
        if not value:
            out("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            out(sep)
            _write_json(item, inner, out, quote)
            sep = "," + inner
        out(nl + "]")
    elif t is int:
        out(repr(value))
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif value is None:
        out("null")
    else:
        import json
        out(json.dumps(value, indent=2).replace("\n", nl))


def _dumps(doc) -> str:
    """json.dumps(doc, indent=2), byte for byte, written by _write_json.

    With an indent, json.dumps runs the stdlib's pure-Python generator
    encoder; this writer appends the pieces to one list instead.  json
    is imported on the first document, not with the CLI.  A document
    with a dict key that is not a str goes to json.dumps whole, which
    converts such keys.
    """
    from json.encoder import encode_basestring_ascii

    parts = []
    try:
        _write_json(doc, "\n", parts.append, encode_basestring_ascii)
    except TypeError:
        import json
        return json.dumps(doc, indent=2)
    return "".join(parts)


def run(request: Request):
    """Execute one request; returns (exit_code, stdout_text, stderr_text)."""
    code, doc, _ = _attempt(request)
    if code:
        return code, "", f"error: {doc}"
    if request.options.get("format") == "json":
        return 0, _dumps(doc), ""
    return 0, "\n".join(_COMMANDS[request.command].render(doc)), ""


def run_file(path, command: str, options: dict):
    """Process a batch file, one request per line; never aborts mid-file.

    Lines are words (tab-separated pairs for two-word commands); blank
    lines and '#' comments are skipped.  Text mode emits one result
    line per input line plus a summary; JSON mode emits an array.  The
    first line that gets as far as needing a context builds the one
    that every line of the file shares, and a --presentation file:PATH
    is read once, before the first line.  The exit code is 3 if a line
    failed verification, else 1 if any line failed, else 0.
    """
    genus = options.get("genus", 2)
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except OSError as exc:
        return 1, "", f"error: {exc}"
    except UnicodeDecodeError:
        return 1, "", f"error: {path}: not valid UTF-8"
    pres = options.get("presentation")
    if isinstance(pres, str) and pres.startswith("file:"):
        options = {**options, "presentation": _load_file(pres[5:])}
    ctx = None
    docs = []
    lines = []
    ok = errors = code = 0
    for lineno, line in enumerate(raw, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = tuple(p.strip() for p in text.split("\t") if p.strip())
        status, doc, ctx = _attempt(Request(command, genus, parts, options), ctx)
        if status:
            code = 3 if status == 3 else max(code, 1)
            errors += 1
            docs.append({"line": lineno, "error": doc})
            lines.append(f"line {lineno}: error: {doc}")
            continue
        ok += 1
        docs.append({"line": lineno, **doc})
        lines.append("; ".join(_COMMANDS[command].render(doc)))
    if options.get("format") == "json":
        return code, _dumps(docs), ""
    if ok or errors:
        lines.append(f"processed {ok + errors} ok {ok} errors {errors}")
    return code, "\n".join(lines), ""


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="surfgroup",
        description="Exact computation in surface groups under the "
                    "symmetric presentation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    oracle = None
    for key, spec in _COMMANDS.items():
        group, name = sub, key
        if key.startswith("oracle-"):
            if oracle is None:
                oracle = sub.add_parser(
                    "oracle", help="independent Dehn-algorithm checks"
                ).add_subparsers(dest="oracle_command", required=True)
            group, name = oracle, key[len("oracle-"):]
        p = group.add_parser(name, help=spec.help)
        p.set_defaults(key=key, parser=p)
        p.add_argument("-g", "--genus", type=int, default=2,
                       help="genus of the surface (default 2)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if spec.arity:
            p.add_argument("words", nargs="*", metavar="WORD",
                           help=f"{spec.arity} word(s), e.g. \"c1 c2 c3^-1\"")
            p.add_argument("--file", metavar="PATH",
                           help="batch file, one request per line")
        for names, kwargs in spec.flags:
            p.add_argument(*names, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        options = vars(parser.parse_args(argv))
        command = options.pop("key")
        words = tuple(options.pop("words", None) or ())
        batch = options.pop("file", None)
        subparser = options.pop("parser")
        if batch is not None and words:
            # the subcommand's own parser prints its own usage line
            subparser.error("words and --file cannot be combined")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if batch is not None:
        code, out, err = run_file(batch, command, options)
    else:
        code, out, err = run(Request(command, options["genus"], words, options))
    try:
        if out:
            print(out, flush=True)
        if err:
            print(err, file=sys.stderr)
    except BrokenPipeError:
        # the reader has gone; devnull keeps the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
