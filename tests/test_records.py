"""The result and request records: named tuples, with two dataclasses kept."""

import ast
import inspect
from pathlib import Path

import pytest

from surfgroup import (
    ConjPowerResult,
    GroupContext,
    PowerDecomposition,
    ReductionStep,
    RootResult,
    RuleId,
    root,
)
from surfgroup.cli import _COMMANDS, Request, _value_lines, run, run_file

SRC = Path(__file__).resolve().parents[1] / "src" / "surfgroup"

_EMPTY = inspect.Parameter.empty

# record, its fields with their defaults in order, and the values of one instance
RECORDS = [
    (RuleId, [("family", _EMPTY), ("param", 0)], ("S2", 3)),
    (ReductionStep, [("rule", _EMPTY), ("start", _EMPTY), ("matched", _EMPTY),
                     ("replacement", _EMPTY)], (RuleId("S1"), 4, (1, -1), ())),
    (PowerDecomposition, [("prefix", _EMPTY), ("core", _EMPTY), ("suffix", _EMPTY),
                          ("word", _EMPTY)], ((4,), (3, 2, 1, 4), (3, 2, 1), (4, 3, 2, 1))),
    (RootResult, [("root", _EMPTY), ("exponent", _EMPTY)], ((1, 2), 3)),
    (ConjPowerResult, [("found", _EMPTY), ("m", _EMPTY), ("n", _EMPTY),
                       ("conjugator", _EMPTY)], (True, 2, -1, (1, 3))),
    (Request, [("command", _EMPTY), ("genus", 2), ("words", ()), ("options", {})],
     ("nf", 3, ("c1 c2",), {"format": "json"})),
    (type(_COMMANDS["nf"]), [("arity", _EMPTY), ("help", _EMPTY), ("execute", _EMPTY),
                             ("render", _EMPTY), ("flags", ())],
     (1, "word length", len, _value_lines, ())),
]


def _copy(values):
    """Equal values in new objects, so that equality cannot be identity."""
    return tuple(type(v)(v) if type(v) in (tuple, dict) else v for v in values)


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_a_record_keeps_its_fields_and_value_semantics(cls, fields, values):
    """Each record keeps the field names, order and defaults it had as a
    dataclass.  It is immutable, equal and hashed by value, and shown as
    Name(field=value, ...).  It is also a tuple of its fields."""
    params = inspect.signature(cls).parameters
    assert [(p.name, p.default) for p in params.values()] == fields
    x, y = cls(*values), cls(*_copy(values))
    with pytest.raises(AttributeError):
        setattr(x, fields[0][0], values[0])
    assert getattr(x, fields[0][0]) is values[0]
    assert x == y and x is not y
    assert x != x._replace(**{fields[-1][0]: None})
    if cls is Request:
        # options is a mapping, which has no hash; so neither has a Request
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y)
        assert len({x, y}) == 1
    shown = ", ".join(f"{name}={value!r}" for (name, _), value in zip(fields, values))
    assert repr(x) == f"{cls.__name__}({shown})"
    assert tuple(x) == values


def test_root_result_is_shown_as_the_readme_shows_it():
    assert repr(root(GroupContext(2), (1, 2, 1, 2, 1, 2))) == "RootResult(root=(1, 2), exponent=3)"


def test_request_options_default_is_read_only_and_shared_safely(tmp_path):
    """A Request's default options are one read-only mapping: writing to
    it raises TypeError.  Single and batch requests read their options
    as before, and none of them leaves anything in the default."""
    default = Request("nf").options
    assert default == {} and Request("len").options is default
    with pytest.raises(TypeError):
        default["format"] = "json"
    assert run(Request("nf", 2, ("c1 c1^-1",))) == (0, "e\nlength 0", "")
    code, out, _ = run(Request("nf", 2, ("c1 c1^-1",), {"format": "json"}))
    assert code == 0 and out.startswith("{")
    batch = tmp_path / "words.txt"
    batch.write_text("c1 c1^-1\nc1 c2\n")
    assert run_file(batch, "len", {"genus": 2}) == (0, "0\n2\nprocessed 2 ok 2 errors 0", "")
    assert Request("nf").options == {}


def _dataclasses(tree):
    """Names of the classes in tree that @dataclass or @dataclass(...) decorates."""
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name == "dataclass":
                names.add(node.name)
    return names


def test_only_two_classes_are_dataclasses():
    """@dataclass runs exec to generate each class's methods when the
    package is imported, about ten times what a NamedTuple costs, so the
    records are named tuples.  Two classes stay dataclasses.
    ConjugacyCertificate: bench/test_bench.py builds its wrong
    certificate with dataclasses.replace.  PresentationDescriptor: it
    validates in __post_init__.  A NamedTuple subclass could validate in
    __new__, but _replace builds through tuple.__new__ and skips it."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _dataclasses(ast.parse(path.read_text(encoding="utf-8")))
    assert found == {"ConjugacyCertificate", "PresentationDescriptor"}
