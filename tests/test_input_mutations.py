"""Input files, well formed or not, end in a documented exit code.

Documents are drawn from the input schemas (STATE_SCHEMA, CHAIN_SCHEMA with
LINK_SCHEMAS, and SCAN_SCHEMA), then mutated: a key dropped, duplicated or
retyped; a number made extreme or non-finite; a value nested deep; the text
truncated or given bytes that are not UTF-8. cli.main runs in process on
measure, chain, sweep and monogamy --input. It must exit 0, 2, 3, 4 or 5,
and on failure write exactly one stderr line and no traceback.

Sizes stay small, so that no case reaches the allocator. A size field
(dims, cutoff, count, samples, d) is drawn from a few small values, and its
extreme values are only those refused before anything is built: zero,
negative, fractional or non-finite, and a links count above sys.maxsize,
which no list holds. No other huge positive size is drawn: a scan of 10^12
samples runs as asked, and a cutoff of 10^8 allocates its state before it
fails.
"""

import copy
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qchain.cli import main
from qchain.measures import MEASURE_KINDS
from qchain.reports import CHAIN_SCHEMA, LINK_SCHEMAS, SCAN_SCHEMA, STATE_SCHEMA

DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
ERROR_PREFIXES = ("error: ", "numerical error: ", "i/o error: ")

SIZE_FIELDS = {"dims", "cutoff", "count", "samples", "d"}
SMALL_SIZES = {"dims": st.sampled_from([2, 3]), "cutoff": st.integers(1, 6),
               "count": st.integers(1, 4), "samples": st.integers(1, 8),
               "d": st.integers(2, 4), "partyA": st.integers(0, 2)}


class Raw(str):
    """JSON text written as it stands: a literal json.dumps cannot write,
    such as 1e400 (read back as inf), or a deeply nested value."""


class Again(str):
    """A key written once more: a dict key of its own, which encode writes
    under the same name."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__


SIZE_EXTREMES = [0, -1, -2 ** 63, -1e308, -0.0, 0.5, 2.5, 5e-324, math.nan, math.inf, -math.inf,
                 Raw("-1e400"), Raw("1e400")]
EXTREMES = SIZE_EXTREMES + [1e308, -5e-324, 2 ** 63, 10 ** 400, -10 ** 400, 1.7976931348623157e308]
HUGE_COUNTS = [2 ** 63, 1e308, 10 ** 400]
RETYPED = ["text", "line\nbreak", "", True, False, None, [], {}, [1, 2], [[0.5, 0]], {"r": 1}, 1.5]


def encode(value) -> str:
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {encode(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(encode(v) for v in value) + "]"
    return json.dumps(value)


def field_value(draw, key: str, prop: dict):
    """A value of the schema property `prop` for field `key`."""
    if "const" in prop:
        return prop["const"]
    if "enum" in prop:
        return draw(st.sampled_from(prop["enum"]))
    kind = prop.get("type")
    if kind == "array":
        low = prop.get("minItems", 0)
        high = min(prop.get("maxItems", low + 2), low + 2)
        return [field_value(draw, key, prop["items"]) for _ in range(draw(st.integers(low, high)))]
    if kind == "integer":
        return draw(SMALL_SIZES.get(key, st.integers(-2 ** 64, 2 ** 64)))
    if kind == "number":
        low = 1e-3 if "exclusiveMinimum" in prop else prop.get("minimum", -2.0)
        return draw(st.floats(low, prop.get("maximum", 3.0)))
    if kind == "string":
        return draw(st.sampled_from(MEASURE_KINDS + ("bogus",)))
    return None


def schema_object(draw, schema: dict) -> dict:
    """An object with every required key of the schema and some optional ones."""
    required = set(schema.get("required", ()))
    return {key: field_value(draw, key, prop) for key, prop in schema["properties"].items()
            if key in required or draw(st.booleans())}


@st.composite
def state_documents(draw):
    doc = schema_object(draw, draw(st.sampled_from(STATE_SCHEMA["oneOf"])))
    if doc["kind"] in ("pure", "mixed") and draw(st.integers(0, 3)):
        # A layout and data of the length it asks for, from a state or from
        # noise, so that the checks after the length check run too.
        parties = draw(st.integers(2, 3))
        doc["dims"] = [draw(SMALL_SIZES["dims"]) for _ in range(parties)]
        doc["partyA"] = draw(st.lists(st.integers(0, parties - 1), min_size=1,
                                      max_size=parties - 1, unique=True))
        dim = math.prod(doc["dims"])
        cols = dim if doc["kind"] == "mixed" else 1
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        a = rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))
        if draw(st.booleans()):
            a = a.real
        data = a @ a.conj().T if doc["kind"] == "mixed" else a
        if draw(st.integers(0, 3)):
            data = data / (np.trace(data).real if doc["kind"] == "mixed" else np.linalg.norm(data))
        key = "matrix" if doc["kind"] == "mixed" else "amplitudes"
        doc[key] = [[float(v.real), float(v.imag)] for v in data.reshape(-1)]
    return doc


def link_object(draw, kind: str) -> dict:
    """A link of the kind's schema that mostly gives one of its specs: a
    Schmidt vector, often normalized, or a target value."""
    schema = LINK_SCHEMAS[kind]
    link = schema_object(draw, schema)
    if kind != "tmsvs" and draw(st.integers(0, 3)):
        target = "concurrence" if kind == "qubit" else "g_concurrence"
        drop = target if draw(st.booleans()) else "lambda"
        link.pop(drop, None)
        if drop == target:
            lam = link.setdefault("lambda",
                                  field_value(draw, "lambda", schema["properties"]["lambda"]))
            if sum(lam) > 0 and draw(st.booleans()):
                link["lambda"] = [x / sum(lam) for x in lam]
            if "d" in link and draw(st.booleans()):
                link["d"] = len(link["lambda"])
        else:
            link.setdefault(target, draw(st.floats(0, 1)))
    return link


@st.composite
def chain_documents(draw):
    doc = schema_object(draw, CHAIN_SCHEMA)
    if draw(st.booleans()):
        doc["links"] = [link_object(draw, doc["kind"]) for _ in range(draw(st.integers(1, 3)))]
    else:
        doc["links"] = {"identical": link_object(draw, doc["kind"]),
                        "count": draw(SMALL_SIZES["count"])}
    return doc


@st.composite
def scan_documents(draw):
    return schema_object(draw, SCAN_SCHEMA)


def containers(value):
    """Every object and list in value, value first."""
    if isinstance(value, (dict, list)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from containers(child)


def number_sites(value, key=None):
    """(container, key, field name) of every number in value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for k, child in items:
        name = k if isinstance(value, dict) else key
        if isinstance(child, (int, float)) and not isinstance(child, bool):
            yield value, k, name
        else:
            yield from number_sites(child, name)


@st.composite
def mutated(draw, documents):
    """(JSON text as bytes) of a drawn document after a few mutations."""
    doc = draw(documents)
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(["drop", "duplicate", "retype", "extreme", "nest"]))
        box = draw(st.sampled_from(list(containers(doc))))
        keys = list(box) if isinstance(box, dict) else list(range(len(box)))
        if how == "extreme":
            sites = list(number_sites(doc))
            if sites:
                box, key, name = draw(st.sampled_from(sites))
                extremes = SIZE_EXTREMES if name in SIZE_FIELDS else EXTREMES
                box[key] = draw(st.sampled_from(extremes + HUGE_COUNTS * (name == "count")))
            continue
        if not keys:
            continue
        key = draw(st.sampled_from(keys))
        if how == "drop":
            del box[key]
        elif how == "retype":
            box[key] = copy.deepcopy(draw(st.sampled_from(RETYPED)))
        elif how == "nest":
            depth = draw(st.sampled_from([2, 64, 900, 5000, 100_000]))
            box[key] = Raw("[" * depth + "]" * depth)
        elif isinstance(box, dict):  # duplicate: the key again, with a retyped value
            items = list(box.items())
            items.insert(draw(st.integers(0, len(items))),
                         (Again(key), copy.deepcopy(draw(st.sampled_from(RETYPED)))))
            box.clear()
            box.update(items)
    data = encode(doc).encode("utf-8")
    text_mutation = draw(st.sampled_from([None] * 6 + ["truncate", "non-utf-8"]))
    if text_mutation == "truncate":
        data = data[:draw(st.integers(0, max(0, len(data) - 1)))]
    elif text_mutation == "non-utf-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\x80", b"\xed\xa0\x80"])) \
            + data[at:]
    return data


def run_on_file(data: bytes, argv: list[str]) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as fh:
            fh.write(data)
        err = StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(StringIO()), redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([argv[0], "--input", path] + argv[1:] + ["--output", os.devnull])
    # Outside a test a warning prints to stderr, ahead of the error line.
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                    for w in caught)
    return code, shown + err.getvalue()


def check_exit(code: int, err: str) -> None:
    assert code in DOCUMENTED_EXITS, (code, err)
    assert "Traceback" not in err, err
    if code == 0:
        assert err == ""
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and err.endswith("\n"), err
        assert lines[0].startswith(ERROR_PREFIXES), err


MUTATION_SETTINGS = settings(max_examples=200, deadline=None, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.data_too_large])


def _mixed_2x2(entries: dict) -> bytes:
    """A mixed two-qubit file: diag(1/4) with the given [re, im] entries."""
    pairs = [[0.25, 0] if i % 5 == 0 else [0, 0] for i in range(16)]
    for index, pair in entries.items():
        pairs[index] = pair
    body = ", ".join(f"[{re}, {im}]" for re, im in pairs)
    return f'{{"kind": "mixed", "dims": [2, 2], "partyA": [0], "matrix": [{body}]}}'.encode()


@MUTATION_SETTINGS
@given(data=mutated(state_documents()))
# Entries whose arithmetic overflows or makes a NaN in the checks, which
# refuse them without a RuntimeWarning ahead of the error line.
@example(data=b'{"kind": "pure", "dims": [2, 2], "partyA": [0], '
              b'"amplitudes": [[1e308, 0], [0, 0], [0, 0], [0, 0]]}')
@example(data=_mixed_2x2({1: ["0", "Infinity"], 4: ["0", "-Infinity"]}))
@example(data=_mixed_2x2({1: ["1e308", "0"], 4: ["-1e308", "0"]}))
def test_measure_exits_with_a_documented_code(data):
    check_exit(*run_on_file(data, ["measure"]))


@MUTATION_SETTINGS
@given(data=mutated(chain_documents()),
       argv=st.sampled_from([["chain"], ["sweep"], ["sweep", "--format", "csv"]]))
@example(data=b'{"kind": "qubit", "links": {"identical": {"concurrence": 0.5}, '
              b'"count": 9223372036854775808}}', argv=["chain"])
def test_chain_and_sweep_exit_with_a_documented_code(data, argv):
    check_exit(*run_on_file(data, argv))


@MUTATION_SETTINGS
@given(data=mutated(scan_documents()))
def test_monogamy_input_exits_with_a_documented_code(data):
    check_exit(*run_on_file(data, ["monogamy", "--grid", "100"]))
