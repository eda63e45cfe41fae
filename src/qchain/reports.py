"""The one reader of input files (state and chain JSON, typed by the JSON
Schemas below), and the covariance-matrix, report and sweep CSV formats.

Reports are wrapped in a deterministic envelope {config, result, meta};
everything outside "meta" is byte-stable for a fixed config and seed, so
comparisons should drop "meta" (it carries timing and the timestamp).
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from .gaussian import CovarianceMatrix
from .states import PSD_TOL, DensityMatrix, PureState, TmsvsSpec, _read_density, tmsvs_truncated
from .swapping import qubit_link, qudit_link, tmsvs_link
from .tensor import SubsystemLayout, require_positive

_PAIRS = {"type": "array",
          "items": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}}


def _finite_state(kind: str, data: str) -> dict:
    """The schema of a pure or mixed state document, whose entries sit
    under `data` as [re, im] pairs."""
    return {
        "properties": {
            "dims": {"type": "array", "items": {"type": "integer", "minimum": 2}, "minItems": 1},
            "partyA": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
            "kind": {"const": kind},
            data: _PAIRS,
            "truncation_deficit": {"type": "number", "minimum": 0},
        },
        "required": ["dims", "partyA", "kind", data],
        "additionalProperties": False,
    }


STATE_SCHEMA = {
    "type": "object",
    "oneOf": [
        _finite_state("pure", "amplitudes"),
        _finite_state("mixed", "matrix"),
        {
            "properties": {
                "kind": {"const": "tmsvs"},
                "r": {"type": "number", "exclusiveMinimum": 0},
                "cutoff": {"type": "integer", "minimum": 1},
            },
            "required": ["kind", "r"],
            "additionalProperties": False,
        },
    ],
}

_SCHMIDT_VECTOR = {"type": "array", "items": {"type": "number", "minimum": 0}, "minItems": 1}
_UNIT_NUMBER = {"type": "number", "minimum": 0, "maximum": 1}

# One link-list entry per chain kind, keyed by the chain file's "kind".
LINK_SCHEMAS = {
    "tmsvs": {
        "type": "object",
        "properties": {"r": {"type": "number", "exclusiveMinimum": 0}},
        "required": ["r"],
        "additionalProperties": False,
    },
    "qubit": {
        "type": "object",
        "properties": {"lambda": {**_SCHMIDT_VECTOR, "minItems": 2, "maxItems": 2},
                       "concurrence": _UNIT_NUMBER},
        "additionalProperties": False,
    },
    "qudit": {
        "type": "object",
        "properties": {"lambda": {**_SCHMIDT_VECTOR, "minItems": 2},
                       "d": {"type": "integer", "minimum": 2},
                       "g_concurrence": _UNIT_NUMBER},
        "additionalProperties": False,
    },
}

IDENTICAL_LINKS_SCHEMA = {
    "type": "object",
    "properties": {"identical": {"type": "object"},
                   "count": {"type": "integer", "minimum": 1}},
    "required": ["identical", "count"],
    "additionalProperties": False,
}

CHAIN_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": list(LINK_SCHEMAS)},
        "links": {
            "oneOf": [
                {"type": "array", "items": {"type": "object"}, "minItems": 1},
                IDENTICAL_LINKS_SCHEMA,
            ]
        },
        "alpha": {"type": "number", "exclusiveMinimum": 0},
        "measure": {"type": "string"},
    },
    "required": ["kind", "links"],
    "additionalProperties": False,
    # Every link entry, listed or identical, follows its kind's schema.
    "allOf": [{"if": {"properties": {"kind": {"const": kind}}},
               "then": {"properties": {"links": {"items": link,
                                                 "properties": {"identical": link}}}}}
              for kind, link in LINK_SCHEMAS.items()],
}

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"type": "string"},
        "version": {"type": "string"},
        "config": {"type": "object"},
        "result": {"type": ["object", "array"]},
        "meta": {
            "type": "object",
            "properties": {"elapsed_seconds": {"type": "number"},
                           "timestamp": {"type": "string"}},
        },
    },
    "required": ["command", "version", "config", "result"],
    "additionalProperties": False,
}

SWEEP_CSV_COLUMNS = ("l", "value", "xi", "alpha", "kind")


@contextmanager
def gc_paused():
    """Pause cyclic garbage collection for the block, restoring it after.

    Building or parsing a large state's JSON makes about a million small
    lists holding no reference cycles; the collector would make several
    full passes over them and find nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _pairs(z: np.ndarray) -> list[list[float]]:
    """Entries of z, row-major, as [re, im] lists of Python floats; a real
    array gives [re, 0.0] pairs."""
    with gc_paused():
        return np.asarray(z, dtype=complex).reshape(-1).view(float).reshape(-1, 2).tolist()


def file_integer(value, what: str) -> int:
    """An integer field of an input file: a JSON integer (a number with no
    fractional part, as the JSON Schemas read "integer"), never a boolean
    or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or \
            (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def file_number(value, what: str) -> float:
    """A number field of an input file: a finite JSON number, never a
    boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return number


_FIELD_TYPES = {"integer": file_integer, "number": file_number}


def _typed(value, prop: dict, what: str):
    """value as the property's "type" reads it: an integer, a number, a
    string, or a list of integers or numbers, each named "<what> entry".
    Other values ([re, im] pairs, nested objects) are left to their readers."""
    kind = prop.get("type")
    read = _FIELD_TYPES.get(kind)
    if read is not None:
        return read(value, what)
    if kind == "string" and not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    if kind == "array" and prop["items"].get("type") in _FIELD_TYPES:
        entry = prop["items"]["type"]
        if not isinstance(value, list):
            raise ValueError(f"{what} must be a list of {entry}s, got {value!r}")
        return [_FIELD_TYPES[entry](v, f"{what} entry") for v in value]
    return value


def file_object(doc, schema: dict, what: str, prefix: str = "") -> dict:
    """doc's values, typed by _typed and named prefix + key, in a new dict
    when doc is a JSON object holding only keys that the object schema
    lists under "properties", none null, and every key it lists under
    "required", checked in the file's order. No input schema admits null,
    so a null is refused rather than read as an absent key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    properties = schema["properties"]
    fields = {}
    for key, value in doc.items():
        if key not in properties:
            raise ValueError(f"{what} has unknown key {key!r}")
        if value is None:
            raise ValueError(f"{what} has null value for key {key!r}; give a value or omit the key")
        fields[key] = _typed(value, properties[key], prefix + key)
    for key in schema.get("required", ()):
        if key not in doc:
            raise ValueError(f"{what} is missing required key {key!r}")
    return fields


def _from_pairs(pairs, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A flat row-major list of [re, im] pairs, each a list of two JSON
    numbers, as a new complex array of the given shape. Types are checked
    before numpy sees the list, which would otherwise read a string or a
    boolean as a number."""
    expected = math.prod(shape)
    if not (isinstance(pairs, list) and len(pairs) == expected
            and set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
        raise ValueError(f"{what} must be a flat row-major list of {expected} [re, im] pairs")
    flat = list(itertools.chain.from_iterable(pairs))
    if not set(map(type, flat)) <= {int, float}:
        raise ValueError(f"{what} entries must be JSON numbers")
    try:
        arr = np.array(flat, dtype=float)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"{what} entries must be finite numbers") from None
    arr = arr.reshape(*shape, 2)
    with np.errstate(invalid="ignore"):  # 1j * inf holds a NaN; the file checks name it
        return arr[..., 0] + 1j * arr[..., 1]


def state_to_json(state: PureState | DensityMatrix) -> dict:
    base = {"dims": list(state.layout.dims), "partyA": list(state.layout.party_a),
            "truncation_deficit": state.truncation_deficit}
    if isinstance(state, PureState):
        return {**base, "kind": "pure", "amplitudes": _pairs(state.amplitudes)}
    return {**base, "kind": "mixed", "matrix": _pairs(state.matrix)}


def state_from_json(doc: dict, psd_tol: float = PSD_TOL) -> PureState | DensityMatrix:
    """The state a document describes; a mixed state's matrix must have no
    eigenvalue below -psd_tol (DensityMatrix.validate)."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("state document must be an object with a 'kind' field")
    kind = doc["kind"]
    branch = next((b for b in STATE_SCHEMA["oneOf"] if b["properties"]["kind"]["const"] == kind), None)
    if branch is None:
        raise ValueError(f"unknown state kind {kind!r}")
    fields = file_object(doc, branch, "state document")
    if kind == "tmsvs":
        return tmsvs_truncated(TmsvsSpec.from_r(fields["r"], fields.get("cutoff")))
    layout = SubsystemLayout(fields["dims"], fields["partyA"])
    deficit = fields.get("truncation_deficit", 0.0)
    if kind == "pure":
        amps = _from_pairs(fields["amplitudes"], (layout.dim,), "amplitudes")
        return PureState(amps, layout, deficit)
    mat = _from_pairs(fields["matrix"], (layout.dim, layout.dim), "matrix")
    return _read_density(mat, layout, deficit, psd_tol)


def read_json(path: str):
    """The JSON document in the file at path, parsed with the cyclic
    collector paused (gc_paused); one nested too deeply is refused."""
    with gc_paused(), open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def read_state(path: str, psd_tol: float = PSD_TOL):
    """The state that the JSON file at path describes (state_from_json).

    The collector stays paused until the parsed document is dropped. A
    mixed state's pair list is about a million small lists, freed by
    reference counting when the document goes; a collection while they
    live would walk them all and find nothing.
    """
    with gc_paused():
        doc = read_json(path)
        state = state_from_json(doc, psd_tol)
        del doc
    return state


def chain_from_json(doc) -> tuple[list, str | None, float]:
    """The links of a chain document, its measure (None when absent) and
    the alpha that qualifies it (1.0 when absent). An identical entry
    builds its link once: links are frozen."""
    chain = file_object(doc, CHAIN_SCHEMA, "chain file")
    kind, raw = chain["kind"], chain["links"]
    if not isinstance(kind, str) or kind not in LINK_SCHEMAS:
        raise ValueError(f"chain kind must be {'|'.join(LINK_SCHEMAS)}, got {kind!r}")
    if isinstance(raw, dict):
        identical = file_object(raw, IDENTICAL_LINKS_SCHEMA, "links", "links.")
        entries, repeat = [identical["identical"]], identical["count"]
        if repeat < 1:
            raise ValueError(f"links.count must be an integer >= 1, got {repeat}")
        if repeat > sys.maxsize:  # no list holds that many links
            raise ValueError(f"links.count must be at most {sys.maxsize}, got {repeat}")
    elif isinstance(raw, list) and raw:
        entries, repeat = raw, 1
    else:
        raise ValueError("links must be a non-empty list or {identical, count}")
    schema = LINK_SCHEMAS[kind]
    links = []
    for entry in entries:
        link = file_object(entry, schema, "each link")
        if kind == "tmsvs":
            links.append(tmsvs_link(link["r"]))
        elif kind == "qubit":
            links.append(qubit_link(link.get("lambda"), link.get("concurrence")))
        else:
            links.append(qudit_link(link.get("lambda"), link.get("d"), link.get("g_concurrence")))
    alpha = require_positive(chain.get("alpha", 1.0), "alpha")
    return links * repeat, chain.get("measure"), alpha


def cm_to_json(cm: CovarianceMatrix) -> dict:
    # States are zero-mean; perfbench/reference.json pins this zero field.
    return {"modes": cm.modes, "gamma": [[float(v) for v in row] for row in cm.gamma],
            "displacement": [0.0] * (2 * cm.modes)}


def make_report(command: str, config: dict, result, elapsed: float) -> dict:
    meta = {"elapsed_seconds": float(elapsed),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())}
    return {"command": command, "version": __version__, "config": config,
            "result": result, "meta": meta}


def dump_report(report: dict) -> str:
    """The report as strict JSON; a NaN or infinite value raises ValueError
    (a value that may be infinite is written as the string "inf")."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def strip_meta(report: dict) -> dict:
    """The byte-stable part of a report, for comparisons across runs."""
    return {k: v for k, v in report.items() if k != "meta"}
