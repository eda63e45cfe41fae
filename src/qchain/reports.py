"""File formats: state / covariance-matrix / chain-spec JSON, report
envelopes, and the sweep CSV layout.

States serialize as
    { "dims": [..], "partyA": [..], "kind": "pure"|"mixed",
      "amplitudes"|"matrix": [[re, im], ..] (row-major, flat),
      "truncation_deficit": x }
with a third kind "tmsvs" accepted on input:
    { "kind": "tmsvs", "r": x, "cutoff": n? }.

Reports are wrapped in a deterministic envelope {config, result, meta};
everything outside "meta" is byte-stable for a fixed config and seed, so
comparisons should drop "meta" (it carries timing and the timestamp).
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from .gaussian import CovarianceMatrix
from .states import PSD_TOL, DensityMatrix, PureState, TmsvsSpec, tmsvs_truncated
from .tensor import SubsystemLayout

STATE_SCHEMA = {
    "type": "object",
    "oneOf": [
        {
            "properties": {
                "dims": {"type": "array", "items": {"type": "integer", "minimum": 2}, "minItems": 1},
                "partyA": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
                "kind": {"const": "pure"},
                "amplitudes": {"type": "array",
                               "items": {"type": "array", "items": {"type": "number"},
                                         "minItems": 2, "maxItems": 2}},
                "truncation_deficit": {"type": "number", "minimum": 0},
            },
            "required": ["dims", "partyA", "kind", "amplitudes"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "dims": {"type": "array", "items": {"type": "integer", "minimum": 2}, "minItems": 1},
                "partyA": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
                "kind": {"const": "mixed"},
                "matrix": {"type": "array",
                           "items": {"type": "array", "items": {"type": "number"},
                                     "minItems": 2, "maxItems": 2}},
                "truncation_deficit": {"type": "number", "minimum": 0},
            },
            "required": ["dims", "partyA", "kind", "matrix"],
            "additionalProperties": False,
        },
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

SCAN_SCHEMA = {
    "type": "object",
    "properties": {
        "dims": {"type": "array", "items": {"type": "integer", "minimum": 2}, "minItems": 3},
        "samples": {"type": "integer", "minimum": 1},
        "alpha": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer"},
    },
    "required": ["dims", "samples", "alpha", "seed"],
    "additionalProperties": False,
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


def file_object(doc, schema: dict, what: str) -> dict:
    """doc when it is a JSON object holding only keys that the object
    schema lists under "properties" (each input schema here says
    additionalProperties: false)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    for key in doc:
        if key not in schema["properties"]:
            raise ValueError(f"{what} has unknown key {key!r}")
    return doc


def _file_integers(value, what: str) -> list[int]:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return [file_integer(v, f"{what} entry") for v in value]


def _from_pairs(pairs, expected: int, what: str) -> np.ndarray:
    """A flat list of [re, im] pairs, each a list of two JSON numbers, as
    complex entries. Types are checked before numpy sees the list, which
    would otherwise read a string or a boolean as a number."""
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
    return arr[0::2] + 1j * arr[1::2]


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
    file_object(doc, branch, "state document")
    if kind == "tmsvs":
        cutoff = doc.get("cutoff")
        spec = TmsvsSpec.from_r(file_number(doc["r"], "r"),
                                None if cutoff is None else file_integer(cutoff, "cutoff"))
        return tmsvs_truncated(spec)
    layout = SubsystemLayout(_file_integers(doc["dims"], "dims"),
                             _file_integers(doc["partyA"], "partyA"))
    deficit = file_number(doc.get("truncation_deficit", 0.0), "truncation_deficit")
    if kind == "pure":
        amps = _from_pairs(doc["amplitudes"], layout.dim, "amplitudes")
        return PureState(amps, layout, deficit)
    mat = _from_pairs(doc["matrix"], layout.dim ** 2, "matrix").reshape(layout.dim, layout.dim)
    state = DensityMatrix(mat, layout, deficit, _trusted=True)
    state.validate(psd_tol)
    return state


def cm_to_json(cm: CovarianceMatrix) -> dict:
    return {"modes": cm.modes, "gamma": [[float(v) for v in row] for row in cm.gamma],
            "displacement": [float(v) for v in cm.displacement]}


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
