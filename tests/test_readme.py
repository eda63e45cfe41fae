"""The README's library tour and file-format examples run as written
against the source tree."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema

from qchain.cli import EXIT_OK, main
from qchain.reports import CHAIN_SCHEMA, STATE_SCHEMA

from conftest import typed_fields

ROOT = Path(__file__).resolve().parents[1]


def test_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"^## Library tour\s+```python\n(.*?)^```", readme, re.S | re.M)
    assert tour, "README has no python block under '## Library tour'"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", tour.group(1)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _file_formats_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^### File formats\n(.*?)^## ", readme, re.S | re.M)
    assert section, "README has no '### File formats' section"
    return section.group(1)


def _file_format_examples():
    """Every JSON object that the README's file-format section shows, in a
    json block or inline, as (format, document); placeholders such as
    `{"r": r}` are not JSON and are skipped."""
    section = _file_formats_section()
    texts = re.findall(r"^```json\n(.*?)^```", section, re.S | re.M)
    texts += re.findall(r"`(\{[^`]*\})`", section)
    examples = []
    for text in texts:
        try:
            doc = json.loads(text)
        except ValueError:
            continue
        fmt = "chain" if "links" in doc else doc["kind"]
        examples.append((fmt, doc))
    return examples


def test_file_format_examples_run(tmp_path):
    # Each example follows its schema and runs through the CLI.
    examples = _file_format_examples()
    assert {fmt for fmt, _ in examples} >= {"pure", "tmsvs", "chain"}
    for i, (fmt, doc) in enumerate(examples):
        schema, command = (CHAIN_SCHEMA, "chain") if fmt == "chain" else (STATE_SCHEMA, "measure")
        jsonschema.validate(doc, schema)
        path = tmp_path / f"example{i}.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--input", str(path), "--output", str(tmp_path / "out.json")]) \
            == EXIT_OK, (fmt, doc)


def test_field_type_lists_match_the_schemas():
    # The README's lists of integer and number fields name exactly the
    # fields that the schemas type so, as their messages name them.
    section = " ".join(_file_formats_section().split())
    for kind in ("integer", "number"):
        listed = re.search(rf"The {kind} fields, alone or as lists, are (.*?)\. ", section)
        assert listed, f"README lists no {kind} fields"
        expected = {field for _, _, field, t in typed_fields() if t in (kind, f"{kind} list")}
        assert set(re.findall(r"`([^`]+)`", listed.group(1))) == expected
