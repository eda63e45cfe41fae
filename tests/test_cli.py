import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qchain import cli, repro
from qchain.cli import EXIT_IO, EXIT_MEMORY, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from qchain.gaussian import CM_MAX_R
from qchain.groupop import LAW_REGISTRY
from qchain.monogamy import DEFAULT_GRID_N, VIOLATION_TOL
from qchain.reports import (
    CHAIN_SCHEMA,
    IDENTICAL_LINKS_SCHEMA,
    LINK_SCHEMAS,
    REPORT_SCHEMA,
    STATE_SCHEMA,
    SWEEP_CSV_COLUMNS,
    state_from_json,
    state_to_json,
    strip_meta,
)
from qchain.states import TmsvsSpec, bell_state, random_density_matrix, tmsvs_truncated
from qchain.tensor import SubsystemLayout

from conftest import REFUSED_REAL_MATRICES, typed_fields


BAD_NUMBERS = ["nan", "inf", "-1", "abc"]
# The edge values each number rule accepts: -0.0 >= 0, and the smallest
# subnormal is finite and > 0.
SMALLEST_POSITIVE = "5e-324"
TOLERANCE_EDGES = ["-0.0", SMALLEST_POSITIVE]
ALPHA_RULE = "alpha must be finite and > 0"


def assert_flag_refused(err, flag, value, rule):
    """err holds one error line, which names the flag and carries the
    library rule's text (float()'s for a non-number), and no traceback."""
    (line,) = [ln for ln in err.splitlines() if "error:" in ln]
    assert f"argument {flag}: " in line
    if value == "abc":
        assert line.endswith("could not convert string to float: 'abc'")
    else:
        assert line.endswith(f"{rule}, got {float(value)}")
    assert "Traceback" not in err


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def load_report(path):
    doc = json.loads(path.read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)
    return doc


@pytest.fixture
def bell_file(tmp_path):
    doc = state_to_json(bell_state())
    jsonschema.validate(doc, STATE_SCHEMA)
    return write_json(tmp_path / "bell.json", doc)


@pytest.fixture
def chain_file(tmp_path):
    doc = {"kind": "tmsvs", "links": {"identical": {"r": 0.5}, "count": 10}}
    jsonschema.validate(doc, CHAIN_SCHEMA)
    return write_json(tmp_path / "chain.json", doc)


class TestMeasureCommand:
    def test_bell_measures(self, bell_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(["measure", "--input", bell_file,
                     "--measures", "negativity,ratio", "--output", str(out)])
        assert code == EXIT_OK
        doc = load_report(out)
        values = {m["measure"]: m["value"] for m in doc["result"]["measures"]}
        assert abs(values["negativity"] - 0.5) < 1e-10
        assert abs(values["ratio"] - 1 / 3) < 1e-10
        assert all(m["ppt"] is False for m in doc["result"]["measures"])

    def test_tmsvs_input(self, tmp_path):
        state = write_json(tmp_path / "tmsvs.json", {"kind": "tmsvs", "r": 1.0, "cutoff": 200})
        out = tmp_path / "r.json"
        code = main(["measure", "--input", state, "--measures", "ratio", "--output", str(out)])
        assert code == EXIT_OK
        doc = load_report(out)
        assert abs(doc["result"]["measures"][0]["value"] - math.tanh(1.0)) < 1e-8

    def test_separable_file(self, tmp_path):
        dm = random_density_matrix(SubsystemLayout((2, 2), (0,)), 1, seed=0)
        # A product of marginals is separable by construction.
        from qchain.states import DensityMatrix
        from qchain.tensor import kron, partial_trace
        ma = partial_trace(dm.matrix, dm.layout, [0])
        mb = partial_trace(dm.matrix, dm.layout, [1])
        sep = DensityMatrix(kron(ma, mb), dm.layout)
        state = write_json(tmp_path / "sep.json", state_to_json(sep))
        out = tmp_path / "sep_report.json"
        assert main(["measure", "--input", state, "--output", str(out)]) == EXIT_OK
        doc = load_report(out)
        values = {m["measure"]: m for m in doc["result"]["measures"]}
        assert values["negativity"]["value"] == 0.0
        assert values["ratio"]["value"] == 0.0
        assert values["negativity"]["ppt"] is True

    def test_state_roundtrip(self):
        st = bell_state()
        again = state_from_json(state_to_json(st))
        assert np.array_equal(st.amplitudes, again.amplitudes)
        dm = random_density_matrix(SubsystemLayout((2, 3), (0,)), 4, seed=2)
        back = state_from_json(state_to_json(dm))
        assert np.allclose(back.matrix, dm.matrix, atol=0)

    def test_state_file_read_with_collector_paused(self, tmp_path, monkeypatch):
        # The parsed pair lists are dropped before the collector resumes,
        # so no collection walks them.
        import gc
        import weakref

        import qchain.reports as reports

        class Doc(dict):  # a dict that a weak reference can follow
            pass

        seen = []
        load, convert = json.load, reports.state_from_json

        def tracked_load(fh):
            doc = Doc(load(fh))
            weakref.finalize(doc, lambda: seen.append(("dropped", gc.isenabled())))
            return doc

        def tracked_convert(doc, psd_tol):
            seen.append(("converting", gc.isenabled()))
            return convert(doc, psd_tol)

        monkeypatch.setattr(reports.json, "load", tracked_load)
        monkeypatch.setattr(reports, "state_from_json", tracked_convert)
        dm = random_density_matrix(SubsystemLayout((2, 3), (0,)), 4, seed=2)
        path = write_json(tmp_path / "mixed.json", state_to_json(dm))
        assert gc.isenabled()
        assert np.array_equal(reports.read_state(path).matrix,
                              state_from_json(state_to_json(dm)).matrix)
        assert seen == [("converting", False), ("dropped", False)]
        assert gc.isenabled()

    def test_real_state_roundtrip(self):
        dm = tmsvs_truncated(TmsvsSpec.from_r(0.5, cutoff=6)).density_matrix()
        doc = state_to_json(dm)
        assert all(im == 0.0 for _, im in doc["matrix"])
        back = state_from_json(json.loads(json.dumps(doc)))
        assert back.matrix.dtype == np.float64
        assert np.array_equal(back.matrix, dm.matrix)
        assert back._pt_parts == dm._pt_parts
        assert json.dumps(state_to_json(back)) == json.dumps(doc)


class TestChainCommand:
    def test_ten_squeezed_links(self, chain_file, tmp_path):
        out = tmp_path / "chain_report.json"
        assert main(["chain", "--input", chain_file, "--output", str(out)]) == EXIT_OK
        doc = load_report(out)
        res = doc["result"]
        assert math.isclose(res["end_to_end"], math.tanh(0.5) ** 10, rel_tol=1e-12)
        assert math.isclose(res["characteristic_length"],
                            -1 / math.log(math.tanh(0.5)), rel_tol=1e-10)

    def test_bell_chain_serializes_infinity(self, tmp_path):
        spec = write_json(tmp_path / "bell_chain.json",
                          {"kind": "qubit",
                           "links": {"identical": {"concurrence": 1.0}, "count": 100}})
        out = tmp_path / "out.json"
        assert main(["chain", "--input", spec, "--output", str(out)]) == EXIT_OK
        res = load_report(out)["result"]
        assert res["end_to_end"] == 1.0
        assert res["characteristic_length"] == "inf"

    def test_uniform_qutrit_chain(self, tmp_path):
        spec = write_json(tmp_path / "qutrit.json",
                          {"kind": "qudit",
                           "links": {"identical": {"lambda": [1 / 3, 1 / 3, 1 / 3]}, "count": 7}})
        out = tmp_path / "out.json"
        assert main(["chain", "--input", spec, "--output", str(out)]) == EXIT_OK
        assert abs(load_report(out)["result"]["end_to_end"] - 1.0) < 1e-10

    def test_heterogeneous_rejected(self, tmp_path):
        spec = write_json(tmp_path / "mixed.json",
                          {"kind": "qubit", "links": [{"concurrence": 0.5}, {"r": 1.0}]})
        assert main(["chain", "--input", spec]) == EXIT_VALIDATION


class TestSweepCommand:
    def test_csv_rows(self, chain_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--input", chain_file, "--format", "csv",
                     "--output", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert tuple(rows[0].keys()) == SWEEP_CSV_COLUMNS
        assert len(rows) == 10
        xi = {float(r["xi"]) for r in rows}
        assert max(xi) - min(xi) < 1e-9
        assert math.isclose(float(rows[-1]["value"]), math.tanh(0.5) ** 10, rel_tol=1e-10)

    def test_json_rows(self, chain_file, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--input", chain_file, "--output", str(out)]) == EXIT_OK
        doc = load_report(out)
        assert len(doc["result"]["rows"]) == 10


class TestSweepMatchesChain:
    @pytest.mark.parametrize("doc", [
        {"kind": "tmsvs", "links": [{"r": 0.2}, {"r": 0.5}, {"r": 1.3}, {"r": 0.05}], "alpha": 2.5},
        {"kind": "qudit", "links": [{"d": 4, "g_concurrence": 0.6}, {"lambda": [0.4, 0.3, 0.2, 0.1]},
                                    {"d": 4, "g_concurrence": 1e-3}]},
    ], ids=["tmsvs", "qudit"])
    def test_rows_are_prefix_chain_reports(self, tmp_path, doc):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--input", write_json(tmp_path / "chain.json", doc),
                     "--output", str(out)]) == EXIT_OK
        rows = load_report(out)["result"]["rows"]
        assert [row["l"] for row in rows] == list(range(1, len(doc["links"]) + 1))
        for row in rows:
            prefix = write_json(tmp_path / "prefix.json", {**doc, "links": doc["links"][:row["l"]]})
            assert main(["chain", "--input", prefix, "--output", str(out)]) == EXIT_OK
            res = load_report(out)["result"]
            assert row == {"l": row["l"], "value": res["end_to_end"],
                           "xi": res["characteristic_length"], "alpha": res["alpha"],
                           "kind": res["kind"]}


class TestIgnoredFlagsRefused:
    @pytest.mark.parametrize("argv,refusal", [
        (["measure", "--input", "{bell}", "--cutoff", "5"], "unrecognized arguments: --cutoff 5"),
        (["chain", "--input", "{chain}", "--alpha", "2"], "unrecognized arguments: --alpha 2"),
        (["sweep", "--input", "{chain}", "--alpha", "2"], "unrecognized arguments: --alpha 2"),
        (["monogamy", "--dims", "2,2,2", "--input", "{chain}"],
         "unrecognized arguments: --input {chain}"),
        (["monogamy"], "the following arguments are required: --dims"),
    ], ids=["measure-cutoff", "chain-alpha", "sweep-alpha", "monogamy-input", "monogamy-no-dims"])
    def test_one_route_per_value(self, bell_file, chain_file, argv, refusal, capsys):
        # A tmsvs cutoff and a chain alpha come only from the input file,
        # and a scan only from the flags.
        paths = {"bell": bell_file, "chain": chain_file}
        assert main([a.format(**paths) for a in argv]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        (line,) = [ln for ln in err.splitlines() if "error:" in ln]
        assert line.endswith(refusal.format(**paths))
        assert "Traceback" not in err

    @pytest.mark.parametrize("measures", ["ratio", "negativity,log_negativity,ratio"])
    def test_measure_alpha_without_alpha_ratio(self, bell_file, measures, capsys):
        argv = ["measure", "--input", bell_file, "--measures", measures, "--alpha", "3"]
        assert main(argv) == EXIT_VALIDATION
        assert "--alpha" in capsys.readouterr().err
        assert main(["measure", "--input", bell_file, "--alpha", "3"]) == EXIT_VALIDATION
        assert "--alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("measures", [" , ", "", ","])
    def test_measure_with_no_measures(self, bell_file, measures, capsys):
        assert main(["measure", "--input", bell_file, f"--measures={measures}"]) \
            == EXIT_VALIDATION
        assert "--measures" in capsys.readouterr().err

    def test_measure_alpha_recorded(self, bell_file, tmp_path):
        out = tmp_path / "r.json"
        assert main(["measure", "--input", bell_file, "--output", str(out)]) == EXIT_OK
        assert load_report(out)["config"]["alpha"] == 1.0
        assert main(["measure", "--input", bell_file, "--measures", "ratio,alpha_ratio",
                     "--alpha", "3", "--output", str(out)]) == EXIT_OK
        doc = load_report(out)
        assert doc["config"]["alpha"] == 3.0
        ratio, powered = doc["result"]["measures"]
        assert "alpha" not in ratio and powered["alpha"] == 3.0
        assert abs(powered["value"] - ratio["value"] ** 3) < 1e-15

    def test_monogamy_defaults_apply_with_dims(self, tmp_path):
        out = tmp_path / "scan.json"
        assert main(["monogamy", "--dims", "2,2,2", "--output", str(out)]) == EXIT_OK
        config = load_report(out)["config"]
        assert (config["samples"], config["alpha"], config["seed"]) == (1000, 1.0, 0)
        assert (config["grid"], config["tol_violation"]) == (DEFAULT_GRID_N, VIOLATION_TOL) \
            == (500, 1e-9)


class TestMonogamyCommand:
    def test_inline_dims(self, tmp_path):
        out = tmp_path / "scan2.json"
        code = main(["monogamy", "--dims", "2,2,2", "--samples", "25",
                     "--alpha", "1.0", "--seed", "3", "--output", str(out)])
        assert code == EXIT_OK
        assert load_report(out)["result"]["scan"]["violation_count"] >= 1

    def test_seed_outside_the_key_word_exits_2(self, capsys):
        assert main(["monogamy", "--dims", "2,2,2", "--samples", "10", "--seed", "-1"]) \
            == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == ["error: seed must lie in [0, 2**64), got -1"]

    def test_requires_dims_or_input(self):
        assert main(["monogamy"]) == EXIT_VALIDATION

    def test_grid_below_library_minimum_rejected(self, capsys):
        code = main(["monogamy", "--dims", "2,2,2", "--samples", "5", "--grid", "50"])
        assert code == EXIT_VALIDATION
        assert "grid_n must be >= 100" in capsys.readouterr().err


class TestGroupopCommand:
    def test_tanh_sum_report(self, tmp_path):
        out = tmp_path / "law.json"
        assert main(["groupop", "--law", "tanh_sum", "--output", str(out)]) == EXIT_OK
        doc = load_report(out)
        g = doc["result"]["group_operation"]
        assert g["associativity"]["passed"] is True
        assert g["identity"]["passed"] is True
        assert g["solvability"]["passed"] is False
        assert doc["result"]["necessary_conditions"]["min_bound"]["passed"] is False

    def test_unknown_law(self):
        assert main(["groupop", "--law", "nope"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("grid", ["1", "0"])
    def test_grid_below_two_rejected(self, grid, capsys):
        assert main(["groupop", "--law", "tanh_sum", "--grid", grid]) == EXIT_VALIDATION
        assert "at least 2 points" in capsys.readouterr().err


class TestGaussianCommand:
    def test_squeezed_state_report(self, tmp_path):
        out = tmp_path / "cm.json"
        assert main(["gaussian", "--r", "0.5", "--output", str(out)]) == EXIT_OK
        doc = load_report(out)
        res = doc["result"]
        assert abs(res["ratio_negativity"] - math.tanh(0.5)) < 1e-6
        assert res["valid"] is True
        assert abs(res["covariance_matrix"]["gamma"][0][0] - math.cosh(1.0)) < 1e-12
        assert np.allclose(res["symplectic_eigenvalues"], [1.0, 1.0], atol=1e-8)

    def test_invalid_r(self):
        assert main(["gaussian", "--r", "-1.0"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("r", ["6", "20", "356", "1000"])
    def test_r_beyond_the_route_range(self, r, capsys):
        assert main(["gaussian", "--r", r]) == EXIT_VALIDATION
        assert f"the covariance route takes 0 < r <= {CM_MAX_R}, " \
               f"got r = {float(r)}" in capsys.readouterr().err


class TestReproCommand:
    def test_all_fixtures_pass(self, tmp_path):
        out = tmp_path / "repro.json"
        assert main(["repro", "--output", str(out)]) == EXIT_OK
        doc = load_report(out)
        assert doc["result"]["all_pass"] is True
        assert len(doc["result"]["fixtures"]) == 6

    @pytest.mark.parametrize("name,expected", [
        ("ckw-violation", [0.2, 0.2]),
        ("monotone-counterexample", None),
    ])
    def test_single_fixture(self, tmp_path, name, expected):
        out = tmp_path / "one.json"
        assert main(["repro", "--only", name, "--output", str(out)]) == EXIT_OK
        doc = load_report(out)
        fixtures = doc["result"]["fixtures"]
        assert len(fixtures) == 1 and fixtures[0]["name"] == name
        assert fixtures[0]["pass"] is True

    def test_unknown_fixture(self):
        assert main(["repro", "--only", "does-not-exist"]) == EXIT_VALIDATION

    def test_failing_fixture_exits_3_and_names_the_check(self, tmp_path, monkeypatch, capsys):
        broken = repro.Fixture("broken", (repro.Check("off by one", "close", 2.0, 1.0, 0.0),))
        monkeypatch.setattr(repro, "FIXTURES", {"broken": lambda: broken})
        out = tmp_path / "repro.json"
        assert main(["repro", "--output", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "[FAIL] broken" in err
        assert "off by one: computed 2.0, expected 1.0 (tol 0.0)" in err
        assert load_report(out)["result"]["all_pass"] is False


class TestExitCodesAndDeterminism:
    def test_missing_file_is_io_error(self):
        assert main(["measure", "--input", "/no/such/file.json"]) == EXIT_IO

    def test_invalid_json_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["measure", "--input", str(bad)]) == EXIT_VALIDATION

    def test_bad_usage_is_validation_error(self, capsys):
        assert main(["measure"]) == EXIT_VALIDATION
        capsys.readouterr()

    def test_report_goes_to_stdout_without_output(self, bell_file, capsys):
        assert main(["measure", "--input", bell_file]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "measure"
        assert [m["measure"] for m in report["result"]["measures"]] == \
            ["negativity", "log_negativity", "ratio"]

    def test_unwritable_output_is_io_error(self, bell_file):
        assert main(["measure", "--input", bell_file,
                     "--output", "/no/such/dir/out.json"]) == EXIT_IO

    def test_reports_identical_after_meta_strip(self, tmp_path):
        argv = ["monogamy", "--dims", "2,2,3", "--samples", "20", "--alpha", "3.2", "--seed", "11"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--output", str(out1)]) == EXIT_OK
        assert main(argv + ["--output", str(out2)]) == EXIT_OK
        a = json.dumps(strip_meta(json.loads(out1.read_text())), sort_keys=True)
        b = json.dumps(strip_meta(json.loads(out2.read_text())), sort_keys=True)
        assert a == b


class TestFormatFlag:
    @pytest.mark.parametrize("argv", [["measure", "--input", "state.json"],
                                      ["gaussian", "--r", "0.5"]])
    def test_rejected_outside_sweep(self, argv, capsys):
        assert main(argv + ["--format", "csv"]) == EXIT_VALIDATION
        assert "--format" in capsys.readouterr().err


class TestMeasureInputChecks:
    @pytest.mark.parametrize("measures", ["bogus", "negativity,bogus"])
    def test_unknown_measure_refused_before_the_file_is_read(self, monkeypatch, measures, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the state file was read")

        monkeypatch.setattr(cli, "read_state", refuse)
        assert main(["measure", "--input", "unread.json", "--measures", measures]) \
            == EXIT_VALIDATION
        assert "unknown measure kind 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["measure", "chain", "sweep"])
    def test_deeply_nested_file_exits_2(self, tmp_path, command, capsys):
        # json.load recurses once per "[", so this depth is far past
        # Python's recursion limit; the refusal is one line, no traceback.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main([command, "--input", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == \
            [f"error: {path}: JSON nested too deeply to parse"]

    def test_unknown_state_kind(self, tmp_path, capsys):
        path = write_json(tmp_path / "state.json", {"kind": "bogus"})
        assert main(["measure", "--input", path]) == EXIT_VALIDATION
        assert "unknown state kind 'bogus'" in capsys.readouterr().err

    def test_json_list_input_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path / "list.json", [1, 2])
        assert main(["measure", "--input", path]) == EXIT_VALIDATION
        assert "must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(REFUSED_REAL_MATRICES))
    def test_refused_real_matrix_exits_2(self, tmp_path, case, capsys):
        m, what = REFUSED_REAL_MATRICES[case]
        doc = {"dims": [2, 2], "partyA": [0], "kind": "mixed",
               "matrix": [[float(v), 0.0] for v in m.reshape(-1)]}
        assert main(["measure", "--input", write_json(tmp_path / "bad.json", doc)]) \
            == EXIT_VALIDATION
        assert what in capsys.readouterr().err

    def test_tmsvs_r_with_chi_rounding_to_one_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "tmsvs.json", {"kind": "tmsvs", "r": 20})
        assert main(["measure", "--input", path]) == EXIT_VALIDATION
        assert "chi = tanh r must lie below 1" in capsys.readouterr().err

    def test_tmsvs_cutoff_beyond_any_array_exits_2(self, tmp_path, capsys):
        # The file's 1e308 reads as the integer int(1e308).
        path = write_json(tmp_path / "tmsvs.json", {"kind": "tmsvs", "r": 0.5, "cutoff": 1e308})
        assert main(["measure", "--input", path]) == EXIT_VALIDATION
        assert capsys.readouterr().err == \
            f"error: cutoff must be at most 3037000498, got {int(1e308)}\n"

    @pytest.mark.parametrize("tol", ["nan", "-1e-10", "inf", "1e400"] + TOLERANCE_EDGES)
    def test_tol_psd_must_be_finite_nonnegative(self, tmp_path, tol, capsys):
        path = write_json(tmp_path / "tmsvs.json", {"kind": "tmsvs", "r": 0.5})
        if tol in TOLERANCE_EDGES:
            assert main(["measure", "--input", path, f"--tol-psd={tol}"]) == EXIT_OK
            return
        assert main(["measure", "--input", path, f"--tol-psd={tol}"]) == EXIT_VALIDATION
        assert_flag_refused(capsys.readouterr().err, "--tol-psd", tol,
                            "psd_tol must be finite and >= 0")


def test_monogamy_grid_rejected_before_scan(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("scan ran before the grid was checked")

    monkeypatch.setattr(cli, "sample_monogamy_scan", refuse)
    assert main(["monogamy", "--dims", "2,2,2", "--samples", "5", "--grid", "50"]) == EXIT_VALIDATION
    assert "grid_n must be >= 100" in capsys.readouterr().err


@pytest.mark.parametrize("qubits", [40, 64])
def test_monogamy_oversized_dims_refused_before_drawing(monkeypatch, capsys, qubits):
    import qchain.monogamy as monogamy

    def refuse(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(monogamy, "haar_amplitude_rows", refuse)
    assert main(["monogamy", "--dims", ",".join(["2"] * qubits), "--samples", "1"]) \
        == EXIT_VALIDATION
    dims = ", ".join(["2"] * qubits)
    assert f"dims ({dims}) give a state of dimension {2 ** qubits}" in capsys.readouterr().err


def test_monogamy_twelve_qubits_run(tmp_path):
    out = tmp_path / "out.json"
    assert main(["monogamy", "--dims", ",".join(["2"] * 12), "--samples", "2",
                 "--output", str(out)]) == EXIT_OK
    assert load_report(out)["result"]["scan"]["samples"] == 2


@pytest.mark.parametrize("value", BAD_NUMBERS + ["1e400"] + TOLERANCE_EDGES)
@pytest.mark.parametrize("argv,flag", [
    (["monogamy", "--dims", "2,2,2", "--samples", "20", "--alpha", "1.0", "--seed", "3"],
     "--tol-violation"),
    (["groupop", "--law", "tanh_sum", "--grid", "16"], "--tol-assoc"),
])
def test_tolerance_flags_must_be_finite_nonnegative(argv, flag, value, capsys):
    if value in TOLERANCE_EDGES:
        assert main(argv + [f"{flag}={value}"]) == EXIT_OK
        return
    assert main(argv + [f"{flag}={value}"]) == EXIT_VALIDATION
    name = {"--tol-violation": "violation_tol", "--tol-assoc": "assoc_tol"}[flag]
    assert_flag_refused(capsys.readouterr().err, flag, value, f"{name} must be finite and >= 0")


class TestFinitePositiveFlags:
    @pytest.mark.parametrize("value", BAD_NUMBERS + ["0", "1e400", SMALLEST_POSITIVE])
    def test_measure_alpha(self, tmp_path, value, capsys):
        path = write_json(tmp_path / "tmsvs.json", {"kind": "tmsvs", "r": 0.5})
        argv = ["measure", "--input", path, "--measures", "alpha_ratio", f"--alpha={value}"]
        if value == SMALLEST_POSITIVE:
            assert main(argv) == EXIT_OK
            return
        assert main(argv) == EXIT_VALIDATION
        assert_flag_refused(capsys.readouterr().err, "--alpha", value, ALPHA_RULE)

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400", SMALLEST_POSITIVE])
    def test_monogamy_alpha(self, value, capsys):
        argv = ["monogamy", "--dims", "2,2,2", "--samples", "5", f"--alpha={value}"]
        if value == SMALLEST_POSITIVE:
            assert main(argv) == EXIT_OK
            return
        assert main(argv) == EXIT_VALIDATION
        assert_flag_refused(capsys.readouterr().err, "--alpha", value, ALPHA_RULE)

    @pytest.mark.parametrize("value", BAD_NUMBERS + ["0", "1e400"])
    def test_gaussian_r(self, value, capsys):
        assert main(["gaussian", f"--r={value}"]) == EXIT_VALIDATION
        assert_flag_refused(capsys.readouterr().err, "--r", value,
                            "squeezing parameter r must be finite and > 0")


@pytest.mark.parametrize("dims", ["2,2.5,2", "2,,2"])
def test_monogamy_dims_must_be_integers(dims, capsys):
    assert main(["monogamy", "--dims", dims, "--samples", "5"]) == EXIT_VALIDATION
    assert "--dims" in capsys.readouterr().err


class TestTolPsdReachesPsdCheck:
    # diag(0.5 + 1e-9, 0.5, 0, -1e-9): unit trace, smallest eigenvalue -1e-9.
    DOC = {"dims": [2, 2], "partyA": [0], "kind": "mixed",
           "matrix": [[float(v), 0.0] for v in np.diag([0.5 + 1e-9, 0.5, 0.0, -1e-9]).reshape(-1)]}

    def test_rejected_at_default_tolerance(self, tmp_path, capsys):
        path = write_json(tmp_path / "near_psd.json", self.DOC)
        assert main(["measure", "--input", path]) == EXIT_VALIDATION
        assert "negative eigenvalue -1.000e-09" in capsys.readouterr().err

    def test_accepted_at_looser_tolerance(self, tmp_path):
        path = write_json(tmp_path / "near_psd.json", self.DOC)
        out = tmp_path / "report.json"
        assert main(["measure", "--input", path, "--tol-psd", "1e-6",
                     "--measures", "negativity", "--output", str(out)]) == EXIT_OK
        (result,) = load_report(out)["result"]["measures"]
        assert result["value"] == 0.0 and result["ppt"] is True

    def test_library_takes_the_tolerance(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            state_from_json(self.DOC)
        assert state_from_json(self.DOC, 1e-6).layout.dims == (2, 2)


def _complex_mixed(diag, upper):
    """[re, im] pairs of a 4 x 4 matrix with the given diagonal and
    m[0, 1] = upper, m[1, 0] = its conjugate."""
    m = np.diag(diag).astype(complex)
    m[0, 1], m[1, 0] = upper, np.conj(upper)
    return [[float(v.real), float(v.imag)] for v in m.reshape(-1)]


_HERMITIAN = _complex_mixed([0.25] * 4, 0.1 + 0.1j)
_NOT_HERMITIAN = _HERMITIAN[:4] + [[0.1, 0.1]] + _HERMITIAN[5:]


@pytest.mark.parametrize("matrix,message", [
    (_NOT_HERMITIAN, "matrix is not Hermitian within tolerance: defect 2.000e-01 > 1.000e-10"),
    (_complex_mixed([0.5] * 4, 0.1j), "density matrix trace (2+0j) != 1"),
    (_complex_mixed([0.25] * 4, complex(0, math.nan)), "density matrix contains non-finite entries"),
    (_HERMITIAN[:15], "matrix must be a flat row-major list of 16 [re, im] pairs"),
    (_complex_mixed([0.5 + 1e-9, 0.5, 0.0, -1e-9], 1e-12j),
     "density matrix has negative eigenvalue -1.000e-09"),
], ids=["non-Hermitian", "trace", "NaN", "pair count", "non-PSD"])
@pytest.mark.parametrize("tol", [None, "1e-6"])
def test_complex_mixed_file_refusal_message(tmp_path, matrix, message, tol, capsys):
    # A complex file's matrix is checked as a caller's is; only the PSD
    # check reads --tol-psd, so the looser tolerance accepts that file.
    doc = {"dims": [2, 2], "partyA": [0], "kind": "mixed", "matrix": matrix}
    argv = ["measure", "--input", write_json(tmp_path / "state.json", doc),
            "--output", str(tmp_path / "report.json")]
    code = main(argv + (["--tol-psd", tol] if tol else []))
    if tol and "negative eigenvalue" in message:
        assert code == EXIT_OK
    else:
        assert (code, capsys.readouterr().err) == (EXIT_VALIDATION, f"error: {message}\n")


class TestInputFileFields:
    CHAIN = {"kind": "tmsvs", "links": {"identical": {"r": 0.5}, "count": 3}}

    @pytest.mark.parametrize("command", ["chain", "sweep"])
    @pytest.mark.parametrize("alpha", ["1e999", pytest.param("1" + "0" * 400, id="1e400-int"),
                                       "true", "0", '"2"'])
    def test_chain_file_alpha(self, tmp_path, command, alpha, capsys):
        # Written as raw text: 1e999 parses to inf, which json.dumps cannot
        # write, and 10**400 to an int beyond the float range.
        path = tmp_path / "qubit_chain.json"
        path.write_text('{"kind": "qubit", "links": [{"concurrence": 0.5}], "alpha": %s}' % alpha)
        assert main([command, "--input", str(path)]) == EXIT_VALIDATION
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("command,doc,schema,field", [
        ("chain", {**CHAIN, "links": {"identical": {"r": 0.5}, "count": "3"}},
         CHAIN_SCHEMA, "links.count"),
        ("sweep", {**CHAIN, "links": {"identical": {"r": 0.5}, "count": True}},
         CHAIN_SCHEMA, "links.count"),
        ("sweep", {**CHAIN, "links": {"identical": {"r": 0.5}, "count": 0}},
         CHAIN_SCHEMA, "links.count"),
    ])
    def test_integer_fields(self, tmp_path, command, doc, schema, field, capsys):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)
        path = write_json(tmp_path / "input.json", doc)
        assert main([command, "--input", path]) == EXIT_VALIDATION
        assert f"{field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["chain", "sweep"])
    @pytest.mark.parametrize("r", ["0.5", True, math.nan])
    def test_tmsvs_link_r_is_a_finite_number(self, tmp_path, command, r, capsys):
        doc = {**self.CHAIN, "links": [{"r": 0.5}, {"r": r}]}
        path = write_json(tmp_path / "input.json", doc)
        assert main([command, "--input", path]) == EXIT_VALIDATION
        assert "r must be a" in capsys.readouterr().err

    QUBIT = {"kind": "qubit", "links": [{"concurrence": 0.5}]}
    QUDIT = {"kind": "qudit", "links": [{"lambda": [0.5, 0.5]}]}

    @pytest.mark.parametrize("command", ["chain", "sweep"])
    @pytest.mark.parametrize("doc,message", [
        ({**QUBIT, "links": [{"concurrence": True}]}, "concurrence must be a number"),
        ({**QUBIT, "links": [{"concurrence": "0.5"}]}, "concurrence must be a number"),
        ({**QUBIT, "links": [{"lambda": [True, False]}]}, "lambda entry must be a number"),
        ({**QUBIT, "links": [{"lambda": 0.5}]}, "lambda must be a list"),
        ({**QUDIT, "links": [{"lambda": ["0.5", "0.5"]}]}, "lambda entry must be a number"),
        ({**QUDIT, "links": [{"lambda": [0.5, math.inf]}]}, "lambda entry must be a finite"),
        ({**QUDIT, "links": [{"d": 3.5, "g_concurrence": 0.5}]}, "d must be an integer"),
        ({**QUDIT, "links": [{"d": 3, "g_concurrence": "1"}]}, "g_concurrence must be a number"),
        ({**QUDIT, "links": {"identical": {"d": True, "g_concurrence": 0.5}, "count": 2}},
         "d must be an integer"),
        ({**QUDIT, "links": [0.5]}, "each link must be a JSON object"),
    ])
    def test_qubit_and_qudit_link_fields(self, tmp_path, command, doc, message, capsys):
        # json.dumps writes math.inf as Infinity, which the parser reads back.
        path = write_json(tmp_path / "input.json", doc)
        assert main([command, "--input", path]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["chain", "sweep"])
    def test_document_must_be_an_object(self, tmp_path, command, capsys):
        path = write_json(tmp_path / "input.json", [1])
        assert main([command, "--input", path]) == EXIT_VALIDATION
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command,doc,schema,key", [
        ("measure", {"kind": "tmsvs", "r": 0.5, "bogus": 1}, STATE_SCHEMA, "bogus"),
        ("measure", {"kind": "tmsvs", "r": 0.5, "dims": [2, 2]}, STATE_SCHEMA, "dims"),
        ("measure", {**state_to_json(bell_state()), "bogus": 1}, STATE_SCHEMA, "bogus"),
        ("measure", {**state_to_json(bell_state()), "r": 0.5}, STATE_SCHEMA, "r"),
        ("measure", {**state_to_json(bell_state()), "cutoff": 10}, STATE_SCHEMA, "cutoff"),
        ("chain", {**CHAIN, "bogus": 1}, CHAIN_SCHEMA, "bogus"),
        ("sweep", {**CHAIN, "bogus": 1}, CHAIN_SCHEMA, "bogus"),
        ("chain", {**CHAIN, "links": {"identical": {"r": 0.5}, "count": 3, "bogus": 1}},
         CHAIN_SCHEMA, "bogus"),
        ("chain", {**CHAIN, "links": [{"r": 0.5, "bogus": 1}]}, CHAIN_SCHEMA, "bogus"),
        ("sweep", {**CHAIN, "links": {"identical": {"r": 0.5, "d": 2}, "count": 3}},
         CHAIN_SCHEMA, "d"),
        ("chain", {"kind": "qubit", "links": [{"concurrence": 0.5, "d": 3}]}, CHAIN_SCHEMA, "d"),
        ("sweep", {"kind": "qubit", "links": [{"concurrence": 0.5, "r": 3}]}, CHAIN_SCHEMA, "r"),
        ("chain", {"kind": "qudit", "links": [{"d": 3, "g_concurrence": 0.5, "concurrence": 0.5}]},
         CHAIN_SCHEMA, "concurrence"),
    ])
    def test_unknown_keys_rejected(self, tmp_path, command, doc, schema, key, capsys):
        # Every input schema says additionalProperties: false.
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)
        path = write_json(tmp_path / "input.json", doc)
        assert main([command, "--input", path]) == EXIT_VALIDATION
        assert f"unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,doc,schema", [
        ("chain", {**CHAIN, "alpha": 2}, CHAIN_SCHEMA),
        ("sweep", {**CHAIN, "links": {"identical": {"r": 0.5}, "count": 3.0}}, CHAIN_SCHEMA),
        ("measure", {"kind": "tmsvs", "r": 1, "cutoff": 10.0}, STATE_SCHEMA),
        ("chain", {"kind": "qubit", "links": [{"lambda": [0.9, 0.1]}, {"concurrence": 0.5}]},
         CHAIN_SCHEMA),
        ("sweep", {"kind": "qudit", "links": [{"lambda": [0.5, 0.3, 0.2], "d": 3},
                                              {"d": 3, "g_concurrence": 0.5}]}, CHAIN_SCHEMA),
    ])
    def test_schema_valid_numbers_accepted(self, tmp_path, command, doc, schema):
        # JSON Schema's "integer" admits 3.0; "number" admits 2.
        jsonschema.validate(doc, schema)
        path = write_json(tmp_path / "input.json", doc)
        out = tmp_path / "out.json"
        assert main([command, "--input", path, "--output", str(out)]) == EXIT_OK


@pytest.mark.parametrize("command", ["chain", "sweep"])
def test_config_spec_is_the_file_as_written(tmp_path, command):
    # The typed values drive the run; the report keeps the file's own.
    doc = {"kind": "tmsvs", "links": {"identical": {"r": 0.5}, "count": 3.0}, "alpha": 2}
    out = tmp_path / "out.json"
    assert main([command, "--input", write_json(tmp_path / "chain.json", doc),
                 "--output", str(out)]) == EXIT_OK
    spec = load_report(out)["config"]["spec"]
    assert json.dumps(spec, sort_keys=True) == json.dumps(doc, sort_keys=True)


class TestChainRefusals:
    """Chain files that the library refuses exit 2 with the library's cause."""

    @pytest.mark.parametrize("command", ["chain", "sweep"])
    @pytest.mark.parametrize("doc,message", [
        ({"kind": "qudit", "links": [{"lambda": [0.5, 0.5]}, {"lambda": [0.4, 0.3, 0.3]}]},
         "link dimensions differ: [2, 3]"),
        ({"kind": "qudit", "links": [{"d": 3, "g_concurrence": 0.5}] * 2
          + [{"d": 4, "g_concurrence": 0.5}]}, "link dimensions differ: [3, 4]"),
        ({"kind": "tmsvs", "links": [{"r": 0.5}, {"r": 0}]},
         "squeezing parameter r must be finite and > 0, got 0.0"),
        ({"kind": "tmsvs", "links": {"identical": {"r": -0.5}, "count": 2}},
         "squeezing parameter r must be finite and > 0, got -0.5"),
        ({"kind": "tmsvs", "links": [{"r": 20}]}, "rounds to 1 in float64"),
        ({"kind": "tmsvs", "links": {"identical": {"r": 25}, "count": 3}},
         "rounds to 1 in float64"),
        ({"kind": "qubit", "links": [{"concurrence": 0.5}], "alpha": 2},
         "alpha 2.0 applies only to the alpha_ratio measure; 'concurrence' takes alpha 1"),
        ({"kind": "tmsvs", "links": [{"r": 0.5}], "measure": "ratio", "alpha": 2},
         "alpha 2.0 applies only to the alpha_ratio measure; 'ratio' takes alpha 1"),
        ({"kind": "qudit", "links": [{"d": 3, "g_concurrence": 0.5}], "alpha": 0.5},
         "alpha 0.5 applies only to the alpha_ratio measure; 'g_concurrence' takes alpha 1"),
        ({"kind": "qubit", "links": {"identical": {"concurrence": 1e-160}, "count": 2}},
         "end-to-end value of 2 links, 1e-320, lies below the normal float64 range"),
        ({"kind": "tmsvs", "links": [{"r": 1e-200}, {"r": 1e-200}]},
         "end-to-end value of 2 links, 0.0, lies below the normal float64 range"),
        ({"kind": "tmsvs", "links": [{"r": 1e-200}, {"r": 1e-200}], "alpha": 0.5},
         "product of tanh r over 2 links, 0.0, lies below the normal float64 range"),
        ({"kind": "qubit", "links": []}, "links must be a non-empty list or {identical, count}"),
        ({"kind": "qubit", "links": 5}, "links must be a non-empty list or {identical, count}"),
    ])
    def test_refused(self, tmp_path, command, doc, message, capsys):
        path = write_json(tmp_path / "chain.json", doc)
        assert main([command, "--input", path]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("doc,message", [
        ({"kind": "qubit", "links": [{"concurrence": 1e-160}] * 2 + [{"concurrence": 0.0}]},
         "end-to-end value of 2 links, 1e-320, lies below the normal float64 range"),
        ({"kind": "tmsvs", "links": [{"r": 20}, {"r": 0.5}]}, "rounds to 1 in float64"),
    ])
    def test_sweep_refuses_a_refused_prefix(self, tmp_path, doc, message, capsys):
        # The whole chain has a value, but a shorter prefix's chain has none.
        path = write_json(tmp_path / "chain.json", doc)
        assert main(["chain", "--input", path, "--output", os.devnull]) == EXIT_OK
        for fmt in ("json", "csv"):
            assert main(["sweep", "--input", path, "--format", fmt]) == EXIT_VALIDATION
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["chain", "sweep"])
    @pytest.mark.parametrize("links", [[{"lambda": [1.0]}],
                                       {"identical": {"lambda": [1.0], "d": 1}, "count": 2}])
    def test_single_schmidt_coefficient(self, tmp_path, command, links, capsys):
        doc = {"kind": "qudit", "links": links}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, CHAIN_SCHEMA)
        assert main([command, "--input", write_json(tmp_path / "chain.json", doc)]) \
            == EXIT_VALIDATION
        assert "at least 2 Schmidt coefficients, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["chain", "sweep"])
    def test_dead_link_keeps_xi_zero(self, tmp_path, command):
        doc = {"kind": "qubit", "links": [{"concurrence": 0.0}] + [{"concurrence": 1e-160}] * 2}
        out = tmp_path / "out.json"
        assert main([command, "--input", write_json(tmp_path / "chain.json", doc),
                     "--output", str(out)]) == EXIT_OK
        result = load_report(out)["result"]
        last = result["rows"][-1] if command == "sweep" else result
        assert last["xi" if command == "sweep" else "characteristic_length"] == 0.0


class TestTargetChainsReportClosedForms:
    """A chain of links built from a target value e reports e per hop and
    xi = -1/ln e, bit for bit."""

    def test_benchmark_sweep(self, tmp_path):
        # The sweep the benchmark runs: 50 d = 8 links of G-concurrence 0.9.
        doc = {"kind": "qudit", "links": {"identical": {"d": 8, "g_concurrence": 0.9}, "count": 50}}
        out = tmp_path / "out.json"
        path = write_json(tmp_path / "sweep.json", doc)
        assert main(["sweep", "--input", path, "--output", str(out)]) == EXIT_OK
        rows = load_report(out)["result"]["rows"]
        assert [row["value"] for row in rows] == [math.prod([0.9] * l) for l in range(1, 51)]
        assert rows[-1]["value"] == 0.9 ** 50
        assert {row["xi"] for row in rows} == {-1.0 / math.log(0.9)}
        assert main(["chain", "--input", path, "--output", str(out)]) == EXIT_OK
        res = load_report(out)["result"]
        assert res["per_hop"] == [0.9] * 50
        assert (res["end_to_end"], res["characteristic_length"]) \
            == (0.9 ** 50, -1.0 / math.log(0.9))

    @pytest.mark.parametrize("kind,link", [("qubit", {"concurrence": 0.5}),
                                           ("qudit", {"d": 2, "g_concurrence": 0.5}),
                                           ("qudit", {"d": 5, "g_concurrence": 0.5})])
    def test_half_links(self, tmp_path, kind, link):
        out = tmp_path / "out.json"
        doc = {"kind": kind, "links": {"identical": link, "count": 3}}
        assert main(["chain", "--input", write_json(tmp_path / "chain.json", doc),
                     "--output", str(out)]) == EXIT_OK
        res = load_report(out)["result"]
        assert (res["per_hop"], res["end_to_end"]) == ([0.5] * 3, 0.125)
        assert res["characteristic_length"] == 1.0 / math.log(2.0)


def strict_json(text):
    """json.loads refusing NaN, Infinity and -Infinity, as strict JSON does."""
    def refuse(constant):
        raise AssertionError(f"report holds the non-JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv", [
    ["measure", "--input", "{bell}"],
    ["measure", "--input", "{mixed}"],
    ["measure", "--input", "{tmsvs}", "--measures", "negativity,log_negativity,ratio"],
    ["chain", "--input", "{chain}"],
    ["chain", "--input", "{bell_chain}"],
    ["sweep", "--input", "{bell_chain}"],
    ["monogamy", "--dims", "2,2,2", "--samples", "20", "--alpha", "1.0", "--seed", "3"],
    ["gaussian", "--r", "0.5"],
    ["repro"],
] + [["groupop", "--law", law] for law in sorted(LAW_REGISTRY)],
    ids=lambda argv: "-".join(a.strip("{}") for a in argv[:3]))
def test_every_report_is_strict_json(tmp_path, argv, capsys):
    files = {
        "bell": state_to_json(bell_state()),
        "mixed": state_to_json(random_density_matrix(SubsystemLayout((2, 3), (0,)), 3, seed=4)),
        "tmsvs": {"kind": "tmsvs", "r": 0.5},
        "chain": {"kind": "tmsvs", "links": {"identical": {"r": 0.5}, "count": 4}},
        "bell_chain": {"kind": "qubit", "links": {"identical": {"concurrence": 1.0}, "count": 3}},
    }
    paths = {name: write_json(tmp_path / f"{name}.json", doc) for name, doc in files.items()}
    out = tmp_path / "report.json"
    argv = [a.format(**paths) for a in argv] + ["--output", str(out)]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    doc = strict_json(out.read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)


def test_min_law_writes_inapplicable_deviation_as_inf(tmp_path):
    out = tmp_path / "min.json"
    assert main(["groupop", "--law", "min", "--output", str(out)]) == EXIT_OK
    solvability = strict_json(out.read_text())["result"]["group_operation"]["solvability"]
    assert solvability["max_deviation"] == "inf" and solvability["passed"] is False


def test_non_finite_report_value_is_numerical_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "cm_ratio_negativity", lambda cm: math.nan)
    out = tmp_path / "cm.json"
    assert main(["gaussian", "--r", "0.5", "--output", str(out)]) == EXIT_NUMERICAL
    assert "NaN or infinite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("message", [
    "Unable to allocate 512. MiB for an array with shape (8192, 8192) and data type float64", ""])
def test_out_of_memory_is_a_one_line_error(tmp_path, monkeypatch, capsys, message):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "check_group_operation", exhausted)
    out = tmp_path / "groupop.json"
    assert main(["groupop", "--law", "tanh_sum", "--grid", "8192",
                 "--output", str(out)]) == EXIT_MEMORY
    assert capsys.readouterr().err == \
        (f"error: out of memory: {message}\n" if message else "error: out of memory\n")
    assert not out.exists()


BELL_PAIRS = [[0.7071067811865476, 0], [0, 0], [0, 0], [0.7071067811865476, 0]]
PURE = {"dims": [2, 2], "partyA": [0], "kind": "pure", "amplitudes": BELL_PAIRS}
MIXED = {"dims": [2, 2], "partyA": [0], "kind": "mixed",
         "matrix": [[1, 0]] + [[0, 0]] * 15}


@pytest.mark.parametrize("doc,field", [
    ({**PURE, "amplitudes": [["1", "0"], ["0", "0"], ["0", "0"], ["0", "0"]]}, "amplitudes"),
    ({**PURE, "amplitudes": [[True, False], [False, False], [False, False], [False, False]]},
     "amplitudes"),
    ({**PURE, "amplitudes": [[1, 0, 0], [0, 0], [0, 0], [0, 0]]}, "amplitudes"),
    ({**PURE, "amplitudes": [[1, 0], [0, 0], [0, 0], 0]}, "amplitudes"),
    ({**MIXED, "matrix": [["1", "0"]] + [[0, 0]] * 15}, "matrix"),
    ({**MIXED, "matrix": [[True, 0]] + [[0, 0]] * 15}, "matrix"),
    ({**PURE, "dims": ["2", 2]}, "dims entry"),
    ({**PURE, "dims": [2, True]}, "dims entry"),
    ({**PURE, "partyA": "0"}, "partyA"),
    ({**PURE, "partyA": [True]}, "partyA entry"),
    ({**MIXED, "partyA": [0.5]}, "partyA entry"),
    ({"kind": "tmsvs", "r": 0.5, "cutoff": 10.7}, "cutoff"),
    ({"kind": "tmsvs", "r": 0.5, "cutoff": "10"}, "cutoff"),
    ({"kind": "tmsvs", "r": "1.0"}, "r must be a number"),
    ({"kind": "tmsvs", "r": True}, "r must be a number"),
    ({**PURE, "truncation_deficit": "0.1"}, "truncation_deficit"),
    ({**PURE, "truncation_deficit": math.nan}, "truncation_deficit"),
    ({**MIXED, "truncation_deficit": math.inf}, "truncation_deficit"),
])
def test_state_file_fields_are_typed(tmp_path, doc, field, capsys):
    # json.dumps writes NaN and Infinity, which json.load reads back.
    path = write_json(tmp_path / "state.json", doc)
    assert main(["measure", "--input", path]) == EXIT_VALIDATION
    assert field in capsys.readouterr().err


class TestNullValuesRefused:
    """No input schema admits null, so a null value exits 2 naming its key
    instead of reading as an absent key."""

    @pytest.mark.parametrize("command,doc,schema,key", [
        ("measure", {"kind": "tmsvs", "r": 0.5, "cutoff": None}, STATE_SCHEMA, "cutoff"),
        ("measure", {**state_to_json(bell_state()), "truncation_deficit": None}, STATE_SCHEMA,
         "truncation_deficit"),
        ("chain", {"kind": "qubit", "links": [{"concurrence": 0.5, "lambda": None}]},
         CHAIN_SCHEMA, "lambda"),
        ("sweep", {"kind": "qubit", "links": [{"concurrence": 0.5, "lambda": None}]},
         CHAIN_SCHEMA, "lambda"),
        ("chain", {"kind": "tmsvs", "links": [{"r": 0.5}], "measure": None}, CHAIN_SCHEMA,
         "measure"),
        ("sweep", {"kind": "tmsvs", "links": [{"r": 0.5}], "measure": None}, CHAIN_SCHEMA,
         "measure"),
        ("chain", {"kind": "tmsvs", "links": {"identical": None, "count": 2}}, CHAIN_SCHEMA,
         "identical"),
    ], ids=["tmsvs-cutoff", "pure-truncation_deficit", "chain-lambda", "sweep-lambda",
            "chain-measure", "sweep-measure", "chain-identical"])
    def test_null_value(self, tmp_path, command, doc, schema, key, capsys):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)
        path = write_json(tmp_path / "input.json", doc)
        assert main([command, "--input", path]) == EXIT_VALIDATION
        assert f"null value for key {key!r}" in capsys.readouterr().err


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


_PURE_DOC = state_to_json(bell_state())
_MIXED_DOC = state_to_json(bell_state().density_matrix())
_TMSVS_DOC = {"kind": "tmsvs", "r": 0.5}
_CHAIN_DOC = {"kind": "tmsvs", "links": {"identical": {"r": 0.5}, "count": 3}}
# Every required key of every input format, each omitted from a valid document.
_MISSING_KEYS = (
    [pytest.param("measure", _without(d, k), STATE_SCHEMA, k, id=f"{fmt}-no-{k}")
     for fmt, d, branch in zip(("pure", "mixed", "tmsvs"), (_PURE_DOC, _MIXED_DOC, _TMSVS_DOC),
                               STATE_SCHEMA["oneOf"])
     for k in branch["required"]]
    + [pytest.param("chain", _without(_CHAIN_DOC, k), CHAIN_SCHEMA, k, id=f"chain-no-{k}")
       for k in CHAIN_SCHEMA["required"]]
    + [pytest.param("sweep", {**_CHAIN_DOC, "links": _without(_CHAIN_DOC["links"], k)},
                    CHAIN_SCHEMA, k, id=f"identical-no-{k}")
       for k in IDENTICAL_LINKS_SCHEMA["required"]]
    + [pytest.param("chain", {"kind": "tmsvs", "links": [{"r": 0.5}, _without({"r": 0.5}, k)]},
                    CHAIN_SCHEMA, k, id=f"link-no-{k}")
       for k in LINK_SCHEMAS["tmsvs"]["required"]]
)


@pytest.mark.parametrize("command,doc,schema,key", _MISSING_KEYS)
def test_missing_required_key_is_named(tmp_path, command, doc, schema, key, capsys):
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)
    path = write_json(tmp_path / "input.json", doc)
    assert main([command, "--input", path]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert repr(key) in err and err != f"error: {key!r}\n"


# Valid files, each with the path to an object of the schema that holds
# some of that schema's typed properties; together they hold all of them.
_TYPED_INPUTS = [
    ("measure", {**PURE, "truncation_deficit": 0.0}, (), STATE_SCHEMA["oneOf"][0]),
    ("measure", {**MIXED, "truncation_deficit": 0.0}, (), STATE_SCHEMA["oneOf"][1]),
    ("measure", {"kind": "tmsvs", "r": 0.5, "cutoff": 10}, (), STATE_SCHEMA["oneOf"][2]),
    ("chain", {"kind": "tmsvs", "links": [{"r": 0.5}], "alpha": 2.0, "measure": "alpha_ratio"},
     (), CHAIN_SCHEMA),
    ("sweep", _CHAIN_DOC, ("links",), IDENTICAL_LINKS_SCHEMA),
    ("chain", {"kind": "tmsvs", "links": [{"r": 0.5}]}, ("links", 0), LINK_SCHEMAS["tmsvs"]),
    ("sweep", {"kind": "qubit", "links": [{"lambda": [0.9, 0.1]}]}, ("links", 0),
     LINK_SCHEMAS["qubit"]),
    ("chain", {"kind": "qubit", "links": [{"concurrence": 0.5}]}, ("links", 0),
     LINK_SCHEMAS["qubit"]),
    ("sweep", {"kind": "qudit", "links": [{"lambda": [0.5, 0.3, 0.2], "d": 3}]}, ("links", 0),
     LINK_SCHEMAS["qudit"]),
    ("chain", {"kind": "qudit", "links": [{"d": 3, "g_concurrence": 0.5}]}, ("links", 0),
     LINK_SCHEMAS["qudit"]),
]
_FILE_SCHEMAS = {"measure": STATE_SCHEMA, "chain": CHAIN_SCHEMA, "sweep": CHAIN_SCHEMA}
# Values of the wrong type for each kind of field, and how the refusal reads.
_WRONG_TYPES = {
    "integer": ([True, "3", 2.5], "an integer"),
    "number": ([True, "0.5"], "a number"),
    "string": ([True, 3], "a string"),
    "integer list": ([True, "2", 2], "a list of integers"),
    "number list": ([True, "0.5", 0.5], "a list of numbers"),
}


def _object_at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _wrong_type_cases():
    cases, covered = [], set()
    for i, (command, doc, path, schema) in enumerate(_TYPED_INPUTS):
        for field_schema, key, field, kind in typed_fields():
            if field_schema is not schema or key not in _object_at(doc, path):
                continue
            covered.add((id(schema), key))
            values, expected = _WRONG_TYPES[kind]
            cases += [pytest.param(command, doc, path, key, value,
                                   f"error: {field} must be {expected}, got {value!r}\n",
                                   id=f"{command}{i}-{field}-{value!r}") for value in values]
    assert covered == {(id(schema), key) for schema, key, _, _ in typed_fields()}
    return cases


@pytest.mark.parametrize("command,doc", [
    pytest.param(command, doc, id=f"{command}{i}")
    for i, (command, doc, _, _) in enumerate(_TYPED_INPUTS)])
def test_typed_inputs_are_valid(tmp_path, command, doc):
    jsonschema.validate(doc, _FILE_SCHEMAS[command])
    out = tmp_path / "out.json"
    assert main([command, "--input", write_json(tmp_path / "input.json", doc),
                 "--output", str(out)]) == EXIT_OK


@pytest.mark.parametrize("command,doc,path,key,value,message", _wrong_type_cases())
def test_wrong_field_type_is_named(tmp_path, command, doc, path, key, value, message, capsys):
    # Every typed property of every input schema refuses a value of another type.
    doc = copy.deepcopy(doc)
    _object_at(doc, path)[key] = value
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, _FILE_SCHEMAS[command])
    assert main([command, "--input", write_json(tmp_path / "input.json", doc)]) \
        == EXIT_VALIDATION
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("kind,data,count", [("pure", "amplitudes", 1), ("mixed", "matrix", 2)])
@pytest.mark.parametrize("n", [63, 64, 65])
def test_many_qubit_state_names_its_entry_count(tmp_path, kind, data, count, n, capsys):
    doc = {"dims": [2] * n, "partyA": [0], "kind": kind, data: []}
    assert main(["measure", "--input", write_json(tmp_path / "state.json", doc)]) \
        == EXIT_VALIDATION
    assert f"{data} must be a flat row-major list of {2 ** (count * n)} [re, im] pairs" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", ["chain", "sweep"])
@pytest.mark.parametrize("kind", [["tmsvs"], {"tmsvs": 1}, 3])
def test_chain_kind_must_be_a_string(tmp_path, command, kind, capsys):
    path = write_json(tmp_path / "input.json", {"kind": kind, "links": [{"r": 0.5}]})
    assert main([command, "--input", path]) == EXIT_VALIDATION
    assert "chain kind must be tmsvs|qubit|qudit" in capsys.readouterr().err


def test_runtime_needs_no_test_extra(tmp_path):
    # Every subcommand runs without importing a test-only package.
    state = write_json(tmp_path / "state.json", {"kind": "tmsvs", "r": 0.5})
    chain = write_json(tmp_path / "chain.json",
                       {"kind": "tmsvs", "links": {"identical": {"r": 0.5}, "count": 3}})
    runs = [["repro"], ["gaussian", "--r", "0.5"], ["measure", "--input", state],
            ["chain", "--input", chain], ["sweep", "--input", chain],
            ["monogamy", "--dims", "2,2,2", "--samples", "10"],
            ["groupop", "--law", "tanh_sum", "--grid", "8"]]
    code = (
        "import os, sys\n"
        "from qchain.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv + ['--output', os.devnull]) == 0, argv\n"
        "loaded = {'jsonschema', 'mpmath', 'hypothesis', 'scipy', 'pytest'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
