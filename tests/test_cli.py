"""The ctx command line: JSON contracts, exit codes, file round-trips."""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import contextuality
from contextuality import (
    InvalidArgument,
    behavior_from_json_dict,
    behavior_to_json_dict,
    collapse,
    fixture,
    hardy_probability,
)
from contextuality.cli import run
from contextuality.quantum import HARDY_TSIRELSON


@pytest.fixture
def hardy_file(tmp_path):
    path = tmp_path / "hardy.json"
    path.write_text(json.dumps(behavior_to_json_dict(fixture("hardy"))))
    return str(path)


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(behavior_to_json_dict(fixture("bell"))))
    return str(path)


@pytest.fixture
def pr_file(tmp_path):
    path = tmp_path / "pr.json"
    path.write_text(json.dumps(behavior_to_json_dict(fixture("pr-box"))))
    return str(path)


@pytest.fixture
def hardy_possibilistic_file(tmp_path):
    path = tmp_path / "hardy_pp.json"
    path.write_text(json.dumps(behavior_to_json_dict(collapse(fixture("hardy")))))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ======================================================================
# 1. check
# ======================================================================


class TestCheck:
    def test_full_report(self, capsys, hardy_file):
        code, data = run_json(capsys, ["check", "--behavior", hardy_file])
        assert code == 0
        assert data == {
            "nd": True,
            "nc": False,
            "lc": True,
            "sc": False,
            "witness": {"context": ["A1", "B1"], "outcome": ["1", "1"]},
            "support_size": 5,
        }

    def test_level_lc_filters_keys(self, capsys, hardy_file):
        code, data = run_json(capsys, ["check", "--behavior", hardy_file, "--level", "lc"])
        assert code == 0
        assert data == {
            "lc": True,
            "witness": {"context": ["A1", "B1"], "outcome": ["1", "1"]},
        }

    def test_level_nd(self, capsys, bell_file):
        code, data = run_json(capsys, ["check", "--behavior", bell_file, "--level", "nd"])
        assert code == 0
        assert data == {"nd": True}

    def test_level_nc(self, capsys, bell_file):
        code, data = run_json(capsys, ["check", "--behavior", bell_file, "--level", "nc"])
        assert code == 0
        assert data == {"nc": True}

    def test_level_sc(self, capsys, pr_file):
        code, data = run_json(capsys, ["check", "--behavior", pr_file, "--level", "sc"])
        assert code == 0
        assert data == {"sc": True, "support_size": 0}

    def test_disturbing_input_reports_failed_gate(self, capsys, tmp_path):
        payload = {
            "scenario": {
                "measurements": ["M1", "M2", "M3"],
                "outcomes": {"M1": ["0", "1"], "M2": ["0", "1"], "M3": ["0", "1"]},
                "contexts": [["M1", "M2"], ["M2", "M3"], ["M3", "M1"]],
            },
            "tables": [
                {"context": ["M1", "M2"], "probs": {"0,0": "1/4", "1,1": "3/4"}},
                {"context": ["M2", "M3"], "probs": {"0,0": "1/4", "0,1": "1/4", "1,0": "1/4", "1,1": "1/4"}},
                {"context": ["M3", "M1"], "probs": {"0,0": "1/4", "0,1": "1/4", "1,0": "1/4", "1,1": "1/4"}},
            ],
        }
        path = tmp_path / "disturb.json"
        path.write_text(json.dumps(payload))
        code, data = run_json(capsys, ["check", "--behavior", str(path), "--level", "lc"])
        assert code == 0
        assert data["nd"] is False
        assert data["lc"] is None

    def test_cap_exceeded_exits_2(self, capsys, bell_file):
        assert run(["check", "--behavior", bell_file, "--cap", "8"]) == 2
        assert "cap" in capsys.readouterr().err

    def test_non_positive_cap_exits_3(self, capsys, bell_file):
        assert run(["check", "--behavior", bell_file, "--cap", "0"]) == 3
        err = capsys.readouterr().err
        assert "cap must be positive" in err and "Traceback" not in err

    def test_env_cap_junk_exits_3(self, capsys, bell_file, monkeypatch):
        monkeypatch.setenv("CTX_CAP", "many")
        assert run(["check", "--behavior", bell_file]) == 3

    def test_missing_file_exits_3(self, capsys, tmp_path):
        assert run(["check", "--behavior", str(tmp_path / "nope.json")]) == 3

    def test_malformed_json_exits_3(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["check", "--behavior", str(path)]) == 3

    @pytest.mark.parametrize("command", [["check"], ["pp", "find", "--possibilistic"]])
    def test_deeply_nested_json_exits_3(self, capsys, tmp_path, command):
        # for pp find, exit 1 would claim "no paradox"
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        assert run([*command, "--behavior", str(path)]) == 3
        err = capsys.readouterr().err
        assert "nests too deeply" in err and "Traceback" not in err

    @pytest.mark.parametrize("raw", ["1e-100000000", "1/" + "9" * 5000])
    def test_unbounded_probability_string_exits_3(self, capsys, tmp_path, raw):
        payload = {
            "scenario": {"measurements": ["X"], "outcomes": {"X": ["0", "1"]}, "contexts": [["X"]]},
            "tables": [{"context": ["X"], "probs": {"0": raw, "1": "1"}}],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload))
        assert run(["check", "--behavior", str(path)]) == 3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["probability", "measurement", "outcome"])
    def test_megabyte_value_is_echoed_short(self, capsys, tmp_path, where):
        big = "7" * 1_000_000
        scenario = {"measurements": ["A", "B"], "outcomes": {"A": ["0", "1"], "B": ["0", "1"]},
                    "contexts": [["A", "B"]]}
        probs = {"0,0": "1"}
        if where == "probability":
            probs = {"0,0": big}
        elif where == "measurement":  # the outcome map lacks a listed measurement
            scenario["measurements"] = ["A", big]
        else:  # a label no measurement has
            probs = {big + ",0": "1"}
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"scenario": scenario, "tables": [{"context": ["A", "B"], "probs": probs}]}))
        assert run(["check", "--behavior", str(path)]) == 3
        err = capsys.readouterr().err
        assert len(err.encode()) < 1024 and " characters)" in err, err[:200]

    def test_megabyte_scenario_path_is_echoed_short(self, capsys, tmp_path):
        # the scenario's file name is too long to open: the OSError names it
        payload = behavior_to_json_dict(fixture("bell"))
        payload["scenario"] = "s" * 1_000_000
        path = tmp_path / "far.json"
        path.write_text(json.dumps(payload))
        assert run(["check", "--behavior", str(path)]) == 3
        err = capsys.readouterr().err
        assert len(err.encode()) < 300 and err.count("\n") == 1 and " characters)" in err, err[:400]

    def test_long_readable_path_is_echoed_short(self, capsys, tmp_path):
        folder = tmp_path
        for k in range(4):
            folder = folder / (str(k) * 100)
        folder.mkdir(parents=True)
        path = folder / "broken.json"
        path.write_text("{not json")
        assert run(["check", "--behavior", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("ctx: '") and len(err.encode()) < 300 and "cannot read JSON" in err, err

    def test_short_paths_are_echoed_whole(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert run(["check", "--behavior", str(missing)]) == 3
        assert capsys.readouterr().err == f"ctx: [Errno 2] No such file or directory: {str(missing)!r}\n"
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert run(["check", "--behavior", str(broken)]) == 3
        assert capsys.readouterr().err.startswith(f"ctx: {broken}: cannot read JSON: ")

    @pytest.mark.parametrize("command", [["check"], ["pp", "find"]])
    @pytest.mark.parametrize(
        "entry",
        [
            {"context": ["A1", "B1"], "probs": [0.5, 0.5]},
            {"context": 5, "probs": {"0,0": "1/2", "1,1": "1/2"}},
            {"context": ["A1", "B1", "B1"], "probs": {"0,0,0": "1/2", "1,1,1": "1/2"}},
        ],
    )
    def test_malformed_table_entry_exits_3(self, capsys, tmp_path, command, entry):
        payload = behavior_to_json_dict(fixture("bell"))
        payload["tables"][0] = entry
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert run([*command, "--behavior", str(path)]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_seventy_cycle_exceeds_the_cap_cleanly(self, capsys, tmp_path):
        # 2^70 assignments: the cap is checked before any int64 index table
        # is built, so this is exit 2, not an overflow.
        path = str(tmp_path / "c70.json")
        assert run(["quantum", "ncycle", "--n", "70", "--alpha", "0.3", "--out", path]) == 0
        capsys.readouterr()
        for command in (["check"], ["bundle"]):
            assert run([*command, "--behavior", path]) == 2
            err = capsys.readouterr().err
            assert "exceed the cap" in err and "Traceback" not in err

    @pytest.mark.parametrize("form", ["probs", "possible"])
    def test_wide_context_refused_before_allocation(self, capsys, tmp_path, form):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(wide_context_payload(50, form)))
        command = ["check"] if form == "probs" else ["pp", "find", "--possibilistic"]
        assert run([*command, "--behavior", str(path)]) == 2
        err = capsys.readouterr().err
        assert "joint outcomes, more than the cap" in err and "Traceback" not in err

    def test_context_table_cap_reads_ctx_cap(self, capsys, tmp_path, monkeypatch):
        # 12 binary measurements in one context: 4096 cells, under the default cap.
        probs, possible = tmp_path / "w12.json", tmp_path / "w12p.json"
        probs.write_text(json.dumps(wide_context_payload(12, "probs")))
        possible.write_text(json.dumps(wide_context_payload(12, "possible")))
        pp = ["pp", "find", "--possibilistic", "--behavior", str(possible)]
        assert run(["check", "--behavior", str(probs)]) == 0
        assert run(pp) == 3  # loads; a single context is not a cycle
        monkeypatch.setenv("CTX_CAP", "1000")
        capsys.readouterr()
        for argv in (["check", "--behavior", str(probs)], pp):
            assert run(argv) == 2
            assert "4096 joint outcomes, more than the cap 1000" in capsys.readouterr().err
        assert run(["check", "--behavior", str(probs), "--cap", "0"]) == 3
        assert "cap must be positive" in capsys.readouterr().err


def wide_context_payload(width: int, form: str) -> dict:
    """One context holding every one of width binary measurements."""
    names = [f"X{i}" for i in range(width)]
    table = {"probs": {",".join("0" * width): "1"}} if form == "probs" else {"possible": [["0"] * width]}
    return {
        "scenario": {"measurements": names, "outcomes": {m: ["0", "1"] for m in names}, "contexts": [names]},
        "tables": [{"context": names, **table}],
    }


# ======================================================================
# 2. pp find
# ======================================================================


class TestPpFind:
    def test_certificate_json(self, capsys, hardy_file):
        code, data = run_json(capsys, ["pp", "find", "--behavior", hardy_file])
        assert code == 0
        assert data["base_context_index"] == 1
        assert data["witness"] == ["1", "1"]
        assert len(data["chain"]) == 3

    def test_no_paradox_exits_1(self, capsys, bell_file):
        code, data = run_json(capsys, ["pp", "find", "--behavior", bell_file])
        assert code == 1
        assert data is None

    def test_text_format(self, capsys, hardy_file):
        code = run(["pp", "find", "--behavior", hardy_file, "--format", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "paradox at context 1" in out
        assert "('1', '1')" in out

    def test_text_none(self, capsys, bell_file):
        code = run(["pp", "find", "--behavior", bell_file, "--format", "text"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "none"

    def test_possibilistic_input(self, capsys, hardy_possibilistic_file):
        code, data = run_json(
            capsys, ["pp", "find", "--behavior", hardy_possibilistic_file, "--possibilistic"]
        )
        assert code == 0
        assert data["witness"] == ["1", "1"]

    def test_flag_and_payload_must_agree(self, capsys, hardy_file, hardy_possibilistic_file):
        assert run(["pp", "find", "--behavior", hardy_file, "--possibilistic"]) == 3
        assert run(["pp", "find", "--behavior", hardy_possibilistic_file]) == 3

    def test_simple_scenario_fallback(self, capsys, tmp_path):
        # A behavior whose scenario is not a single cycle lands in the
        # chordless-cycle detector and reports which cycle fired. K_{3,3}
        # with a possibilistic Hardy square planted on A1 B1 A2 B2.
        names = [f"A{i}" for i in (1, 2, 3)] + [f"B{i}" for i in (1, 2, 3)]
        scenario = {
            "measurements": names,
            "outcomes": {m: ["0", "1"] for m in names},
            "contexts": [[a, b] for a in names[:3] for b in names[3:]],
        }
        full = [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]
        holes = {
            ("A2", "B1"): ["0", "1"],  # B1=1, A2=0 impossible
            ("A2", "B2"): ["1", "1"],
            ("A1", "B2"): ["1", "0"],  # B2=0, A1=1 impossible
        }
        tables = []
        for a in names[:3]:
            for b in names[3:]:
                hole = holes.get((a, b))
                tables.append(
                    {
                        "context": [a, b],
                        "possible": [cell for cell in full if cell != hole],
                    }
                )
        path = tmp_path / "bell33_pp.json"
        path.write_text(json.dumps({"scenario": scenario, "tables": tables}))
        code, data = run_json(capsys, ["pp", "find", "--behavior", str(path), "--possibilistic"])
        assert code == 0
        assert data["cycle"] == ["A1", "B1", "A2", "B2"]
        assert data["witness"] == ["1", "1"]


# ======================================================================
# 3. ineq
# ======================================================================


class TestIneq:
    def test_pr_box_report(self, capsys, pr_file):
        code, data = run_json(capsys, ["ineq", "--behavior", pr_file])
        assert code == 0
        assert data["max_value"] == "4"
        assert data["signs"] == [1, 1, 1, -1]
        assert data["violates_classical"] is True
        assert data["violates_quantum"] is True

    def test_tied_correlators_print_the_first_flip(self, capsys, tmp_path):
        t = (Fraction(3, 8), Fraction(1, 8), Fraction(1, 8), Fraction(3, 8))
        path = tmp_path / "tied.json"
        path.write_text(json.dumps(behavior_to_json_dict(contextuality.Behavior(contextuality.make_n_cycle(4), (t,) * 4))))
        code, data = run_json(capsys, ["ineq", "--behavior", str(path)])
        assert code == 0
        assert data["signs"] == [-1, 1, 1, 1] and data["max_value"] == "1"

    def test_bell_respects_bound(self, capsys, bell_file):
        code, data = run_json(capsys, ["ineq", "--behavior", bell_file])
        assert code == 0
        assert data["violates_classical"] is False

    @pytest.mark.parametrize("command", [["check"], ["ineq"]])
    def test_possible_lists_exit_3_without_a_missing_flag_hint(self, capsys, command, tmp_path):
        path = tmp_path / "pr_pp.json"
        path.write_text(json.dumps(behavior_to_json_dict(collapse(fixture("pr-box")))))
        assert run([*command, "--behavior", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "probability tables" in captured.err and "--possibilistic" not in captured.err

    def test_non_cycle_exits_3(self, capsys, tmp_path):
        payload = {
            "scenario": {
                "measurements": ["M1", "M2"],
                "outcomes": {"M1": ["0", "1"], "M2": ["0", "1"]},
                "contexts": [["M1", "M2"]],
            },
            "tables": [
                {"context": ["M1", "M2"], "probs": {"0,0": "1/2", "1,1": "1/2"}}
            ],
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(payload))
        assert run(["ineq", "--behavior", str(path)]) == 3


# ======================================================================
# 4. quantum and gamma
# ======================================================================


class TestQuantum:
    def test_odd_defaults_emit_symmetric_point(self, capsys):
        code, data = run_json(capsys, ["quantum", "ncycle", "--n", "5"])
        assert code == 0
        b = behavior_from_json_dict(data)
        assert b.tables[0][1] == Fraction(1, 9)

    def test_even_writes_file(self, capsys, tmp_path):
        out = tmp_path / "n4.json"
        code, data = run_json(
            capsys,
            ["quantum", "ncycle", "--n", "4", "--alpha", "0.3", "--out", str(out)],
        )
        assert code == 0
        assert data["written"] == str(out)
        assert data["witness"] == pytest.approx(hardy_probability(4, 0.3), abs=1e-9)
        reloaded = behavior_from_json_dict(json.loads(out.read_text()))
        assert float(reloaded.tables[0][3]) == pytest.approx(data["witness"], abs=1e-9)

    def test_odd_theta_round_trip(self, capsys, tmp_path):
        out = tmp_path / "n7.json"
        code, data = run_json(
            capsys,
            [
                "quantum", "ncycle", "--n", "7",
                "--theta", "0.8,1.1",
                "--eta", "0.3,0.2,0.9",
                "--v3", "0.8,0.1,0.6",
                "--out", str(out),
            ],
        )
        assert code == 0
        b = behavior_from_json_dict(json.loads(out.read_text()))
        assert len(b.scenario.contexts) == 7
        for ci in range(7):
            assert b.tables[ci][3] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["quantum", "ncycle", "--n", "5", "--alpha", "0.3"],
            ["quantum", "ncycle", "--n", "4", "--theta", "0.5"],
            ["quantum", "ncycle", "--n", "7", "--theta", "0.5"],
            ["quantum", "ncycle", "--n", "4", "--alpha", "0.0"],
            ["quantum", "ncycle", "--n", "5", "--eta", "1,0"],
        ],
        ids=["alpha-on-odd", "theta-on-even", "theta-count", "alpha-endpoint", "eta-count"],
    )
    def test_bad_parameters_exit_3(self, capsys, argv):
        assert run(argv) == 3

    @pytest.mark.parametrize(
        "unit,scale",
        [("1", "1e200"), ("1", "1e308"), ("-1", "-1e308"), ("1", "1e-10"), ("1", "1e-200"), ("-1", "-5e-324")],
    )
    def test_huge_directions_give_the_unit_tables(self, capsys, tmp_path, unit, scale):
        # eta and v3 are directions: scaling them changes nothing, even past
        # the range where their squared norm overflows, or below the norm
        # floor down to the smallest subnormal
        tables = []
        for x in (unit, scale):
            eta, v3 = ",".join([x] * 3), f"{x},{x},0"
            out = tmp_path / "q.json"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(["quantum", "ncycle", "--n", "5", f"--eta={eta}", f"--v3={v3}", "--out", str(out)]) == 0
            tables.append(out.read_text())
        assert tables[0] == tables[1]
        assert capsys.readouterr().err == ""


class TestGamma:
    def test_even_four(self, capsys):
        code, data = run_json(capsys, ["gamma", "--n", "4"])
        assert code == 0
        assert data["gamma"] == pytest.approx(HARDY_TSIRELSON, abs=1e-9)
        assert data["params"]["n"] == 4
        assert 0 < data["params"]["alpha"] < math.pi / 4

    def test_odd_five_small_budget(self, capsys):
        code, data = run_json(capsys, ["gamma", "--n", "5", "--restarts", "2", "--seed", "0"])
        assert code == 0
        assert set(data) == {"n", "gamma", "params", "trace", "notes"}
        assert len(data["trace"]) == 2
        assert data["gamma"] <= 1 / 9 + 1e-9

    def test_long_even_cycle_does_not_underflow(self, capsys):
        code, data = run_json(capsys, ["gamma", "--n", "3000"])
        assert code == 0
        assert 0.49 < data["gamma"] < 0.5

    def test_bad_n_exits_3(self, capsys):
        assert run(["gamma", "--n", "3"]) == 3

    def test_zero_restarts_exits_3(self, capsys):
        assert run(["gamma", "--n", "5", "--restarts", "0"]) == 3
        assert "restarts" in capsys.readouterr().err

    def test_nan_tol_exits_3(self, capsys):
        # the even-n golden-section loop never runs when b - a > nan is False
        assert run(["gamma", "--n", "4", "--tol", "nan"]) == 3
        assert capsys.readouterr().err == "ctx: tol must be finite and positive, got nan\n"


# ======================================================================
# 5. bundle and fixtures
# ======================================================================


class TestBundle:
    def test_json_edges(self, capsys, hardy_file):
        code, data = run_json(capsys, ["bundle", "--behavior", hardy_file])
        assert code == 0
        assert len(data["edges"]) == 13
        dead = [e for e in data["edges"] if not e["in_some_loop"]]
        assert dead == [
            {"context": 1, "left": ["A1", "1"], "right": ["B1", "1"], "in_some_loop": False}
        ]

    def test_dot_output(self, capsys, pr_file):
        code = run(["bundle", "--behavior", pr_file, "--format", "dot"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("graph bundle {")
        assert out.count("style=dashed") == 8

    def test_possibilistic_input(self, capsys, hardy_possibilistic_file):
        code, data = run_json(
            capsys, ["bundle", "--behavior", hardy_possibilistic_file, "--possibilistic"]
        )
        assert code == 0
        assert len(data["edges"]) == 13

    def test_cap_exits_2(self, capsys, hardy_file):
        assert run(["bundle", "--behavior", hardy_file, "--cap", "4"]) == 2

    def test_negative_cap_exits_3(self, capsys, hardy_file):
        assert run(["bundle", "--behavior", hardy_file, "--cap", "-3"]) == 3
        err = capsys.readouterr().err
        assert "cap must be positive" in err and "Traceback" not in err


class TestFixtures:
    @pytest.mark.parametrize("name", ["bell", "hardy", "pr-box", "cabello5", "hardy4"])
    def test_every_fixture_emits_loadable_json(self, capsys, name):
        code, data = run_json(capsys, ["fixtures", "--name", name])
        assert code == 0
        b = behavior_from_json_dict(data)
        assert b.scenario.measurements

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "pr.json"
        code, data = run_json(capsys, ["fixtures", "--name", "pr-box", "--out", str(out)])
        assert code == 0
        assert data == {"written": str(out), "name": "pr-box"}
        assert json.loads(out.read_text())["tables"]

    def test_unknown_name_exits_3(self, capsys):
        assert run(["fixtures", "--name", "frobnicate"]) == 3

    def test_unknown_name_in_the_library_is_a_short_invalid_argument(self):
        with pytest.raises(InvalidArgument, match="unknown fixture 'xxx") as info:
            fixture("x" * 300)
        assert "(302 characters)" in str(info.value) and len(str(info.value)) < 200
        assert "bell, cabello5, hardy, hardy4, pr-box" in str(info.value)

    @pytest.mark.parametrize("argv, code", [(["fixtures", "--name", "bell"], 0), (["fixtures", "--frobnicate"], 3)])
    def test_python_m_cli_runs_as_cli_run_does(self, capsys, argv, code):
        src = str(Path(contextuality.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-m", "contextuality.cli", *argv], capture_output=True, text=True,
                              env=env, timeout=120)
        assert run(argv) == code and done.returncode == code, done.stderr
        assert done.stdout == capsys.readouterr().out


# ======================================================================
# 6. Top-level argument handling
# ======================================================================


class TestArgHandling:
    def test_unknown_command_exits_3(self, capsys):
        assert run(["frobnicate"]) == 3

    def test_no_command_exits_3(self, capsys):
        assert run([]) == 3

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        assert "check" in capsys.readouterr().out

    def test_internal_error_exits_4_on_one_line(self, capsys, monkeypatch, pr_file):
        # a ValueError or KeyError is a bug too: only ContextualityError and
        # OSError mean bad input
        for error in (TypeError, ValueError, KeyError):
            def broken(b):
                raise error("unsupported operand")

            monkeypatch.setattr("contextuality.cli.evaluate_all", broken)
            assert run(["ineq", "--behavior", pr_file]) == 4, error
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"ctx: internal error: {error.__name__}: {error('unsupported operand')}\n"


# Bad input of each kind the library checks, including input that a builtin
# or numpy would otherwise refuse deep inside with a ValueError, which ctx
# reports as an internal error: each must exit 3 on one `ctx: ` line.
REJECTED = {
    "v3-nan": ["quantum", "ncycle", "--n", "5", "--v3=nan,1,0"],
    "eta-inf": ["quantum", "ncycle", "--n", "5", "--eta=inf,1,1"],
    "theta-nan": ["quantum", "ncycle", "--n", "5", "--theta=nan"],
    "gamma-negative-seed": ["gamma", "--n", "5", "--seed", "-1"],
    "not-utf8": ["check", "--behavior", "{latin1}"],
    "not-json": ["check", "--behavior", "{nul}"],
    "long-integer": ["check", "--behavior", "{digits}"],
    "n-1": ["quantum", "ncycle", "--n", "1"],
    "n-0": ["quantum", "ncycle", "--n", "0"],
    "eta-count": ["quantum", "ncycle", "--n", "5", "--eta", "1,0"],
    "theta-count": ["quantum", "ncycle", "--n", "7", "--theta", "0.5"],
    "theta-on-even": ["quantum", "ncycle", "--n", "4", "--theta", "0.5"],
    "alpha-on-odd": ["quantum", "ncycle", "--n", "5", "--alpha", "0.3"],
    "negative-restarts": ["gamma", "--n", "5", "--restarts", "-2"],
    "gamma-negative-n": ["gamma", "--n", "-5"],
    "negative-tol": ["gamma", "--n", "4", "--tol", "-1"],
    "cap-0": ["check", "--behavior", "{probs}", "--cap", "0"],
    "env-cap-junk": ["check", "--behavior", "{probs}"],
    "env-cap-negative": ["check", "--behavior", "{probs}"],
    "possibilistic-flag-on-probs": ["pp", "find", "--possibilistic", "--behavior", "{probs}"],
    "possible-lists-without-flag": ["pp", "find", "--behavior", "{possible}"],
}
FILES = {
    "latin1": b'{"scenario": "\xe9"}',
    "nul": b"nul",
    "digits": b'{"scenario": ' + b"1" * 5000 + b"}",
    "probs": json.dumps(behavior_to_json_dict(fixture("hardy"))).encode(),
    "possible": json.dumps(behavior_to_json_dict(collapse(fixture("hardy")))).encode(),
}


class TestRejectedInput:
    @pytest.mark.parametrize("name", list(REJECTED))
    def test_exits_3_on_one_line(self, capsys, monkeypatch, tmp_path, name):
        files = {}
        for key, data in FILES.items():
            files[key] = tmp_path / f"{key}.json"
            files[key].write_bytes(data)
        monkeypatch.setenv("CTX_CAP", {"env-cap-junk": "zz", "env-cap-negative": "-1"}.get(name, str(1 << 24)))
        argv = [arg.format(**files) for arg in REJECTED[name]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv)
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("ctx: ") and err.count("\n") == 1, err
        assert "internal error" not in err and "Traceback" not in err
        assert "integer ratio" not in err  # Fraction(nan) deep in the builder
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        read = [arg for arg in argv if arg.endswith(".json")]
        if read and name not in ("cap-0", "env-cap-junk", "env-cap-negative"):
            assert read[0] in err  # the message names the file

    @pytest.mark.parametrize("value", ["1,x", "", "0.5,,0.5"])
    def test_unparsable_floats_are_a_usage_error(self, capsys, value):
        assert run(["quantum", "ncycle", "--n", "7", f"--theta={value}"]) == 3
        err = capsys.readouterr().err
        assert "argument --theta: invalid float_list value" in err and "Traceback" not in err


# ======================================================================
# 7. Mutated fixture JSON
# ======================================================================

# Labels drawn from the fixtures, plus rationals and junk, so mutations
# often stay well-formed enough to reach the deeper checks.
LABELS = ["0", "1", "2", "A1", "B1", "A2", "B2", "A", "0,0", "1,1", "0,1,0"]
LABELS += ["1/2", "-1/4", "3/2", "1/0", "x", ""]
KEYS = [*LABELS, "context", "probs", "possible"]
json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(), st.sampled_from(LABELS)
)
json_value = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=6,
)
# The caps keep the scan and the LP small whatever the mutation does.
FUZZ_COMMANDS = (["check", "--cap", "256"], ["pp", "find"], ["ineq"], ["bundle", "--cap", "256"])


def _paths(value, path=()):
    """Every node of a JSON value as a key path, the root first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _paths(child, (*path, key))


def _mutate(data, doc):
    """doc with one node replaced, deleted, duplicated or swapped with a
    sibling (a swap inside "probs" keeps the table normalized)."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return data.draw(json_value)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = data.draw(st.sampled_from(["replace", "delete", "duplicate", "swap"]))
    if op == "swap":
        siblings = list(parent) if isinstance(parent, dict) else range(len(parent))
        other = data.draw(st.sampled_from(siblings))
        parent[key], parent[other] = parent[other], parent[key]
    elif op == "replace":
        parent[key] = data.draw(json_value)
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[data.draw(st.sampled_from(LABELS))] = copy.deepcopy(parent[key])
    return doc


class TestMutatedInput:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_exit_codes_hold_and_nothing_escapes(self, data):
        name = data.draw(st.sampled_from(["bell", "hardy", "pr-box", "cabello5", "hardy4"]))
        doc = behavior_to_json_dict(fixture(name))
        for _ in range(data.draw(st.integers(1, 3))):
            doc = _mutate(data, doc)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "behavior.json"
            path.write_text(json.dumps(doc))
            for command in FUZZ_COMMANDS:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = run([*command, "--behavior", str(path)])
                assert "Traceback" not in err.getvalue(), (command, doc)
                assert code in (0, 1, 2, 3), (command, code, doc)
                assert code != 1 or command == ["pp", "find"], (command, doc)
