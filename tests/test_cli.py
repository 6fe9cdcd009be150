import contextlib
import csv
import functools
import io
import json
import re
import shlex
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import symgraph.cli
import symgraph.spectral
import symgraph.wave
from symgraph.algebraic import AlgebraicValue
from symgraph.cli import main
from symgraph.spectral import MAX_CYLINDERS, QuadratureError, VertexFun, check_depth
from symgraph.transforms import (
    EvenSeq,
    RadialSeq,
    abel,
    abel_inv_rearranged,
    dual_abel,
    dual_abel_inv,
)
from symgraph.wave import MAX_CLOSED_BITS, CauchyData, wave_closed_at
from symgraph.words import GraphParams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
RUNTIME_MS = re.compile(r'"runtime_ms": [-0-9.e+]+, |, "runtime_ms": [-0-9.e+]+|"runtime_ms": [-0-9.e+]+')


def test_cli_stdout_matches_the_golden_file(capsys):
    # every README example but ``verify --suite all``, which alone takes most
    # of a second, an ``invert --values`` and a ``wave --method closed`` run,
    # a ``plancherel`` and an ``invert --radial`` run on k > r graphs, where
    # the Plancherel measure has its atom, and ``wave --method direct`` and
    # ``--method both`` runs with no ``--at``, which read every stepped
    # value, ``info`` on k > r (the atom rows), on q = 1 (the null rows)
    # and on a perfect square q, ``verify --suite abel`` at (3,4) and
    # ``verify --suite boundary`` at (4,4), whose oracles count words per
    # shell, and a ``ks-check``, a ``verify --suite group`` and a
    # ``spherical`` run at (4,4) and (4,3), which walk the words layer
    # hardest; the file holds each stdout with ``runtime_ms`` dropped
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(cases) == 27
    for case in cases:
        code, out = run(capsys, *shlex.split(case["command"]))
        assert code == 0, case["command"]
        assert RUNTIME_MS.sub("", out) == case["stdout"], case["command"]


def test_cached_parser_answers_repeats_alike(capsys):
    # main reuses one parser per process; a second run of each command line
    # in the same process gives the same exit code, stdout and stderr
    assert symgraph.cli.build_parser() is symgraph.cli.build_parser()
    argvs = [shlex.split(case["command"]) for case in json.loads(GOLDEN.read_text(encoding="utf-8"))]
    argvs += [["--help"], ["wave", "--help"], ["info", "--k", "3", "--r", "4"],
              # the malformed command lines of the cli_mix benchmark workload
              ["abel", "--k", "3", "--r", "4", "--radial=abc"],
              ["info", "--k", "1", "--r", "4"],
              ["table", "delta", "--k", "3", "--r", "4", "--nmax", "40"]]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
        captured = capsys.readouterr()
        return code, RUNTIME_MS.sub("", captured.out), captured.err

    for argv in argvs:
        first = outcome(argv)
        assert outcome(argv) == first, argv
    assert [outcome(argv)[0] for argv in argvs[-6:]] == [0, 0, 0, 2, 2, 2]


def test_info_exact_fields(capsys):
    code, doc = run_json(capsys, "info", "--k", "3", "--r", "4")
    assert code == 0
    assert doc["params"] == {"k": 3, "r": 4, "q": 6}
    rows = {row["key"]: row for row in doc["outputs"]}
    assert rows["q"]["exact"] == "6"
    assert rows["beta"]["exact"] == "1/4*sqrt(6)"
    assert rows["gamma0"]["float"] == pytest.approx(0.7373724356957945)


def test_info_degenerate_ring_marks_unavailable(capsys):
    code, doc = run_json(capsys, "info", "--k", "2", "--r", "2")
    assert code == 0
    rows = {row["key"]: row for row in doc["outputs"]}
    assert rows["tau"]["exact"] is None and rows["tau"]["float"] is None
    assert rows["q"]["exact"] == "1"


def test_info_atom_fields(capsys):
    code, doc = run_json(capsys, "info", "--k", "3", "--r", "2")
    assert code == 0
    rows = {row["key"]: row for row in doc["outputs"]}
    assert rows["gamma_atom"]["exact"] == "-1/2"
    assert rows["atom_mass"]["exact"] == "1/3"


def test_table_delta_and_b(capsys):
    code, doc = run_json(capsys, "table", "delta", "--k", "3", "--r", "4", "--nmax", "5")
    assert code == 0
    assert doc["outputs"][0] == {"key": "delta[0]", "exact": "1", "float": 1.0}
    code, doc = run_json(capsys, "table", "b", "--k", "3", "--r", "4", "--nmax", "4", "--hmax", "4")
    rows = {row["key"]: row["exact"] for row in doc["outputs"]}
    assert rows["b[1,0]"] == "1"
    assert rows["b[2,-2]"] == "36"


def test_table_density_endpoints(capsys):
    code, doc = run_json(capsys, "table", "c2", "--k", "3", "--r", "4", "--grid", "16")
    assert code == 0
    values = [row["float"] for row in doc["outputs"]]
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[-1] == pytest.approx(0.0, abs=1e-9)
    assert max(values) > 0


def test_table_range_cap(capsys):
    with pytest.raises(SystemExit) as err:
        main(["table", "delta", "--k", "3", "--r", "4", "--nmax", "40"])
    assert err.value.code == 2


def test_abel_roundtrip_through_cli(capsys):
    code, doc = run_json(capsys, "abel", "--k", "3", "--r", "4", "--radial", "0,1")
    assert code == 0
    rows = {row["key"]: row["exact"] for row in doc["outputs"]}
    assert rows == {"A[0]": "1", "A[1]": "sqrt(6)"}
    code, doc = run_json(capsys, "abel-inv", "--k", "3", "--r", "4", "--even", "1,sqrt(6)")
    rows = {row["key"]: row["exact"] for row in doc["outputs"]}
    assert rows == {"f[0]": "0", "f[1]": "1"}


def test_dual_commands(capsys):
    code, doc = run_json(capsys, "dual-inv", "--k", "3", "--r", "4", "--radial", "1")
    assert code == 0
    assert doc["outputs"][0]["exact"] == "1"
    code, doc = run_json(capsys, "dual", "--k", "3", "--r", "4", "--even", "1,0")
    assert code == 0


def test_spherical_with_oracle(capsys):
    code, doc = run_json(capsys, "spherical", "--k", "3", "--r", "4", "--lambda", "0.4",
                         "--nmax", "3", "--oracle-depth", "4")
    assert code == 0
    assert doc["diagnostics"]["oracle_max_deviation"] < 1e-12


def test_plancherel_command(capsys):
    code, doc = run_json(capsys, "plancherel", "--k", "3", "--r", "4", "--radial", "1,1/2")
    assert code == 0
    assert doc["diagnostics"]["mismatch"] < 1e-6
    assert "quadrature_error" in doc["diagnostics"]


def test_invert_command(capsys):
    code, doc = run_json(capsys, "invert", "--k", "3", "--r", "4",
                         "--radial", "1,1/2,0,2", "--at", "a0^1.a1^2")
    assert code == 0
    assert doc["diagnostics"]["mismatch"] < 1e-6


def test_invert_nonradial(capsys):
    code, doc = run_json(capsys, "invert", "--k", "3", "--r", "4",
                         "--values", "e:1;a0^1:1/2", "--at", "a0^1", "--depth", "2")
    assert code == 0
    assert doc["diagnostics"]["mismatch"] < 1e-6


def test_invert_takes_exactly_one_of_radial_and_values(capsys):
    base = ["invert", "--k", "3", "--r", "4", "--at", "e"]
    for extra in (["--values", "e:1", "--radial", "1"], []):
        with pytest.raises(SystemExit) as err:
            main(base + extra)
        assert err.value.code == 2, extra
        captured = capsys.readouterr()
        assert captured.out == "", extra
        assert "--radial" in captured.err and "--values" in captured.err, extra


def test_helgason_command(capsys):
    code, doc = run_json(capsys, "helgason", "--k", "3", "--r", "4",
                         "--values", "e:1", "--lambda", "0.3", "--ray", "a0^1.a1^1")
    assert code == 0
    rows = {row["key"]: row["float"] for row in doc["outputs"]}
    assert rows["fhat"] == pytest.approx(1.0)


def test_ks_check_command(capsys):
    code, doc = run_json(capsys, "ks-check", "--k", "3", "--r", "4", "--trials", "20", "--seed", "1")
    assert code == 0
    rows = {row["key"]: row["float"] for row in doc["outputs"]}
    assert rows["worst_core_ratio"] <= 1 + 1e-12


def test_ks_check_witness_exits_one(capsys, monkeypatch):
    trials = iter(range(20))

    def report(f, chi):
        core = 1.5 if next(trials) == 2 else 0.5
        return SimpleNamespace(core_ratio=core, young_ratio=0.25, holder_ratio=0.75)

    monkeypatch.setattr(symgraph.cli, "kunze_stein_check", report)
    code, doc = run_json(capsys, "ks-check", "--k", "3", "--r", "4", "--trials", "5")
    assert code == 1
    assert doc["diagnostics"]["witness"] == {"trial": 2, "ratio": "core", "value": 1.5}
    rows = {row["key"]: row["float"] for row in doc["outputs"]}
    assert rows == {"worst_core_ratio": 1.5, "worst_young_ratio": 0.25,
                    "worst_holder_ratio": 0.75}


def test_ks_check_refuses_k_above_r(capsys):
    assert main(["ks-check", "--k", "4", "--r", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


def test_wave_both_methods(capsys):
    code, doc = run_json(capsys, "wave", "--k", "3", "--r", "4", "--f", "e:1",
                         "--steps", "2", "--method", "both", "--at", "e,1")
    assert code == 0
    assert doc["diagnostics"]["max_discrepancy"] == 0.0
    assert doc["outputs"][0]["exact"] == "-1/12*sqrt(6)"


def test_wave_snapshot(capsys):
    code, doc = run_json(capsys, "wave", "--k", "2", "--r", "3", "--f", "e:1",
                         "--steps", "1", "--method", "direct")
    assert code == 0
    keys = [row["key"] for row in doc["outputs"]]
    assert "u[0][e]" in keys and "u[1][e]" in keys


def test_verify_single_point(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "abel", "--k", "3", "--r", "4", "--seed", "7")
    assert code == 0
    assert all(row["float"] == 1.0 for row in doc["outputs"])


def test_verify_catches_seeded_fault(capsys, monkeypatch):
    monkeypatch.setenv("SYMGRAPH_FAULT", "abel-coeff")
    code, doc = run_json(capsys, "verify", "--suite", "abel", "--k", "3", "--r", "4")
    assert code == 1
    witness = doc["diagnostics"]["witness"]
    assert witness["suite"] == "abel"
    assert "expected" in witness and "got" in witness


def test_deterministic_output(capsys):
    _, first = run(capsys, "table", "b", "--k", "3", "--r", "4", "--nmax", "3", "--hmax", "3")
    _, second = run(capsys, "table", "b", "--k", "3", "--r", "4", "--nmax", "3", "--hmax", "3")

    def strip_runtime(text):
        doc = json.loads(text)
        doc["diagnostics"].pop("runtime_ms")
        return json.dumps(doc, sort_keys=True)

    assert strip_runtime(first) == strip_runtime(second)


def test_csv_format(capsys):
    code, out = run(capsys, "table", "delta", "--k", "3", "--r", "4", "--nmax", "2",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,exact,float"
    assert lines[1] == "delta[0],1,1.0"


@pytest.mark.parametrize("argv", [
    ("info", "--k", "2", "--r", "2"),
    ("table", "b", "--k", "3", "--r", "4"),  # keys b[n,h] hold a comma
    ("dual", "--k", "3", "--r", "4", "--even", "1,1/2+1/3*sqrt(6)", "--nmax", "3"),
    ("transform", "--k", "3", "--r", "4", "--radial", "1,1/2", "--grid", "5"),
    ("wave", "--k", "3", "--r", "4", "--f", "e:1", "--steps", "1", "--method", "closed"),
    ("verify", "--suite", "abel", "--k", "3", "--r", "4"),
], ids=("info", "table-b", "dual", "transform", "wave", "verify"))
def test_csv_rows_match_json_rows(capsys, argv):
    """Every CSV row reads back as three fields equal to its JSON row."""
    code, doc = run_json(capsys, *argv)
    assert code == 0
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    want = [[row["key"], row["exact"] or "", "" if row["float"] is None else repr(row["float"])]
            for row in doc["outputs"]]
    assert list(csv.reader(io.StringIO(out))) == [["key", "exact", "float"], *want]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out = run(capsys, "info", "--k", "3", "--r", "4", "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "info"


def test_unwritable_out_is_one_error_line(tmp_path, capsys):
    for target in (tmp_path / "missing" / "result.json", tmp_path):
        code = main(["info", "--k", "3", "--r", "4", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2, target
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert list(tmp_path.iterdir()) == []


def test_verify_over_the_default_grid(capsys):
    # a lone --k or --r is refused, not ignored; --threads is checked without a graph too
    for extra in (["--k", "3"], ["--r", "3"], ["--threads", "0"]):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "group", *extra])
        assert err.value.code == 2, extra
        assert capsys.readouterr().out == ""
    code, out = run(capsys, "verify", "--suite", "group", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "exact", "float"]
    assert len(rows) == 1 + 18
    assert all(len(row) == 3 and row[2] == "1.0" for row in rows[1:])
    assert rows[1][0] == "group[k=2,r=2]:sphere-count"


def test_usage_errors_exit_two(capsys, monkeypatch):
    with pytest.raises(SystemExit) as err:
        main(["abel", "--radial", "1"])
    assert err.value.code == 2
    assert main(["abel", "--k", "3", "--r", "4", "--radial", "betelgeuse"]) == 2
    assert main(["abel", "--k", "3", "--r", "4", "--radial", "1/0"]) == 2
    with pytest.raises(SystemExit) as err:
        main(["info", "--k", "3", "--r", "4", "--threads", "0"])
    assert err.value.code == 2
    for argv in (["spherical", "--k", "3", "--r", "4", "--lambda", "nan"],
                 ["spherical", "--k", "3", "--r", "4", "--lambda", "inf"],
                 ["plancherel", "--k", "3", "--r", "4", "--radial", "1", "--tol", "nan"],
                 ["plancherel", "--k", "3", "--r", "4", "--radial", "1", "--tol", "-1e-9"],
                 ["transform", "--k", "3", "--r", "4", "--radial", "1", "--grid", "0"],
                 ["table", "c2", "--k", "3", "--r", "4", "--grid", "0"],
                 ["dual", "--k", "3", "--r", "4", "--even", "1,0", "--nmax", "-3"],
                 ["table", "delta", "--k", "3", "--r", "4", "--nmax", "-1"],
                 ["ks-check", "--k", "3", "--r", "4", "--trials", "0"],
                 ["ks-check", "--k", "3", "--r", "4", "--trials", "-5"],
                 ["spherical", "--k", "3", "--r", "4", "--lambda", "0.4", "--oracle-depth", "-1"],
                 ["invert", "--k", "3", "--r", "4", "--values", "e:1", "--at", "e",
                  "--depth", "-2"],
                 ["wave", "--k", "3", "--r", "3", "--f", "e:1", "--steps", "-3",
                  "--method", "closed"],
                 ["wave", "--k", "3", "--r", "3", "--f", "e:1", "--steps", "-3",
                  "--method", "direct"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
    capsys.readouterr()
    # exact values past the float range are one error line, not a traceback
    for argv in (["abel", "--k", "3", "--r", "4", "--radial", str(10**400)],
                 ["wave", "--k", "4", "--r", "3", "--f", "e:1", "--g", "a0^1:1",
                  "--steps", "6000", "--method", "closed", "--at", "e,6000"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: value outside the float range\n"
    # a window past the stepper's bound is refused before any ball is walked
    def refuse(*args):
        raise AssertionError("enumerated a ball")

    monkeypatch.setattr(symgraph.cli, "ball", refuse)
    monkeypatch.setattr(symgraph.wave, "ball", refuse)
    assert main(["wave", "--k", "3", "--r", "4", "--f", "e:1", "--steps", "40"]) == 2
    assert "error:" in capsys.readouterr().err
    # so is an --at time past --steps, before any stepping
    assert main(["wave", "--k", "3", "--r", "4", "--f", "e:1", "--steps", "3",
                 "--at", "e,5"]) == 2
    assert "beyond --steps" in capsys.readouterr().err


def test_malformed_inputs_are_one_error_line(capsys):
    # a wave --at without an integer time names the WORD,TIME form, and a word
    # given twice in a vertex function is refused by name, not overwritten
    wave = ["wave", "--k", "3", "--r", "4", "--f", "e:1", "--steps", "3"]
    for argv, message in (
            ([*wave, "--at", "e"], "--at expects WORD,TIME, got 'e'"),
            ([*wave, "--at", "e,x"], "--at expects WORD,TIME, got 'e,x'"),
            (["helgason", "--k", "3", "--r", "4", "--values", "e:1;e:2", "--lambda", "0.3",
              "--ray", "a0^1"], "the word e is given twice"),
            ([*wave, "--g", "a0^1:1;a1^1:2; a0^1 :1"], "the word a0^1 is given twice"),
            (["invert", "--k", "3", "--r", "4", "--values", "a0^1.a1^2:1;e:1;a0^1.a1^2:1",
              "--at", "e"], "the word a0^1.a1^2 is given twice")):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n", argv
    # an empty word is still the identity
    code, out = run(capsys, *wave, "--at", ",1")
    assert code == 0 and [row["key"] for row in json.loads(out)["outputs"]] == ["u[1][e]"]


def test_closed_form_bound_refuses_before_walking(capsys, monkeypatch):
    base = ["--f", "e:1", "--g", "a0^1:1", "--method", "closed"]
    # e,3000 at (4, 3) answers; its weights hold about 3000^2 log2(3) / 2 bits
    code, doc = run_json(capsys, "wave", "--k", "4", "--r", "3", *base, "--steps", "3000",
                         "--at", "e,3000")
    assert code == 0 and doc["outputs"][0]["key"] == "u[3000][e]"

    def refuse(*args):
        raise AssertionError("walked the support or built a weight")

    # the bound runs before any weight row is built or cached
    cached = symgraph.wave._rows.cache_info().currsize
    monkeypatch.setattr(symgraph.wave, "branch_shell_sums", refuse)
    monkeypatch.setattr(symgraph.wave, "_weights", refuse)
    for k in ("4", str(10**30)):
        code = main(["wave", "--k", k, "--r", "3", *base, "--steps", "1000000",
                     "--at", "e,1000000"])
        assert code == 2, k
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(MAX_CLOSED_BITS) in err
    # a huge k is refused at a time a small k answers
    params = GraphParams(10**30, 3)
    data = CauchyData(VertexFun.delta_at(params.identity()), VertexFun.of(params, {}))
    with pytest.raises(ValueError, match=str(MAX_CLOSED_BITS)):
        wave_closed_at(params, data, params.identity(), 3000)
    with pytest.raises(ValueError, match=str(MAX_CLOSED_BITS)):
        wave_closed_at(params, data, params.identity(), -3000)
    assert symgraph.wave._rows.cache_info().currsize == cached


def test_cylinder_bound_refuses_before_walking(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("walked a sphere")

    monkeypatch.setattr(symgraph.cli, "sphere", refuse)
    monkeypatch.setattr(symgraph.spectral, "sphere", refuse)
    base = ["--k", "3", "--r", "4"]
    # delta(7) = 373248 cylinders at (3, 4), past the bound of 10^5
    for argv in (["spherical", *base, "--lambda", "0.4", "--nmax", "2", "--oracle-depth", "7"],
                 ["spherical", *base, "--lambda", "0.4", "--oracle-depth", "10000000000"],
                 ["invert", *base, "--values", "e:1", "--at", "a0^1", "--depth", "7"],
                 # the derived depth max(support, |at|) + 1 is bounded too
                 ["invert", *base, "--values", "e:1", "--at", ".".join(["a0^1", "a1^1"] * 4)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(MAX_CYLINDERS) in err
    # the depths of the README examples and of the tests stay well inside it
    check_depth(GraphParams(3, 4), 6)
    check_depth(GraphParams(4, 4), 5)
    with pytest.raises(ValueError):
        check_depth(GraphParams(3, 4), 7)
    with pytest.raises(ValueError):
        check_depth(GraphParams(3, 4), -1)


def test_linear_work_bounds_refuse_before_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("started the work")

    monkeypatch.setattr(symgraph.cli, "spherical_phi", refuse)
    monkeypatch.setattr(symgraph.cli, "kunze_stein_check", refuse)
    monkeypatch.setattr(symgraph.cli, "ball", refuse)
    monkeypatch.setattr(symgraph.cli, "run_suite", refuse)
    base = ["--k", "3", "--r", "4"]
    # every point of the default verify grid stays inside the verify bound
    assert sum(GraphParams(4, 4).delta(n) for n in range(5)) <= symgraph.cli._MAX_VERIFY_BALL
    for argv, bound in (
            (["spherical", *base, "--lambda", "0.4", "--nmax", str(10**8)],
             symgraph.cli._MAX_PHI_TERMS),
            (["ks-check", *base, "--trials", str(10**8)], symgraph.cli._MAX_TRIALS),
            # one trial at (10, 10) convolves 91 * 7381 pairs; at (14, 14) still more
            (["ks-check", "--k", "10", "--r", "10", "--trials", "1"],
             symgraph.cli._MAX_TRIAL_PRODUCTS),
            (["ks-check", "--k", "14", "--r", "14", "--trials", "1"],
             symgraph.cli._MAX_TRIAL_PRODUCTS),
            # every suite walks the ball of radius 4: 166726 words at (10, 3)
            (["verify", "--k", "10", "--r", "3", "--suite", "abel"], symgraph.cli._MAX_VERIFY_BALL),
            (["verify", "--k", "10", "--r", "10"], symgraph.cli._MAX_VERIFY_BALL)):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and str(bound) in captured.err


def test_radial_work_bound_refuses_before_arithmetic(capsys, monkeypatch):
    # 3000 values at (3, 4) answer: their values pass the float range, one line
    started = time.perf_counter()
    assert main(["abel", "--k", "3", "--r", "4", "--radial", ",".join(["1"] * 3000)]) == 2
    assert time.perf_counter() - started < 5
    assert capsys.readouterr().err == "error: value outside the float range\n"

    def refuse(*args):
        raise AssertionError("did ring arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__"):
        monkeypatch.setattr(AlgebraicValue, name, refuse)
    long_list = ",".join(["1/2+1/3*sqrt(6)"] * 6000)  # 6000^2 log2(6) bits
    base = ["--k", "3", "--r", "4"]
    for argv in (["dual", *base, "--even", "1,0", "--nmax", "100000"],
                 ["abel", *base, "--radial", long_list],
                 ["abel-inv", *base, "--even", long_list],
                 ["dual", *base, "--even", long_list],
                 ["dual-inv", *base, "--radial", long_list]):
        assert main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and str(MAX_CLOSED_BITS) in captured.err
    params = GraphParams(3, 4)
    g = EvenSeq.of(params, [1, 0])
    f = RadialSeq.of(params, [0] * 6000)
    for call in (lambda: dual_abel(g, n_max=10**5), lambda: dual_abel_inv(g, n_max=10**5),
                 lambda: abel(f), lambda: abel_inv_rearranged(EvenSeq.of(params, f.values))):
        with pytest.raises(ValueError, match=str(MAX_CLOSED_BITS)):
            call()


@pytest.fixture
def str_digits():
    """Set the interpreter's int-to-str digit limit for one test, then restore it."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


PRINTABLE_REFUSAL = "error: an exact output would print an integer of more than 4300 digits\n"
PRINTED_EDGES = (
    # (argv at size n, the largest n whose values print, output rows there)
    (lambda n: ["dual", "--k", "100", "--r", "100", "--even", "1", "--nmax", str(n)],
     2153, 2154),
    # the input's size counts: a 4200-digit denominator leaves 256 powers of
    # sqrt(6) in dual, and plancherel squares its input
    (lambda n: ["dual", "--k", "3", "--r", "4", "--even", "1/" + "9" * 4200, "--nmax", str(n)],
     256, 257),
    (lambda n: ["plancherel", "--k", "3", "--r", "4", "--radial", "1/" + "9" * n], 2150, 2),
    (lambda n: ["wave", "--k", "3", "--r", "10", "--f", "e:1", "--g", "a0^1:1",
                "--method", "closed", "--steps", "9000", "--at", f"e,{n}"], 6850, 1),
)


def test_printable_bound_refuses_at_its_edge(capsys, str_digits, tmp_path):
    # the digit limit is met where str() meets it, after the work: the last
    # request whose values print answers with every row, and the next is
    # refused with one error line, no output and no --out file
    str_digits(4300)
    target = tmp_path / "out"
    for argv, edge, rows in PRINTED_EDGES:
        code, doc = run_json(capsys, *argv(edge))
        assert code == 0 and len(doc["outputs"]) == rows, argv(edge)[0]
        code, out = run(capsys, *argv(edge), "--format", "csv")
        assert code == 0 and len(out.splitlines()) == rows + 1
        for fmt in ("json", "csv"):
            assert main([*argv(edge + 1), "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == PRINTABLE_REFUSAL, (argv(edge)[0], fmt)
        assert main([*argv(edge + 1), "--out", str(target)]) == 2
        assert capsys.readouterr().err == PRINTABLE_REFUSAL and not target.exists()


def test_no_digit_limit_refuses_nothing(capsys, str_digits):
    str_digits(0)
    code, doc = run_json(capsys, "dual", "--k", "100", "--r", "100", "--even", "1",
                         "--nmax", "2154")
    assert code == 0 and len(doc["outputs"]) == 2155


def _answers(capsys, argv) -> bool:
    """Whether main answers argv; a refusal must be one error line that
    names the digit limit or the float range."""
    code = main(argv)
    captured = capsys.readouterr()
    if code == 0:
        return True
    assert code == 2 and captured.out == "", argv[0]
    assert captured.err in (PRINTABLE_REFUSAL.replace("4300", "640"),
                            "error: value outside the float range\n"), argv[0]
    return False


@pytest.mark.parametrize("k, r", [(12, 3), (3, 12), (9, 9)])
def test_every_admitted_exact_output_prints(capsys, monkeypatch, str_digits, k, r):
    # at the lowest digit limit, and with inputs of 212-digit denominators,
    # the edges are short: each command answers up to some size and refuses
    # the next with one error line
    str_digits(640)
    # values are immutable, so the many equal inputs may share one parse
    monkeypatch.setattr(symgraph.cli, "parse_value", functools.lru_cache(symgraph.cli.parse_value))
    value = f"1/{7 ** 250}+2/3*sqrt({(k - 1) * (r - 1)})"
    base = ["--k", str(k), "--r", str(r)]
    commands = (
        lambda n: ["abel", *base, "--radial", ",".join([value] * n)],
        lambda n: ["abel-inv", *base, "--even", ",".join([value] * n)],
        lambda n: ["dual", *base, "--even", value, "--nmax", str(n)],
        lambda n: ["dual-inv", *base, "--radial", ",".join([value] * n)],
        lambda n: ["wave", *base, "--f", f"e:{value}", "--g", f"a0^1:{value}",
                   "--method", "closed", "--steps", str(n), "--at", f"a1^1,{n}"],
    )
    for argv in commands:
        lo, hi = 1, 1500
        assert _answers(capsys, argv(lo)) and not _answers(capsys, argv(hi))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _answers(capsys, argv(mid)) else (lo, mid)


def test_plancherel_tolerance_scales_with_the_norm(capsys):
    # ||f||^2 = 2687385: an absolute 1e-9 sits below the rounding of the sum
    code, doc = run_json(capsys, "plancherel", "--k", "3", "--r", "4",
                         "--radial", "1,1,1,1,1,1,1,1,1")
    assert code == 0
    direct, spectral = (row["float"] for row in doc["outputs"])
    assert direct == 2687385.0
    assert spectral == pytest.approx(direct, rel=1e-9)
    assert doc["diagnostics"]["quadrature_error"] <= 1e-9 * direct


def test_quadrature_failure_exits_one(capsys, monkeypatch):
    def diverge(*args, **kwargs):
        raise QuadratureError("quadrature did not converge to 1e-09 by order 4096", 3.5e-07)

    monkeypatch.setattr(symgraph.spectral, "gauss_legendre_adaptive", diverge)
    code = main(["plancherel", "--k", "3", "--r", "4", "--radial", "1,1/2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "3.5e-07" in lines[0]


@contextlib.contextmanager
def warnings_to_stderr():
    """Write every warning to sys.stderr, as a shell run of the CLI does, not
    to the record pytest keeps of them."""
    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        yield


@pytest.mark.parametrize("argv", [
    ("spherical",),
    ("table", "phi"),
    ("helgason", "--values", "e:1;a0^1:1/2", "--ray", "a0^1.a1^1"),
], ids=("spherical", "table-phi", "helgason"))
def test_lambda_past_float_range_is_one_error_line(capsys, argv):
    # at (4, 4) lambda ln q overflows, where cos and exp would give nan
    with warnings_to_stderr():
        code = main([*argv, "--k", "4", "--r", "4", "--lambda", "1e308"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


def test_threads_flag_accepted(capsys):
    code, doc = run_json(capsys, "info", "--k", "3", "--r", "4", "--threads", "2")
    assert code == 0


def test_threads_environment_variable_is_not_read(capsys, monkeypatch):
    monkeypatch.setenv("SYMGRAPH_THREADS", "abc")
    code, doc = run_json(capsys, "info", "--k", "3", "--r", "4")
    assert code == 0 and doc["command"] == "info"


# -- argv fuzz -----------------------------------------------------------------------
#
# Commands, flags and values drawn from edge sets: in-budget values are small and
# out-of-budget values are huge, so every example answers quickly or is refused.

_SEQUENCES = ("1", "0", "1,1/2,0", "1/2+1/3*sqrt(6)", "sqrt(6),-1", "", "1/0", "abc", "1,,2",
              "1e5", "sqrt(7)", " 2 , -3/4 ", "1/" + "9" * 4400)
_RADIAL_SEQUENCES = _SEQUENCES + (",".join(["1"] * 3000), ",".join(["-1/3*sqrt(6)"] * 20000))
_VERTEX_VALUES = ("e:1", "e:1;a0^1:1/2", "", "e:", "x:1", "a9^1:1", "e:1;e:2", "a0^1.a1^2:sqrt(6)")
_LAMBDAS = ("0.4", "0", "-1", "nan", "inf", "1e308", "x")
_FLAGS = {
    "info": {},
    "table": {"--nmax": ("0", "6", "12", "13", "-1"), "--hmax": ("0", "6", "13"),
              "--grid": ("1", "16", "1024", "1025", "0"), "--lambda": _LAMBDAS},
    "abel": {"--radial": _RADIAL_SEQUENCES},
    "abel-inv": {"--even": _RADIAL_SEQUENCES},
    "dual": {"--even": _RADIAL_SEQUENCES, "--nmax": ("0", "3", "100", "100000", str(10**12), "-3")},
    "dual-inv": {"--radial": _RADIAL_SEQUENCES},
    "spherical": {"--lambda": _LAMBDAS, "--nmax": ("0", "8", "100001", str(10**9), "-1"),
                  "--oracle-depth": ("1", "4", "7", "0", str(10**10))},
    "transform": {"--radial": _SEQUENCES, "--grid": ("1", "33", "0")},
    "plancherel": {"--radial": _SEQUENCES},
    "helgason": {"--values": _VERTEX_VALUES, "--lambda": _LAMBDAS,
                 "--ray": ("a0^1.a1^1", "e", "a9^1", "x", "a0^1.a0^1")},
    "invert": {"--at": ("e", "a0^1", "a0^1.a1^2", "x", ".".join(["a0^1", "a1^1"] * 4)),
               "--radial": _SEQUENCES, "--values": _VERTEX_VALUES,
               "--depth": ("0", "2", "7", "-2", str(10**10))},
    "ks-check": {"--trials": ("1", "3", "0", "-5", str(10**8))},
    "wave": {"--f": _VERTEX_VALUES, "--g": _VERTEX_VALUES,
             "--steps": ("0", "1", "3", "-3", "40", str(10**6)),
             "--method": ("closed", "direct", "both", "x"),
             "--at": ("e,1", "e,3", "a0^1,-2", "e,5", "x,1", "e,x", f"e,{10**6}")},
    "verify": {"--suite": ("group", "boundary", "abel", "dual", "spectral", "wave", "x")},
}
_COMMON = {"--k": ("2", "3", "4", "1", "0", "-1", "x", "10", "14", str(10**30)),
           "--r": ("2", "3", "4", "1", "0", "x", "10", "14"),
           "--seed": ("0", "1", "-1", "x"), "--tol": ("1e-9", "0", "-1", "nan", "1e-300", "1"),
           "--threads": ("1", "2", "0"), "--format": ("json", "csv", "x")}
_TABLES = ("delta", "b", "phi", "c2", "x")


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    if command == "table":
        argv.append(draw(st.sampled_from(_TABLES)))
    flags = {**_COMMON, **_FLAGS[command]}
    for flag in sorted(flags):
        # the graph is mostly given, every other flag about half the time
        if draw(st.integers(0, 9)) < (9 if flag in ("--k", "--r") else 5):
            argv += [flag, draw(st.sampled_from(flags[flag]))]
    return argv


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _run_cleanly(argv) -> int:
    """Run argv in-process, assert that it exits cleanly, and return its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings_to_stderr():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    assert "Warning" not in err.getvalue(), argv
    if code == 0 or (code == 1 and out.getvalue()):
        if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
            rows = list(csv.reader(io.StringIO(out.getvalue())))
            assert rows[0] == ["key", "exact", "float"], argv
            assert all(len(row) == 3 for row in rows[1:]), argv
        else:
            doc = _strict_json(out.getvalue())
            assert doc["command"] == argv[0], argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue(), argv
    return code


@settings(max_examples=60, derandomize=True, deadline=2000,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_argv_fuzz_exits_cleanly(argv):
    _run_cleanly(argv)


# A second strategy that reaches answers: a valid argv of small known-good values
# per command, then, for a third of the examples, one flag redrawn from the edge
# sets above.  "Q" in a value stands for the graph's q.

_GOOD_SEQUENCES = ("1", "1,1/2,0", "1/2+1/3*sqrt(Q)", "sqrt(Q),-1,0,2/5")
_GOOD_VALUES = ("e:1", "e:1;a0^1:1/2", "a0^1:-1/3*sqrt(Q)")
_GOOD = {
    "info": {},
    "table": {"--nmax": ("0", "4"), "--hmax": ("0", "3"), "--grid": ("1", "5"),
              "--lambda": ("0", "0.4")},
    "abel": {"--radial": _GOOD_SEQUENCES},
    "abel-inv": {"--even": _GOOD_SEQUENCES},
    "dual": {"--even": _GOOD_SEQUENCES, "--nmax": ("0", "3")},
    "dual-inv": {"--radial": _GOOD_SEQUENCES},
    "spherical": {"--lambda": ("0", "0.4"), "--nmax": ("0", "6"), "--oracle-depth": ("1", "3")},
    "transform": {"--radial": _GOOD_SEQUENCES, "--grid": ("1", "9")},
    "plancherel": {"--radial": _GOOD_SEQUENCES},
    "helgason": {"--values": _GOOD_VALUES, "--lambda": ("0", "0.3"),
                 "--ray": ("a0^1.a1^1", "a1^1.a0^1.a1^1")},
    "invert": {"--at": ("e", "a0^1"), "--radial": _GOOD_SEQUENCES},
    "ks-check": {"--trials": ("1", "3")},
    "wave": {"--f": _GOOD_VALUES, "--g": _GOOD_VALUES, "--steps": ("2", "3"),
             "--method": ("closed", "direct", "both"), "--at": ("e,1", "a0^1,-2")},
    "verify": {"--suite": ("group", "boundary", "dual")},
}
_GOOD_GRAPHS = ((2, 3), (3, 2), (3, 3), (3, 4), (4, 3))


@st.composite
def _valid_argv(draw):
    command = draw(st.sampled_from(sorted(_GOOD)))
    k, r = draw(st.sampled_from(_GOOD_GRAPHS))
    if command == "ks-check":  # the smoothing inequality is checked for k <= r only
        k, r = min(k, r), max(k, r)
    q = str((k - 1) * (r - 1))
    flags = {"--k": str(k), "--r": str(r), "--seed": draw(st.sampled_from(("0", "1"))),
             "--format": draw(st.sampled_from(("json", "csv")))}
    for flag, choices in sorted(_GOOD[command].items()):
        flags[flag] = draw(st.sampled_from(choices)).replace("Q", q)
    if draw(st.integers(0, 2)) == 0:
        edges = {**_COMMON, **_FLAGS[command]}
        flag = draw(st.sampled_from(sorted(edges)))
        flags[flag] = draw(st.sampled_from(edges[flag]))
    argv = [command]
    if command == "table":
        argv.append(draw(st.sampled_from(_TABLES[:-1])))
    for flag, value in flags.items():
        argv += [flag, value]
    return argv


def test_valid_argv_fuzz_reaches_answers():
    seen, answered = [], []

    # the last sequence edge holds an integer past the default int-to-str
    # limit of 4300 digits; the derandomized draws miss it, so it is pinned
    @settings(max_examples=40, derandomize=True, deadline=2000, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_valid_argv())
    @example(["abel", "--k", "3", "--r", "4", "--format", "csv", "--radial", _SEQUENCES[-1]])
    def check(argv):
        code = _run_cleanly(argv)
        seen.append(argv)
        if code == 0:
            answered.append(argv[argv.index("--format") + 1])

    check()
    assert 2 * len(answered) >= len(seen), (len(answered), len(seen))
    assert set(answered) == {"json", "csv"}
