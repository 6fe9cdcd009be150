"""Tests of the benchmark itself: python3 -m pytest bench -q

They check that generation is a pure function of the seed, that the output
checks have teeth, and that tracing counts repeat exactly and restore the
package when a request ends.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import symgraph  # noqa: E402
import symgraph.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CliOutcome, Request  # noqa: E402

sg = symgraph


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_a_function_of_the_seed(name):
    workload = workloads.WORKLOADS[name]
    first, again, other = (workload.generate(seed, 2) for seed in (7, 7, 8))
    assert first == again
    assert first != other
    for batch in first + other:
        assert sorted(req.kind for req in batch) == sorted(workload.kinds)


def test_calibration_imports_nothing_from_symgraph():
    code = "import sys, calibration; calibration.kernel(); print('symgraph' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def _verify_request(suite: str) -> Request:
    argv = ["verify", "--suite", suite, "--k", "3", "--r", "4", "--seed", "1"]
    return Request(("verify", suite, 3, 4), (argv, None))


def test_seeded_fault_fails_a_verify_request(monkeypatch):
    cli_mix = workloads.WORKLOADS["cli_mix"]
    req = _verify_request("abel")
    assert cli_mix.check(sg, req, cli_mix.run(sg, req)) is None
    monkeypatch.setenv("SYMGRAPH_FAULT", "abel-coeff")
    assert cli_mix.check(sg, req, cli_mix.run(sg, req)) is not None


def test_cli_check_rejects_a_wrong_value():
    cli_mix = workloads.WORKLOADS["cli_mix"]
    req = next(r for r in cli_mix.generate(3, 1)[0] if r.kind == ("abel", 3, 4))
    outcome = cli_mix.run(sg, req)
    assert cli_mix.check(sg, req, outcome) is None
    tampered = outcome.stdout.replace('"exact": "', '"exact": "1+', 1)
    assert cli_mix.check(sg, req, CliOutcome(0, tampered, "")) is not None
    doc = json.loads(outcome.stdout)
    doc["outputs"][0]["float"] = float("nan")
    assert cli_mix.check(sg, req, CliOutcome(0, json.dumps(doc), "")) is not None


def test_exact_workloads_report_mismatches():
    radial = workloads.WORKLOADS["radial_exact"]
    req = radial.generate(1, 1)[0][0]
    assert radial.check(sg, req, radial.run(sg, req)) is None
    assert radial.check(sg, req, ["abel_inv(abel f) != f"]) is not None
    assert radial.check(sg, req, ZeroDivisionError("x")) is not None


def _traced_counts(name: str, kind: tuple) -> dict:
    workload = workloads.WORKLOADS[name]
    req = next(r for r in workload.generate(5, 1)[0] if r.kind == kind)
    tracer = tracing.Tracer(sg)
    with tracer.request(0):
        outcome = workload.run(sg, req)
    assert workload.check(sg, req, outcome) is None
    return dict(tracer.counts)


def test_trace_counts_repeat_and_show_the_bypass():
    wave = _traced_counts("wave_exact", (2, 3, 1, 3, 1))
    assert wave == _traced_counts("wave_exact", (2, 3, 1, 3, 1))
    assert wave["words.distance.calls"] > 0 and wave["wave.direct.calls"] == 1
    assert wave.get("spectral.quad.calls", 0) == 0
    radial = _traced_counts("radial_exact", (3, 4, 10))
    assert radial["algebraic.ring_ops"] > 0 and radial["transforms.calls"] == 7
    assert radial.get("words.distance.calls", 0) == 0
    assert radial.get("words.vertices_enumerated", 0) == 0


def test_tracer_restores_the_package():
    originals = (sg.wave.distance, sg.spectral.sphere, sg.AlgebraicValue.__mul__,
                 sg.checks.SUITES["abel"], sg.cli.main)
    tracer = tracing.Tracer(sg)
    with tracer.request(0):
        assert sg.wave.distance is not originals[0]
        assert sg.checks.SUITES["abel"] is not originals[3]
    assert (sg.wave.distance, sg.spectral.sphere, sg.AlgebraicValue.__mul__,
            sg.checks.SUITES["abel"], sg.cli.main) == originals


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = run._per_layer(tracing.Tracer(sg), 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in per_layer.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END_UNITS)
