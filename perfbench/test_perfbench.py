"""Tests of the benchmark itself:  python3 -m pytest perfbench

Most run the n=32 smoke configuration; the seed-4 refusal runs at full size
(about 15 s).
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from paratorus import transforms  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import FULL, SMOKE, DriftCertify, Outcomes  # noqa: E402

WORKLOADS = ("anderson_study", "drift_certify", "drift_apply")
SMOKE_SEED = 1  # n=32: seeds 1, 1001 and 2001 are all accepted
SMOKE_REFUSED_SEED = 15  # n=32: seed 15 refused by solve_kpz, 1015 and 2015 not
SMOKE_ALL_REFUSED_SEED = 7  # n=32: seeds 7 and 1007 both refused


def smoke(workload, trace, tmp_path, seed=SMOKE_SEED):
    return run.run_workload(workload, seed, 0.0, trace, sizes=SMOKE, tmp_root=tmp_path)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, tmp_path):
    details, result = smoke(workload, 0, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    json.dumps(details)

    details, result = smoke(workload, 1, tmp_path)
    expected = {name: unit for name, unit, _ in PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"], details["failures"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_outputs_match_untraced(workload, tmp_path):
    first = smoke(workload, 1, tmp_path)
    second = smoke(workload, 1, tmp_path)
    # a mismatch between traced and untraced outputs makes a run incorrect
    assert first[1]["correct"] and second[1]["correct"]
    assert first[0]["digests"] == second[0]["digests"]
    counts = {name for name, unit, _ in PER_LAYER if unit in ("count", "B", "share")}
    for name in counts:
        assert first[1]["metrics"][name] == second[1]["metrics"][name], name


def test_layers_all_report_on_drift_certify(tmp_path):
    _, result = smoke("drift_certify", 1, tmp_path)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for layer in ("torus", "lp", "paraproducts", "linops", "kpz", "noise", "transforms"):
        assert m[f"{layer}.self_s"] > 0, layer
    assert m["torus.pcf1.bytes_written"] > 0 and m["torus.pcf1.bytes_read"] > 0
    assert m["kpz.auto_lambda.lams_tried"] >= 1


def test_corrupted_stack_file_counts_as_failed_verify(tmp_path, monkeypatch):
    save = transforms.save_stack

    def save_and_flip_a_bit(stack, directory):
        save(stack, directory)
        path = Path(directory) / "e_pw.pcf"
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"\n") + 1] ^= 1  # lowest bit of the first coefficient
        path.write_bytes(bytes(raw))

    monkeypatch.setattr(transforms, "save_stack", save_and_flip_a_bit)
    wl = DriftCertify(SMOKE_SEED, SMOKE, tmp_path)
    outcomes = Outcomes()
    assert wl.setup(outcomes) and outcomes.failed == 0
    stages, _ = wl.op(0, outcomes)
    assert "verify_s" in stages
    assert outcomes.failed == 1
    assert outcomes.failures[0]["op"] == "verify"
    assert outcomes.failures[0]["error"] == "CertificateError"


def test_refused_data_is_a_failed_operation_not_a_crash(tmp_path):
    for workload in ("drift_certify", "drift_apply"):
        details, result = smoke(workload, 0, tmp_path, seed=SMOKE_REFUSED_SEED)
        assert result["correct"]
        assert 1 <= result["failed"] < result["attempted"]
        assert details["failures"][0]["op"] == "enhance"
        assert details["failures"][0]["error"] == "SolverDivergenceError"
        assert details["failures"][0]["exit_code"] == 12
        assert result["metrics"]["op_adj_s.p50"]["value"] > 0


def test_all_data_refused_still_reports_every_metric(tmp_path):
    details, result = smoke("drift_certify", 0, tmp_path, seed=SMOKE_ALL_REFUSED_SEED)
    assert result["failed"] == result["attempted"] == 2  # seed 7, then 1007
    assert {k for k in result["metrics"]} == {name for name, _ in run.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_seed_4_drift_certify_is_reported_as_refused(tmp_path):
    details, result = run.run_workload("drift_certify", 4, 0.0, 0, sizes=FULL,
                                       tmp_root=tmp_path)
    assert result["failed"] >= 1
    assert details["failed_share"] > 0
    assert details["failures"][0]["op"] == "enhance"
    assert details["failures"][0]["exit_code"] == 12


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "anderson_study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
