"""Fast tests of the benchmark itself: python3 -m pytest -q bench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from run import WORKLOAD_NAMES, load_symp, tail  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS as WORKLOAD_FUNCTIONS, gauss_count, partition_counts  # noqa: E402


def bench(tmp_path, *args, run=RUN):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(run), "--seconds", "1", "--quick", "--out", str(out), *args],
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc, out


def test_spec_names_every_workload():
    assert WORKLOADS == list(WORKLOAD_NAMES) == list(WORKLOAD_FUNCTIONS) == ["sweep", "exact", "mc", "ffield"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_pass_the_same_checks(tmp_path, workload):
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain, plain_out = bench(tmp_path / "plain", "--workload", workload, "--seed", "5", "--trace", "0")
    traced, traced_out = bench(tmp_path / "traced", "--workload", workload, "--seed", "5", "--trace", "1")
    assert plain.returncode == 0, plain.stdout + plain.stderr
    assert traced.returncode == 0, traced.stdout + traced.stderr

    summary = json.loads(plain.stdout.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    assert set(summary["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    report = json.loads(plain_out.read_text())
    assert report["fail_frac"] == 0
    for key in ("nproc", "cgroup_cpu_quota", "python", "numpy", "blas", "OPENBLAS_NUM_THREADS", "git_commit", "seed"):
        assert key in report["environment"]
    assert report["environment"]["seed"] == 5

    traced_summary = json.loads(traced.stdout.splitlines()[-1])
    assert traced_summary["correct"]
    assert set(traced_summary["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    traced_report = json.loads(traced_out.read_text())
    assert traced_report["passes"]["traced"] >= 1
    # every traced pass gave the first (untraced) pass's check results, or
    # the run would have failed; and that pass matches the untraced run's
    assert traced_report["check_digest"] == report["check_digest"]


def test_wrong_golden_fails(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    key = "moment_usp|1|1^4"
    golden["sweep"][key] = str(int(golden["sweep"][key]) + 1)
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    proc, _ = bench(tmp_path, "--workload", "sweep", "--seed", "1", "--trace", "0", "--golden", str(bad))
    assert proc.returncode == 1
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert not summary["correct"] and summary["failed"] >= 1
    assert key in proc.stdout


def test_without_program_exits_nonzero_silently(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc, _ = bench(tmp_path, "--workload", "sweep", "--seed", "1", "--trace", "0", run=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_has_ten_samples_beyond():
    value, percentile, beyond = tail([float(i) for i in range(100)])
    assert (value, percentile, beyond) == (89.0, 90.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_closed_forms():
    assert partition_counts(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [gauss_count(2, d) for d in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert gauss_count(29, 3) == (29**3 - 29) // 3


def test_counter_off_its_closed_form_is_a_problem():
    sym = load_symp()
    field = sym.ffield.PrimeField(5)
    field._primes[2] = [(2, 0, 1)]  # a prime table missing all but one prime
    tracer = Tracer(sym)
    tracer.install()
    try:
        sym.ffield.primes_of_degree(field, 2)
    finally:
        tracer.remove()
    assert tracer.problems == ["q=5 d=2: 1 primes, Gauss count 10"]
