#!/usr/bin/env python3
"""Benchmark of symp: four checked workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run it from anywhere; it imports symp from the ``src`` directory beside
``bench`` and exits with code 2 if that is missing.  One process issues each
workload's ops one at a time (closed loop, one client, threads=1, BLAS pinned
to one thread).  A run makes passes over the op list until another pass
would end after ``--seconds``, and at least two.  The seed sets the order in
which ops are issued and the Monte Carlo root seeds.  An op's time is its
median over the run's untraced passes, scaled to a reference speed by a
probe timed between ops (see Probe): ``wall_s`` and ``cpu_s`` sum them over
the op list, ``op_p50_s`` and ``op_tail_s`` are percentiles over the ops.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (see tracer.py) and the tracing overhead.  Every op is checked against
an independent route or a golden value in golden.json; the last line of
stdout is a JSON summary and the exit code is 1 if any check failed.
Regenerate the golden values with ``python3 bench/run.py --write-golden``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
WORKLOAD_NAMES = ("sweep", "exact", "mc", "ffield")

MIN_PASSES = 2
SETUP_REPEATS = 7
TAIL_BEYOND = 10
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class Probe:
    """A fixed computation, timed between ops, that tells how fast the
    machine runs now.

    On the 2-core container the benchmark was built on, other tenants of the
    host slow every process by up to 1.8 times, for seconds to minutes, and
    CPU time slows with it.  The eigenvalues of a fixed batch of complex
    Hermitian matrices slow by the same factor as symp's Python and numpy
    code alike: over 25-second windows of a moment_usp, an n = 30 Monte Carlo
    and an F_q loop, raw times ranged over 32 %, 17 % and 27 % of their
    medians and times divided by the probe's over 3.5 %, 9 % and 3 %.  Every
    time is scaled by REF_S over the probe times that bracket it: seconds at
    the speed that container has when idle.
    """

    REF_S = 0.0087
    EVERY_S = 0.25

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20240907)
        a = rng.standard_normal((64, 40, 40)) + 1j * rng.standard_normal((64, 40, 40))
        self._np = np
        self._batch = a + a.conj().transpose(0, 2, 1)

    def __call__(self) -> float:
        start = time.perf_counter()
        self._np.linalg.eigvalsh(self._batch)
        return time.perf_counter() - start

    def scale(self, before: float, after: float) -> float:
        return 2 * self.REF_S / (before + after)


def load_symp() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    import symp
    from symp import ffield, haar, linstat, moments, partitions

    if Path(symp.__file__).resolve().parent != SRC / "symp":
        raise ImportError(f"symp imported from {symp.__file__}, not from {SRC}")
    return SimpleNamespace(
        package=symp, partitions=partitions, moments=moments, haar=haar, linstat=linstat, ffield=ffield
    )


def build(workload: str, seed: int, quick: bool):
    """Import symp and build the workload's inputs: what setup_s measures."""
    from workloads import WORKLOADS

    sym = load_symp()
    ops, once = WORKLOADS[workload](sym, seed, quick)
    return sym, ops, once


def measure_setup(args, probe: Probe) -> list[float]:
    """Scaled wall times of fresh interpreters that import symp and build
    the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload]
    cmd += ["--seed", str(args.seed)] + (["--quick"] if args.quick else [])
    times = []
    before = probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        after = probe()
        times.append(elapsed * probe.scale(before, after))
        before = after
    return times


def verdict(op, row, error, golden: dict) -> tuple[str, list[str]]:
    """One op's output, as compared between passes, and its problems (none
    when it passes every check)."""
    if error is not None:
        return "", [error]
    try:
        output = op.golden(row) if op.golden is not None else repr(row)
        problems = list(op.check(row))
        if op.golden is not None and output != golden.get(op.id):
            problems.append(f"golden value {golden.get(op.id)!r}, got {output!r}")
    except Exception as exc:  # a raising check is a failed op, not a crashed run
        return "", [f"check raised {type(exc).__name__}: {exc}"]
    return output, problems


def run_once(op, golden: dict):
    """An untimed one-off check, run outside the passes."""
    row, error = None, None
    try:
        row = op.call()
    except Exception as exc:  # counted in fail_frac; the run goes on
        error = f"raised {type(exc).__name__}: {exc}"
    return (op.id, *verdict(op, row, error, golden))


def run_pass(ops, rng: random.Random, golden: dict, probe: Probe, tracer=None) -> dict:
    """Issue every op once, in a seeded order; per-op scaled wall and CPU
    times, the raw wall time of the pass and every op's result."""
    order = list(range(len(ops)))
    rng.shuffle(order)
    rows, errors = [None] * len(ops), {}
    latency, cpu = array("d", bytes(8 * len(ops))), array("d", bytes(8 * len(ops)))
    probes = []
    # the benchmark's own objects are never garbage, so keep the collector off them
    gc.collect()
    gc.freeze()
    if tracer is not None:
        tracer.install()
    try:
        wall0 = time.perf_counter()
        segment, last_probe = [], probe()
        probed_at = time.perf_counter()
        for k, i in enumerate(order):
            start, cpu0 = time.perf_counter(), time.process_time()
            try:
                rows[i] = ops[i].call()
            except Exception as exc:  # counted in fail_frac; the run goes on
                errors[i] = f"raised {type(exc).__name__}: {exc}"
            latency[i], cpu[i] = time.perf_counter() - start, time.process_time() - cpu0
            if tracer is not None and tracer.problems:
                errors[i] = "; ".join([errors.get(i, "counter check")] + tracer.problems)
                tracer.problems.clear()
            segment.append(i)
            if time.perf_counter() - probed_at >= Probe.EVERY_S or k == len(order) - 1:
                now = probe()
                probes.append(now)
                scale = probe.scale(last_probe, now)
                for j in segment:
                    latency[j] *= scale
                    cpu[j] *= scale
                segment, last_probe = [], now
                probed_at = time.perf_counter()
        wall = time.perf_counter() - wall0
    finally:
        if tracer is not None:
            tracer.remove()
        gc.unfreeze()
    results = [(op.id, *verdict(op, rows[i], errors.get(i), golden)) for i, op in enumerate(ops)]
    return {"wall": wall, "probe": statistics.median(probes), "latency": latency, "cpu": cpu, "results": results}


def per_op_median(passes: list[dict], key: str) -> list[float]:
    """Each op's median scaled time over the passes."""
    return [statistics.median(times) for times in zip(*(p[key] for p in passes))]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least TAIL_BEYOND samples beyond it; the maximum if there are too few."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[count - 1 - TAIL_BEYOND], 100.0 * (count - TAIL_BEYOND) / count, TAIL_BEYOND


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": cgroup_quota(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "source_sha256": hashlib.sha256(
            b"".join(p.read_bytes() for p in sorted((SRC / "symp").glob("*.py")))
        ).hexdigest(),
        "seed": seed,
    }


def cgroup_quota() -> str | None:
    """CPU quota of this process's cgroup, read-only ("max" when unlimited)."""
    v2 = Path("/sys/fs/cgroup/cpu.max")
    v1 = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"), Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    try:
        if v2.is_file():
            return v2.read_text().strip()
        if v1[0].is_file():
            return f"{v1[0].read_text().strip()} {v1[1].read_text().strip()}"
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def write_golden(golden_path: Path) -> int:
    """Record every deterministic op's output, of the full and the quick
    op lists, from this checkout."""
    from workloads import GOLDEN_WORKLOADS

    golden = {"regenerate": "python3 bench/run.py --write-golden"}
    for workload in GOLDEN_WORKLOADS:
        values = {}
        for quick in (False, True):
            _, ops, _ = build(workload, 0, quick)
            for op in ops:
                if op.id in values:
                    continue
                row = op.call()
                problems = op.check(row)
                if problems:
                    print(f"{workload} {op.id}: {problems}", file=sys.stderr)
                    return 1
                values[op.id] = op.golden(row)
        golden[workload] = values
        print(f"{workload}: {len(values)} golden values", file=sys.stderr)
    golden_path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="a small subset of each op list, for tests")
    parser.add_argument("--golden", type=Path, default=GOLDEN, help="golden values to check against")
    parser.add_argument("--out", type=Path, help="result file (default bench/results/<workload>-seed<seed>-trace<t>.json)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true", help="record golden values from this checkout")
    args = parser.parse_args(argv)
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "symp" / "__init__.py").is_file():
        print(f"error: no symp sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is imported
    if args.write_golden:
        return write_golden(args.golden)
    if args.setup_only:
        build(args.workload, args.seed, args.quick)
        return 0

    report, summary = measure(args)
    for failure in report["failures"][:20]:
        print(f"FAIL {failure}")
    print(f"env {json.dumps(report['environment'])}")
    for name, m in summary["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':40s} {report['fail_frac']:.6g} ratio ({summary['failed']}/{summary['attempted']} ops)")
    tail_info = report["op_tail"]
    print(
        f"op_tail_s is p{tail_info['percentile']:.3f} of {tail_info['samples']} op latencies, "
        f"{tail_info['samples_beyond']} beyond it"
    )
    if args.trace:
        print(f"ffield.symbols.useful_ratio base {report['symbols_useful_ratio_base']}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def measure(args) -> tuple[dict, dict]:
    """Set up, run the passes and the one-off checks; the result file's
    contents and the summary line."""
    probe = Probe()
    setup_times = measure_setup(args, probe)
    sym, ops, once = build(args.workload, args.seed, args.quick)
    golden = json.loads(args.golden.read_text()).get(args.workload, {})
    rng = random.Random(f"order:{args.workload}:{args.seed}")

    tracer = None
    if args.trace:
        from tracer import Tracer, unit

        tracer = Tracer(sym)
    plain, traced = [], []
    first_results, failures, same = None, [], True
    start = time.perf_counter()
    while True:
        use_tracer = tracer if (len(plain) + len(traced)) % 2 else None
        last = run_pass(ops, rng, golden, probe, use_tracer)
        (traced if use_tracer else plain).append(last)
        results = last.pop("results")
        failures += [f"{op_id}: {'; '.join(problems)}" for op_id, _, problems in results if problems]
        if first_results is None:
            first_results = results
        same = same and results == first_results
        elapsed = time.perf_counter() - start
        if len(plain) + len(traced) >= MIN_PASSES and elapsed + last["wall"] > args.seconds:
            break
    extra = [run_once(op, golden) for op in once]
    extra.append(("passes.same_results", "", [] if same else ["passes give different check results"]))
    failures += [f"{op_id}: {'; '.join(problems)}" for op_id, _, problems in extra if problems]
    attempted = len(ops) * (len(plain) + len(traced)) + len(extra)

    latencies = per_op_median(plain, "latency")
    tail_value, tail_pct, tail_beyond = tail(latencies)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "cpu_s": sum(per_op_median(plain, "cpu")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is None:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}
    else:
        layer = tracer.metrics(len(traced), Probe.REF_S / statistics.median(p["probe"] for p in traced))
        layer["trace.overhead_frac"] = sum(per_op_median(traced, "latency")) / e2e["wall_s"] - 1
        metrics = {name: {"value": value, "unit": unit(name)} for name, value in layer.items()}

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "quick": args.quick,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "ops_per_pass": len(ops),
        "environment": environment(args.seed),
        "setup_s_samples": setup_times,
        "raw_pass_wall_s": [p["wall"] for p in plain],
        "raw_traced_pass_wall_s": [p["wall"] for p in traced],
        "probe_median_s": [p["probe"] for p in plain + traced],
        "op_tail": {"percentile": tail_pct, "samples_beyond": tail_beyond, "samples": len(latencies)},
        "fail_frac": len(failures) / attempted,
        "check_digest": hashlib.sha256(json.dumps(first_results).encode()).hexdigest(),
        "failures": failures[:50],
        "end_to_end": e2e,
        "metrics": metrics,
    }
    if tracer is not None:
        report["symbols_useful_ratio_base"] = tracer.useful_ratio_base(len(traced))
        report["spans"] = tracer.span_table()
    out = args.out or HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    summary = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return report, summary


if __name__ == "__main__":
    sys.exit(main())
