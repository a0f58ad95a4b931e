"""Benchmark of the `fgl` command line, run against this checkout's src/.

    python3 perfbench/run.py --workload tower --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  With --trace 0 the workload runs as a
closed loop: one client starts one `python -m hondafgl` process at a time and
waits for it, pass after pass over the workload's job list, for --seconds.
It reports the end-to-end metrics of BENCHMARK.json, with every time scaled
to a reference machine speed (see `reference_slices`).  With --trace 1 the
same jobs run in this process, alternately plain and under the span tracer,
and the run reports the per-layer metrics.  The seed only permutes the job
order inside each pass, so every pass does the same work.  Every job's
stdout is checked against its frozen digest and by an independent check.
The last line of stdout is the result, as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Every job with the sha256 of its stdout, frozen from the code at commit
# 9fd4455.  The parameters are fixed; only their order varies with the seed.
WORKLOADS = {
    # The collapse ladder: bivariate F_p products under a y-cap.  Leaves the
    # oracle and chern untouched.
    "tower": [
        ("compute --p 2 --s 2 --level 6 --coeff-table --verify-degree-bound --regrade --json",
         "481734f42cc73daea8e0435c706bdeafa1d090842a43ca8addb4a2e788e76ea0"),
        ("pseries --p 2 --s 2 --level 6 --k 2",
         "8110d836c29205639c4723f60a78c650845b533404a82295142d710f49307851"),
        ("compute --p 3 --s 2 --level 4 --verify-degree-bound",
         "27f0eab5224386a8689be2a5bc6d6b940354a9aeb9fbf95e3505d859a42b1c9a"),
        ("compute --p 5 --s 2 --level 3",
         "f5d190fb903a62a17128b5cf33da87753b4c22dc94fa2140674a07fa4eab7350"),
    ],
    # Q-coefficient arithmetic under total-degree caps; the engine is ~2 %.
    "oracle": [
        ("verify --p 2 --s 2 --level 5 --degree 65",
         "4a5d282a653a869a2c02218b875a7a58ceaf3bff641c7f56f184d28b90d9aabf"),
        ("oracle --p 2 --s 2 --degree 33 --check-associativity --check-pseries",
         "acc41d42642616a9f04707793f7e53109f52a1bdd6800f813021872d8567c8c5"),
        ("verify --p 3 --s 2 --level 3 --degree 40",
         "b78d6f4b5513a90de040ed61292790723de437f3bfa7d8f01e02976821054864"),
    ],
    # The ring used differently: Z big-int Witt solve and certificate,
    # 8-variable Chern products under a u-cap, ~100 k rendered terms.
    "witt-chern": [
        ("witt --p 5 --jmax 4 --json",
         "aac515488986842ccc96753fd884eaf8bc33029a3d290b3015bbaf8189fd903d"),
        ("chern --p 2 --s 2 --k 2 --json",
         "90a16a44588d03ac632ef5f1f1a870c8859f3ea0152efa8ede85db3c7dea81e9"),
        ("chern --p 7 --s 2 --k 1",
         "c354e454867badfe693f8cf96b8789eb97d20734b528dcdaa632df1677359ec8"),
        ("chern --p 2 --s 3 --k 2",
         "0f9eda0f18fc9ebb2e0b5228dbb352802fbfb9933afc02a752c310a56a74b92f"),
    ],
}

# Cold interpreter starts per traced run, for each proc-layer metric.
STARTS = 15

# On a host shared with other machines the CPU's speed can drift by tens of
# per cent within a minute, and a job's CPU time drifts with its wall time, so
# no per-process clock removes it.  Each job is therefore bracketed by REFERENCE_SLICES runs
# of a fixed kernel before and after it, and end-to-end times are scaled by
# REFERENCE_S / (the kernel's mean time around them): they read as seconds on
# a machine where one kernel run takes REFERENCE_S.
REFERENCE_SLICES = 10
REFERENCE_S = 0.008


def reference_kernel() -> int:
    """A fixed sparse bivariate product under a cap, in plain Python with
    tuple exponents, the operation mix of `SparsePoly.mul`.  It imports
    nothing from the package, so a change to the package cannot move it."""
    a = {(i, j): (7 * i + 3 * j) % 5 + 1 for i in range(20) for j in range(20) if (i + j) % 3 == 0}
    b = {(i, j): (i + 2 * j) % 5 + 1 for i in range(20) for j in range(20) if i * j % 4 == 1}
    out: dict[tuple[int, int], int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if e[1] < 30:
                out[e] = out.get(e, 0) + c1 * c2
    return len(out)


def reference_slices() -> list[float]:
    """Wall times of REFERENCE_SLICES runs of the reference kernel."""
    times = []
    for _ in range(REFERENCE_SLICES):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return times


class Failures:
    """Jobs attempted and failed; each failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, job: str, status: int | None, out: bytes, err: bytes, digest: str) -> None:
        self.attempted += 1
        if status != 0:
            problem = f"exit status {status}"
        elif hashlib.sha256(out).hexdigest() != digest:
            problem = "stdout differs from the frozen digest"
        else:
            problem = checks.check(job.split(), out.decode())
        if problem:
            self.failed += 1
            print(f"FAIL {job}: {problem}\n{err.decode()[-2000:]}", file=sys.stderr)


def job_env() -> dict[str, str]:
    """The caller's environment with the checkout's src/ as the only import
    path, a fixed hash seed, and no guard override."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "FGL_MAX_TERMS"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


def spawn(args: list[str], env: dict[str, str]) -> tuple[float, float, int, bytes, bytes]:
    """Run `python <args>` to completion: wall s, max RSS MiB, status, out, err."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode, out, err


def cold_start(args: list[str], env: dict[str, str]) -> float:
    """Wall time of one cold `python <args>` that must succeed."""
    wall, _, status, _, err = spawn(args, env)
    if status:
        sys.exit(f"`python {' '.join(args)}` failed: {err.decode()}")
    return wall


def median_start(args: list[str], env: dict[str, str]) -> float:
    return statistics.median(cold_start(args, env) for _ in range(STARTS))


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def describe(package_file: str) -> dict:
    if Path(package_file).resolve() != SRC / "hondafgl" / "__init__.py":
        sys.exit(f"imported hondafgl from {package_file}, not from {SRC}")
    return {"hondafgl": package_file, "commit": commit(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def distribution(samples: list[float]) -> dict:
    """Sample count, quartiles, and the highest of the 50/75/90/95/99th
    percentiles with at least ten samples beyond it (None if there is none)."""
    n = len(samples)
    q1, q2, q3 = statistics.quantiles(samples, n=4) if n > 1 else samples * 3
    tail = [pc for pc in (50, 75, 90, 95, 99) if n * (100 - pc) >= 1000]
    top = None
    if tail:
        top = {"p": tail[-1], "value": statistics.quantiles(samples, n=100)[tail[-1] - 1]}
    return {"n": n, "q1": q1, "median": q2, "q3": q3, "tail": top}


def end_to_end(jobs, seed: int, seconds: float, failures: Failures):
    """Closed loop of `python -m hondafgl` processes, one at a time."""
    env = job_env()
    probe = spawn(["-c", "import hondafgl, sys; sys.stdout.write(hondafgl.__file__)"], env)
    if probe[2]:
        sys.exit(f"cannot import hondafgl from {SRC}: {probe[4].decode()}")
    info = describe(probe[3].decode())
    rng = random.Random(seed)
    walls, setups, peaks, raw_walls, raw_setups, references = [], [], [], [], [], []
    began = time.perf_counter()
    while not walls or time.perf_counter() - began < seconds:
        wall = peak = 0.0
        reference = []
        for job, digest in rng.sample(jobs, len(jobs)):
            before = reference_slices()
            # one cold import before every job, so that setup_s samples the
            # machine over the whole run, as wall_s does
            setup = cold_start(["-c", "import hondafgl"], env)
            w, rss, status, out, err = spawn(["-m", "hondafgl", *job.split()], env)
            around = before + reference_slices()
            failures.record(job, status, out, err, digest)
            setups.append(setup * REFERENCE_S / statistics.mean(around))
            raw_setups.append(setup)
            reference += around
            wall += w
            peak = max(peak, rss)
        references.append(statistics.mean(reference))
        walls.append(wall * REFERENCE_S / references[-1])
        raw_walls.append(wall)
        peaks.append(peak)
    metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
               "peak_rss_mib": statistics.median(peaks)}
    detail = {"wall_s": distribution(walls), "peak_rss_mib": distribution(peaks),
              "fail_frac": {"value": failures.failed / failures.attempted, "unit": "1"},
              "unscaled_wall_s": distribution(raw_walls),
              "unscaled_setup_s": statistics.median(raw_setups),
              "reference_kernel_s": distribution(references)}
    return metrics, info, detail


def call_cli(cli, job: str) -> tuple[int | None, bytes, bytes]:
    """`fgl <job>` in this process: exit status, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(job.split())
        except SystemExit as exc:
            status = exc.code
        except Exception:
            traceback.print_exc()
            status = None
    return status, out.getvalue().encode(), err.getvalue().encode()


def traced(jobs, seed: int, seconds: float, failures: Failures):
    """Per-layer metrics from in-process passes under the span tracer."""
    env = job_env()
    bare = median_start(["-c", "pass"], env)
    metrics = {"proc.start_s": bare, "proc.import_s": median_start(["-c", "import hondafgl"], env) - bare}
    os.environ.pop("FGL_MAX_TERMS", None)
    sys.path.insert(0, str(SRC))
    import hondafgl
    from hondafgl import cli

    info = describe(hondafgl.__file__)
    original = spans.bindings()
    rng = random.Random(seed)
    plain, runs, guards = [], [], []
    began = time.perf_counter()
    while not runs or time.perf_counter() - began < seconds:
        order = rng.sample(jobs, len(jobs))
        wall = 0.0
        for job, digest in order:
            t = time.perf_counter()
            status, out, err = call_cli(cli, job)
            wall += time.perf_counter() - t
            failures.record(job, status, out, err, digest)
        plain.append(wall)

        tracer = spans.Tracer()
        wall = 0.0
        tracer.install()
        try:
            for job, digest in order:
                tracer.guard = {}
                pairs = tracer.stats["ring.mul.term_pairs"]
                t = time.perf_counter()
                status, out, err = call_cli(cli, job)
                wall += time.perf_counter() - t
                failures.record(job, status, out, err, digest)
                tracer.stats["cli.out_bytes"] += len(out)
                if not runs:
                    guards.append({"job": job, "guard": tracer.guard,
                                   "ring.mul.term_pairs": tracer.stats["ring.mul.term_pairs"] - pairs})
        finally:
            tracer.uninstall()
        if spans.bindings() != original:
            sys.exit("the tracer left a patched binding behind")
        tracer.stats["trace.wall_s"] = wall
        runs.append(tracer.stats)
    return metrics, info, plain, runs, guards


def layer_metrics(metrics: dict, plain: list[float], runs: list[dict], units: dict) -> tuple[dict, bool]:
    """Times are medians over the traced passes; counts must repeat exactly."""
    steady = True
    for name, unit in units.items():
        if name in metrics:
            continue
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(r["trace.wall_s"] for r in runs) - statistics.median(plain)
        elif name == "ring.mul.out_per_pair":
            pairs = runs[0]["ring.mul.term_pairs"]
            metrics[name] = runs[0]["ring.mul.out_terms"] / pairs if pairs else 0.0
        elif unit == "s":
            metrics[name] = statistics.median(r[name] for r in runs)
        else:
            values = {r[name] for r in runs}
            if len(values) > 1:
                print(f"count {name} differs between traced passes: {sorted(values)}", file=sys.stderr)
                steady = False
            metrics[name] = runs[0][name]
    return metrics, steady


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hondafgl" / "__init__.py").is_file():
        sys.exit(f"no hondafgl package under {SRC}: run from the root of a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    jobs = WORKLOADS[args.workload]
    failures = Failures()
    correct = True
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, info, plain, runs, guards = traced(jobs, args.seed, args.seconds, failures)
        metrics, correct = layer_metrics(metrics, plain, runs, units)
        for line in guards:
            print(json.dumps(line))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics, info, detail = end_to_end(jobs, args.seed, args.seconds, failures)
        print(json.dumps({"detail": detail}))
    print(json.dumps({"run": {"workload": args.workload, "seed": args.seed, **info}}))
    print(json.dumps({
        "correct": correct and failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
