#!/usr/bin/env python3
"""Benchmark of `matmeans check`, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ref-corpus --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The program is treated as a black box.  One client runs a closed loop:
each `check` runs in a fresh interpreter (so the program's decomposition
cache starts cold, as it does for a user), one child process at a time.
A round runs the workload's jobs once, each with its own master seed
derived from --seed; rounds repeat until --seconds have passed.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
runs a fixed number of rounds twice, plain and under the per-layer tracer
(perfbench/tracer.py), and reports the per-layer metrics and the tracing
overhead; the fixed work makes every count repeat exactly for a seed.

Every run gates correctness: report structure and summary counts, exit
codes, byte-identical reports for a repeated round (and between traced
and plain runs), zero failures where every property is a theorem, and a
pinned verdict digest at the default seed.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
A full record goes to .perfbench/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
PROPERTIES = tuple(f"P{i}" for i in range(1, 16))
DEFAULT_SEED = 1
# Rounds of a traced run; fixed so that counts repeat exactly.
TRACE_ROUNDS = 2
# Every child is killed, and no round is started, --seconds plus this long
# after the start: room for the pinned round and the repeated round.
DEADLINE_MARGIN_S = 140.0
# Any integer --seed is accepted; it is folded into [0, SEED_SPACE).
SEED_SPACE = 10**9


@dataclass(frozen=True)
class Workload:
    # `check` arguments of each job in a round, without --seed and --out.
    jobs: tuple[tuple[str, ...], ...]
    # sha256 of (property_id, seed, status, marginal) for one round at the
    # default seed, or None where only the structure is gated.  It is pinned
    # exactly where every property is a theorem, so any fail is a wrong result.
    pinned_digest: str | None

    @property
    def theorem(self) -> bool:
        return self.pinned_digest is not None


def _per_dim(args, dims, count):
    """One job per dimension, so that the mix of dimensions is the same in
    every round instead of drawn from the seed: dimension sets the cost of
    an instance (dim 8 takes ~7x dim 7, dim 6 ~3x dim 2), and a drawn mix
    moves instances_per_s by more than 10% between seeds."""
    return tuple((*args, "--dims", str(d), "--count", str(count)) for d in dims)


WORKLOADS = {
    # The default check configuration: ~91% of sym_eigen inputs repeat, so
    # reuse, validation and spectrum-table changes show here.
    "ref-corpus": Workload(
        jobs=_per_dim((), range(2, 7), 6),
        pinned_digest="07e8b40197cb4192334428afae3546768ae9848567ac8358d08b8b54874e8de8",
    ),
    # P8's compounds of order C(n, k) and the n^3 Python Jacobi dominate, so
    # batched-kernel or spectral-compound changes show; reuse barely does.
    "high-dim": Workload(
        jobs=_per_dim((), (7, 8), 1),
        pinned_digest="e0ac8a4e8f3fe7d3269ea399a603802adb4c277dede580729f238879d101c9dd",
    ),
    # Outside the default regime properties fail on rounding or crash, so a
    # speed-up that loses accuracy shows in fail_share, a recheck in time.
    "ill-cond": Workload(
        jobs=_per_dim(("--cond", "4"), range(2, 7), 6),
        pinned_digest=None,
    ),
}


@dataclass
class Job:
    args: tuple[str, ...]
    master: int
    count: int
    exit_code: int | None = None
    check_s: float = math.nan
    rss_kb: int = 0
    report: bytes | None = None
    record: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.count * len(PROPERTIES)

    @property
    def fails(self) -> int:
        return sum(1 for r in self.rows if r["status"] == "fail")

    @property
    def crashes(self) -> int:
        return sum(1 for r in self.rows if "error" in r)


def master_seed(seed: int, index: int) -> int:
    """Master seed of the index-th job of a run; instance ranges never overlap."""
    return 1000 * (1000 * (seed % SEED_SPACE) + index + 1) + 1


def job_count(args) -> int:
    return int(args[list(args).index("--count") + 1])


class Runner:
    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.serial = 0
        env = dict(os.environ)
        # MEANS_SEED would silently override --seed.
        env.pop("MEANS_SEED", None)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self.env = env
        self.versions: dict = {}

    def spawn(self, argv) -> tuple[int | None, float, int, Path]:
        """Run one child to its end; (exit code or None if killed, wall s, peak RSS kB, log)."""
        self.serial += 1
        log = self.workdir / f"{self.serial}.log"
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                # Set before the timer is cancelled, so a late kill is a no-op.
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        code = proc.returncode if proc.returncode >= 0 else None
        return code, wall, usage.ru_maxrss, log

    def warm_up(self) -> list:
        """Import matmeans.cli once, untimed, so that bytecode is compiled
        before any import is timed; returns the problems found."""
        code, _, _, log = self.spawn([sys.executable, "-c", "import matmeans.cli"])
        return [] if code == 0 else [f"setup: importing matmeans.cli failed: {_tail(log)}"]

    def run_job(self, args, master: int, mode: str) -> Job:
        job = Job(args=tuple(args), master=master, count=job_count(args))
        result = self.workdir / f"{self.serial + 1}.json"
        report = self.workdir / f"{self.serial + 1}.jsonl"
        argv = [
            sys.executable, str(BENCH_DIR / "child.py"), str(result), mode,
            "check", "--seed", str(master), "--out", str(report), *args,
        ]
        job.exit_code, _, job.rss_kb, log = self.spawn(argv)
        if job.exit_code is None or not result.exists():
            job.problems.append(f"died (exit {job.exit_code}): {_tail(log)}")
            return job
        job.record = json.loads(result.read_text())
        job.check_s = job.record["check_s"]
        for key in ("python", "numpy"):
            self.versions[key] = job.record[key]
        if job.exit_code == 2:
            job.problems.append(f"usage or input error: {_tail(log)}")
            return job
        if not Path(job.record["module_file"]).resolve().is_relative_to(ROOT / "src"):
            job.problems.append(f"imported matmeans from {job.record['module_file']}")
        if not report.exists():
            job.problems.append("no report written")
            return job
        job.report = report.read_bytes()
        job.rows, problems = check_report(job.report, job.count, master)
        job.problems += problems
        if job.exit_code != (1 if job.fails else 0):
            job.problems.append(f"exit code {job.exit_code} with {job.fails} failed results")
        return job


def _tail(log: Path, lines: int = 3) -> str:
    text = log.read_text(errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


def check_report(data: bytes, count: int, master: int) -> tuple[list, list]:
    """Parse a JSONL report and gate its structure against its summary."""
    problems = []
    try:
        lines = [json.loads(ln) for ln in data.decode("ascii").splitlines()]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [], [f"unreadable report: {exc}"]
    expected = count * len(PROPERTIES)
    if len(lines) != expected + 1:
        return [], [f"report has {len(lines)} lines, expected {expected} + summary"]
    rows, summary = lines[:-1], lines[-1]
    for i, row in enumerate(rows):
        want = (PROPERTIES[i % len(PROPERTIES)], master + i // len(PROPERTIES))
        if (row.get("property_id"), row.get("seed")) != want or row.get("status") not in (
            "pass", "fail", "skipped"
        ):
            problems.append(f"row {i} is {row.get('property_id')}/{row.get('seed')}, expected {want}")
            return rows, problems
    if summary.get("summary") is not True or summary.get("instances") != count:
        problems.append("summary line missing or with the wrong instance count")
        return rows, problems
    counts = {
        pid: {"pass": 0, "fail": 0, "marginal": 0, "skipped": 0} for pid in PROPERTIES
    }
    for row in rows:
        counts[row["property_id"]][row["status"]] += 1
        counts[row["property_id"]]["marginal"] += bool(row.get("marginal"))
    if summary.get("properties") != counts:
        problems.append("summary counts do not match the rows")
    fails = sum(c["fail"] for c in counts.values())
    if summary.get("total_failures") != fails:
        problems.append(f"summary total_failures {summary.get('total_failures')} != {fails}")
    return rows, problems


def verdict_digest(jobs) -> str:
    h = hashlib.sha256()
    for job in jobs:
        for r in job.rows:
            h.update(f"{r['property_id']},{r['seed']},{r['status']},{r['marginal']}\n".encode())
    return h.hexdigest()


def machine(runner: Runner) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": runner.versions.get("python", platform.python_version()),
        "numpy": runner.versions.get("numpy"),
    }


# ---------------------------------------------------------------------------
# Runs.


def run_round(runner, wl, seed, index, mode="plain") -> list[Job]:
    n = len(wl.jobs)
    return [
        runner.run_job(args, master_seed(seed, index * n + j), mode)
        for j, args in enumerate(wl.jobs)
    ]


def pinned_round(runner, wl) -> tuple[list[Job], list]:
    if wl.pinned_digest is None:
        return [], []
    jobs = [runner.run_job(args, DEFAULT_SEED, "plain") for args in wl.jobs]
    digest = verdict_digest(jobs)
    problems = [] if digest == wl.pinned_digest else [
        f"verdict digest at the default seed is {digest}, pinned {wl.pinned_digest}"
    ]
    return jobs, problems


def same_reports(a: list[Job], b: list[Job], what: str) -> list:
    return [
        f"{what}: report for master seed {x.master} differs"
        for x, y in zip(a, b)
        if x.report is None or x.report != y.report
    ]


def shares(jobs: list[Job]) -> dict:
    attempted = sum(j.attempted for j in jobs)
    return {
        "fail_share": sum(j.fails for j in jobs) / attempted,
        "crash_share": sum(j.crashes for j in jobs) / attempted,
    }


def run_plain(runner, wl, seed, seconds):
    """Timed rounds for `seconds`; returns (metrics, detail, problems, jobs)."""
    setup_problems = runner.warm_up()
    pinned, problems = pinned_round(runner, wl)
    problems += setup_problems
    rounds: list[list[Job]] = []
    t_start = time.monotonic()
    while not rounds or time.monotonic() - t_start < seconds:
        if time.monotonic() > runner.deadline or len(rounds) * len(wl.jobs) >= 999:
            break
        rounds.append(run_round(runner, wl, seed, len(rounds)))
    # The first round once more: same inputs, so the same bytes.  Its time
    # counts like any other round's, since its mix of dimensions is the same.
    rounds.append(run_round(runner, wl, seed, 0))
    problems += same_reports(rounds[0], rounds[-1], "repeated round")
    timed = [j for r in rounds for j in r]
    ok = [j for j in timed if not j.problems]
    metrics = {}
    if ok and not setup_problems:
        # Verdicts count once per instance, so the repeated round is left out.
        sh = shares([j for r in rounds[:-1] for j in r if not j.problems])
        # Every timed child is a fresh interpreter that imports matmeans.cli
        # before its check; those imports are spread over the whole window.
        setup_s = statistics.median(j.record["import_s"] for j in ok)
        metrics = {
            "instances_per_s": (sum(j.count for j in ok) / sum(j.check_s for j in ok), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (max(j.rss_kb for j in ok) / 1024.0, "MB"),
            "pass_share": (1.0 - sh["fail_share"], "share"),
            "no_crash_share": (1.0 - sh["crash_share"], "share"),
        }
    detail = {
        "rounds": len(rounds),
        "instances": sum(j.count for j in timed),
        "jobs": [_job_detail(j) for j in timed],
    }
    return metrics, detail, problems, pinned + timed


def run_traced(runner, wl, seed, seconds):
    """Fixed rounds, plain then traced; returns (metrics, detail, problems, jobs)."""
    pinned, problems = pinned_round(runner, wl)
    plain, traced = [], []
    for index in range(TRACE_ROUNDS):
        p = run_round(runner, wl, seed, index)
        t = run_round(runner, wl, seed, index, mode="trace")
        problems += same_reports(p, t, "traced round")
        plain += p
        traced += t
    metrics = {}
    if not any(j.problems for j in plain + traced):
        metrics = layer_metrics(traced)
        plain_s = sum(j.check_s for j in plain)
        traced_s = sum(j.check_s for j in traced)
        metrics["trace_overhead"] = (traced_s / plain_s - 1.0, "share")
    detail = {
        "plain_jobs": [_job_detail(j) for j in plain],
        "traced_jobs": [_job_detail(j) for j in traced],
        "traces": [j.record.get("trace") for j in traced],
    }
    return metrics, detail, problems, pinned + plain + traced


def _job_detail(job: Job) -> dict:
    return {
        "args": list(job.args), "master_seed": job.master, "exit_code": job.exit_code,
        "check_s": job.check_s, "check_cpu_s": job.record.get("check_cpu_s"),
        "import_s": job.record.get("import_s"),
        "rss_kb": job.rss_kb, "problems": job.problems,
    }


# Per-layer metrics: (module, functions, quantities).
_LAYER_SPANS = (
    ("densela", ("require_symmetric", "as_square_matrix", "pd_power", "pd_log", "sym_exp",
                 "singular_values", "is_positive_definite", "random_pd"), ("calls", "self_s")),
    ("means", ("geometric_mean", "power_mean", "power_mean_spectrum", "log_euclidean",
               "log_euclidean_spectrum", "arithmetic_path", "sandwich_mean",
               "sandwich_mean_spectrum", "cross_term", "power_mean_multi",
               "power_mean_multi_spectrum"), ("calls", "self_s")),
    ("spectra", ("eigenvalues_desc", "product_eigenvalues", "ky_fan_norm", "weak_majorize",
                 "weak_log_majorize", "loewner_leq"), ("calls", "self_s")),
    ("compound", ("compound_matrix",), ("calls", "self_s")),
    ("suite", ("materialize",), ("calls", "self_s")),
    ("suite", PROPERTIES, ("self_s",)),
    ("suite", ("report_jsonl_lines",), ("self_s",)),
    ("cli", ("cmd_check",), ("self_s",)),
)
INSTANCE_DIMS = range(2, 9)


def layer_metrics(traced: list[Job]) -> dict:
    """Sum the traces of a run's children into the per-layer metrics."""
    traces = [j.record["trace"] for j in traced]

    def span(name, quantity):
        return sum(t["spans"].get(name, {}).get(quantity, 0) for t in traces)

    def total(key, sub=None):
        return sum(t[key][sub] if sub else t[key] for t in traces)

    m = {
        "densela.sym_eigen.calls": (span("densela.sym_eigen", "calls"), "count"),
        "densela.sym_eigen.unique": (total("sym_eigen", "unique"), "count"),
        "densela.sym_eigen.self_s": (span("densela.sym_eigen", "self_s"), "s"),
        "densela.sym_eigen.self_s.large": (total("sym_eigen", "large_self_s"), "s"),
        "densela.sym_eigen.max_rel_err": (
            max(t["sym_eigen"]["max_rel_err"] for t in traces), "ratio"),
    }
    for module, names, quantities in _LAYER_SPANS:
        for name in names:
            for q in quantities:
                m[f"{module}.{name}.{q}"] = (span(f"{module}.{name}", q),
                                             "count" if q == "calls" else "s")
    m["compound.compound_matrix.order_sum"] = (total("compound_order_sum"), "count")
    for pid in PROPERTIES:
        m[f"suite.{pid}.subineq"] = (sum(t["subineq"].get(pid, 0) for t in traces), "count")
    m["suite.empty_pass"] = (total("empty_pass"), "count")
    by_dim: dict[int, list] = {}
    for t in traces:
        for _, dim, seconds in t["instances"]:
            by_dim.setdefault(dim, []).append(seconds)
    for n in INSTANCE_DIMS:
        # 0 where the workload has no instance of this dimension.
        m[f"suite.instance_s.p50.n{n}"] = (statistics.median(by_dim.get(n, [0.0])), "s")
    return m


def job_failed(job: Job, theorem: bool) -> int:
    """Results a job lost: all of them if its run or report is broken;
    otherwise its failed results where every property is a theorem."""
    if job.problems:
        return job.attempted
    return job.fails if theorem else 0


def run_workload(name: str, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    wl = WORKLOADS[name]
    runner = Runner(workdir, time.monotonic() + seconds + DEADLINE_MARGIN_S)
    run = run_traced if trace else run_plain
    metrics, detail, problems, jobs = run(runner, wl, seed, seconds)
    failed = 0
    for job in jobs:
        lost = job_failed(job, wl.theorem)
        failed += lost
        problems += [f"master seed {job.master} {' '.join(job.args)}: {p}" for p in job.problems]
        if lost and not job.problems:
            problems.append(f"master seed {job.master}: {lost} results failed "
                            "where every property is a theorem")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(runner), "problems": problems,
        "attempted": sum(j.attempted for j in jobs), "failed": failed,
        "correct": not problems and bool(metrics),
        "metrics": metrics, "detail": detail,
    }


def print_result(res: dict) -> None:
    print(f"== {res['workload']}  seed {res['seed']}  trace {int(res['trace'])}")
    print("machine: " + "  ".join(f"{k}={v}" for k, v in res["machine"].items()))
    shown = dict(res["metrics"])
    # The JSON carries the complements, which are never 0.
    for share, complement in (("fail_share", "pass_share"), ("crash_share", "no_crash_share")):
        if complement in shown:
            shown[share] = (1.0 - shown[complement][0], "share")
    for name, (value, unit) in shown.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  results attempted {res['attempted']}, failed {res['failed']}")
    for p in res["problems"]:
        print(f"  PROBLEM: {p}")
    print(f"  correct: {res['correct']}")


def summary_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "matmeans" / "cli.py").is_file():
        print(f"error: no matmeans source under {ROOT / 'src'}; "
              "run from the root of a matmeans checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out = ROOT / ".perfbench"
    workdir = out / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), workdir)
            record = out / f"{name}-seed{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps(res, indent=1, default=str))
            print_result(res)
            results.append(res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(summary_line(
        all(r["correct"] for r in results),
        sum(r["attempted"] for r in results),
        sum(r["failed"] for r in results),
        metrics,
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
