#!/usr/bin/env python3
"""gaussem benchmark: fixed CLI commands, run as fresh subprocesses, one at a time.

    python3 perfbench/run.py --workload draws-small --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints every end-to-end metric by name, the environment
and the output gate's findings; with ``--trace 1`` it runs each command of
the workload untraced and traced (``perfbench/layertrace.py``) and prints the
per-layer metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, the metrics and what each should
move.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from layertrace import MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
TREE = BENCH / "gremtree8.txt"
TREE_N = 8

#: the workload seed is --seed modulo POOL, so every estimate has a value
#: recorded at the reference commit for the same seed (see README.md)
POOL = 16
MIN_ITERATIONS = 3
#: no new iteration starts once the run would pass this many seconds
TIME_CAP_S = 150.0
#: a single CLI invocation that runs longer than this is killed and fails
INVOCATION_TIMEOUT_S = 120.0
NPROC = len(os.sched_getaffinity(0))
#: the second thread count; never above the cores this process may use
THREADS_HI = min(2, NPROC)
MB = 1e6


@dataclass(frozen=True)
class Command:
    """One gaussem invocation; ``items`` is the work it does (draws or pairs)."""

    args: tuple[str, ...]
    seeded: bool
    items: int
    threads: int = 1

    def key(self, seed: int) -> str:
        """Reference key: the arguments, plus the seed when it matters."""
        return " ".join(self.args) + (f" --seed {seed}" if self.seeded else "")

    def argv(self, seed: int) -> list[str]:
        return [*self.args, "--seed", str(seed if self.seeded else 0),
                "--threads", str(self.threads)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str
    full: tuple[Command, ...]
    minimal: tuple[Command, ...]

    @property
    def seeded(self) -> bool:
        return any(c.seeded for c in self.full + self.minimal)


def _superadd(samples: int, threads: int) -> Command:
    # three systems (full and both blocks) per beta
    return Command(("superadd", "--model", "sk", "--n", "8", "--n1", "4",
                    "--beta", "0.5,1,2", "--samples", str(samples)), True, samples * 3 * 3,
                   threads)


def _alpha(samples: int) -> Command:
    return Command(("alpha", "--model", "mixed:2=0.5,4=0.5", "--n", "10",
                    "--beta", "0.5,1,2", "--samples", str(samples)), True, samples * 3)


def _interp(samples: int) -> Command:
    # a joint (full, block 1, block 2) draw counts as one
    return Command(("interp", "--model", "sk", "--n", "10", "--n1", "5", "--beta", "1",
                    "--tgrid", "0.1:0.9:9", "--samples", str(samples)), True, samples)


def _partitions(n: int, mode: str) -> int:
    return n - 1 if mode == "canonical" else (1 << n) - 2


def _grem_verify(mode: str) -> Command:
    return Command(("grem-verify", "--tree", str(TREE.relative_to(ROOT)), "--mode", mode),
                   False, _partitions(TREE_N, mode) * 4**TREE_N)


def _check(mode: str) -> Command:
    n = 10
    return Command(("check", "--model", "pspin:3", "--n", str(n), "--mode", mode),
                   False, _partitions(n, mode) * 4**n)


WORKLOADS = {
    w.name: w for w in (
        Workload("draws-small",
                 "cheap SK(8) draws: per-draw Python overhead (streams, alpha, pmap) dominates",
                 "draws", (_superadd(2000, 1), _superadd(2000, THREADS_HI)),
                 (_superadd(2, 1), _superadd(2, THREADS_HI))),
        Workload("draws-wide",
                 "mixed 2+4 at n=10: the 82 MB coupling matvec dominates, streams are under 5%",
                 "draws", (_alpha(160),), (_alpha(2),)),
        Workload("interp-scan",
                 "two-replica scan at n=10: the dense w@G@w over 1024x1024 gaps dominates",
                 "draws", (_interp(400),), (_interp(2),)),
        Workload("audit-all",
                 "no sampling: dense GREM audit over all splits, then the exact count-class audit",
                 "pairs", (_grem_verify("all"), _check("all")),
                 (_grem_verify("canonical"), _check("canonical"))),
    )
}


# -- running one invocation ----------------------------------------------------


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    exit: int
    stdout: bytes
    stderr: bytes


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GAUSSEM_SEED", None)  # every command passes --seed explicitly
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = _child_env()


def invoke(argv: list[str], traced: bool = False) -> Invocation:
    """Run one CLI command to completion; peak RSS comes from wait4."""
    entry = [str(BENCH / "layertrace.py")] if traced else ["-m", "gaussem.cli"]
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, *entry, *argv], cwd=ROOT, env=ENV,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_maxrss * 1024 / MB, proc.returncode, out, b"".join(err))


# -- output gate ---------------------------------------------------------------


def parse_table(stdout: bytes) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in stdout.decode("utf-8").splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    if not rows:
        return [], []
    return rows[0], rows[1:]


#: columns whose value is a Monte Carlo estimate with the row's std_error
ESTIMATES = ("value", "margin")
#: any pair attaining the maximum gap is a valid witness
UNCHECKED = ("std_error", "witness_sigma", "witness_tau")
#: absolute tolerance for deterministic numeric columns
EXACT_ATOL = 1e-9


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def compare_rows(columns: list[str], rows: list[list[str]], ref: dict) -> list[str]:
    """Differences from the recorded output; estimates get 3 combined standard errors."""
    if columns != ref["columns"]:
        return [f"columns {columns} != recorded {ref['columns']}"]
    if len(rows) != len(ref["rows"]):
        return [f"{len(rows)} rows != recorded {len(ref['rows'])}"]
    problems = []
    for i, (row, want) in enumerate(zip(rows, ref["rows"])):
        got, exp = dict(zip(columns, row)), dict(zip(columns, want))
        for col in columns:
            if col in UNCHECKED:
                continue
            a, b = _number(got[col]), _number(exp[col])
            if col in ESTIMATES and "std_error" in got:
                se = math.hypot(float(got["std_error"]), float(exp["std_error"]))
                if a is None or abs(a - b) > 3.0 * se:
                    problems.append(f"row {i} {col}={got[col]} is more than 3 combined "
                                    f"standard errors ({se:.3g}) from {exp[col]}")
            elif a is not None and b is not None:
                if abs(a - b) > EXACT_ATOL:
                    problems.append(f"row {i} {col}={got[col]} != recorded {exp[col]}")
            elif got[col] != exp[col]:
                problems.append(f"row {i} {col}={got[col]!r} != recorded {exp[col]!r}")
    return problems


class Gate:
    """Checks every invocation; a failure is counted, never skipped."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.first: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, cmd: Command, seed: int, traced: bool, result: Invocation) -> None:
        self.attempted += 1
        key = cmd.key(seed)
        found = []
        ref = self.reference.get(key)
        if ref is None:
            found.append("no recorded reference output")
        else:
            if result.exit != ref["exit"]:
                found.append(f"exit status {result.exit} != expected {ref['exit']}")
            try:
                found += compare_rows(*parse_table(result.stdout), ref)
            except (ValueError, KeyError) as exc:
                found.append(f"unreadable output: {exc!r}")
        if self.first.setdefault(key, result.stdout) != result.stdout:
            found.append("output bytes differ from this command's first invocation")
        if found:
            self.failed += 1
            tail = result.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            where = f"[{key} --threads {cmd.threads}{' traced' if traced else ''}]"
            self.problems += [f"{where} {p}" for p in found[:5]] + [f"{where} stderr: {t}" for t in tail]


# -- measurement ---------------------------------------------------------------


def run_list(commands, seed: int, gate: Gate, traced: bool = False) -> list[Invocation]:
    """Run a command list once, checking every output."""
    results = []
    for cmd in commands:
        res = invoke(cmd.argv(seed), traced)
        gate.check(cmd, seed, traced, res)
        results.append(res)
    return results


def _trace_doc(stderr: bytes) -> dict:
    for line in reversed(stderr.decode("utf-8", "replace").splitlines()):
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    return {"spans": {}, "counters": {}, "peaks": {}, "import_s": 0.0}


def iterate(seconds: float, body) -> int:
    """Call body(i) while another iteration fits in `seconds`; at least MIN_ITERATIONS."""
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        body(i)
        i += 1
        now = time.perf_counter()
        budget = seconds if i >= MIN_ITERATIONS else TIME_CAP_S
        if now - start + (now - t0) > budget:
            return i


def list_wall(runs: list[list[Invocation]]) -> float:
    """Sum over the list's commands of each command's median wall time."""
    return sum(statistics.median(r.wall_s for r in column) for column in zip(*runs))


def measure(w: Workload, seed: int, seconds: float, gate: Gate) -> dict:
    runs: dict[str, list[list[Invocation]]] = {"setup": [], "full": []}
    phases = (("setup", w.minimal), ("full", w.full))

    def body(i: int) -> None:
        # alternate the order so slow drift in machine load hits both phases alike
        for name, commands in (phases if i % 2 == 0 else phases[::-1]):
            runs[name].append(run_list(commands, seed, gate))

    iters = iterate(seconds, body)
    wall_s = list_wall(runs["full"])
    setup_s = list_wall(runs["setup"])
    items = sum(c.items for c in w.full) - sum(c.items for c in w.minimal)
    return {
        "wall_s": (wall_s, "s", f"full command list, median of {iters} per command"),
        "setup_s": (setup_s, "s", f"same commands at minimal work, median of {iters}"),
        "items_per_s": (items / (wall_s - setup_s), "1/s",
                        f"{items} {w.item} beyond the minimal run / (wall_s - setup_s)"),
        "peak_rss_mb": (statistics.median(max(r.rss_mb for r in run) for run in runs["full"]),
                        "MB", f"median of {iters}, largest wait4 peak RSS of one command"),
    }


def _layer_metrics(agg: dict, counters: dict, peaks: dict, lists: int) -> dict:
    def calls(name: str) -> float:
        return agg.get(name, (0, 0.0, 0.0))[0] / lists

    def per_call(name: str, scale: float) -> float:
        c, total, _ = agg.get(name, (0, 0.0, 0.0))
        return total / c * scale if c else 0.0

    def total(name: str) -> float:
        return agg.get(name, (0, 0.0, 0.0))[1] / lists

    def own(name: str) -> float:
        return agg.get(name, (0, 0.0, 0.0))[2] / lists

    exact, dense = "audit.partition_exact", "audit.partition_dense"
    return {
        "disorder.stream_us": (per_call("disorder.stream", 1e6), "us"),
        "disorder.streams": (calls("disorder.stream"), "count"),
        "disorder.sample_us": (per_call("disorder.sample", 1e6), "us"),
        "disorder.samples": (calls("disorder.sample"), "count"),
        "disorder.sampler_builds": (calls("disorder.make_sampler"), "count"),
        "models.weight_matrix_s": (total("models.weight_matrix"), "s"),
        "models.weight_matrix_calls": (calls("models.weight_matrix"), "count"),
        "disorder.weight_mb": (peaks.get("disorder.weight_mb", 0.0), "MB"),
        "disorder.triple_draw_us": (per_call("disorder.triple_draw", 1e6), "us"),
        "disorder.triple_draws": (calls("disorder.triple_draw"), "count"),
        "disorder.triple_mb": (peaks.get("disorder.triple_mb", 0.0), "MB"),
        "thermo.alpha_us": (per_call("thermo.alpha_of_energies", 1e6), "us"),
        "thermo.alpha_calls": (calls("thermo.alpha_of_energies"), "count"),
        "thermo.quenched_alpha_self_s": (own("thermo.quenched_alpha"), "s"),
        "thermo.quenched_alpha_calls": (calls("thermo.quenched_alpha"), "count"),
        "interpolation.scan_self_s": (own("interpolation.monotonicity_scan"), "s"),
        "interpolation.scans": (calls("interpolation.monotonicity_scan"), "count"),
        "interpolation.gibbs_us": (per_call("interpolation.gibbs", 1e6), "us"),
        "interpolation.evals": (calls("interpolation.gibbs"), "count"),
        "audit.gap_matrix_ms": (per_call("audit.gap_matrix", 1e3), "ms"),
        "audit.gap_matrix_calls": (calls("audit.gap_matrix"), "count"),
        "audit.gap_mb": (peaks.get("audit.gap_mb", 0.0), "MB"),
        "grem.merge_level_ms": (per_call("grem.merge_level_matrix", 1e3), "ms"),
        "grem.merge_level_calls": (calls("grem.merge_level_matrix"), "count"),
        "grem.lift_check_ms": (per_call("grem.check_lift_covariance", 1e3), "ms"),
        "grem.lift_checks": (calls("grem.check_lift_covariance"), "count"),
        "audit.partition_dense_ms": (per_call(dense, 1e3), "ms"),
        "audit.partitions_dense": (calls(dense), "count"),
        "audit.partition_exact_ms": (per_call(exact, 1e3), "ms"),
        "audit.partitions_exact": (calls(exact), "count"),
        "audit.partitions": (calls(dense) + calls(exact), "count"),
        "audit.pairs": (counters.get("audit.pairs", 0.0) / lists, "count"),
        "audit.psd_ms": (per_call("audit.validate_psd", 1e3), "ms"),
        "audit.psd_calls": (calls("audit.validate_psd"), "count"),
        "util.psd_factor_ms": (per_call("util.psd_factor", 1e3), "ms"),
        "util.psd_factor_calls": (calls("util.psd_factor"), "count"),
        "cli.main_s": (total("cli.main"), "s"),
        "trace.spans": (sum(v[0] for v in agg.values()) / lists, "count"),
    }


def measure_traced(w: Workload, seed: int, seconds: float, gate: Gate) -> dict:
    plain: list[list[Invocation]] = []
    traced: list[list[Invocation]] = []
    docs: list[dict] = []

    def body(i: int) -> None:
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            results = run_list(w.full, seed, gate, traced=is_traced)
            (traced if is_traced else plain).append(results)
            if is_traced:
                docs.extend(_trace_doc(r.stderr) for r in results)

    iters = iterate(seconds, body)
    agg: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    peaks: dict[str, float] = {}
    for d in docs:
        for name, (c, total, own) in d["spans"].items():
            row = agg.setdefault(name, [0, 0.0, 0.0])
            row[0] += c
            row[1] += total
            row[2] += own
        for name, v in d["counters"].items():
            counters[name] = counters.get(name, 0.0) + v
        for name, v in d["peaks"].items():
            peaks[name] = max(peaks.get(name, 0.0), v)
    metrics = {
        k: (v, u, "computed from sizes, not measured" if u == "MB"
            else f"per command list, {iters} traced lists")
        for k, (v, u) in _layer_metrics(agg, counters, peaks, iters).items()
    }
    metrics["cli.import_s"] = (statistics.median(d["import_s"] for d in docs), "s",
                               f"median over {len(docs)} traced processes")
    metrics["trace.overhead_frac"] = (
        list_wall(traced) / list_wall(plain) - 1.0, "frac",
        f"traced / untraced wall - 1, medians of {iters} each")
    return metrics


# -- environment ---------------------------------------------------------------


def environment(seed: int, workload_seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "threads_hi": THREADS_HI,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v, "unset (library default)")
                         for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "workload_seed": workload_seed,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "gaussem" / "cli.py").is_file() or not REFERENCE.is_file():
        print(f"perfbench: no gaussem sources under {SRC} or no {REFERENCE.name}; "
              "run from a full checkout", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    workload_seed = args.seed % POOL
    gate = Gate(json.loads(REFERENCE.read_text())["outputs"])
    if args.trace:
        metrics = measure_traced(w, workload_seed, args.seconds, gate)
    else:
        metrics = measure(w, workload_seed, args.seconds, gate)

    print(f"perfbench {w.name}: {w.why}")
    print("env " + json.dumps(environment(args.seed, workload_seed), sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:30s} {value:>16.6g} {unit:6s} {note}")
    print(f"gate: {gate.attempted} invocations, {gate.failed} failed")
    for p in gate.problems:
        print(f"  FAIL {p}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
