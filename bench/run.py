"""Benchmark of markovwindow: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload decay_scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20          # every workload

A run builds the workload's fixed op list from --seed, then repeats the list
(a pass) until --seconds have gone by, one op at a time from one caller.
Outputs of the first pass are checked against independent oracles
(bench/oracles.py); every later pass must reproduce them.  With --trace 0
the last stdout line holds the end-to-end metrics; with --trace 1 untraced
and traced passes alternate and it holds the per-layer metrics.  The package
is imported from ./src, as the tier-1 tests do; MW_THREADS is unset.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
MIN_PASSES = 3
MAX_RUN_S = 120.0
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "ops_ok_frac": "ratio", "peak_rss_mb": "MB", "cpu_s": "s",
}


def cpu_now() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class InProcess:
    """Runs CLI ops through markovwindow.cli.main and oracle calls directly."""

    def __init__(self, workdir: Path):
        import markovwindow.cli
        import markovwindow.divergences

        self.cli, self.div, self.workdir = markovwindow.cli, markovwindow.divergences, workdir
        self.tracer = tracing.Tracer()

    def run(self, i, op, traced):
        out_path = self.workdir / f"op{i}.out"
        buf = io.StringIO()
        rc, exc, result = None, None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                if op.call:
                    result = getattr(self.div, op.call)(*op.args)
                    rc = 0
                else:
                    rc = self.cli.main(op.argv + ["--output", str(out_path)])
        except Exception:  # an escaped exception is an op failure, recorded with its traceback
            exc = traceback.format_exc()
        latency = time.perf_counter() - t0
        out = repr(result) if op.call else ""
        if out_path.exists():
            out = out_path.read_text()
            out_path.unlink()
        return latency, {"rc": rc, "exc": exc, "out": out, "err": buf.getvalue()}

    def start_pass(self, traced):
        if traced:
            self.tracer.install()

    def end_pass(self, traced, totals):
        if not traced:
            return None
        spans = self.tracer.take()
        tracing.summarize(spans, totals)
        return spans


class Subprocess:
    """Runs each CLI op as a fresh `python -m markovwindow.cli` process."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.span_files = []

    def run(self, i, op, traced):
        if traced:
            path = self.workdir / f"spans{i}.json"
            cmd = [sys.executable, str(HERE / "cli_shim.py"), str(path), *op.argv]
            self.span_files.append(path)
        else:
            cmd = [sys.executable, "-m", "markovwindow.cli", *op.argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
        latency = time.perf_counter() - t0
        return latency, {"rc": proc.returncode, "exc": None, "out": proc.stdout, "err": proc.stderr}

    def start_pass(self, traced):
        self.span_files = []

    def end_pass(self, traced, totals):
        if not traced:
            return None
        spans = []
        for path in self.span_files:
            child = json.loads(path.read_text())
            tracing.summarize(child["spans"], totals)
            totals["import_s"] = totals.get("import_s", 0) + child["import_s"]
            totals["import_n"] = totals.get("import_n", 0) + 1
            base = len(spans)
            spans += [[n, s, e, p + base if p >= 0 else -1, m] for n, s, e, p, m in child["spans"]]
            path.unlink()
        return spans


def setup(name: str, seed: int, workdir: Path):
    """Everything before the first timed op; returns (ops, runner, import seconds)."""
    import_s = float("nan")
    if name != "cli_session":
        t0 = time.perf_counter()
        import markovwindow.cli  # noqa: F401

        import_s = time.perf_counter() - t0
    ops = workloads.build(name, seed, str(workdir))
    runner = Subprocess(workdir) if name == "cli_session" else InProcess(workdir)
    return ops, runner, import_s


def run_passes(ops, runner, seconds: float, trace: bool):
    passes, totals, last_spans = [], {"passes": 0}, None
    first, same = [None] * len(ops), [[] for _ in ops]
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        runner.start_pass(traced)
        lat = []
        cpu0, t0 = cpu_now(), time.perf_counter()
        for i, op in enumerate(ops):
            latency, oc = runner.run(i, op, traced)
            lat.append(latency)
            if first[i] is None:
                first[i] = oc
            same[i].append(oc == first[i])
        wall, cpu = time.perf_counter() - t0, cpu_now() - cpu0
        spans = runner.end_pass(traced, totals)
        if traced:
            totals["passes"] += 1
            last_spans = spans
        passes.append({"traced": traced, "wall": wall, "cpu": cpu, "lat": lat})
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (2 * MIN_PASSES if trace else MIN_PASSES)
        if (elapsed >= seconds and enough) or elapsed >= MAX_RUN_S:
            return passes, first, same, totals, last_spans


def setup_probes(name: str, seed: int):
    walls, imports = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        imports.append(float(proc.stdout.split()[-1]))
    return statistics.median(walls), imports


def environment(mw_threads) -> dict:
    import ctypes

    blas = "unknown"
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "MW_THREADS": "unset" if mw_threads is None else f"was {mw_threads!r}, unset for the run",
    }


def tail(lat_ms: list[float]):
    """Latency of the highest percentile with at least TAIL_BEYOND ops beyond it."""
    ordered = sorted(lat_ms)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def write_spans(name: str, spans) -> Path:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{name}.jsonl"
    with open(path, "w") as fh:
        for i, (n, s, e, p, _) in enumerate(spans):
            fh.write(json.dumps([i, p, n, round(s, 7), round(e, 7)]) + "\n")
    return path


def run_workload(args, mw_threads) -> dict:
    name = args.workload
    workdir = ROOT / ".bench_tmp" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops, runner, import_s = setup(name, args.seed, workdir)
        if args.setup_probe:
            print(f"import_s {import_s!r}")
            return {}
        passes, first, same, totals, spans = run_passes(ops, runner, args.seconds, bool(args.trace))
        who = resource.RUSAGE_CHILDREN if name == "cli_session" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        setup_s, probe_imports = setup_probes(name, args.seed)
        from oracles import DEFECTS, Checker

        checker = Checker()
        verdicts = [checker.check(op, oc) for op, oc in zip(ops, first)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted = failed = 0
    unexplained = []
    defect_ops = {}
    for op, (ok, defect, why), runs in zip(ops, verdicts, same):
        attempted += len(runs)
        bad = sum(1 for s in runs if not (ok and s))
        failed += bad
        if not ok and defect:
            defect_ops.setdefault(defect, []).append(op.label)
        elif bad:
            unexplained.append(op.label)

    plain = [p for p in passes if not p["traced"]]
    lat_ms = [1e3 * x for p in plain for x in p["lat"]]
    tail_ms, tail_pct, n_lat = tail(lat_ms)
    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall"] for p in plain),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "ops_ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb,
        "cpu_s": statistics.median(p["cpu"] for p in plain),
    }

    mode = "traced and untraced passes alternate" if args.trace else "untraced"
    print(f"workload {name}: seed {args.seed}, {len(ops)} ops per pass, {len(passes)} passes ({mode}), "
          f"closed loop with 1 caller")
    print("env " + json.dumps(environment(mw_threads)))
    print(f"{'op':<40} {'class':<10} {'median_ms':>10}  status")
    for i, (op, (ok, defect, why)) in enumerate(zip(ops, verdicts)):
        med = 1e3 * statistics.median(p["lat"][i] for p in plain)
        status = "ok" if ok and all(same[i]) else (f"FAIL [{defect}] " if defect else "FAIL [unexplained] ") + (
            why or "output differs between passes")
        print(f"{op.label:<40} {op.klass:<10} {med:>10.2f}  {status}")
    for defect, labels in defect_ops.items():
        print(f"defect {defect} ({len(labels)} ops: {', '.join(labels)}): {DEFECTS[defect]}")
    for key, value in e2e.items():
        print(f"metric {key} = {value:.6g} {END_TO_END_UNITS[key]}")
    print(f"metric ops_failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    walls = sorted(p["wall"] for p in plain)
    print(f"untraced pass walls: min {walls[0]:.4f} s, median {statistics.median(walls):.4f} s, max {walls[-1]:.4f} s")
    print(f"op_tail_ms is the 11th slowest of {n_lat} untraced ops: p{tail_pct:.1f}, {TAIL_BEYOND} ops beyond it")

    if args.trace:
        if name != "cli_session":
            totals["import_s"], totals["import_n"] = sum(probe_imports), len(probe_imports)
        traced = [p["wall"] for p in passes if p["traced"]]
        overhead = statistics.median(traced) - e2e["wall_s"]
        layers = tracing.per_layer(totals, overhead)
        for key, (value, unit) in layers.items():
            print(f"layer {key} = {value:.6g} {unit}")
        print(f"computed counts: eigh {tracing.EIGH_FLOPS}; projection {tracing.PROJECTION_FLOPS}; "
              f"enumeration {tracing.ENUMERATION}; matrix {tracing.MATRIX_BYTES}")
        by_d = sorted((int(k[len("eigh_calls_d"):]), v) for k, v in totals.items() if k.startswith("eigh_calls_d"))
        print("computed eigh counts per traced pass: " + ", ".join(
            f"d={d}: {v / totals['passes']:g} calls x {9 * d**3:.4g} flop" for d, v in by_d))
        if spans is not None:
            print(f"spans of the last traced pass: {write_spans(name, spans)}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    if unexplained:
        print(f"unexplained failures: {', '.join(unexplained)}")
    return {"correct": not unexplained, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "markovwindow" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'markovwindow'}; run from a checkout", file=sys.stderr)
        return 2
    mw_threads = os.environ.pop("MW_THREADS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_workload(args, mw_threads)
    if not args.setup_probe:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
