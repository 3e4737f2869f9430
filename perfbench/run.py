"""cyclrc benchmark: end-to-end timings per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload certify|golden|sweep --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports cyclrc from the checkout's
`src` and from nowhere else.  Every call into cyclrc happens in a worker
process (worker.py), spawned one at a time, so each workload is a closed
loop with one client.  A run first spawns a few import-only probes, then
repeats whole passes of the workload while another pass still fits in S
seconds (at least one).  Times are CPU times of the workers (user + system)
scaled to a reference CPU speed (reference.py), because the speed of a
shared VM drifts; timings are medians over passes, and setup_s is the median
over every worker of the run.
With `--trace 1` one more pass runs under the span tracer and the per-layer
table is printed instead.  The metrics on the result line, and their units,
are the ones BENCHMARK.json lists.

Every timed output is checked: certificate bytes against the SHA-256 digests
in certificates.json and `verify` exit codes (certify), failed CheckResults
(golden), identity mismatches and unsettled distances (sweep).  The last
line of standard output is the JSON result; the full record, the trace
table and the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = SRC / "cyclrc" / "golden" / "corpus.json"
REFERENCE = BENCH / "certificates.json"
OUT = BENCH / "out"
PROBES = 12  # setup_s is a median over these plus every worker of the run
RUN_LIMIT_S = 170  # no worker outlives this many seconds from the run's start

sys.path.insert(0, str(BENCH))
from trace_layers import layer_table, merge_raw  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


class WorkerFailed(RuntimeError):
    pass


def spawn(job: dict, deadline: float) -> dict:
    """Run one worker to completion and return its result plus setup_s.

    The worker is killed, and the job fails, at `deadline` (monotonic clock).
    """
    # cyclrc does no floating-point BLAS work; one OpenBLAS thread keeps the
    # worker single-threaded, so its CPU time is the time of the work alone
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    # workers import cyclrc from bytecode, as from an installed package,
    # whether or not the environment turns bytecode caching off: compiling
    # the sources in every worker made setup_s 20% higher in a fresh checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(dict(job, src=str(SRC)))]
    t_spawn = time.monotonic()
    if t_spawn >= deadline:
        raise WorkerFailed(f"{job['kind']} worker not started: run time limit reached")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=deadline - t_spawn)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{job['kind']} worker timed out after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise WorkerFailed(f"{job['kind']} worker exit {proc.returncode}: {' | '.join(tail)}")
    res = json.loads(lines[-1])
    res["setup_wall_s"] = res["import_done"] - t_spawn
    return res


@dataclass
class Pass:
    """One pass of a workload: timed work, checks and worker samples.

    work_s, construct_s and verify_s are CPU seconds at reference speed,
    cpu_s plain CPU seconds and wall_s wall time, all of the timed work.
    """
    work_s: float = 0.0
    cpu_s: float = 0.0
    wall_s: float = 0.0
    construct_s: float = 0.0
    verify_s: float = 0.0
    codes: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    rss_kb: list = field(default_factory=list)
    raws: list = field(default_factory=list)

    def worker(self, res: dict) -> dict:
        for key in ("work_s", "cpu_s", "wall_s"):
            setattr(self, key, getattr(self, key) + res[key])
        self.setups.append(res["setup_s"])
        self.rss_kb.append(res["maxrss_kb"])
        if "raw" in res:
            self.raws.append(res["raw"])
        return res


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads.  Each pass function takes (seed, trace, spans_dir, deadline).


def certify_requests(seed: int) -> list[tuple[str, list[str]]]:
    """The corpus `family` requests as `cyclrc construct` argv, in seed order."""
    entries = json.loads(CORPUS.read_text())["entries"]
    reqs = []
    for e in entries:
        if e["kind"] != "family":
            continue
        r = e["request"]
        argv = ["construct", "--family", r["family"], "--q", str(r["q"]), "--n", str(r["n"]),
                "--delta", str(r["delta"])]
        for key in ("r", "b", "t", "m", "i", "ell", "j", "case", "mu"):
            if key in r:
                argv += [f"--{key}", str(r[key])]
        for tail in r.get("tails", ()):
            argv += ["--tail", str(tail)]
        reqs.append((e["name"], argv))
    random.Random(seed).shuffle(reqs)
    return reqs


def certify_pass(seed: int, trace: bool, spans_dir: Path | None, deadline: float) -> Pass:
    reference = json.loads(REFERENCE.read_text())
    certs = OUT / "certify"
    certs.mkdir(parents=True, exist_ok=True)
    p = Pass()
    for name, argv in certify_requests(seed):
        p.attempted += 1
        cert = certs / f"{name}.json"
        cert.unlink(missing_ok=True)
        job = {"kind": "construct", "argv": argv + ["--format", "json", "-o", str(cert)],
               "trace": trace}
        try:
            if trace:
                job["spans"] = str(spans_dir / f"{name}.construct.json")
            c = p.worker(spawn(job, deadline))
            p.construct_s += c["work_s"]
            job = {"kind": "verify", "argv": ["verify", str(cert)], "trace": trace}
            if trace:
                job["spans"] = str(spans_dir / f"{name}.verify.json")
            v = p.worker(spawn(job, deadline))
            p.verify_s += v["work_s"]
        except WorkerFailed as exc:
            p.failures.append(f"{name}: {exc}")
            continue
        ref = reference.get(name)
        if ref is None:
            p.failures.append(f"{name}: no reference digest")
        elif c["exit"] != ref["construct_exit"]:
            p.failures.append(
                f"{name}: construct exit {c['exit']}, expected {ref['construct_exit']}")
        elif sha256_file(cert) != ref["sha256"]:
            p.failures.append(f"{name}: certificate bytes differ from the reference")
        elif v["exit"] != 0:
            p.failures.append(f"{name}: verify exit {v['exit']}")
        else:
            p.codes += 1
    return p


def golden_pass(seed: int, trace: bool, spans_dir: Path | None, deadline: float) -> Pass:
    # the corpus is fixed and runs in corpus order, because entries share
    # warm contexts and the anchor-dual cache; the seed changes nothing here
    p = Pass()
    job = {"kind": "golden", "trace": trace}
    if trace:
        job["spans"] = str(spans_dir / "golden.json")
    try:
        g = p.worker(spawn(job, deadline))
    except WorkerFailed as exc:
        p.attempted, p.failures = 1, [str(exc)]
        return p
    p.attempted = g["checks"]
    p.failures = g["failures"]
    p.codes = g["entries"]
    return p


def sweep_pass(seed: int, trace: bool, spans_dir: Path | None, deadline: float) -> Pass:
    p = Pass()
    job = {"kind": "sweep", "seed": seed, "trace": trace}
    if trace:
        job["spans"] = str(spans_dir / "sweep.json")
    try:
        s = p.worker(spawn(job, deadline))
    except WorkerFailed as exc:
        p.attempted, p.failures = 1, [str(exc)]
        return p
    p.attempted = len(s["ops"])
    for op in s["ops"]:
        p.codes += op["settled"]
        if op["errors"]:
            p.failures.append(f"{op['item']}: {'; '.join(op['errors'])}")
    return p


WORKLOADS = {"certify": certify_pass, "golden": golden_pass, "sweep": sweep_pass}


# ---------------------------------------------------------------------------
# Run, aggregate, report.


def metadata(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    lines = sum(len(f.read_text().splitlines()) for f in sorted((SRC / "cyclrc").rglob("*.py")))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": git_commit(), "src_lines": lines,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def fail_frac(passes: list[Pass]) -> float:
    attempted = sum(p.attempted for p in passes)
    return sum(len(p.failures) for p in passes) / attempted if attempted else 1.0


def end_to_end(passes: list[Pass], setups: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "work_s": statistics.median(p.work_s for p in passes),
        "codes_per_s": statistics.median(p.codes / p.work_s if p.work_s else 0.0 for p in passes),
        "peak_rss_mb": max(max(p.rss_kb, default=0) for p in passes) / 1024,
    }


def reported_metrics(trace: bool) -> dict:
    """Name -> unit of the metrics on the result line, as BENCHMARK.json lists them."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "cyclrc" / "__init__.py").is_file() or not CORPUS.is_file():
        raise BenchError(f"no cyclrc sources under {SRC}; run from the root of a checkout")
    pass_fn = WORKLOADS[workload]
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups = []
    for _ in range(PROBES):
        try:
            setups.append(spawn({"kind": "probe"}, deadline)["setup_s"])
        except WorkerFailed as exc:
            raise BenchError(f"cannot start a worker: {exc}") from exc
    passes: list[Pass] = []
    while True:
        t0 = time.monotonic()
        passes.append(pass_fn(seed, False, None, deadline))
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            break
    for p in passes:
        setups.extend(p.setups)
    record = {"meta": metadata(workload, seed, seconds, trace), "passes": len(passes)}
    metrics = record["end_to_end"] = end_to_end(passes, setups)
    all_passes = list(passes)
    if trace:
        spans_dir = OUT / f"trace-{workload}"
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
        traced = pass_fn(seed, True, spans_dir, deadline)
        all_passes.append(traced)
        table = layer_table(merge_raw(traced.raws))
        layers = {"meta": record["meta"], "layers": table, "traced_work_s": traced.work_s,
                  "untraced_work_s": metrics["work_s"]}
        (spans_dir / "layers.json").write_text(json.dumps(layers, indent=2, sort_keys=True) + "\n")
        metrics = table
    attempted = sum(p.attempted for p in all_passes)
    failures = [f for p in all_passes for f in p.failures]
    record.update({
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "construct_s": statistics.median(p.construct_s for p in passes),
        "verify_s": statistics.median(p.verify_s for p in passes),
        "fail_frac": fail_frac(all_passes),
        "metrics": metrics,
    })
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


# units of the figures that the summary line adds to the end-to-end metrics
SUMMARY_UNITS = {"cpu_s": "s", "wall_s": "s", "construct_s": "s", "verify_s": "s",
                 "fail_frac": "fraction"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        units = reported_metrics(bool(args.trace))
        summary_units = dict(reported_metrics(False), **SUMMARY_UNITS)
        rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("meta " + json.dumps(rec["meta"], sort_keys=True))
    for f in rec["failures"]:
        print("FAIL " + f)
    summary = dict(rec["end_to_end"], cpu_s=rec["cpu_s"], wall_s=rec["wall_s"])
    if args.workload == "certify":
        summary.update(construct_s=rec["construct_s"], verify_s=rec["verify_s"])
    summary["fail_frac"] = rec["fail_frac"]
    print(f"{args.workload}: " + "  ".join(
        f"{k}={v:.6g} {summary_units[k]}" for k, v in summary.items())
        + f"  passes={rec['passes']}")
    if args.trace:
        for k, v in rec["metrics"].items():
            print(f"  {k:50s} {v:14.6g}" + ("" if k in units else "  (table only)"))
    for k in units:
        if rec["metrics"][k] == 0:
            print(f"perfbench: warning: {k} reads 0 on {args.workload}; "
                  "a metric on the result line must never read 0", file=sys.stderr)
    result = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": rec["metrics"][k], "unit": unit} for k, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
