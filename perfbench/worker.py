"""One benchmark worker process: import cyclrc, run one job, report as JSON.

    python3 perfbench/worker.py '<job json>'

The parent (run.py) spawns one worker at a time with PYTHONPATH set to the
checkout's `src`.  As soon as `import cyclrc` returns, the worker reads its
own CPU time (the set-up time) and the monotonic clock (the parent stamped
it before spawning, so the difference is the set-up wall time).  It then
runs the job, timing it both in CPU time (user + system, the figure the
benchmark reports) and in wall time, and prints one JSON line as the last
line of its standard output.  Jobs:

* probe: import only;
* construct / verify: `cyclrc.cli.main` on one request or certificate;
* golden: `cyclrc.golden.run_corpus()` over the whole corpus;
* sweep: settle the distances of seed-drawn codes and check them against
  the selfcheck identities.

With `"trace": true` the timed call runs under `trace_layers.Tracer`, the spans are
written to `job["spans"]` and the raw per-layer totals ride in the result,
together with the tracer's cost per span, calibrated in the same process.
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
import sys
import time
from contextlib import redirect_stdout

from reference import scaled, timed_units

# Sweep inputs; README.md says why.  Closed sets: (q, n) -> stride through
# `closed_sets`, so that one pass takes 10-15 s on 2 vCPUs.  Random subsets
# would not do: per-code cost is heavy-tailed, and the pass time of a
# 24-set sample of (4, 15) moves by about 20% from seed to seed.
CLOSED_STRIDE = {(4, 15): 24, (3, 13): 1, (5, 8): 1, (2, 15): 1}
# anchor sets: one subgroup coset plus noise, drawn fresh from the seed
ANCHOR_CONTEXTS = ((19, 18), (23, 22), (25, 24), (16, 15))
ANCHOR_MAX = 5  # |A| = 6 over GF(25) already costs seconds per code
ANCHORS_PER_SIZE = 4


def closed_items(rng: random.Random):
    """Closed defining sets u*S, one seed-drawn unit multiplier u per set S.

    S runs over a fixed stride of `closed_sets`; u*S is again closed and its
    code is equivalent to the code of S, with the same distance and strategy.
    """
    from cyclrc.bounds import units_mod
    from cyclrc.cyclic import cyc_context
    from cyclrc.selfcheck import closed_sets

    items = []
    for (q, n), stride in CLOSED_STRIDE.items():
        units = units_mod(n)
        sets = [S for S in closed_sets(cyc_context(q, n)) if 0 < len(S) < n]
        for S in sets[::stride]:
            u = rng.choice(units)
            items.append(("closed", q, n, sorted(u * e % n for e in S.exps)))
    return items


def anchor_items(rng: random.Random):
    """Seed-drawn subgroup-coset-plus-noise anchor sets with |A| <= ANCHOR_MAX."""
    items = []
    for q, n in ANCHOR_CONTEXTS:
        divisors = [d for d in range(2, ANCHOR_MAX + 1) if n % d == 0]
        for size in range(min(divisors), ANCHOR_MAX + 1):
            for _ in range(ANCHORS_PER_SIZE):
                items.append(("anchor", q, n, _draw_anchor(rng, n, divisors, size)))
    return items


def _draw_anchor(rng: random.Random, n: int, divisors, size: int) -> list[int]:
    ells = [d for d in divisors if d <= size]
    ell = rng.choice(ells)
    s = n // ell
    t = rng.randrange(s)
    exps = {(t + i * s) % n for i in range(ell)}
    while len(exps) < size:
        exps.add(rng.randrange(n))
    return sorted(exps)


def sweep_items(seed: int):
    rng = random.Random(seed)
    items = closed_items(rng) + anchor_items(rng)
    rng.shuffle(items)
    return items


def check_item(item) -> tuple[int, list[str]]:
    """Settle every code of one item; return (codes settled, identity errors)."""
    from cyclrc import bounds
    from cyclrc.cyclic import code_from_defining_set, cyc_context, min_distance

    kind, q, n, exps = item
    ctx = cyc_context(q, n)
    S = ctx.exponent_set(exps)
    errors: list[str] = []
    settled = 0

    def dist(code, label):
        nonlocal settled
        res = min_distance(code)
        if res.exact is None:
            errors.append(f"{label} left unsettled [{res.lower},{res.upper}]")
            return None
        settled += 1
        lo, _ = bounds.bch_lower(code.defining)
        if lo > res.exact:
            errors.append(f"{label} bch_lower {lo} exceeds distance {res.exact}")
        return res.exact

    ext = code_from_defining_set(ctx, S, base="extension")
    if kind == "closed":
        code = code_from_defining_set(ctx, S)
        d_base = dist(code, "base")
        d_ext = dist(ext, "ambient")
        if d_base != d_ext:
            errors.append(f"base field {d_base} vs ambient {d_ext}")
        d_dual = dist(code.dual_code(), "dual")
        d_comp = dist(code.complement_code(), "complement")
    else:
        d_dual = dist(ext.dual_code(), "dual")
        d_comp = dist(ext.complement_code(), "complement")
    if d_dual != d_comp:
        errors.append(f"dual {d_dual} vs complement {d_comp}")
    val = bounds.exact_dual_distance(S)
    if val is not None:
        oracle = d_dual if kind == "anchor" else dist(ext.dual_code(), "ambient dual")
        if oracle != val:
            errors.append(f"dual criterion {val} vs oracle {oracle}")
    return settled, errors


def run_sweep(job) -> dict:
    ops = []

    def unit(item):
        def check():
            try:
                settled, errors = check_item(item)
            except Exception as exc:  # a crash is a failed item, not a crashed pass
                settled, errors = 0, [f"{type(exc).__name__}: {exc}"]
            ops.append({"item": item, "settled": settled, "errors": errors})
        return check

    return dict(_run_timed(job, [unit(item) for item in sweep_items(job["seed"])]), ops=ops)


def run_golden(job) -> dict:
    # run_entry over the entries in corpus order, in this one process, is
    # what run_corpus() does; one unit per entry lets the reference kernel
    # run between entries
    from cyclrc.golden import load_corpus, run_entry

    entries = load_corpus()["entries"]
    results = []

    def unit(entry):
        return lambda: results.extend(run_entry(entry))

    return dict(
        _run_timed(job, [unit(entry) for entry in entries]),
        entries=len(entries),
        checks=len(results),
        failures=[r.line() for r in results if not r.ok],
    )


def run_cli(job) -> dict:
    from cyclrc.cli import main as cli_main

    box = {}

    def call():
        with redirect_stdout(io.StringIO()):  # keep the result line last
            box["exit"] = cli_main(job["argv"])

    return dict(_run_timed(job, [call]), exit=box["exit"])


def _run_timed(job, units) -> dict:
    """Run the units of work in order, traced or not; see reference.timed_units."""
    if not job.get("trace"):
        return timed_units(units)
    from trace_layers import Tracer, overhead_s

    with Tracer() as tracer:
        out = timed_units(units)
    with open(job["spans"], "w", encoding="utf-8") as fh:
        json.dump(tracer.spans(), fh, separators=(",", ":"))
    raw = tracer.raw()
    raw["trace.overhead_s"] = overhead_s(raw)
    return dict(out, raw=raw)


RUNNERS = {"construct": run_cli, "verify": run_cli, "golden": run_golden, "sweep": run_sweep}


def main() -> int:
    job = json.loads(sys.argv[1])
    import cyclrc

    import_done = time.monotonic()
    import_cpu = time.process_time()
    setup_s = scaled(import_cpu)
    src = os.path.realpath(job["src"])
    if not os.path.realpath(cyclrc.__file__).startswith(src + os.sep):
        print(f"cyclrc imported from {cyclrc.__file__}, not from {src}", file=sys.stderr)
        return 1
    out = {"import_done": import_done, "import_cpu_s": import_cpu, "setup_s": setup_s}
    if job["kind"] != "probe":
        out.update(RUNNERS[job["kind"]](job))
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
