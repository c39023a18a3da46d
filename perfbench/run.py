#!/usr/bin/env python3
"""Layered verification benchmark for jetpoisson.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs passes of one workload one after another, each in a fresh interpreter
(one_pass.py), for as long as the next pass, if it takes as long as the
last, ends within --seconds, and checks every record against
reference.json.  No pass runs beside another, so the 2-core machine the
bounds were set on measures one process at a time.  It prints a diagnostics
line and then, as the last line, one JSON object with the keys correct,
attempted, failed and metrics.  ``failed / attempted`` is the share of
checks whose record differs from the reference or that raised.

--trace 0 reports the end-to-end metrics of untraced passes, times in
nominal seconds (calib.py), each the median pass:
  wall_s       first verification call to last record
  setup_s      interpreter start to first verification call
  peak_rss_mb  peak resident memory of a pass process
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics in PER_LAYER (self times as the median traced pass, counts as
they must repeat exactly in every traced pass and every run of the same
code and seed).  --size tiny is for the smoke test only.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
DEFAULT_SEED = 1
PASS_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_SUITES = ("group", "poisson", "phi", "bialgebra", "cybe", "classify", "density", "quantum")
PER_LAYER = {
    "coeffpoly.mul.calls": "count",
    "coeffpoly.mul.self_s": "s",
    "coeffpoly.mul.term_pairs": "count",
    "coeffpoly.mul.out_terms": "count",
    "coeffpoly.add.calls": "count",
    "coeffpoly.add.self_s": "s",
    "series.mul.calls": "count",
    "series.mul.self_s": "s",
    "series.compose.self_s": "s",
    "series.comp_inverse.self_s": "s",
    "series.binomial_power.self_s": "s",
    "jetgroup.jet_compose.calls": "count",
    "jetgroup.jet_compose.self_s": "s",
    "jetgroup.jet_inverse.self_s": "s",
    "poissonlie.build_omega.self_s": "s",
    "poissonlie.verify_jacobi.n8.self_s": "s",
    "poissonlie.verify_jacobi.n10.self_s": "s",
    "poissonlie.verify_multiplicativity.n8.self_s": "s",
    "poissonlie.verify_multiplicativity.n10.self_s": "s",
    "poissonlie.verify_phi_equation.self_s": "s",
    "density.verify_density_action.n3.self_s": "s",
    "density.verify_density_action.n4.self_s": "s",
    "quantum.nc_reduce.calls": "count",
    "quantum.nc_reduce.self_s": "s",
    "quantum.rewrite_steps": "count",
    "quantum.tensor_reduce.self_s": "s",
    "quantum.pbw_overlap_check.self_s": "s",
    "quantum.verify_delta_homomorphism.self_s": "s",
    "quantum.verify_counit_coassoc.self_s": "s",
    "bialgebra.verify_cojacobi.self_s": "s",
    "bialgebra.verify_cojacobi.checked": "count",
    "bialgebra.verify_cojacobi.skipped": "count",
    "bialgebra.coboundary.self_s": "s",
    "bialgebra.verify_cocycle.self_s": "s",
    "bialgebra.verify_cybe.self_s": "s",
    "bialgebra.verify_rr_invariance.self_s": "s",
    "report.emit_report.self_s": "s",
    "cli.run_suite.self_s": "s",
    **{f"cli.suite_{name}.self_s": "s" for name in _SUITES},
    "bench.check.self_s": "s",
    "bench.records": "count",
    "bench.trace_overhead_s": "s",
}

WORKLOADS = ("jet-poisson", "quantum-rewrite", "cli-suites")


class PassFailed(RuntimeError):
    pass


def run_pass(workload, seed, size, traced):
    spans = OUT / "spans" / f"{workload}-{size}-seed{seed}.spans"
    cmd = [sys.executable, str(HERE / "one_pass.py"), workload, str(seed), size,
           "1" if traced else "0", str(spans)]
    t_spawn = calib.now()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    out["traced"] = traced
    # interpreter start, before the pass's set-up clock ran, at the speed of
    # that clock's first chunk
    start_s = out["t_setup"] - t_spawn
    out["setup_raw_s"] += start_s
    out["setup_s"] += start_s * calib.NOMINAL_CHUNK_S / out["setup_chunks_s"][0]
    return out


def source_fingerprint() -> str:
    """Hash of the program and benchmark sources: work counts are only
    compared between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_records(passes, reference):
    attempted = failed = 0
    mismatches = []
    for p in passes:
        for cid, status, digest in p["records"]:
            attempted += 1
            expected = reference.get(cid)
            if expected != [status, digest]:
                failed += 1
                mismatches.append(f"{cid}: got {status} {digest}, want {expected}")
    return attempted, failed, mismatches


def layer_metrics(passes, key):
    """Per-layer metrics, plus any count that did not repeat exactly."""
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    counts = {name for name, unit in PER_LAYER.items() if unit == "count"}
    metrics = {}
    unstable = []
    for name, unit in PER_LAYER.items():
        values = [p["layers"].get(name, 0) for p in traced]
        if name in counts:
            if len(set(values)) != 1:
                unstable.append(f"{name} varied between passes: {sorted(set(values))}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["bench.trace_overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                         - statistics.median(p["wall_s"] for p in untraced))

    # the same code and seed must give the same counts in every run
    path = OUT / "counts" / f"{key}-{source_fingerprint()}.json"
    exact = {name: metrics[name] for name in sorted(counts)}
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        unstable += [f"{name} was {before.get(name)} in an earlier run, now {value}"
                     for name, value in exact.items() if before.get(name) != value]
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(exact, indent=1) + "\n", encoding="utf-8")
    return metrics, unstable


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jetpoisson" / "__init__.py").is_file():
        print(f"error: no jetpoisson sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    start = calib.now()
    passes = []
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            t_pass = calib.now()
            passes.append(run_pass(args.workload, args.seed, args.size, traced))
            have_traced = any(p["traced"] for p in passes) or not args.trace
            # stop before a pass that would end past --seconds
            end = calib.now()
            if end - start + (end - t_pass) > args.seconds and have_traced:
                break
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, mismatches = check_records(passes, reference)
    for line in mismatches[:20]:
        print(f"mismatch: {line}", file=sys.stderr)
    untraced = [p for p in passes if not p["traced"]]
    walls = sorted(p["wall_s"] for p in untraced)
    if args.trace:
        key = f"{args.workload}-{args.size}-seed{args.seed}"
        values, unstable = layer_metrics(passes, key)
        for line in unstable:
            print(f"unstable count: {line}", file=sys.stderr)
        units = PER_LAYER
    else:
        values, unstable = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(p["setup_s"] for p in untraced),
            "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in untraced) / 1024,
        }, []
        units = END_TO_END

    q1, q2, q3 = quartiles(walls)
    print("diagnostics " + json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "backend": passes[0]["backend"], "passes": len(untraced),
        "traced_passes": len(passes) - len(untraced),
        "pass_wall_s": {"q1": q1, "median": q2, "q3": q3},
        "raw_wall_s_median": statistics.median(p["wall_raw_s"] for p in untraced),
        "raw_setup_s_median": statistics.median(p["setup_raw_s"] for p in untraced),
        "chunk_s_median": statistics.median(c for p in untraced for c in p["chunks_s"]),
        "failed_frac": failed / attempted,
    }))
    print(json.dumps({
        "correct": failed == 0 and not unstable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
