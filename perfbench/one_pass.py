"""One pass of a workload, run by run.py in a fresh interpreter.

    python3 perfbench/one_pass.py WORKLOAD SEED SIZE TRACE SPANS_FILE

Builds the workload's checks from the seed, runs them one after another and
prints one JSON line: the monotonic clock when set-up began, the time of
set-up and of the checks, each raw and in nominal seconds, with the
calibration chunks timed while they ran (calib.py), the pass's peak RSS,
and for each check its id, status and payload digest.  With TRACE=1 the layers are wrapped first, the spans are written
to SPANS_FILE and the line also carries the per-layer summary.
"""

import hashlib
import json
import resource
import sys
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def run_checks(checks, tracer=None):
    """Run every check; a check that raises gets status "raised"."""
    root = tracer.name_id("bench.check") if tracer else None
    results = []
    for cid, thunk in checks:
        span = tracer.open(root) if tracer else None
        try:
            status, payload = thunk()
        except Exception as exc:  # a raising check counts as failed, the pass goes on
            status, payload = "raised", f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.close(span)
        results.append((cid, status, payload))
    return results


def main(argv):
    workload, seed, size, trace, spans_file = argv
    t_setup = calib.now()
    setup_clock = calib.NominalClock(every=calib.CHUNK_EVERY_S)
    setup_clock.start()
    # set-up: importing the program and making the inputs
    import workloads
    from jetpoisson import BACKEND

    checks = workloads.WORKLOADS[workload](int(seed), size)
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    setup_clock.stop()
    clock = calib.NominalClock(every=None if tracer else calib.CHUNK_EVERY_S)
    clock.start()
    results = run_checks(checks, tracer)
    clock.stop()
    out = {
        "t_setup": t_setup,
        "setup_raw_s": setup_clock.raw_s,
        "setup_s": setup_clock.nominal_s,
        "setup_chunks_s": setup_clock.chunks,
        "chunks_s": clock.chunks,
        "wall_raw_s": clock.raw_s,
        "wall_s": clock.nominal_s,
        "backend": BACKEND,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "records": [[cid, status, digest(payload)] for cid, status, payload in results],
    }
    if tracer:
        tracer.write(Path(spans_file))
        out["layers"] = tracer.summary() | {"bench.records": len(results)}
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
