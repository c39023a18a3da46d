"""Regenerate the benchmark's committed inputs and reference digests.

    python3 perfbench/make_reference.py

1. words.json: every non-canonical word of length 4-5 over x1..x5 with weight
   (sum of g-1) at most 10, sorted by the time its check takes in both R2
   variants (fastest of five) and cut into equal buckets.  A seed draws one
   word per bucket, so every seed gets about the same work.  The timings
   only order the pool; bucket edges move a little if it is remade.
2. reference.json: for every check any seed or size can produce, the status
   and payload digest this commit gives.  run.py counts a record that differs
   from it as failed.

Run it only when the program's reports are meant to change.
"""

import itertools
import json
import sys
import time

import one_pass
import workloads
from jetpoisson import quantum as qt

WORD_LENGTHS = (4, 5)
MAX_WEIGHT = 10
BUCKETS = 300
REPEATS = 5


def reduction_seconds(word: str) -> float:
    """Fastest of REPEATS timings of the word's check in every word set."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for set_name in workloads.WORD_SETS:
            workloads.reduce_word(set_name, word)
        best = min(best, time.perf_counter() - start)
    return best


def word_pool():
    words = [
        " ".join(map(str, w))
        for length in WORD_LENGTHS
        for w in itertools.product(range(1, 6), repeat=length)
        if not qt.word_is_canonical(w) and sum(g - 1 for g in w) <= MAX_WEIGHT
    ]
    cost = {w: reduction_seconds(w) for w in words}
    ranked = sorted(words, key=lambda w: (cost[w], w))
    cuts = [len(ranked) * b // BUCKETS for b in range(BUCKETS + 1)]
    return {
        "word_lengths": list(WORD_LENGTHS),
        "max_weight": MAX_WEIGHT,
        "buckets": [ranked[lo:hi] for lo, hi in zip(cuts, cuts[1:])],
    }


def main():
    pool = word_pool()
    with open(workloads.WORDS_FILE, "w", encoding="utf-8") as handle:
        json.dump(pool, handle, separators=(",", ":"))
        handle.write("\n")
    workloads.word_buckets.cache_clear()
    checks = sorted(workloads.every_check().items())
    reference = {
        cid: [status, one_pass.digest(payload)]
        for cid, status, payload in one_pass.run_checks(checks)
    }
    raised = sorted(cid for cid, (status, _) in reference.items() if status == "raised")
    if raised:
        sys.exit(f"checks raised, reference not written: {raised}")
    lines = [f"{json.dumps(cid)}: {json.dumps(value)}" for cid, value in sorted(reference.items())]
    (workloads.HERE / "reference.json").write_text(
        "{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{len(pool['buckets'])} word buckets, {len(reference)} reference records")


if __name__ == "__main__":
    main()
