"""Host-cost benchmark of the repro-cds simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gateway_zipf [--seed 7]
        [--seconds 30] [--trace 0|1]

Replays one seeded workload repeatedly for ``--seconds`` in this single
process and thread, checks every output, and prints a human-readable
report followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones listed in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones.
The exit code is 0 only when every check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: BLAS/OpenMP thread-pool sizes, pinned to 1 before NumPy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

#: Metrics the final JSON line carries with ``--trace 0``: the host-side
#: end-to-end metrics.  The simulated ones are exact functions of the
#: seed, guarded by the determinism and BENCH checks instead; across
#: seeds they swing by more than any regression bound (gateway goodput
#: by a factor of ~1.5), so they are printed but not gated.
REPORTED_END_TO_END = ("setup_s", "host_us_per_op", "peak_rss_mb")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from harness import END_TO_END, LAYER_UNITS, end_to_end, measure, per_layer, timing_summary
    from provenance import PAPER_TOLERANCE, manifest, paper_accuracy
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    wl = WORKLOADS[args.workload]()
    trace = bool(args.trace)
    print("manifest: " + json.dumps(manifest(ROOT, wl, args.seed, args.seconds, trace)))

    # Untimed, once per invocation: the simulated engines against the paper.
    accuracy = paper_accuracy()
    print("paper accuracy (Tables I and II):")
    problems = []
    for key, quantity, got, paper, err in accuracy:
        print(f"  {key:<22} {quantity:<10} simulated {got:>12,.2f}  "
              f"paper {paper:>12,.2f}  rel. error {err:6.2%}")
        if err > PAPER_TOLERANCE:
            problems.append(f"{key} {quantity} is {err:.1%} off the paper")

    out = measure(wl, args.seed, args.seconds, trace, ROOT)
    problems.extend(out.problems)

    e2e = end_to_end(out)
    print(f"{wl.name}: {len(out.reps)} untraced repetition(s) of "
          f"{out.reps[0].n_ops} ops (op = {wl.op}), seed {args.seed}")
    print(f"  setup_s        {timing_summary([r.setup_s for r in out.reps])}")
    print(f"  timed call (s) {timing_summary([r.call_s for r in out.reps])}")
    for name, (unit, what) in END_TO_END.items():
        print(f"  {name:<22} {e2e[name]:>16.6g} {unit:<5} {what}")
    print(f"  output check: {out.checked} sampled op(s) re-priced, "
          f"{out.mismatched} mismatch(es)")
    if trace:
        layers = per_layer(out)
        print(f"{wl.name}: {len(out.traced)} traced repetition(s) (self times, medians)")
        for name, unit in LAYER_UNITS.items():
            print(f"  {name:<32} {layers[name]:>16.6g} {unit}")
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {
            k: {"value": e2e[k], "unit": END_TO_END[k][0]} for k in REPORTED_END_TO_END
        }
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
