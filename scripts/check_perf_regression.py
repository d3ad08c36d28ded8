#!/usr/bin/env python3
"""CI perf-regression gate: compare a freshly generated BENCH json against
the committed baseline and fail only on *large, systemic* regressions.

Usage:
    check_perf_regression.py <baseline.json> <fresh.json> [--factor 2.0]

For every (section, metric) group — metrics are the latency-like fields:
anything named *_p99_ms, *_p99_s, ns_per_*, emit_ns_*, fork_ns_*, plus
the result-cache hit-path median (hit_p50_ms) — the
gate collects the metric across all sweep rows of that section and
compares the *medians*: fresh median worse than baseline median * factor
fails. Throughput fields (*_meps: higher is better) are gated in the
opposite direction — fresh median below baseline median / factor fails —
but only when both files record the same bench scale, since a smaller
smoke run legitimately sustains lower rates.

Medians-across-rows rather than row-by-row is deliberate: a real
regression (a lock landed on the hot path, an O(n) crept into publish)
shifts the whole distribution, while an individual row's p99 on a busy
or oversubscribed host is a scheduling lottery — measured run-to-run
wobble on single rows exceeds 5x on the same binary, but the per-section
medians stay within tens of percent. The 2x default factor keeps the
gate generous on top of that (shared CI runners are noisy and the
committed baselines come from a different machine entirely); watch the
archived artifacts for finer trends.

Sections whose rows are different problem sizes rather than repeats of
one measurement are the exception: `publish_sweep`'s rows (n=16 and
n=256) are gated each on its own, keyed by `n` (PER_ROW_KEY). The median
of two rows is their mean, which put the small row's microsecond p99
under the floor together with the larger one, so the larger row was not
compared at all in most runs.

Tiny absolute medians (< 50 us / 5 ns) are skipped outright: they sit at
timer-resolution level where any ratio is meaningless. Sections or
metrics present on only one side are ignored — the gate only compares
what both sides have.
"""

import json
import statistics
import sys


# Metric-name predicates: higher-is-worse latencies the gate watches.
def is_gated_metric(name):
    return (
        name.endswith("_p99_ms")
        or name.endswith("_p99_s")
        or name.startswith("ns_per_")
        or name.startswith("emit_ns_")
        or name.startswith("fork_ns_")
        # The result-cache hit path (lookup + read-set freshness check) is
        # gated at its median: the whole point of the cache is that hits
        # cost microseconds, so a regression here is a hot-path lock or a
        # freshness check gone O(entries).
        or name == "hit_p50_ms"
        or is_throughput_metric(name)
    )


# Higher-is-better rates (Medges/s): gated in the opposite direction.
def is_throughput_metric(name):
    return name.endswith("_meps")


# Below these absolute values, a ratio says nothing (timer noise).
MIN_ABS = {"ms": 0.05, "s": 5e-5, "ns": 5.0}

# Per-metric floor overrides, for metrics whose healthy values sit below
# the generic unit floor: the cache hit path is single-digit
# microseconds by design, so it gets a 10us floor instead of the 50us
# one — a hot-path lock or an O(entries) freshness check blows well past
# 2x of that, while runner noise on a hash-and-compare stays under it.
MIN_ABS_OVERRIDE = {"hit_p50_ms": 0.01}


# Sections gated row by row, keyed by this row field.
PER_ROW_KEY = {"publish_sweep": "n"}


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ns"


def load_groups(path):
    """({(section, metric): [values across rows]}, bench scale or None)"""
    with open(path) as f:
        doc = json.load(f)
    groups = {}
    for row in doc.get("rows", []):
        section = row.get("section", "")
        key = PER_ROW_KEY.get(section)
        if key in row:
            section = f"{section}[{key}={row[key]}]"
        for name, val in row.items():
            if is_gated_metric(name) and isinstance(val, (int, float)):
                groups.setdefault((section, name), []).append(val)
    return groups, doc.get("scale")


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    baseline_path, fresh_path = argv[1], argv[2]
    factor = 2.0
    if "--factor" in argv:
        factor = float(argv[argv.index("--factor") + 1])

    baseline, base_scale = load_groups(baseline_path)
    fresh, fresh_scale = load_groups(fresh_path)
    # Throughput ratios only mean something at matched problem size: a
    # smaller CI smoke run (GBBS_BENCH_SCALE) legitimately sustains lower
    # rates than the committed default-scale baseline, while its
    # *latencies* only get faster — so cross-scale runs keep the latency
    # gates and drop the throughput ones.
    same_scale = base_scale is not None and base_scale == fresh_scale
    if not same_scale:
        print(
            f"perf gate: scale mismatch (baseline {base_scale}, "
            f"fresh {fresh_scale}) — throughput (*_meps) gates skipped"
        )

    compared = 0
    failures = []
    for (section, name), fresh_vals in sorted(fresh.items()):
        base_vals = baseline.get((section, name))
        if not base_vals:
            continue  # new measurement: nothing to regress against
        base_med = statistics.median(base_vals)
        fresh_med = statistics.median(fresh_vals)
        if is_throughput_metric(name):
            # Higher is better; no timer-resolution floor applies to a
            # rate, so gate directly on the ratio of medians.
            if not same_scale:
                continue
            compared += 1
            if fresh_med < base_med / factor:
                failures.append(
                    f"  {section} :: {name}: median {fresh_med:.6g} "
                    f"(over {len(fresh_vals)} rows) < baseline median "
                    f"{base_med:.6g} (over {len(base_vals)} rows) "
                    f"/ {factor:g}"
                )
            continue
        floor = MIN_ABS_OVERRIDE.get(name, MIN_ABS[unit_of(name)])
        if base_med < floor and fresh_med < floor:
            continue  # both at timer-resolution level
        compared += 1
        limit = max(base_med * factor, floor * factor)
        if fresh_med > limit:
            failures.append(
                f"  {section} :: {name}: median {fresh_med:.6g} "
                f"(over {len(fresh_vals)} rows) > {factor:g}x baseline "
                f"median {base_med:.6g} (over {len(base_vals)} rows)"
            )

    print(
        f"perf gate: {compared} per-section metric medians compared "
        f"against {baseline_path} (allowed factor {factor:g}x)"
    )
    if failures:
        print(f"REGRESSIONS ({len(failures)}):")
        print("\n".join(failures))
        return 1
    print("perf gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
