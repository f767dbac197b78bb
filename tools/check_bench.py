#!/usr/bin/env python3
"""Validate a BENCH_*.json and gate bench regressions.

Dispatches on the document's "bench" field: "kernels" (the PR 5 hot-path
suite, extended in PR 8 with the columnar-vs-heap kernel and dataset
load-path sections; the default when the field is absent, for old files),
"adaptive" (the closed-loop ε configuration bench, PR 6),
"generalization" (the train/test-split tracking-vs-POI adversary bench,
PR 7) or "service" (the shard-router network front end bench, PR 10).

Two jobs, both meant for the CI bench-smoke lane:

  * schema: the candidate file has every headline field the dashboards
    and the baseline comparison rely on, with sane types/ranges, and
    every section's built-in correctness check passed (bit_identical /
    agree) — a fast-but-wrong kernel must never post a number.
  * regression: the candidate's speedup RATIOS (djcluster_speedup,
    evaluate_point_scaling, columnar_speedup, the storage csv-over-mmap
    load ratio, grid visitor-vs-kdtree qps ratio) are compared against
    the committed baseline. Ratios, not seconds: the
    smoke preset runs a smaller workload and CI boxes vary in absolute
    speed, but "the rewrite is N x the reference" should transfer. A
    candidate ratio more than --max-regression below baseline fails.

Usage:
  tools/check_bench.py CANDIDATE.json [--baseline BENCH_kernels.json]
                       [--max-regression 0.25]

Without --baseline only the schema is checked.
"""
import argparse
import json
import sys

FAILURES: list[str] = []


def fail(msg: str) -> None:
    FAILURES.append(msg)
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: FAIL: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(1)
    if not isinstance(doc, dict):
        print(f"check_bench: FAIL: {path}: top level is not an object", file=sys.stderr)
        sys.exit(1)
    return doc


def require_number(doc: dict, dotted: str, minimum: float | None = None) -> float | None:
    node: object = doc
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            fail(f"missing field '{dotted}'")
            return None
        node = node[key]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        fail(f"field '{dotted}' is not a number: {node!r}")
        return None
    if minimum is not None and node < minimum:
        fail(f"field '{dotted}' = {node} below minimum {minimum}")
        return None
    return float(node)


def require_true(doc: dict, dotted: str) -> None:
    node: object = doc
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            fail(f"missing field '{dotted}'")
            return
        node = node[key]
    if node is not True:
        fail(f"field '{dotted}' is {node!r}, expected true")


def check_preset(doc: dict) -> None:
    if doc.get("preset") not in ("full", "smoke"):
        fail(f"'preset' is {doc.get('preset')!r}, expected 'full' or 'smoke'")


def check_kernels_schema(doc: dict) -> None:
    check_preset(doc)
    require_number(doc, "cores", minimum=1)
    require_number(doc, "djcluster_speedup", minimum=0)
    require_number(doc, "evaluate_point_scaling", minimum=0)
    require_true(doc, "bit_identical")
    require_true(doc, "djcluster.bit_identical")
    require_true(doc, "grid_vs_kdtree.agree")
    require_true(doc, "evaluate_point.latency_bound.bit_identical")
    require_true(doc, "evaluate_point.cpu_bound.bit_identical")
    require_number(doc, "djcluster.points", minimum=1)
    require_number(doc, "djcluster.old_seconds", minimum=0)
    require_number(doc, "djcluster.new_seconds", minimum=0)
    require_number(doc, "grid_vs_kdtree.kdtree_vector_qps", minimum=0)
    require_number(doc, "grid_vs_kdtree.grid_visitor_qps", minimum=0)
    require_number(doc, "grid_vs_kdtree.grid_count_qps", minimum=0)
    require_number(doc, "evaluate_point.latency_bound.scaling", minimum=0)
    require_number(doc, "evaluate_point.cpu_bound.scaling", minimum=0)
    # Columnar trace arena entries (PR 8): feature kernels over contiguous
    # columns vs the pre-refactor Event layout, and the dataset load path
    # (CSV vs binary heap vs binary mmap). Their bit-identity flags carry
    # the heap/mmap equivalence claim, so they gate as hard as the rest.
    require_number(doc, "columnar_speedup", minimum=0)
    require_true(doc, "columnar.bit_identical")
    require_number(doc, "columnar.points", minimum=1)
    for kernel in ("coverage_count", "covered_cells", "path_length", "radius_of_gyration"):
        require_number(doc, f"columnar.{kernel}.aos_seconds", minimum=0)
        require_number(doc, f"columnar.{kernel}.columnar_seconds", minimum=0)
        require_number(doc, f"columnar.{kernel}.speedup", minimum=0)
    require_true(doc, "storage.bit_identical")
    require_number(doc, "storage.users", minimum=1)
    require_number(doc, "storage.events", minimum=1)
    require_number(doc, "storage.csv_seconds", minimum=0)
    require_number(doc, "storage.binary_heap_seconds", minimum=0)
    require_number(doc, "storage.binary_mmap_seconds", minimum=0)
    require_number(doc, "storage.csv_over_mmap_speedup", minimum=0)


# The full preset is the committed baseline and carries the paper-level
# claim: >= 90% of controlled users settle back into the objective band
# after the drift. The smoke preset runs 8 users, so its reband fraction
# is quantized in steps of 0.125 and one unlucky straggler would flip a
# 0.9 gate; it gets a floor that still proves the loop works while the
# static baseline fails.
ADAPTIVE_REBAND_FLOOR = {"full": 0.9, "smoke": 0.75}


def check_adaptive_schema(doc: dict) -> None:
    check_preset(doc)
    require_true(doc, "deterministic")
    require_number(doc, "users", minimum=1)
    require_number(doc, "initial_eps", minimum=0)
    for side in ("adaptive", "static"):
        require_number(doc, f"{side}.controlled_users", minimum=1)
        require_number(doc, f"{side}.decisions", minimum=1)
        require_number(doc, f"{side}.reband_fraction", minimum=0)
        require_number(doc, f"{side}.mean_time_to_reband_s", minimum=0)
        require_number(doc, f"{side}.mean_tracking_error", minimum=0)
    floor = ADAPTIVE_REBAND_FLOOR.get(str(doc.get("preset")), 0.9)
    reband = require_number(doc, "adaptive.reband_fraction")
    static_reband = require_number(doc, "static.reband_fraction")
    static_steps = require_number(doc, "static.steps")
    if static_steps is not None and static_steps != 0:
        fail(f"static baseline took {static_steps} steps, expected a frozen ε")
    if reband is not None and reband < floor:
        fail(f"adaptive.reband_fraction = {reband:.3f} below the {floor} floor "
             f"for preset {doc.get('preset')!r}")
    if reband is not None and static_reband is not None and reband <= static_reband:
        fail(f"adaptive reband {reband:.3f} does not beat static {static_reband:.3f}: "
             "the closed loop is not earning its keep")


# The advantage floor is per preset for the same reason as the adaptive
# reband floor: the smoke commuter fleet is small enough that one user's
# linkage flipping moves the per-ε advantage in coarse steps. The full
# preset carries the paper-level claim — the tracking adversary must be
# strictly ahead at EVERY ε on the grid (gated via the min), and clearly
# ahead on average.
GENERALIZATION_ADVANTAGE_MEAN_FLOOR = {"full": 0.3, "smoke": 0.1}


def check_generalization_schema(doc: dict) -> None:
    check_preset(doc)
    require_true(doc, "deterministic")
    require_number(doc, "commuter_users", minimum=2)
    require_number(doc, "mixed_users", minimum=2)
    require_number(doc, "split.train_users", minimum=1)
    require_number(doc, "split.test_users", minimum=1)
    adv_mean = require_number(doc, "attack_advantage.mean")
    adv_min = require_number(doc, "attack_advantage.min")
    poi_gap = require_number(doc, "poi_transfer.gap_mean")
    tracking_gap = require_number(doc, "tracking_transfer.gap_mean")
    floor = GENERALIZATION_ADVANTAGE_MEAN_FLOOR.get(str(doc.get("preset")), 0.3)
    if adv_min is not None and adv_min <= 0:
        fail(f"attack_advantage.min = {adv_min:.3f}: the tracking attack must beat "
             "the POI attack strictly at every epsilon on the grid")
    if adv_mean is not None and adv_mean < floor:
        fail(f"attack_advantage.mean = {adv_mean:.3f} below the {floor} floor "
             f"for preset {doc.get('preset')!r}")
    # Transfer-gap sanity floors. poi-retrieval has no train-fitted prior,
    # so its test-side Pr must not exceed the train side at the pinned
    # split seed (test <= train, i.e. gap <= 0); the tracking attack's
    # prior IS train-fitted, so held-out users must be at least as hard
    # to track (gap >= 0 metres).
    if poi_gap is not None and poi_gap > 0:
        fail(f"poi_transfer.gap_mean = {poi_gap:.4f} > 0: test-split Pr exceeds "
             "train-split Pr for the POI attack")
    if tracking_gap is not None and tracking_gap < 0:
        fail(f"tracking_transfer.gap_mean = {tracking_gap:.2f} m < 0: the "
             "train-fitted prior tracks unseen users BETTER than its own "
             "training users")


# The network front end bench (PR 10): an N-process shard fleet over
# unix sockets vs a single-shard baseline on the same per-report work.
# The speedup floor carries the tentpole claim — shards overlap their
# simulated downstream waits across process boundaries — and the RSS
# ratio carries the mmap page-sharing claim: a shard's resident set
# right after mapping the dataset must stay well below the dataset,
# or N shards would cost N datasets of memory. The smoke fleet is small
# enough that fork/connect overheads eat into the speedup, so its floor
# is looser; users floors keep the committed full run at the promised
# million-user scale.
SERVICE_SPEEDUP_FLOOR = {"full": 3.0, "smoke": 1.5}
SERVICE_USERS_FLOOR = {"full": 1000000, "smoke": 50000}
SERVICE_REQS_FLOOR = {"full": 20000, "smoke": 5000}
SERVICE_P99_CEILING_MS = {"full": 250.0, "smoke": 500.0}


def check_service_schema(doc: dict) -> None:
    check_preset(doc)
    preset = str(doc.get("preset"))
    require_true(doc, "uds")
    require_true(doc, "all_answered")
    require_number(doc, "cores", minimum=1)
    require_number(doc, "downstream_us", minimum=1)
    require_number(doc, "dataset.users", minimum=1)
    require_number(doc, "dataset.events", minimum=1)
    require_number(doc, "dataset.file_kb", minimum=1024)
    for side in ("single", "sharded"):
        require_number(doc, f"{side}.users", minimum=1)
        require_number(doc, f"{side}.reports", minimum=1)
        require_number(doc, f"{side}.wall_seconds", minimum=0)
        require_number(doc, f"{side}.req_per_sec", minimum=1)
        require_number(doc, f"{side}.p50_ms", minimum=0)
        require_number(doc, f"{side}.p99_ms", minimum=0)
        require_number(doc, f"{side}.delivered_fraction", minimum=0.999)
        require_true(doc, f"{side}.every_tag_once")
    single_shards = require_number(doc, "single.shards", minimum=1)
    if single_shards is not None and single_shards != 1:
        fail(f"single.shards = {single_shards}, the baseline must run one shard")
    require_number(doc, "sharded.shards", minimum=4)
    require_number(doc, "sharded.users",
                   minimum=SERVICE_USERS_FLOOR.get(preset, 1000000))
    require_number(doc, "sharded.req_per_sec",
                   minimum=SERVICE_REQS_FLOOR.get(preset, 20000))
    require_number(doc, "shard_speedup",
                   minimum=SERVICE_SPEEDUP_FLOOR.get(preset, 3.0))
    p99 = require_number(doc, "sharded.p99_ms")
    ceiling = SERVICE_P99_CEILING_MS.get(preset, 250.0)
    if p99 is not None and p99 > ceiling:
        fail(f"sharded.p99_ms = {p99:.1f} above the {ceiling:.0f} ms ceiling "
             f"for preset {preset!r}")
    rss_ratio = require_number(doc, "rss_map_ratio", minimum=0)
    if rss_ratio is not None and rss_ratio > 0.5:
        fail(f"rss_map_ratio = {rss_ratio:.3f}: a freshly mapped shard is resident "
             "for more than half the dataset — the map is not lazy/shared")


def check_service_regressions(candidate: dict, baseline: dict, max_regression: float) -> None:
    # Absolute floors already gate the speedup; the baseline comparison
    # watches for a change that still clears the floor but gives back
    # most of the multi-process scaling.
    base = require_number(baseline, "shard_speedup")
    cand = require_number(candidate, "shard_speedup")
    if base is None or cand is None:
        return
    if candidate.get("preset") != baseline.get("preset"):
        print("check_bench: preset mismatch "
              f"({candidate.get('preset')} vs baseline {baseline.get('preset')}): "
              "skipping the shard-speedup comparison")
        return
    if base <= 0:
        return
    drop = (base - cand) / base
    status = "ok" if drop <= max_regression else "REGRESSION"
    print(f"check_bench: shard_speedup: baseline {base:.2f}x candidate {cand:.2f}x "
          f"({drop:+.1%} drop) {status}")
    if drop > max_regression:
        fail(f"shard speedup regressed {drop:.1%} "
             f"(baseline {base:.2f}x -> {cand:.2f}x, limit {max_regression:.0%})")


def check_schema(doc: dict) -> None:
    kind = doc.get("bench", "kernels")
    if kind == "kernels":
        check_kernels_schema(doc)
    elif kind == "adaptive":
        check_adaptive_schema(doc)
    elif kind == "generalization":
        check_generalization_schema(doc)
    elif kind == "service":
        check_service_schema(doc)
    else:
        fail(f"'bench' is {doc.get('bench')!r}, expected 'kernels', 'adaptive', "
             "'generalization' or 'service'")


def check_adaptive_regressions(candidate: dict, baseline: dict, max_regression: float) -> None:
    # reband_fraction is already gated by an absolute floor per preset;
    # the baseline comparison watches the tracking quality so a change
    # that still clears the floor but steers much worse gets flagged.
    base = require_number(baseline, "adaptive.mean_tracking_error")
    cand = require_number(candidate, "adaptive.mean_tracking_error")
    if base is None or cand is None:
        return
    if candidate.get("preset") != baseline.get("preset"):
        print("check_bench: preset mismatch "
              f"({candidate.get('preset')} vs baseline {baseline.get('preset')}): "
              "skipping the tracking-error comparison")
        return
    if base <= 0:
        return
    growth = (cand - base) / base
    status = "ok" if growth <= max_regression else "REGRESSION"
    print(f"check_bench: adaptive.mean_tracking_error: baseline {base:.3f} "
          f"candidate {cand:.3f} ({growth:+.1%}) {status}")
    if growth > max_regression:
        fail(f"adaptive tracking error regressed {growth:.1%} "
             f"(baseline {base:.3f} -> {cand:.3f}, limit {max_regression:.0%})")


def check_generalization_regressions(candidate: dict, baseline: dict,
                                     max_regression: float) -> None:
    # The advantage is already gated by absolute floors; the baseline
    # comparison watches for a change that still clears the floor but
    # erodes most of the tracking adversary's edge.
    base = require_number(baseline, "attack_advantage.mean")
    cand = require_number(candidate, "attack_advantage.mean")
    if base is None or cand is None:
        return
    if candidate.get("preset") != baseline.get("preset"):
        print("check_bench: preset mismatch "
              f"({candidate.get('preset')} vs baseline {baseline.get('preset')}): "
              "skipping the advantage comparison")
        return
    if base <= 0:
        return
    drop = (base - cand) / base
    status = "ok" if drop <= max_regression else "REGRESSION"
    print(f"check_bench: attack_advantage.mean: baseline {base:.3f} "
          f"candidate {cand:.3f} ({drop:+.1%} drop) {status}")
    if drop > max_regression:
        fail(f"tracking-attack advantage regressed {drop:.1%} "
             f"(baseline {base:.3f} -> {cand:.3f}, limit {max_regression:.0%})")


def ratio(doc: dict, name: str) -> float | None:
    if name == "grid_visitor_vs_kdtree":
        kd = require_number(doc, "grid_vs_kdtree.kdtree_vector_qps")
        grid = require_number(doc, "grid_vs_kdtree.grid_visitor_qps")
        if kd is None or grid is None or kd <= 0:
            return None
        return grid / kd
    return require_number(doc, name)


def check_regressions(candidate: dict, baseline: dict, max_regression: float) -> None:
    names = ["djcluster_speedup", "evaluate_point_scaling", "columnar_speedup"]
    if candidate.get("preset") == baseline.get("preset"):
        # These ratios grow with the workload size (the KdTree side
        # degrades faster in n than the grid side; the CSV parse falls
        # further behind the binary loaders as the event count grows),
        # so they only compare meaningfully within one preset; the
        # headline ratios above transfer across workload sizes.
        names.append("grid_visitor_vs_kdtree")
        names.append("storage.csv_over_mmap_speedup")
    else:
        print("check_bench: preset mismatch "
              f"({candidate.get('preset')} vs baseline {baseline.get('preset')}): "
              "skipping the n-sensitive grid_visitor_vs_kdtree and storage ratios")
    for name in names:
        base = ratio(baseline, name)
        cand = ratio(candidate, name)
        if base is None or cand is None:
            continue  # the missing-field failure is already recorded
        if base <= 0:
            fail(f"baseline {name} is {base}, cannot compare")
            continue
        drop = (base - cand) / base
        status = "ok" if drop <= max_regression else "REGRESSION"
        print(f"check_bench: {name}: baseline {base:.2f}x candidate {cand:.2f}x "
              f"({drop:+.1%} drop) {status}")
        if drop > max_regression:
            fail(f"{name} regressed {drop:.1%} (baseline {base:.2f}x -> {cand:.2f}x, "
                 f"limit {max_regression:.0%})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("candidate", help="BENCH_*.json produced by this run")
    parser.add_argument("--baseline", help="committed baseline to compare ratios against")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="maximum allowed fractional ratio drop (default 0.25)")
    args = parser.parse_args()

    candidate = load(args.candidate)
    check_schema(candidate)
    if args.baseline:
        baseline = load(args.baseline)
        check_schema(baseline)
        if candidate.get("bench", "kernels") != baseline.get("bench", "kernels"):
            fail(f"bench kind mismatch: candidate {candidate.get('bench')!r} "
                 f"vs baseline {baseline.get('bench')!r}")
        elif candidate.get("bench", "kernels") == "adaptive":
            check_adaptive_regressions(candidate, baseline, args.max_regression)
        elif candidate.get("bench", "kernels") == "generalization":
            check_generalization_regressions(candidate, baseline, args.max_regression)
        elif candidate.get("bench", "kernels") == "service":
            check_service_regressions(candidate, baseline, args.max_regression)
        else:
            check_regressions(candidate, baseline, args.max_regression)

    if FAILURES:
        print(f"check_bench: {len(FAILURES)} failure(s)", file=sys.stderr)
        sys.exit(1)
    print(f"check_bench: OK ({args.candidate}"
          + (f" vs {args.baseline}" if args.baseline else "") + ")")


if __name__ == "__main__":
    main()
