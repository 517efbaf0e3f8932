#!/usr/bin/env python3
"""Diff two BENCH_pipeline.json perf trajectories (schema pnr.bench_pipeline.v1).

    python3 scripts/bench_diff.py BENCH_before.json BENCH_after.json
        [--threshold=0.05]   relative phase-time change worth printing
        [--all]              print every phase regardless of threshold
        [--fail-over=PCT]    exit 1 if any workload's total time regressed
                             by more than PCT percent
        [--fail-phase=SUBSTR]
                             apply --fail-over to the phases whose path
                             contains SUBSTR (e.g. kl.refine) instead of to
                             the workload totals
        [--list-phases]      print the span names recorded in each input
                             file (grouped per file, deduplicated across
                             workloads) and exit; the second file is
                             optional in this mode. Use it to find the
                             exact name to pass to --fail-phase.

Workloads and phases are matched by name/path; entries present on only
one side are reported as added/removed. See docs/OBSERVABILITY.md for the
schema.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"{path}: {e}")
    schema = doc.get("schema", "")
    if not schema.startswith("pnr.bench_pipeline."):
        sys.exit(f"{path}: unexpected schema {schema!r}")
    return doc


def pct(old, new):
    if old == 0:
        return "     n/a" if new == 0 else "    +inf"
    return f"{100.0 * (new - old) / old:+7.1f}%"


def diff_scalar(label, old, new, fmt="{:.4g}"):
    print(f"  {label:<28} {fmt.format(old):>12} -> {fmt.format(new):>12}  {pct(old, new)}")


def diff_workload(old, new, args, phase_hits):
    """Print the workload's diff; return its gated regression and the full
    phase path that set it (None for the workload total or no regression)."""
    diff_scalar("total_seconds", old["total_seconds"], new["total_seconds"])
    diff_scalar("cut_final", old["cut_final"], new["cut_final"], "{:d}")
    diff_scalar("elements_final", old["elements_final"], new["elements_final"], "{:d}")
    diff_scalar("migration_fraction_mean", old["migration_fraction_mean"],
                new["migration_fraction_mean"])
    diff_scalar("peak_rss_bytes", old["peak_rss_bytes"], new["peak_rss_bytes"], "{:d}")
    regression, source = 0.0, None
    if not args.fail_phase and old["total_seconds"] > 0:
        regression = (new["total_seconds"] - old["total_seconds"]) / old["total_seconds"]

    old_phases = {p["path"]: p for p in old.get("phases", [])}
    new_phases = {p["path"]: p for p in new.get("phases", [])}
    if args.fail_phase:
        phase_hits["before"] += sum(args.fail_phase in p for p in old_phases)
        phase_hits["after"] += sum(args.fail_phase in p for p in new_phases)
    rows = []
    for path in sorted(old_phases.keys() | new_phases.keys()):
        a, b = old_phases.get(path), new_phases.get(path)
        if a is None:
            rows.append((path, f"(added)      {b['seconds'] * 1e3:10.2f} ms"))
        elif b is None:
            rows.append((path, f"(removed)    {a['seconds'] * 1e3:10.2f} ms was"))
        else:
            rel = abs(b["seconds"] - a["seconds"]) / a["seconds"] if a["seconds"] else 0.0
            if args.all or rel >= args.threshold:
                rows.append((path, f"{a['seconds'] * 1e3:10.2f} -> {b['seconds'] * 1e3:10.2f} ms"
                                   f"  {pct(a['seconds'], b['seconds'])}"))
            if args.fail_phase and args.fail_phase in path and a["seconds"] > 0:
                rel = (b["seconds"] - a["seconds"]) / a["seconds"]
                if rel > regression:
                    regression, source = rel, path
    if rows:
        print("  phases (>= {:.0%} change):".format(args.threshold)
              if not args.all else "  phases:")
        for path, text in rows:
            print(f"    {path:<56} {text}")
    return regression, source


def list_phases(paths):
    for path in paths:
        doc = load(path)
        phases = sorted({p["path"]
                         for w in doc.get("workloads", [])
                         for p in w.get("phases", [])})
        print(f"== {path}: {len(phases)} distinct phases")
        for p in phases:
            print(f"  {p}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("before")
    ap.add_argument("after", nargs="?")
    ap.add_argument("--threshold", type=float, default=0.05)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--fail-over", type=float, default=None,
                    help="exit 1 on a total-time regression above this percent")
    ap.add_argument("--fail-phase", default=None,
                    help="apply --fail-over to phases matching this substring "
                         "instead of to workload totals")
    ap.add_argument("--list-phases", action="store_true",
                    help="print the span names per input file and exit")
    args = ap.parse_args()

    if args.list_phases:
        return list_phases([p for p in (args.before, args.after) if p])
    if args.after is None:
        ap.error("the 'after' trajectory is required unless --list-phases")

    before, after = load(args.before), load(args.after)
    if before.get("mode") != after.get("mode"):
        print(f"warning: comparing mode={before.get('mode')} against "
              f"mode={after.get('mode')} — timings are not like-for-like")

    old_w = {w["name"]: w for w in before["workloads"]}
    new_w = {w["name"]: w for w in after["workloads"]}
    worst, worst_at = 0.0, ""
    phase_hits = {"before": 0, "after": 0}
    for name in sorted(old_w.keys() | new_w.keys()):
        print(f"== {name}")
        if name not in old_w:
            print("  (new workload)")
        elif name not in new_w:
            print("  (workload removed)")
        else:
            regression, source = diff_workload(old_w[name], new_w[name],
                                               args, phase_hits)
            if regression > worst:
                worst = regression
                worst_at = f" in workload '{name}'" + (
                    f" at '{source}'" if source else "")

    if args.fail_phase:
        # A tripwire that matches nothing would silently always pass; that is
        # exactly how a renamed span disarms a regression gate unnoticed.
        missing = [f"{args.__dict__[side]} ({side})"
                   for side in ("before", "after") if phase_hits[side] == 0]
        if missing:
            print(f"ERROR: --fail-phase='{args.fail_phase}' matched no phase "
                  f"in {' or '.join(missing)}; the regression tripwire "
                  "cannot fire. Check the span name against the trajectory "
                  "or regenerate it.", file=sys.stderr)
            return 2

    if args.fail_over is not None and worst * 100.0 > args.fail_over:
        what = (f"phase '{args.fail_phase}'" if args.fail_phase
                else "total-time")
        print(f"FAIL: worst {what} regression {worst:+.1%}{worst_at} exceeds "
              f"--fail-over={args.fail_over}%")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
