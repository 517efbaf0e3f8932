#!/usr/bin/env python3
"""Unit checks for scripts/bench_diff.py, exercised in CI before the real
tripwire runs: the --fail-phase gate must fire on regressions, stay quiet
when times hold, and refuse to run (clear error, exit 2) when the named
phase is absent from either trajectory — a renamed span must not silently
disarm the gate.

    python3 scripts/test_bench_diff.py
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_diff.py")


def trajectory(phase_seconds):
    return {
        "schema": "pnr.bench_pipeline.v1",
        "binary": "bench_pipeline_e2e",
        "mode": "quick",
        "procs": 8,
        "workloads": [{
            "name": "corner2d",
            "total_seconds": sum(phase_seconds.values()),
            "cut_final": 100,
            "elements_final": 1000,
            "migration_fraction_mean": 0.1,
            "migration_fraction_max": 0.2,
            "peak_rss_bytes": 1 << 20,
            "phases": [{"path": p, "calls": 1, "seconds": s}
                       for p, s in phase_seconds.items()],
            "counters": {},
        }],
        "total_seconds": sum(phase_seconds.values()),
    }


def run_diff(before, after, *extra):
    with tempfile.TemporaryDirectory() as tmp:
        b = os.path.join(tmp, "before.json")
        a = os.path.join(tmp, "after.json")
        with open(b, "w") as f:
            json.dump(before, f)
        with open(a, "w") as f:
            json.dump(after, f)
        return subprocess.run(
            [sys.executable, SCRIPT, b, a, *extra],
            capture_output=True, text=True)


def check(name, ok, detail=""):
    if not ok:
        print(f"FAIL: {name}\n{detail}")
        return 1
    print(f"ok: {name}")
    return 0


def main():
    base = trajectory({"session.step": 1.0, "session.step/kl.refine": 0.4})
    slow = trajectory({"session.step": 1.0, "session.step/kl.refine": 1.4})
    renamed = trajectory({"session.step": 1.0, "session.step/kl.sweep": 0.4})

    failures = 0

    r = run_diff(base, slow, "--fail-over=150", "--fail-phase=kl.refine")
    failures += check("regression above --fail-over exits 1",
                      r.returncode == 1, r.stdout + r.stderr)

    # The FAIL line names the workload and the full phase path behind the
    # worst value, not just the --fail-phase substring.
    deep = "pipeline.repartition/session.step/mesh.dual_delta"
    two = trajectory({"pipeline.repartition": 1.0, deep: 0.1})
    two["workloads"].append(dict(two["workloads"][0], name="transient2d"))
    worse = json.loads(json.dumps(two))
    worse["workloads"][1]["phases"][1]["seconds"] = 0.3
    r = run_diff(two, worse, "--fail-over=150",
                 "--fail-phase=pipeline.repartition")
    failures += check(
        "FAIL line names the workload and phase path of the worst value",
        r.returncode == 1 and
        f"in workload 'transient2d' at '{deep}'" in r.stdout,
        r.stdout + r.stderr)

    r = run_diff(base, base, "--fail-over=150", "--fail-phase=kl.refine")
    failures += check("steady phase passes", r.returncode == 0,
                      r.stdout + r.stderr)

    r = run_diff(base, renamed, "--fail-over=150", "--fail-phase=kl.refine")
    failures += check("phase missing from after exits 2 with a clear error",
                      r.returncode == 2 and "matched no phase" in r.stderr
                      and "after" in r.stderr, r.stdout + r.stderr)

    r = run_diff(renamed, renamed, "--fail-over=150", "--fail-phase=kl.refine")
    failures += check("phase missing from both sides exits 2",
                      r.returncode == 2 and "matched no phase" in r.stderr,
                      r.stdout + r.stderr)

    r = run_diff(base, renamed, "--fail-phase=kl.refine")
    failures += check("missing phase still errors without --fail-over",
                      r.returncode == 2, r.stdout + r.stderr)

    r = run_diff(base, slow)
    failures += check("no gate flags: informational diff exits 0",
                      r.returncode == 0, r.stdout + r.stderr)

    r = run_diff(base, renamed, "--list-phases")
    failures += check(
        "--list-phases prints span names per file",
        r.returncode == 0 and "kl.refine" in r.stdout
        and "kl.sweep" in r.stdout and "2 distinct phases" in r.stdout,
        r.stdout + r.stderr)

    with tempfile.TemporaryDirectory() as tmp:
        single = os.path.join(tmp, "single.json")
        with open(single, "w") as f:
            json.dump(base, f)
        r = subprocess.run([sys.executable, SCRIPT, single, "--list-phases"],
                           capture_output=True, text=True)
        failures += check(
            "--list-phases works on a single file",
            r.returncode == 0 and "session.step/kl.refine" in r.stdout,
            r.stdout + r.stderr)
        r = subprocess.run([sys.executable, SCRIPT, single],
                           capture_output=True, text=True)
        failures += check(
            "a single file without --list-phases is a usage error",
            r.returncode == 2 and "required" in r.stderr,
            r.stdout + r.stderr)

    if failures:
        print(f"{failures} bench_diff check(s) failed")
        return 1
    print("all bench_diff checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
