#!/usr/bin/env python3
"""One smoke run for every committed claim bench.

Usage: python3 tools/ci_smoke.py BUILD_DIR [--update | --fuzz-only]

Run from the repository root after building every target. For each
committed BENCH_*.json snapshot it runs the bench twice in a scratch
directory, requires both outputs to equal the committed file byte for
byte, and checks the bench's headline claims on the JSON. Then it runs
each traced workload twice and requires byte-identical trace and metrics
files, and runs the fixed-seed fuzz families. --update rewrites the
committed snapshots from the first run instead of comparing them (for a
change that means to move a number); claims are still checked.
--fuzz-only runs only the fuzz families, as the sanitizer build does.

Exits non-zero on the first failure. Standard library only.
"""
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile


def rows(report, section):
    return report["sections"][section]


# snapshot -> (bench, claims on the parsed JSON). BENCH_exec.json measures
# host wall-clock time, so it is not reproducible and not listed.
SNAPSHOTS = {
    "BENCH_fleet.json": ("fleet_scheduling", [
        ("same-seed fleet runs are bit-identical",
         lambda r: r["scalars"]["deterministic"] is True),
    ]),
    "BENCH_fig9.json": ("fig9_load_timeseries", [
        ("LoADPart cuts mean latency under load",
         lambda r: r["scalars"]["mean_reduction"] > 0),
    ]),
    "BENCH_fault.json": ("fault_recovery", [
        ("every fault-recovery claim holds",
         lambda r: r["scalars"]["claims_ok"] is True),
        ("fault runs are deterministic",
         lambda r: r["scalars"]["deterministic"] is True),
    ]),
    "BENCH_cluster.json": ("cluster_scaling", [
        ("no request lost to migration",
         lambda r: r["scalars"]["requests_lost"] == 0),
        ("least-loaded + migration wins p90 at every server count",
         lambda r: r["scalars"]["p90_wins"] == r["scalars"]["server_counts"]),
        ("least-loaded + migration wins served/s at every server count",
         lambda r: r["scalars"]["served_wins"] == r["scalars"]["server_counts"]),
        ("cluster runs are deterministic",
         lambda r: r["scalars"]["deterministic"] is True),
    ]),
    "BENCH_chaos.json": ("cluster_chaos", [
        ("robust control plane loses no admitted request",
         lambda r: r["scalars"]["robust_lost"] == 0),
        ("naive arm loses requests at 20% loss",
         lambda r: r["scalars"]["naive_lost_at_20"] > 0),
        ("conservation audits ran",
         lambda r: r["scalars"]["conservation_audits"] > 0),
        ("crash detection time is reported",
         lambda r: r["scalars"]["mean_detect_ms"] >= 0),
        ("chaos runs are deterministic",
         lambda r: r["scalars"]["deterministic"] is True),
    ]),
    "BENCH_predictor.json": ("predictor_ablation", [
        ("three built-in forecasters",
         lambda r: r["scalars"]["predictors"] == 3),
        ("a forecaster beats reactive k on p90 AND SLO misses",
         lambda r: r["scalars"]["forecast_beats_reactive"] is True),
        ("every bursty arm scored its forecasts",
         lambda r: all(row["forecasts_scored"] > 0
                       for row in rows(r, "bursty"))),
        ("the reactive arm re-runs bit-identically",
         lambda r: r["scalars"]["deterministic"] is True),
    ]),
    "BENCH_tardiness.json": ("tardiness", [
        ("least-slack + shedding beats plain EDF at >= 2 of 3 levels",
         lambda r: r["scalars"]["levels"] == 3
         and r["scalars"]["levels_won"] >= 2),
        ("least-slack + shedding beats plain EDF overall",
         lambda r: r["scalars"]["ls_shed_beats_edf_plain"] is True),
        ("deadline admission sheds in every shedding arm",
         lambda r: all(row["deadline_shed_admission"] > 0
                       for row in rows(r, "arms") if row["shedding"])),
        ("tardiness runs are deterministic",
         lambda r: r["scalars"]["deterministic"] is True),
    ]),
}

# Traced runs: (binary, args, files it writes). Two runs must write
# byte-identical files.
TRACED = [
    ("examples/fleet_serving", ["--trace", "t.json", "--metrics", "m.json"],
     ["t.json", "m.json"]),
    ("bench/cluster_scaling", ["--trace", "t.json"], ["t.json"]),
    ("bench/cluster_chaos", ["--trace", "t.json"], ["t.json"]),
]

# Fixed-seed fuzz families: (kind, cases, seed).
FUZZ = [
    ("cluster", 40, 3),
    ("predict", 300, 2),
    ("queue", 400, 4),
    ("fleet", 40, 5),
    ("decision", 200, 1),
    ("cache", 200, 6),
]


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def run(build, binary, args, cwd):
    path = os.path.join(build, binary)
    result = subprocess.run([path] + args, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        fail("%s %s exited %d\n%s" % (binary, " ".join(args),
                                      result.returncode, result.stdout))


def check_snapshots(build, root, scratch, update):
    for snapshot, (bench, claims) in SNAPSHOTS.items():
        outputs = []
        for attempt in ("a", "b"):
            cwd = os.path.join(scratch, bench + "-" + attempt)
            os.makedirs(cwd)
            run(build, os.path.join("bench", bench), [], cwd)
            outputs.append(os.path.join(cwd, snapshot))
        if not filecmp.cmp(outputs[0], outputs[1], shallow=False):
            fail("%s: two runs of %s differ" % (snapshot, bench))
        committed = os.path.join(root, snapshot)
        if update:
            shutil.copyfile(outputs[0], committed)
        elif not filecmp.cmp(outputs[0], committed, shallow=False):
            fail("%s: %s no longer reproduces the committed snapshot "
                 "(rerun with --update if the change is intended)"
                 % (snapshot, bench))
        with open(outputs[0]) as f:
            report = json.load(f)
        for claim, holds in claims:
            if not holds(report):
                fail("%s: claim failed: %s" % (snapshot, claim))
        print("ok  %s (%d claims)" % (snapshot, len(claims)))


def check_traces(build, scratch):
    for binary, args, files in TRACED:
        dirs = []
        for attempt in ("a", "b"):
            cwd = os.path.join(scratch, os.path.basename(binary) + "-trace-" +
                               attempt)
            os.makedirs(cwd)
            run(build, binary, args, cwd)
            dirs.append(cwd)
        for name in files:
            if not filecmp.cmp(os.path.join(dirs[0], name),
                               os.path.join(dirs[1], name), shallow=False):
                fail("%s: two traced runs wrote different %s" % (binary, name))
        print("ok  %s traced twice, identical" % binary)


def check_fuzz(build, scratch):
    for kind, cases, seed in FUZZ:
        run(build, "tools/check_fuzz",
            ["--kind", kind, "--cases", str(cases), "--seed", str(seed)],
            scratch)
        print("ok  check_fuzz --kind %s (%d cases)" % (kind, cases))


def main(argv):
    update = "--update" in argv
    fuzz_only = "--fuzz-only" in argv
    args = [a for a in argv[1:] if a not in ("--update", "--fuzz-only")]
    if len(args) != 1 or (update and fuzz_only):
        print(__doc__)
        return 2
    build = os.path.abspath(args[0])
    root = os.getcwd()
    scratch = tempfile.mkdtemp(prefix="ci_smoke_")
    try:
        if not fuzz_only:
            check_snapshots(build, root, scratch, update)
            check_traces(build, scratch)
        check_fuzz(build, scratch)
    finally:
        shutil.rmtree(scratch)
    print("all smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
