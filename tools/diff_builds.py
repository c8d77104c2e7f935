#!/usr/bin/env python3
"""Byte-compare what two builds of this repository print and write.

Usage: python3 tools/diff_builds.py PARENT_BUILD CHANGE_BUILD

Run from the repository root with both build directories fully built. It
runs every binary in each build's bench/ and examples/ directories with
no arguments, except exec_throughput (host wall-clock, about 6 min), and
then the traced commands of tools/ci_smoke.py's TRACED list. Each run
gets a fresh working directory per build, and the two builds' runs of
one command go side by side. It then compares, byte for byte, the exit
status, stdout and every file the command wrote.

Only the stdout of the host-timed benches in HOST_TIMED may differ; their
written files may not. Any other difference, or a binary that only one
build has, is reported, and the exit status is 1. A refactor that means
to keep every output passes with status 0.

Standard library only.
"""
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ci_smoke import TRACED  # noqa: E402

# Wall-clock timing runs too long to diff, and these print host time.
SKIPPED = {"exec_throughput"}
HOST_TIMED = {"algo_scaling", "cache_overhead", "ablation_predictor_family"}


def binaries(build, subdir):
    directory = os.path.join(build, subdir)
    names = set()
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            names.add(name)
    return names


def commands(parent, change):
    """(label, binary path relative to a build, args); and the binaries
    only one build has."""
    out, lonely = [], []
    for subdir in ("bench", "examples"):
        a, b = binaries(parent, subdir), binaries(change, subdir)
        lonely += ["%s/%s" % (subdir, n) for n in sorted(a ^ b)]
        for name in sorted((a & b) - SKIPPED):
            out.append((name, os.path.join(subdir, name), []))
    for binary, args, _ in TRACED:
        out.append((os.path.basename(binary) + " " + " ".join(args), binary,
                    args))
    return out, lonely


def start(build, binary, args, cwd):
    """Starts the command in a fresh `cwd`; its stdout goes to cwd.out."""
    os.makedirs(cwd)
    stdout = open(cwd + ".out", "wb")
    proc = subprocess.Popen([os.path.join(build, binary)] + args, cwd=cwd,
                            stdout=stdout, stderr=subprocess.DEVNULL)
    return proc, stdout


def written(cwd):
    files = set()
    for root, _, names in os.walk(cwd):
        for name in names:
            files.add(os.path.relpath(os.path.join(root, name), cwd))
    return files


def compare(name, dirs, codes):
    """List of differences between the two runs of one command."""
    diffs = []
    if codes[0] != codes[1]:
        diffs.append("exit status %d vs %d" % tuple(codes))
    if not filecmp.cmp(dirs[0] + ".out", dirs[1] + ".out", shallow=False) \
            and name not in HOST_TIMED:
        diffs.append("stdout")
    files = [written(d) for d in dirs]
    for f in sorted(files[0] ^ files[1]):
        diffs.append("%s written by one build only" % f)
    for f in sorted(files[0] & files[1]):
        if not filecmp.cmp(os.path.join(dirs[0], f),
                           os.path.join(dirs[1], f), shallow=False):
            diffs.append(f)
    return diffs


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    builds = [os.path.abspath(a) for a in argv[1:]]
    todo, lonely = commands(*builds)
    failures = ["%s: in one build only" % b for b in lonely]
    scratch = tempfile.mkdtemp(prefix="diff_builds_")
    try:
        for i, (label, binary, args) in enumerate(todo):
            name = os.path.basename(binary)
            dirs = [os.path.join(scratch, side, "%02d-%s" % (i, name))
                    for side in ("parent", "change")]
            runs = [start(build, binary, args, cwd)
                    for build, cwd in zip(builds, dirs)]
            codes = []
            for proc, stdout in runs:
                codes.append(proc.wait())
                stdout.close()
            diffs = compare(name, dirs, codes)
            if diffs:
                failures.append("%s: %s" % (label, ", ".join(diffs)))
                print("DIFF %s: %s" % (label, ", ".join(diffs)), flush=True)
            else:
                status = " (both exit %d)" % codes[0] if codes[0] else ""
                print("same %s%s" % (label, status), flush=True)
    finally:
        shutil.rmtree(scratch)
    if failures:
        print("\n%d command(s) differ:" % len(failures))
        for f in failures:
            print("  " + f)
        return 1
    print("\nno differences (host-timed stdout ignored: %s)" %
          ", ".join(sorted(HOST_TIMED)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
