#!/usr/bin/env python3
"""Wall-clock benchmark driver (standard library only).

Builds bench/perf into .bench_build at the repository root on first use,
then runs perf_bench, one workload per process.

  run.py --workload W --seed S --seconds T --trace 0|1
      One run. Prints `workload metric value unit` for every metric that
      BENCHMARK.json names (end_to_end when --trace 0, per_layer when
      --trace 1) and, as the last line, one JSON object with the keys
      correct, attempted, failed and metrics. Exits 1 when a correctness
      gate fails or a metric is missing, 2 when the build fails.

  run.py all [--seed S] [--seconds T] [--repeat N] [--trace] [--out FILE]
      Every workload, each run in its own process, on N seeds from S (plus
      one traced run with --trace); merges their JSON and, for N >= 2,
      prints each end-to-end metric's median and spread against its bound.

  run.py smoke [--binary PATH]
      A tiny scale of every workload, untraced and traced. Checks that
      every metric is printed with its unit and that every gate passes;
      never checks a number.

  run.py ab PARENT CHANGE [--pairs N] [--seconds T] [--seed S]
            [--workload W ...] [--out FILE]
      Compares two builds (each a perf_bench binary or a directory holding
      one) with N >= 10 alternating pairs per workload, and gives a verdict
      per end-to-end metric and workload against the BENCHMARK.json bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
SOURCE_DIR = os.path.join(ROOT, "bench", "perf")


class BenchError(Exception):
    """A failure that ends the run without a result."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    """Configures and builds perf_bench (incremental after the first run);
    returns the binary path."""
    def step(cmd, timeout):
        try:
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=timeout)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"{' '.join(cmd)}: {e}")
        if res.returncode != 0:
            raise BenchError(f"{' '.join(cmd)} failed:\n"
                             + (res.stdout + res.stderr)[-4000:])

    step(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
          "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
          f"-DLP_GIT_COMMIT={git_commit()}"], 300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step(["cmake", "--build", BUILD_DIR, "--target", "perf_bench", "-j", jobs],
         840)
    return os.path.join(BUILD_DIR, "perf_bench")


def resolve_binary(path):
    if os.path.isdir(path):
        path = os.path.join(path, "perf_bench")
    if not os.access(path, os.X_OK):
        raise BenchError(f"no perf_bench binary at {path}")
    return path


def run_bench(binary, workload, seed, seconds, trace=False, smoke=False):
    """Runs one perf_bench process; returns (exit code, result JSON)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:  # relative to ROOT, the working directory below
        cmd += ["--trace", os.path.join(".bench_build", f"trace-{workload}.json")]
    if smoke:
        cmd.append("--smoke")
    os.makedirs(BUILD_DIR, exist_ok=True)
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120 + 2 * seconds)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: timed out")
    lines = res.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload}: no result (exit {res.returncode})\n"
                         + res.stderr[-2000:])
    return res.returncode, result


def check_metrics(result, expected):
    """Names of expected metrics missing or carrying the wrong unit."""
    got = result.get("metrics", {})
    return [m["name"] for m in expected
            if m["name"] not in got or got[m["name"]].get("unit") != m["unit"]]


def print_result(workload, result, expected):
    for m in expected:
        v = result["metrics"].get(m["name"])
        if v is not None:
            print(f"{workload} {m['name']} {v['value']!r} {v['unit']} "
                  f"(n={v.get('samples', 1)})")
    for g in result.get("gates", []):
        if not g["ok"]:
            print(f"{workload} gate {g['name']} FAILED: {g['detail']}")


def expected_metrics(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def cmd_single(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload}; one of {names}")
    trace = args.trace == 1
    binary = build()
    code, result = run_bench(binary, args.workload, args.seed, args.seconds,
                             trace=trace)
    expected = expected_metrics(spec, trace)
    missing = check_metrics(result, expected)
    if missing:
        log(f"missing or mis-unit metrics: {missing}")
    correct = bool(result.get("correct")) and code == 0 and not missing
    print_result(args.workload, result, expected)
    metrics = {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                           "unit": m["unit"]}
               for m in expected if m["name"] not in missing}
    print(json.dumps({"correct": correct,
                      "attempted": max(1, int(result.get("attempted", 0))),
                      "failed": int(result.get("failed", 0)),
                      "metrics": metrics}))
    return 0 if correct else 1


def cmd_all(args):
    """Untraced runs on seeds seed..seed+repeat-1 (plus one traced run on
    `seed` with --trace) per workload, then the spread of each end-to-end
    metric: (q3 - q1) / median, which must stay within a third of its bound
    (setup_s excepted)."""
    spec = load_spec()
    binary = build()
    merged = {"seed": args.seed, "seconds": args.seconds,
              "repeat": args.repeat, "host": None, "runs": [], "summary": {}}
    ok = True
    for w in spec["workloads"]:
        runs = [(args.seed + i, False) for i in range(args.repeat)]
        if args.trace:
            runs.append((args.seed, True))
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed, trace in runs:
            code, result = run_bench(binary, w["name"], seed, args.seconds,
                                     trace=trace)
            expected = expected_metrics(spec, trace)
            missing = check_metrics(result, expected)
            print_result(w["name"], result, expected)
            if missing:
                print(f"{w['name']} missing metrics: {missing}")
            ok = ok and code == 0 and not missing and result.get("correct")
            merged["host"] = merged["host"] or result.get("host")
            merged["runs"].append({k: result.get(k) for k in (
                "workload", "seed", "trace", "correct", "attempted", "failed",
                "info", "gates", "metrics")})
            if not trace and not missing:
                for m in spec["end_to_end"]:
                    values[m["name"]].append(
                        result["metrics"][m["name"]]["value"])
        if args.repeat < 2:
            continue
        summary = merged["summary"][w["name"]] = {}
        for m in spec["end_to_end"]:
            q1, med, q3 = quartiles(values[m["name"]])
            spread = (q3 - q1) / med if med else 0.0
            steady = m["name"] == "setup_s" or spread <= m["bound"] / 3
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                  "spread": spread, "bound": m["bound"]}
            print(f"{w['name']} {m['name']} median {med:.6g} {m['unit']} "
                  f"spread {spread:.4f} bound {m['bound']}"
                  + ("" if steady else "  (spread above a third of bound)"))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(merged, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


def cmd_smoke(args):
    spec = load_spec()
    binary = resolve_binary(args.binary) if args.binary else build()
    failures = []
    for w in spec["workloads"]:
        for trace in (False, True):
            code, result = run_bench(binary, w["name"], 1, 0, trace=trace,
                                     smoke=True)
            missing = check_metrics(result, expected_metrics(spec, trace))
            bad_gates = [g["name"] for g in result.get("gates", [])
                         if not g["ok"]]
            mode = "traced" if trace else "untraced"
            status = "ok" if code == 0 and not missing and not bad_gates \
                else "FAILED"
            print(f"{w['name']} {mode}: {status}"
                  + (f" missing={missing}" if missing else "")
                  + (f" gates={bad_gates}" if bad_gates else ""))
            if status != "ok":
                failures.append(f"{w['name']} {mode}")
    if failures:
        print(f"smoke failed: {failures}")
        return 1
    print("smoke ok")
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change):
    """improved: the change wins >= 9/10 of the pairs and the medians differ
    by more than the parent's quartile spread; worse: the median is worse
    than the parent's by more than the bound; unresolved: the parent's
    spread is wider than the bound and not every change run beats every
    parent run; otherwise no regression."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    better = [c < p if lower else c > p for p, c in zip(parent, change)]
    worse = [c > p if lower else c < p for p, c in zip(parent, change)]
    wins = sum(better)
    win_share = wins / len(parent)
    spread = p3 - p1
    moved_better = (pm - cm) if lower else (cm - pm)
    all_better = (max(change) < min(parent)) if lower \
        else (min(change) > max(parent))
    regress = -moved_better / pm if pm else 0.0
    if win_share >= 0.9 and moved_better > spread:
        v = "improved"
    elif regress > bound:
        v = "worse"
    elif pm and spread / pm > bound and not all_better:
        v = "unresolved"
    else:
        v = "no regression"
    return {"parent_median": pm, "parent_q1": p1, "parent_q3": p3,
            "change_median": cm, "change_q1": c1, "change_q3": c3, "wins": wins,
            "losses": sum(worse), "pairs": len(parent),
            "win_share": win_share, "verdict": v}


def cmd_ab(args):
    spec = load_spec()
    if args.pairs < 10:
        raise BenchError("ab needs at least 10 pairs")
    sides = {"parent": resolve_binary(args.parent),
             "change": resolve_binary(args.change)}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    report = {"pairs": args.pairs, "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in workloads:
        values = {side: {m["name"]: [] for m in spec["end_to_end"]}
                  for side in sides}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                code, result = run_bench(sides[side], name, args.seed + i,
                                         args.seconds)
                if code != 0 or not result.get("correct"):
                    raise BenchError(f"{side} {name} pair {i}: gates failed")
                for m in spec["end_to_end"]:
                    values[side][m["name"]].append(
                        result["metrics"][m["name"]]["value"])
            log(f"{name}: pair {i + 1}/{args.pairs} done")
        rows = {}
        for m in spec["end_to_end"]:
            rows[m["name"]] = verdict(m, values["parent"][m["name"]],
                                      values["change"][m["name"]])
            r = rows[m["name"]]
            ok = ok and r["verdict"] != "worse"
            print(f"{name:16} {m['name']:12} parent {r['parent_median']:.6g} "
                  f"[{r['parent_q1']:.6g}, {r['parent_q3']:.6g}]  change "
                  f"{r['change_median']:.6g} [{r['change_q1']:.6g}, "
                  f"{r['change_q3']:.6g}] {m['unit']}  wins "
                  f"{r['wins']}/{r['pairs']}  {r['verdict']}")
        report["workloads"][name] = {"values": values, "verdicts": rows}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


def main(argv):
    if argv and argv[0] in ("all", "smoke", "ab"):
        p = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "ab":
            p.add_argument("parent")
            p.add_argument("change")
            p.add_argument("--pairs", type=int, default=10)
            p.add_argument("--workload", action="append")
        if argv[0] == "smoke":
            p.add_argument("--binary")
        else:
            p.add_argument("--seed", type=int, default=1)
            p.add_argument("--seconds", type=int,
                           default=load_spec()["run_seconds"])
            p.add_argument("--out")
        if argv[0] == "all":
            p.add_argument("--repeat", type=int, default=1)
            p.add_argument("--trace", action="store_true")
        args = p.parse_args(argv[1:])
        return {"all": cmd_all, "smoke": cmd_smoke, "ab": cmd_ab}[argv[0]](args)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return cmd_single(p.parse_args(argv))


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log(f"run.py: {e}")
        sys.exit(2)
    except (OSError, ValueError, KeyError) as e:
        log(f"run.py: {type(e).__name__}: {e}")
        sys.exit(2)
