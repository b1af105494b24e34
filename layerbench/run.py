#!/usr/bin/env python3
"""layerbench runner.

Run one workload (builds the benchmark from the checkout first):

    python3 layerbench/run.py --workload corpus_short --seed 1 \
        --seconds 20 --trace 0

Compare two sets of saved run outputs (one file per run):

    python3 layerbench/run.py --compare SET_A_DIR SET_B_DIR

Self-tests:

    python3 layerbench/run.py --selftest

The last line a run prints is the result object; the lines before it
carry the run's detail and its host record (seed, nproc, wall span,
steal time and load average across the run).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "layerbench")
BINARY = os.path.join(BUILD, "layerbench")
WORKLOADS = ("corpus_long", "corpus_short", "torture")


def build():
    """Configure once, then bring the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("layerbench: no crispsim sources in %s" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD] + gen +
                       ["-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "layerbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def host_sample():
    """Steal ticks and load average now (None where /proc lacks them)."""
    sample = {"time": time.time(), "steal_ticks": None, "loadavg": None}
    try:
        with open("/proc/stat") as f:
            cpu = f.readline().split()
        sample["steal_ticks"] = int(cpu[8])
        with open("/proc/loadavg") as f:
            sample["loadavg"] = [float(x) for x in f.read().split()[:3]]
    except (OSError, IndexError, ValueError):
        pass
    return sample


def host_record(args, before, after):
    steal = None
    if before["steal_ticks"] is not None and after["steal_ticks"] is not None:
        steal = ((after["steal_ticks"] - before["steal_ticks"]) /
                 os.sysconf("SC_CLK_TCK"))
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(),
        "wall_start": before["time"], "wall_end": after["time"],
        "wall_s": after["time"] - before["time"],
        "steal_s": steal,
        "loadavg_before": before["loadavg"], "loadavg_after": after["loadavg"],
    }


def invoke(workload, seed, seconds, trace, extra=()):
    """Run the binary; return (returncode, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, "spans-%s-%d.jsonl" % (workload, seed))]
    proc = subprocess.run(cmd + list(extra), stdout=subprocess.PIPE,
                          text=True)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    return json.loads(lines[-1])


def detail_of(lines):
    for line in lines:
        if line.startswith("layerbench detail "):
            return json.loads(line[len("layerbench detail "):])
    return None


def run_once(args):
    build()
    before = host_sample()
    code, lines = invoke(args.workload, args.seed, args.seconds, args.trace)
    after = host_sample()
    if code != 0 or not lines:
        sys.exit("layerbench: the benchmark exited with %d" % code)
    result = result_of(lines)
    for line in lines[:-1]:
        print(line)
    print("layerbench host " + json.dumps(host_record(args, before, after)))
    print(json.dumps(result))


def load_set(directory):
    """workload -> metric -> [values] over the run outputs in a directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        detail = detail_of(lines) if lines else None
        if detail is None:
            continue
        result = result_of(lines)
        per = runs.setdefault(detail["workload"], {})
        for metric, v in result["metrics"].items():
            per.setdefault(metric, []).append(v["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(dir_a, dir_b):
    """Print each set's median and quartiles per workload and metric, the
    gap between the medians and whether the sets agree within the bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    a, b = load_set(dir_a), load_set(dir_b)
    print("%-13s %-17s %12s %12s %12s %7s | %12s %12s %12s %7s | %8s %6s %s" %
          ("workload", "metric", "A q1", "A median", "A q3", "A iqr%",
           "B q1", "B median", "B q3", "B iqr%", "gap%", "bound%", "agree"))
    all_agree = True
    for workload in sorted(set(a) | set(b)):
        for m in spec["end_to_end"]:
            va = a.get(workload, {}).get(m["name"])
            vb = b.get(workload, {}).get(m["name"])
            if not va or not vb:
                print("%-13s %-17s missing in one set" % (workload, m["name"]))
                all_agree = False
                continue
            qa, qb = quartiles(va), quartiles(vb)
            spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
            gap = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = gap if m["better"] == "lower" else -gap
            agree = (worse <= m["bound"] and
                     max(spread_a, spread_b) <= m["bound"])
            all_agree = all_agree and agree
            print("%-13s %-17s %12.6g %12.6g %12.6g %7.2f | %12.6g %12.6g "
                  "%12.6g %7.2f | %8.2f %6.1f %s" %
                  (workload, m["name"], qa[0], qa[1], qa[2], 100 * spread_a,
                   qb[0], qb[1], qb[2], 100 * spread_b, 100 * gap,
                   100 * m["bound"], "yes" if agree else "NO"))
    return 0 if all_agree else 1


def check_spans(path):
    """Independent check of a written span file. Returns problems."""
    requests, spans = {}, []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if "span" in rec:
                spans.append(rec)
            else:
                if rec["request"] in requests:
                    return ["request id %d used twice" % rec["request"]]
                requests[rec["request"]] = rec
    problems = []
    roots = {}
    child_time = [0] * len(spans)
    for s in spans:
        if s["request"] not in requests:
            problems.append("span %d has no request" % s["span"])
        if s["parent"] < 0:
            roots[s["request"]] = roots.get(s["request"], 0) + 1
            continue
        p = spans[s["parent"]]
        if (p["request"] != s["request"] or s["start_ns"] < p["start_ns"]
                or s["end_ns"] > p["end_ns"]):
            problems.append("span %d lies outside its parent" % s["span"])
        child_time[s["parent"]] += s["end_ns"] - s["start_ns"]
    for r in requests:
        if roots.get(r, 0) != 1:
            problems.append("request %d has %d roots" % (r, roots.get(r, 0)))
    for s in spans:
        if s["end_ns"] - s["start_ns"] - child_time[s["span"]] < 0:
            problems.append("span %d has negative self time" % s["span"])
    if not spans:
        problems.append("no spans written")
    return problems[:5]


def selftest():
    build()
    failures = []

    def expect(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    code = subprocess.run([BINARY, "--selftest"]).returncode
    expect(code == 0, "in-process self-tests (recorder, analysis steps)")

    # A corrupted reference is a failed operation, never a time.
    code, lines = invoke("corpus_short", 1, 1, 0)
    clean = result_of(lines)
    expect(code == 0 and clean["correct"] and clean["failed"] == 0,
           "clean run reports no failed operation")
    for kind in ("golden", "lockstep", "exit"):
        code, lines = invoke("corpus_short", 1, 1, 0, ["--corrupt", kind])
        res = result_of(lines)
        expect(code == 0 and not res["correct"] and res["failed"] > 0,
               "corrupted %s reference is reported as failed" % kind)

    # One seed, two runs: identical exact metrics and per-layer counts.
    exact = ("sim_cycles", "opt_sim_cycles", "table4_error_pct")
    for workload in ("corpus_short", "torture"):
        outs = [invoke(workload, 7, 1, 0)[1] for _ in range(2)]
        r = [result_of(o)["metrics"] for o in outs]
        c = [detail_of(o)["counts"] for o in outs]
        expect(all(r[0][m] == r[1][m] for m in exact) and c[0] == c[1],
               "%s: one seed gives identical exact metrics and counts" %
               workload)
    code, lines = invoke("torture", 8, 1, 0)
    expect(detail_of(lines)["counts"] != c[0],
           "torture: another seed gives other programs")

    # Traced spans nest, self times are never negative, one id a request.
    code, lines = invoke("corpus_short", 3, 1, 1)
    expect(code == 0 and result_of(lines)["correct"], "traced run is correct")
    problems = check_spans(os.path.join(BUILD, "spans-corpus_short-3.jsonl"))
    expect(not problems, "written spans nest" +
           (" (%s)" % "; ".join(problems) if problems else ""))

    print("layerbench selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("SET_A", "SET_B"))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    run_once(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
