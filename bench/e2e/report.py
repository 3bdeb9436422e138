#!/usr/bin/env python3
"""Summaries and checks of end-to-end benchmark runs, for the shell scripts.

  report.py merge <out.json> <commit> <run-output>...
      Merges the `# record` lines of mcsort_e2e outputs into one BENCH_*.json:
      end-to-end metrics from the untraced runs, per-layer metrics from the
      traced ones.
  report.py compare <results.jsonl>
      Two trees run in pairs: each side's median and quartiles, how many
      pairs B won, and a verdict per metric and workload.
  report.py noise <results.jsonl>
      One tree run N times: each metric's spread (interquartile range over
      median) against its bound in BENCHMARK.json.
  report.py collect <run-output> <side> <workload> <pair> <exit-status>
      Prints one results.jsonl line for an mcsort_e2e run (compare.sh).
  report.py smoke <run-output>...
      Checks traced smoke runs: correct results, metric names and units as
      in BENCHMARK.json, and a trace that parses, in which the median read's
      span self times add up to its latency within 5%.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def read_record(path):
    with open(path) as f:
        for line in f:
            if line.startswith("# record "):
                return json.loads(line[len("# record "):])
    return None


def merge(out, commit, paths):
    bench = {"commit": commit, "benchmark": "bench/e2e", "machine": None,
             "workloads": {}}
    for path in paths:
        record = read_record(path)
        if record is None:
            sys.exit("report.py: no record in " + path)
        bench["machine"] = bench["machine"] or record["machine"]
        entry = bench["workloads"].setdefault(record["workload"], {
            "seed": record["seed"], "window_s": record["seconds"],
            "correct": True, "attempted": 0, "failed": 0})
        entry["correct"] = entry["correct"] and record["correct"]
        entry["attempted"] += record["attempted"]
        entry["failed"] += record["failed"]
        if record["trace"]:
            entry["per_layer"] = record["per_layer"]
            entry["trace_file"] = record["trace_file"]
        else:
            entry["end_to_end"] = record["end_to_end"]
            entry["latency_ms"] = record["latency_ms"]
            entry["setup_runs_s"] = record["setup_runs_s"]
    with open(out, "w") as f:
        json.dump(bench, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + out)
    return 0 if all(w["correct"] for w in bench["workloads"].values()) else 1


def load_results(path):
    rows = []
    with open(path) as f:
        for line in f:
            if line.strip():
                rows.append(json.loads(line))
    return rows


def fmt(v):
    return "%.4g" % v


def compare(path):
    bench = load_benchmark()
    rows = load_results(path)
    failed = [r for r in rows if not r["ok"]]
    for r in failed:
        print("FAILED run: side %s pair %s workload %s" %
              (r["side"], r["pair"], r["workload"]))
    print("%-12s %-16s %-28s %-28s %7s %7s  %s" %
          ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
           "B-A %", "B wins", "verdict"))
    for workload in sorted({r["workload"] for r in rows}):
        pairs = {}
        for r in rows:
            if r["workload"] == workload and r["ok"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        complete = [p for p in sorted(pairs) if len(pairs[p]) == 2]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            lower = metric["better"] == "lower"
            a = [pairs[p]["a"][name]["value"] for p in complete]
            b = [pairs[p]["b"][name]["value"] for p in complete]
            if not complete:
                continue
            wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
            losses = sum(1 for x, y in zip(a, b) if (y > x if lower else y < x))
            qa, qb = quartiles(a), quartiles(b)
            spread = qa[2] - qa[0]
            apart = abs(qb[1] - qa[1]) > spread
            n = len(complete)
            if wins >= 0.9 * n and apart:
                verdict = "better"
            elif losses >= 0.9 * n and apart:
                verdict = "worse"
            else:
                verdict = "unresolved"
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse_by = change if lower else -change
            if worse_by > metric["bound"]:
                verdict += ", past bound %.0f%%" % (100 * metric["bound"])
            print("%-12s %-16s %-28s %-28s %+6.1f%% %3d/%-3d  %s" % (
                workload, name,
                "%s [%s, %s]" % (fmt(qa[1]), fmt(qa[0]), fmt(qa[2])),
                "%s [%s, %s]" % (fmt(qb[1]), fmt(qb[0]), fmt(qb[2])),
                100 * change, wins, n, verdict))
    return 1 if failed else 0


def noise(path):
    bench = load_benchmark()
    rows = load_results(path)
    failed = [r for r in rows if not r["ok"]]
    for r in failed:
        print("FAILED run: %s run %s" % (r["workload"], r["pair"]))
    print("%-12s %-16s %10s %10s %10s %8s %7s  %s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound",
           "status"))
    for workload in sorted({r["workload"] for r in rows}):
        runs = [r["metrics"] for r in rows if r["workload"] == workload and r["ok"]]
        for metric in bench["end_to_end"]:
            values = [m[metric["name"]]["value"] for m in runs]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = metric["bound"]
            status = ("ok" if spread < bound / 3 else
                      "within bound" if spread <= bound else "wider than bound")
            print("%-12s %-16s %10s %10s %10s %7.1f%% %6.0f%%  %s" % (
                workload, metric["name"], fmt(med), fmt(q1), fmt(q3),
                100 * spread, 100 * bound, status))
    return 1 if failed else 0


def collect(log, side, workload, pair, status):
    with open(log) as f:
        lines = f.read().splitlines()
    result = {}
    try:
        result = json.loads(lines[-1]) if lines else {}
    except ValueError:
        pass
    ok = status == "0" and result.get("correct") is True
    print(json.dumps({"side": side, "pair": int(pair), "workload": workload,
                      "ok": ok, "metrics": result.get("metrics", {})}))
    return 0


def median_request_error(path):
    """|sum of span self times - latency| / latency of the median read."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    requests = {}
    for e in events:
        if e["cat"] == "read":
            requests.setdefault(e["args"]["request"], []).append(e)
    if not requests:
        return None

    def root(spans):
        return next(s for s in spans if s["args"]["parent"] == 0)

    ordered = sorted(requests.values(), key=lambda spans: root(spans)["dur"])
    spans = ordered[len(ordered) // 2]
    covered = {}
    for s in spans:
        parent = s["args"]["parent"]
        covered[parent] = covered.get(parent, 0) + s["dur"]
    total = sum(max(0.0, s["dur"] - covered.get(s["args"]["id"], 0))
                for s in spans)
    latency = root(spans)["dur"]
    return abs(total - latency) / latency


def smoke(paths):
    bench = load_benchmark()
    want_e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    want_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    failures = 0
    for path in paths:
        workload = os.path.basename(path).rsplit(".", 1)[0]
        problems = []
        record = read_record(path)
        with open(path) as f:
            lines = f.read().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if result is None or record is None:
            problems.append("no result or record line")
        else:
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("result keys %s" % sorted(result))
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append("%s results failed" % result.get("failed"))
            got = [(k, v["unit"]) for k, v in result["metrics"].items()]
            if got != want_layer:
                problems.append("per-layer metrics differ from BENCHMARK.json")
            got = [(k, v["unit"]) for k, v in record["end_to_end"].items()]
            if got != want_e2e:
                problems.append("end-to-end metrics differ from BENCHMARK.json")
            try:
                error = median_request_error(record["trace_file"])
                if error is None or error > 0.05:
                    problems.append("median read's self times off by %s" % error)
            except (OSError, ValueError, KeyError, StopIteration) as e:
                problems.append("trace does not parse: %r" % e)
        if problems:
            failures += 1
            print("FAIL %-12s %s" % (workload, "; ".join(problems)))
        else:
            e2e = record["end_to_end"]
            print("ok   %-12s qps %8.1f  p50 %8.3f ms  p90 %8.3f ms" % (
                workload, e2e["qps"]["value"], record["latency_ms"]["p50"],
                e2e["latency_p90_ms"]["value"]))
    return 1 if failures else 0


def main():
    if len(sys.argv) == 7 and sys.argv[1] == "collect":
        return collect(*sys.argv[2:])
    if len(sys.argv) >= 3 and sys.argv[1] == "smoke":
        return smoke(sys.argv[2:])
    if len(sys.argv) >= 4 and sys.argv[1] == "merge":
        return merge(sys.argv[2], sys.argv[3], sys.argv[4:])
    if len(sys.argv) == 3 and sys.argv[1] == "compare":
        return compare(sys.argv[2])
    if len(sys.argv) == 3 and sys.argv[1] == "noise":
        return noise(sys.argv[2])
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main())
