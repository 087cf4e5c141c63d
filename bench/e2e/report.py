#!/usr/bin/env python3
"""tutbench reports (standard library only).

  python3 bench/e2e/report.py trace FILE
      The per-layer ledger of a traced run's Chrome trace: self time, time
      per op and share of op time for every span, the same summed per layer
      (module), the probes, and the set-up ledger.

  python3 bench/e2e/report.py compare A.json B.json [C.json ...]
      For every (metric, workload): median and quartiles of each file's runs,
      the delta of each later file's median against A's, and a verdict
      against the metric's bound in BENCHMARK.json. A file holds the output
      of one or more `run.py --workload all` runs; every line that is a JSON
      object with "results" counts as one run. The verdict is "unresolved"
      when a side's spread (quartile distance over median) exceeds the bound,
      unless every run of one side beats every run of the other. Exits 1
      when a metric regressed beyond its bound.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def self_times(events):
    """Per event: (self time us, root event). Children nest within a tid."""
    by_key = {(e["tid"], e["args"]["id"]): e for e in events}
    child_us = defaultdict(float)
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0:
            child_us[(e["tid"], parent)] += e["dur"]
    out = []
    for e in events:
        root = e
        while root["args"]["parent"] >= 0:
            root = by_key[(root["tid"], root["args"]["parent"])]
        out.append((e["dur"] - child_us[(e["tid"], e["args"]["id"])], root))
    return out


def trace_report(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    op_us = setup_us = 0.0
    ops = 0
    spans = defaultdict(lambda: [0, 0.0])  # name -> [calls, self us]
    setup = defaultdict(float)
    probes = defaultdict(lambda: [0, 0.0])
    for (self_us, root), e in zip(self_times(events), events):
        name, rname = e["name"], root["name"]
        if rname.startswith("probe."):
            probes[name[len("probe."):]][0] += 1
            probes[name[len("probe."):]][1] += e["dur"]
        elif rname == "setup":
            setup[name] += self_us
            setup_us += e["dur"] if e is root else 0
        else:
            spans[name][0] += 1
            spans[name][1] += self_us
            if e is root:
                op_us += e["dur"]
                ops += 1
    if ops == 0:
        sys.exit(f"{path}: no op spans")

    def row(name, calls, us):
        print(f"  {name:28s} {calls:9d} {us / 1e3:11.2f} {us / ops:11.2f}"
              f" {100 * us / op_us:7.2f}%")

    print(f"{ops} ops, {op_us / 1e3:.1f} ms traced op time "
          f"({op_us / ops:.1f} us/op); set-up {setup_us / 1e3:.1f} ms")
    print(f"  {'span (self time)':28s} {'calls':>9s} {'self ms':>11s}"
          f" {'us/op':>11s} {'share':>8s}")
    for name, (calls, us) in sorted(spans.items(), key=lambda kv: -kv[1][1]):
        row(name + (" (unattributed)" if name.startswith("op.") else ""),
            calls, us)
    layers = defaultdict(float)
    for name, (_, us) in spans.items():
        if not name.startswith("op."):
            layers[name.split(".")[0]] += us
    attributed = sum(layers.values())
    print(f"layers: {100 * attributed / op_us:.1f}% of op time attributed")
    for layer, us in sorted(layers.items(), key=lambda kv: -kv[1]):
        row(layer, spans_count(spans, layer), us)
    if layers:
        top = max(layers, key=layers.get)
        print(f"top layer: {top} ({100 * layers[top] / op_us:.1f}% of op time)")
    if probes:
        print("probes (extra calls outside the ops; each estimates part of"
              " another span):")
        for name, (calls, us) in sorted(probes.items()):
            row(name, calls, us)
    if setup_us > 0:
        print("set-up ledger (self time, share of set-up):")
        for name, us in sorted(setup.items(), key=lambda kv: -kv[1]):
            print(f"  {name:28s} {us / 1e3:11.2f} ms {100 * us / setup_us:7.2f}%")


def spans_count(spans, layer):
    return sum(c for n, (c, _) in spans.items() if n.split(".")[0] == layer)


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and "results" in obj:
                runs.append(obj["results"])
    if not runs:
        sys.exit(f"{path}: no `run.py --workload all` result lines")
    return runs


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    # Inclusive quartiles: the linear interpolation tutbench's quantile()
    # uses, which stays inside the data for small run counts.
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(paths):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sides = [load_runs(p) for p in paths]
    workloads = [w["name"] for w in bench["workloads"]]
    regressed = False
    print(f"{'metric':16s} {'workload':14s} {'file':>4s} {'median':>12s}"
          f" {'q1':>12s} {'q3':>12s} {'delta':>8s}  verdict")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        for workload in workloads:
            vals = [[r[workload]["metrics"][name]["value"] for r in runs
                     if workload in r] for runs in sides]
            if not vals[0]:
                continue
            q1a, ma, q3a = summary(vals[0])
            print(f"{name:16s} {workload:14s} {'A':>4s} {ma:12.6g} {q1a:12.6g}"
                  f" {q3a:12.6g}")
            for i, v in enumerate(vals[1:], start=1):
                if not v:
                    continue
                q1b, mb, q3b = summary(v)
                worse = (mb - ma) / ma if lower else (ma - mb) / ma
                spread = max((q3a - q1a) / ma, (q3b - q1b) / mb)
                a_all, b_all = vals[0], v
                b_wins = (max(b_all) < min(a_all)) if lower else (min(b_all) > max(a_all))
                a_wins = (max(a_all) < min(b_all)) if lower else (min(a_all) > max(b_all))
                if spread > bound and not (a_wins or b_wins):
                    verdict = "unresolved (spread %.3f > bound %.2f)" % (spread, bound)
                elif worse > bound:
                    verdict = "REGRESSION (bound %.2f)" % bound
                    regressed = True
                else:
                    verdict = "ok (bound %.2f)" % bound
                delta = (mb - ma) / ma
                print(f"{'':31s} {chr(ord('A') + i):>4s} {mb:12.6g} {q1b:12.6g}"
                      f" {q3b:12.6g} {100 * delta:+7.2f}%  {verdict}")
    return 1 if regressed else 0


def main():
    args = sys.argv[1:]
    if len(args) == 2 and args[0] == "trace":
        trace_report(args[1])
        return 0
    if len(args) >= 3 and args[0] == "compare":
        return compare(args[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
