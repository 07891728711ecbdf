#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/selftest.py

Checks that
  - every metric name in BENCHMARK.json matches [A-Za-z0-9_.-]+ and is used once;
  - a --trace 0 run of each workload emits every end-to-end metric with its
    unit, a --trace 1 run every per-layer metric, and both are correct;
  - the design_* metrics repeat exactly across two runs with other seeds;
  - on compile-cold, emit-vhdl plus emit-verilog take more self time than
    any other layer;
  - in a directory holding only BENCHMARK.json and perfbench/, the command
    fails without printing a result.
Exits non-zero on the first failed check.
"""
import json
import os
import re
import shutil
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SECONDS = "1"


def fail(msg):
    print(f"selftest: FAIL {msg}", file=sys.stderr)
    sys.exit(1)


def run(bench, workload, seed, trace, cwd="."):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
                              "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)


def result_of(bench, workload, seed, trace):
    proc = run(bench, workload, seed, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} seed {seed} trace {trace}: not correct")
    return result


def expect_metrics(result, specs, what):
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            fail(f"{what}: metric {spec['name']} not emitted")
        if got["unit"] != spec["unit"]:
            fail(f"{what}: {spec['name']} unit {got['unit']} != {spec['unit']}")


def check_chrome_trace(path):
    """The traced run's export: complete events whose parents enclose them."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    if not events:
        fail(f"{path}: no events")
    for e in events:
        if e["ph"] != "X" or e["dur"] < 0:
            fail(f"{path}: malformed event {e}")
        parent = e["args"]["parent"]
        if parent >= 0:
            p = events[parent]
            if p["ts"] > e["ts"] or p["ts"] + p["dur"] < e["ts"] + e["dur"] - 1e-3:
                fail(f"{path}: span {e['name']} escapes its parent {p['name']}")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for n in names:
        if not NAME.match(n):
            fail(f"metric name {n!r} does not match [A-Za-z0-9_.-]+")
    if len(set(names)) != len(names):
        fail("a metric name is used twice")

    design = {}
    for w in bench["workloads"]:
        name = w["name"]
        for seed in (11, 12):
            r = result_of(bench, name, seed, 0)
            expect_metrics(r, bench["end_to_end"], f"{name} trace 0")
            d = {k: v["value"] for k, v in r["metrics"].items() if k.startswith("design_")}
            if design and d != design:
                fail(f"{name} seed {seed}: design metrics {d} != {design}")
            design = d
        traced = result_of(bench, name, 13, 1)
        expect_metrics(traced, bench["per_layer"], f"{name} trace 1")
        check_chrome_trace(os.path.join(".bench_build", "perfbench", f"trace-{name}-13.json"))
        print(f"selftest: {name} ok", file=sys.stderr)
        if name == "compile-cold":
            m = {k: v["value"] for k, v in traced["metrics"].items()}
            emit = m["pass.emit-vhdl.ms"] + m["pass.emit-verilog.ms"]
            others = {k: v for k, v in m.items()
                      if k.endswith(".ms") and k not in ("pass.emit-vhdl.ms", "pass.emit-verilog.ms")}
            top = max(others, key=others.get)
            print(f"selftest: compile-cold emit share {m['pass.emit.share_pct']:.1f}% "
                  f"({emit:.3f} ms/job); largest other layer {top} {others[top]:.3f} ms/job",
                  file=sys.stderr)
            if emit <= others[top]:
                fail(f"compile-cold: emit-vhdl + emit-verilog ({emit:.3f} ms/job) is not the "
                     f"largest share of compile self time ({top} {others[top]:.3f} ms/job)")

    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for p in bench["paths"]:
        shutil.copytree(p, os.path.join(bare, p))
    proc = run(bench, bench["workloads"][0]["name"], 1, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the command succeeded or printed a result without the repository sources")
    print("selftest: all checks passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
