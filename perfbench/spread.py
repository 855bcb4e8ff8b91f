#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each workload and prints, per
metric, the median and the quartile spread (Q3 - Q1) / median, as
statistics.quantiles(values, n=4) gives the quartiles, next to the
metric's bound from BENCHMARK.json. Run it from the repository root:

    python3 perfbench/spread.py --seeds 1-10 --workloads dc-paced
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def cpu_ticks():
    """Total and steal jiffies from /proc/stat (steal: time the
    hypervisor gave this machine's CPUs to other guests)."""
    try:
        f = open("/proc/stat").readline().split()[1:]
    except OSError:
        return 0, 0
    t = [int(x) for x in f]
    return sum(t), (t[7] if len(t) > 7 else 0)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = {}
    record = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for wl in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            t0, s0 = cpu_ticks()
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            t1, s1 = cpu_ticks()
            steal = 100 * (s1 - s0) / max(t1 - t0, 1)
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed} (steal {steal:.1f}%): " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in sorted(res["metrics"].items())), flush=True)
        for name, vals in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            worst[(wl, name)] = spread
            record["workloads"].setdefault(wl, {})[name] = {
                "values": vals, "q1": q1, "median": med, "q3": q3,
                "spread": spread, "bound": bounds[name]}
            print(f"  {wl:11s} {name:12s} median {med:12.6g}  Q1 {q1:12.6g}  Q3 {q3:12.6g}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}  "
                  f"{'ok' if spread < bounds[name] / 3 else 'WIDE'}", flush=True)
    os.makedirs(".bench_out", exist_ok=True)
    with open(".bench_out/spread.json", "w") as f:
        json.dump(record, f, indent=2)
    print(json.dumps({f"{w}/{n}": round(s, 4) for (w, n), s in worst.items()}))


if __name__ == "__main__":
    main()
