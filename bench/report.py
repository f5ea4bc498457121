"""Run every workload once untraced and once traced, one process at a
time, and print every metric by name with its unit and sample count.

    python3 bench/report.py [--seed 1] [--record bench/RECORD.json]

Each run lasts BENCHMARK.json's run_seconds, as in the contract run.
With --record it also writes the machine, the generated-input
properties of each workload and every metric to a JSON record.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

NOTE = ("All numbers are per-process wall time, CPU time and peak RSS of "
        "one single-threaded benchmark process; machine-wide tracing and "
        "dropping the file cache are not available where these were taken.")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT).stdout
    lines = out.strip().splitlines()
    props = json.loads(next(l for l in lines if l.startswith("properties: "))
                       [len("properties: "):])
    return props, json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--record", type=Path, default=None)
    args = p.parse_args()

    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "cpu_model": cpu_model(), "note": NOTE, "seed": args.seed,
              "seconds": spec["run_seconds"], "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        entry = {"why": w["why"]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            props, result = run(name, args.seed, spec["run_seconds"], trace)
            samples = props.pop("samples")
            print(f"== {name} ({key}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"{name:13s} {metric:48s} {m['value']:14.6f} "
                      f"{m['unit']:6s} samples={samples[metric]}")
            if trace:
                print(f"{name:13s} top self-time layer {props['top_layer']}, "
                      "prediction " + ("holds" if props["prediction_holds"]
                                       else "does not hold"))
            entry[key] = {metric: dict(m, samples=samples[metric])
                          for metric, m in result["metrics"].items()}
            entry[key + "_run"] = dict(props, attempted=result["attempted"],
                                       failed=result["failed"],
                                       correct=result["correct"])
        record["workloads"][name] = entry
    if args.record:
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
