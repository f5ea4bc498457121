"""hnbundles benchmark: one seeded workload, timed as a closed loop.

    python3 bench/run.py --workload canon_oracle --seed 1 --seconds 36 --trace 0

One caller issues each op only after the last one returned, in this one
process and thread.  Every op's output is checked outside the timed
region.  A run times a fixed number of ops, sized to take well under
--seconds.  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 the run times half the ops untraced and the same
half traced, and carries the per-layer metrics.  The
lines before it name every metric with its unit and sample count.  All
times are in reference units (see speed.py); raw wall figures are
printed on the `wall` lines.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from speed import CAL_REF_NS, kernel_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 15
SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
import hnbundles, hnbundles.cli
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import speed
kernel = sorted(speed.kernel_ns() for _ in range(7))[3]
print(t1 - t0, kernel)
"""
SPAN_CAP = 1_500_000
# A loop stops early only when it has run this many times its --seconds.
GUARD = 2

LAYERS = ("cli", "canon", "strata", "lattice", "intlin", "hnfilt", "bundle",
          "parabolic", "rootsys")

# function-level per-layer metrics: (traced function, statistic)
FUNCTION_METRICS = (
    ("canon.ad_degree", "calls_per_op"), ("canon.ad_degree", "self_ms_per_op"),
    ("strata.hull_membership", "self_ms_per_op"),
    ("strata.enumerate_strata", "self_ms_per_op"),
    ("strata.stratum_leq", "calls_per_op"),
    ("rootsys.weyl_orbit", "self_ms_per_op"),
    ("rootsys.dominant_representative", "self_ms_per_op"),
    ("lattice.obstruction_class", "self_ms_per_op"),
    ("lattice.lattice_tower", "calls_per_op"),
    ("lattice.fundamental_groups", "self_ms_per_op"),
    ("intlin.solve_rational", "self_ms_per_op"),
    ("intlin.smith_normal_form", "calls_per_op"),
    ("cli.run_command", "self_ms_per_op"),
    ("cli.parse_bundle_spec", "self_ms_per_op"),
    ("hnfilt.hn_filtration", "calls_per_op"),
    ("hnfilt.hn_uniqueness_oracle", "self_ms_per_op"),
    ("bundle.is_semistable", "calls_per_op"),
    ("parabolic.character_generators", "calls_per_op"),
)
UNITS = {"self_ms_per_op": "ms", "calls_per_op": "count", "share": "ratio"}

# The layer expected to hold the most self time on each workload.
PREDICTED_TOP = {"canon_oracle": ("canon",), "hull_query": ("strata",),
                 "cli_mix": ("lattice", "intlin")}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program():
    """Import hnbundles from this checkout's src/, or fail loudly."""
    if not (SRC / "hnbundles" / "__init__.py").is_file():
        sys.exit(f"error: no hnbundles source under {SRC}")
    sys.path.insert(0, str(SRC))
    import hnbundles
    import hnbundles.cli  # noqa: F401
    if Path(hnbundles.__file__).resolve().parent != SRC / "hnbundles":
        sys.exit(f"error: imported hnbundles from {hnbundles.__file__}")


def measure_setup():
    """Median over fresh interpreters of the time to import hnbundles and
    its CLI, in reference seconds, and the median wall time.

    Each child times its own import and then the calibration kernel, so
    the speed it is scaled by is that of the CPU the child ran on.  One
    unmeasured child first writes the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_SCRIPT, str(Path(__file__).parent)]
    subprocess.run(cmd, env=env, check=True, capture_output=True)
    ref, wall = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, env=env, check=True, capture_output=True,
                             text=True).stdout.split()
        seconds, kernel = float(out[0]), int(out[1])
        wall.append(seconds)
        ref.append(seconds * CAL_REF_NS / kernel)
    return statistics.median(ref), statistics.median(wall)


def clear_caches():
    """Empty every lru_cache in hnbundles, so each phase starts cold."""
    for key, mod in list(sys.modules.items()):
        if key.startswith("hnbundles") and mod is not None:
            for fn in vars(mod).values():
                getattr(fn, "cache_clear", lambda: None)()


class Loop:
    """Outcome of one closed loop: per-op times, failure counts, and the
    generated-input properties of the timed ops.

    times_ns are reference times (see speed.py), wall_ns the raw wall
    times, and scales[n] the factor between them for op n."""

    def __init__(self, label):
        self.label = label
        self.times_ns = array("d")
        self.wall_ns = array("q")
        self.scales = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []
        self.mix = {}
        self.spent = {}
        self.seen = set()
        self.repeats = 0

    def note(self, text):
        if len(self.notes) < 5:
            self.notes.append(text)

    def timed(self, n, item, wall_ns, scale):
        ns = wall_ns * scale
        self.times_ns.append(ns)
        self.wall_ns.append(wall_ns)
        self.scales[n] = scale
        key = hash(json.dumps(item))
        self.repeats += key in self.seen
        self.seen.add(key)
        label = self.label(item)
        self.mix[label] = self.mix.get(label, 0) + 1
        self.spent[label] = self.spent.get(label, 0) + ns

    def properties(self):
        from workloads import INVALID, KNOWN_DEFECT
        n = max(len(self.times_ns), 1)
        total = max(sum(self.times_ns), 1)
        return {"timed_ops": len(self.times_ns), "mix": self.mix,
                "time_share": {k: round(v / total, 4)
                               for k, v in self.spent.items()},
                "repeat_share": self.repeats / n,
                "invalid_share": sum(self.mix.get(k, 0) for k in INVALID) / n,
                "known_defect_share": self.mix.get(KNOWN_DEFECT, 0) / n}


def drive(workload, seed, seconds, share=1.0, tracer=None):
    """Time `share` of the workload's ops; sized to take well under
    `seconds`, they stop early only past GUARD * `seconds`.

    The first `warm` ops fill caches and are checked but not timed.  A
    fixed op count keeps the inputs, and so the caches and memory they
    fill and the ops that fail, the same for a seed however fast the
    host is; the guard only keeps a stalled host within the time limit,
    and says so on stderr when it stops a run."""
    from workloads import WORKLOADS, Failed
    w = WORKLOADS[workload]
    loop = Loop(w.label)
    deadline = time.perf_counter() + GUARD * seconds
    stop = w.warm + int(w.ops * share)
    before = kernel_ns()
    for n, item in enumerate(w.inputs(seed)):
        if n >= stop:
            break
        if n >= w.warm and time.perf_counter() >= deadline:
            print(f"warning: guard stopped {workload} after {n} of {stop} "
                  "ops", file=sys.stderr)
            break
        if tracer is not None:
            if len(tracer) > SPAN_CAP:
                print(f"warning: span cap stopped {workload} after {n} of "
                      f"{stop} ops", file=sys.stderr)
                break
            tracer.op_id = n
            tracer.active = n >= w.warm
            call = lambda it: tracer.span("bench.op", w.op, it)  # noqa: E731
        else:
            call = w.op
        crashed = None
        t0 = time.perf_counter_ns()
        try:
            out = call(item)
        except Exception as exc:  # a crash of the program is a failed op
            crashed = exc
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.active = False
        # the kernel run just after this op is also the one before the next
        after = kernel_ns()
        scale = 2 * CAL_REF_NS / (before + after)
        before = after
        loop.attempted += 1
        try:
            if crashed is not None:
                raise Failed(f"{type(crashed).__name__}: {crashed}")
            w.check(item, out)
        except Failed as exc:
            loop.failed += 1
            loop.note(f"failed: {exc}")
        except Exception as exc:  # Wrong, or output too malformed to check
            loop.wrong += 1
            loop.note(f"wrong: {type(exc).__name__}: {exc}")
        if n >= w.warm:
            loop.timed(n, item, t1 - t0, scale)
    if len(loop.times_ns) < 2:
        sys.exit("error: fewer than two timed ops; raise --seconds")
    return loop


def timings(times_ns):
    """(ops per second, p50 ms, p99 ms) of a list of op times."""
    cuts = statistics.quantiles(times_ns, n=100, method="inclusive")
    return (len(times_ns) / (sum(times_ns) / 1e9),
            statistics.median(times_ns) / 1e6, cuts[98] / 1e6)


def end_to_end(workload, seed, seconds):
    setup, setup_wall = measure_setup()
    loop = drive(workload, seed, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(loop.times_ns)
    ops_s, p50, p99 = timings(loop.times_ns)
    metrics = {
        "throughput_ops_s": (ops_s, "1/s", n),
        "latency_p50_ms": (p50, "ms", n),
        "latency_p99_ms": (p99, "ms", n),
        "setup_s": (setup, "s", SETUP_REPEATS),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "success_rate": (1 - loop.failed / loop.attempted, "ratio",
                         loop.attempted),
    }
    props = loop.properties()
    wall = dict(zip(("throughput_ops_s", "latency_p50_ms", "latency_p99_ms"),
                    timings(loop.wall_ns)), setup_s=setup_wall)
    props["wall"] = wall
    for name, value in wall.items():
        print(f"{'wall ' + name:48s} {value:14.6f}")
    return loop, metrics, props


def per_layer(workload, seed, seconds):
    from spans import Tracer, layer_of
    from hnbundles import rootsys

    clear_caches()
    plain = drive(workload, seed, seconds / 2, share=0.5)
    clear_caches()
    tracer = Tracer()
    tracer.install()
    try:
        loop = drive(workload, seed, seconds / 2, share=0.5, tracer=tracer)
    finally:
        tracer.uninstall()
    orbit_cache = rootsys.weyl_orbit.cache_info()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}.tsv.gz")

    ops = len(loop.times_ns)
    traced_ns = sum(loop.times_ns)
    summary = tracer.summary(loop.scales)
    metrics = {}
    layer_self = {}
    for layer in LAYERS:
        rows = [v for k, v in summary.items() if layer_of(k) == layer]
        calls = sum(r[0] for r in rows)
        own = sum(r[1] for r in rows)
        layer_self[layer] = own
        metrics[f"{layer}.self_ms_per_op"] = (own / 1e6 / ops, "ms")
        metrics[f"{layer}.calls_per_op"] = (calls / ops, "count")
        metrics[f"{layer}.share"] = (own / traced_ns, "ratio")
    for fn, stat in FUNCTION_METRICS:
        calls, own, _ = summary.get(fn, (0, 0, 0))
        value = calls / ops if stat == "calls_per_op" else own / 1e6 / ops
        metrics[f"{fn}.{stat}"] = (value, UNITS[stat])
    candidates = len(tracer.children_of("canon.ad_degree_max_oracle",
                                        "canon.ad_degree"))
    metrics["canon.oracle_candidates_per_op"] = (candidates / ops, "count")
    hull_calls = summary.get("strata.hull_membership", (0, 0, 0))[0]
    columns = sum(tracer.size[i] for i in tracer.children_of(
        "strata.hull_membership", "rootsys.weyl_orbit"))
    metrics["strata.hull_columns_per_call"] = (
        columns / hull_calls if hull_calls else 0.0, "count")
    orbit = summary.get("rootsys.weyl_orbit", (0, 0, 0))
    metrics["rootsys.weyl_orbit.points_per_op"] = (orbit[2] / ops, "count")
    lookups = orbit_cache.hits + orbit_cache.misses
    metrics["rootsys.weyl_orbit.cache_hit_ratio"] = (
        orbit_cache.hits / lookups if lookups else 0.0, "ratio")
    metrics["rootsys.weyl_orbit.cache_entries"] = (orbit_cache.currsize, "count")
    both = min(ops, len(plain.times_ns))
    metrics["trace.overhead_ratio"] = (
        sum(plain.times_ns[:both]) / sum(loop.times_ns[:both]), "ratio")

    top = max(LAYERS, key=layer_self.get)
    predicted = PREDICTED_TOP[workload]
    share = sum(layer_self[x] for x in predicted)
    holds = all(share > layer_self[x] for x in LAYERS if x not in predicted)
    print(f"top self-time layer: {top} ({layer_self[top] / traced_ns:.3f}); "
          f"predicted {'+'.join(predicted)} ({share / traced_ns:.3f}): "
          f"{'holds' if holds else 'does not hold'}")
    print(f"spans: {len(tracer)} traced ops: {ops} untraced ops: "
          f"{len(plain.times_ns)}")
    props = loop.properties()
    props.update(top_layer=top, prediction_holds=holds, spans=len(tracer))
    # both halves count toward attempted, failed and correct
    loop.attempted += plain.attempted
    loop.failed += plain.failed
    loop.wrong += plain.wrong
    loop.notes = plain.notes + loop.notes
    return loop, {k: (v, u, ops) for k, (v, u) in metrics.items()}, props


def main(argv=None):
    args = parse_args(argv)
    load_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    run = per_layer if args.trace else end_to_end
    loop, metrics, props = run(args.workload, args.seed, args.seconds)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit:6s} samples={samples}")
    print(f"{'error_rate':48s} {loop.failed / loop.attempted:14.6f} ratio  "
          f"samples={loop.attempted}")
    for note in loop.notes[:5]:
        print(note, file=sys.stderr)
    props["samples"] = {k: m[2] for k, m in metrics.items()}
    print("properties: " + json.dumps(props, sort_keys=True))
    print(json.dumps({
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
