"""pbelyi benchmark: one closed-loop client in one process, no threads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload maps --seed 0 --seconds 55 --trace 0

--trace 0 measures the end-to-end metrics: it runs whole passes of the
workload's operations, each operation after the previous one ends and
each pass with pbelyi's modulus cache cleared, for at most --seconds, and
times set-up in a fresh interpreter before each pass (at least SETUP_RUNS
times).
--trace 1 measures the per-layer metrics: kernel probes, then pass 0
untraced and traced in turn, TRACE_PAIRS times.  Every output is checked.
The last line of standard output is one JSON object; details and spans go
to perfbench/out/.
The exit status is 0 only when every operation succeeded and passed its
check, and 2 when no pbelyi source tree is found under ./src.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
OUT = HERE / "out"
SETUP_RUNS = 7
TRACE_PAIRS = 3

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_program():
    """Put ./src first on the path; refuse any pbelyi from elsewhere."""
    if not (SRC / "pbelyi" / "__init__.py").is_file():
        print(f"no pbelyi source tree at {SRC}; run from the root of a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import pbelyi

    if SRC.resolve() not in Path(pbelyi.__file__).resolve().parents:
        print(f"imported pbelyi from {pbelyi.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def time_setup(args):
    """Wall time of a fresh interpreter that imports pbelyi and builds pass 0's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_op(op, failures):
    """Time one operation, then check it; returns seconds."""
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception:
        elapsed = time.perf_counter() - t0
        failures.append(f"{op.label}: raised\n{traceback.format_exc()}")
        return elapsed
    elapsed = time.perf_counter() - t0
    error = op.check(result)
    if error is not None:
        failures.append(f"{op.label}: {error}")
    return elapsed


def end_to_end(workload, args):
    time_setup(args)  # fills the bytecode cache
    # one set-up before each pass, so set-up is sampled across the whole run
    setups, per_op, passes, failures = [], [], [], []
    start = last = time.perf_counter()
    # a pass starts only if it should end within --seconds, judged by the last one
    while not passes or 2 * time.perf_counter() - last - start < args.seconds:
        last = time.perf_counter()
        setups.append(time_setup(args))
        _clear_modulus_cache()  # every pass starts cold, as a fresh CLI process does
        times = [run_op(op, failures) for op in workload.pass_ops(len(passes))]
        per_op = per_op or [[] for _ in times]
        for samples, t in zip(per_op, times):
            samples.append(t)
        passes.append(sum(times))
    while len(setups) < SETUP_RUNS:
        setups.append(time_setup(args))
    # Each operation's and set-up's median over the run's passes.  On a
    # shared host the speed of identical work switches between states about
    # 1.6x apart; the median reads the state that prevails in the run, and
    # over ten runs in one state its quartile spread was a third or less of
    # that of the fastest sample, which depends on a few lucky passes.
    op_med = [statistics.median(samples) for samples in per_op]
    values = {
        "wall_s": sum(op_med),
        "op_p50_ms": statistics.median(op_med) * 1e3,
        "op_p90_ms": statistics.quantiles(op_med, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    detail = {"passes": len(passes), "pass_s": passes, "setup_s": setups,
              "op_s": {op.label: samples for op, samples in zip(workload.pass_ops(0), per_op)}}
    print(f"{args.workload} seed={args.seed}: {len(op_med)} operations a pass, each timed at its median "
          f"over {len(passes)} cold passes; wall_s is their sum, op_p50_ms and op_p90_ms quantiles over the "
          f"{len(op_med)} (p90 interpolated between the two slowest when fewer than 10); setup_s is the "
          f"median of {len(setups)} fresh interpreters")
    return metrics, len(passes) * len(op_med), failures, detail


def _modulus_cache():
    """pbelyi's cache of field moduli (a functools cache), or None if it has none."""
    from importlib import import_module

    return getattr(import_module("pbelyi.field"), "_canonical_modulus", None)


def _clear_modulus_cache():
    cache = _modulus_cache()
    if cache is not None:
        cache.cache_clear()


def _traced_pass(ops, failures):
    """Run ops cold under a fresh Tracer; returns it, the pass time and the modulus searches."""
    import workloads
    from tracer import Tracer

    _clear_modulus_cache()
    tracer = Tracer(extra_modules=[workloads])
    results = []
    tracer.install()
    try:
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            tracer.op = i
            idx = tracer.begin("op")
            try:
                results.append((op, op.call(), None))
            except Exception:
                results.append((op, None, traceback.format_exc()))
            finally:
                tracer.end(idx)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    cache = _modulus_cache()
    misses = cache.cache_info().misses if cache is not None else 0
    for op, result, error in results:
        if error is None:
            error = op.check(result)
        if error is not None:
            failures.append(f"{op.label} (traced): {error}")
    return tracer, traced, misses


def per_layer(workload, args):
    from probes import kernel_probes
    from tracer import CONSTRUCTIONS

    probes = kernel_probes(args.seed)
    ops = workload.pass_ops(0)
    failures = []
    # untraced and traced passes alternate; the overhead compares the fastest
    # of each, and the layer figures come from the last traced pass
    untraced_s, traced_s = [], []
    for _ in range(TRACE_PAIRS):
        _clear_modulus_cache()
        untraced_s.append(sum(run_op(op, failures) for op in ops))
        tracer, traced, misses = _traced_pass(ops, failures)
        traced_s.append(traced)
    untraced = min(untraced_s)

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    c = tracer.counts
    pct = lambda seconds: 100.0 * seconds / traced
    candidates = c["search.candidates"]
    analyze_calls = tracer.calls("ramification.analyze")
    count_busy = tracer.busy("counting.count_points")
    values = [
        ("search.candidates", candidates, "count"),
        ("search.candidates_per_s", candidates / untraced, "1/s"),
        ("search.enumerate.busy_pct", pct(tracer.busy("search.enumerate")), "%"),
        ("search.gate.busy_pct", pct(tracer.busy("search.gate")), "%"),
        ("search.analyze_per_candidate", analyze_calls / candidates if candidates else 0.0, "ratio"),
        ("ratmap.maps_built", c["ratmap.maps_built"], "count"),
        ("ratmap.evaluate.calls", c["ratmap.evaluate.calls"], "count"),
        ("ratmap.wronskian.calls", tracer.calls("ratmap.wronskian"), "count"),
        ("ratmap.wronskian.busy_pct", pct(tracer.busy("ratmap.wronskian")), "%"),
        ("ramification.analyze.calls", analyze_calls, "count"),
        ("ramification.analyze.busy_pct", pct(tracer.busy("ramification.analyze")), "%"),
        ("ramification.analyze.self_pct", pct(tracer.self_time({"ramification.analyze"})), "%"),
        ("ramification.fields_built", c["ramification.fields_built"], "count"),
        ("factor.factor.calls", tracer.calls("factor.factor"), "count"),
        ("factor.factor.busy_pct", pct(tracer.busy("factor.factor")), "%"),
        ("factor.roots.calls", tracer.calls("factor.roots"), "count"),
        ("factor.roots.busy_pct", pct(tracer.busy("factor.roots")), "%"),
        ("factor.roots.max_field_n", tracer.max_roots_n, "degree"),
        ("field.mul.calls", c["field.mul.calls"], "count"),
        ("field.inverse.calls", c["field.inverse.calls"], "count"),
        ("field.pow.calls", c["field.pow.calls"], "count"),
        ("field.fields_built", c["field.fields_built"], "count"),
        ("field.modulus_searches", misses, "count"),
        ("field.embed.calls", tracer.calls("field.embed"), "count"),
        ("field.embed.busy_pct", pct(tracer.busy("field.embed")), "%"),
        ("poly.mul.calls", c["poly.mul.calls"], "count"),
        ("poly.divmod.calls", c["poly.divmod.calls"], "count"),
        ("poly.gcd.calls", c["poly.gcd.calls"], "count"),
        ("constructions.wild_belyi_compose.busy_pct", pct(tracer.busy("constructions.wild_belyi_compose")), "%"),
        ("constructions.wild_h_tower.busy_pct", pct(tracer.busy("constructions.wild_h_tower")), "%"),
        ("constructions.reverify.busy_pct", pct(tracer.busy("constructions.reverify")), "%"),
        ("constructions.self_pct", pct(tracer.self_time({"constructions." + n for n in CONSTRUCTIONS})), "%"),
        ("counting.count_points.calls", tracer.calls("counting.count_points"), "count"),
        ("counting.count_points.busy_pct", pct(count_busy), "%"),
        ("counting.elements_scanned", c["counting.elements_scanned"], "count"),
        ("counting.elements_per_s", c["counting.elements_scanned"] / count_busy if count_busy else 0.0, "1/s"),
    ]
    values += [(name, us, "us") for name, us in probes.items()]
    values += [
        ("trace.untraced_wall_s", untraced, "s"),
        ("trace.traced_wall_s", min(traced_s), "s"),
        ("trace.overhead", min(traced_s) / untraced, "ratio"),
    ]
    metrics = {name: {"value": value, "unit": unit} for name, value, unit in values}
    print(f"{args.workload} seed={args.seed}: pass 0 ({len(ops)} operations) {TRACE_PAIRS} times untraced "
          f"and traced in turn, {len(tracer.spans)} spans in the last traced pass; busy_pct values are "
          f"shares of that pass; trace.* compare the fastest untraced and traced pass")
    return metrics, 2 * TRACE_PAIRS * len(ops), failures, {
        "spans": len(tracer.spans), "untraced_s": untraced_s, "traced_s": traced_s}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("search", "maps"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        workload.pass_ops(0)
        return 0
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failures, detail = measure(workload, args)
    for failure in failures:
        print("FAILED " + failure, file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, detail=detail)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
