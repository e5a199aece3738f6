"""Benchmark of the gprm reduction machine.

Four seeded workloads (see workloads.py and BENCHMARK.json) run against the
package in ../src.  Every output is checked; a run that raises or fails its
check is counted in `failed`, not raised.

    python3 perfbench/run.py --workload fib --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0 --smoke

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 makes
traced passes instead: spans around each call into a layer, packet counts
from Machine(trace=True), and the per-layer metrics derived from them.
--smoke uses the smallest inputs and also checks that a deliberately
corrupted output is counted as failed.

The lines printed give each metric with its unit and sample count, the seed
and the host facts; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  The full record of each run, and the spans
of a traced run, are written under .bench_results/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no caches in the checkout

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUPS_MIN = 3
SETUPS_MAX = 100
SETUP_SHARE = 0.25  # set-ups stop after this share of --seconds (past SETUPS_MIN)
MIN_SAMPLES = 3
MIN_PASSES = 2
MAX_ERRORS_KEPT = 5


# ── host facts ──────────────────────────────────────────────────────


def cpu_times():
    """The aggregate cpu line of /proc/stat, or None where there is none."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    return [int(v) for v in fields[1:9]]  # user .. steal


def stolen_share(before, after):
    """Share of the busy CPU time between two cpu_times() that the hypervisor
    stole.  A vCPU accrues steal only while it has work, so the share is of
    user + nice + system + irq + softirq + steal, not of idle time."""
    if before is None or after is None:
        return 0.0
    d = [b - a for a, b in zip(before, after)]
    busy = d[0] + d[1] + d[2] + d[5] + d[6] + d[7]
    return d[7] / busy if busy > 0 else 0.0


def stolen_delay(share, cpu_s, wall_s):
    """Wall time this process lost to steal over an interval.

    Its threads ran cpu_s seconds; while they wanted a CPU they lost
    share/(1-share) of that again to the hypervisor, and that loss was spread
    over the threads that ran in parallel: (cpu_s + lost) / wall_s of them,
    at least one."""
    share = min(share, 0.9)
    lost = cpu_s * share / (1 - share)
    return lost / max(1.0, (cpu_s + lost) / wall_s)


class Window:
    """An interval of wall time, this process's CPU time and host steal."""

    def __init__(self):
        self.cpu_times = cpu_times()
        self.cpu_s = time.process_time()
        self.t0 = time.perf_counter()

    def kept(self):
        """Share of the interval's wall time not lost to steal."""
        wall = time.perf_counter() - self.t0
        lost = stolen_delay(stolen_share(self.cpu_times, cpu_times()),
                            time.process_time() - self.cpu_s, wall)
        return 1 - lost / wall if wall > 0 else 1.0


def steal_frac(before, after):
    if before is None or after is None:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else 0.0


def host_facts():
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ── counting attempts ───────────────────────────────────────────────


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(message)

    def attempt(self, wl, machine, spans, corrupt=False, **attrs):
        """One checked unit; returns its wall time, or None if it failed."""
        self.attempted += 1
        wl.prepare()
        try:
            with spans.span("vm.run", **attrs):
                t0 = time.perf_counter()
                out = wl.run(machine)
                dt = time.perf_counter() - t0
            wl.check(wl.corrupt(out) if corrupt else out)
        except Exception as e:  # a failed run is counted, and the run goes on
            self.fail(f"{type(e).__name__}: {e}")
            return None
        return dt


def _shutdown(machines):
    for m in machines.values():
        m.shutdown()


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _tail(xs):
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for q in (0.9, 0.99, 0.999):
        if len(xs) * (1 - q) >= 10:
            best = (q, sorted(xs)[math.ceil(q * len(xs)) - 1])
    return best


# ── end to end (tracing off) ────────────────────────────────────────


def end_to_end(wl, seconds, tally, notes):
    off = Spans(False)
    setups, machines = [], {}
    window = Window()
    try:
        while True:
            _shutdown(machines)
            t0 = time.perf_counter()
            images = wl.compile(off)
            machines = {p: wl.boot(images[p], p) for p in THREADS}
            setups.append(time.perf_counter() - t0)
            if len(setups) >= SETUPS_MAX or (
                    len(setups) >= SETUPS_MIN and sum(setups) >= SETUP_SHARE * seconds):
                break
        setup_kept = window.kept()
        for p in THREADS:  # warm-up: checked, not timed
            tally.attempt(wl, machines[p], off)
        samples = {p: [] for p in THREADS}
        raw = {p: [] for p in THREADS}
        order = list(THREADS)
        start = time.perf_counter()
        while True:
            for p in order:
                window = Window()
                block = []
                for _ in range(wl.block):
                    dt = tally.attempt(wl, machines[p], off)
                    if dt is not None:
                        block.append(dt)
                kept = window.kept()
                raw[p] += block
                samples[p] += [dt * kept for dt in block]
            order.reverse()
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (min(map(len, samples.values())) >= MIN_SAMPLES
                                       or elapsed >= 2 * seconds):
                break
    finally:
        _shutdown(machines)
    rss = peak_rss_mb()  # before the traced machine below adds its packet log
    traced = wl.boot(images[TILES], TILES, trace=True)
    try:
        tally.attempt(wl, traced, off)
        req = sum(1 for pkt in traced.trace_packets() if pkt.kind == REQ)
    finally:
        traced.shutdown()

    wall, wall_1t = _median(samples[2]), _median(samples[1])
    notes["samples"] = {"setup_s": len(setups), "wall_s": len(samples[2]),
                        "wall_s_1t": len(samples[1])}
    notes["uncorrected_wall_s"] = _median(raw[2])
    notes["uncorrected_wall_s_1t"] = _median(raw[1])
    notes["uncorrected_setup_s"] = _median(setups)
    notes["series"] = {"setup_s": setups, "wall_s": raw[2], "wall_s_1t": raw[1],
                       "corrected_wall_s": samples[2], "corrected_wall_s_1t": samples[1]}
    for p, name in ((2, "wall_s"), (1, "wall_s_1t")):
        tail = _tail(samples[p])
        if tail:
            notes[f"{name}_p{tail[0] * 100:g}"] = tail[1]
    notes["req_packets_per_run"] = req
    if wall:
        notes["speedup_2t"] = wall_1t / wall
    if wl.elements and wall:
        notes["elements_per_s"] = wl.elements / wall
    return {
        "setup_s": _median(setups) * setup_kept,
        "wall_s": wall,
        "wall_s_1t": wall_1t,
        "reductions_per_s": req / wall if wall else 0.0,
        "peak_rss_mb": rss,
    }


# ── per layer (traced passes) ───────────────────────────────────────


def packet_counts(packets, tile_count):
    """Exact counts from one traced run."""
    total = len(packets)
    handled = [0] * tile_count
    for p in packets:
        if p.dst < tile_count:
            handled[p.dst] += 1
    return {
        "vm.packets": total,
        "vm.req_packets": sum(1 for p in packets if p.kind == REQ),
        "vm.cross_tile_frac": sum(1 for p in packets if p.src != p.dst) / max(1, total),
        "vm.busiest_tile_frac": max(handled) / max(1, sum(handled)),
    }


def traced_pass(wl, tally, spans, out_dir):
    images = wl.compile(spans)
    entries = sum(len(im.code) for im in {id(im): im for im in images.values()}.values())
    counts = None
    with spans.span("vm.boot", threads=TILES, traced=True):
        m = wl.boot(images[TILES], TILES, trace=True)
    try:
        for _ in range(wl.block):
            m.clear_trace()
            tally.attempt(wl, m, spans, threads=TILES, traced=True)
            c = packet_counts(m.trace_packets(), m.tile_count)
            if counts not in (None, c):
                tally.fail("packet counts differ between two runs of one machine")
            counts = c
    finally:
        with spans.span("vm.shutdown", threads=TILES, traced=True):
            m.shutdown()
    for p in THREADS:
        with spans.span("vm.boot", threads=p, traced=False):
            m = wl.boot(images[p], p)
        try:
            for _ in range(wl.block):
                tally.attempt(wl, m, spans, threads=p, traced=False)
            if p == TILES:
                hw = {"vm.records_hw": max(len(t.subtask_list) for t in m.tiles),
                      "vm.arena_hw": max(t.arena_next for t in m.tiles)}
        finally:
            with spans.span("vm.shutdown", threads=p, traced=False):
                m.shutdown()
    tally.attempted += 1
    try:
        wl.layer_calls(spans, images, out_dir)
    except Exception as e:  # counted like a failed run
        tally.fail(f"{type(e).__name__}: {e}")
    return {"compiler.entries": entries, **counts, **hw}


def layer_metrics(wl, spans, run, exact):
    s = spans
    entries = exact["compiler.entries"]

    def us_per_entry(name):
        return s.total(run, name, use=None) / entries * 1e6

    untraced = _median(s.select(run, "vm.run", threads=TILES, traced=False))
    untraced_1t = _median(s.select(run, "vm.run", threads=1, traced=False))
    traced = _median(s.select(run, "vm.run", threads=TILES, traced=True))
    oracle_s = s.total(run, "oracle.evaluate")
    builtin = s.select(run, "kernels.invoke", op="+")
    return {
        "lang.parse_us_per_entry": us_per_entry("lang.parse"),
        "lang.desugar_us_per_entry": us_per_entry("lang.desugar"),
        "compiler.flatten_us_per_entry": us_per_entry("compiler.flatten"),
        "compiler.assign_tiles_us_per_entry": us_per_entry("compiler.assign_tiles"),
        "compiler.encode_us_per_entry": us_per_entry("compiler.encode"),
        "compiler.image_io_us_per_entry": us_per_entry("compiler.image_io"),
        "gpc.compile_ms": s.total(run, "gpc.compile_gpc") * 1e3,
        "vm.boot_ms": (_median(s.select(run, "vm.boot", threads=TILES, traced=False))
                       + _median(s.select(run, "vm.shutdown", threads=TILES,
                                          traced=False))) * 1e3,
        "vm.us_per_packet": untraced / exact["vm.packets"] * 1e6,
        "vm.trace_overhead": traced / untraced if untraced else 0.0,
        "kernels.ms_leaf_s": _median(s.select(run, "kernels.invoke", op="ms.leaf")),
        "kernels.ms_stem_s": _median(s.select(run, "kernels.invoke", op="ms.stem")),
        "kernels.sort_floor_s": s.total(run, "kernels.sort_floor"),
        "kernels.builtin_us": sum(builtin) / BUILTIN_CALLS * 1e6 if builtin else 0.0,
        "oracle.eval_s": oracle_s,
        "vm.vs_oracle": untraced / oracle_s if oracle_s else 0.0,
        "bench.speedup_2t": untraced_1t / untraced if untraced else 0.0,
        "bench.model_speedup_2t": wl.model_speedup_2t(untraced_1t),
        "cli.run_ms": _median(s.select(run, "cli.main")) * 1e3,
    }


def per_layer(wl, seconds, tally, notes, out_dir):
    spans = Spans(True)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        spans.run_id = len(passes)
        with spans.span("bench.pass"):
            exact = traced_pass(wl, tally, spans, out_dir)
        passes.append((exact, layer_metrics(wl, spans, spans.run_id, exact)))
    exact = passes[0][0]
    for other, _ in passes[1:]:
        for k in ("compiler.entries", "vm.packets", "vm.req_packets",
                  "vm.cross_tile_frac", "vm.busiest_tile_frac"):
            if other[k] != exact[k]:
                tally.fail(f"{k} differs between traced passes: {exact[k]} != {other[k]}")
    metrics = {k: _median([p[1][k] for p in passes]) for k in passes[0][1]}
    metrics.update({k: _median([p[0][k] for p in passes])
                    for k in ("vm.records_hw", "vm.arena_hw")})
    metrics.update({k: exact[k] for k in exact if k not in metrics})
    layers = [spans.self_time_by_layer(r) for r in range(len(passes))]
    notes["samples"] = {"passes": len(passes)}
    notes["self_s_by_layer"] = {
        k: _median([lt.get(k, 0.0) for lt in layers]) for k in sorted(set().union(*layers))}
    spans.write(out_dir / f"spans-{wl.name}-seed{wl.seed}.json")
    notes["spans"] = len(spans.records)
    return metrics


# ── smoke: a corrupted output must count as failed ──────────────────


def corruption_detected(wl):
    tally = Tally()
    off = Spans(False)
    m = wl.boot(wl.compile(off)[TILES], TILES)
    try:
        tally.attempt(wl, m, off, corrupt=True)
    finally:
        m.shutdown()
    return tally.failed == 1


# ── driver ──────────────────────────────────────────────────────────


def definition():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_one(args):
    defn = definition()
    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    tally, notes = Tally(), {}
    cpu0 = cpu_times()
    if args.trace:
        values, declared = per_layer(wl, args.seconds, tally, notes, out_dir), defn["per_layer"]
    else:
        values, declared = end_to_end(wl, args.seconds, tally, notes), defn["end_to_end"]
    correct = tally.failed == 0
    if args.smoke:
        notes["corruption_detected"] = corruption_detected(wl)
        correct = correct and notes["corruption_detected"]
    notes["steal_frac"] = steal_frac(cpu0, cpu_times())
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "host": host_facts(),
              "failed_frac": tally.failed / tally.attempted, "errors": tally.errors,
              "notes": notes, **result}
    with open(out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in record["host"].items()))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:<14.6g} {m['unit']}")
    for k, v in notes.items():
        if k != "series":
            print(f"  # {k}: {v}")
    print(f"  failed_frac {record['failed_frac']:g} ({tally.failed}/{tally.attempted})")
    for e in tally.errors:
        print(f"  ! {e}")
    print(json.dumps(result))
    return 0 if correct or not args.smoke else 1


def run_all(args):
    """Each workload in its own process, so peak_rss_mb stays separate."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            status = status or 1
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="smallest inputs, plus a corrupted-output check")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if not (SRC / "gprm" / "__init__.py").is_file():
    sys.exit(f"error: no gprm package at {SRC}; run this from a checkout of the repository")
sys.path.insert(0, str(SRC))

from spans import Spans  # noqa: E402
from workloads import BUILTIN_CALLS, THREADS, TILES, WORKLOADS  # noqa: E402

from gprm.vm import REQ  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
