#!/usr/bin/env python3
"""Build the benchmark and run it.

  run.py --workload W --seed N --seconds S --trace 0|1   one run (the form BENCHMARK.json names)
  run.py all [--seed N] [--seconds S] --out DIR          every workload, untraced then traced -> DIR/BENCH.json
  run.py compare A.json B.json                           hold set B against set A, metric by metric
  run.py selfcheck [--seed N] [--seconds S] --out DIR    `all` twice, then `compare`: the A/A test
  run.py spread [--seeds K] [--seconds S] [--workload W] K seeds per workload: each metric's quartile spread
  run.py shares BENCH.json                               each layer's share of the refresh, per workload

Everything is built and written inside the checkout: the build goes to
$CARGO_TARGET_DIR (default perfbench/target), scratch files beside the
binaries, results where --out says.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Build `bench` and the `itg-partition-worker` it spawns; return the path of `bench`."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    manifest = os.path.join(HERE, "Cargo.toml")
    status = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    ).returncode
    if status != 0:
        sys.exit(status)
    return os.path.join(target, "release", "bench")


def run_one(bench, workload, seed, seconds, trace, out=None):
    """One run; returns the result object of its last output line."""
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if out:
        cmd += ["--out", out]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(bench, seed, seconds, out):
    """Every workload in both modes; writes and returns the merged set."""
    os.makedirs(out, exist_ok=True)
    workloads = {}
    for w in [w["name"] for w in benchmark_json()["workloads"]]:
        entry = {}
        for trace in (0, 1):
            print(f"{w} trace={trace} ...", file=sys.stderr, flush=True)
            run_one(bench, w, seed, seconds, trace, out)
            with open(os.path.join(out, f"result-{w}-trace{trace}.json")) as f:
                entry["traced" if trace else "untraced"] = json.load(f)
        workloads[w] = entry
    merged = {"seed": seed, "seconds": seconds, "workloads": workloads}
    with open(os.path.join(out, "BENCH.json"), "w") as f:
        json.dump(merged, f, indent=1)
        f.write("\n")
    return merged


def spread(values):
    """Distance between the first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(a, b):
    """One row per workload and end-to-end metric; returns the number of regressions."""
    bounds = {m["name"]: m for m in benchmark_json()["end_to_end"]}
    regressions = 0
    print(f"{'workload':<12} {'metric':<20} {'A':>12} {'B':>12} {'B/A':>7} {'bound':>6} {'A spread':>9}  verdict")
    for w, in_a in a["workloads"].items():
        in_b = b["workloads"][w]
        ra, rb = in_a["untraced"]["result"], in_b["untraced"]["result"]
        for name, bound in bounds.items():
            va, vb = ra["metrics"][name]["value"], rb["metrics"][name]["value"]
            worse = (vb / va - 1) if bound["better"] == "lower" else (va / vb - 1)
            # A run reports the median over its replays; their quartile spread says how far to trust it.
            own = spread(in_a["untraced"]["per_replay"].get(name, []))
            if own > bound["bound"]:
                verdict = "unresolved"
            elif worse > bound["bound"]:
                verdict = "regressed"
                regressions += 1
            else:
                verdict = "ok"
            unit = ra["metrics"][name]["unit"]
            print(
                f"{w:<12} {name:<20} {va:>12.4f} {vb:>12.4f} {vb / va:>6.3f}x {bound['bound']:>6.2f} {own:>9.3f}  "
                f"{verdict} (base {va:.4f} {unit})"
            )
        for side in ("untraced", "traced"):
            fa, fb = in_a[side]["result"], in_b[side]["result"]
            if fb["failed"] * fa["attempted"] > fa["failed"] * fb["attempted"]:
                print(f"{w:<12} {side}: failed {fa['failed']}/{fa['attempted']} -> {fb['failed']}/{fb['attempted']}  regressed")
                regressions += 1
        if a["seed"] == b["seed"]:
            for name, va in in_a["traced"]["exact"].items():
                vb = in_b["traced"]["exact"][name]
                if va != vb:
                    print(f"{w:<12} {name}: exact count {va} -> {vb}  regressed")
                    regressions += 1
    return regressions


# Layer groups of the share table: per-layer metrics (ms per timed batch) summed.
LAYERS = {
    "walker action": ["engine.walker.action_ms"],
    "walker seek+join": ["engine.walker.seek_ms", "engine.walker.join_ms"],
    "vexec+accum": ["engine.vexec.update_ms", "engine.accum.accumulate_ms", "engine.accum.recompute_ms"],
    "store.vertex": ["store.vertex.attr_load_ms", "store.vertex.attr_record_ms", "store.vertex.merge_ms", "store.vertex.advance_ms"],
    "transport": ["engine.transport.exchange_ms"],
    "session fixed": ["engine.session.schedule_ms", "engine.session.setup_ms", "engine.session.pruning_ms", "engine.session.apply_ms"],
}


def shares(bench):
    """Each layer group's time as a share of one refresh, from the traced run.

    Engine spans (walker, vexec, accum, store, transport, session) are held against the
    observed refresh, wal+snapshot (bench spans of plain replays) against the plain one.
    """
    names = list(bench["workloads"])
    rows = {layer: [] for layer in list(LAYERS) + ["wal+snapshot"]}
    for w in names:
        m = {k: v["value"] for k, v in bench["workloads"][w]["traced"]["result"]["metrics"].items()}
        plain = m["engine.session.apply_ms"] + m["engine.session.run_inc_ms"]
        observed = plain * m["obs.overhead_ratio"]
        for layer, parts in LAYERS.items():
            rows[layer].append(sum(m[p] for p in parts) / observed)
        config = bench["workloads"][w]["traced"]["config"]
        if "machines=1 " not in config:
            # The supersteps run in the worker processes and their spans never reach the
            # coordinator's profile: no engine-span row of a cluster workload is measured.
            for layer in LAYERS:
                rows[layer][-1] = None
        every = int(config.split("checkpoint_every=")[1].split()[0])
        durable = m["engine.durability.checkpoint_p50_ms"] / every if every else 0.0
        # One batch logs two records: the batch and the incremental run.
        durable += 2 * m["store.wal.append_us"] / 1e3
        rows["wal+snapshot"].append(durable / (plain + durable))
    print(f"| layer | {' | '.join(f'`{w}`' for w in names)} |")
    print(f"|---|{'---|' * len(names)}")
    for layer, values in rows.items():
        print(f"| {layer} | {' | '.join('unverified' if v is None else f'{v:.1%}' for v in values)} |")


def seed_spread(bench, workloads, seeds, seconds):
    """What the driver does to accept the benchmark: K seeds, quartile spread per metric.

    Like the driver, it holds every spread against its bound except that of `setup_s`:
    set-up is mostly graph generation, whose work differs from seed to seed.
    """
    bounds = {m["name"]: m["bound"] for m in benchmark_json()["end_to_end"]}
    over = 0
    for w in workloads:
        runs = [run_one(bench, w, 100 + k, seconds, 0) for k in range(seeds)]
        failed = sum(r["failed"] for r in runs)
        print(f"{w}: {seeds} seeds, {failed} failed operations")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            flag = "" if name == "setup_s" or s <= bound / 3 else ("  > bound/3" if s <= bound else "  > BOUND")
            over += s > bound and name != "setup_s"
            print(f"  {name:<20} median {statistics.median(values):>12.4f}  spread {s:.4f}  bound {bound:.2f}{flag}")
        over += failed
    return over


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("all", "compare", "selfcheck", "spread", "shares"):
        p = argparse.ArgumentParser()
        p.add_argument("command")
        p.add_argument("files", nargs="*")
        p.add_argument("--seed", type=int, default=61)
        p.add_argument("--seeds", type=int, default=10)
        p.add_argument("--seconds", type=int, default=benchmark_json()["run_seconds"])
        p.add_argument("--workload")
        p.add_argument("--out")
        args = p.parse_args()
        if args.command == "shares":
            shares(json.load(open(args.files[0])))
            return
        if args.command == "compare":
            a, b = (json.load(open(f)) for f in args.files)
            sys.exit(1 if compare(a, b) else 0)
        bench = build()
        if args.command == "spread":
            names = [args.workload] if args.workload else [w["name"] for w in benchmark_json()["workloads"]]
            sys.exit(1 if seed_spread(bench, names, args.seeds, args.seconds) else 0)
        if not args.out:
            sys.exit(f"{args.command} needs --out DIR")
        if args.command == "all":
            run_all(bench, args.seed, args.seconds, args.out)
        else:
            a = run_all(bench, args.seed, args.seconds, os.path.join(args.out, "a"))
            b = run_all(bench, args.seed, args.seconds, os.path.join(args.out, "b"))
            sys.exit(1 if compare(a, b) else 0)
    else:
        # The driver's form: hand the flags through unchanged.
        bench = build()
        sys.exit(subprocess.run([bench] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
