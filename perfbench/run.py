#!/usr/bin/env python3
"""Host-time benchmark of the RAMpage simulator.

Run from the root of the repository:

    python3 perfbench/run.py --workload cell-dm128 --seed 1 --seconds 36 --trace 0

It builds `perfbench/` (a package of its own over the simulator crates),
checks the simulator's cells against pinned digests at a small scale,
then runs whole passes of the workload, one fresh process per pass, for
about `--seconds` seconds. With `--trace 0` it prints the end-to-end
metrics; with `--trace 1` the per-layer metrics of a separate traced pass.
The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. Every run also writes its
provenance and raw samples to `.bench_out/results/`.

Other modes:

    python3 perfbench/run.py --self-test     # tiny passes, every metric, every check
    python3 perfbench/run.py --update-pins   # re-pin the digests in pins.json

See perfbench/README.md for the metrics, layers and workloads.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
PINS = os.path.join(HERE, "pins.json")
CHILD_TIMEOUT_S = 170

DEFAULT_SEED = 0x7A9E
HELD_OUT_SEED = 0x5EED
PINNED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

# Per workload: set-ups timed per pass process; runs of the host-speed
# reference kernel per pass process (about 0.15 s each; more where passes
# are long and few); the workload's sensitivity, the exponent with which
# its pass times follow the kernel's slowdown across the host's speed
# regimes (fitted on measurements, see README.md § Host-speed scaling;
# set-up times follow it with exponent 1 on every workload); the fewest
# untraced passes a run makes; and the small scale of the pinned-digest
# canary.
WORKLOADS = {
    "sweep-table3": {"setups": 10, "calibrations": 4, "sensitivity": 1.0, "min_passes": 2,
                     "canary_scale": 100000},
    "cell-dm128": {"setups": 1, "calibrations": 1, "sensitivity": 1.4, "min_passes": 5,
                   "canary_scale": 20000},
    "cell-rampage128-som": {"setups": 1, "calibrations": 2, "sensitivity": 1.6, "min_passes": 3,
                            "canary_scale": 20000},
}
DEFAULT_SCALE = {"sweep-table3": 1000, "cell-dm128": 200, "cell-rampage128-som": 200}
# A traced run makes at least two passes, so that its counts are compared
# across two processes.
TRACED_MIN_PASSES = 2

UNVALIDATED = (
    "model unvalidated: the traces are synthetic substitutes for the paper's "
    "(DESIGN.md), so there is no accuracy figure; 'correct' means the cells "
    "are bit-identical to pinned digests and across passes"
)


class BenchError(Exception):
    """A failure that must end the run without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if done.returncode != 0:
        raise BenchError("building perfbench failed")
    exe = os.path.join(ROOT, target, "release", "perfbench")
    if not os.path.isfile(exe):
        raise BenchError(f"no perfbench binary at {exe}")
    return exe


def child(exe, mode, workload, seed, scale, setups=1, calibrations=0):
    """Run one perfbench process in a fresh scratch directory."""
    scratch = os.path.join(OUT, "scratch", f"{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [exe, mode, "--workload", workload, "--seed", str(seed), "--scale", str(scale),
           "--setups", str(setups), "--calibrations", str(calibrations), "--dir", scratch]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd)} timed out")
    finally:
        # Also on SIGTERM (see main): no child outlives the run.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: {err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def load_pins():
    if not os.path.isfile(PINS):
        return {}
    with open(PINS) as f:
        return json.load(f)


def pinned(pins, workload, scale, seed):
    return pins.get(workload, {}).get(str(scale), {}).get(str(seed))


def mismatches(cells, reference):
    """Cells that differ from `reference`, counting missing or extra ones."""
    if reference is None:
        return 0
    diff = sum(1 for a, b in zip(cells, reference) if a != b)
    return diff + abs(len(cells) - len(reference))


class Gate:
    """Counts cells attempted and failed, and why a run is not correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def cells(self, what, cells, runner_failed, references):
        self.attempted += len(cells)
        bad = runner_failed
        if runner_failed:
            self.problems.append(f"{what}: {runner_failed} cell(s) failed")
        for name, ref in references:
            n = mismatches(cells, ref)
            if n:
                self.problems.append(f"{what}: {n} cell(s) differ from {name}")
            bad = max(bad, n)
        self.failed += min(bad, len(cells))

    def require(self, ok, why):
        if not ok:
            self.problems.append(why)


def canary(exe, workload, pins, gate):
    """Check the simulator at a small scale against digests pinned for the
    default and the held-out seed."""
    scale = WORKLOADS[workload]["canary_scale"]
    for seed in PINNED_SEEDS:
        ref = pinned(pins, workload, scale, seed)
        gate.require(ref is not None, f"no pinned canary digests for {workload} scale {scale} seed {seed}")
        doc = child(exe, "pass", workload, seed, scale)
        gate.cells(f"canary seed {seed}", doc["untraced"]["cells"], doc["untraced"]["failed"],
                   [("pinned digests", ref)])


def run_passes(exe, mode, workload, seed, scale, seconds, min_passes, setups=1, calibrations=0):
    """Fresh processes, one pass each, until `seconds` would be exceeded."""
    docs = []
    start = time.monotonic()
    while True:
        docs.append(child(exe, mode, workload, seed, scale, setups, calibrations))
        elapsed = time.monotonic() - start
        if len(docs) >= min_passes and elapsed * (len(docs) + 1) / len(docs) > seconds:
            return docs


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_metrics(docs, gate, references, sensitivity):
    """The end-to-end metrics, and the raw timings with the host slowdown
    whose `sensitivity`-th power the pass times were divided by."""
    passes = [d["untraced"] for d in docs]
    first = passes[0]["cells"]
    for i, p in enumerate(passes):
        gate.cells(f"pass {i}", p["cells"], p["failed"], references + [("pass 0", first)])
    ns_per_ref = [(p["wall_s"] - p["own_setup_s"]) / p["refs"] * 1e9 for p in passes]
    share_ok = 1.0 - gate.failed / max(gate.attempted, 1)
    slowdown = statistics.median(s for d in docs for s in d["slowdown"])
    speed = slowdown ** sensitivity
    raw = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "host_ns_per_ref": statistics.median(ns_per_ref),
        "setup_s": statistics.median(s for p in passes for s in p["setup_s"]),
    }
    metrics = {
        "wall_s": metric(raw["wall_s"] / speed, "s"),
        "host_ns_per_ref": metric(raw["host_ns_per_ref"] / speed, "ns"),
        "setup_s": metric(raw["setup_s"] / slowdown, "s"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_kb"] / 1024 for p in passes), "MB"),
        "ok_share": metric(share_ok, "ratio"),
    }
    return metrics, {"host_slowdown": slowdown, "sensitivity": sensitivity, "raw": raw}


def traced_metrics(docs, gate, references):
    first = docs[0]["untraced"]["cells"]
    for i, d in enumerate(docs):
        t = d["traced_pass"]
        refs = references + [("pass 0", first)]
        gate.cells(f"untraced pass {i}", d["untraced"]["cells"], d["untraced"]["failed"], refs)
        gate.cells(f"traced pass {i}", t["cells"], t["failed"], refs)
        for c in t["checks"]:
            gate.require(c["ok"], f"self-check {c['name']} failed: {c['detail']}")
    out = {}
    for j, f in enumerate(docs[0]["traced_pass"]["figures"]):
        values = [d["traced_pass"]["figures"][j]["value"] for d in docs]
        if f["exact"]:
            gate.require(all(v == values[0] for v in values),
                         f"count {f['name']} differs between passes: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        out[f["name"]] = metric(value, f["unit"])
    return out


def git_commit():
    """HEAD of the repository, or "unknown" when ROOT is not a git work tree
    of its own (benchmark checkouts usually are not)."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def source_digest():
    """SHA-256 over the sources the benchmark builds (for checkouts that
    are not git repositories)."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
    for top in roots:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            if "target" not in os.path.relpath(d, path).split(os.sep)
            for f in fs
            if f.endswith((".rs", ".toml", ".lock", ".py"))
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def rustc_version():
    try:
        return subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    except OSError:
        return "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def measure(args, scale=None):
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    exe = build()
    pins = load_pins()
    w = WORKLOADS[args.workload]
    scale = scale or DEFAULT_SCALE[args.workload]
    gate = Gate()
    canary(exe, args.workload, pins, gate)
    ref = pinned(pins, args.workload, scale, args.seed)
    references = [("pinned digests", ref)] if ref is not None else []
    if args.trace:
        docs = run_passes(exe, "traced", args.workload, args.seed, scale, args.seconds,
                          TRACED_MIN_PASSES)
        metrics, scaling = traced_metrics(docs, gate, references), {}
    else:
        docs = run_passes(exe, "pass", args.workload, args.seed, scale, args.seconds,
                          w["min_passes"], w["setups"], w["calibrations"])
        metrics, scaling = untraced_metrics(docs, gate, references, w["sensitivity"])
    declared = declared_metrics(args.trace)
    emitted = {k: v["unit"] for k, v in metrics.items()}
    gate.require(emitted == declared, f"metrics {emitted} differ from BENCHMARK.json {declared}")

    head = docs[0]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": scale,
        "refs_per_cell": head["refs_per_cell"],
        "workers": head["workers"],
        "nproc": head["nproc"],
        "traced": bool(args.trace),
        "passes": len(docs),
        "rustc": rustc_version(),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "pinned_seed_checked": ref is not None,
        "validation": UNVALIDATED,
        **scaling,
    }
    result = {
        "correct": not gate.problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{int(bool(args.trace))}.json"
    with open(os.path.join(OUT, "results", name), "w") as f:
        json.dump({"provenance": provenance, "result": result, "problems": gate.problems,
                   "samples": docs}, f, indent=1)
    return provenance, result, gate.problems


def report(provenance, result, problems):
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    print("# " + UNVALIDATED)
    for p in problems:
        print("# NOT CORRECT: " + p)
    failed_share = result["failed"] / max(result["attempted"], 1)
    print(f"# cells attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_share {failed_share:.6f}")
    if "host_slowdown" in provenance:
        raw = ", ".join(f"{k} {v:.6g}" for k, v in provenance["raw"].items())
        print(f"# timings below are raw / (host slowdown {provenance['host_slowdown']:.4f} "
              f"** {provenance['sensitivity']}), set-up raw / slowdown "
              f"(reference kernel; raw: {raw})")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


def self_test():
    """Tiny passes of every workload, traced and not: every declared metric
    is emitted with its unit and every self-check and digest holds."""
    ok = True
    for workload, w in WORKLOADS.items():
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=DEFAULT_SEED, seconds=1,
                                      trace=trace)
            provenance, result, problems = measure(args, w["canary_scale"])
            for p in problems:
                log(f"self-test {workload} trace {trace}: {p}")
            ok &= result["correct"]
            log(f"self-test {workload} trace {trace}: "
                f"{'ok' if result['correct'] else 'FAILED'} ({len(result['metrics'])} metrics)")
    return ok


def update_pins():
    exe = build()
    pins = {}
    for workload, w in WORKLOADS.items():
        for scale in (DEFAULT_SCALE[workload], w["canary_scale"]):
            for seed in PINNED_SEEDS:
                doc = child(exe, "pass", workload, seed, scale)
                if doc["untraced"]["failed"]:
                    raise BenchError(f"{workload} scale {scale} seed {seed}: failed cells")
                pins.setdefault(workload, {}).setdefault(str(scale), {})[str(seed)] = \
                    doc["untraced"]["cells"]
                log(f"pinned {workload} scale {scale} seed {seed}")
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--update-pins", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.self_test:
            return 0 if self_test() else 1
        if args.update_pins:
            update_pins()
            return 0
        if not args.workload:
            ap.error("--workload is required")
        provenance, result, problems = measure(args)
        report(provenance, result, problems)
        if not result["correct"]:
            return 3
    except (BenchError, OSError, ValueError, KeyError, IndexError) as e:
        log(f"perfbench: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
