#!/usr/bin/env python3
"""Repo benchmark: builds the simulator from source, runs one workload,
checks its outputs and prints one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Workloads and metrics are declared in
BENCHMARK.json; perfbench/README.md explains each one. Everything but the
final JSON line goes to stderr. Per-run files (the Rust side's raw output,
the trace with spans and histograms) are written to .perfbench-out/.
"""

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench-out"
EXPECTED = BENCH_DIR / "expected.json"

# SimConfig's and `repro`'s default seed; outputs at this seed must equal
# the values recorded in expected.json.
DEFAULT_SEED = 0x5EED_CAFE
MODEL_WORKLOADS = ("now_cf_long", "mpp_tree_bf")
WORKLOADS = MODEL_WORKLOADS + ("repro_subset",)
REPRO_IDS = ["table4", "fig16", "fig26", "fig30", "table7"]
SIM_IDS = ["table4", "fig16", "fig26"]
# Worker threads for replication and the testbed (the machine the
# baseline was taken on has 2 CPUs).
THREADS = "2"
# Extra spawn-to-header measurements per repro_subset run.
SETUP_PROBES = 9
HEADER = "# paradyn-isim reproduction"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    """A benchmark that cannot run: no result line, non-zero exit."""
    log(f"perfbench: {msg}")
    sys.exit(2)


def child_env():
    """Run with the defaults: wheel calendar, serial model runs."""
    env = dict(os.environ)
    env.pop("PARADYN_CALENDAR", None)
    env.pop("PARADYN_SHARDS", None)
    env["PARADYN_THREADS"] = THREADS
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = str(target if target.is_absolute() else ROOT / target)
    return env


def build(env, workload):
    """Build the benchmark binary, plus `repro` for repro_subset."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"no repository sources next to {BENCH_DIR.name}/; run from a full checkout")
    cmds = [["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(BENCH_DIR / "Cargo.toml")]]
    if workload == "repro_subset":
        cmds.append(["cargo", "build", "--release", "--offline", "--quiet",
                     "-p", "paradyn-bench", "--bin", "repro"])
    for cmd in cmds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = Path(env["CARGO_TARGET_DIR"]) / "release"
    return release / "perfbench", release / "repro"


def spread(xs):
    """Median, min, max and count, for the stderr summary."""
    return f"median {statistics.median(xs):.6g} (min {min(xs):.6g}, max {max(xs):.6g}, n={len(xs)})"


def perfbench(binary, env, mode, workload, seed, seconds):
    """Run the Rust side; it writes its raw result to a file."""
    out = OUT_DIR / f"{mode}-{workload}-{seed}.json"
    log_path = OUT_DIR / f"{mode}-{workload}-{seed}.stdout.txt"
    with open(log_path, "w") as stdout:
        r = subprocess.run(
            [str(binary), mode, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--out", str(out)],
            cwd=ROOT, env=env, stdout=stdout)
    if r.returncode != 0:
        fail(f"perfbench {mode} exited with {r.returncode}")
    return json.loads(out.read_text())


def model_ok(result, expected, first):
    """Check one model run's outputs; returns a list of problems."""
    problems = []
    if result["violation"] is not None:
        problems.append(result["violation"])
    keys = ("state_digest", "metrics_digest", "events")
    if first is not None and any(result[k] != first[k] for k in keys):
        problems.append("output differs from the first iteration's")
    if expected is not None and any(result[k] != expected[k] for k in keys):
        problems.append("output differs from the value recorded in expected.json")
    return problems


def run_model_workload(binary, env, args, expected):
    raw = perfbench(binary, env, "run", args.workload, args.seed, args.seconds)
    log(f"settings: {json.dumps(raw['settings'])}")
    iters = raw["iterations"]
    failed = 0
    for i, it in enumerate(iters):
        problems = model_ok(it, expected, iters[0] if i else None)
        if problems:
            failed += 1
            log(f"iteration {i}: " + "; ".join(problems))
    metrics = {
        "setup_s": statistics.median(raw["setup_s"]),
        "wall_s": statistics.median(it["wall_s"] for it in iters),
        "cpu_s": statistics.median(it["cpu_s"] for it in iters),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    log(f"setup_s {spread(raw['setup_s'])}")
    log(f"wall_s {spread([it['wall_s'] for it in iters])}")
    log(f"events {iters[0]['events']} -> events/s median "
        f"{iters[0]['events'] / metrics['wall_s']:.6g}")
    return metrics, len(iters), failed


def repro_cmd(binary, seed, ids):
    return [str(binary), "--scale", "quick", "--seed", str(seed), *ids]


def spawn(cmd, env, stderr=None):
    """Run `cmd`; return (seconds to its first stdout line, first line,
    rest of stdout, exit code, wall seconds, CPU seconds, peak RSS MiB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr, text=True)
    first = p.stdout.readline()
    t_first = time.perf_counter() - t0
    rest = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return t_first, first, rest, p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


def sections(text):
    """Map artifact id -> its printed section, from `repro` stdout."""
    out, cur = {}, []
    for line in text.splitlines():
        m = re.match(r"^\[(\w+) completed in [0-9.]+s\]$", line)
        if m:
            out[m.group(1)] = "\n".join(cur) + "\n"
            cur = []
        else:
            cur.append(line)
    return out


NUM = r"(-?[0-9]+(?:\.[0-9]+)?)"


def testbed_problems(secs):
    """The testbed sections are wall-clock measurements: check their shape,
    never their values."""
    problems = []
    rows = re.findall(rf"^(10|30) ms\s+(CF|BF\(32\))\s+{NUM}\s+{NUM}\s+{NUM}\s+(\d+)\s+(\d+)\s*$",
                      secs.get("fig30", ""), re.M)
    if len(rows) != 4:
        problems.append(f"fig30: {len(rows)} of 4 rows")
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row[2:5]) or int(row[5]) <= 0:
            problems.append(f"fig30 row {row}: non-finite value or no samples received")
    rows = re.findall(rf"^(A|B|AB)\s+{NUM}\s+{NUM}\s+{NUM}\s+{NUM}\s*$", secs.get("table7", ""), re.M)
    if sorted(r[0] for r in rows) != ["A", "AB", "B"]:
        problems.append(f"table7: factor rows {[r[0] for r in rows]}")
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row[1:]):
            problems.append(f"table7 row {row}: non-finite value")
    return problems


def run_repro_workload(binary, env, args, expected):
    setup, walls, cpus, rss = [], [], [], []
    first_digest, failed, n = None, 0, 0
    t_start = time.perf_counter()
    while n == 0 or time.perf_counter() - t_start < args.seconds:
        t_header, header, rest, code, wall, cpu, peak = spawn(
            repro_cmd(binary, args.seed, REPRO_IDS), env)
        n += 1
        setup.append(t_header)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        secs = sections(rest)
        problems = []
        if code != 0:
            problems.append(f"exit status {code}")
        if not header.startswith(HEADER):
            problems.append(f"unexpected header {header!r}")
        missing = [i for i in REPRO_IDS if i not in secs]
        if missing:
            problems.append(f"artifacts missing: {missing}")
        digest = hashlib.sha256("".join(secs.get(i, "") for i in SIM_IDS).encode()).hexdigest()
        if first_digest is None:
            first_digest = digest
        elif digest != first_digest:
            problems.append("simulation sections differ from the first iteration's")
        if expected is not None and digest != expected["sim_sections_sha256"]:
            problems.append("simulation sections differ from the digest in expected.json")
        problems += testbed_problems(secs)
        if problems:
            failed += 1
            log(f"iteration {n - 1}: " + "; ".join(problems))
    # Set-up alone, several times: an unknown artifact id makes `repro`
    # print its header and exit 1 before doing any work.
    for _ in range(SETUP_PROBES):
        t_header, header, _, code, *_ = spawn(
            repro_cmd(binary, args.seed, ["setup-probe"]), env, stderr=subprocess.DEVNULL)
        if code != 1 or not header.startswith(HEADER):
            fail(f"setup probe: exit {code}, header {header!r}")
        setup.append(t_header)
    log(f"settings: {{\"PARADYN_THREADS\": {THREADS}, \"scale\": \"quick\"}}")
    log(f"setup_s {spread(setup)}")
    log(f"wall_s {spread(walls)}")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(rss),
    }
    return metrics, n, failed


def run_trace(binary, env, args, expected):
    raw = perfbench(binary, env, "trace", args.workload, args.seed, args.seconds)
    log(f"settings: {json.dumps(raw['settings'])}")
    checks = raw["checks"]
    problems = []
    if not checks["digests_match"]:
        problems.append("traced run's digests differ from the untraced run's")
    if not checks["reconcile_ok"]:
        problems.append(f"reconcile_err {raw['layers']['core.model.reconcile_err']:.3g} "
                        f"over tolerance {checks['reconcile_tol']}")
    problems += model_ok(raw["untraced"], expected, None)
    problems += model_ok(raw["traced"], None, None)
    for p in problems:
        log(f"trace: {p}")
    log(f"trace file: {OUT_DIR / f'trace-{args.workload}-{args.seed}.json'}")
    return raw["layers"], 1, int(bool(problems))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64:
        fail("seed must fit in 64 bits")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    perf_bin, repro_bin = build(env, args.workload)
    OUT_DIR.mkdir(exist_ok=True)

    recorded = json.loads(EXPECTED.read_text())
    expected = None
    if args.seed == DEFAULT_SEED:
        expected = recorded[args.workload]
        if args.trace:
            expected = expected.get("model", expected)

    if args.trace:
        values, attempted, failed = run_trace(perf_bin, env, args, expected)
        wanted = spec["per_layer"]
    elif args.workload == "repro_subset":
        values, attempted, failed = run_repro_workload(repro_bin, env, args, expected)
        wanted = spec["end_to_end"]
    else:
        values, attempted, failed = run_model_workload(perf_bin, env, args, expected)
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
