#!/usr/bin/env python3
"""The repository benchmark: one command, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the simulator libraries and
the upcbench program as a Release tree (perfbench/CMakeLists.txt) under
$CARGO_TARGET_DIR, or .bench_build when that is unset, then:

  * times the workload's one-time set-up in several fresh processes and
    reports the median (setup_s);
  * runs the workload for S seconds in one process that does nothing
    else, and reports its primary operation's 10th-percentile latency
    and the process's peak RSS;
  * checks the outputs (every composite allOk and byte-stable, every
    cache hit byte-identical to its cold reply, traced and untraced
    runs identical, daemon engine runs equal to cold jobs) and counts
    each check in `attempted` / `failed`.

With --trace 1 it prints the per-layer metrics instead, from a run that
records a span around every call into a layer; spans are kept in memory
and written to .bench_out/ when the run ends.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Metric names and units come from
BENCHMARK.json at the repository root. A per-layer metric of a layer the
workload does not exercise reads 0 and is listed on the line above.

--scale tiny shrinks every problem size for the self-test
(perfbench/test_bench.py); --write-fingerprint records the simulated
statistics of a traced composite run as the new reference.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINT = os.path.join(HERE, "fingerprint.json")
WORKLOADS = ("composite", "service_spool")
SETUP_PROBES = 19
TAIL_BEYOND = 10
LOW_PCT = 10
PROF_SECONDS = 3
# Source directories under src/ a gprof self-time profile is rolled up
# into, keyed by their C++ namespace; everything else is "other".
PROF_NAMESPACES = {"cpu": "cpu", "ucode": "ucode", "mem": "mem",
                   "mmu": "mmu", "upc": "upc", "os": "os", "obs": "obs",
                   "sim": "sim", "wkl": "workload", "ulint": "ulint",
                   "snap": "snap", "svc": "svc", "arch": "arch"}
PROF_MODULES = sorted(set(PROF_NAMESPACES.values()) | {"common", "other"})


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, count). With too few samples for the
    rule, the maximum is returned at percentile 100.
    """
    s = sorted(samples)
    n = len(s)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    i = n - TAIL_BEYOND - 1
    return s[i], 100.0 * (i + 1) / n, n


def median(samples):
    return statistics.median(samples) if samples else 0.0


def low_percentile(samples):
    """The LOW_PCT-th percentile by nearest rank.

    The end-to-end latency: on a shared host, other tenants slow whole
    stretches of a run by a third or more, which moves the median from
    run to run by more than any usable bound; the fast tenth of the
    samples moves with the simulator's own speed.
    """
    s = sorted(samples)
    if not s:
        return 0.0
    return s[max(0, math.ceil(LOW_PCT * len(s) / 100) - 1)]


def build_dir(flavour):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench-" + flavour)


def build(flavour="release", flags=()):
    """Configure once, then build incrementally. Returns the binary."""
    out = build_dir(flavour)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        cmd += list(flags)
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "upcbench"], check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(out, "upcbench")


def run_upcbench(binary, args, timeout, extra_env=None):
    """Run upcbench from the repository root; parse its last line.

    The simulator's UPC780_* overrides are dropped from the environment,
    so the benchmark always measures the configuration the repository
    ships.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("UPC780_")}
    env.update(extra_env or {})
    p = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                       timeout=timeout, check=True, text=True, env=env)
    return json.loads(p.stdout.strip().splitlines()[-1])


def prof_module(function):
    """The src/ directory a gprof function name belongs to."""
    m = re.search(r"(?:^|\s)upc780::(?:(\w+)::)?", function)
    if not m:
        return "other"
    return PROF_NAMESPACES.get(m.group(1), "common")


FLAT_ROW = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+"
                      r"(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")


def rollup_flat_profile(text):
    """Self-time share per module, in percent, from `gprof -b -p`."""
    self_s = {m: 0.0 for m in PROF_MODULES}
    for line in text.splitlines():
        row = FLAT_ROW.match(line)
        if row:
            self_s[prof_module(row.group(2))] += float(row.group(1))
    total = sum(self_s.values())
    return {m: (100.0 * v / total if total else 0.0)
            for m, v in self_s.items()}


def profile_composite(args, tmp):
    """Per-module host-time profile of composite from a -pg build.

    A diagnostic: gprof's self time per function, after inlining,
    rolled up by namespace into prof.<module>_pct.
    """
    binary = build("gprof", ["-DCMAKE_CXX_FLAGS=-pg",
                             "-DCMAKE_EXE_LINKER_FLAGS=-pg"])
    prefix = os.path.join(ROOT, tmp, "gmon")
    os.makedirs(os.path.dirname(prefix), exist_ok=True)
    run_upcbench(binary, ["run", "--workload", "composite", "--seed",
                          str(args.seed), "--seconds", str(PROF_SECONDS),
                          "--trace", "0", "--scale", args.scale,
                          "--tmp", f"{tmp}/prof"],
                 timeout=170, extra_env={"GMON_OUT_PREFIX": prefix})
    gmon = [f for f in os.listdir(os.path.dirname(prefix))
            if f.startswith("gmon.")]
    if len(gmon) != 1:
        raise OSError(f"expected one gprof output, found {gmon}")
    flat = subprocess.run(
        ["gprof", "-b", "-p", binary,
         os.path.join(os.path.dirname(prefix), gmon[0])],
        check=True, stdout=subprocess.PIPE, text=True, timeout=120).stdout
    return {f"prof.{m}_pct": v for m, v in rollup_flat_profile(flat).items()}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def span_self_ms(spans, name):
    """Median self time of spans called NAME: duration minus children."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = []
    for i, s in enumerate(spans):
        if s["name"] != name:
            continue
        covered = sum(c["end_ms"] - c["start_ms"] for c in children.get(i, []))
        out.append(s["end_ms"] - s["start_ms"] - covered)
    return median(out)


def compare_fingerprint(raw, write):
    """Compare the fixed-seed simulated statistics with the recorded ones.

    Returns (checked, mismatching names).
    """
    fp = raw.get("extra", {}).get("fingerprint")
    if fp is None:
        return 0, []
    key = raw["extra"]["fingerprint_key"]
    recorded = {}
    if os.path.exists(FINGERPRINT):
        with open(FINGERPRINT) as f:
            recorded = json.load(f)
    if write:
        recorded[key] = fp
        with open(FINGERPRINT, "w") as f:
            json.dump(recorded, f, indent=1, sort_keys=True)
            f.write("\n")
    ref = recorded.get(key)
    if ref is None:
        return 0, []
    names = sorted(set(ref) | set(fp))
    bad = [n for n in names
           if n not in ref or n not in fp
           or not math.isclose(ref[n], fp[n], rel_tol=1e-12, abs_tol=0.0)]
    return len(names), bad


def end_to_end(raw, setups):
    lat = raw["primary_ms"]
    print(f"# {raw['workload']}: latency_p{LOW_PCT}_ms is over {len(lat)} "
          f"samples; setup_s is the median of {len(setups)} set-ups")
    return {
        "setup_s": median(setups),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        f"latency_p{LOW_PCT}_ms": low_percentile(lat),
    }


def per_layer(raw, write_fingerprint):
    vals = dict(raw.get("layers", {}))
    lat = raw["primary_ms"]
    vals["latency.p50_ms"] = median(lat)
    vals["latency.tail_ms"], pct, n = tail(lat)
    vals["latency.tail_pct"] = pct
    vals["latency.samples"] = n
    for kind in ("cold", "hit"):
        s = raw["extra"].get(kind + "_ms")
        if s:
            t, p, c = tail(s)
            vals[f"svc.{kind}_p50_ms"] = median(s)
            vals[f"svc.{kind}_tail_ms"] = t
            vals[f"svc.{kind}_tail_pct"] = p
            vals[f"svc.{kind}_samples"] = c
    if any(s["name"] == "composite" for s in raw.get("spans", [])):
        vals["trace.composite_self_ms"] = span_self_ms(raw["spans"],
                                                       "composite")
    checked, bad = compare_fingerprint(raw, write_fingerprint)
    if checked:
        vals["sim.cpi_err_pct"] = raw["extra"]["fingerprint"]["sim.cpi_err_pct"]
        vals["fingerprint.checked"] = checked
        vals["fingerprint.mismatches"] = len(bad)
        if bad:
            print("# simulated statistics differ from the fingerprint: "
                  + ", ".join(bad))
    vals["check.fail_ratio"] = raw["failed"] / max(raw["attempted"], 1)
    return vals


def write_spans(args, raw):
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump(raw.get("spans", []), f)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--write-fingerprint", action="store_true")
    return ap.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    spec = load_spec()
    binary = build()

    tmp = os.path.join(".bench_tmp", f"run-{os.getpid()}")
    common = ["--workload", args.workload, "--scale", args.scale]
    timeout = args.seconds + 120
    try:
        setups = []
        for i in range(SETUP_PROBES):
            r = run_upcbench(binary, ["setup", "--tmp", f"{tmp}/setup{i}"]
                             + common, timeout=120)
            setups.append(r["setup_s"])
        raw = run_upcbench(binary, ["run", "--tmp", f"{tmp}/run",
                                    "--seed", str(args.seed),
                                    "--seconds", str(args.seconds),
                                    "--trace", str(args.trace)] + common,
                           timeout=timeout)
        if args.trace and args.workload == "composite":
            raw["layers"].update(profile_composite(args, tmp))
    finally:
        shutil.rmtree(os.path.join(ROOT, tmp), ignore_errors=True)
    setups.append(raw["setup_s"])

    for reason in raw["failures"]:
        print(f"# check failed: {reason}")

    if args.trace:
        write_spans(args, raw)
        vals = per_layer(raw, args.write_fingerprint)
        declared = spec["per_layer"]
    else:
        vals = end_to_end(raw, setups)
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in vals]
    if missing:
        print(f"# not exercised by {args.workload} (reported as 0): "
              + ", ".join(missing))
    metrics = {m["name"]: {"value": float(vals.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
