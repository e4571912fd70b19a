#!/usr/bin/env python3
"""The repository benchmark.

Builds perfbench/bench.exe from source with dune, runs one workload,
checks its output and prints one JSON object as the last line:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

--seconds defaults to run_seconds of BENCHMARK.json.  --trace 0 prints
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones,
with the units given there; a per-layer figure of a layer the workload
does not pass through reads 0.  The lines before the JSON give every
figure by name and unit, the extra latency figures (sample count,
highest percentile with at least ten samples beyond it), the error rate,
the number of pools that failed to shut down, and a stamp: commit,
source hash, host cores, OCaml version, date and the share of host CPU
time stolen by other guests while the workload ran.  The stamped result is also written,
whole, to perfbench/_out/<workload>.trace<T>.json (spans of a traced run
go to perfbench/_out/<workload>.spans.tsv).

    python3 perfbench/run.py --self-test

runs every workload briefly, traced and untraced, and checks the output:
it parses, has no duplicate keys, and names every metric with its unit.
Must be run from the repository root.
"""

import argparse
import datetime
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Per-layer figures that must be non-zero on a workload: the layer is on
# that workload's path (see BENCHMARK.json for why each workload exists).
# Pool figures are lost when a pool fails to shut down, so they are only
# required when the run reports no shutdown failure.
EXERCISED = {
    "echo-unix": [
        "net.read_ns", "net.write_ns", "net.reads_per_op", "kernel.traps_per_op",
        "sigio.signals_per_op", "engine.switches_per_op",
        "engine.dispatches_per_op", "engine.dispatch_latency_p99_ns",
        "echo.unattributed_share", "trace.ops_ratio",
    ],
    "sync-vm": [
        "pthread.create_ns", "pthread.join_ns", "pthread.yield_ns",
        "pthread.delay_ns", "timer.armed_peak", "mutex.lock_fast_ns",
        "mutex.lock_contended_ns", "mutex.unlock_fast_ns",
        "mutex.contended_share", "cond.wait_ns", "cond.signal_ns",
        "cond.useful_wake_share", "engine.switches_per_op",
        "engine.dispatches_per_op", "trace.ops_ratio",
    ],
    "echo-vm-sharded": [
        "net.read_ns", "net.write_ns", "net.reads_per_op", "shard.spawn_ns",
        "shard.await_ns", "process.cpu_util", "trace.ops_ratio",
    ],
    "spawn-sharded": [
        "shard.spawn_ns", "shard.await_ns", "process.cpu_util",
        "trace.ops_ratio",
    ],
}
POOL_FIGURES = {
    "engine.switches_per_op", "engine.dispatches_per_op",
    "shard.remote_wakes_per_task", "shard.dispatch_imbalance",
}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(text):
    """Parse JSON, rejecting duplicate keys anywhere."""
    def pairs(kvs):
        d = {}
        for k, v in kvs:
            if k in d:
                raise ValueError("duplicate key %r" % k)
            d[k] = v
        return d
    return json.loads(text, object_pairs_hook=pairs)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return load_json(f.read())


def build():
    if not os.path.isfile(os.path.join(ROOT, "lib", "pthreads", "dune")):
        fail("library sources not found under %s/lib" % ROOT)
    if shutil.which("dune") is None:
        fail("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if p.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(p.stdout + p.stderr)
        fail("build failed")


def run_exe(args):
    """Run bench.exe in its own process group; kill the group on timeout."""
    p = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, err = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)  # the generator child, if left
        except ProcessLookupError:
            pass
    if p.returncode != 0:
        sys.stderr.write(err)
        fail("bench.exe exited with %d" % p.returncode)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("bench.exe printed no result")
    return load_json(lines[-1])


def source_hash():
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def cpu_ticks():
    """(steal, total) jiffies of the host's CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def command_output(cmd):
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=30)
        return p.stdout.strip() if p.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def stamp():
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "commit": commit,
        "source_sha1": source_hash(),
        "cores": os.cpu_count(),
        "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"])
                 or command_output(["ocamlopt", "-version"]),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


def with_units(raw, wanted, trace):
    """bench.exe's figures (name -> value) as BENCHMARK.json metrics.

    Every end-to-end figure must be measured; per-layer figures of layers
    a workload does not use are absent and read 0.  A figure that
    BENCHMARK.json does not name is an error."""
    names = [m["name"] for m in wanted]
    unknown = sorted(set(raw) - set(names))
    if unknown:
        fail("bench.exe reported unknown metrics %s" % unknown)
    missing = [n for n in names if n not in raw]
    if missing and not trace:
        fail("bench.exe did not report %s" % missing)
    return {m["name"]: {"value": raw.get(m["name"], 0), "unit": m["unit"]}
            for m in wanted}


def check(result, wanted):
    """Problems with one result, given the metrics it must have."""
    problems = []
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            problems.append("missing key %s" % key)
    if problems:
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        problems.append("metric names differ: got %s" % sorted(metrics))
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append("%s: unit %r, want %r"
                            % (m["name"], got.get("unit"), m["unit"]))
        v = got.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v):
            problems.append("%s: value %r is not a finite number"
                            % (m["name"], v))
    return problems


def run(args):
    sp = spec()
    names = [w["name"] for w in sp["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
    wanted = sp["per_layer"] if args.trace else sp["end_to_end"]
    build()
    os.makedirs(OUT, exist_ok=True)
    ticks0 = cpu_ticks()
    result = run_exe(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace)])
    result["metrics"] = with_units(result["metrics"], wanted, args.trace)
    problems = check(result, wanted)
    if problems:
        fail("bad result: " + "; ".join(problems))
    st = stamp()
    # CPU time the hypervisor gave to other guests during the run: when it
    # is high, wall-clock figures of this run are slower than the code.
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        st["host_steal_share"] = round(
            (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]), 4)
    record = dict(stamp=st, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, result=result)
    path = os.path.join(OUT, "%s.trace%d.json" % (args.workload, args.trace))
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)
    print("stamp: " + json.dumps(st, sort_keys=True))
    print("workload %s  seed %d  %g s  trace %d  correct %s  attempted %d  "
          "failed %d" % (args.workload, args.seed, args.seconds, args.trace,
                         result["correct"], result["attempted"],
                         result["failed"]))
    for m in wanted:
        got = result["metrics"][m["name"]]
        print("  %-32s %16.6g %s" % (m["name"], got["value"], got["unit"]))
    for k, v in result.get("info", {}).items():
        print("  %-32s %s" % (k, v))
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))


def self_test():
    sp = spec()
    failures = 0
    for w in sp["workloads"]:
        for trace in (0, 1):
            p = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 w["name"], "--seed", "1", "--seconds", "1", "--trace",
                 str(trace)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=BUILD_TIMEOUT_S + RUN_TIMEOUT_S)
            problems = []
            if p.returncode != 0:
                problems.append("exit %d: %s" % (p.returncode, p.stderr.strip()))
            else:
                try:
                    last = p.stdout.strip().splitlines()[-1]
                    result = load_json(last)
                    if sorted(result) != ["attempted", "correct", "failed",
                                          "metrics"]:
                        problems.append("keys %s" % sorted(result))
                    wanted = sp["per_layer"] if trace else sp["end_to_end"]
                    problems += check(result, wanted)
                    if result.get("correct") is not True:
                        problems.append("outputs not verified correct")
                    if trace:
                        lost = result["metrics"].get(
                            "shard.shutdown_failures", {}).get("value")
                        for name in EXERCISED[w["name"]]:
                            if lost and name in POOL_FIGURES:
                                continue
                            v = result["metrics"].get(name, {}).get("value")
                            if not v:
                                problems.append("%s is 0 but the workload "
                                                "exercises it" % name)
                    else:
                        for name, m in result["metrics"].items():
                            if m["value"] <= 0:
                                problems.append("%s is not positive" % name)
                    with open(os.path.join(
                            OUT, "%s.trace%d.json" % (w["name"], trace))) as f:
                        load_json(f.read())
                except (ValueError, IndexError, OSError) as e:
                    problems.append("unparsable output: %s" % e)
            status = "ok" if not problems else "FAIL"
            print("self-test %-16s trace %d: %s" % (w["name"], trace, status))
            for pr in problems:
                print("    " + pr)
            failures += bool(problems)
    print("self-test: %d failure(s)" % failures)
    sys.exit(1 if failures else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
    elif not args.workload:
        ap.error("--workload is required")
    else:
        run(args)


if __name__ == "__main__":
    main()
