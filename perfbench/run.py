#!/usr/bin/env python3
"""End-to-end benchmark of gcalib: builds perfbench in Release and runs one workload.

    python3 perfbench/run.py --workload svc_sparse_journal --seed 1 --seconds 10 --trace 0

Run from the repository root (or any checkout of it).  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and is reused
while the sources are unchanged.  --trace 0 prints the end-to-end metrics;
--trace 1 runs the workload twice with the same seed, untraced and traced,
prints every per-layer metric, the self time per span and the tracing
overhead (traced minus untraced, per end-to-end metric), and writes the
spans as Chrome trace JSON under .bench_build/traces/.  The last line of
stdout is always one JSON object: correct, attempted, failed, metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Everything the built programs are made from.
SOURCES = ["CMakeLists.txt", "src", "examples", "perfbench"]
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def tree_hash():
    digest = hashlib.sha256()
    for entry in SOURCES:
        base = os.path.join(ROOT, entry)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(base) for f in files)
        for path in paths:
            if "__pycache__" in path or path.endswith(".md"):
                continue
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def source_id(tree):
    ident = f"tree:{tree}"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
            ident = f"git:{commit} {ident}"
        except (OSError, subprocess.SubprocessError):
            pass
    return ident


def build(build_root, tree):
    build_dir = os.path.join(build_root, "perfbench")
    binary = os.path.join(build_dir, "perfbench")
    tool = os.path.join(build_dir, "gcalib", "examples", "gca_cc_tool")
    stamp = os.path.join(build_dir, "perfbench.stamp")
    if os.path.exists(stamp) and os.path.exists(binary) and os.path.exists(tool):
        with open(stamp) as f:
            if f.read().strip() == tree:
                return binary, tool
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench", "gca_cc_tool", "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (log: {log_path})")
    with open(stamp, "w") as f:
        f.write(tree + "\n")
    return binary, tool


def run_once(binary, tool, args, workdir, trace, spans=None, source="unknown"):
    shutil.rmtree(workdir, ignore_errors=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
               "--tool", tool, "--workdir", workdir, "--source-id", source]
    if spans:
        command += ["--spans", spans]
    timeout = RUN_TIMEOUT_S if not args.trace else RUN_TIMEOUT_S // 2
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail(f"{args.workload} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def with_units(values, specs):
    missing = [m["name"] for m in specs if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in specs})
    if missing or extra:
        fail(f"metrics out of step with BENCHMARK.json: missing {missing}, unexpected {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    for required in ("src/gcad/server.hpp", "examples/gca_cc_tool.cpp", "CMakeLists.txt",
                     "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail(f"not a gcalib checkout: {required} is missing", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}", 2)

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tree = tree_hash()
    binary, tool = build(build_root, tree)
    source = source_id(tree)
    workdir = os.path.join(build_root, "run")

    untraced = run_once(binary, tool, args, workdir, trace=False, source=source)
    e2e = untraced["end_to_end"]
    if not args.trace:
        result = untraced
        metrics = with_units(e2e, spec["end_to_end"])
    else:
        spans = os.path.join(build_root, "traces", f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        traced = run_once(binary, tool, args, workdir, trace=True, spans=spans, source=source)
        layers = dict(traced["per_layer"])
        print("# tracing overhead (traced - untraced):")
        for m in spec["end_to_end"]:
            name = m["name"]
            layers[f"trace_overhead.{name}"] = traced["end_to_end"][name] - e2e[name]
            print(f"#   {name:<20} untraced {e2e[name]:>14.6g} traced "
                  f"{traced['end_to_end'][name]:>14.6g} {m['unit']}")
        metrics = with_units(layers, spec["per_layer"])
        print("# dropped: the end-to-end csr_solve_mt_ms (reported here as core.sparse.solve_mt_ms)"
              " and the svc_dense_field workload, both unsteady on the reference host;"
              " perfbench/README.md gives the figures")
        print(f"# per-layer metrics ({args.workload}, seed {args.seed}; spans in {spans}):")
        for name, entry in metrics.items():
            print(f"#   {name:<40} {entry['value']:>16.6g} {entry['unit']}")
        result = traced
        result["correct"] = untraced["correct"] and traced["correct"]
    if result["failures"]:
        print(f"# failed operations by kind: {json.dumps(result['failures'])}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
