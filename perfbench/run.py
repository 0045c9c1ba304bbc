#!/usr/bin/env python3
"""Runs one workload of the wire-to-result benchmark and prints its result.

Usage, from the repository root:

    python3 perfbench/run.py --workload wire_small --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), prints the host facts, runs the benchmark binary
and passes its output through. The binary's result names each metric with
its value; `BENCHMARK.json` is the one list of metrics and units. The last
line of standard output is that result with each value paired with its
declared unit, printed only once the binary's metric names are exactly
those `BENCHMARK.json` declares for the mode (`end_to_end` with
`--trace 0`, `per_layer` with `--trace 1`).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def command_output(argv):
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_files():
    for top in SOURCES:
        if os.path.isfile(top):
            yield top
            continue
        for directory, subdirs, files in os.walk(top):
            subdirs[:] = sorted(d for d in subdirs if d != "target")
            for name in sorted(files):
                yield os.path.join(directory, name)


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    digest = hashlib.sha256()
    for path in source_files():
        digest.update(path.encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        fail(f"BENCHMARK.json: {error}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(os.path.dirname(os.path.relpath(__file__)), "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"build: {error}")
    if build.returncode != 0:
        fail("build failed")

    host = {
        "rustc": command_output(["rustc", "--version"]),
        "git_revision": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "cargo_profile": "release",
    }
    print("host: " + json.dumps(host), flush=True)

    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"exit code {run.returncode} without a result line")
    if set(result["metrics"]) != set(declared):
        fail("reported metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(declared))}")
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in declared.items()}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
