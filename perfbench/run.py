#!/usr/bin/env python3
"""Build and run the operand-isolation benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the harness in `perfbench/harness`
(release, offline, into `$CARGO_TARGET_DIR`, default `.bench_build`),
prints a `# build` record line (rustc version, git commit), then runs the
harness, whose last stdout line is the JSON result. Exits non-zero without
a result when the build fails, the harness fails or times out, or its last
line is not a result object.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
# The harness must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv):
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: harness build failed", file=sys.stderr)
        return 1
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    binary = os.path.join(target, "release", "perfbench")

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = tool_output(["git", "rev-parse", "HEAD"])
    record = {
        "rustc": tool_output(["rustc", "--version"]) or "unknown",
        "commit": commit or "unknown (not a git checkout)",
    }
    print("# build " + json.dumps(record), flush=True)

    try:
        run = subprocess.run(
            [binary] + argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: harness ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if run.returncode != 0 or not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
        print(f"perfbench: harness exited {run.returncode} without a result", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
