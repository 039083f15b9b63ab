#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the simulator crates by path, so it builds the simulator from
the checkout's sources. It builds into $CARGO_TARGET_DIR when set
(relative paths resolve against the working directory), else into
perfbench/target. A traced run (--trace 1) writes its span timeline as
Chrome trace-event JSON to <target dir>/perfbench/trace-<workload>.json.
The last line of standard output is the result JSON; build output goes to
standard error. Exits non-zero, without a result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env={**os.environ, "CARGO_TARGET_DIR": target},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode
    args = sys.argv[1:]
    if "--trace-out" not in args:
        out_dir = os.path.join(target, "perfbench")
        os.makedirs(out_dir, exist_ok=True)
        workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else "run"
        args += ["--trace-out", os.path.join(out_dir, "trace-%s.json" % workload)]
    return subprocess.run([os.path.join(target, "release", "perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
