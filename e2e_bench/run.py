#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 e2e_bench/run.py --workload dia|certify|serve --seed N \
        --seconds S --trace 0|1

Builds e2e_bench/main.exe with dune (into _build, no shared cache), then
runs it as a child process with the same arguments and passes its output
and exit status through.  The benchmark runs as a child rather than
replacing this process, so the build's own child processes never count in
its peak-RSS reading, and it runs pinned to one CPU: the serve workload's
supervisor and worker take turns, never run at once, and on a shared
virtual machine a wakeup sent to another CPU can wait milliseconds for it.
Exits 3 without running anything when the build fails, for instance
outside a checkout of the repository.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "e2e_bench", "main.exe")


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def pin_to_one_cpu():
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", "--display", "quiet",
                    "./e2e_bench/main.exe"],
            stdout=sys.stderr, env=env, check=False,
        )
    except OSError as e:
        print("e2e_bench: cannot run dune: %s" % e, file=sys.stderr)
        return 3
    if build.returncode != 0 or not os.path.exists(EXE):
        print("e2e_bench: build failed", file=sys.stderr)
        return 3
    env["BENCH_COMMIT"] = commit()
    sys.stdout.flush()
    return subprocess.run(
        [EXE] + sys.argv[1:], env=env, preexec_fn=pin_to_one_cpu, check=False,
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
