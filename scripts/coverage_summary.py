#!/usr/bin/env python3
"""Line-coverage gate: sum gcov's JSON line records over src/ and fail
below a floor.

Usage:
    scripts/coverage_summary.py --build-dir build-coverage --floor 94.0

The build tree must be compiled with gcc `--coverage` and the tests must
already have run, so every object file has its .gcda counters next to its
.gcno notes. The script runs `gcov --json-format --stdout` over those
counters (gcov ships with gcc; gcovr and lcov are not needed) and counts,
for every source file under the repo's src/, the lines
gcov marks executable and how many of them ran. A header compiled into
several translation units counts once: a line is executable if any unit
reports it and covered if any unit ran it.

Prints the total and the least-covered files, and exits 1 when the
percentage is below --floor (0 disables the gate).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = os.path.realpath(Path(__file__).resolve().parent.parent / "src")
BATCH = 64  # .gcda files per gcov call
TOP = 10  # least-covered files listed


def gcov_documents(build_dir):
    """Yields one parsed gcov JSON document per .gcda under build_dir."""
    build_dir = Path(build_dir).resolve()
    gcdas = sorted(str(p) for p in build_dir.rglob("*.gcda"))
    if not gcdas:
        sys.exit(f"coverage: no .gcda files under {build_dir} (run the tests first)")
    for i in range(0, len(gcdas), BATCH):
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", *gcdas[i : i + BATCH]],
            cwd=build_dir,
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        for line in out.splitlines():
            if line.strip():
                yield json.loads(line)


def collect(build_dir):
    """Returns {source path: {line number: ran?}} for files under src/."""
    lines = {}
    for doc in gcov_documents(build_dir):
        cwd = doc.get("current_working_directory", build_dir)
        for f in doc.get("files", []):
            path = os.path.realpath(os.path.join(cwd, f["file"]))
            if not path.startswith(SRC + os.sep):
                continue
            per_file = lines.setdefault(path, {})
            for rec in f.get("lines", []):
                n = rec["line_number"]
                per_file[n] = per_file.get(n, False) or rec["count"] > 0
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--build-dir", required=True)
    ap.add_argument("--floor", type=float, default=0.0, help="minimum line coverage in percent")
    args = ap.parse_args()

    lines = collect(args.build_dir)
    total = sum(len(v) for v in lines.values())
    ran = sum(sum(v.values()) for v in lines.values())
    if total == 0:
        sys.exit(f"coverage: no executable lines under {SRC}")
    pct = 100.0 * ran / total

    missed = sorted(
        ((len(v) - sum(v.values()), os.path.relpath(p, SRC)) for p, v in lines.items()),
        reverse=True,
    )
    print(f"{'missed':>7}  file (src/)")
    for miss, rel in missed[:TOP]:
        if miss:
            print(f"{miss:>7}  {rel}")
    print(f"src line coverage: {ran}/{total} = {pct:.2f}% ({len(lines)} files)")
    if pct < args.floor:
        print(f"FAIL: below the floor of {args.floor:.1f}%")
        return 1
    if args.floor > 0:
        print(f"ok: at or above the floor of {args.floor:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
