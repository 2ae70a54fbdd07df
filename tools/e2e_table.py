#!/usr/bin/env python3
"""End-to-end timing table: five user-facing commands on two builds.

Runs the five commands of ROADMAP.md "Where things stand" with the
binaries of two build directories, alternating which build goes first in
each round, checks with `cmp` that every output file of a command is
byte-identical between the two builds (in every round), and prints the
median and minimum wall time of each command per build.

The commands:
  cold16    cold 16-core database build + a 1-per-scenario sweep, 4 threads
  grid4     4-core paper grid (--per-scenario=6), 4 threads, cached DB
  grid16    16-core paper grid (--per-scenario=6 --replicate=4), cached DB
  service16 default 16-core service run, 1 thread, cached DB
  knee      dense 3x12 knee grid, 5,000 arrivals, 4 threads, cached DB

Each build gets its own database cache, warmed by one untimed run of each
cached command before the first round. Exits 1 if any output differs.

Usage: python3 tools/e2e_table.py BUILD_A BUILD_B [--rounds N]
           [--only NAME,...] [--workdir DIR]
"""

import argparse
import filecmp
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

KNEE_LOADS = "0.3,0.5,0.7,0.9,1.1,1.3,1.5,1.7,1.9,2.1,2.3,2.5"

# name -> (binary, flags, output flags -> file names, uses the DB cache)
COMMANDS = {
    "cold16": ("sweep_main",
               ["--cores=16", "--per-scenario=1", "--threads=4"],
               {"--rows-csv": "rows.csv", "--agg-csv": "agg.csv"}, False),
    "grid4": ("sweep_main",
              ["--cores=4", "--per-scenario=6", "--threads=4"],
              {"--rows-csv": "rows.csv", "--agg-csv": "agg.csv",
               "--report-json": "report.json"}, True),
    "grid16": ("sweep_main",
               ["--cores=4", "--per-scenario=6", "--replicate=4",
                "--threads=4"],
               {"--rows-csv": "rows.csv", "--agg-csv": "agg.csv",
                "--report-json": "report.json"}, True),
    "service16": ("service_main", ["--threads=1"],
                  {"--rows-csv": "rows.csv", "--report-json": "report.json"},
                  True),
    "knee": ("service_main",
             ["--cores=4", "--num-arrivals=5000",
              "--arrivals=poisson,bursty,diurnal", f"--loads={KNEE_LOADS}",
              "--admission=fifo,sdf,qos-aware", "--policies=rm3",
              "--alphas=0", "--seed=2020", "--threads=4"],
             {"--rows-csv": "rows.csv", "--knee-report": "knee.json"}, True),
}


def run(build: pathlib.Path, name: str, out_dir: pathlib.Path,
        cache: pathlib.Path) -> float:
    binary, flags, outputs, cached = COMMANDS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = [str(build / "src" / binary), *flags]
    argv += [f"{flag}={out_dir / file}" for flag, file in outputs.items()]
    if cached:
        argv.append(f"--db-cache={cache}")
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=out_dir, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=False)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_a", type=pathlib.Path)
    parser.add_argument("build_b", type=pathlib.Path)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--only", default=",".join(COMMANDS),
                        help="comma list of commands to run")
    parser.add_argument("--workdir", type=pathlib.Path,
                        help="scratch directory (default: a fresh temp dir, "
                             "removed at exit)")
    args = parser.parse_args()
    names = args.only.split(",")
    for name in names:
        if name not in COMMANDS:
            parser.error(f"unknown command {name!r} (want one of "
                         f"{', '.join(COMMANDS)})")
    builds = {"A": args.build_a.resolve(), "B": args.build_b.resolve()}
    for build in builds.values():
        for binary in ("sweep_main", "service_main"):
            if not (build / "src" / binary).is_file():
                parser.error(f"{build / 'src' / binary} does not exist")

    work = args.workdir or pathlib.Path(tempfile.mkdtemp(prefix="e2e_table_"))
    work.mkdir(parents=True, exist_ok=True)
    caches = {side: work / f"cache_{side}" for side in builds}
    for side, build in builds.items():
        caches[side].mkdir(exist_ok=True)
        for name in names:
            if COMMANDS[name][3]:
                run(build, name, work / "warm" / side / name, caches[side])

    times = {(side, name): [] for side in builds for name in names}
    differing = []
    for rnd in range(args.rounds):
        order = ["A", "B"] if rnd % 2 == 0 else ["B", "A"]
        for name in names:
            dirs = {}
            for side in order:
                dirs[side] = work / f"round{rnd}" / side / name
                times[(side, name)].append(
                    run(builds[side], name, dirs[side], caches[side]))
            for file in COMMANDS[name][2].values():
                if not filecmp.cmp(dirs["A"] / file, dirs["B"] / file,
                                   shallow=False):
                    differing.append(f"round {rnd}: {name}/{file}")

    print(f"A = {builds['A']}\nB = {builds['B']}\n"
          f"{args.rounds} alternating rounds, wall seconds\n")
    print(f"| command | A median | A min | B median | B min | B/A median |")
    print("|---|---|---|---|---|---|")
    for name in names:
        a = times[("A", name)]
        b = times[("B", name)]
        print(f"| {name} | {statistics.median(a):.3f} | {min(a):.3f} | "
              f"{statistics.median(b):.3f} | {min(b):.3f} | "
              f"{statistics.median(b) / statistics.median(a):.3f} |")
    if args.workdir is None:
        shutil.rmtree(work)
    if differing:
        print("\noutputs differ between the builds:\n  " +
              "\n  ".join(differing))
        return 1
    print(f"\nevery output byte-identical between the builds "
          f"({sum(len(COMMANDS[n][2]) for n in names)} files per round)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
