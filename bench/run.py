#!/usr/bin/env python3
"""Stage benchmark for the angletower pipeline.

    python3 bench/run.py --workload dendrite-pipeline --seed 1 \\
        --seconds 10 --trace 0

Runs the workload's CLI stages in order, in this one process, through the
public entry `angletower.cli.main(argv)`, round after round until the
stage time reaches --seconds (at least one round).  Every round attempts
the same operations: one per stage, plus a determinism rerun of `lift`.
An operation fails when its exit code is not 0 or a check on its outputs
does not hold; checks run after the timed rounds.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics setup_s, pipeline_s and peak_rss_mb; with --trace 1 the
public functions of every angletower module are wrapped in spans and the
line carries the per-layer metrics instead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".bench_runs"

# The math libraries' thread pools are held at one thread: the stages are
# single-threaded numpy, and idle pool threads only add noise.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

ALL_STAGES = ("tower-build", "tower-export", "census", "lift", "lyapunov",
              "induce", "conformal", "report")

SETUP_PROBES = 5
SETUP_PROBE = ("import sys\n"
               "from angletower.cli import build_parser, load_config\n"
               "load_config(build_parser().parse_args(sys.argv[1:]))\n")

# kappa = 2: the rays 5/12 and 7/12 both land on c (to 8e-13 with the
# program's solver).  A deep expansion and a large dyadic Brolin ensemble
# put the work on the tower, census, dyadic window, tower walk and lift;
# nothing here lands a ray or steps a Fraction stream.
PAIR_LIFT_INI = """\
[map]
degree = 2
c_real = -1.5436890126920764
c_imag = 0.0
angle = 5/12 7/12
kappa = 2

[tower]
R = 12
extra_levels = 2000

[sampling]
seed = {seed}
samples = 8000
horizon = 2000
n_grid = 500 1000 2000
R_grid = 4 8 12

[tolerances]
tol_land = 1e-12
tol_orbit = 1e-9

[census]
R = 2
horizon = 20
brute_depth = 8

[lift]
sampler = brolin
count = 8000

[output]
dir = {out}
"""

# d = 3: c is the root of c^2 = e^(2 pi i / 3) - 1 on which the ray 1/6
# lands (to 3e-16).  Counts and cylinder depth are below the shipped
# dendrite sizes; depth 5 is 243 cylinders, and conformal the largest
# share of the round.
CUBIC_PIPELINE_INI = """\
[map]
degree = 3
c_real = 0.34062501931660666
c_imag = 1.2712298784187062
angle = 1/6

[tower]
R = 8
extra_levels = 64

[sampling]
seed = {seed}
samples = 1000
horizon = 500
n_grid = 125 250 500
R_grid = 4 6 8

[tolerances]
tol_land = 1e-12
tol_orbit = 1e-9
eigen_tol = 1e-10
bisection_tol = 1e-6

[margins]
cutpoint_margin = 1/64

[census]
R = 2
horizon = 16
brute_depth = 7

[lift]
sampler = brolin
count = 1000

[lyapunov]
count = 384
bits = 8
n = 160
landing_rows = 6

[induce]
count = 256
bits = 10
horizon = 800
branch_words = 100

[conformal]
depth = 5
lambdas = 1.1 1.2 1.5
horizons = 4 5 6
eps = 0.05 0.1 0.2
lift_horizon = 400

[output]
dir = {out}
"""

WORKLOADS = {
    "dendrite-pipeline": {"config": "configs/dendrite.ini",
                          "stages": ALL_STAGES},
    "pair-lift": {"template": PAIR_LIFT_INI,
                  "stages": ("tower-build", "tower-export", "census", "lift",
                             "report")},
    "cubic-pipeline": {"template": CUBIC_PIPELINE_INI, "stages": ALL_STAGES},
}

DETERMINISM_STAGE = "lift"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def call_main(main, argv) -> int:
    """One CLI invocation; its stdout goes to stderr to keep ours clean."""
    with contextlib.redirect_stdout(sys.stderr):
        try:
            return main(argv)
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else 1
        except Exception:
            traceback.print_exc()
            return -1


def measure_setup(config: Path, out: Path, seed: int, stage: str) -> list:
    """Wall time of fresh interpreters importing the CLI and parsing the
    config, after one unmeasured warm-up; a probe that fails is None."""
    cmd = [sys.executable, "-c", SETUP_PROBE, stage, "--config", str(config),
           "--out", str(out), "--seed", str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            times.append(None)
        elif i > 0:
            times.append(dt)
    return times


def content_hash(out: Path, stage: str):
    path = out / f"{stage}.manifest.json"
    return json.loads(path.read_text())["content_hash"] if path.exists() \
        else None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "angletower" / "cli.py").is_file():
        print(f"bench: no angletower sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if "config" in wl and not (ROOT / wl["config"]).is_file():
        print(f"bench: missing {wl['config']}", file=sys.stderr)
        return 2
    seed = args.seed
    if seed < 0:
        print("bench: --seed must be >= 0", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    sys.path.insert(0, src)

    run_dir = RUNS / f"{args.workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result = run(args, wl, run_dir)
    finally:
        for child in run_dir.glob("round*"):
            shutil.rmtree(child, ignore_errors=True)
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run(args, wl, run_dir: Path) -> dict:
    seed = args.seed
    if "config" in wl:
        config = ROOT / wl["config"]
    else:
        config = run_dir / f"{args.workload}.ini"
        config.write_text(wl["template"].format(seed=seed,
                                                out=run_dir / "default"))
    stages = wl["stages"]
    # a traced run reports no setup_s, so it starts no probes
    setup = [] if args.trace else measure_setup(config, run_dir / "setup",
                                                seed, stages[0])

    import checks
    from angletower.cli import main as cli_main
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    ctx = checks.Context.from_ini(config, seed)

    rounds = []
    spent = 0.0
    while not rounds or spent < args.seconds:
        out = run_dir / f"round{len(rounds)}"
        codes, times = {}, {}
        if tracer:
            tracer.start_round()
        for stage in stages:
            argv = [stage, "--config", str(config), "--out", str(out),
                    "--seed", str(seed)]
            # collected here, untimed, so no stage pays for the last one's
            # garbage
            gc.collect()
            t0 = time.perf_counter()
            if tracer:
                with tracer.span(f"cli.{stage}"):
                    codes[stage] = call_main(cli_main, argv)
            else:
                codes[stage] = call_main(cli_main, argv)
            times[stage] = time.perf_counter() - t0
        if tracer:
            tracer.end_round()
        # the determinism operation reruns a seeded stage, untimed and
        # untraced, on a copy of this round's tower
        det = out.with_name(out.name + "-det")
        det.mkdir()
        if (out / "tower.json").exists():
            shutil.copy(out / "tower.json", det / "tower.json")
        codes["determinism"] = call_main(cli_main, [
            DETERMINISM_STAGE, "--config", str(config), "--out", str(det),
            "--seed", str(seed)])
        rounds.append({"out": out, "det": det, "codes": codes,
                       "times": times})
        spent += sum(times.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = failed = 0
    for rnd in rounds:
        for op, problems in check_round(checks, ctx, stages, rnd):
            attempted += 1
            if problems:
                failed += 1
                for p in problems:
                    print(f"bench: {rnd['out'].name} {op} FAILED: {p}",
                          file=sys.stderr)
    # equal seeds give equal artifacts in every round of the run
    hashes = [[content_hash(r["out"], s) for s in stages] for r in rounds]
    correct = (None not in setup
               and all(h == hashes[0] for h in hashes))

    pipeline = [sum(r["times"].values()) for r in rounds]
    if tracer:
        metrics = tracer.metrics(statistics.median(pipeline))
        tracer.write(run_dir / "spans.json")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(
                [t for t in setup if t is not None] or [0.0]), "unit": "s"},
            "pipeline_s": {"value": statistics.median(pipeline), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    medians = ", ".join(
        f"{s} {statistics.median(r['times'][s] for r in rounds):.3f}"
        for s in stages)
    print(f"bench: {args.workload} seed {seed}: {len(rounds)} round(s), "
          f"stage seconds {medians}", file=sys.stderr)
    return {"correct": bool(correct), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def check_round(checks, ctx, stages, rnd):
    """(operation, problems) for every operation of one round."""
    out, codes = rnd["out"], rnd["codes"]
    for i, stage in enumerate(stages):
        code = codes[stage]
        if code != 0:
            yield stage, [f"exit code {code}"]
            continue
        try:
            if stage == "report":
                problems = checks.check_report(ctx, out, stages[:i])
            else:
                problems = checks.STAGE_CHECKS[stage](ctx, out)
        except Exception as e:
            traceback.print_exc()
            problems = [f"check raised {type(e).__name__}: {e}"]
        yield stage, problems
    code = codes["determinism"]
    if code != 0:
        yield "determinism", [f"exit code {code}"]
    else:
        first = content_hash(out, DETERMINISM_STAGE)
        again = content_hash(rnd["det"], DETERMINISM_STAGE)
        yield "determinism", ([] if first is not None and first == again
                              else [f"content hash {again} != {first}"])


if __name__ == "__main__":
    sys.exit(main())
