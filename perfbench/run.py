"""attribank benchmark: one workload per invocation, result as the last stdout line.

    python3 perfbench/run.py --workload seq5 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # the three in turn

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separately traced run. See
perfbench/README.md for the workloads and metrics.

The orchestrating process imports neither numpy nor the package. It starts
a few set-up probes (fresh processes that import the package and build the
inputs, for the set-up time) and then one worker process that sets up again,
runs whole rounds of the workload for the given number of seconds, checks
the outputs and reports. Every child is waited for, and killed on timeout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")

WORKLOADS = ("seq5", "long", "cdcl_shared")
SETUP_PROBES = 4
DEADLINE_S = 175.0  # children are killed so that a run ends within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", choices=("setup", "run"), help=argparse.SUPPRESS)
    p.add_argument("--dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


# ---------------------------------------------------------------------------
# worker side (runs in a child process)


def worker(args) -> dict:
    sys.path.insert(0, SRC)
    import attribank
    if os.path.dirname(os.path.abspath(attribank.__file__)) != os.path.join(SRC, "attribank"):
        raise RuntimeError(f"imported attribank from {attribank.__file__}, not from {SRC}")
    import layertrace
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = layertrace.Tracer(full=bool(args.trace))
    tracer.install()
    tracer.active = bool(args.trace)  # the full tracer also sees set-up
    inputs = workload.setup(args.seed, args.dir)
    setup_s = time.perf_counter() - T_START
    if args.worker == "setup":
        return {"setup_s": setup_s}
    setup_layers = tracer.layer_sample() if args.trace else {}

    rounds = []
    first_output = None
    failure = None
    loop_start = time.perf_counter()
    while True:
        round_dir = os.path.join(args.dir, f"round{len(rounds)}")
        os.makedirs(round_dir)
        prepared = workload.prepare(inputs, round_dir)
        tracer.reset()
        tracer.active = True
        t0 = time.perf_counter()
        try:
            result = workload.run(prepared)
        except Exception:  # a failed round is reported, not raised
            failure = traceback.format_exc()
            break
        finally:
            seconds = time.perf_counter() - t0
            tracer.active = False
        done = workload.collect(prepared, result)
        rounds.append({"seconds": seconds, "digest": done.digest,
                       **(tracer.layer_sample() if args.trace else tracer.throughput_sample())})
        if rounds[1:]:
            shutil.rmtree(round_dir)
        else:
            first_output = done.output
        elapsed = time.perf_counter() - loop_start
        if elapsed + statistics.median(r["seconds"] for r in rounds) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {"setup_s": setup_s, "rounds": len(rounds),
              "attempted": workload.tasks_per_round * (len(rounds) + (failure is not None)),
              "failed": workload.tasks_per_round if failure else 0}
    if failure:
        print(failure, file=sys.stderr)
    if not rounds:
        return dict(report, problems=["no round finished"])

    problems = workload.check(inputs, first_output)
    digests = sorted({r["digest"] for r in rounds})
    if len(digests) > 1:
        problems.append(f"rounds on the same inputs disagree: {digests}")
    report.update(run_s=statistics.median(r["seconds"] for r in rounds),
                  problems=problems, accuracy_sha256=rounds[0]["digest"],
                  info=workload.info(inputs, first_output))
    if args.trace:
        layers = {k: statistics.median(r[k] for r in rounds)
                  for k in rounds[0] if k not in ("seconds", "digest")}
        layers["data_io.generate_synthetic_s"] += setup_layers["data_io.generate_synthetic_s"]
        report["per_layer"] = layers
    else:
        report.update(
            train_samples_per_s=(sum(r["train_samples"] for r in rounds)
                                 / sum(r["train_s"] for r in rounds)),
            eval_samples_per_s=(sum(r["eval_samples"] for r in rounds)
                                / sum(r["eval_s"] for r in rounds)),
            peak_rss_mb=peak_rss_mb)
    return report


# ---------------------------------------------------------------------------
# orchestrator side


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ATTRIBANK_THREADS", None)
    ncpu = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        env[var] = str(min(int(current), ncpu)) if current.isdigit() and int(current) > 0 \
            else str(ncpu)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, role: str, workdir: str, env: dict) -> dict:
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", workdir]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, DEADLINE_S - (time.perf_counter() - T_START)))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def orchestrate(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "attribank", "__init__.py")):
        print(f"perfbench: no attribank package under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RUNS, f"{tag}-{os.getpid()}")
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                setups.append(run_child(args, "setup", os.path.join(workdir, f"probe{i}"),
                                        env)["setup_s"])
        report = run_child(args, "run", os.path.join(workdir, "worker"), env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not report["rounds"]:
        print(f"perfbench: {args.workload} finished no round", file=sys.stderr)
        return 1

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        values = report["per_layer"]
    else:
        setups.append(report["setup_s"])
        values = {"run_s": report["run_s"], "setup_s": statistics.median(setups),
                  "train_samples_per_s": report["train_samples_per_s"],
                  "eval_samples_per_s": report["eval_samples_per_s"],
                  "peak_rss_mb": report["peak_rss_mb"]}
    result = {"correct": not report["problems"], "attempted": report["attempted"],
              "failed": report["failed"],
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}

    os.makedirs(os.path.join(RUNS, "results"), exist_ok=True)
    with open(os.path.join(RUNS, "results", f"{tag}.json"), "w") as f:
        json.dump({"result": result, "worker": report, "setup_samples_s": setups}, f, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  rounds {report['rounds']}  "
          f"trace {args.trace}")
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"accuracy_sha256 {report['accuracy_sha256']}")
    for key, value in sorted(report["info"].items()):
        print(f"info {key} {value}")
    if args.trace:
        print(f"info traced_run_s {report['run_s']:.4f} s")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        if not args.dir:
            raise SystemExit("--worker needs --dir")
        sys.path.insert(0, HERE)
        print(json.dumps(worker(args)))
        return 0
    if args.workload == "all":
        return max(orchestrate(argparse.Namespace(**dict(vars(args), workload=w)))
                   for w in WORKLOADS)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
