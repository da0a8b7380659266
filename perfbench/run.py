"""Benchmark entry point: one workload, one seed, one measuring process.

    python3 perfbench/run.py --workload {algebra,chain,fiber} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The process pins the BLAS and OpenMP pools to
one thread before numpy is imported, imports the package from ``src/``,
warms up, and then repeats the workload for about ``--seconds`` seconds
(at least once).  A reference kernel (``reference.py``) runs before the
first repetition, after each one and between the steps of a repetition.
``verdict_ref`` and ``cpu_ref`` are the repetitions' mean wall and CPU time
divided by the kernel's mean: the machine's speed drifts over minutes, and
the ratio follows the package's speed, not the machine's.  Set-up time is
sampled in this process and in fresh ``--setup-only`` processes, half of
them before the repetitions and half after, so the samples span the run;
the median is reported.

With ``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics.  With ``--trace 1`` traced and untraced repetitions
alternate (at least two traced and one untraced) and the result carries the
per-layer metrics, the tracing overhead and the self-checks.  A readable
summary goes to stderr; the full record (environment, every repetition,
verdict numbers, counts and spans) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("algebra", "chain", "fiber")
SETUP_SAMPLES_EACH_SIDE = 2

# Layer map for the self-check: workloads that must call each span, and
# workloads where it must not be called at all.
CALL_MAP = {
    "fock.creation_op": ("algebra fiber", "chain"),
    "fock.field_op": ("algebra fiber", "chain"),
    "fock.dGamma": ("algebra fiber", "chain"),
    "fock.Gamma": ("algebra", "chain"),
    "fock.dGamma2": ("algebra", "chain"),
    "fock.build_basis": ("algebra chain fiber", ""),
    "split.tensor_factor_ops": ("algebra", "chain fiber"),
    "split.breve_gamma": ("algebra", "chain fiber"),
    "split.dbreve_gamma2": ("algebra", "chain fiber"),
    "split.tensor_iso_U": ("algebra", "chain fiber"),
    "split.scattering_ident": ("algebra", "chain fiber"),
    "algebra.run_algebra_suite": ("algebra", "chain fiber"),
    "model.build_fiber_H": ("fiber", "algebra chain"),
    "model.build_full_H": ("chain", "algebra fiber"),
    "spectral.SpectralCalculus.init": ("chain", "algebra fiber"),
    "spectral.SpectralCalculus.fn": ("chain", "algebra fiber"),
    "spectral.ground_state": ("fiber", "algebra chain"),
    "spectral.lanczos_lowest": ("fiber", "algebra chain"),
    "spectral.dispersion_scan": ("fiber", "algebra chain"),
    "dynamics.krylov_expm_apply": ("chain fiber", "algebra"),
    "dynamics.filtered_packet": ("chain", "algebra fiber"),
    "dynamics.electron_velocity_probe": ("chain", "algebra fiber"),
    "dynamics.W_estimate": ("fiber", "algebra chain"),
    "mourre.mourre_sweep": ("fiber", "algebra chain"),
    "mourre.mourre_scan": ("fiber", "algebra chain"),
    "mourre.build_conjugate": ("fiber", "algebra chain"),
    "mourre.commutator_iHA": ("fiber", "algebra chain"),
}
# Spans whose call count is a per-layer metric.
CALL_METRICS = ("fock.creation_op", "fock.dGamma", "fock.dGamma2",
                "split.tensor_factor_ops", "model.build_fiber_H",
                "spectral.ground_state", "dynamics.krylov_expm_apply")


def _self_metric(span: str) -> str:
    if span.startswith("spectral.SpectralCalculus."):
        return span + "_s"
    return span + ".self_s"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and warm up, print the set-up seconds, exit")
    args = p.parse_args(argv)
    if not args.setup_only and args.workload is None:
        p.error("--workload is required")
    return args


def _environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _setup_samples() -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES_EACH_SIDE):
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _repeat(workload: str, seed: int, seconds: float, trace: bool):
    """Run the workload until the next repetition would overrun ``seconds``.

    Untraced runs repeat untraced; traced runs alternate traced and untraced,
    starting traced, with at least two traced repetitions.  The reference
    kernel runs before the first repetition, after each one and wherever the
    runner pauses between steps; a repetition's times leave its pauses out.
    Returns the repetitions and the kernel's (wall, CPU) samples.
    """
    import workloads

    runner = workloads.RUNNERS[workload]
    kernel = reference.ReferenceKernel()
    ref = []
    paused = [0.0, 0.0]  # wall and CPU seconds paused in the current repetition

    def pause():
        t0, c0 = time.perf_counter(), time.process_time()
        ref.append(kernel.run())
        paused[0] += time.perf_counter() - t0
        paused[1] += time.process_time() - c0

    reps = []
    start = time.perf_counter()
    pause()
    while True:
        traced = trace and len(reps) % 2 == 0
        tracer = spans.Tracer() if traced else None
        paused[:] = [0.0, 0.0]
        with tracer or contextlib.nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            verdicts, numbers = runner(seed, pause)
            wall = time.perf_counter() - t0 - paused[0]
            cpu = time.process_time() - c0 - paused[1]
        reps.append({"traced": traced, "verdict_s": wall, "cpu_s": cpu,
                     "verdicts": verdicts, "numbers": numbers, "tracer": tracer})
        pause()
        elapsed = time.perf_counter() - start
        need_more = trace and sum(r["traced"] for r in reps) < 2
        mean = elapsed / len(reps)
        if not need_more and elapsed + mean > seconds:
            return reps, ref


def _check(workload: str, reps: list[dict]) -> list[str]:
    """Self-checks; returns the problems found."""
    problems = []
    outputs = {json.dumps([r["verdicts"], r["numbers"]], sort_keys=True) for r in reps}
    if len(outputs) > 1:
        problems.append("verdicts or their numbers differ between repetitions of one seed")
    traced = [r["tracer"] for r in reps if r["traced"]]
    if not traced:
        return problems
    counts = [t.counts() for t in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("counts differ between traced repetitions of one seed")
    calls = counts[0]["calls"]
    for span, (on, off) in CALL_MAP.items():
        if workload in on.split() and calls[span] == 0:
            problems.append(f"{span} has no call on {workload}")
        if workload in off.split() and calls[span] != 0:
            problems.append(f"{span} has {calls[span]} calls on {workload}, predicted none")
    return problems


def _metrics(reps, ref, setup, trace, pass_ratio):
    plain = [r for r in reps if not r["traced"]]
    if not trace:
        return {
            "verdict_ref": (statistics.fmean(r["verdict_s"] for r in plain)
                            / statistics.fmean(w for w, _ in ref), "ref"),
            "cpu_ref": (statistics.fmean(r["cpu_s"] for r in plain)
                        / statistics.fmean(c for _, c in ref), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setup), "s"),
            "pass_ratio": (pass_ratio, "ratio"),
        }
    tracers = [r["tracer"] for r in reps if r["traced"]]
    out = {}
    selfs = [t.self_times() for t in tracers]
    for span in spans.SPAN_NAMES:
        out[_self_metric(span)] = (statistics.median(s[span] for s in selfs), "s")
    counts = tracers[0].counts()
    for span in CALL_METRICS:
        out[span + ".calls"] = (counts["calls"][span], "count")
    out["model.H_dim"] = (sum(d for d, _ in counts["hamiltonians"]), "count")
    out["model.H_nnz"] = (sum(n for _, n in counts["hamiltonians"]), "count")
    out["spectral.ground_state.iterations"] = (sum(i for _, i in counts["ground_state"]),
                                               "count")
    traced_s = statistics.median(r["verdict_s"] for r in reps if r["traced"])
    out["trace.overhead_s"] = (traced_s - statistics.median(r["verdict_s"] for r in plain), "s")
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "nelsonlab" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC / 'nelsonlab'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workloads.warm_up()
    own_setup = time.perf_counter() - T_START
    if args.setup_only:
        print(f"{own_setup!r}")
        return 0
    setup = [own_setup] + _setup_samples()
    reps, ref = _repeat(args.workload, args.seed, args.seconds, bool(args.trace))
    setup += _setup_samples()
    expected = workloads.VERDICTS[args.workload]
    attempted = len(expected) * len(reps)
    failed = sum(r["verdicts"].get(name) is not True for r in reps for name in expected)
    problems = _check(args.workload, reps)
    metrics = _metrics(reps, ref, setup, bool(args.trace), 1.0 - failed / attempted)
    result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    env = _environment()

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seeded_inputs": workloads.SEEDED_INPUTS[args.workload],
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "setup_samples_s": setup, "reference_samples_s": ref, "problems": problems,
        "metrics": result_metrics,
        "repetitions": [
            {"traced": r["traced"], "verdict_s": r["verdict_s"], "cpu_s": r["cpu_s"],
             "verdicts": r["verdicts"], "numbers": r["numbers"],
             "counts": r["tracer"].counts() if r["tracer"] else None,
             "spans": r["tracer"].spans if r["tracer"] else None}
            for r in reps],
    }
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n", encoding="utf-8")

    log = sys.stderr
    print(f"environment: {json.dumps(env)}", file=log)
    seeded = workloads.SEEDED_INPUTS[args.workload] or "nothing (no random input)"
    print(f"{args.workload}: seed {args.seed} drives {seeded}; "
          f"{len(reps)} repetitions, {sum(r['traced'] for r in reps)} traced", file=log)
    walls = [r["verdict_s"] for r in reps if not r["traced"]]
    cpus = [r["cpu_s"] for r in reps if not r["traced"]]
    print(f"{args.workload} untraced repetitions: wall s mean {statistics.fmean(walls):.6g}, "
          f"median {statistics.median(walls):.6g}, min {min(walls):.6g}, "
          f"max {max(walls):.6g}, n {len(walls)}; CPU s mean {statistics.fmean(cpus):.6g}",
          file=log)
    print(f"{args.workload} reference kernel: wall s mean "
          f"{statistics.fmean(w for w, _ in ref):.6g}, CPU s mean "
          f"{statistics.fmean(c for _, c in ref):.6g}, n {len(ref)}", file=log)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=log)
    print(f"{args.workload} fail_ratio = {failed / attempted:.6g} "
          f"({failed} of {attempted} verdicts failed or missing)", file=log)
    for problem in problems:
        print(f"{args.workload} self-check FAILED: {problem}", file=log)
    print(f"record: {out_file.relative_to(ROOT)}", file=log)

    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
