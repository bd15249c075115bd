"""bridgestab benchmark: end-to-end and per-layer metrics of `cli.run`.

Usage (from the repository root):

    python3 perfbench/run.py --workload battery-1d --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

For one workload and seed the benchmark generates the configs
(`workloads.py`), then drives `bridgestab.cli.run` in a closed loop: one
config at a time, each starting after the previous one returned, in a child
process that runs only this workload, with BLAS/OpenMP threads pinned to
min(2, nproc).  It prints the metrics by name with their units, then one
line with the environment, and as its last line one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics (medians over passes).
`--trace 1` alternates untraced and traced passes and reports the
per-layer metrics of `tracer.py`, plus `trace.overhead_frac`.

Every pass goes through the correctness gate (`gate.py`); reports must be
byte-identical across passes and between traced and untraced passes.  The
exit code is 0 only when every gate held.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
# set-up probes run before and after the passes, so that they sample the
# machine over the whole run
SETUP_PROBES = (4, 4)
MIN_PASSES = 3
# a child pass runs a warm-up pass, then passes for --seconds and at least
# MIN_PASSES; the slack covers the warm-up and the last pass
CHILD_SLACK_S = 145.0


# ---------------------------------------------------------------------------
# child side: runs inside a fresh interpreter with the pinned environment
# ---------------------------------------------------------------------------

def _load_configs(work: Path):
    """Import the CLI, then load and validate the generated configs."""
    import bridgestab.cli as cli
    import yaml
    cfgs = [yaml.safe_load(p.read_text())
            for p in sorted((work / "configs").glob("*.yaml"))]
    errs = [e for c in cfgs for e in cli.validate(c)]
    if errs:
        raise SystemExit(f"generated config is invalid: {errs}")
    return cli, cfgs


def child_setup(work: Path) -> dict:
    t0 = time.perf_counter()
    _load_configs(work)
    return {"setup_s": time.perf_counter() - t0}


def child_matvec(n: int) -> dict:
    """Plain exp(K) @ v at size n: the dense matrix-vector baseline."""
    import numpy as np
    rng = np.random.default_rng(0)
    E = np.exp(-rng.random((n, n)))
    v = rng.random(n)
    reps = max(5, int(2e7 // (n * n)))
    samples = []
    for _ in range(15):
        t0 = time.perf_counter()
        for _ in range(reps):
            E @ v
        samples.append((time.perf_counter() - t0) / reps)
    return {"ref_matvec_us": statistics.median(samples) * 1e6}


def _environment() -> dict:
    import platform

    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict form of the build config
        blas_id = "unknown"
    llc = 0
    for key in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", key], capture_output=True,
                                 text=True, timeout=10, check=False).stdout
            llc = llc or int(out.strip() or 0)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", 0)),
            "omp_threads": int(os.environ.get("OMP_NUM_THREADS", 0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_id, "llc_bytes": llc}


class _Pass:
    """Outcome of one pass over the configs."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.wall_cal: list[float] = []
        self.cpu_cal: list[float] = []
        self.texts: list[bytes | None] = []
        self.codes: list[int] = []
        self.solves: list[int] = []
        self.nonconv: list[int] = []
        self.written = 0
        self.unbound: list[str] = []


def _run_pass(cli, cfgs, out_root: Path, tr, cal=None) -> _Pass:
    """One pass over the configs.  With a calibration, each config's time
    is also corrected by the mean of the calibrations taken right before
    and right after it."""
    res = _Pass()
    tr.install()
    try:
        res.unbound = tr.unbound()
        for i, cfg in enumerate(cfgs):
            out = out_root / f"{i:02d}-{cfg['scenario']}"
            shutil.rmtree(out, ignore_errors=True)
            s0 = tr.solver_calls()
            n0 = tr.counters["nonconverged"]
            w0, c0 = time.perf_counter(), time.process_time()
            code = cli.run(cfg, out)
            wall = time.perf_counter() - w0
            cpu = time.process_time() - c0
            res.wall += wall
            res.cpu += cpu
            if cal is not None:
                factor = cal.bracket()
                res.wall_cal.append(wall * factor)
                res.cpu_cal.append(cpu * factor)
            rep = out / "report.jsonl"
            res.texts.append(rep.read_bytes() if rep.is_file() else None)
            res.codes.append(code)
            res.solves.append(tr.solver_calls() - s0)
            res.nonconv.append(int(tr.counters["nonconverged"] - n0))
            if out.is_dir():
                res.written += sum(f.stat().st_size for f in out.iterdir())
    finally:
        tr.uninstall()
    return res


def child_pass(workload: str, seed: int, seconds: float, trace: bool,
               work: Path) -> dict:
    import resource

    import gate
    from calib import Calibration
    from tracer import SOLVERS, Tracer

    cli, cfgs = _load_configs(work)
    refs = gate.load_refs(workload, seed)
    out_root = work / "out"
    errors: list[str] = []
    if refs is None:
        print(f"note: no reference values for {workload} seed {seed}; "
              "the reference comparison is skipped", file=sys.stderr)
    elif len(refs) != len(cfgs):
        errors.append("reference file does not match the configs")
        refs = None
    attempted = failed = 0
    first: list[bytes | None] | None = None

    def account(p: _Pass, traced: bool) -> None:
        nonlocal attempted, failed, first
        ops = bad = 0
        for i, cfg in enumerate(cfgs):
            reps = gate.reports(p.texts[i]) if p.texts[i] else []
            ops += len(reps) + p.solves[i]
            bad += sum(not r["passed"] for r in reps) + p.nonconv[i]
        if any(c != 0 for c in p.codes):
            bad = ops
        attempted += max(ops, 1)
        failed += bad if ops else 1
        if first is None:
            first = p.texts
            for i, cfg in enumerate(cfgs):
                errors.extend(gate.check_config(
                    cfg, p.codes[i], p.texts[i], p.solves[i], p.nonconv[i],
                    refs[i] if refs else None))
        else:
            kind = "traced" if traced else "untraced"
            for i, cfg in enumerate(cfgs):
                if p.codes[i] != 0 or p.nonconv[i]:
                    errors.append(f"{cfg['scenario']}: {kind} pass exit "
                                  f"code {p.codes[i]}, {p.nonconv[i]} "
                                  "non-converged solves")
                if p.texts[i] != first[i]:
                    errors.append(f"{cfg['scenario']}: report.jsonl of a "
                                  f"{kind} pass differs from the first pass")
        if p.unbound:
            errors.append(f"tracer missed names: {p.unbound}")

    def counted() -> Tracer:
        return Tracer(only=SOLVERS)

    account(_run_pass(cli, cfgs, out_root, counted()), False)  # warm-up
    cal = Calibration()
    walls, cpus, walls_cal, cpus_cal = [], [], [], []
    traced_walls, layers = [], []
    detail = {}
    t_start = time.perf_counter()
    while (time.perf_counter() - t_start < seconds
           or len(walls) < (2 if trace else MIN_PASSES)):
        p = _run_pass(cli, cfgs, out_root, counted(), None if trace else cal)
        account(p, False)
        walls.append(p.wall)
        cpus.append(p.cpu)
        walls_cal.append(p.wall_cal)
        cpus_cal.append(p.cpu_cal)
        if not trace:
            continue
        tr = Tracer()
        p = _run_pass(cli, cfgs, out_root, tr)
        account(p, True)
        traced_walls.append(p.wall)
        m = tr.layer_metrics()
        m["cli.bytes_written"] = p.written
        layers.append(m)
        for name in workloads.REQUIRED[workload]:
            if not m[name] > 0:
                errors.append(f"{name} reads zero on {workload}")
        detail = {
            "lse_matrices": {f"{r}x{c}": {"calls": k, "bytes": 8 * r * c}
                             for (r, c), k in sorted(tr.lse_shapes.items())},
            "plans": {f"{r}x{c}": {"calls": k, "bytes": 8 * r * c}
                      for (r, c), k in sorted(tr.plan_shapes.items())},
            "traced_functions": len(tr.holders),
            "rebound_names": sum(len(v) for v in tr.holders.values()),
        }
    env = _environment()
    if trace:
        detail["llc_bytes"] = env["llc_bytes"]
    digest = hashlib.sha256(b"".join(t or b"" for t in first)).hexdigest()
    detail["reports_sha256"] = digest[:16]
    return {"walls": walls, "cpus": cpus, "walls_cal": walls_cal,
            "cpus_cal": cpus_cal, "traced_walls": traced_walls,
            "layers": layers, "attempted": attempted, "failed": failed,
            "errors": errors,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": env, "detail": detail}


# ---------------------------------------------------------------------------
# parent side: generates inputs, starts the children, prints the result
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: list[str], env: dict,
           timeout: float = CHILD_SLACK_S) -> dict:
    """Run this script in child mode and return its JSON answer."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           *args], env=env, stdout=subprocess.PIPE,
                          timeout=timeout, check=False)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {args[:2]} exited with code "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def _quartiles(xs: list[float]) -> str:
    if len(xs) < 2:
        return "n=1"
    q = statistics.quantiles(xs, n=4)
    return f"q1 {q[0]:.4g}, q3 {q[2]:.4g}, n={len(xs)}"


def _typical_pass(per_config: list[list[float]]) -> float:
    """Sum over configs of the median over passes of each config's time:
    the time of a typical pass, robust to a slow config in some pass."""
    return sum(statistics.median(col) for col in zip(*per_config))


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Metrics, gate outcome and environment of one workload and seed."""
    import yaml
    work = ROOT / ".bench_build" / "perfbench" / \
        f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    cfgs = workloads.generate(workload, seed)
    for i, cfg in enumerate(cfgs):
        (work / "configs" / f"{i:02d}-{cfg['scenario']}.yaml").write_text(
            yaml.safe_dump(cfg, sort_keys=False))
    env = _child_env()

    def setup_probes(k: int) -> list[float]:
        return [_child(["--child", "setup", "--work", str(work)],
                       env)["setup_s"] for _ in range(k)]

    try:
        setups = [] if trace else setup_probes(SETUP_PROBES[0])
        res = _child(["--child", "pass", "--workload", workload,
                      "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(int(trace)), "--work", str(work)], env,
                     timeout=seconds + CHILD_SLACK_S)
        if trace:
            one = dict(env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                       MKL_NUM_THREADS="1")
            ref = _child(["--child", "matvec", "--n",
                          str(workloads.kernel_cells(cfgs))], one)
        else:
            setups += setup_probes(SETUP_PROBES[1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines, metrics = [], {}
    if trace:
        layers = res["layers"]
        for name in layers[0]:
            metrics[name] = statistics.median(m[name] for m in layers)
        metrics["kernels.ref_matvec_us"] = ref["ref_matvec_us"]
        metrics["trace.overhead_frac"] = (
            statistics.median(res["traced_walls"])
            / statistics.median(res["walls"]) - 1.0)
        units = _units("per_layer")
        pass_s = statistics.median(res["traced_walls"])
        shares = ", ".join(
            f"{key} {metrics[key] / pass_s:.0%}" for key in (
                *(f"{layer}.self_s" for layer in ("kernels", "schrodinger",
                                                  "sobolev", "diagnostics",
                                                  "dynamics", "cli")),
                "measures.s", "kernels.lse_s", "kernels.build_s", "sobolev.hm1_s",
                "schrodinger.plan_entropy_s"))
        lines.append(f"{workload}: per-layer medians over {len(layers)} "
                     f"traced passes of {pass_s:.3f} s")
        lines.append(f"{workload}: share of a traced pass: {shares}")
    else:
        metrics = {"run_s": _typical_pass(res["walls_cal"]),
                   "cpu_s": _typical_pass(res["cpus_cal"]),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": res["peak_rss_mb"]}
        units = _units("end_to_end")
        spread = {"run_s": [sum(p) for p in res["walls_cal"]],
                  "cpu_s": [sum(p) for p in res["cpus_cal"]],
                  "setup_s": setups}
        raw = {"run_s": res["walls"], "cpu_s": res["cpus"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "do not match BENCHMARK.json")
    out = {}
    for name, value in metrics.items():
        out[name] = {"value": value, "unit": units[name]}
        extra = "" if trace or name not in spread else (
            f"   (median; {_quartiles(spread[name])}"
            + (f"; uncorrected {statistics.median(raw[name]):.6g} s"
               if name in raw else "") + ")")
        lines.append(f"  {workload:13s} {name:34s} {value:14.6g} "
                     f"{units[name]}{extra}")
    ops = max(res["attempted"], 1)
    lines.append(f"  {workload:13s} {'fail_frac':34s} "
                 f"{res['failed'] / ops:14.6g} 1   "
                 f"({res['failed']} of {ops} operations)")
    return {"metrics": out, "attempted": ops, "failed": res["failed"],
            "errors": res["errors"], "lines": lines, "env": res["env"],
            "detail": res["detail"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("pass", "setup", "matvec"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--n", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child == "setup":
        print(json.dumps(child_setup(args.work)))
        return 0
    if args.child == "matvec":
        print(json.dumps(child_matvec(args.n)))
        return 0
    if args.child == "pass":
        print(json.dumps(child_pass(args.workload, args.seed, args.seconds,
                                    bool(args.trace), args.work)))
        return 0

    if not (SRC / "bridgestab" / "cli.py").is_file():
        print(f"error: bridgestab sources not found under {SRC}",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = bench(name, args.seed, args.seconds,
                                  bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for line in results[name]["lines"]:
            print(line, flush=True)
    errors = [f"{n}: {e}" for n, r in results.items() for e in r["errors"]]
    for e in errors[:50]:
        print(f"gate: {e}", file=sys.stderr)
    single = len(names) == 1
    metrics = {(k if single else f"{n}.{k}"): v
               for n, r in results.items() for k, v in r["metrics"].items()}
    result = {"correct": not errors and not any(r["failed"]
                                                for r in results.values()),
              "attempted": sum(r["attempted"] for r in results.values()),
              "failed": sum(r["failed"] for r in results.values()),
              "metrics": metrics}
    context = {"env": next(iter(results.values()))["env"],
               "detail": {n: r["detail"] for n, r in results.items()}}
    print(json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
