"""Record the reference lhs/rhs values that the correctness gate compares.

    python3 perfbench/make_refs.py --seeds 64

runs one pass of every workload for seeds 0..N-1 with the current program,
requires each config to pass the structural gate (exit code 0, expected
reports and solver calls, finite passing reports), and writes
`perfbench/refs/<workload>.json`.  Regenerate only when a change to the
program is meant to move the reported numbers, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import SOLVERS, Tracer  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=64)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, nargs="*",
                    default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    import bridgestab.cli as cli
    warnings.simplefilter("ignore")
    work = HERE.parent / ".bench_build" / "perfbench" / "refs"
    ok = True
    for name in args.workload:
        seeds = {}
        for seed in range(args.seeds):
            t0 = time.perf_counter()
            cfg_values = []
            for i, cfg in enumerate(workloads.generate(name, seed)):
                out = work / f"{i:02d}"
                shutil.rmtree(out, ignore_errors=True)
                tr = Tracer(only=SOLVERS)
                tr.install()
                try:
                    code = cli.run(cfg, out)
                finally:
                    tr.uninstall()
                text = (out / "report.jsonl").read_bytes()
                errs = gate.check_config(cfg, code, text, tr.solver_calls(),
                                         int(tr.counters["nonconverged"]),
                                         None)
                for e in errs:
                    print(f"{name} seed {seed}: {e}", file=sys.stderr)
                ok = ok and not errs
                cfg_values.append([[gate.round_ref(x) for x in pair]
                                   for pair in gate.values(text)])
            seeds[str(seed)] = cfg_values
            print(f"{name} seed {seed} recorded "
                  f"({time.perf_counter() - t0:.2f} s)", flush=True)
        gate.REFS.mkdir(exist_ok=True)
        (gate.REFS / f"{name}.json").write_text(json.dumps(
            {"seeds": seeds}, separators=(",", ":")) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
