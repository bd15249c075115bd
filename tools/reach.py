"""Which functions and lines of `src/bridgestab` the shipped runs reach.

Runs every `configs/*.yaml` and the configs of each benchmark workload
(`perfbench/workloads.py`) at seeds 0, 1, 7 and 61 through `cli.run`, in
this process, under a line trace restricted to `src/bridgestab`; each run
writes into a temporary directory that is removed afterwards.  Prints each
run's exit code, then the functions that no run entered and the lines of
entered functions that no run reached.  Module and class bodies run at
import, before the trace starts: they are not counted, and a function
called only at import is listed as never entered.

    python tools/reach.py

It takes no options, leaves no file behind and gates nothing: a function
or line listed here is one that no shipped scenario or workload needs, and
a test may still cover it.
"""

import contextlib
import inspect
import io
import sys
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bridgestab"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import yaml  # noqa: E402

import workloads  # noqa: E402
from bridgestab import cli  # noqa: E402

SEEDS = (0, 1, 7, 61)


def _functions(code):
    """Every function code object nested in ``code`` (lambdas and
    comprehensions included; class bodies are walked, not returned)."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const
            yield from _functions(const)


def _key(code) -> tuple:
    return code.co_filename, code.co_firstlineno, code.co_name


def _lines(code) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def main() -> int:
    prefix = str(SRC) + "/"
    hit: dict[str, set[int]] = defaultdict(set)
    entered: set[tuple] = set()     # (file, first line, name) of codes

    def local(frame, event, arg):
        hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        entered.add(_key(frame.f_code))
        return local(frame, event, arg)

    runs = [(str(p.relative_to(ROOT)), [yaml.safe_load(p.read_text())])
            for p in sorted((ROOT / "configs").glob("*.yaml"))]
    runs += [(f"{w} seed {s}", workloads.generate(w, s))
             for w in workloads.WORKLOADS for s in SEEDS]
    print("exit codes:")
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, cfgs) in enumerate(runs):
            codes = []
            for j, cfg in enumerate(cfgs):
                with warnings.catch_warnings(), \
                        contextlib.redirect_stderr(io.StringIO()):
                    warnings.simplefilter("ignore")
                    sys.settrace(trace)
                    try:
                        codes.append(cli.run(cfg, Path(tmp) / f"{i}-{j}"))
                    finally:
                        sys.settrace(None)
            print(f"  {name}: {' '.join(map(str, codes))}")

    never, missed = [], []
    for path in sorted(SRC.glob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        name = path.name
        for code in _functions(module):
            label = f"{name}:{code.co_firstlineno} " \
                    f"{getattr(code, 'co_qualname', code.co_name)}"
            if _key(code) not in entered:
                if not code.co_name.startswith("<"):
                    never.append(label)
                continue
            lines = sorted(_lines(code) - hit[str(path)])
            if lines:
                missed.append(f"{label}: {_spans(lines)}")
    print(f"functions no run entered ({len(never)}):")
    print("".join(f"  {x}\n" for x in never), end="")
    print(f"lines no run reached, in entered functions ({len(missed)}):")
    print("".join(f"  {x}\n" for x in missed), end="")
    return 0


def _spans(lines: list[int]) -> str:
    """1, 2, 3, 7 as "1-3, 7"."""
    spans = []
    for n in lines:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


if __name__ == "__main__":
    sys.exit(main())
