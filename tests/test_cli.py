"""End-to-end runs of the command-line batteries and their exit-code contract."""

import csv
import ctypes
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from bridgestab import BandwidthWarning, DiscreteMeasure, cli, dynamics, \
    schrodinger
from bridgestab.kernels import AnchoredLSE


def write_cfg(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def solve_cfg(out_dir):
    return {
        "scenario": "solve",
        "grid": {"bounds": [-6.0, 6.0], "shape": 96},
        "kernel": {"kind": "ou", "T": 0.5, "kappa": 1.0},
        "marginals": {
            "mu": {"family": "gaussian", "mean": [-1.0], "sigma": 0.9},
            "nu": {"family": "gaussian", "mean": [1.0], "sigma": 0.8},
        },
        "output": {"dir": str(out_dir)},
    }


def sobolev_cfg(out_dir, shape=512, eps=0.2, n=2, seed=1):
    return {
        "scenario": "sobolev",
        "seed": seed,
        "grid": {"bounds": [-6.0, 6.0], "shape": shape},
        "marginals": {"mu": {"family": "random"}},
        "sobolev": {"n_instances": n, "eps": eps},
        "output": {"dir": str(out_dir)},
    }


def read_reports(out_dir):
    lines = (Path(out_dir) / "report.jsonl").read_text().splitlines()
    rows = [json.loads(ln) for ln in lines]
    return [r for r in rows if r.get("record") == "report"], rows


def test_list_scenarios(capsys):
    assert cli.main(["--list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in _SCENARIO_NAMES:
        assert name in out


def test_solve_end_to_end(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, solve_cfg(out))
    assert cli.main(["--config", str(cfg)]) == 0
    reports, rows = read_reports(out)
    names = {r["name"] for r in reports}
    assert "solve_residual" in names
    assert all(r["passed"] for r in reports)
    assert all(r["inputs_digest"] for r in rows)
    sol_rec = [r for r in rows if r.get("record") == "solution"]
    assert sol_rec and sol_rec[0]["marginal_residual"] <= 1e-9
    assert (out / "summary.txt").exists()
    assert (out / "potentials.csv").exists()


def test_reports_are_byte_identical_across_reruns(tmp_path):
    # each scenario twice in one interpreter: a cache kept across runs (of
    # kernels per ε, say) must not change the second run's reports
    for cfg in [solve_cfg(tmp_path / "solve")] + [
            battery_cfg(name, tmp_path / name) for name in _BATTERY_REPORTS]:
        out_a = Path(cfg["output"]["dir"]) / "a"
        out_b = Path(cfg["output"]["dir"]) / "b"
        cfg["output"]["dir"] = str(out_a)
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["--config", str(path)]) == 0
        cfg["output"]["dir"] = str(out_b)
        path2 = write_cfg(tmp_path, cfg, "cfg2.yaml")
        assert cli.main(["--config", str(path2)]) == 0
        assert (out_a / "report.jsonl").read_bytes() == \
            (out_b / "report.jsonl").read_bytes(), cfg["scenario"]


def test_seed_override_changes_randomized_runs(tmp_path):
    path = write_cfg(tmp_path, sobolev_cfg(tmp_path / "s1"))
    assert cli.main(["--config", str(path)]) == 0
    path2 = write_cfg(tmp_path, sobolev_cfg(tmp_path / "s2"), "cfg2.yaml")
    assert cli.main(["--config", str(path2), "--seed", "99"]) == 0
    a = (tmp_path / "s1" / "report.jsonl").read_text()
    b = (tmp_path / "s2" / "report.jsonl").read_text()
    assert a != b


def test_validation_errors_name_fields(tmp_path, capsys):
    cfg = solve_cfg(tmp_path / "never")
    del cfg["kernel"]["kappa"]
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "kernel.kappa" in err
    assert not (tmp_path / "never").exists()


def test_validation_rejects_bad_t_list(tmp_path, capsys):
    cfg = {
        "scenario": "smalltime",
        "grid": {"bounds": [-6.0, 6.0], "shape": 64},
        "kernel": {"kappa": 1.0},
        "marginals": {
            "mu": {"family": "gaussian", "mean": [-1.0], "sigma": 1.0},
            "nu": {"family": "gaussian", "mean": [1.0], "sigma": 1.0},
        },
        "smalltime": {"T_list": [0.1, 0.2]},  # must be strictly decreasing
        "output": {"dir": str(tmp_path / "never")},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["--config", str(path)]) == 2
    assert "T_list" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert cli.main(["--config", str(tmp_path / "none.yaml")]) == 2


def test_invalid_yaml_exits_2(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("scenario: [unclosed\n")
    assert cli.main(["--config", str(path)]) == 2


def test_nonconverged_exits_3(tmp_path):
    cfg = solve_cfg(tmp_path / "out3")
    cfg["solver"] = {"tol": 1e-9, "max_iter": 2}
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["--config", str(path)]) == 3
    summary = (tmp_path / "out3" / "summary.txt").read_text()
    assert "exit status: 3" in summary


def test_failed_inequality_exits_1(tmp_path):
    # under-resolved comparison instances: displacement below one cell floors
    # the quantile W2 at sqrt(dx * W1), which overtakes the H^-1 bound
    cfg = sobolev_cfg(tmp_path / "out1", shape=96, eps=0.02, n=4, seed=3)
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["--config", str(path)]) == 1
    reports, _ = read_reports(tmp_path / "out1")
    assert any(not r["passed"] for r in reports)


def test_orlicz_scenario(tmp_path):
    cfg = {
        "scenario": "orlicz",
        "seed": 11,
        "orlicz": {"n_instances": 10, "n_atoms": 16,
                   "exp_lo": 0.5, "exp_hi": 2.0},
        "output": {"dir": str(tmp_path / "outo")},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["--config", str(path)]) == 0
    reports, _ = read_reports(tmp_path / "outo")
    assert any(r["name"].startswith("log_integrability") for r in reports)
    assert all(r["passed"] for r in reports)


def test_sample_configs_validate(tmp_path):
    here = Path(__file__).resolve().parent.parent / "configs"
    paths = sorted(here.glob("*.yaml"))
    assert paths
    for path in paths:
        cfg = yaml.safe_load(path.read_text())
        assert cli.validate(cli._normalize(cfg)) == [], path.name
        assert cli.run(cfg, tmp_path / path.stem) == 0, path.name


_BATTERY_REPORTS = {
    "stability": {"stab_plans", "stab_plans_fisher"},
    "cost-stability": {"stab_cost", "stab_cost_fisher"},
    "eot-stability": {"eot_cost_stab", "eot_plan_stab"},
}


def battery_cfg(scenario, out_dir):
    kernel = ({"epsilon": 0.5} if scenario == "eot-stability"
              else {"kind": "ou", "T": 0.5, "kappa": 1.0})
    return {
        "scenario": scenario,
        "seed": 5,
        "grid": {"bounds": [-5.0, 5.0], "shape": 64},
        "kernel": kernel,
        "marginals": {
            "mu": {"family": "gaussian", "mean": [-0.8], "sigma": 1.15},
            "nu": {"family": "gaussian", "mean": [0.8], "sigma": 1.15},
        },
        "perturbation": {"epsilons": [0.05, 0.2], "n_seeds": 2},
        "output": {"dir": str(out_dir)},
    }


@pytest.mark.parametrize("scenario", sorted(_BATTERY_REPORTS))
def test_perturbation_battery_scenarios(tmp_path, scenario):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, battery_cfg(scenario, out))
    assert cli.main(["--config", str(path)]) == 0
    reports, rows = read_reports(out)
    names = [r["name"] for r in reports]
    assert set(names) == _BATTERY_REPORTS[scenario]
    # 2 draws x 2 epsilons, two reports each
    assert len(reports) == 8
    for name in _BATTERY_REPORTS[scenario]:
        assert names.count(name) == 4
    tables = [r for r in rows if r.get("record") == "table"]
    assert [(t["name"], t["rows"]) for t in tables] == [("battery", 8)]

    cfg = battery_cfg(scenario, tmp_path / "out3")
    cfg["solver"] = {"tol": 1e-9, "max_iter": 2}
    path = write_cfg(tmp_path, cfg, "nonconverged.yaml")
    assert cli.main(["--config", str(path)]) == 3
    summary = (tmp_path / "out3" / "summary.txt").read_text()
    assert "base problem did not converge; battery skipped" in summary
    assert "exit status: 3" in summary


def test_battery_with_overshooting_omega_exits_3(tmp_path, monkeypatch):
    # an ω past 2 (forced here) makes the relaxed loop diverge until it
    # falls back to plain Sinkhorn; cut short by max_iter, the base solve
    # must still end unconverged, and no NaN may reach the outputs
    raised = []
    monkeypatch.setattr(schrodinger, "_omega",
                        lambda rho: raised.append(rho) or 2.5)
    out = tmp_path / "out"
    cfg = battery_cfg("eot-stability", out)
    cfg["solver"] = {"tol": 1e-9, "max_iter": 20}
    assert cli.main(["--config", str(write_cfg(tmp_path, cfg))]) == 3
    assert raised
    summary = (out / "summary.txt").read_text()
    assert "base problem did not converge; battery skipped" in summary
    for f in out.iterdir():
        assert "nan" not in f.read_text().lower(), f.name


def _smalltime_cfg(out_dir):
    return {
        "scenario": "smalltime",
        "grid": {"bounds": [-8.0, 10.0], "shape": 320},
        "kernel": {"kappa": 0.0},
        "marginals": {
            "mu": {"family": "gaussian", "mean": [-1.0], "sigma": 1.0},
            "nu": {"family": "gaussian", "mean": [1.0], "sigma": 1.0},
        },
        "smalltime": {"T_list": [0.05, 0.02]},
        "output": {"dir": str(out_dir)},
    }


def test_relaxed_reports_are_byte_identical_and_carry_no_omega(
        tmp_path, monkeypatch):
    # the small-time solves relax (ω > 1); ω stays on the solutions and
    # out of report.jsonl, which reruns reproduce byte for byte
    omegas = []
    real = dynamics.solve

    def spy(*args, **kw):
        sol = real(*args, **kw)
        omegas.append(sol.omega)
        return sol

    monkeypatch.setattr(dynamics, "solve", spy)
    outs = [tmp_path / "a", tmp_path / "b"]
    for i, out in enumerate(outs):
        path = write_cfg(tmp_path, _smalltime_cfg(out), f"cfg{i}.yaml")
        assert cli.main(["--config", str(path)]) == 0
    assert omegas and all(w > 1.0 for w in omegas)
    a, b = ((out / "report.jsonl").read_bytes() for out in outs)
    assert a == b
    assert b"omega" not in a


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are glibc's")
def test_repeated_runs_fault_in_no_fresh_pages(tmp_path):
    # each rung of the heat ladder allocates n² buffers (n = 320: 800 KiB)
    # and frees them; once the CLI has fixed glibc's thresholds, later runs
    # in the process take those pages from the heap instead of mapping
    # fresh zero pages (~2,000 minor faults over three runs without them)
    resource = pytest.importorskip("resource")
    cfg = _smalltime_cfg(tmp_path / "out")
    assert cli.run(cfg, tmp_path / "warm-up") == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for i in range(3):
        assert cli.run(cfg, tmp_path / f"run{i}") == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 100, faults


class _Mallopt:
    """Stands in for a C library's mallopt: records each call, returns `ok`."""

    def __init__(self, ok):
        self.ok, self.calls = ok, []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.ok


def _no_libc(name):
    raise OSError(f"no library {name}")


_CAPS = [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


@pytest.mark.parametrize("plat, libc, ok, calls", [
    ("linux", "spy", 1, _CAPS),
    ("linux", "spy", 0, _CAPS[:1]),  # a refused mmap cap leaves trims alone
    ("darwin", "spy", 1, []),
    ("linux", "none", 1, []),
    ("linux", "no-mallopt", 1, []),
], ids=["glibc", "cap-refused", "not-linux", "no-libc", "no-mallopt"])
def test_keep_freed_blocks_calls_mallopt_only_where_there_is_one(
        monkeypatch, plat, libc, ok, calls):
    spy = _Mallopt(ok)
    cdll = {"spy": lambda name: SimpleNamespace(mallopt=spy),
            "none": _no_libc,
            "no-mallopt": lambda name: object()}[libc]
    with monkeypatch.context() as m:
        m.setattr(sys, "platform", plat)
        m.setattr(ctypes, "CDLL", cdll)
        assert cli._keep_freed_blocks() is None
    assert spy.calls == calls


_RUN_WITHOUT_THRESHOLDS = r"""
import sys
from bridgestab import cli
cli._keep_freed_blocks = lambda: None
sys.exit(cli.main(sys.argv[1:]))
"""


def test_reports_match_without_the_heap_thresholds(tmp_path):
    # glibc keeps fixed thresholds for the life of a process, so the run on
    # its default allocator is a fresh interpreter that never sets them
    path = write_cfg(tmp_path, _smalltime_cfg(tmp_path / "out"))
    assert cli.main(["--config", str(path), "--out",
                     str(tmp_path / "with")]) == 0
    src = Path(cli.__file__).resolve().parent.parent
    pythonpath = os.pathsep.join(filter(None, [
        str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_THRESHOLDS, "--config",
         str(path), "--out", str(tmp_path / "without")],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    for name in ("report.jsonl", "smalltime.csv"):
        assert ((tmp_path / "without" / name).read_bytes()
                == (tmp_path / "with" / name).read_bytes()), name


_WARM_ARGS = {"solve": "init_psi", "eot_quadratic_direct": "init_b"}


def _spy_warm_starts(monkeypatch, cold: bool = False) -> list:
    """Record, per solver call of `cli`, whether it got a warm start; with
    ``cold`` the warm start is dropped (the cold oracle)."""
    seen = []

    def spy(fn, key):
        def call(*args, **kw):
            seen.append(kw.get(key) is not None)
            if cold:
                kw.pop(key, None)
            return fn(*args, **kw)
        return call

    for name, key in _WARM_ARGS.items():
        monkeypatch.setattr(cli, name, spy(getattr(cli, name), key))
    return seen


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
@pytest.mark.parametrize("scenario", sorted(_BATTERY_REPORTS))
def test_battery_warm_starts_match_cold_solves(tmp_path, monkeypatch,
                                               scenario, seed):
    cfg = {**battery_cfg(scenario, tmp_path), "seed": seed}
    with monkeypatch.context() as m:
        seen = _spy_warm_starts(m)
        code = cli.run(cfg, tmp_path / "warm")
    # the base solve starts cold, each perturbed solve from the base
    assert seen == [False] + [True] * 4
    with monkeypatch.context() as m:
        _spy_warm_starts(m, cold=True)
        assert cli.run(cfg, tmp_path / "cold") == code == 0
    warm, _ = read_reports(tmp_path / "warm")
    cold, _ = read_reports(tmp_path / "cold")
    assert [r["name"] for r in warm] == [r["name"] for r in cold]
    for w, c in zip(warm, cold):
        assert w["passed"] and c["passed"]
        for side in ("lhs", "rhs"):
            x, ref = float(w[side]), float(c[side])
            assert abs(x - ref) <= 1e-6 * abs(ref), (w["name"], side)


def test_battery_support_mismatch_starts_cold(tmp_path, monkeypatch):
    # a perturbed marginal that loses a cell of the base support: the battery
    # passes the base solution, and the solver starts cold, since the base
    # potential need not fit the new support.  So each perturbed solve is
    # bit for bit a cold solve of its pair
    perturbed = cli.perturbed_measure

    def drop_a_cell(mu, h, eps):
        w = perturbed(mu, h, eps).weights.copy()
        w[np.flatnonzero(w)[0]] = 0.0
        return DiscreteMeasure.from_weights(mu.grid, w)

    def spy(fn, key):
        def call(*args, **kw):
            sol = fn(*args, **kw)
            base = kw.pop(key)
            kw.pop("keep_operators")
            solves.append((base, sol, fn(*args, **kw)))
            return sol
        return call

    monkeypatch.setattr(cli, "perturbed_measure", drop_a_cell)
    for name, key in _WARM_ARGS.items():
        monkeypatch.setattr(cli, name, spy(getattr(cli, name), key))
    for scenario in ("stability", "eot-stability"):
        solves = []
        cli.run(battery_cfg(scenario, tmp_path), tmp_path / scenario)
        base = solves[0][1]
        assert solves[0][0] is None and len(solves) == 5
        for start, sol, cold in solves[1:]:
            assert start is base and not base.same_supports(sol.mu, sol.nu)
            assert sol.n_iter == cold.n_iter
            for a, b in ((sol.phi, cold.phi), (sol.psi, cold.psi)):
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _spy_solves(monkeypatch, fresh: bool = False) -> list:
    """Record n_iter per solver call of `cli`; with ``fresh`` a solution
    passed as the warm start drops its kept operators first, so the solve
    starts from the same potential and ω on fresh operators (the
    oracle)."""
    iters = []

    def spy(fn, key):
        def call(*args, **kw):
            if fresh and kw.get(key) is not None:
                kw[key].drop_operators()
            sol = fn(*args, **kw)
            iters.append(sol.n_iter)
            return sol
        return call

    for name, key in (("solve", "init_psi"),
                      ("eot_quadratic_direct", "init_b")):
        monkeypatch.setattr(cli, name, spy(getattr(cli, name), key))
    return iters


def _count_anchors(monkeypatch) -> list:
    taken = []
    real = AnchoredLSE._anchor

    def anchor(self, v):
        taken.append(1)
        return real(self, v)

    monkeypatch.setattr(AnchoredLSE, "_anchor", anchor)
    return taken


@pytest.mark.parametrize("support", ["full", "partial"])
@pytest.mark.parametrize("seed", [0, 1, 2, 7])
@pytest.mark.parametrize("scenario", sorted(_BATTERY_REPORTS))
def test_battery_shared_operators_match_array_starts(tmp_path, monkeypatch,
                                                     scenario, seed,
                                                     support):
    # the perturbed solves continue on the base solve's operators; the
    # oracle starts them from the same base solution (its potential and ω)
    # after it dropped its operators, on fresh ones
    cfg = {**battery_cfg(scenario, tmp_path), "seed": seed}
    if support == "partial":
        cfg["marginals"] = {
            "mu": {"family": "uniform", "lo": [-3.0], "hi": [1.0]},
            "nu": {"family": "uniform", "lo": [-1.0], "hi": [3.5]}}
    runs = {}
    for mode in ("shared", "fresh"):
        with monkeypatch.context() as m:
            iters = _spy_solves(m, fresh=mode == "fresh")
            anchors = _count_anchors(m)
            code = cli.run(cfg, tmp_path / mode)
        runs[mode] = (code, iters, len(anchors),
                      read_reports(tmp_path / mode)[0])
    (code, iters, anchors, got), (code0, iters0, anchors0, want) = \
        runs["shared"], runs["fresh"]
    assert code == code0
    assert iters == iters0 and len(iters) == 5
    # two anchors for the base solve; no perturbed solve takes its own
    assert anchors == 2 < anchors0
    assert [(r["name"], r["passed"]) for r in got] == \
        [(r["name"], r["passed"]) for r in want]
    for r, r0 in zip(got, want):
        for side in ("lhs", "rhs"):
            x, ref = float(r[side]), float(r0[side])
            assert abs(x - ref) <= 1e-12 * abs(ref), (r["name"], side)


def test_stability_keeps_cells_near_the_mass_floor(tmp_path):
    # the Gaussian tails reach the 1e-12 mass floor inside [-6, 6]; the
    # perturbed marginals must keep exactly the supports of mu and nu, or
    # H^sym of the two plans is +inf and stab_plans_fisher fails
    out = tmp_path / "out"
    cfg = {
        "scenario": "stability",
        "seed": 2,
        "grid": {"bounds": [-6.0, 6.0], "shape": 256},
        "kernel": {"kind": "ou", "T": 0.494, "kappa": 1.0},
        "marginals": {
            "mu": {"family": "gaussian", "mean": [-1.12], "sigma": 0.985},
            "nu": {"family": "gaussian", "mean": [1.34], "sigma": 0.90},
        },
        "perturbation": {"epsilons": [0.05, 0.2], "n_seeds": 2},
        "output": {"dir": str(out)},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["--config", str(path)]) == 0
    reports, _ = read_reports(out)
    assert len(reports) == 8
    for r in reports:
        assert r["passed"] and not r["vacuous"], r["name"]
        assert r["lhs"] != "inf", r["name"]


# ---------------------------------------------------------------------------
# validation messages: one config per message, each otherwise valid
# ---------------------------------------------------------------------------

_OU = {"kind": "ou", "T": 0.5, "kappa": 1.0}
_PAIR = {"mu": {"family": "gaussian", "mean": [-1.0], "sigma": 0.9},
         "nu": {"family": "gaussian", "mean": [1.0], "sigma": 0.8}}
_GRID = {"bounds": [-6.0, 6.0], "shape": 64}
_PERT = {"epsilons": [0.05, 0.2], "n_seeds": 2}


def valid_cfg(scenario):
    """A small config of each scenario that `validate` accepts."""
    base = {"scenario": scenario, "grid": _GRID, "kernel": _OU,
            "marginals": _PAIR}
    extra = {
        "solve": {},
        "stability": {"seed": 1, "perturbation": _PERT},
        "cost-stability": {"seed": 1, "perturbation": _PERT},
        "eot-stability": {"seed": 1, "kernel": {"epsilon": 0.5},
                          "perturbation": _PERT},
        "corrector": {"seed": 1, "corrector": {"n_pairs": 2}},
        "smalltime": {"kernel": {"kappa": 0.0},
                      "smalltime": {"T_list": [0.2, 0.1]}},
        "gradient-map": {"kernel": {"kappa": 1.0},
                         "gradient_map": {"T_list": [0.2, 0.1]}},
        "interpolate": {"interpolate": {"n_times": 3, "n_slices": 4}},
        "sobolev": {"seed": 1, "marginals": {"mu": {"family": "random"}},
                    "sobolev": {"n_instances": 2, "eps": 0.2}},
        "orlicz": {"seed": 1, "orlicz": {"n_instances": 3, "n_atoms": 8}},
    }[scenario]
    cfg = json.loads(json.dumps({**base, **extra}))
    if scenario == "corrector":
        del cfg["marginals"]
    if scenario == "orlicz":
        for key in ("grid", "kernel", "marginals"):
            del cfg[key]
    return cfg


_DROP = object()


def edited_cfg(scenario, edits):
    """`valid_cfg(scenario)` with dotted paths set (or dropped)."""
    cfg = valid_cfg(scenario)
    for path, value in edits.items():
        *parents, last = path.split(".")
        node = cfg
        for key in parents:
            node = node[key]
        if value is _DROP:
            del node[last]
        else:
            node[last] = value
    return cfg


_GRID_2D = {"bounds": [[-3.0, 3.0], [-3.0, 3.0]], "shape": [8, 8]}
_PAIR_2D = {"mu": {"family": "gaussian", "mean": [-1.0, 0.0], "sigma": 0.9},
            "nu": {"family": "gaussian", "mean": [1.0, 0.0], "sigma": 0.8}}

# (test id, scenario, edits, every message validate() returns); each id
# is written out, so that a new row never renames an existing test
_MESSAGES = [
    ("scenario", "solve", {"scenario": "nope"},
     ["scenario: one of ['corrector', 'cost-stability', 'eot-stability', "
      "'gradient-map', 'interpolate', 'orlicz', 'smalltime', 'sobolev', "
      "'solve', 'stability'] required, got 'nope'"]),
    ("seed0", "orlicz", {"seed": _DROP},
     ["seed: integer seed is mandatory for randomized scenario 'orlicz'"]),
    ("seed1", "solve", {"seed": "x"}, ["seed: integer required"]),
    ("grid0", "solve", {"grid": _DROP},
     ["grid: mapping with 'bounds' and 'shape' required"]),
    ("grid.bounds", "solve", {"grid.bounds": [[1.0, -1.0]]},
     ["grid.bounds: list of [lo, hi] pairs with lo < hi required"]),
    ("grid.shape", "solve", {"grid.shape": 1},
     ["grid.shape: list of integers >= 2 required"]),
    ("grid1", "solve", {"grid.shape": [64, 64]},
     ["grid: bounds and shape must have equal length"]),
    ("grid2", "solve",
     {"grid": {"bounds": [[0.0, 1.0]] * 3, "shape": [4, 4, 4]}},
     ["grid: at most two dimensions are supported"]),
    ("grid3", "smalltime", {"grid": _GRID_2D, "marginals": _PAIR_2D},
     ["grid: scenario 'smalltime' is one-dimensional"]),
    ("kernel", "solve", {"kernel": _DROP}, ["kernel: mapping required"]),
    ("kernel.epsilon", "eot-stability", {"kernel.epsilon": 0},
     ["kernel.epsilon: positive number required for eot-stability"]),
    ("kernel.kappa0", "smalltime", {"kernel.kappa": -1.0},
     ["kernel.kappa: number >= 0 required (0 means heat kernel) for "
      "smalltime"]),
    ("kernel.kappa1", "gradient-map", {"kernel": {}},
     ["kernel.kappa: number >= 0 required (0 means heat kernel) for "
      "gradient-map"]),
    ("kernel.kind", "solve", {"kernel.kind": "brownian"},
     ["kernel.kind: 'heat' or 'ou' required"]),
    ("kernel.T", "solve", {"kernel.T": 0},
     ["kernel.T: positive number required"]),
    ("kernel.kappa2", "solve", {"kernel.kappa": _DROP},
     ["kernel.kappa: positive number required when kernel.kind is 'ou'"]),
    ("marginals", "solve", {"marginals": _DROP},
     ["marginals: mapping with 'mu' (and 'nu') required"]),
    ("marginals.mu0", "solve", {"marginals.mu": "gauss"},
     ["marginals.mu: mapping with a 'family' key required"]),
    ("marginals.mu1", "solve", {"marginals.mu.sigma": _DROP},
     ["marginals.mu: gaussian needs 'mean' and 'sigma'"]),
    ("marginals.mu.sigma", "solve", {"marginals.mu.sigma": -1.0},
     ["marginals.mu.sigma: positive number required"]),
    ("marginals.nu0", "solve",
     {"marginals.nu": {"family": "uniform", "lo": [0.0]}},
     ["marginals.nu: uniform needs 'lo' and 'hi'"]),
    ("marginals.nu.components", "solve",
     {"marginals.nu": {"family": "mixture", "components": []}},
     ["marginals.nu.components: nonempty list required"]),
    ("marginals.nu.components[0]", "solve",
     {"marginals.nu": {"family": "mixture", "components": [
        {"weight": 1.0, "mean": [0.0]}]}},
     ["marginals.nu.components[0]: needs 'weight', 'mean', 'sigma'"]),
    ("marginals.nu1", "solve", {"marginals.nu": {"family": "csv"}},
     ["marginals.nu: csv needs 'path'"]),
    ("marginals.nu.family", "solve", {"marginals.nu.family": "cauchy"},
     ["marginals.nu.family: unknown family 'cauchy'"]),
    ("seed2", "solve", {"marginals.nu": {"family": "random"}},
     ["seed: required when a marginal family is 'random'"]),
    ("perturbation", "stability", {"perturbation": _DROP},
     ["perturbation: mapping with 'epsilons' and 'n_seeds' required"]),
    ("perturbation.epsilons", "stability",
     {"perturbation.epsilons": [0.5, 1.0]},
     ["perturbation.epsilons: list of numbers in (0, 1) required"]),
    ("perturbation.n_seeds", "cost-stability", {"perturbation.n_seeds": 0},
     ["perturbation.n_seeds: integer >= 1 required"]),
    ("corrector.n_pairs", "corrector", {"corrector.n_pairs": 0},
     ["corrector.n_pairs: integer >= 1 required"]),
    ("smalltime.T_list", "smalltime", {"smalltime.T_list": [0.1]},
     ["smalltime.T_list: list of >= 2 positive times required"]),
    ("gradient_map.T_list", "gradient-map",
     {"gradient_map.T_list": [0.1, 0.2]},
     ["gradient_map.T_list: times must decrease strictly (the curve checks "
      "gaps along T ↓ 0)"]),
    ("interpolate.n_times", "interpolate", {"interpolate.n_times": 1},
     ["interpolate.n_times: integer >= 2 required"]),
    ("interpolate.n_slices", "interpolate", {"interpolate.n_slices": 1.5},
     ["interpolate.n_slices: integer >= 2 required"]),
    ("interpolate", "interpolate", {"interpolate": 5},
     ["interpolate: mapping expected"]),
    ("solver.tol", "solve", {"solver": {"tol": 0}},
     ["solver.tol: positive number required"]),
    ("solver.max_iter", "solve", {"solver": {"max_iter": 0}},
     ["solver.max_iter: integer >= 1 required"]),
    ("solver", "sobolev", {"solver": "fast"}, ["solver: mapping expected"]),
    # YAML booleans are ints to Python; a count or seed must refuse them
    ("seed3", "solve", {"seed": True}, ["seed: integer required"]),
    # a seeded scenario names a bad seed once; "mandatory" means missing
    ("seed4", "stability", {"seed": "abc"}, ["seed: integer required"]),
    ("seed5", "stability", {"seed": True}, ["seed: integer required"]),
    ("seed6", "sobolev", {"seed": _DROP},
     ["seed: integer seed is mandatory for randomized scenario 'sobolev'"]),
]


_SCENARIO_NAMES = ["solve", "stability", "cost-stability", "eot-stability",
                   "corrector", "smalltime", "gradient-map", "interpolate",
                   "sobolev", "orlicz"]


@pytest.mark.parametrize("scenario", _SCENARIO_NAMES)
def test_valid_cfg_validates(scenario):
    assert cli.validate(valid_cfg(scenario)) == []


def test_top_level_mapping_required():
    assert cli.validate([1, 2]) == ["config: top-level mapping required"]


@pytest.mark.parametrize("scenario,edits,messages",
                         [row[1:] for row in _MESSAGES],
                         ids=[row[0] for row in _MESSAGES])
def test_validate_messages(scenario, edits, messages):
    assert cli.validate(edited_cfg(scenario, edits)) == messages


_DATA = Path(__file__).resolve().parent / "data"

# configs that validate() used to accept and that then crashed with a
# traceback: each must exit 2 and name the field on stderr
_DATA_ERRORS = [
    ("solve", {"grid": _GRID_2D}, "marginals.mu.mean"),
    ("solve", {"marginals.mu.mean": "abc"}, "marginals.mu.mean"),
    ("solve", {"marginals.nu": {"family": "mixture", "components": [
        {"weight": 1.0, "mean": [0.0, 1.0], "sigma": 1.0}]}},
     "marginals.nu.components[0].mean"),
    ("solve", {"marginals.nu": {"family": "uniform", "lo": [20.0],
                                "hi": [30.0]}}, "marginals.nu"),
    ("solve", {"marginals.nu": {"family": "csv",
                                "path": "no/such/measure.csv"}},
     "marginals.nu"),
    ("solve", {"marginals.mu": {"family": "mixture", "components": [
        {"weight": -1.0, "mean": [0.0], "sigma": 1.0}]}}, "marginals.mu"),
    ("sobolev", {"sobolev.eps": 1.5}, "sobolev.eps"),
    ("sobolev", {"sobolev.n_instances": 0}, "sobolev.n_instances"),
    ("stability", {"perturbation.n_modes": "x"}, "perturbation.n_modes"),
    ("orlicz", {"orlicz.exp_lo": 0.0}, "orlicz.exp_lo"),
    ("orlicz", {"orlicz.exp_hi": -1.0}, "orlicz.exp_hi"),
    ("orlicz", {"orlicz.exp_lo": 3.0, "orlicz.exp_hi": 1.0},
     "orlicz: exp_lo <= exp_hi"),
    ("orlicz", {"orlicz.n_instances": 0}, "orlicz.n_instances"),
    ("orlicz", {"orlicz.n_atoms": 1.5}, "orlicz.n_atoms"),
    ("smalltime", {"smalltime.max_final_rel_gap": 0},
     "smalltime.max_final_rel_gap"),
    ("solve", {"output": "out/solve"}, "output"),
    ("solve", {"scenario": ["solve"]}, "scenario"),
    ("solve", {"seed": -1}, "seed"),
    ("solve", {"marginals.mu": {"family": "csv",
                                "path": str(_DATA / "header_only.csv")}},
     "marginals.mu: measure CSV needs data rows of 2 values"),
    ("solve", {"marginals.mu": {"family": "csv",
                                "path": str(_DATA / "one_row.csv")}},
     "marginals.mu: measure CSV needs two coordinates per axis"),
    # YAML booleans: `max_iter: true` used to run one Sinkhorn iteration
    ("solve", {"seed": True}, "seed: integer required"),
    ("solve", {"solver": {"max_iter": True}}, "solver.max_iter"),
    ("corrector", {"corrector.n_pairs": True}, "corrector.n_pairs"),
    ("stability", {"perturbation.n_seeds": True}, "perturbation.n_seeds"),
    # a bare fractional 1D shape used to run on int(shape) cells
    ("solve", {"grid.shape": 32.5},
     "grid.shape: list of integers >= 2 required"),
    # infinite numbers passed every numeric rule: a heat kernel at T = inf
    # or EOT at ε = inf wrote NaN reports and exited 3, and an infinite
    # bound ended in a traceback; NaN, which fails every comparison, stays
    # refused
    ("solve", {"kernel": {"kind": "heat", "T": math.inf}}, "kernel.T"),
    ("solve", {"kernel.T": math.nan}, "kernel.T: positive number required"),
    ("eot-stability", {"kernel.epsilon": math.inf}, "kernel.epsilon"),
    ("solve", {"grid.bounds": [-math.inf, 6.0]}, "grid.bounds"),
    ("stability", {"marginals.mu.sigma": math.inf}, "marginals.mu.sigma"),
]


@pytest.mark.parametrize("scenario,edits,field_path", _DATA_ERRORS,
                         ids=[f for _, _, f in _DATA_ERRORS])
def test_data_errors_exit_2_naming_the_field(tmp_path, capsys, scenario,
                                             edits, field_path):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, edited_cfg(scenario, edits))
    assert cli.main(["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert field_path in err
    assert "Traceback" not in err
    assert not out.exists()


# κT past the OU range overflowed e^{2κT} in the kernel with a traceback;
# validate() refuses it, naming the field
_OU_OVERFLOWS = [
    ("corrector", {"kernel.T": 1.0e9}, "kernel.T"),
    ("stability", {"kernel.kappa": 1.0e9}, "kernel.T"),
    ("gradient-map", {"gradient_map.T_list": [1000.0, 0.1]},
     "gradient_map.T_list[0]"),
    ("smalltime", {"kernel.kappa": 2000.0}, "smalltime.T_list[0]"),
]


@pytest.mark.parametrize("scenario,edits,field_path", _OU_OVERFLOWS,
                         ids=[s for s, _, _ in _OU_OVERFLOWS])
def test_ou_overflow_exits_2_naming_the_field(tmp_path, capsys, scenario,
                                              edits, field_path):
    cfg = edited_cfg(scenario, edits)
    assert cli.validate(cfg) == [
        f"{field_path}: T <= 350/kappa required for the OU kernel "
        "(e^(2*kappa*T) overflows beyond)"]
    out = tmp_path / "out"
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert field_path in err
    assert "Traceback" not in err
    assert not out.exists()


def test_ou_range_edge_validates():
    assert cli.validate(edited_cfg("corrector", {"kernel.T": 350.0})) == []
    assert cli.validate(edited_cfg("gradient-map", {
        "kernel.kappa": 1750.0, "gradient_map.T_list": [0.2, 0.1]})) == []


def test_corrector_pair_without_mass_exits_2(tmp_path, capsys):
    # the mixture mass underflows on every cell of so wide a grid
    cfg = edited_cfg("corrector", {"grid.bounds": [-6.0, 1.0e9],
                                   "grid.shape": 32})
    out = tmp_path / "out"
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: problem data: corrector pair 0:" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_smalltime_with_equal_marginals_exits_2(tmp_path, capsys):
    # W2(μ, ν) = 0 leaves the relative gap undefined; the run used to write
    # a NaN monotonicity report and rel_gap = inf, and exit 1
    out = tmp_path / "out"
    cfg = _smalltime_cfg(out)
    same = {"family": "gaussian", "mean": [0.5], "sigma": 1.0}
    cfg.update(grid={"bounds": [-8.0, 10.0], "shape": 160},
               marginals={"mu": same, "nu": same},
               smalltime={"T_list": [0.1, 0.05]})
    assert cli.main(["--config", str(write_cfg(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert "config error: problem data: marginals:" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_readme_scenario_table_matches_list_scenarios(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    rows = [ln.split("|") for ln in readme.read_text().splitlines()
            if ln.startswith("| `")]
    table = {r[1].strip().strip("`"): r[2].strip() for r in rows}
    assert cli.main(["--list-scenarios"]) == 0
    listed = dict(ln.split(None, 1)
                  for ln in capsys.readouterr().out.splitlines())
    assert table == listed


def test_readme_library_example_runs(capsys):
    # the README's `## Library` python block, run as written: it uses the
    # public API and asserts the SP↔EOT dictionary on its own solution
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    # it prints whether the corrector report passed, and its slack
    assert capsys.readouterr().out.startswith("True ")


# ---------------------------------------------------------------------------
# CSV tables: the column writer against the row-wise csv.writer oracle
# ---------------------------------------------------------------------------

_CONFIGS = Path(__file__).resolve().parent.parent / "configs"
_PLAIN_CELLS = (float, int, str)


def _oracle_cell(v) -> str:
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _oracle_row(row: list) -> list:
    """Plain rows go to `csv.writer` as they are, others cell by cell."""
    if all(type(v) in _PLAIN_CELLS for v in row):
        return row
    return [_oracle_cell(v) for v in row]


def _oracle_csv(path: Path, table) -> bytes:
    """``table`` written row by row through `csv.writer`; array columns
    become Python floats first, as `np.column_stack(...).tolist()` gave."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else list(c)
            for c in table.columns]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(table.header)
        w.writerows(_oracle_row(list(row)) for row in zip(*cols))
    return path.read_bytes()


def _written_csv(tmp_path, table) -> tuple[bytes, dict]:
    """``table`` through `cli._write_outputs`: its CSV and table record."""
    out = tmp_path / "written"
    cli._write_outputs(out, {"scenario": "solve"}, "digest",
                       cli.ScenarioResult(tables=[table]), 0)
    _, rows = read_reports(out)
    return (out / f"{table.name}.csv").read_bytes(), rows[0]


def _distinct_bits(col) -> int:
    return np.unique(col.view(np.int64)).size


def test_column_writer_matches_row_oracle(tmp_path):
    neg_nan = -np.float64("nan")
    specials = np.array([-0.0, 0.0, np.nan, neg_nan, np.inf, -np.inf,
                         5e-324, 0.1])
    memo = np.random.default_rng(3).permutation(np.repeat(specials, 2))
    plain = np.concatenate([specials, [1e308, 1.0 / 3.0, -2.5e-10, 7.0, 1e22,
                                       -1e-300, 0.2, 0.1 + 0.2]])
    assert 2 * _distinct_bits(memo) <= memo.size        # memo path
    assert _distinct_bits(plain) == plain.size          # plain path
    assert np.signbit(neg_nan)                           # a second NaN
    mixed = [True, False, np.bool_(True), np.bool_(False), 1, -7,
             np.int64(3), np.int64(-2), None, 0.1, 2.5e-10, float("nan"),
             1e22, np.float64(0.3), np.float32(0.1), 0]
    strings = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", "", "plain",
               '"', ",", "\r\n", " lead", "tab\tx", "", "é", "''", "x",
               "end"]
    header = ["memo", "plain", "mix,ed", 'str"ings']
    table = cli.Table("adversarial", header, [memo, plain, mixed, strings])
    got, record = _written_csv(tmp_path, table)
    assert got == _oracle_csv(tmp_path / "oracle.csv", table)
    assert record["rows"] == 16


@pytest.mark.parametrize("table", [
    cli.Table("empty", ["a", "b"], [np.zeros(0), []]),
    cli.Table.of_rows("battery", ["pair", "name", "lhs"], []),
    cli.Table("blocks", ["t", "w"], [np.full(2048, -0.0), np.arange(2048.0)]),
], ids=["header-only", "empty-battery", "two-full-blocks"])
def test_column_writer_edge_tables_match_row_oracle(tmp_path, table):
    got, record = _written_csv(tmp_path, table)
    assert got == _oracle_csv(tmp_path / "oracle.csv", table)
    assert record["rows"] == len(table.columns[0])
    if table.name == "battery":
        assert table.columns == [[], [], []]


@pytest.mark.parametrize("source", ["interpolate.yaml", "solve.yaml",
                                    "gradient-map"])
def test_scenario_csvs_match_row_oracle(tmp_path, source):
    cfg = (valid_cfg(source) if source == "gradient-map"
           else yaml.safe_load((_CONFIGS / source).read_text()))
    norm = cli._normalize(cfg)
    res = cli.SCENARIOS[norm["scenario"]].run(
        norm, np.random.default_rng(norm.get("seed", 0)))
    out = tmp_path / "out"
    assert cli.run(cfg, out) == 0
    _, rows = read_reports(out)
    recorded = {r["name"]: r["rows"] for r in rows
                if r.get("record") == "table"}
    assert res.tables and list(recorded) == [t.name for t in res.tables]
    for t in res.tables:
        want = _oracle_csv(tmp_path / f"oracle-{t.name}.csv", t)
        assert (out / f"{t.name}.csv").read_bytes() == want, t.name
        assert recorded[t.name] == want.count(b"\r\n") - 1
    if source == "interpolate.yaml":
        assert res.tables[0].header == ["t", "x0", "x1", "weight"]
        assert recorded["interpolation"] == 9 * 24 * 24


def _head_then_repeats(head):
    """A 64-entry head as given, then 400 entries that repeat it."""
    head = np.asarray(head, dtype=float)
    return np.concatenate([head, np.tile(head[:8], 50)])


_DISTINCT_HEAD = np.linspace(-3.0, 5.0, 64) ** 3


@pytest.mark.parametrize("col,sorted_", [
    (_head_then_repeats(_DISTINCT_HEAD), False),
    (np.random.default_rng(5).normal(size=9216), False),
    (np.repeat(np.linspace(0.0, 1.0, 9), 576), True),
    (_head_then_repeats(np.where(np.arange(64) % 2, 0.0, -0.0)
                        + np.arange(64) // 2), True),
    (_head_then_repeats(np.concatenate([[np.nan, -np.float64("nan")],
                                        _DISTINCT_HEAD[2:]])), False),
    (np.array([0.0, -0.0, np.nan, 0.1, 0.1]), True),
    (np.array([np.nan, np.nan, 2.5]), False),
], ids=["distinct-head-then-repeats", "all-distinct", "repeats",
        "signed-zeros", "nans-in-head", "short-with-repeats", "short-nans"])
def test_column_writer_skips_the_sort_on_distinct_heads(tmp_path, monkeypatch,
                                                         col, sorted_):
    # the head check only decides whether repeats are looked for: either
    # way the bytes are those of the row oracle
    calls = []
    unique = np.unique

    def spy(*args, **kwargs):
        calls.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    table = cli.Table("col", ["x", "i"], [col, list(range(col.size))])
    got, record = _written_csv(tmp_path, table)
    monkeypatch.undo()
    assert got == _oracle_csv(tmp_path / "oracle.csv", table)
    assert record["rows"] == col.size
    assert bool(calls) == sorted_


# solved problems that break the premise of an estimate (C_T - H, or its
# EOT analogue, negative far beyond the 1e-8 guard) on coarse grids and
# loose solves used to end in a traceback; each exits 2 naming the quantity
_BROKEN_PREMISES = [
    ("corrector", {
        "scenario": "corrector", "seed": 93,
        "grid": {"bounds": [-5.0, 50.0], "shape": 3},
        "kernel": {"kind": "heat", "T": 0.05},
        "corrector": {"n_pairs": 1}, "solver": {"tol": 1.0e-9}},
     "corrector rhs (nu)"),
    ("eot-stability", {
        "scenario": "eot-stability", "seed": 96,
        "grid": {"bounds": [-1.0, 1.0], "shape": 2},
        "kernel": {"epsilon": 0.05},
        "marginals": {"mu": {"family": "gaussian", "mean": [0.0],
                             "sigma": 1.0},
                      "nu": {"family": "gaussian", "mean": [0.0],
                             "sigma": 1.0}},
        "perturbation": {"epsilons": [0.99], "n_seeds": 1, "n_modes": 2},
        "solver": {"tol": 1.0e-3, "max_iter": 200}},
     "S + eps*H(nu|Leb) + C_eps"),
    ("stability", {
        "scenario": "stability", "seed": 14,
        "grid": {"bounds": [-1.0, 5.0], "shape": 2},
        "kernel": {"kind": "ou", "T": 0.05, "kappa": 1.0e-8},
        "marginals": {"mu": {"family": "gaussian", "mean": [0.0],
                             "sigma": 1.0},
                      "nu": {"family": "uniform", "lo": [-0.416],
                             "hi": [2.584]}},
        "perturbation": {"epsilons": [0.01], "n_seeds": 1, "n_modes": 2},
        "solver": {"tol": 1.0e-3, "max_iter": 200}},
     "C_T - H(mu|m)"),
]


@pytest.mark.parametrize("cfg,quantity",
                         [row[1:] for row in _BROKEN_PREMISES],
                         ids=[row[0] for row in _BROKEN_PREMISES])
def test_broken_premise_exits_2_naming_the_quantity(tmp_path, capsys, cfg,
                                                    quantity):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BandwidthWarning)
        assert cli.main(["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"config error: problem data: {quantity} is negative beyond "
            "tolerance") in err
    assert "Traceback" not in err
    assert not out.exists()

