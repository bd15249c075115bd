"""End-to-end runs of the command-line batteries and their exit-code contract."""

import json
from pathlib import Path

import pytest
import yaml

from bridgestab import cli


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
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = solve_cfg(out_a)
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["--config", str(path)]) == 0
    cfg["output"]["dir"] = str(out_b)
    path2 = write_cfg(tmp_path, cfg, "cfg2.yaml")
    assert cli.main(["--config", str(path2)]) == 0
    assert (out_a / "report.jsonl").read_bytes() == (out_b / "report.jsonl").read_bytes()


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

# (scenario, edits, every message validate() returns)
_MESSAGES = [
    ("solve", {"scenario": "nope"},
     ["scenario: one of ['corrector', 'cost-stability', 'eot-stability', "
      "'gradient-map', 'interpolate', 'orlicz', 'smalltime', 'sobolev', "
      "'solve', 'stability'] required, got 'nope'"]),
    ("orlicz", {"seed": _DROP},
     ["seed: integer seed is mandatory for randomized scenario 'orlicz'"]),
    ("solve", {"seed": "x"}, ["seed: integer required"]),
    ("solve", {"grid": _DROP},
     ["grid: mapping with 'bounds' and 'shape' required"]),
    ("solve", {"grid.bounds": [[1.0, -1.0]]},
     ["grid.bounds: list of [lo, hi] pairs with lo < hi required"]),
    ("solve", {"grid.shape": 1},
     ["grid.shape: list of integers >= 2 required"]),
    ("solve", {"grid.shape": [64, 64]},
     ["grid: bounds and shape must have equal length"]),
    ("solve", {"grid": {"bounds": [[0.0, 1.0]] * 3, "shape": [4, 4, 4]}},
     ["grid: at most two dimensions are supported"]),
    ("smalltime", {"grid": _GRID_2D, "marginals": _PAIR_2D},
     ["grid: scenario 'smalltime' is one-dimensional"]),
    ("solve", {"kernel": _DROP}, ["kernel: mapping required"]),
    ("eot-stability", {"kernel.epsilon": 0},
     ["kernel.epsilon: positive number required for eot-stability"]),
    ("smalltime", {"kernel.kappa": -1.0},
     ["kernel.kappa: number >= 0 required (0 means heat kernel) for "
      "smalltime"]),
    ("gradient-map", {"kernel": {}},
     ["kernel.kappa: number >= 0 required (0 means heat kernel) for "
      "gradient-map"]),
    ("solve", {"kernel.kind": "brownian"},
     ["kernel.kind: 'heat' or 'ou' required"]),
    ("solve", {"kernel.T": 0}, ["kernel.T: positive number required"]),
    ("solve", {"kernel.kappa": _DROP},
     ["kernel.kappa: positive number required when kernel.kind is 'ou'"]),
    ("solve", {"marginals": _DROP},
     ["marginals: mapping with 'mu' (and 'nu') required"]),
    ("solve", {"marginals.mu": "gauss"},
     ["marginals.mu: mapping with a 'family' key required"]),
    ("solve", {"marginals.mu.sigma": _DROP},
     ["marginals.mu: gaussian needs 'mean' and 'sigma'"]),
    ("solve", {"marginals.mu.sigma": -1.0},
     ["marginals.mu.sigma: positive number required"]),
    ("solve", {"marginals.nu": {"family": "uniform", "lo": [0.0]}},
     ["marginals.nu: uniform needs 'lo' and 'hi'"]),
    ("solve", {"marginals.nu": {"family": "mixture", "components": []}},
     ["marginals.nu.components: nonempty list required"]),
    ("solve", {"marginals.nu": {"family": "mixture", "components": [
        {"weight": 1.0, "mean": [0.0]}]}},
     ["marginals.nu.components[0]: needs 'weight', 'mean', 'sigma'"]),
    ("solve", {"marginals.nu": {"family": "csv"}},
     ["marginals.nu: csv needs 'path'"]),
    ("solve", {"marginals.nu.family": "cauchy"},
     ["marginals.nu.family: unknown family 'cauchy'"]),
    ("solve", {"marginals.nu": {"family": "random"}},
     ["seed: required when a marginal family is 'random'"]),
    ("stability", {"perturbation": _DROP},
     ["perturbation: mapping with 'epsilons' and 'n_seeds' required"]),
    ("stability", {"perturbation.epsilons": [0.5, 1.0]},
     ["perturbation.epsilons: list of numbers in (0, 1) required"]),
    ("cost-stability", {"perturbation.n_seeds": 0},
     ["perturbation.n_seeds: integer >= 1 required"]),
    ("corrector", {"corrector.n_pairs": 0},
     ["corrector.n_pairs: integer >= 1 required"]),
    ("smalltime", {"smalltime.T_list": [0.1]},
     ["smalltime.T_list: list of >= 2 positive times required"]),
    ("gradient-map", {"gradient_map.T_list": [0.1, 0.2]},
     ["gradient_map.T_list: times must decrease strictly (the curve checks "
      "gaps along T ↓ 0)"]),
    ("interpolate", {"interpolate.n_times": 1},
     ["interpolate.n_times: integer >= 2 required"]),
    ("interpolate", {"interpolate.n_slices": 1.5},
     ["interpolate.n_slices: integer >= 2 required"]),
    ("interpolate", {"interpolate": 5}, ["interpolate: mapping expected"]),
    ("solve", {"solver": {"tol": 0}},
     ["solver.tol: positive number required"]),
    ("solve", {"solver": {"max_iter": 0}},
     ["solver.max_iter: integer >= 1 required"]),
    ("sobolev", {"solver": "fast"}, ["solver: mapping expected"]),
]


_SCENARIO_NAMES = ["solve", "stability", "cost-stability", "eot-stability",
                   "corrector", "smalltime", "gradient-map", "interpolate",
                   "sobolev", "orlicz"]


@pytest.mark.parametrize("scenario", _SCENARIO_NAMES)
def test_valid_cfg_validates(scenario):
    assert cli.validate(valid_cfg(scenario)) == []


def test_top_level_mapping_required():
    assert cli.validate([1, 2]) == ["config: top-level mapping required"]


@pytest.mark.parametrize("scenario,edits,messages", _MESSAGES,
                         ids=[m[0].split(":")[0] for _, _, m in _MESSAGES])
def test_validate_messages(scenario, edits, messages):
    assert cli.validate(edited_cfg(scenario, edits)) == messages


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


def test_readme_scenario_table_matches_list_scenarios(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    rows = [ln.split("|") for ln in readme.read_text().splitlines()
            if ln.startswith("| `")]
    table = {r[1].strip().strip("`"): r[2].strip() for r in rows}
    assert cli.main(["--list-scenarios"]) == 0
    listed = dict(ln.split(None, 1)
                  for ln in capsys.readouterr().out.splitlines())
    assert table == listed
