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
    for name in ("solve", "stability", "cost-stability", "eot-stability",
                 "corrector", "smalltime", "gradient-map", "interpolate",
                 "sobolev", "orlicz"):
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


def test_sample_configs_validate():
    here = Path(__file__).resolve().parent.parent / "configs"
    paths = sorted(here.glob("*.yaml"))
    assert paths
    for path in paths:
        cfg = yaml.safe_load(path.read_text())
        assert cli.validate(cli._normalize(cfg)) == [], path.name


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
