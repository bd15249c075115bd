"""The exit-code contract of `cli.run`, fuzzed over small random configs.

Each grid scenario runs on random grids (2–64 cells in 1D, 2–16 per axis
in 2D), kernels, marginals and solver settings (``max_iter`` ≤ 3000), and
must end in a documented exit code: no exception escapes `cli.run`, no
NaN reaches ``report.jsonl``, and exit 1 comes only with its failing
reports named on stderr.  The T-ladders (smalltime, gradient-map) run on
2–8 cells, where their Kantorovich start meets supports of one or two
cells.  Examples are derandomized, so every run draws the same configs.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgestab import BandwidthWarning, cli

_LADDERS = ("smalltime", "gradient-map")
_OTHERS = ("solve", "stability", "cost-stability", "eot-stability",
           "corrector", "interpolate")


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _marginal(draw, bounds):
    """A gaussian, uniform or two-component mixture spec inside ``bounds``
    (a uniform box may miss every midpoint: a problem-data error)."""
    lo = [a for a, _ in bounds]
    hi = [b for _, b in bounds]

    def point():
        return [draw(st.floats(a, b)) for a, b in zip(lo, hi)]

    family = draw(st.sampled_from(("gaussian", "uniform", "mixture")))
    if family == "gaussian":
        return {"family": "gaussian", "mean": point(),
                "sigma": draw(_log_uniform(0.02, 5.0))}
    if family == "uniform":
        a = point()
        return {"family": "uniform", "lo": a,
                "hi": [x + draw(st.floats(0.05, 1.0)) * (b - c)
                       for x, c, b in zip(a, lo, hi)]}
    return {"family": "mixture", "components": [
        {"weight": draw(st.floats(0.1, 1.0)), "mean": point(),
         "sigma": draw(_log_uniform(0.02, 5.0))} for _ in range(2)]}


@st.composite
def _config(draw, scenario):
    ladder = scenario in _LADDERS
    ndim = 1 if ladder else draw(st.sampled_from((1, 2)))
    top = 8 if ladder else 64 if ndim == 1 else 16
    shape = [draw(st.integers(2, top)) for _ in range(ndim)]
    bounds = []
    for _ in range(ndim):
        lo = draw(st.floats(-10.0, 2.0))
        bounds.append([lo, lo + draw(_log_uniform(0.5, 20.0))])
    cfg = {"scenario": scenario, "seed": draw(st.integers(0, 1000)),
           "grid": {"bounds": bounds, "shape": shape},
           "solver": {"tol": draw(_log_uniform(1e-12, 1e-3)),
                      "max_iter": draw(st.integers(5, 3000))}}
    if scenario != "corrector":
        cfg["marginals"] = {side: draw(_marginal(bounds))
                            for side in ("mu", "nu")}
    kappa = draw(st.sampled_from((0.0, 0.5, 2.0)))
    if ladder:
        times = [draw(_log_uniform(1e-3, 2.0))]
        for _ in range(draw(st.integers(1, 2))):
            times.append(times[-1] * draw(st.floats(0.1, 0.9)))
        cfg["kernel"] = {"kappa": kappa}
        block = "smalltime" if scenario == "smalltime" else "gradient_map"
        cfg[block] = {"T_list": times}
    elif scenario == "eot-stability":
        cfg["kernel"] = {"epsilon": draw(_log_uniform(1e-3, 10.0))}
    else:
        cfg["kernel"] = {"kind": "heat" if kappa == 0.0 else "ou",
                         "T": draw(_log_uniform(1e-3, 5.0)), "kappa": kappa}
    if scenario in ("stability", "cost-stability", "eot-stability"):
        cfg["perturbation"] = {"epsilons": [draw(st.floats(0.01, 0.99))],
                               "n_seeds": 1,
                               "n_modes": draw(st.integers(1, 3))}
    elif scenario == "corrector":
        cfg["corrector"] = {"n_pairs": draw(st.integers(1, 2))}
    elif scenario == "interpolate":
        cfg["interpolate"] = {"n_times": draw(st.integers(2, 5)),
                              "n_slices": draw(st.integers(2, 8))}
    return cfg


def _nan_free(line: str) -> bool:
    seen = []
    json.loads(line, parse_constant=seen.append)
    return "NaN" not in seen


def _check_exit_contract(cfg):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", BandwidthWarning)
        out = Path(tmp) / "out"
        code = cli.run(cfg, out_dir=out)
        assert code in (0, 1, 2, 3)
        if code == 2:
            return
        lines = (out / "report.jsonl").read_text().splitlines()
    assert all(map(_nan_free, lines))
    reports = [json.loads(ln) for ln in lines]
    failing = sorted({r["name"] for r in reports
                      if r["record"] == "report" and not r["passed"]})
    if code == 1:
        assert failing
        assert f"failing checks: {', '.join(failing)}" in err.getvalue()
    elif code == 0:
        assert not failing


_FUZZ = settings(deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("scenario", _OTHERS)
@given(data=st.data())
@settings(_FUZZ, max_examples=20)
def test_grid_scenarios_end_in_a_documented_exit_code(scenario, data):
    _check_exit_contract(data.draw(_config(scenario)))


@pytest.mark.parametrize("scenario", _LADDERS)
@given(data=st.data())
@settings(_FUZZ, max_examples=60)
def test_t_ladders_on_few_cells_end_in_a_documented_exit_code(scenario,
                                                              data):
    _check_exit_contract(data.draw(_config(scenario)))
