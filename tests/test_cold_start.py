"""Cold start: the package loads no scipy module until a scipy-backed
function runs, and the numpy expressions that stand in for
scipy.special.xlogy and logsumexp agree with them."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bridgestab import measures, orlicz

ROOT = Path(__file__).resolve().parent.parent

# Imports the package, runs sample configs through `cli.run`, then takes
# one 2D Ḣ⁻¹ norm (the sparse direct solve), and prints the scipy modules
# loaded after each step as one JSON line.
_PROBE = r"""
import json, sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {}
import bridgestab
seen["import bridgestab"] = scipy_modules()
import yaml
from bridgestab import cli
seen["import bridgestab.cli"] = scipy_modules()
for name in sys.argv[2:]:
    cfg = yaml.safe_load(Path("configs", name + ".yaml").read_text())
    seen[name] = [cli.run(cfg, Path(sys.argv[1]) / name), scipy_modules()]
g = bridgestab.Grid.regular([(-3.0, 3.0), (-3.0, 3.0)], [12, 12])
mu = bridgestab.gaussian_measure(g, [0.4, -0.3], [1.0, 0.8])
nu = bridgestab.gaussian_measure(g, [-0.2, 0.1], [0.9, 1.1])
norm = bridgestab.h_minus_one_norm(bridgestab.difference(mu, nu), mu)
seen["2d hm1 norm"] = [norm, scipy_modules()]
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = tmp_path_factory.mktemp("probe")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(out),
         "solve", "smalltime", "orlicz", "stability"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy(probe):
    assert probe["import bridgestab"] == []
    assert probe["import bridgestab.cli"] == []


# 1D Ḣ⁻¹ norms (the stability battery) use the closed-form flux sum
@pytest.mark.parametrize("name", ["solve", "smalltime", "orlicz",
                                  "stability"])
def test_scenario_without_hm1_solve_loads_no_scipy(probe, name):
    assert probe[name] == [0, []]


def test_2d_hm1_norm_loads_scipy_sparse_when_it_runs(probe):
    assert probe["stability"][1] == []  # the step before it
    norm, modules = probe["2d hm1 norm"]
    assert math.isfinite(norm) and norm > 0.0
    assert "scipy.sparse" in modules


# ---------------------------------------------------------------------------
# numpy stand-ins against scipy.special
# ---------------------------------------------------------------------------

def _with_zeros_and_subnormals(rng, n):
    x = rng.uniform(0.0, 3.0, n)
    x[rng.random(n) < 0.2] = 0.0
    sub = rng.random(n) < 0.1
    x[sub] = 5e-324 * rng.integers(1, 2 ** 20, int(sub.sum()))
    return x


def test_one_entropy_sum():
    assert orlicz.relative_entropy_weights is measures.relative_entropy_weights


def test_relative_entropy_matches_xlogy(rng):
    from scipy.special import xlogy
    for _ in range(200):
        n = int(rng.integers(2, 300))
        p = _with_zeros_and_subnormals(rng, n)
        p[0] = 1.0
        p /= p.sum()
        q = rng.uniform(1e-300, 2.0, n)  # cell masses may exceed 1
        s = p > 0
        ref = float(np.sum(xlogy(p[s], p[s] / q[s])))
        got = measures.relative_entropy_weights(p, q)
        assert abs(got - ref) <= 1e-14 * abs(ref)
    # a subnormal p_i over q_i > 1 underflows p_i/q_i to 0, where xlogy
    # gives -inf; that term is p_i·(log p_i - log q_i), so H stays ~0
    p = np.array([5e-324, 1.0])
    q = np.array([4.0, 1.0])
    assert float(np.sum(xlogy(p, p / q))) == -math.inf
    assert measures.relative_entropy_weights(p, q) == \
        5e-324 * (math.log(5e-324) - math.log(4.0))
    assert measures.relative_entropy_weights(np.array([0.5, 0.5]),
                                             np.array([1.0, 0.0])) == math.inf


def test_theta_star_matches_xlogy(rng):
    from scipy.special import xlogy
    s = _with_zeros_and_subnormals(rng, 100_000)
    ref = np.where(s > 0, xlogy(s, s) - s + 1.0, 1.0)
    got = orlicz.theta_star(s)
    # θ*(s) cancels to (s-1)²/2 near s = 1, so the scale is that of its
    # terms s·log s, s and 1, where the two logs differ by at most an ulp
    scale = np.abs(xlogy(s, s)) + s + 1.0
    assert np.all(np.abs(got - ref) <= 1e-14 * scale)
    assert np.all(got[s == 0] == 1.0)


def test_logsumexp_matches_scipy(rng):
    from scipy.special import logsumexp
    for _ in range(200):
        n = int(rng.integers(1, 300))
        a = rng.normal(0.0, 50.0, n)
        a[rng.random(n) < 0.3] = -np.inf
        ref = float(logsumexp(a))
        got = orlicz._logsumexp(a)
        assert got == ref or abs(got - ref) <= 1e-14 * abs(ref)
    for a in (np.full(5, -np.inf), np.array([])):
        assert orlicz._logsumexp(a) == float(logsumexp(a)) == -math.inf


def test_lp_norm_log_matches_scipy(rng):
    from scipy.special import logsumexp
    for _ in range(200):
        n = int(rng.integers(1, 300))
        v = _with_zeros_and_subnormals(rng, n)
        q = rng.dirichlet(np.ones(n))
        q[rng.random(n) < 0.1] = 0.0
        e = float(rng.uniform(0.3, 3.0))
        s = q > 0
        with np.errstate(divide="ignore"):
            ref = float(np.exp(
                logsumexp(np.log(q[s]) + e * np.log(v[s])) / e))
        got = orlicz._lp_norm_log(v, q, e)
        assert got == ref or abs(got - ref) <= 1e-14 * abs(ref)
    # every term -inf: the norm is 0, not NaN
    assert orlicz._lp_norm_log(np.zeros(4), np.full(4, 0.25), 2.0) == 0.0
