"""Acceptance gate: every criterion at its stated tolerance, one line each.

The expensive artifacts (counts to n = 300, the n = 4096 chains, the million-
sample bridge run) are computed once in session fixtures and shared.
"""

import functools
import math
import resource
import time
from fractions import Fraction

import numpy as np
import pytest

from graphseq import constants, engine, oracle, walklab

F = Fraction

GIB = 1024**3
RHO_REFERENCE = 0.515802638089141858504490255841
RHO_HAT_REFERENCE = 0.0773408571485249705089600725
C_REFERENCE = 0.099094083237488745361449340935


def report(number: int, description: str):
    """Decorator printing one PASS/FAIL line per criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL  {description}")
                raise
            print(f"ACCEPTANCE {number:02d} PASS  {description}")

        return inner

    return wrap


# ---------------------------------------------------------------------------
# shared artifacts


def counts(max_n, parity=engine.Parity.EVEN):
    """G(1..max_n) or H(1..max_n), advancing over the cone of max_n."""
    return [v for _, (v,), _ in engine.extend_counts(engine.initial_layer(parity), max_n)]


@pytest.fixture(scope="session")
def counts_to_300():
    t0 = time.time()
    values = counts(300)
    return {"G": values, "elapsed": time.time() - t0}


@pytest.fixture(scope="session")
def odd_counts_to_200():
    return counts(200, engine.Parity.ODD)


@pytest.fixture(scope="session")
def lazy_chain():
    t0 = time.time()
    pmf = constants.area_pmf(4096, "lazy")
    bounds = {n: constants.rho_bounds(n, pmf) for n in (16, 256, 4096)}
    points = [
        (n, constants.rho_bounds(n, pmf).estimate) for n in (1024, 2048, 4096)
    ]
    extrapolated = constants.richardson(points)
    return {
        "bounds": bounds,
        "amalgamated": dict(points),
        "extrapolated": extrapolated,
        "elapsed": time.time() - t0,
    }


@pytest.fixture(scope="session")
def simple_chain():
    pmf = constants.area_pmf(4096, "simple")
    points = [
        (n, constants.rho_bounds(n, pmf).estimate) for n in (1024, 2048, 4096)
    ]
    return constants.richardson(points)


@pytest.fixture(scope="session")
def bridge_mc_at_1e4():
    estimate, stderr = walklab.persistence_mc(
        10_000, 1_000_000, end=walklab.End.ZERO, seed=20240817, workers=2
    )
    return estimate, stderr


# ---------------------------------------------------------------------------
# criteria


@report(1, "exact counts equal the brute-force oracle for n <= 14")
def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    even = counts(14)
    odd = counts(14, engine.Parity.ODD)
    assert even[:3] == [1, 2, 4]
    assert odd[2] == 1
    for n in range(1, 15):
        g, h, d = oracle.brute_counts(n)
        assert even[n - 1] == g, f"G({n})"
        assert odd[n - 1] == h, f"H({n})"
        assert d == g + h
    assert time.time() - t0 < 300


@report(2, "counts to n = 300 inside 10 minutes and 8 GiB, ratio near 4")
def test_criterion_02_scale_run(counts_to_300):
    g = counts_to_300["G"]
    assert counts_to_300["elapsed"] < 600
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kib * 1024 < 8 * GIB
    assert len(g) == 300
    assert all(a <= b for a, b in zip(g, g[1:]))
    ratio = g[289] / g[288]  # G(290) / G(289)
    assert 3.9 <= ratio <= 4.1


@report(3, "scaled counts approach the predicted constant")
def test_criterion_03_scaled_constant(counts_to_300):
    scaled = dict(constants.c_empirical(counts_to_300["G"]))
    assert 0.085 <= scaled[300] <= 0.115
    assert abs(scaled[300] - 0.0991) < abs(scaled[50] - 0.0991)


@report(4, "generating function matches the displayed expansions exactly")
def test_criterion_04_series():
    s = constants.series_g(6)
    assert s.coefficients == {
        (1, 2): F(1, 16),
        (2, 3): F(1, 32),
        (3, 4): F(1, 64),
        (4, 4): F(1, 256), (4, 5): F(2, 256),
        (5, 5): F(1, 256), (5, 6): F(1, 256),
        (6, 5): F(2, 1024), (6, 6): F(3, 1024), (6, 7): F(2, 1024),
    }
    weights = constants.series_g(9).area_weights()
    assert weights[1:] == [
        F(1, 16), F(1, 32), F(1, 64), F(3, 256), F(1, 128),
        F(7, 1024), F(21, 4096), F(37, 8192), F(31, 8192),
    ]


@report(5, "two-state worked chain reproduced as exact rationals")
def test_criterion_05_chain_exactness():
    pmf = constants.area_pmf(2, exact=True)
    h = constants.chain_hitting_iterative(2, pmf)
    assert h["zero"][0] == F(1, 8)
    assert h["star"][0] == F(1, 2)
    est = constants.rho_bounds(2, pmf)
    assert est.lower == F(65, 128)
    assert est.upper == F(93, 128)


@report(6, "rho bounds at n = 4096 and the extrapolated value")
def test_criterion_06_rho(lazy_chain):
    bounds = lazy_chain["bounds"]
    assert 0.515 <= bounds[4096].lower <= 0.51581
    lowers = [bounds[n].lower for n in (16, 256, 4096)]
    assert lowers[0] <= lowers[1] <= lowers[2]
    assert bounds[4096].lower <= lazy_chain["amalgamated"][4096] <= 0.5159
    assert abs(lazy_chain["extrapolated"] - 0.515802638) < 5e-6
    assert lazy_chain["elapsed"] < 600


@report(7, "simple-walk variant and the constant from rho")
def test_criterion_07_simple_variant(simple_chain):
    assert abs(simple_chain - 0.0773408571) < 5e-6
    assert abs(constants.c_from_rho(0.515802638) - 0.099094083) <= 1e-8


@report(8, "persistence: exact value, scaled Monte Carlo, end-condition ratio")
def test_criterion_08_persistence(bridge_mc_at_1e4):
    assert walklab.persistence_exact(2, walklab.End.ZERO) == F(5, 6)
    estimate, _ = bridge_mc_at_1e4
    scaled = estimate * 10_000**0.25
    assert 0.63 <= scaled <= 0.77
    for n in range(1, 15):
        ratio = walklab.persistence_exact(
            n, walklab.End.ZERO_OR_MINUS_ONE
        ) / walklab.persistence_exact(n, walklab.End.ZERO)
        assert F(1, 2) <= ratio <= 1


@report(9, "ballot counts: double factorial on sum-distinct, no less on ties")
def test_criterion_09_ballot():
    rng = np.random.default_rng(90210)
    for n in range(2, 7):
        target = oracle.double_factorial_odd(n)
        for _ in range(100):
            x = oracle.random_sum_distinct_vector(n, rng)
            assert oracle.ballot_count(x) == target
        assert oracle.ballot_count(tuple([F(1)] * n)) >= target


@report(10, "bridge return counts match the exhaustive enumeration")
def test_criterion_10_returns():
    for n in range(1, 9):
        counts = walklab.bridge_return_counts(n)
        total = math.comb(2 * n, n)
        for k in range(n + 1):
            assert counts[k] == 2**k * math.comb(2 * n - k, n)
            assert walklab.returns_tail(n, k) == F(counts[k], total)


@report(11, "local limit error shrinks; joint law normalized and symmetric")
def test_criterion_11_local_limit():
    e25, e100 = walklab.llt_error(25), walklab.llt_error(100)
    assert e100 < e25
    assert e100 < 0.15
    for n in (25, 100):
        law = walklab.joint_dist(n)
        assert abs(law.sum() - 1.0) <= 1e-12
        assert np.array_equal(law, law[::-1, ::-1])


@report(12, "scaled parity gap stays within a factor of two")
def test_criterion_12_parity_gap(counts_to_300, odd_counts_to_200):
    gap = dict(
        constants.parity_gap(counts_to_300["G"][:200], odd_counts_to_200)
    )
    values = [gap[n] for n in (50, 100, 200)]
    assert all(v > 0 for v in values)
    assert max(values) / min(values) < 2
