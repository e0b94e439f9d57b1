"""The DPP step table against the rank-then-quantile transform it replaces."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dpp_transform_ranked

from otfair.dpp import dpp_transform, fit_dpp
from otfair.metrics import EmpiricalDistribution

SPECIAL = [0.0, -0.0, 1.0, -0.5, 1.5, np.nan, np.inf, -np.inf]


def _sample(rng, n, ties):
    """n scores in [0, 1]; with ties, drawn from a few distinct values."""
    if ties:
        return rng.choice(rng.uniform(0, 1, max(1, n // 7)), n)
    return rng.uniform(0, 1, n)


def _queries(rng, src):
    """Random values, every source sample and both of its neighbours, and
    the edge values."""
    return np.concatenate([rng.uniform(-0.1, 1.1, 200), src,
                           np.nextafter(src, -np.inf), np.nextafter(src, np.inf),
                           SPECIAL])


def _assert_matches(m, rng):
    for key, src in m.group_samples.items():
        j0, cuts = m.steps[key]
        assert len(cuts) <= m.target.n - 1
        assert 0 <= j0 <= m.target.n - 1 - len(cuts)
        q = _queries(rng, src)
        got = dpp_transform(m, key, q)
        assert np.array_equal(got, dpp_transform_ranked(m, key, q), equal_nan=True)
        for s in list(rng.choice(q, 5)) + SPECIAL:
            out = dpp_transform(m, key, s)
            assert type(out) is float
            assert out == dpp_transform_ranked(m, key, s)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.integers(1, 3_000), min_size=1, max_size=3),
       st.one_of(st.sampled_from([1, 2, 49, 98, 1_000]), st.integers(1, 3_000)),
       st.booleans(), st.booleans())
def test_step_table_equals_the_ranked_transform(seed, sizes, n_t, src_ties,
                                                tgt_ties):
    rng = np.random.default_rng(seed)
    groups = {(g,): _sample(rng, n, src_ties) for g, n in enumerate(sizes)}
    m = fit_dpp(groups, EmpiricalDistribution(_sample(rng, n_t, tgt_ties)))
    _assert_matches(m, rng)


@pytest.mark.parametrize("n_src,n_t", [(1, 1), (1, 5_000), (5_000, 1),
                                       (49, 49), (98, 98), (49, 98), (98, 49),
                                       (3_000, 999), (999, 3_000)])
def test_step_table_equals_the_ranked_transform_at_edge_sizes(n_src, n_t):
    rng = np.random.default_rng(n_src * 7 + n_t)
    m = fit_dpp({("g",): rng.uniform(0, 1, n_src)},
                EmpiricalDistribution(rng.uniform(0, 1, n_t)))
    _assert_matches(m, rng)


def test_step_table_keeps_the_map_fields():
    target = EmpiricalDistribution(np.array([0.9, 0.5]))
    m = fit_dpp({("g",): [0.4, 0.2]}, target)
    assert m.group_samples[("g",)].tolist() == [0.2, 0.4]
    assert m.target is target
    j0, cuts = m.steps[("g",)]
    assert (j0, cuts.tolist()) == (0, [0.4])
