"""Property tests: the blocked Abel truncation lines against a per-cut loop,
and the K-functional envelope built on them.

The reference computes each cut's two norms from scratch, one
StepDistribution per cut, exactly as the O(m^2) loop the blocked form
replaced did.  The envelope's K(t) is checked bit for bit against the
minimum over all m + 1 lines.
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from capnorm import interp  # noqa: E402
from capnorm.choquet import StepDistribution, lorentz_norm_of  # noqa: E402


def truncation_lines_loop(dist, p0, p1):
    """(||(f-c)+||_{p0}, ||min(f,c)||_{p1}) for c = 0, v_1, ..., v_m, one cut at a time."""
    thr, h = dist.thresholds, dist.plateaus
    ext = np.concatenate([[0.0], thr])
    a = np.array([lorentz_norm_of(StepDistribution(thr[k:] - ext[k], h[k:]), p0, p0)
                  for k in range(thr.size + 1)])
    b = np.array([lorentz_norm_of(StepDistribution(thr[:k], h[:k]), p1, p1)
                  for k in range(thr.size + 1)])
    return a, b


@st.composite
def distributions(draw):
    """m in [1, 300] distinct thresholds over six decades; plateaus nonincreasing, often tied."""
    m = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    thr = np.unique(10.0 ** rng.uniform(-3.0, 3.0, m))
    steps = rng.uniform(0.0, 1.0, thr.size)
    if draw(st.booleans()):
        steps = np.round(steps * 4) / 4  # ties: steps of 0 leave Abel weights of 0
    steps[-1] += 0.5  # content({f > lam}) is positive below the largest value
    return StepDistribution(thr, np.cumsum(steps[::-1])[::-1])


@given(distributions(), st.sampled_from([0.3, 0.5, 1.0, 1.7, 3.0]), st.floats(0.1, 4.0),
       st.integers(1, 2048))
@settings(max_examples=150, deadline=None)
@example(StepDistribution([2.0], [0.75]), 0.5, 1.0, 1 << 18)  # m = 1
@example(StepDistribution([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]), 0.5, 2.0, 1)  # all plateaus tied
def test_blocked_lines_match_per_cut_loop(dist, p0, gap, block):
    """Any block size, down to one element (one row per block, wider than the block)."""
    p1 = p0 + gap
    with mock.patch.object(interp, "LINE_BLOCK", block):
        a, b = interp._truncation_lines(dist, p0, p1)
    a_ref, b_ref = truncation_lines_loop(dist, p0, p1)
    assert a[-1] == 0.0 and b[0] == 0.0  # the envelope's pure-power tails test these exactly
    assert np.max(np.abs(a - a_ref)) <= 1e-13 * np.max(a_ref)
    assert np.max(np.abs(b - b_ref)) <= 1e-13 * np.max(b_ref)


P0 = st.sampled_from([0.3, 0.5, 1.0, 1.7, 3.0])


def _pair(p0, gap, eta=0.5):
    return interp.InterpPair(p0=p0, p1=p0 + gap, delta=1.0, eta=eta, q_interp=p0 + gap + 1.0)


@given(distributions(), P0, st.floats(0.1, 4.0))
@settings(max_examples=150, deadline=None)
def test_envelope_runs_from_intercept_zero_to_slope_zero(dist, p0, gap):
    """a_m = 0 and b_0 = 0 exactly, so both tails of the envelope are pure powers."""
    env = interp.k_envelope(dist, _pair(p0, gap))
    assert env.a[0] == 0.0 and env.b[-1] == 0.0
    assert np.all(np.diff(env.b) < 0) and np.all(np.diff(env.breaks) > 0)


@given(distributions(), P0, st.floats(0.1, 4.0), st.floats(0.1, 0.9),
       st.lists(st.floats(1e-8, 1e8), min_size=1, max_size=20))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_envelope_at_is_the_min_over_all_lines(dist, p0, gap, eta, ts):
    """On the report grid, at each break and at random t, scalar and array alike."""
    pair = _pair(p0, gap, eta)
    env = interp.k_envelope(dist, pair)
    a, b = interp._truncation_lines(dist, pair.p0, pair.p1)
    t = np.concatenate([interp._report_t_grid(env, pair), env.breaks, ts])
    k_all = np.min(a + np.multiply.outer(t, b), axis=1)
    assert np.array_equal(env.at(t), k_all)
    assert [env.at(x) for x in t[::7]] == k_all[::7].tolist()
