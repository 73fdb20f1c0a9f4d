"""Strategy curves: lookup, refinement, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bluffsolve.strategy import (
    Strategy,
    StrategyError,
    a_type,
    b_type,
    m_deterministic,
    refine,
    threshold_mix,
)


def test_threshold_mix_lookup():
    sigma = threshold_mix(0.5, 1 / 3)
    assert sigma.high_probability(0.2) == pytest.approx(1 / 3, abs=0)
    assert sigma.high_probability(0.9) == 1.0


def test_breakpoint_card_plays_the_upper_regime():
    assert m_deterministic(0.5).high_probability(0.5) == 1.0
    assert threshold_mix(0.25, 0.1).high_probability(0.25) == 1.0


def test_constant_families():
    assert all(a_type().high_probability(v) == 1.0 for v in (0.0, 0.37, 1.0))
    assert all(b_type().high_probability(v) == 0.0 for v in (0.0, 0.37, 1.0))


def test_lookup_rejects_out_of_range():
    with pytest.raises(ValueError):
        a_type().high_probability(1.2)
    with pytest.raises(ValueError):
        a_type().high_probability(-0.01)


def test_validation_errors():
    with pytest.raises(StrategyError, match="strictly increasing"):
        Strategy(breakpoints=(0.7, 0.2), high_prob=(0.1, 0.2, 0.3))
    with pytest.raises(StrategyError, match=r"high_prob\[1\]"):
        Strategy(breakpoints=(0.5,), high_prob=(0.5, 1.5))
    with pytest.raises(StrategyError, match="one probability per interval"):
        Strategy(breakpoints=(0.5,), high_prob=(1.0,))
    with pytest.raises(StrategyError, match="inside"):
        Strategy(breakpoints=(0.0,), high_prob=(0.5, 1.0))
    with pytest.raises(StrategyError):
        threshold_mix(0.5, 2.0)


def test_mean_high_probability():
    sigma = threshold_mix(0.5, 1 / 3)
    # p*t + (1-t) under the uniform card law
    assert sigma.mean_high_probability() == pytest.approx(1 / 3 * 0.5 + 0.5, abs=1e-15)
    assert a_type().mean_high_probability() == 1.0


def test_refine_merges_breakpoints():
    r1, r2 = refine(threshold_mix(0.5, 0.2), m_deterministic(0.25))
    assert r1.breakpoints == (0.25, 0.5)
    assert r2.breakpoints == (0.25, 0.5)
    assert r1.high_prob == (0.2, 0.2, 1.0)
    assert r2.high_prob == (0.0, 1.0, 1.0)


def test_refine_constants_share_empty_grid():
    r1, r2 = refine(a_type(), a_type())
    assert r1.breakpoints == () and r2.breakpoints == ()


def test_refine_preserves_semantics():
    rng = np.random.default_rng(1)
    s1 = Strategy(breakpoints=(0.2, 0.6), high_prob=(0.1, 0.9, 0.4))
    s2 = threshold_mix(0.35, 0.7)
    r1, r2 = refine(s1, s2)
    for v in rng.random(1000):
        v = float(v)
        assert r1.high_probability(v) == s1.high_probability(v)
        assert r2.high_probability(v) == s2.high_probability(v)


def test_refine_matches_pointwise_lookup_on_shared_breakpoints():
    # Breakpoints from one lattice coincide between the two strategies, and
    # every merged breakpoint is a card exactly on a piece boundary.
    rng = np.random.default_rng(2)
    lattice = [i / 20 for i in range(1, 20)]
    for _ in range(50):
        s1, s2 = (
            Strategy(
                breakpoints=tuple(sorted(rng.choice(lattice, size=k, replace=False))),
                high_prob=tuple(rng.random(k + 1)),
            )
            for k in rng.integers(0, 8, size=2)
        )
        merged = tuple(sorted(set(s1.breakpoints) | set(s2.breakpoints)))
        for s, r in zip((s1, s2), refine(s1, s2)):
            assert r.breakpoints == merged
            assert r.high_prob == tuple(s.high_probability(x) for x in (0.0, *merged))


def test_json_round_trip():
    sigma = threshold_mix(0.5, 0.3333)
    text = sigma.to_json()
    assert Strategy.from_json(text) == sigma


def test_json_round_trip_full_precision():
    s = Strategy(breakpoints=(1 / 3,), high_prob=(1 / 7, 1.0))
    assert Strategy.from_json(s.to_json()) == s


def test_constant_deserializes_to_a_type():
    assert Strategy.from_json('{"breakpoints":[],"high_prob":[1.0]}') == a_type()


def test_deserialize_rejects_bad_ordering():
    with pytest.raises(StrategyError, match="strictly increasing"):
        Strategy.from_json('{"breakpoints":[0.7,0.2],"high_prob":[0.1,0.2,0.3]}')


def test_deserialize_rejects_missing_keys_and_bad_types():
    with pytest.raises(StrategyError, match="missing required key"):
        Strategy.from_json('{"breakpoints":[0.5]}')
    with pytest.raises(StrategyError, match="array of numbers"):
        Strategy.from_json('{"breakpoints":0.5,"high_prob":[1.0]}')


def test_parse_error_carries_position():
    with pytest.raises(StrategyError, match=r"line 1 column"):
        Strategy.from_json('{"breakpoints":[0.5,]}')


@st.composite
def strategies_(draw):
    k = draw(st.integers(min_value=0, max_value=5))
    bps = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1 - 1e-6, allow_nan=False),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    probs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=k + 1,
            max_size=k + 1,
        )
    )
    return Strategy(breakpoints=tuple(sorted(bps)), high_prob=tuple(probs))


@settings(max_examples=50, deadline=None)
@given(strategies_())
def test_serialization_round_trips_any_strategy(s):
    assert Strategy.from_json(s.to_json()) == s


@settings(max_examples=50, deadline=None)
@given(strategies_(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_lookup_always_a_probability(s, v):
    assert 0.0 <= s.high_probability(v) <= 1.0
