"""Stream naming: same name same draws, different name different draws."""

import numpy as np
import pytest

from expsqlab import RngStream


def test_same_name_same_draws():
    a = RngStream(1234, replica=3, purpose="x").generator().normal(size=100)
    b = RngStream(1234, replica=3, purpose="x").generator().normal(size=100)
    assert np.array_equal(a, b)


def test_fresh_generator_per_call():
    s = RngStream(7)
    first = s.generator().normal(size=10)
    again = s.generator().normal(size=10)
    # drawing does not advance the stream: a stream is a pure name
    assert np.array_equal(first, again)


def test_distinct_names_distinct_draws():
    base = RngStream(42)
    draws = [
        base.generator().normal(size=50),
        base.for_replica(1).generator().normal(size=50),
        base.child("noise").generator().normal(size=50),
        base.child("proposal").generator().normal(size=50),
        RngStream(43).generator().normal(size=50),
    ]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.allclose(draws[i], draws[j])


def test_child_composes_purpose():
    s = RngStream(5, purpose="run").child("dyn").child(2)
    assert s.purpose == "run/dyn/2"
    assert s.seed == 5 and s.replica == 0


def test_for_replica_keeps_purpose():
    s = RngStream(5, purpose="run/dyn").for_replica(17)
    assert s.replica == 17
    assert s.purpose == "run/dyn"


def test_cross_purpose_independence():
    # correlation between differently named streams should be noise level
    n = 4000
    a = RngStream(9, purpose="a").generator().normal(size=n)
    b = RngStream(9, purpose="b").generator().normal(size=n)
    corr = float(np.dot(a, b) / n)
    assert abs(corr) < 5.0 / np.sqrt(n)


def test_seed_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)
    with pytest.raises(ValueError):
        RngStream(3, replica=-2)
