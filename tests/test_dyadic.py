import copy
import pickle
from fractions import Fraction

import pytest

from bellgraph.dyadic import Dyadic


def test_normalization():
    assert Dyadic(6, 3) == Dyadic(3, 2)
    assert str(Dyadic(6, 3)) == "3/4"
    assert Dyadic(0, 5) == Dyadic(0, 0)
    assert Dyadic(8, 3) == Dyadic(1)
    assert str(Dyadic(8, 3)) == "1"
    assert Dyadic(-6, 4) == Dyadic(-3, 3)


def test_comparisons():
    assert Dyadic(15, 4) < Dyadic(1)
    assert Dyadic(15, 4) < 1
    assert Dyadic(5, 3) > Dyadic(9, 4)  # 5/8 > 9/16
    assert Dyadic(3, 2) == Dyadic(12, 4)
    assert Dyadic(-1, 2) < Dyadic(1, 2)
    assert sorted([Dyadic(1), Dyadic(7, 4), Dyadic(5, 3)]) == [
        Dyadic(7, 4), Dyadic(5, 3), Dyadic(1),
    ]


def test_arithmetic():
    assert Dyadic(1, 1) + Dyadic(1, 2) == Dyadic(3, 2)
    assert Dyadic(1) - Dyadic(1, 6) == Dyadic(63, 6)
    assert Dyadic(3, 2) * Dyadic(3, 2) == Dyadic(9, 4)
    assert 2 * Dyadic(3, 2) == Dyadic(3, 1)
    assert -Dyadic(3, 2) == Dyadic(-3, 2)
    assert Dyadic(1, 1) + 1 == Dyadic(3, 1)


def test_float_and_str():
    assert float(Dyadic(15, 4)) == 0.9375
    assert str(Dyadic(15, 4)) == "15/16"
    assert str(Dyadic(-5, 3)) == "-5/8"


def test_hash_consistency():
    assert hash(Dyadic(6, 3)) == hash(Dyadic(3, 2))
    assert len({Dyadic(1, 0), Dyadic(4, 2), Dyadic(1, 1)}) == 2


def test_hash_agrees_with_equal_numbers():
    # Dyadic(k) == k, so hash and set membership must agree with int
    for k in (-3, 0, 1, 5, 1 << 70):
        assert Dyadic(k, 0) == k
        assert hash(Dyadic(k, 0)) == hash(k)
    assert len({Dyadic(1), 1}) == 1
    assert hash(Dyadic(3, 2)) == hash(Fraction(3, 4)) == hash(0.75)


def test_arithmetic_with_ints_stays_dyadic():
    d = Dyadic(3, 4)
    results = [d + 1, 1 + d, d - 1, 1 - d, d * 2, 2 * d, -d, d + d, d - d, d * d]
    assert all(type(r) is Dyadic for r in results)
    assert results == [Dyadic(19, 4), Dyadic(19, 4), Dyadic(-13, 4), Dyadic(13, 4),
                       Dyadic(3, 3), Dyadic(3, 3), Dyadic(-3, 4), Dyadic(3, 3),
                       Dyadic(0), Dyadic(9, 8)]


def test_copy_and_pickle_keep_the_value():
    d = Dyadic(3, 4)
    for clone in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert type(clone) is Dyadic
        assert repr(clone) == "Dyadic(3, 4)"


def test_json_roundtrip():
    d = Dyadic(54, 6)
    assert Dyadic.from_json(d.to_json()) == d
    assert d.to_json() == {"num": 27, "log2_den": 5}


def test_denominator_validation():
    with pytest.raises(ValueError):
        Dyadic(1, -1)
