import itertools

import numpy as np
import pytest

from bellgraph.families import complete, star
from bellgraph.graphs import Graph
from oracles import (
    LETTER_MATRIX,
    PauliString,
    from_text,
    identity,
    multiply,
    neighborhood_of_set,
    random_graph,
    single,
    stabilizer_element,
    stabilizer_letters,
    stabilizer_sign,
    to_text,
    vertex_stabilizer,
)


def _denoted_matrix(p: PauliString) -> np.ndarray:
    """i^phase * X^x Z^z per qubit, straight from the encoding's definition."""
    out = np.array([[1j**p.phase]])
    for v in reversed(range(p.n)):
        factor = np.eye(2, dtype=complex)
        if p.x >> v & 1:
            factor = factor @ LETTER_MATRIX["X"]
        if p.z >> v & 1:
            factor = factor @ LETTER_MATRIX["Z"]
        out = np.kron(out, factor)
    return out


def test_single_qubit_products_against_matrices():
    for a, b in itertools.product("IXYZ", repeat=2):
        p = multiply(single(1, 0, a), single(1, 0, b))
        target = LETTER_MATRIX[a] @ LETTER_MATRIX[b]
        assert np.allclose(_denoted_matrix(p), target), (a, b)
        assert np.allclose(_denoted_matrix(single(1, 0, a)), LETTER_MATRIX[a])


def test_z_times_x_is_i_y():
    p = multiply(single(1, 0, "Z"), single(1, 0, "X"))
    assert (p.x, p.z, p.phase) == (1, 1, 2)  # i^2 * XZ = iY
    assert p.letters() == "Y"


def test_hermitian_squares_to_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        x = int(rng.integers(1 << n))
        z = int(rng.integers(1 << n))
        y_count = bin(x & z).count("1")
        phase = (y_count + 2 * int(rng.integers(2))) % 4
        p = PauliString(n, x, z, phase)
        assert multiply(p, p).is_identity()


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        multiply(identity(2), identity(3))


def test_vertex_stabilizers_of_star():
    g = star(3)
    assert to_text(vertex_stabilizer(g, 0)) == "+X1 Z2 Z3"
    assert to_text(vertex_stabilizer(g, 1)) == "+Z1 X2"
    assert to_text(vertex_stabilizer(g, 2)) == "+Z1 X3"


def test_vertex_stabilizer_isolated_vertex():
    g = Graph(3, (0, 0, 0))
    assert to_text(vertex_stabilizer(g, 1)) == "+X2"


def test_star_full_product_golden():
    # the sign-carrying term of the 3-star expansion
    p = stabilizer_element(star(3), 0b111)
    assert to_text(p) == "-X1 Y2 Y3"
    assert p.phase == 0 and p.sign() == -1


def test_star_leaf_pair():
    assert to_text(stabilizer_element(star(3), 0b110)) == "+X2 X3"


def test_empty_product_is_identity():
    p = stabilizer_element(star(3), 0)
    assert p.is_identity()
    assert to_text(p) == "+I"


def test_supports_match_neighborhoods():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        g = random_graph(rng, n)
        s = int(rng.integers(1 << n))
        p = stabilizer_element(g, s)
        assert p.x == s
        assert p.z == neighborhood_of_set(g, s)


def test_phases_always_plain_signs(census):
    for n in (3, 4, 5):
        for g in census[n]:
            for s in range(1 << n):
                assert stabilizer_element(g, s).phase in (0, 2)
    rng = np.random.default_rng(6)
    for n in (8, 10):
        g = random_graph(rng, n)
        for _ in range(200):
            s = int(rng.integers(1 << n))
            assert stabilizer_element(g, s).phase in (0, 2)


def test_group_property():
    # G_S * G_S' = +-G_{S ^ S'}, sign included in the phase
    rng = np.random.default_rng(8)
    g4 = random_graph(rng, 4)
    for s1 in range(16):
        for s2 in range(16):
            prod = multiply(stabilizer_element(g4, s1), stabilizer_element(g4, s2))
            direct = stabilizer_element(g4, s1 ^ s2)
            assert (prod.x, prod.z) == (direct.x, direct.z)
            assert prod.phase in (direct.phase, (direct.phase + 2) % 4)
            assert prod.sign() in (direct.sign(), -direct.sign())
    for _ in range(100):
        n = int(rng.integers(2, 7))
        g = random_graph(rng, n)
        s1 = int(rng.integers(1 << n))
        s2 = int(rng.integers(1 << n))
        prod = multiply(stabilizer_element(g, s1), stabilizer_element(g, s2))
        assert (prod.x, prod.z) == (s1 ^ s2, neighborhood_of_set(g, s1 ^ s2))


def test_signs_against_matrix_decomposition():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        g = random_graph(rng, n)
        s = int(rng.integers(1 << n))
        sign, letters = stabilizer_letters(g, s)
        p = stabilizer_element(g, s)
        assert p.letters() == letters
        assert p.sign() == sign
        assert stabilizer_sign(g, s) == sign


def test_complete_graph_even_subsets_are_plus_y():
    for n in (3, 4, 5, 6):
        g = complete(n)
        for s in range(1 << n):
            if bin(s).count("1") % 2 == 0:
                p = stabilizer_element(g, s)
                assert p.sign() == 1
                assert all(p.letter(v) == ("Y" if s >> v & 1 else "I") for v in range(n))


def test_text_roundtrip():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        g = random_graph(rng, n)
        p = stabilizer_element(g, int(rng.integers(1 << n)))
        assert from_text(to_text(p), n) == p
    assert from_text("+I", 4) == identity(4)
    assert from_text("-Y2", 3) == PauliString(3, 0b010, 0b010, 3)


def test_text_parse_errors():
    for bad in ("", "X1", "+Q1", "+X0", "+X5", "+X1 X1"):
        with pytest.raises(ValueError):
            from_text(bad, 3)


def test_sign_requires_hermitian():
    with pytest.raises(ValueError):
        single(1, 0, "X").__class__(1, 1, 1, 1).sign()  # lone XZ has phase 1


def test_multiply_associative_vs_matrices():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        ps = [
            PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)),
                        int(rng.integers(4)))
            for _ in range(3)
        ]
        left = multiply(multiply(ps[0], ps[1]), ps[2])
        right = multiply(ps[0], multiply(ps[1], ps[2]))
        assert left == right
