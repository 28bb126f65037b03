"""Brute-force reference implementations used only by the tests.

Everything here recomputes results from first principles without touching
the package's fast paths: coverable sets by full pair enumeration, LHV
values by evaluating letter strings term by term, Pauli matrices by
explicit Kronecker products, transforms by the character-sum definition.
The one exception is `transform_lhv_values`, which takes the package's
coefficient and stabilizer tables (both checked against the brute-force
versions here) and replaces only the LHV engine.
"""
from __future__ import annotations

import itertools

import numpy as np

from bellgraph.bell import bell_coefficients, stabilizer_table
from bellgraph.graphs import Graph, bits_of, iter_bits

I2 = np.eye(2, dtype=complex)
PX = np.array([[0, 1], [1, 0]], dtype=complex)
PY = np.array([[0, -1j], [1j, 0]], dtype=complex)
PZ = np.array([[1, 0], [0, -1]], dtype=complex)
LETTER_MATRIX = {"I": I2, "X": PX, "Y": PY, "Z": PZ}


def brute_coverable(g: Graph, t: int) -> set[int]:
    """All delta ^ N(omega) over every pair, no support shortcut."""
    members = set()
    verts = range(g.n)
    for r1 in range(g.n + 1):
        for omega in itertools.combinations(verts, r1):
            for r2 in range(g.n + 1):
                for delta in itertools.combinations(verts, r2):
                    if len(set(omega) | set(delta)) > t:
                        continue
                    nw = 0
                    for v in omega:
                        nw ^= g.adj[v]
                    members.add(bits_of(delta) ^ nw)
    return members


def kron_chain(mats) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def letters_matrix(letters: str) -> np.ndarray:
    """Dense matrix of a letter string; qubit 0 is the least significant bit."""
    return kron_chain([LETTER_MATRIX[c] for c in reversed(letters)])


def stabilizer_letters(g: Graph, s: int) -> tuple[int, str]:
    """(sign, letters) of the product of vertex stabilizers over s.

    Computed by dense matrix multiplication and decomposition against all
    4^n candidate letter strings; exact but exponential, so n <= 4 only.
    """
    assert g.n <= 4
    m = np.eye(1 << g.n, dtype=complex)
    for a in iter_bits(s):
        letters = "".join(
            "X" if v == a else ("Z" if g.adj[a] >> v & 1 else "I") for v in range(g.n)
        )
        m = m @ letters_matrix(letters)
    for cand in itertools.product("IXYZ", repeat=g.n):
        cm = letters_matrix("".join(cand))
        if np.allclose(m, cm):
            return 1, "".join(cand)
        if np.allclose(m, -cm):
            return -1, "".join(cand)
    raise AssertionError("stabilizer product is not a signed letter string")


def brute_bell_terms(g: Graph, t: int) -> list[tuple[int, str]]:
    """(coefficient, letters) per subset with nonzero weight; n <= 4."""
    cov = brute_coverable(g, t)
    terms = []
    for s in range(1 << g.n):
        k = sum(-1 if bin(c & s).count("1") % 2 else 1 for c in cov)
        if k:
            sign, letters = stabilizer_letters(g, s)
            terms.append((k * sign, letters))
    return terms


def brute_lhv_values(g: Graph, t: int, reduced: bool = True) -> list[int]:
    """Every assignment value (numerator over 2^n) by term-wise evaluation.

    Assignment order matches the package's packing so tables can be compared
    entry for entry: index = (x_neg << n) | y_neg, and for the unreduced
    case (x_neg << 2n) | (y_neg << n) | z_neg.
    """
    n = g.n
    terms = brute_bell_terms(g, t)
    z_range = range(1 << n) if not reduced else (0,)
    values = []
    for x_neg in range(1 << n):
        for y_neg in range(1 << n):
            for z_neg in z_range:
                total = 0
                for coeff, letters in terms:
                    p = coeff
                    for v, c in enumerate(letters):
                        if c == "X" and x_neg >> v & 1:
                            p = -p
                        elif c == "Y" and y_neg >> v & 1:
                            p = -p
                        elif c == "Z" and z_neg >> v & 1:
                            p = -p
                    total += p
                values.append(total)
    return values


def brute_wht(a: np.ndarray) -> np.ndarray:
    """Character-sum definition of the transform, O(4^n)."""
    size = len(a)
    out = np.zeros(size, dtype=np.int64)
    for s in range(size):
        acc = 0
        for c in range(size):
            acc += -int(a[c]) if bin(c & s).count("1") % 2 else int(a[c])
        out[s] = acc
    return out


def transform_lhv_values(g: Graph, t: int) -> np.ndarray:
    """All 4^n assignment values from one transform over the 2n sign bits.

    Scatters each stabilizer weight to (S_X << n) | S_Y of a 4^n table and
    applies a stage-by-stage Walsh-Hadamard transform written here, so the
    package's blocked engine and `fwht_inplace` are not involved.
    """
    n = g.n
    table = stabilizer_table(g)
    h = np.zeros(1 << (2 * n), dtype=np.int64)
    h[(table.sx << n) | table.sy] = bell_coefficients(g, t).k * table.signs
    for bit in range(2 * n):
        pairs = h.reshape(-1, 2, 1 << bit)
        h = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1).ravel()
    return h


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n:
        return False
    for perm in itertools.permutations(range(g1.n)):
        if g1.relabel(perm) == g2:
            return True
    return False


def random_graph(rng: np.random.Generator, n: int) -> Graph:
    edges = [
        (a, b) for a in range(n) for b in range(a + 1, n) if rng.integers(2)
    ]
    return Graph.from_edges(n, edges)
