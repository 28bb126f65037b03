"""Brute-force reference implementations used only by the tests.

Everything here recomputes results from first principles without touching
the package's fast paths: coverable sets by full pair enumeration, LHV
values by evaluating letter strings term by term, Pauli matrices by
explicit Kronecker products, support-local operators by embedding them as
full 2^n x 2^n matrices, stabilizer elements by per-element products of
phase-tracked Pauli strings, transforms by the character-sum definition,
canonical codes by a per-graph recursive search and by all n! relabelings,
LC dedup by one orbit walk per record, and the labeled universe on n
vertices by every edge set.
The exceptions are `transform_lhv_values`, `lhv_values_full` and
`coefficient_operator_matrix`, which take the package's coefficient table
(and, for the first two, its stabilizer table; both checked against the
brute-force versions here) and replace only the LHV engine or the
simulator's operator assembly, and `bell_operator_matrix`, which sums the
package's graph state phase-flipped by its coverable sets into the dense
4^n matrix the simulator's branch expectations are checked against
(`apply_channel_dense` carries a density matrix through a channel for
that check). `lhv_value_table` is not an oracle but the side under test:
the engine's blocks assembled into the full table that the oracles give.
The package never imports this module.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from bellgraph.bell import _value_blocks, bell_coefficients, stabilizer_table
from bellgraph.coverable import coverable_set
from bellgraph.dyadic import Dyadic
from bellgraph.graph6 import rows_of_code
from bellgraph.graphs import Graph, bits_of, iter_bits, local_complement
from bellgraph.quantum import KrausChannel, build_graph_state, phase_flip

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


def embed_operator(small: np.ndarray, n: int, support: tuple[int, ...]) -> np.ndarray:
    """Extend an operator on `support` by identity on the other qubits, as a
    dense 2^n x 2^n matrix."""
    s = len(support)
    rest = [q for q in range(n) if q not in support]
    d, r = 1 << s, 1 << len(rest)
    scat_s = np.zeros(d, dtype=np.int64)
    for i, q in enumerate(support):
        scat_s |= ((np.arange(d) >> i) & 1) << q
    scat_r = np.zeros(r, dtype=np.int64)
    for i, q in enumerate(rest):
        scat_r |= ((np.arange(r) >> i) & 1) << q
    perm = (scat_s[:, None] + scat_r[None, :]).ravel()
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    full[np.ix_(perm, perm)] = np.kron(small, np.eye(r))
    return full


def apply_channel_dense(rho: np.ndarray, channel: KrausChannel) -> np.ndarray:
    """Sum of E rho E^dagger, each Kraus operator embedded as a full matrix."""
    full = (embed_operator(e, channel.n, channel.support) for e in channel.ops)
    return sum(e @ rho @ e.conj().T for e in full)


def bell_operator_matrix(g: Graph, t: int) -> np.ndarray:
    """Dense B_t: the sum over coverable sets c of |psi_c><psi_c|, psi_c the
    graph state with Z on every vertex of c."""
    members = np.flatnonzero(coverable_set(g, t).indicator)
    flipped = phase_flip(members[:, None], build_graph_state(g))
    return flipped.T @ flipped.conj()


def kron_chain(mats) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def letters_matrix(letters: str) -> np.ndarray:
    """Dense matrix of a letter string; qubit 0 is the least significant bit."""
    return kron_chain([LETTER_MATRIX[c] for c in reversed(letters)])

# ---------------------------------------------------------------------------
# phase-tracked Pauli strings
#
# A PauliString (x, z, phase) denotes i^phase * prod_v X_v^{x_v} Z_v^{z_v},
# with X written before Z on every qubit; x and z are vertex-set words. The
# letter at v is Y when v is in both supports, X or Z when in exactly one.
# Products move every Z of the left factor past every X of the right factor
# (each such qubit flips the sign), which fixes the convention Z*X = i*Y.
# Graph-state stabilizer elements have an even number of Y letters (they sit
# on the odd-degree vertices of an induced subgraph) and phase 0 or 2, so
# each is a Hermitian sign times its letter string.

_LETTERS = ("I", "X", "Z", "Y")  # indexed by x_bit + 2*z_bit


@dataclass(frozen=True)
class PauliString:
    n: int
    x: int
    z: int
    phase: int  # exponent of i, mod 4

    def __post_init__(self):
        full = (1 << self.n) - 1
        if self.x & ~full or self.z & ~full:
            raise ValueError("support outside the qubit range")
        if not 0 <= self.phase < 4:
            object.__setattr__(self, "phase", self.phase % 4)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)

    def letter(self, v: int) -> str:
        return _LETTERS[(self.x >> v & 1) + 2 * (self.z >> v & 1)]

    def letters(self) -> str:
        return "".join(self.letter(v) for v in range(self.n))

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0 and self.phase == 0

    def sign(self) -> int:
        """+1 or -1 such that the operator is sign * its letter string.

        Defined for Hermitian strings only (even Y count, phase 0 or 2).
        """
        y_count = (self.x & self.z).bit_count()
        if y_count % 2 or self.phase % 2:
            raise ValueError("phase is not a real sign; operator is not Hermitian")
        # each Y letter absorbs one factor -i from X*Z
        return (-1) ** ((self.phase // 2 + y_count // 2) % 2)

    def __str__(self) -> str:
        return to_text(self)


def identity(n: int) -> PauliString:
    return PauliString(n, 0, 0, 0)


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Exact operator product with phase bookkeeping."""
    if p.n != q.n:
        raise ValueError(f"qubit counts differ: {p.n} vs {q.n}")
    phase = (p.phase + q.phase + 2 * (p.z & q.x).bit_count()) % 4
    return PauliString(p.n, p.x ^ q.x, p.z ^ q.z, phase)


def single(n: int, v: int, letter: str) -> PauliString:
    """One-letter string, e.g. single(3, 0, 'Y')."""
    if letter == "X":
        return PauliString(n, 1 << v, 0, 0)
    if letter == "Z":
        return PauliString(n, 0, 1 << v, 0)
    if letter == "Y":
        return PauliString(n, 1 << v, 1 << v, 1)  # i * XZ = Y
    if letter == "I":
        return identity(n)
    raise ValueError(f"unknown letter {letter!r}")


def vertex_stabilizer(g: Graph, a: int) -> PauliString:
    """X on a, Z on every neighbor of a."""
    if not 0 <= a < g.n:
        raise ValueError(f"vertex {a} out of range")
    return PauliString(g.n, 1 << a, g.adj[a], 0)


def stabilizer_element(g: Graph, s: int) -> PauliString:
    """Product of vertex stabilizers over s, ascending vertex order.

    X support is s itself, Z support the set-neighborhood of s, and the
    phase is always a plain sign (0 or 2).
    """
    out = identity(g.n)
    for a in iter_bits(s):
        out = multiply(out, vertex_stabilizer(g, a))
    return out


def stabilizer_sign(g: Graph, s: int) -> int:
    """Sign of the stabilizer element's letter string."""
    return stabilizer_element(g, s).sign()


def to_text(p: PauliString) -> str:
    """Render as '+X1 Y2 Z3' (1-based vertices, identities omitted).

    Hermitian strings only; the all-identity string renders as '+I'.
    """
    sign = p.sign()
    head = "+" if sign > 0 else "-"
    parts = [
        f"{p.letter(v)}{v + 1}" for v in range(p.n) if p.letter(v) != "I"
    ]
    if not parts:
        return head + "I"
    return head + " ".join(parts)


def from_text(text: str, n: int) -> PauliString:
    """Parse the `to_text` rendering back into a PauliString."""
    text = text.strip()
    if not text or text[0] not in "+-":
        raise ValueError(f"missing sign in {text!r}")
    negative = text[0] == "-"
    body = text[1:].strip()
    out = identity(n)
    if body and body != "I":
        seen = 0
        for token in body.split():
            letter, idx = token[0], token[1:]
            if letter not in "XYZ" or not idx.isdigit():
                raise ValueError(f"bad token {token!r}")
            v = int(idx) - 1
            if not 0 <= v < n:
                raise ValueError(f"vertex {idx} out of range for n={n}")
            if seen >> v & 1:
                raise ValueError(f"vertex {idx} repeated")
            seen |= 1 << v
            out = multiply(out, single(n, v, letter))
    if negative:
        out = PauliString(n, out.x, out.z, (out.phase + 2) % 4)
    return out


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of i^phase * X^x Z^z."""
    size = 1 << p.n
    b = np.arange(size)
    amp = (1j) ** p.phase * np.where(np.bitwise_count(b & p.z) & 1, -1.0, 1.0)
    m = np.zeros((size, size), dtype=complex)
    m[b ^ p.x, b] = amp
    return m


def apply_pauli(p: PauliString, vec: np.ndarray) -> np.ndarray:
    return pauli_matrix(p) @ vec


def coefficient_operator_matrix(g: Graph, t: int) -> np.ndarray:
    """Dense B_t as (1/2^n) sum_S k[S] G_S, each G_S a per-element product."""
    bc = bell_coefficients(g, t)
    size = 1 << g.n
    out = np.zeros((size, size), dtype=complex)
    for s in range(size):
        if bc.k[s]:
            out += int(bc.k[s]) * pauli_matrix(stabilizer_element(g, s))
    return out / size


@functools.cache
def _letter_strings(n: int) -> tuple[list[str], np.ndarray]:
    """Every letter string on n qubits, in product order, and their dense
    matrices stacked on a leading axis."""
    strings = ["".join(c) for c in itertools.product("IXYZ", repeat=n)]
    return strings, np.stack([letters_matrix(c) for c in strings])


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
    strings, mats = _letter_strings(g.n)
    plus = np.isclose(mats, m).all(axis=(1, 2))
    minus = np.isclose(mats, -m).all(axis=(1, 2))
    for letters, p, q in zip(strings, plus, minus):
        if p:
            return 1, letters
        if q:
            return -1, letters
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


def stage_wht(h: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of a 2^k table, one butterfly stage per bit."""
    for bit in range(len(h).bit_length() - 1):
        pairs = h.reshape(-1, 2, 1 << bit)
        h = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1).ravel()
    return h


def transform_lhv_values(g: Graph, t: int) -> np.ndarray:
    """All 4^n assignment values from one transform over the 2n sign bits.

    Scatters each stabilizer weight to (S_X << n) | S_Y of a 4^n table and
    applies `stage_wht`, so the package's blocked engine and `fwht_inplace`
    are not involved.
    """
    n = g.n
    table = stabilizer_table(g)
    h = np.zeros(1 << (2 * n), dtype=np.int64)
    h[(table.sx << n) | table.sy] = bell_coefficients(g, t).k * table.signs
    return stage_wht(h)


def lhv_value_table(g: Graph, t: int) -> np.ndarray:
    """The engine's numerators of all 4^n assignment values, int64, indexed
    (x_neg << n) | y_neg.

    The engine's blocks hold the rows y_neg < 2^(n-1). The value at
    y_neg = 2^(n-1) + k is the value at its complement 2^(n-1) - 1 - k, so
    the upper half of each x_neg row is the lower half reversed.
    """
    size, half = 1 << g.n, 1 << g.n - 1
    out = np.empty((size, size), dtype=np.int64)
    for _, x0, block in _value_blocks(g.n, np.array([g.adj], dtype=np.int64), t):
        out[x0:x0 + block.shape[2], :half] = block[:, 0].T
    out[:, half:] = out[:, half - 1::-1]
    return out.ravel()


def lhv_values_full(g: Graph, t: int) -> np.ndarray:
    """Numerators of all 8^n values over independent X, Y and Z signs.

    Scatters each stabilizer weight to (S_X << 2n) | (S_Y << n) | S_Z, with
    S_Z the Z-letter support (the neighborhood minus S), and transforms over
    all 3n sign bits; indexed (x_neg << 2n) | (y_neg << n) | z_neg like
    `brute_lhv_values(..., reduced=False)`. n <= 6.
    """
    if g.n > 6:
        raise ValueError(f"full assignment scan is 8^n; n={g.n} exceeds 6")
    n = g.n
    table = stabilizer_table(g)
    sz = table.nbhd & ~np.arange(1 << n, dtype=np.int64)
    h = np.zeros(1 << (3 * n), dtype=np.int64)
    h[(table.sx << 2 * n) | (table.sy << n) | sz] = bell_coefficients(g, t).k * table.signs
    return stage_wht(h)


def lhv_bound_full(g: Graph, t: int) -> Dyadic:
    """LHV bound over independent X, Y and Z signs: the unreduced 8^n scan.

    It checks the package's Z=+1 reduction; n <= 6.
    """
    return Dyadic(int(lhv_values_full(g, t).max()), g.n)


def identity_table(n: int) -> np.ndarray:
    """Coefficient table of the identity operator on n qubits."""
    k = np.zeros(1 << n, dtype=np.int64)
    k[0] = 1 << n
    return k


def tensor_tables(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Coefficient table of A (x) B on the disjoint union of their graphs.

    `low` lives on the low vertex block, `high` on the block above it;
    stabilizer elements of a disjoint union factor, so tables combine by
    outer product.
    """
    return np.kron(high, low)


def reference_canonical_code(g: Graph) -> int:
    """Canonical code by a depth-first search over admitted placements.

    The per-graph recursive form of `bellgraph.canon`'s rule: place vertices
    one at a time, branching on the unplaced vertices of greatest row against
    the prefix and then greatest degree, one of each twin pair, pruning any
    prefix below the best code found; keep the greatest complete code.
    """
    n = g.n
    adj = g.adj
    if n == 1:
        return 0
    nbits = n * (n - 1) // 2
    deg = [adj[v].bit_count() for v in range(n)]
    best_code = -1

    def twins(u: int, v: int) -> bool:
        return adj[u] & ~(1 << v) == adj[v] & ~(1 << u)

    # placed vertices, their count k, and the code over the first tri(k) bits
    def place(placed: list[int], placed_mask: int, code: int):
        nonlocal best_code
        k = len(placed)
        if k == n:
            best_code = max(best_code, code)
            return
        rows = []
        for v in range(n):
            if not placed_mask >> v & 1:
                row = 0
                for p in placed:
                    row = row << 1 | (adj[v] >> p & 1)
                rows.append((v, row))
        best_row = max(row for _, row in rows)
        cands = [v for v, row in rows if row == best_row]
        top = max(deg[v] for v in cands)
        reps = []
        for v in cands:
            if deg[v] == top and not any(twins(u, v) for u in reps):
                reps.append(v)
        code = code << k | best_row
        bits_done = (k + 1) * k // 2
        if best_code >= 0 and code < best_code >> (nbits - bits_done):
            return  # every completion is dominated by the best code found
        for v in reps:
            placed.append(v)
            place(placed, placed_mask | 1 << v, code)
            placed.pop()

    place([], 0, 0)
    return best_code


def reference_lc_orbit(g: Graph) -> set[int]:
    """Reference codes of every graph reachable from g by local complementation.

    Breadth-first over classes, one labeled member kept per reference code,
    complementing at every vertex.
    """
    seen = {reference_canonical_code(g): g}
    frontier = [g]
    while frontier:
        nxt = []
        for h in frontier:
            for a in range(h.n):
                image = local_complement(h, a)
                code = reference_canonical_code(image)
                if code not in seen:
                    seen[code] = image
                    nxt.append(image)
        frontier = nxt
    return set(seen)


ENUMERATION_MAX_N = 7


def enumerate_labeled(n: int) -> Iterator[Graph]:
    """Every labeled simple graph on n vertices, ascending edge-bit code."""
    if n > ENUMERATION_MAX_N:
        raise ValueError(
            f"labeled enumeration capped at n={ENUMERATION_MAX_N} "
            f"(2^{n * (n - 1) // 2} graphs); supply a graph6 census file instead"
        )
    for code in range(1 << n * (n - 1) // 2):
        yield Graph(n, rows_of_code(n, code))


def reference_dedup(graphs: list[Graph], orbit_cap: int):
    """LC dedup one record at a time: one reference orbit per record of an unseen class.

    Returns the representatives' codes in order, the seen codes and the
    orbit-cap fallbacks. A record's representative is its orbit's least
    code; past orbit_cap classes it is its own code, and only that code is
    seen.
    """
    seen: set[int] = set()
    reps, fallbacks = [], 0
    for g in graphs:
        code = reference_canonical_code(g)
        if code in seen:
            continue
        orbit = reference_lc_orbit(g)
        if len(orbit) > orbit_cap:
            fallbacks += 1
            orbit = {code}
        seen |= orbit
        reps.append(min(orbit))
    return reps, seen, fallbacks


def brute_max_code(g: Graph) -> int:
    """Greatest graph6-order edge code over all n! relabelings."""
    n = g.n
    bits = np.array([[g.adj[v] >> w & 1 for w in range(n)] for v in range(n)], dtype=np.int64)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64).reshape(-1, n)
    codes = np.zeros(len(perms), dtype=np.int64)
    for j in range(1, n):
        for i in range(j):
            codes = codes << 1 | bits[perms[:, i], perms[:, j]]
    return int(codes.max())


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
