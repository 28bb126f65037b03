"""Dense statevector oracle: graph states, noise channels, Bell expectations.

Basis convention: computational basis index b has qubit v in state (b >> v) & 1,
i.e. qubit 0 is the least significant bit. Everything here is plain complex128
linear algebra at n <= 10. It shares one input with the combinatorial
machinery it validates, the coverable sets that define B_t, and nothing of
the stabilizer tables or the LHV engine.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverable import coverable_set
from .graphs import Graph

STATE_TOL = 1e-12
CHANNEL_TOL = 1e-10
EXPECTATION_TOL = 1e-9

DENSE_MAX_N = 10


def phase_flip(c: int, vec: np.ndarray) -> np.ndarray:
    """Apply Z on every vertex of the set c."""
    b = np.arange(vec.shape[0])
    return np.where(np.bitwise_count(b & c) & 1, -vec, vec)


def build_graph_state(g: Graph) -> np.ndarray:
    """The unique joint +1 eigenvector of all vertex stabilizers.

    Built by entangling the uniform superposition with a controlled phase
    per edge, then checked against every stabilizer to STATE_TOL.
    """
    if g.n > DENSE_MAX_N:
        raise ValueError(f"dense statevector capped at n={DENSE_MAX_N}")
    size = 1 << g.n
    vec = np.full(size, 1.0 / np.sqrt(size), dtype=complex)
    b = np.arange(size)
    for a, bb in g.edges():
        both = (b >> a & 1) & (b >> bb & 1)
        vec = np.where(both, -vec, vec)
    for a in range(g.n):
        fixed = np.empty_like(vec)
        fixed[b ^ 1 << a] = phase_flip(g.adj[a], vec)  # X_a Z_N(a)
        err = np.abs(fixed - vec).max()
        if err > STATE_TOL:
            raise AssertionError(f"stabilizer {a} not fixed: residual {err:.3e}")
    return vec


def density_matrix(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


@dataclass(frozen=True)
class KrausChannel:
    """Trace-preserving map given by Kraus operators on a small support.

    Operators are stored on the support qubits only (d x d with d = 2^|support|)
    to keep n=10 channels cheap; `full_ops` materializes the 2^n x 2^n forms.
    """

    n: int
    support: tuple[int, ...]
    ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        d = 1 << len(self.support)
        acc = np.zeros((d, d), dtype=complex)
        for e in self.ops:
            if e.shape != (d, d):
                raise ValueError(f"Kraus operator shape {e.shape}, expected {(d, d)}")
            acc += e.conj().T @ e
        err = np.abs(acc - np.eye(d)).max()
        if err > CHANNEL_TOL:
            raise ValueError(f"channel is not trace preserving: residual {err:.3e}")

    @property
    def weight(self) -> int:
        return len(self.support)

    def full_ops(self) -> list[np.ndarray]:
        return [embed_operator(e, self.n, self.support) for e in self.ops]


def embed_operator(small: np.ndarray, n: int, support: tuple[int, ...]) -> np.ndarray:
    """Extend an operator on `support` by identity on the other qubits."""
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


def apply_channel(rho: np.ndarray, channel: KrausChannel) -> np.ndarray:
    out = np.zeros_like(rho)
    for e in channel.full_ops():
        out += e @ rho @ e.conj().T
    return out


def random_weight_t_channel(n: int, t: int, seed: int) -> KrausChannel:
    """Seeded random channel supported on at most t qubits.

    Draws Gaussian Kraus operators on a random support and renormalizes them
    through the inverse square root of their completeness sum, which enforces
    trace preservation exactly (up to rounding).
    """
    if not 0 <= t <= n:
        raise ValueError(f"t={t} outside 0..{n}")
    rng = np.random.default_rng(seed)
    s = int(rng.integers(0, t + 1))
    support = tuple(sorted(int(q) for q in rng.choice(n, size=s, replace=False)))
    d = 1 << s
    count = int(rng.integers(1, d * d + 1))
    raw = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    acc = np.zeros((d, d), dtype=complex)
    for e in raw:
        acc += e.conj().T @ e
    w, v = np.linalg.eigh(acc)
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    ops = tuple(e @ inv_sqrt for e in raw)
    return KrausChannel(n, support, ops)


def amplitude_damping_channel(n: int, qubit: int, gamma: float) -> KrausChannel:
    """Single-qubit energy relaxation; a non-Pauli-diagonal Kraus pair."""
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel(n, (qubit,), (k0, k1))


def depolarizing_channel(n: int, qubit: int, p: float) -> KrausChannel:
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    ops = (
        np.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=complex),
        np.sqrt(p / 4) * x,
        np.sqrt(p / 4) * y,
        np.sqrt(p / 4) * z,
    )
    return KrausChannel(n, (qubit,), ops)


def bell_expectation(g: Graph, t: int, rho: np.ndarray) -> float:
    """Tr(B_t rho) through the phase-flipped-projector form of the operator."""
    if g.n > 8:
        raise ValueError("operator assembly capped at n=8")
    size = 1 << g.n
    if rho.shape != (size, size):
        raise ValueError(f"density matrix shape {rho.shape}, expected {(size, size)}")
    vec = build_graph_state(g)
    total = 0.0
    for c in coverable_set(g, t).members:
        flipped = phase_flip(c, vec)
        total += float((flipped.conj() @ rho @ flipped).real)
    return total


def bell_operator_matrix(g: Graph, t: int) -> np.ndarray:
    """Dense B_t: the sum of the graph-state projectors phase-flipped by
    every coverable set."""
    size = 1 << g.n
    vec = build_graph_state(g)
    out = np.zeros((size, size), dtype=complex)
    for c in coverable_set(g, t).members:
        out += density_matrix(phase_flip(c, vec))
    return out
