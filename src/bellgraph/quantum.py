"""Dense statevector oracle: graph states, noise channels, Bell expectations.

Basis convention: computational basis index b has qubit v in state (b >> v) & 1,
i.e. qubit 0 is the least significant bit. Everything here is plain complex128
linear algebra under one size cap, n <= DENSE_MAX_N, enforced by
`build_graph_state`. Channels act on their support qubits only. B_t has one
definition, the sum of the graph-state projectors phase-flipped by the
coverable sets, which both its expectation and its dense matrix read off.
Those coverable sets are all the module shares with the machinery it
validates: nothing of the stabilizer tables or the LHV engine.
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

    Operators are stored and applied on the support qubits only (d x d with
    d = 2^|support|), the support being distinct qubits of 0..n-1.
    """

    n: int
    support: tuple[int, ...]
    ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(set(self.support) & set(range(self.n))) != len(self.support):
            raise ValueError(f"support {self.support} is not distinct qubits in 0..{self.n - 1}")
        d = 1 << len(self.support)
        for e in self.ops:
            if e.shape != (d, d):
                raise ValueError(f"Kraus operator shape {e.shape}, expected {(d, d)}")
        err = np.abs(sum(e.conj().T @ e for e in self.ops) - np.eye(d)).max()
        if err > CHANNEL_TOL:
            raise ValueError(f"channel is not trace preserving: residual {err:.3e}")

    @property
    def weight(self) -> int:
        return len(self.support)


def _check_rho(n: int, rho: np.ndarray) -> None:
    if rho.shape != (1 << n, 1 << n):
        raise ValueError(f"density matrix shape {rho.shape}, expected {(1 << n, 1 << n)}")


def _scatter(qubits) -> np.ndarray:
    """Basis index of each assignment a to `qubits` (bit i of a on qubits[i]), others 0."""
    a = np.arange(1 << len(qubits))
    return sum(((a >> i & 1) << q for i, q in enumerate(qubits)), np.zeros_like(a))


def apply_channel(rho: np.ndarray, channel: KrausChannel) -> np.ndarray:
    """Sum of E rho E^dagger over the Kraus operators, each applied on its support.

    Basis index (a, b) lists the support bits a, then the other qubits' bits
    b. rho is gathered into [support, rest, support, rest] blocks in that
    order, E acts on the first axis and E* on the third, and the sum is
    scattered back.
    """
    n, support = channel.n, channel.support
    _check_rho(n, rho)
    rest = [q for q in range(n) if q not in support]
    d, r = 1 << len(support), 1 << len(rest)
    perm = (_scatter(support)[:, None] + _scatter(rest)[None, :]).ravel()
    blocks = rho[np.ix_(perm, perm)].reshape(d, r * d * r)
    acc = sum(e.conj() @ (e @ blocks).reshape(d * r, d, r) for e in channel.ops)
    out = np.empty(rho.shape, dtype=complex)
    out[np.ix_(perm, perm)] = acc.reshape(d * r, d * r)
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
    acc = sum(e.conj().T @ e for e in raw)
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
    """Single-qubit depolarizing: I with weight 1 - 3p/4, and X, Y, Z with p/4 each."""
    paulis = ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
    weights = (1 - 3 * p / 4, p / 4, p / 4, p / 4)
    ops = tuple(np.sqrt(w) * np.array(e, dtype=complex) for w, e in zip(weights, paulis))
    return KrausChannel(n, (qubit,), ops)


def _flipped_states(g: Graph, t: int) -> np.ndarray:
    """One row per coverable set c: psi_c, the graph state with Z on every vertex of c."""
    members = np.flatnonzero(coverable_set(g, t).indicator)
    return phase_flip(members[:, None], build_graph_state(g))


def bell_expectation(g: Graph, t: int, rho: np.ndarray) -> float:
    """Tr(B_t rho): the sum over coverable sets c of <psi_c| rho |psi_c>."""
    flipped = _flipped_states(g, t)
    _check_rho(g.n, rho)
    return float(np.sum((flipped.conj() @ rho) * flipped).real)


def bell_operator_matrix(g: Graph, t: int) -> np.ndarray:
    """Dense B_t: the sum over coverable sets c of |psi_c><psi_c|."""
    flipped = _flipped_states(g, t)
    return flipped.T @ flipped.conj()
