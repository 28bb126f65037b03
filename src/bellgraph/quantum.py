"""Statevector oracle: graph states, noise channels, Bell expectations.

Basis convention: computational basis index b has qubit v in state (b >> v) & 1,
i.e. qubit 0 is the least significant bit. A mixed state is a stack of branch
vectors psi_i, standing for rho = sum_i psi_i psi_i^dagger, so memory grows as
2^n per branch and the only size cap is the graph's own, n <= MAX_VERTICES.
A channel maps the stack to every E psi_i, each Kraus operator E acting on its
support qubits only. B_t has one definition, the sum of the graph-state
projectors phase-flipped by the coverable sets: <B_t> sums |<G|Z_C|psi_i>|^2
over coverable C, every C at once from one Walsh-Hadamard transform of
conj(G) psi_i. Those coverable sets are all the module shares with the
machinery it validates: nothing of the stabilizer tables or the LHV engine.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverable import CoverableSet
from .graphs import Graph

STATE_TOL = 1e-12
CHANNEL_TOL = 1e-10
EXPECTATION_TOL = 1e-9

# A weight-s draw holds up to 4^s Gaussian d x d operators, 16^s entries: 4.3 GB
# at s = 7. Every paper construction on <= 16 qubits has t <= 4, where the draw
# is <= 1 MB and the branch stack <= 256 * 2^16 entries (268 MB) at n = 16.
CHANNEL_MAX_T = 4


def phase_flip(c: int, vec: np.ndarray) -> np.ndarray:
    """Apply Z on every vertex of the set c."""
    b = np.arange(vec.shape[0])
    return np.where(np.bitwise_count(b & c) & 1, -vec, vec)


def build_graph_state(g: Graph) -> np.ndarray:
    """The unique joint +1 eigenvector of all vertex stabilizers.

    Built by entangling the uniform superposition with a controlled phase
    per edge, then checked against every stabilizer to STATE_TOL.
    """
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


def _completeness(ops: np.ndarray) -> np.ndarray:
    """sum_E E^dagger E over a (m, d, d) stack of Kraus operators, in one einsum."""
    return np.einsum("mki,mkj->ij", ops.conj(), ops)


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
        err = np.abs(_completeness(np.reshape(self.ops, (-1, d, d))) - np.eye(d)).max()
        if err > CHANNEL_TOL:
            raise ValueError(f"channel is not trace preserving: residual {err:.3e}")

    @property
    def weight(self) -> int:
        return len(self.support)


def _branches(n: int, states: np.ndarray) -> np.ndarray:
    """One state (2^n,) or a stack (k, 2^n), as a (k, 2^n) stack."""
    states = np.asarray(states)
    if states.ndim not in (1, 2) or states.shape[-1] != 1 << n:
        raise ValueError(f"state shape {states.shape}, expected (2^{n},) or (k, 2^{n})")
    return states.reshape(-1, 1 << n)


def apply_channel(states: np.ndarray, channel: KrausChannel) -> np.ndarray:
    """The stack of every branch E psi_i, each E applied on its support.

    In the (k, 2, ..., 2) view qubit q is axis n - q. The support axes move
    last, highest qubit first, so their flat index is that of E's rows.
    """
    n, s = channel.n, channel.weight
    axes, last = [n - q for q in reversed(channel.support)], list(range(-s, 0))
    moved = np.moveaxis(_branches(n, states).reshape((-1,) + (2,) * n), axes, last)
    ops_t = np.swapaxes(np.stack(channel.ops), 1, 2)[:, None]  # (m, 1, d, d)
    out = moved.reshape(moved.shape[0], -1, 1 << s) @ ops_t    # (m, k, rest, d)
    return np.moveaxis(out.reshape((-1,) + moved.shape[1:]), last, axes).reshape(-1, 1 << n)


def random_weight_t_channel(n: int, t: int, seed: int) -> KrausChannel:
    """Seeded random channel supported on at most t qubits.

    Draws Gaussian Kraus operators on a random support and renormalizes them
    through the inverse square root of their completeness sum, which enforces
    trace preservation exactly (up to rounding).
    """
    if t > CHANNEL_MAX_T:
        raise ValueError(f"t={t} above {CHANNEL_MAX_T}: the draw would hold up to 16^{t} entries")
    if not 0 <= t <= n:
        raise ValueError(f"t={t} outside 0..{n}")
    rng = np.random.default_rng(seed)
    s = int(rng.integers(0, t + 1))
    support = tuple(sorted(int(q) for q in rng.choice(n, size=s, replace=False)))
    d = 1 << s
    count = int(rng.integers(1, d * d + 1))
    raw = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    w, v = np.linalg.eigh(_completeness(raw))
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return KrausChannel(n, support, tuple(raw @ inv_sqrt))


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


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """In place along the last axis: a[..., c] becomes sum_b (-1)^|b & c| a[..., b]."""
    h = 1
    while h < a.shape[-1]:
        pairs = a.reshape(a.shape[:-1] + (-1, 2, h))
        lo, hi = pairs[..., 0, :], pairs[..., 1, :]
        lo += hi           # a0 + a1
        hi *= -2
        hi += lo           # a0 - a1
        h *= 2
    return a


def bell_expectation(graph_state: np.ndarray, coverable: CoverableSet, states: np.ndarray) -> float:
    """<B_t> on rho = sum_i psi_i psi_i^dagger, for the graph state |G> and
    G's coverable sets C: the sum over branches i and C of |<G|Z_C|psi_i>|^2."""
    n = coverable.n
    if np.shape(graph_state) != (1 << n,):
        raise ValueError(f"graph state shape {np.shape(graph_state)}, expected (2^{n},)")
    overlaps = _walsh_hadamard(_branches(n, states) * graph_state.conj())
    return float(np.sum(np.abs(overlaps[:, coverable.indicator != 0]) ** 2))
