import ast
import importlib.util
import inspect

import numpy as np
import pytest

import bellgraph
from bellgraph import quantum
from bellgraph.bell import lhv_bound
from bellgraph.coverable import coverable_set
from bellgraph.families import complete, ring, star, star_copies
from bellgraph.graphs import Graph
from bellgraph.quantum import (
    KrausChannel,
    amplitude_damping_channel,
    apply_channel,
    bell_expectation,
    bell_operator_matrix,
    build_graph_state,
    density_matrix,
    depolarizing_channel,
    phase_flip,
    random_weight_t_channel,
)
from oracles import (
    PauliString,
    apply_pauli,
    coefficient_operator_matrix,
    embed_operator,
    letters_matrix,
    multiply,
    pauli_matrix,
    random_graph,
    stabilizer_element,
)

STATE_TOL = 1e-12
EXPECT_TOL = 1e-9


def test_single_vertex_state():
    vec = build_graph_state(Graph(1, (0,)))
    assert np.allclose(vec, [2**-0.5, 2**-0.5], atol=STATE_TOL)


def test_stabilizers_fix_graph_states():
    rng = np.random.default_rng(1)
    for _ in range(15):
        g = random_graph(rng, int(rng.integers(1, 8)))
        vec = build_graph_state(g)
        assert abs(np.linalg.norm(vec) - 1.0) < STATE_TOL
        for s in range(1 << g.n):
            if int(rng.integers(4)) == 0:
                fixed = apply_pauli(stabilizer_element(g, s), vec)
                assert np.abs(fixed - vec).max() < 1e-10


def test_star_state_has_ghz_entanglement_spectrum():
    vec = build_graph_state(star(3)).reshape(2, 2, 2)
    # every single-qubit cut of the GHZ state has Schmidt values (1/sqrt2, 1/sqrt2)
    for axis in range(3):
        mat = np.moveaxis(vec, axis, 0).reshape(2, 4)
        sv = np.linalg.svd(mat, compute_uv=False)
        assert np.allclose(sv, [2**-0.5, 2**-0.5], atol=1e-12)


def test_pauli_matrix_letters():
    p = PauliString(2, 0b01, 0b11, 1)  # i * (X1 Z1) (x) Z2 = Y1 Z2
    expected = letters_matrix("YZ")
    assert np.allclose(pauli_matrix(p), expected)


def test_multiply_against_dense_products():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        p = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)),
                        int(rng.integers(4)))
        q = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)),
                        int(rng.integers(4)))
        lhs = pauli_matrix(multiply(p, q))
        rhs = pauli_matrix(p) @ pauli_matrix(q)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_golden_star_expansion_as_matrices():
    # 8*B_0 of the 3-star against hand-written letter strings
    terms = [
        (+1, "III"), (+1, "XZZ"), (+1, "ZXI"), (+1, "ZIX"),
        (+1, "YYZ"), (+1, "YZY"), (+1, "IXX"), (-1, "XYY"),
    ]
    summed = sum(sign * letters_matrix(s) for sign, s in terms)
    assert np.abs(8 * bell_operator_matrix(star(3), 0) - summed).max() < 1e-12


def test_operator_assembly_equivalence():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = random_graph(rng, n)
        t = int(rng.integers(0, 3))
        a = bell_operator_matrix(g, t)
        b = coefficient_operator_matrix(g, t)
        assert np.linalg.norm(a - b) < 1e-10


def test_expectation_on_graph_state_is_one():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(1, 7)))
        t = int(rng.integers(0, min(3, g.n) + 1))
        rho = density_matrix(build_graph_state(g))
        assert abs(bell_expectation(g, t, rho) - 1.0) < EXPECT_TOL


def test_prop1_on_two_stars():
    g = star_copies(2)
    rho = density_matrix(build_graph_state(g))
    for seed in range(20):
        channel = random_weight_t_channel(6, 1, seed)
        noisy = apply_channel(rho, channel)
        assert abs(np.trace(noisy).real - 1.0) < 1e-10
        assert abs(bell_expectation(g, 1, noisy) - 1.0) < EXPECT_TOL


def test_straddling_weight2_error_escapes():
    g = star_copies(2)
    vec = build_graph_state(g)
    hit = phase_flip(0b001001, vec)  # Z on one vertex of each copy
    assert abs(bell_expectation(g, 1, density_matrix(hit))) < EXPECT_TOL
    assert 0b001001 not in coverable_set(g, 1).members


def test_amplitude_damping_tolerated():
    g = star_copies(2)
    rho = density_matrix(build_graph_state(g))
    channel = amplitude_damping_channel(6, 4, 0.35)
    assert abs(bell_expectation(g, 1, apply_channel(rho, channel)) - 1.0) < EXPECT_TOL


def test_depolarizing_tolerated():
    g = star_copies(2)
    rho = density_matrix(build_graph_state(g))
    channel = depolarizing_channel(6, 1, 0.5)
    assert abs(bell_expectation(g, 1, apply_channel(rho, channel)) - 1.0) < EXPECT_TOL


def test_weight0_channel_is_global_phase():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 4)
    rho = density_matrix(build_graph_state(g))
    channel = random_weight_t_channel(4, 0, seed=7)
    assert channel.weight == 0
    assert np.abs(apply_channel(rho, channel) - rho).max() < 1e-12


def test_channel_determinism_per_seed():
    a = random_weight_t_channel(5, 2, seed=42)
    b = random_weight_t_channel(5, 2, seed=42)
    assert a.support == b.support
    assert all(np.array_equal(x, y) for x, y in zip(a.ops, b.ops))
    c = random_weight_t_channel(5, 2, seed=43)
    assert (a.support != c.support) or not all(
        np.array_equal(x, y) for x, y in zip(a.ops, c.ops)
    )


def test_channel_trace_preservation_residuals():
    for seed in range(30):
        channel = random_weight_t_channel(6, 2, seed)
        d = 1 << channel.weight
        acc = sum(e.conj().T @ e for e in channel.ops)
        assert np.abs(acc - np.eye(d)).max() < 1e-10


def test_non_trace_preserving_rejected():
    bad = (np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex),)
    with pytest.raises(ValueError):
        KrausChannel(3, (1,), bad)


@pytest.mark.parametrize("support", [(1, 1), (5,), (-1,), (0, 3)])
def test_support_must_be_distinct_qubits(support):
    d = 1 << len(support)
    ops = (np.eye(d, dtype=complex),)
    with pytest.raises(ValueError, match="not distinct qubits in 0..2"):
        KrausChannel(3, support, ops)


def test_density_matrix_shape_is_checked():
    # a 4-qubit rho under a 3-qubit channel would otherwise come back partly unset
    with pytest.raises(ValueError, match="density matrix shape"):
        apply_channel(np.eye(16) / 16, depolarizing_channel(3, 0, 0.1))


def test_embed_operator_positions():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    assert np.allclose(
        embed_operator(x, 2, (0,)), pauli_matrix(PauliString(2, 0b01, 0, 0))
    )
    assert np.allclose(
        embed_operator(x, 2, (1,)), pauli_matrix(PauliString(2, 0b10, 0, 0))
    )
    # two-qubit operator on a split support of a 3-qubit register
    xz = np.kron(z, x)  # qubit order (low, high) = (0, 2)
    assert np.allclose(
        embed_operator(xz, 3, (0, 2)), pauli_matrix(PauliString(3, 0b001, 0b100, 0))
    )


def test_apply_channel_matches_dense_oracle():
    # support-local application against sum_E E_full rho E_full^dagger, with
    # the operators embedded as full matrices by the oracle
    rng = np.random.default_rng(6)
    channels = [random_weight_t_channel(int(n), min(int(n), 3), seed)
                for seed, n in enumerate(rng.integers(1, 7, size=190))]
    for seed, support in enumerate(((0, 2), (2, 0), (1, 3), (4, 0, 2), (5, 1))):
        k = len(support)
        local = next(c for c in (random_weight_t_channel(k, k, 100 * seed + i)
                                 for i in range(100)) if c.weight == k)
        channels.append(KrausChannel(6, support, local.ops))
    for n in range(1, 6):
        channels.append(depolarizing_channel(n, n - 1, 0.3))
    assert sum(len(c.support) == 2 and c.support[1] - c.support[0] > 1 for c in channels) > 10
    for channel in channels:
        n = channel.n
        a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        dense = sum(e @ rho @ e.conj().T
                    for e in (embed_operator(op, n, channel.support) for op in channel.ops))
        assert np.abs(apply_channel(rho, channel) - dense).max() < 1e-12, channel.support


def test_dense_cap():
    # one cap, DENSE_MAX_N = 10: the paper's 9- and 10-qubit constructions fit
    for g in (ring(9), ring(10)):
        rho = density_matrix(build_graph_state(g))
        assert abs(bell_expectation(g, 0, rho) - 1.0) < EXPECT_TOL
        assert bell_operator_matrix(g, 0).shape == rho.shape
    g = complete(11)
    with pytest.raises(ValueError, match="capped at n=10"):
        build_graph_state(g)
    with pytest.raises(ValueError, match="capped at n=10"):
        bell_expectation(g, 0, np.zeros((1 << 11, 1 << 11)))
    with pytest.raises(ValueError, match="capped at n=10"):
        bell_operator_matrix(g, 0)


def test_quantum_value_exceeds_lhv_bound():
    # the violation the construction is for: quantum 1 vs classical 15/16
    g = star_copies(2)
    rho = density_matrix(build_graph_state(g))
    assert bell_expectation(g, 1, rho) > float(lhv_bound(g, 1).bound)


def test_one_stabilizer_model():
    # the per-element Pauli algebra lives in the test oracles; the simulator
    # builds B_t from the coverable sets alone, never from the engine's tables
    assert importlib.util.find_spec("bellgraph.pauli") is None
    for name in ("PauliString", "multiply", "stabilizer_element", "vertex_stabilizer",
                 "pauli_matrix", "apply_pauli", "embed_operator"):
        assert not hasattr(bellgraph, name), name
        assert not hasattr(quantum, name), name
    # channels act on their support; no full 2^n x 2^n form is built
    assert not hasattr(KrausChannel, "full_ops")
    tree = ast.parse(inspect.getsource(quantum))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # names too, for `from . import bell`
            modules = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        for module in modules:
            assert module.split(".")[-1] not in ("bell", "pauli"), f"quantum imports {module}"
    assert list(inspect.signature(bell_operator_matrix).parameters) == ["g", "t"]
