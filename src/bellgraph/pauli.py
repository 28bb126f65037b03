"""Phase-tracked n-qubit Pauli strings and graph-state stabilizer elements.

A PauliString (x, z, phase) denotes the operator

    i^phase * prod_v  X_v^{x_v} Z_v^{z_v}

with X written before Z on every qubit. x and z are vertex-set words as in
`graphs`. The single-qubit letter at v is Y when v is in both supports, X or
Z when in exactly one, identity otherwise. Products follow from moving every
Z of the left factor past every X of the right factor (each such qubit flips
the sign), which fixes the convention Z*X = i*Y.

A string with an even number of Y letters and phase 0 or 2 is a Hermitian
sign times its letter string; all graph-state stabilizer elements are of
this shape (the Y letters sit on the odd-degree vertices of an induced
subgraph, an even count by the handshake argument).
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, iter_bits

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
