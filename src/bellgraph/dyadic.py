"""Exact dyadic rationals: integers divided by a power of two.

Every Bell value and LHV bound in this package is an integer over 2^n, so
dyadics close under the arithmetic we need and all golden-value tests are
exact equality tests. No floats anywhere.

`Dyadic` is a `Fraction`, so equality, ordering and hashing agree with int
and Fraction (`{Dyadic(1), 1}` has one element); only the constructor and
the serialized form speak in (num, log2_den).
"""
from __future__ import annotations

from fractions import Fraction


def _closed(op):
    """Fraction's operator, returning a Dyadic when the other operand is an
    int or a Dyadic (sums, differences and products of dyadics are dyadic)."""

    def method(a, b):
        out = op(a, b)
        if isinstance(b, (int, Dyadic)):
            return Fraction.__new__(Dyadic, out.numerator, out.denominator)
        return out

    return method


class Dyadic(Fraction):
    __slots__ = ()

    def __new__(cls, num: int = 0, log2_den: int = 0):
        if log2_den < 0:
            raise ValueError("negative denominator exponent")
        return super().__new__(cls, num, 1 << log2_den)

    @property
    def num(self) -> int:
        return self.numerator

    @property
    def den(self) -> int:
        return self.denominator

    @property
    def log2_den(self) -> int:
        return self.denominator.bit_length() - 1

    __add__ = _closed(Fraction.__add__)
    __radd__ = _closed(Fraction.__radd__)
    __sub__ = _closed(Fraction.__sub__)
    __rsub__ = _closed(Fraction.__rsub__)
    __mul__ = _closed(Fraction.__mul__)
    __rmul__ = _closed(Fraction.__rmul__)

    def __neg__(self) -> "Dyadic":
        return Fraction.__new__(Dyadic, -self.numerator, self.denominator)

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.log2_den})"

    # Fraction rebuilds copies and pickles as cls(numerator, denominator),
    # which would read the denominator as an exponent
    def __reduce__(self):
        return (Dyadic, (self.num, self.log2_den))

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def to_json(self) -> dict:
        return {"num": self.num, "log2_den": self.log2_den}

    @classmethod
    def from_json(cls, obj: dict) -> "Dyadic":
        return cls(int(obj["num"]), int(obj["log2_den"]))
