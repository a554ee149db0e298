"""Exact arithmetic over the rationals: polynomials, points of the line, jets.

All values are built on `fractions.Fraction`, so every operation is exact and
arbitrary precision; no float enters a computed value anywhere in the package
(the seeded generators compare `rng.random()` with a probability, and a float
argument is converted exactly).
Products of polynomials and of jets share one convolution kernel: it scales
each operand to integer numerators over the least common multiple of its
denominators, sums the products as Python ints, and divides each output
coefficient once by the product of the two denominators. Every coefficient
stored or returned is a canonical `Fraction`.

A polynomial is a tuple of coefficients indexed by degree with a nonzero
leading coefficient (the zero polynomial is the empty tuple). A jet of order
n is the class of a function in a local ring modulo the n-th power of the
maximal ideal, stored as its n coefficients in the canonical local
coordinate: t - a at a finite point a, and 1/t at the point at infinity.
A jet is a unit exactly when its constant term is nonzero; multiplication
truncates at the common order, and mixing orders is an error rather than an
implicit truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from numbers import Number
from typing import Iterable, Union

from .errors import NonUnit, OrderMismatch, OrderNonpositive

RatLike = Union[int, Fraction]


def rational_str(value: Fraction) -> str:
    """Render a rational as 'p' or 'p/q' (q > 1 only)."""
    value = as_number(value, "a rational")
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def as_number(value, what: str) -> Fraction:
    """The exact rational a number stands for; TypeError for anything else, strings included."""
    if type(value) is Fraction:
        return value
    if not isinstance(value, Number):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return Fraction(value)


def _coefficients(coeffs: Iterable[RatLike]) -> list[Fraction]:
    return [c if type(c) is Fraction else as_number(c, "a coefficient") for c in coeffs]


def as_integer(value, what: str) -> int:
    """The integer a value stands for; ValueError rather than truncating 5/2 or 1.9."""
    if type(value) is int:
        return value
    exact = as_number(value, what)
    if exact.denominator != 1:
        raise ValueError(f"{what} must be an integer, got {value}")
    return exact.numerator


# --------------------------------------------------------------------------
# Points of the projective line
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class P1Point:
    """A rational point of the projective line; ``value`` is None at infinity."""

    value: Fraction | None = None

    def __post_init__(self):
        if self.value is not None and type(self.value) is not Fraction:
            object.__setattr__(self, "value", as_number(self.value, "a point"))

    @classmethod
    def finite(cls, value: RatLike) -> "P1Point":
        return cls(as_number(value, "a point"))

    @classmethod
    def infinity(cls) -> "P1Point":
        return cls(None)

    @classmethod
    def of(cls, point: "P1Point | RatLike") -> "P1Point":
        """The point itself, or the finite point with that value."""
        return point if isinstance(point, P1Point) else cls.finite(point)

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        if self.value is None:
            return "inf"
        return rational_str(self.value)


INFINITY = P1Point.infinity()


# --------------------------------------------------------------------------
# Polynomials
# --------------------------------------------------------------------------

def _strip(coeffs: Iterable[RatLike]) -> tuple[Fraction, ...]:
    out = _coefficients(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _power(base, n: int):
    """``base ** n`` for n >= 1, squaring down the bits of n from the top.

    No product with one and no squaring past the last bit: ``base ** 1``
    costs no multiplication and ``base ** 2`` one.
    """
    result = base
    for bit in bin(n)[3:]:  # the bits below the leading one
        result = result * result
        if bit == "1":
            result = result * base
    return result


def _convolve(a: tuple[Fraction, ...], b: tuple[Fraction, ...], size: int) -> tuple[Fraction, ...]:
    """The first ``size`` coefficients of the product of the series a and b,
    summed on integer numerators over each operand's common denominator."""
    da = lcm(*(c.denominator for c in a))
    db = lcm(*(c.denominator for c in b))
    na = [c.numerator * (da // c.denominator) for c in a]
    nb = [c.numerator * (db // c.denominator) for c in b]
    out = [0] * size
    for i, x in enumerate(na):
        if x == 0:
            continue
        for k, y in enumerate(nb[: size - i], i):
            out[k] += x * y
    d = da * db
    return tuple(Fraction(n, d) for n in out)


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial over the rationals, coefficients by degree."""

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _strip(self.coeffs))

    # -- constructors

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def constant(cls, c: RatLike) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, degree: int) -> "Poly":
        return cls((0,) * degree + (1,))

    # -- structure

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == 1

    def coefficient(self, degree: int) -> Fraction:
        if 0 <= degree < len(self.coeffs):
            return self.coeffs[degree]
        return Fraction(0)

    # -- ring operations

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: Union["Poly", RatLike]) -> "Poly":
        if isinstance(other, Poly):
            a, b = self.coeffs, other.coeffs
            return Poly(_convolve(a, b, len(a) + len(b)))
        if not isinstance(other, Number):
            return NotImplemented
        factor = as_number(other, "a factor")
        return Poly(tuple(c * factor for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return _power(self, n) if n else Poly.one()

    def __divmod__(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        d = divisor.degree
        lead = divisor.leading
        rem = list(self.coeffs)
        quotient = [Fraction(0)] * max(len(rem) - d, 0)
        for k in range(len(rem) - d - 1, -1, -1):
            factor = quotient[k] = rem[k + d] / lead
            for i, c in enumerate(divisor.coeffs):
                rem[k + i] -= factor * c
        return Poly(quotient), Poly(rem[:d])

    def __mod__(self, divisor: "Poly") -> "Poly":
        return divmod(self, divisor)[1]

    def __call__(self, point: RatLike) -> Fraction:
        point = as_number(point, "a point")
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for deg in range(self.degree, -1, -1):
            c = self.coeffs[deg]
            if c == 0:
                continue
            if deg == 0:
                body = rational_str(abs(c))
            elif deg == 1:
                body = "t" if abs(c) == 1 else f"{rational_str(abs(c))}*t"
            else:
                body = f"t^{deg}" if abs(c) == 1 else f"{rational_str(abs(c))}*t^{deg}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


# --------------------------------------------------------------------------
# Jets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Jet:
    """Truncated function germ: ``coeffs[k]`` is the coefficient of s^k, k < order."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if type(self.order) is not int:  # every product builds a jet; ints skip the call
            object.__setattr__(self, "order", as_integer(self.order, "jet order"))
        if self.order < 1:
            raise OrderNonpositive(f"jet order must be >= 1, got {self.order}")
        coeffs = tuple(_coefficients(self.coeffs))
        if len(coeffs) != self.order:
            raise ValueError(f"expected {self.order} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def make(cls, order: int, coeffs: Iterable[RatLike] = ()) -> "Jet":
        out = _coefficients(coeffs)
        order = as_integer(order, "jet order")
        if order < 1:
            raise OrderNonpositive(f"jet order must be >= 1, got {order}")
        if len(out) > order:
            raise ValueError("more coefficients than the jet order allows")
        out += [Fraction(0)] * (order - len(out))
        return cls(order, tuple(out))

    @classmethod
    def constant(cls, value: RatLike, order: int) -> "Jet":
        return cls.make(order, (value,))

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0]

    @property
    def is_unit(self) -> bool:
        return self.coeffs[0] != 0

    @property
    def is_constant(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def _check_order(self, other: "Jet") -> None:
        if self.order != other.order:
            raise OrderMismatch(f"jet orders differ: {self.order} vs {other.order}")

    def __add__(self, other: "Jet") -> "Jet":
        self._check_order(other)
        return Jet(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Jet":
        return Jet(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Jet") -> "Jet":
        return self + (-other)

    def __mul__(self, other: Union["Jet", RatLike]) -> "Jet":
        if isinstance(other, Jet):
            self._check_order(other)
            return Jet(self.order, _convolve(self.coeffs, other.coeffs, self.order))
        if not isinstance(other, Number):
            return NotImplemented
        factor = as_number(other, "a factor")
        return Jet(self.order, tuple(c * factor for c in self.coeffs))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return "(" + ", ".join(rational_str(c) for c in self.coeffs) + f") order {self.order}"


def unit_log(u: Jet) -> Jet:
    """Truncated logarithm of u / u(0); a jet with zero constant term.

    Exact in characteristic zero: unit_log(a * b) == unit_log(a) + unit_log(b)
    at the common truncation order.
    """
    if not u.is_unit:
        raise NonUnit("unit_log requires a unit jet")
    w = (u * (1 / u.constant_term)) - Jet.constant(1, u.order)
    result = Jet.constant(0, u.order)
    power = Jet.constant(1, u.order)
    sign = 1
    for k in range(1, u.order):
        power = power * w
        result = result + power * Fraction(sign, k)
        sign = -sign
    return result
