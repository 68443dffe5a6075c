"""Exact arithmetic in the ring of integers of Q(sqrt(-D)).

For squarefree D >= 1 the ring is Z[omega] with omega = sqrt(-D) when
-D = 2, 3 (mod 4) and omega = (1 + sqrt(-D))/2 when -D = 1 (mod 4).
Elements carry basis coordinates (x, y), meaning x + y*omega.  All
arithmetic runs through half-coordinates (u, v) with
alpha = (u + v*sqrt(-D))/2, which gives a single multiplication kernel
for both omega conventions and keeps every magnitude comparison on
exact integer norms (no floating point anywhere in this module).

Integrality rule (Cohen, A Course in Computational Algebraic Number Theory,
sec. 5.1): (u + v*sqrt(-D))/2 with integers u, v lies in O_K exactly when its
norm (u**2 + D*v**2)/4 is an integer.  The integer kernels use this rule alone;
the omega convention matters only for basis coordinates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from math import isqrt

__all__ = [
    "OmegaMode",
    "ParityError",
    "RingParams",
    "QuadInt",
    "make_ring",
    "is_squarefree",
    "is_perfect_square",
    "norm",
    "cmp_abs",
    "units",
    "sqrt_exact",
    "exact_div",
    "parse_elem",
    "format_elem",
    "elem_key",
    "elem_to_json",
    "elem_from_json",
    "iter_elements",
    "sorted_ball",
]


class OmegaMode(Enum):
    SQRT = "sqrt"  # omega = sqrt(-D),        -D = 2, 3 (mod 4)
    HALF = "half"  # omega = (1+sqrt(-D))/2,  -D = 1 (mod 4)


class ParityError(ValueError):
    """Half-coordinates (u, v) that do not describe an algebraic integer."""


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    for p in range(2, isqrt(n) + 1):
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
    return True


def is_perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


@dataclass(frozen=True, slots=True)
class RingParams:
    """Descriptor of O_K for K = Q(sqrt(-D)): the squarefree D and omega convention."""

    D: int
    omega_mode: OmegaMode

    def __repr__(self) -> str:
        return f"RingParams(D={self.D}, omega={self.omega_mode.value})"


def make_ring(D: int) -> RingParams:
    """Build the ring descriptor; rejects D < 1 and non-squarefree D."""
    if D < 1:
        raise ValueError(f"D must be a positive integer, got {D}")
    if not is_squarefree(D):
        raise ValueError(f"D must be squarefree, got {D}")
    mode = OmegaMode.HALF if D % 4 == 3 else OmegaMode.SQRT
    return RingParams(D, mode)


@dataclass(frozen=True, slots=True)
class QuadInt:
    """Element x + y*omega of O_K, with exact integer coordinates."""

    ring: RingParams
    x: int
    y: int

    def _coerce(self, other: "QuadInt | int") -> "QuadInt":
        if isinstance(other, int):
            return QuadInt(self.ring, other, 0)
        if not isinstance(other, QuadInt):
            return NotImplemented
        if other.ring != self.ring:
            raise ValueError(f"mixed rings: {self.ring} vs {other.ring}")
        return other

    def half_coords(self) -> tuple[int, int]:
        """(u, v) with alpha = (u + v*sqrt(-D))/2."""
        if self.ring.omega_mode is OmegaMode.SQRT:
            return 2 * self.x, 2 * self.y
        return 2 * self.x + self.y, self.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __add__(self, other: "QuadInt | int") -> "QuadInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadInt(self.ring, self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __sub__(self, other: "QuadInt | int") -> "QuadInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadInt(self.ring, self.x - other.x, self.y - other.y)

    def __rsub__(self, other: "QuadInt | int") -> "QuadInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "QuadInt":
        return QuadInt(self.ring, -self.x, -self.y)

    def __mul__(self, other: "QuadInt | int") -> "QuadInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        return _from_half_unchecked(ring, *_mul_half(ring.D, self.half_coords(), other.half_coords()))

    __rmul__ = __mul__

    def conj(self) -> "QuadInt":
        if self.ring.omega_mode is OmegaMode.SQRT:
            return QuadInt(self.ring, self.x, -self.y)
        return QuadInt(self.ring, self.x + self.y, -self.y)

    def norm(self) -> int:
        u, v = self.half_coords()
        return (u * u + self.ring.D * v * v) // 4

    def __str__(self) -> str:
        return format_elem(self)


def _mul_half(D: int, p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    """Half-coordinates of the product of two elements given by half-coordinates.

    (u1 + v1*s)(u2 + v2*s)/4 with s**2 = -D is (U + V*s)/2 for the U, V below;
    both halvings are exact for elements of O_K.
    """
    (u1, v1), (u2, v2) = p, q
    return (u1 * u2 - D * v1 * v2) // 2, (u1 * v2 + v1 * u2) // 2


def _from_half_unchecked(ring: RingParams, u: int, v: int) -> QuadInt:
    if ring.omega_mode is OmegaMode.SQRT:
        return QuadInt(ring, u // 2, v // 2)
    return QuadInt(ring, (u - v) // 2, v)


def from_half(ring: RingParams, u: int, v: int) -> QuadInt:
    """Build (u + v*sqrt(-D))/2, rejecting coordinates outside O_K."""
    if (u * u + ring.D * v * v) % 4:
        raise ParityError(f"({u}+{v}*sqrt(-{ring.D}))/2 is not in O_K (its norm is not an integer)")
    return _from_half_unchecked(ring, u, v)


def norm(a: QuadInt) -> int:
    return a.norm()


def cmp_abs(a: QuadInt, b: QuadInt) -> int:
    """Compare |a| with |b| exactly (via norms): -1, 0 or +1."""
    if a.ring != b.ring:
        raise ValueError("mixed rings in cmp_abs")
    na, nb = a.norm(), b.norm()
    return (na > nb) - (na < nb)


def elem_key(a: QuadInt) -> tuple[int, int, int]:
    """Canonical sort key (norm, x, y)."""
    return (a.norm(), a.x, a.y)


def units(ring: RingParams) -> list[QuadInt]:
    """All units of O_K: 4 for D=1, 6 for D=3, otherwise {1, -1}."""
    one = QuadInt(ring, 1, 0)
    out = [one, -one]
    if ring.D == 1:
        i = QuadInt(ring, 0, 1)
        out += [i, -i]
    elif ring.D == 3:
        w = QuadInt(ring, 0, 1)  # (1+sqrt(-3))/2
        out += [w, -w, one - w, w - one]
    return sorted(out, key=elem_key)


# _SQUARE_MOD64[r] is 1 iff r is a square modulo 64 (Cohen, Alg. 1.7.3).
_SQUARE_MOD64 = bytes(1 if any(k * k % 64 == r for k in range(32)) else 0 for r in range(64))


def _sqrt_half(D: int, U: int, V: int) -> tuple[int, int] | None:
    """Canonical square root of alpha = (U + V*sqrt(-D))/2 in O_K, on integers.

    Returns the half-coordinates (u, v) of the root beta = (u + v*sqrt(-D))/2
    with u > 0, or u = 0 and v >= 0; None if alpha is not a square.  The
    candidate is reconstructed from the norm: 4*norm(alpha) = U**2 + D*V**2
    must be a perfect square r**2 (so r = 2*norm(beta)), then u**2 = U + r and
    u*v = V.  (U, V) must be the half-coordinates of an element of O_K, so r is
    even and the candidate has u**2 + D*v**2 = 2*r = 0 (mod 4): it lies in O_K
    by the integrality rule, with no parity test.
    """
    n4 = U * U + D * V * V
    if not _SQUARE_MOD64[n4 & 63]:
        return None
    r = isqrt(n4)
    if r * r != n4:
        return None
    usq = U + r  # >= 0 since |U| <= r
    u = isqrt(usq)
    if u * u != usq:
        return None
    if u == 0:
        if V != 0 or (2 * r) % D:
            return None
        vsq = 2 * r // D
        v = isqrt(vsq)
        if v * v != vsq:
            return None
    else:
        if V % u:
            return None
        v = V // u
    # beta**2 = ((u**2 - D*v**2)/2 + u*v*sqrt(-D))/2 must be alpha
    if u * u - D * v * v != 2 * U or u * v != V:
        return None
    return u, v


def sqrt_exact(alpha: QuadInt) -> QuadInt | None:
    """Canonical square root of alpha in O_K, or None if alpha is not a square.

    Roots come in pairs {beta, -beta}; the representative with u > 0 (or
    u = 0 and v >= 0 in half-coordinates) is returned.  See _sqrt_half.
    """
    ring = alpha.ring
    root = _sqrt_half(ring.D, *alpha.half_coords())
    return None if root is None else _from_half_unchecked(ring, *root)


def _div_half(D: int, U1: int, V1: int, U2: int, V2: int) -> tuple[int, int] | None:
    """Half-coordinates of (U1 + V1*sqrt(-D)) / (U2 + V2*sqrt(-D)) in O_K, on integers.

    Returns the (u, v) of the quotient, or None if it does not lie in O_K.
    Multiplying by the conjugate gives (p + q*sqrt(-D)) / (U2**2 + D*V2**2),
    and U2**2 + D*V2**2 = 4*norm(den), so u = p / (2*norm(den)) and likewise
    v.  (U2, V2) must be the nonzero half-coordinates of an element of O_K.
    """
    m = (U2 * U2 + D * V2 * V2) // 2
    p = U1 * U2 + D * V1 * V2
    q = V1 * U2 - U1 * V2
    if p % m or q % m:
        return None
    u, v = p // m, q // m
    if (u * u + D * v * v) % 4:
        return None
    return u, v


def exact_div(num: QuadInt, den: QuadInt) -> QuadInt | None:
    """num / den when the quotient lies in O_K, else None.  See _div_half."""
    if num.ring != den.ring:
        raise ValueError("mixed rings in exact_div")
    if den.is_zero():
        raise ZeroDivisionError("division by zero element")
    ring = num.ring
    q = _div_half(ring.D, *num.half_coords(), *den.half_coords())
    return None if q is None else _from_half_unchecked(ring, *q)


_INT_RE = re.compile(r"^[+-]?\d+$")
_W_RE = re.compile(r"^([+-]?\d+)([+-]\d+)\*w$")
_S_RE = re.compile(r"^\(([+-]?\d+)([+-]\d+)\*s\)/2$")


def parse_elem(text: str, ring: RingParams) -> QuadInt:
    """Parse `INT`, `INT(+|-)INT*w` (w = omega) or `(INT(+|-)INT*s)/2` (s = sqrt(-D))."""
    t = text.strip().replace(" ", "")
    if _INT_RE.match(t):
        return QuadInt(ring, int(t), 0)
    m = _W_RE.match(t)
    if m:
        return QuadInt(ring, int(m.group(1)), int(m.group(2)))
    m = _S_RE.match(t)
    if m:
        return from_half(ring, int(m.group(1)), int(m.group(2)))
    raise ValueError(f"malformed element text: {text!r}")


def format_elem(a: QuadInt) -> str:
    if a.y == 0:
        return str(a.x)
    return f"{a.x}{a.y:+d}*w"


def elem_to_json(a: QuadInt) -> dict[str, str]:
    return {"x": str(a.x), "y": str(a.y)}


def elem_from_json(d: dict[str, str], ring: RingParams) -> QuadInt:
    return QuadInt(ring, int(d["x"]), int(d["y"]))


def _half_rows(D: int, max_norm: int):
    """The rows of _iter_half: pairs (u, range of v), in ascending u, built from integer square roots.

    By the integrality rule (u, v) lies in O_K exactly when v = u (mod 2) and,
    unless D = 3 (mod 4), u is even.  Row u = 0 keeps v > 0 only.
    """
    four_n = 4 * max_norm
    ustep = 1 if D % 4 == 3 else 2
    for u in range(0, isqrt(four_n) + 1, ustep):
        vmax = isqrt((four_n - u * u) // D)
        yield u, range(2 if u == 0 else (vmax - u) % 2 - vmax, vmax + 1, 2)


def _iter_half(D: int, max_norm: int):
    """Half-coordinates (u, v) of one element of each pair {z, -z} of norm <= max_norm.

    Yields the z with u > 0, or u = 0 and v > 0 (the half-plane of _sqrt_half's
    roots), in the rows of _half_rows.
    """
    for u, vs in _half_rows(D, max_norm):
        for v in vs:
            yield u, v


def iter_elements(ring: RingParams, max_norm: int):
    """Yield every nonzero element of norm <= max_norm (unspecified order)."""
    for u, v in _iter_half(ring.D, max_norm):
        yield _from_half_unchecked(ring, u, v)
        yield _from_half_unchecked(ring, -u, -v)


def sorted_ball(ring: RingParams, max_norm: int) -> list[QuadInt]:
    """Every nonzero element of norm <= max_norm, sorted by elem_key (norm, x, y).

    The keys are formed on integers from the rows of _half_rows, for z and -z
    at once (their basis coordinates are (x, y) and (-x, -y)), and sorted
    before any element is built.
    """
    D = ring.D
    half = ring.omega_mode is OmegaMode.HALF
    keys = []
    for u, vs in _half_rows(D, max_norm):
        uu = u * u
        for v in vs:
            m = (uu + D * v * v) >> 2
            x, y = ((u - v) >> 1, v) if half else (u >> 1, v >> 1)
            keys.append((m, x, y))
            keys.append((m, -x, -y))
    keys.sort()
    return [QuadInt(ring, x, y) for _, x, y in keys]
